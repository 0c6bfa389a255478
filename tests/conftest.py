from __future__ import annotations

import pytest

from stabmatch.graph import Graph
from stabmatch.protocol import Configuration

# Every connected graph on up to four nodes, one labeled representative per
# isomorphism class, with ids 0..n-1.
SMALL_CONNECTED = {
    "K1": (1, []),
    "K2": (2, [(0, 1)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "C3": (3, [(0, 1), (0, 2), (1, 2)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star4": (4, [(0, 1), (0, 2), (0, 3)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "paw": (4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "diamond": (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}


def small_graph(name: str) -> Graph:
    n, edges = SMALL_CONNECTED[name]
    return Graph.from_edges(range(n), edges)


@pytest.fixture
def p2():
    return small_graph("K2")


@pytest.fixture
def p3():
    return small_graph("P3")


@pytest.fixture
def triangle():
    return small_graph("C3")


@pytest.fixture
def two_suitors():
    """The golden scenario: center 3 courted by both neighbors.

    Nodes 3 > 2 > 1 with edges (1,3) and (2,3); initially 1 and 2 both point
    at 3, which points nowhere, and every m-flag is false.
    """
    g = Graph.from_edges([1, 2, 3], [(1, 3), (2, 3)])
    c0 = Configuration.from_states(g, {1: (3, False), 2: (3, False), 3: (None, False)})
    return g, c0


def config_of(g: Graph, assignments: dict[int, tuple[int | None, bool]]) -> Configuration:
    states = {i: assignments.get(i, (None, False)) for i in g.nodes}
    return Configuration.from_states(g, states)
