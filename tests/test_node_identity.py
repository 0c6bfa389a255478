"""Each node id is one int object, the one in the graph's ``nodes`` tuple:
every adjacency entry, pointer and recorded move names that object. Ids
above 256 are not CPython's shared small ints, so a parser that kept its
own int for each occurrence of an id would hold many objects per id."""

from __future__ import annotations

import json

import pytest

from stabmatch.graph import GraphFormatError, generate, read_graph, write_graph
from stabmatch.protocol import (
    MARRIAGE,
    Configuration,
    command_target,
    parse_configuration,
    random_configuration,
)
from stabmatch.scheduler import DaemonPolicy, TraceFormatError, parse_trace, run, write_trace

PATH400_TEXT = write_graph(generate("path", 400))
# ids 1000..1399: not 0..n-1, so not the contiguous range the others get
OFFSET_TEXT = "400\n" + "".join(f"{1000 + k} {1001 + k}\n" for k in range(399))


def _fresh(i):
    """An int equal to ``i`` that is a new object (for ``i`` above 256)."""
    return None if i is None else int(str(i))


def _assert_owned(g, ids):
    own = set(map(id, g.nodes))
    assert all(id(u) in own for u in ids if u is not None)


def _assert_graph_owns_its_ids(g):
    assert all(u > 256 for u in g.nodes[-10:])
    _assert_owned(g, g.adjacency)
    _assert_owned(g, (v for row in g.adjacency.values() for v in row))
    _assert_owned(g, [*g.ident, *g.ident.values(), *g.rank])


def _assert_configuration_owned(g, c):
    assert c.nodes is g.nodes
    _assert_owned(g, c.p)


GRAPHS = {
    "read path": lambda: read_graph(PATH400_TEXT),
    "read offset": lambda: read_graph(OFFSET_TEXT),
    "read edge-free": lambda: read_graph("400\n"),
    "generate path": lambda: generate("path", 400),
    "generate gnm": lambda: generate("random_gnm", 400, 1200, seed=1),
}


@pytest.fixture(params=GRAPHS, ids=list(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


def test_a_graph_holds_one_object_per_id(graph):
    _assert_graph_owns_its_ids(graph)


def test_configurations_point_at_the_graph_objects(graph):
    c = random_configuration(graph, 3)
    _assert_configuration_owned(graph, c)
    _assert_configuration_owned(graph, parse_configuration(c.to_text(), graph))
    fresh = {_fresh(i): (_fresh(p), m) for i, p, m in zip(c.nodes, c.p, c.m)}
    from_states = Configuration.from_states(graph, fresh)
    assert from_states == c
    _assert_configuration_owned(graph, from_states)


def test_a_marriage_choice_is_written_as_the_graph_object():
    g = read_graph(OFFSET_TEXT)
    i, j = g.nodes[1], g.nodes[2]
    c = Configuration.from_states(
        g, {u: (i if u == j else None, False) for u in g.nodes})
    p, _ = command_target(c, g, i, MARRIAGE, marriage_choice=_fresh(j))
    assert p == j and p is j


@pytest.mark.parametrize("text", [PATH400_TEXT, OFFSET_TEXT], ids=["path", "offset"])
@pytest.mark.parametrize("policy", ["synchronous", "distributed_fair"])
def test_a_parsed_trace_names_the_graph_objects(text, policy):
    g = read_graph(text)
    trace = parse_trace(write_trace(run(g, random_configuration(g, 1), DaemonPolicy.parse(policy, 1))))
    g = trace.graph
    _assert_graph_owns_its_ids(g)
    _assert_configuration_owned(g, trace.initial)
    _assert_configuration_owned(g, trace.final)
    moves = [mv for record in trace.records for mv in record.moves]
    assert any(mv.target is not None for mv in moves)
    _assert_owned(g, (mv.node for mv in moves))
    _assert_owned(g, (mv.target for mv in moves))


def test_a_header_graph_that_does_not_read_is_reported_after_the_lines():
    """The header's graph is read with the header, but its error is raised
    where it was before: after every line's own checks, before the fields'."""
    g = read_graph(PATH400_TEXT)
    lines = write_trace(run(g, random_configuration(g, 1), DaemonPolicy.parse("synchronous", 1))
                        ).splitlines()
    header = json.loads(lines[0])
    header["graph"] = "400\n0 0\n"
    lines[0] = json.dumps(header)
    with pytest.raises(GraphFormatError, match="line 2: self-loop 0"):
        parse_trace("\n".join(lines))
    step = json.loads(lines[1])
    step["moves"][0][0] = "a"
    with pytest.raises(TraceFormatError, match="line 2: move node and target must be integers"):
        parse_trace("\n".join([lines[0], json.dumps(step)] + lines[2:]))
