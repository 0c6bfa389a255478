from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from stabmatch.graph import (
    Graph,
    GraphFormatError,
    check_distance2_unique,
    generate,
    read_graph,
    write_graph,
)

from .oracles import distance2_violations
from .test_verifier import _components_by_smallest_left


class TestNeighbors:
    """A node's neighbors are its adjacency row, sorted ascending."""

    def test_path_middle(self, p3):
        assert p3.adjacency[1] == (0, 2)

    def test_single_node(self):
        g = Graph.from_edges([7], [])
        assert g.adjacency[7] == ()

    def test_triangle_row(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
        assert g.adjacency[2] == (1, 3)


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges([0, 1], [(0, 0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            Graph.from_edges([0, 1], [(0, 2)])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            Graph.from_edges([], [])

    @pytest.mark.parametrize("nodes, adjacency, ident, fragment", [
        ((0, 1), {0: (1,), 1: (0,)}, {0: 0}, "ident must assign"),
        ((-1, 1), {-1: (1,), 1: (-1,)}, {}, "nonnegative"),
        ((0, 1), {0: (0, 1), 1: (0,)}, {}, "self-loop at node 0"),
        ((0, 1), {0: (1, 2), 1: (0,)}, {}, "edge endpoint 2 not a node"),
        ((0, 1), {0: (1,), 1: ()}, {}, r"adjacency not symmetric at \(0, 1\)"),
        # each node needs exactly one position and one adjacency entry
        ((0, 1, 0), {0: (1,), 1: (0,)}, {}, "node keys must be distinct"),
        ((0, 1, 2), {0: (1,), 1: (0,)}, {}, "one entry per node"),
        ((0, 1), {0: (1,), 1: (0,), 5: ()}, {}, "one entry per node"),
        ((0, 1), {0: (1, 1), 1: (0, 0)}, {}, "repeated neighbor 0 at node 1"),
        # marriage_suitors and check_maximal read each row in ascending order
        ((0, 1, 2), {0: (2, 1), 1: (0,), 2: (0,)}, {}, "adjacency of node 0 is not sorted"),
    ])
    def test_direct_construction_rejects(self, nodes, adjacency, ident, fragment):
        with pytest.raises(ValueError, match=fragment):
            Graph(nodes, adjacency, ident)

    @pytest.mark.parametrize("nodes, edges, ident, fragment", [
        ([-1, 1], [(-1, 1)], None, "nonnegative"),
        ([0, 1], [(0, 1)], {0: 0}, "ident must assign"),
        ([0, 1], [(0, 1)], {0: 0, 1: 1, 2: 2}, "ident must assign"),
        ([0, 1], [(0, 1)], {0: 0, 1: -3}, "nonnegative"),
    ])
    def test_from_edges_checks_nodes_and_identifiers(self, nodes, edges, ident, fragment):
        """from_edges builds its rows well-formed and checks no arc, but
        every node and identifier check of ``Graph(...)`` still applies."""
        with pytest.raises(ValueError, match=fragment):
            Graph.from_edges(nodes, edges, ident)

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges([0, 1], [(0, 1), (1, 0)])
        assert g.m == 1


@st.composite
def sparse_edge_lists(draw):
    """Distinct nonnegative keys in a drawn order, an edge list over them
    with repeats and both orientations, and an identifier map with ties.
    A drawn flag adds a path through the keys, which leaves none isolated."""
    keys = draw(st.lists(st.integers(0, 60), min_size=1, max_size=9, unique=True))
    pairs = st.tuples(st.sampled_from(keys), st.sampled_from(keys)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=20)) if len(keys) > 1 else []
    if draw(st.booleans()):
        edges += list(zip(keys, keys[1:]))
    ident = {u: draw(st.integers(0, 4)) for u in keys}
    return keys, draw(st.permutations(edges)), ident


def _assert_same_graph(built, checked):
    assert built == checked
    assert built.around == checked.around and built.rank == checked.rank
    assert built.m == checked.m == len(checked.edges())


class TestBuilders:
    """read_graph and from_edges skip Graph(...)'s arc checks; the graphs
    they build are the ones Graph(...) accepts on the same rows."""

    @given(sparse_edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_builders_equal_the_checked_constructor(self, drawn):
        keys, edges, ident = drawn
        g = Graph.from_edges(keys, edges)
        assert g.nodes == tuple(sorted(keys))
        assert set(g.edges()) == {(min(e), max(e)) for e in edges}
        _assert_same_graph(g, Graph(g.nodes, g.adjacency))
        h = Graph.from_edges(keys, edges, ident)
        _assert_same_graph(h, Graph(h.nodes, h.adjacency, ident))
        rows = g.adjacency.values()
        if all(rows) or not any(rows) and g.nodes == tuple(range(g.n)):
            _assert_same_graph(read_graph(write_graph(g)), Graph(g.nodes, g.adjacency))


class TestPositionTables:
    @given(n=st.integers(1, 12), extra=st.integers(0, 12), seed=st.integers(0, 10**6),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tables_are_adjacency_and_ident_by_position(self, n, extra, seed, data):
        """On a generated graph, its file read back, the graph relabeled to
        sparse keys with identifiers drawn with ties, and both built
        directly on a permuted node tuple. A generated graph's nodes are
        0..n-1 in order, so its ``around`` is its adjacency tuples, and
        those equal the general mapping: adjacency and ident mapped through
        each node's index in ``nodes``."""
        g = generate("random_gnm", n, min(n - 1 + extra, n * (n - 1) // 2), seed)
        assert all(g.around[k] is g.adjacency[k] for k in g.nodes)
        key = {u: 5 + 4 * k for k, u in enumerate(data.draw(st.permutations(g.nodes)))}
        ident = {key[u]: data.draw(st.integers(0, 3)) for u in g.nodes}
        sparse = Graph.from_edges(key.values(), [(key[u], key[v]) for u, v in g.edges()], ident)
        graphs = [g, read_graph(write_graph(g)), sparse]
        for h in (g, sparse):
            order = tuple(data.draw(st.permutations(h.nodes)))
            graphs.append(Graph(order, {u: h.adjacency[u] for u in order},
                                {} if h is g else ident))
        for h in graphs:
            assert list(h.around) == [
                tuple(h.nodes.index(v) for v in h.adjacency[u]) for u in h.nodes]
            assert list(h.rank) == [h.ident[u] for u in h.nodes]


class TestComponents:
    """``components`` and ``is_connected`` against a key-based walk over
    ``adjacency``: on graphs whose keys are not 0..n-1 and whose ``nodes``
    are listed in a drawn order, and on an edge-free file."""

    @given(sparse_edge_lists(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_match_a_key_based_walk(self, drawn, data):
        keys, edges, _ = drawn
        g = Graph.from_edges(keys, edges)
        g = Graph(tuple(keys), {u: g.adjacency[u] for u in keys})
        assert g.is_connected() == (len(_components_by_smallest_left(keys, g)) == 1)
        members = data.draw(st.sets(st.sampled_from(keys)))
        mask = bytes(u in members for u in g.nodes)
        got = [frozenset(g.nodes[k] for k in comp) for comp in g.components(mask)]
        assert got == _components_by_smallest_left(members, g)

    def test_isolated_nodes_of_an_edge_free_file(self):
        g = read_graph("3\n")
        assert g.components(b"\1" * 3) == [[0], [1], [2]]
        assert not g.is_connected()
        assert read_graph("1\n").is_connected()


class TestDistance2Unique:
    def test_shared_id_at_distance_two(self):
        # path with identifier values 1-2-1: endpoints clash
        g = Graph.from_edges([0, 1, 2], [(0, 1), (1, 2)], ident={0: 1, 1: 2, 2: 1})
        assert check_distance2_unique(g) == [(0, 2)]

    def test_globally_unique_ids_ok(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        assert check_distance2_unique(g) == []

    def test_two_disjoint_edges_same_labels_ok(self):
        # two components, both labeled {1, 2}; clash is at distance infinity
        g = Graph.from_edges(
            [0, 1, 2, 3], [(0, 1), (2, 3)], ident={0: 1, 1: 2, 2: 1, 3: 2}
        )
        assert check_distance2_unique(g) == []
        assert distance2_violations(g) == []

    def test_agrees_with_bfs_oracle(self):
        g = Graph.from_edges(
            range(6),
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            ident={0: 9, 1: 1, 2: 2, 3: 9, 4: 1, 5: 9},
        )
        assert check_distance2_unique(g) == distance2_violations(g)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_accepts_every_globally_unique_graph(self, seed, n):
        m = min(n + 2, n * (n - 1) // 2)
        g = generate("random_gnm", n, m, seed)
        assert check_distance2_unique(g) == []


class TestGenerate:
    def test_path3(self):
        assert generate("path", 3).edges() == [(0, 1), (1, 2)]

    def test_complete4_edge_count(self):
        assert generate("complete", 4).m == 6

    def test_gnm_deterministic(self):
        a = generate("random_gnm", 50, 200, 7)
        b = generate("random_gnm", 50, 200, 7)
        assert a.edges() == b.edges()

    def test_gnm_requested_size(self):
        g = generate("random_gnm", 50, 200, 7)
        assert g.n == 50 and g.m == 200

    def test_gnm_infeasible_m(self):
        with pytest.raises(ValueError, match="at most"):
            generate("random_gnm", 5, 999)

    def test_gnm_too_few_edges_for_connectivity(self):
        with pytest.raises(ValueError, match="connect"):
            generate("random_gnm", 5, 3)

    def test_gnm_needs_m(self):
        with pytest.raises(ValueError, match="random_gnm needs m"):
            generate("random_gnm", 5)

    def test_fixed_family_rejects_a_different_m(self):
        with pytest.raises(ValueError, match="path with n=4 has 3 edges, not m=5"):
            generate("path", 4, m=5)

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            generate("cycle", 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator kind"):
            generate("hypercube", 4)

    @pytest.mark.parametrize("kind,n,m", [
        ("path", 1, None), ("path", 9, None), ("cycle", 5, None),
        ("complete", 6, None), ("star", 7, None),
        ("random_gnm", 9, 13, ), ("random_gnm", 17, 16, ),
    ])
    def test_generated_graphs_wellformed(self, kind, n, m):
        for seed in (0, 1, 12345):
            g = generate(kind, n, m, seed)
            assert g.is_connected()
            assert list(g.nodes) == list(range(n))
            for u in g.nodes:
                assert u not in g.adjacency[u]
                for v in g.adjacency[u]:
                    assert u in g.adjacency[v]


class TestFileFormat:
    def test_read_path(self):
        g = read_graph("3\n0 1\n1 2\n")
        assert list(g.nodes) == [0, 1, 2]
        assert g.edges() == [(0, 1), (1, 2)]

    def test_write_canonical(self):
        g = Graph.from_edges([0, 1, 2], [(1, 2), (0, 1)])
        assert write_graph(g) == "3\n0 1\n1 2\n"

    @given(n=st.integers(1, 30), extra=st.integers(0, 40), seed=st.integers(0, 10**6),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_edge_lines_are_sorted_whatever_the_adjacency_order(self, n, extra, seed, data):
        """The edge lines come from each node's sorted adjacency, the nodes
        ascending: the sorted edge list, also for a graph built directly
        with its node tuple and adjacency dict in another order."""
        g = generate("random_gnm", n, min(n - 1 + extra, n * (n - 1) // 2), seed)
        order = data.draw(st.permutations(g.nodes))
        direct = Graph(tuple(order), {u: g.adjacency[u] for u in order})
        expected = "".join(f"{u} {v}\n" for u, v in g.edges())
        assert write_graph(direct) == write_graph(g) == f"{n}\n{expected}"

    def test_comments_and_blank_lines(self):
        g = read_graph("# a path\n3\n\n0 1  # first edge\n1 2\n")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_roundtrip_gnm(self):
        g = generate("random_gnm", 50, 200, 7)
        h = read_graph(write_graph(g))
        assert h.nodes == g.nodes and h.adjacency == g.adjacency

    def test_roundtrip_is_canonical_fixpoint(self):
        text = "3\n0 2\n1 2\n"
        assert write_graph(read_graph(text)) == text

    def test_edge_free_file(self):
        g = read_graph("4\n")
        assert list(g.nodes) == [0, 1, 2, 3] and g.m == 0

    def test_noncontiguous_ids(self):
        g = read_graph("3\n1 3\n2 3\n")
        assert list(g.nodes) == [1, 2, 3]

    def test_disconnected_accepted(self):
        g = read_graph("4\n0 1\n2 3\n")
        assert not g.is_connected()

    @pytest.mark.parametrize("text,fragment", [
        ("", "missing node count"),
        ("x\n0 1\n", "expected node count"),
        ("²\n", "line 1: expected node count"),
        ("# count\n1²\n0 1\n", "line 2: expected node count"),
        ("2\n0\n", "expected 'u v'"),
        ("2\n0 a\n", "non-integer"),
        ("2\n1 1\n", "self-loop"),
        ("2\n1 0\n", "u < v"),
        ("2\n0 1\n0 1\n", "duplicate edge"),
        ("5\n0 1\n", "does not match"),
        ("1000001\n", "line 1: an edge-free graph has at most 1000000 nodes, not 1000001"),
        ("# count\n\n" + "9" * 30 + "\n", "line 3: an edge-free graph has at most 1000000"),
        ("1000001\n0 1\n", "does not match"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            read_graph(text)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            read_graph("3\n0 1\n1 1\n")

    def test_a_count_above_the_text_allocates_no_row_per_node(self):
        """The rows are sized by the text as well as the count: a count of
        4 000 000 000 beside one edge line reaches the count-mismatch error
        with a peak far below one object per counted node."""
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="node count 4000000000 does not match"):
                read_graph("4000000000\n0 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_write_rejects_isolated_mix(self):
        g = Graph.from_edges([0, 1, 5], [(0, 1)])
        with pytest.raises(ValueError, match="not representable"):
            write_graph(g)

    def test_write_rejects_edge_free_noncontiguous_ids(self):
        g = Graph((0, 2), {0: (), 2: ()})
        with pytest.raises(ValueError, match="non-contiguous"):
            write_graph(g)

    def test_write_rejects_custom_ident(self):
        g = Graph.from_edges([0, 1], [(0, 1)], ident={0: 7, 1: 8})
        with pytest.raises(ValueError, match="not representable"):
            write_graph(g)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random(self, seed):
        g = generate("random_gnm", 12, 18, seed)
        assert write_graph(read_graph(write_graph(g))) == write_graph(g)
