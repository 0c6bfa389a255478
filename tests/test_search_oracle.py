"""The int-encoded exhaustive search against the reference search, which
fires every branch with apply_step on frozen configurations, and the
search's witnesses against the audit and the oracle replay."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmatch import protocol, scheduler, verifier
from stabmatch.graph import Graph, check_distance2_unique, generate
from stabmatch.protocol import (
    STANDARD,
    Configuration,
    MutableConfiguration,
    RuleSemantics,
    enabled_nodes,
    random_configuration,
)
from stabmatch.scheduler import apply_step
from stabmatch.verifier import audit_trace, exhaustive_search, witness_trace

from . import oracles
from .oracles import (
    _branches,
    all_wellformed_configurations,
    literal_guards,
    reference_search,
    replay_configurations,
)

BROKEN = RuleSemantics(seduction_requires_larger_id=False)


def labeled_connected_graphs():
    """Every connected graph on nodes 0..n-1 for 2 <= n <= 4: 43 in all."""
    out = []
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(n - 1, len(pairs) + 1):
            for edges in itertools.combinations(pairs, k):
                g = Graph.from_edges(range(n), edges)
                if g.is_connected():
                    out.append(g)
    return out


INSTANCES = labeled_connected_graphs()


def _name(g):
    return f"n{g.n}-" + "-".join(f"{u}{v}" for u, v in g.edges())


@pytest.fixture(scope="module")
def standard_results():
    """The engine's all-configurations search with marriage branching on
    every instance, shared by the differential and the witness tests."""
    return {_name(g): exhaustive_search(g, "all", branch_marriage=True) for g in INSTANCES}


def test_there_are_43_instances():
    assert len(INSTANCES) == 43
    assert len({_name(g) for g in INSTANCES}) == 43


@pytest.mark.parametrize("g", INSTANCES, ids=_name)
def test_equals_reference_with_marriage_branching(g, standard_results):
    assert standard_results[_name(g)] == reference_search(g, "all", branch_marriage=True)


@pytest.mark.parametrize("branch_marriage", (False, True))
@pytest.mark.parametrize("g", INSTANCES, ids=_name)
def test_equals_reference_on_guard_stripped_livelocks(g, branch_marriage):
    result = exhaustive_search(g, "all", branch_marriage, semantics=BROKEN)
    assert result.livelock
    assert result == reference_search(g, "all", branch_marriage, semantics=BROKEN)


@pytest.mark.parametrize("g", INSTANCES, ids=_name)
def test_equals_reference_when_the_budget_runs_out(g):
    result = exhaustive_search(g, "all", branch_marriage=True, budget=37)
    assert result == reference_search(g, "all", branch_marriage=True, budget=37)


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    # identifiers from a range smaller than n: ties at every distance,
    # distance three included, broken by node key
    ident = {u: draw(st.integers(0, max(1, n - 2))) for u in range(n)}
    g = Graph.from_edges(range(n), edges, ident)
    # the node tuple in any order, as a Graph built in the library may hold
    # it: the search and the reference both branch in key order
    g = Graph(tuple(draw(st.permutations(g.nodes))), g.adjacency, ident)
    c0 = random_configuration(g, draw(st.integers(0, 2**16)))
    return g, c0, draw(st.booleans()), draw(st.sampled_from((STANDARD, STANDARD, BROKEN)))


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_successors_follow_the_reference_branch_order(instance):
    """One state's int successors against the reference's branch
    enumeration fired one branch at a time by apply_step. The fields in
    which a successor differs from its state, in key order, are its
    branch's subset: the witness replay reads the movers off them."""
    g, c0, branch_marriage, semantics = instance
    codec = verifier._StateCodec(g)
    state = codec.encode(c0)
    assert codec.decode(state) == c0
    succs = verifier._successors(MutableConfiguration(c0), g, semantics, branch_marriage,
                                 codec, codec.caches(), state)
    branches = list(_branches(c0, g, enabled_nodes(c0, g, semantics), branch_marriage))
    assert [tuple(i for i in sorted(g.nodes) if (state ^ succ) & codec.field[i])
            for succ in succs] == [subset for subset, _ in branches]
    assert [codec.decode(succ) for succ in succs] == [
        apply_step(c0, g, subset, semantics, marriage_choices=choices)[0]
        for subset, choices in branches
    ]


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.randoms(use_true_random=False))
def test_successors_of_a_state_are_pairwise_distinct(instance, rng):
    """Each enabled node XORs a nonzero delta onto its own field, one per
    suitor, so no two branches of one state reach the same successor: the
    search recovers a branch index from its successor by ``list.index``."""
    g, _, _, _ = instance
    codec = verifier._StateCodec(g)
    states = list(codec.every_state())
    states = rng.sample(states, min(len(states), 100))
    c = MutableConfiguration(Configuration.all_null(g))
    for semantics in (STANDARD, BROKEN):
        for branch_marriage in (False, True):
            caches = codec.caches()
            for state in states:
                succs = verifier._successors(
                    c, g, semantics, branch_marriage, codec, caches, state)
                assert len(set(succs)) == len(succs)
                assert state not in succs


def _flag_even_matchings(mt, g):
    """A stand-in maximality check that calls every stable leaf with an
    even number of matched pairs non-maximal, so leaves of both kinds
    occur below one start."""
    return None if len(mt) % 2 else (-1, -1)


@pytest.mark.parametrize("flagged", (False, True), ids=("maximal", "flagged"))
@pytest.mark.parametrize("budget", (5, 37, 200_000))
@pytest.mark.parametrize("g", INSTANCES, ids=_name)
def test_single_start_equals_reference(monkeypatch, g, budget, flagged):
    """One start, searched to the end or cut off by the budget, against the
    reference in every field: a start the budget cuts off before it closes
    keeps the vacuous all_leaves_maximal even when a flagged leaf below it
    was memoized."""
    if flagged:
        for module in (verifier, oracles):
            monkeypatch.setattr(module, "check_maximal", _flag_even_matchings)
    for seed in range(3):
        c0 = random_configuration(g, seed)
        assert exhaustive_search(g, c0, branch_marriage=True, budget=budget) == reference_search(
            g, c0, branch_marriage=True, budget=budget)


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_equals_reference_on_random_labelings(instance):
    g, c0, branch_marriage, semantics = instance
    assert exhaustive_search(g, c0, branch_marriage, semantics=semantics) == reference_search(
        g, c0, branch_marriage, semantics=semantics)


@pytest.mark.parametrize("g", INSTANCES, ids=_name)
def test_worst_witness_is_audited(g, standard_results):
    result = standard_results[_name(g)]
    trace = witness_trace(g, result.witness_initial, result.witness)
    assert trace.steps == result.worst_steps
    assert trace.stable
    assert audit_trace(trace).all_pass


@pytest.mark.parametrize("g", INSTANCES, ids=_name)
def test_livelock_cycle_returns_to_its_start(g):
    result = exhaustive_search(g, "all", semantics=BROKEN)
    steps = result.livelock_prefix + result.livelock_cycle
    trace = witness_trace(g, result.livelock_initial, steps, semantics=BROKEN)
    configs = replay_configurations(
        g, result.livelock_initial, [r.moves for r in trace.records], BROKEN)
    assert len(result.livelock_cycle) >= 1
    assert configs[len(result.livelock_prefix)] == configs[-1]


TIED = {name: Graph.from_edges(range(n), edges, ident={i: 0 for i in range(n)})
        for name, n, edges in [("P2", 2, [(0, 1)]), ("P3", 3, [(0, 1), (1, 2)]),
                               ("K3", 3, [(0, 1), (0, 2), (1, 2)])]}


@pytest.mark.parametrize("branch_marriage", (False, True))
@pytest.mark.parametrize("name", TIED)
def test_equal_identifiers_on_an_edge_livelock(name, branch_marriage):
    """The shipped protocol assumes unique identifiers. With every identifier
    equal it livelocks: on P2, from 0 pointing at 1 and 1 null, 0 abandons
    (its pointee's identifier is no larger) as 1 marries 0, and the next
    step mirrors it. The trace format names a node by its identifier, so it
    cannot carry these graphs (``write_graph`` refuses a custom identifier
    map) and no golden trace pins them."""
    g = TIED[name]
    result = exhaustive_search(g, "all", branch_marriage)
    assert result.livelock
    assert result == reference_search(g, "all", branch_marriage)
    steps = result.livelock_prefix + result.livelock_cycle
    trace = witness_trace(g, result.livelock_initial, steps)
    configs = replay_configurations(
        g, result.livelock_initial, [r.moves for r in trace.records])
    assert len(result.livelock_cycle) >= 1
    assert configs[len(result.livelock_prefix)] == configs[-1]


def _colored(g, ident):
    return Graph.from_edges(g.nodes, g.edges(), ident=dict(zip(g.nodes, ident)))


K23 = Graph.from_edges(range(5), [(u, v) for u in (0, 1) for v in (2, 3, 4)])
# proper colorings that repeat an identifier within distance 2, with the
# worst steps of each under every schedule
COLORED = {
    "P3": (_colored(generate("path", 3), (1, 0, 1)), 9),
    "C4": (_colored(generate("cycle", 4), (0, 1, 0, 1)), 18),
    "C5": (_colored(generate("cycle", 5), (0, 1, 0, 1, 2)), 23),
    "C6": (_colored(generate("cycle", 6), [i % 2 for i in range(6)]), 28),
    "P6": (_colored(generate("path", 6), [i % 2 for i in range(6)]), 27),
    "K2,3": (_colored(K23, (1, 1, 0, 0, 0)), 24),
    "K2,3-swapped": (_colored(K23, (0, 0, 1, 1, 1)), 20),
}


@pytest.mark.parametrize("name", COLORED)
def test_proper_colorings_stabilize_within_the_step_bound(name):
    """Adjacent identifiers differ, but identifiers repeat within distance
    2, which is less than the paper assumes: every schedule from every
    configuration still reaches a maximal matching within 3n + 2m steps,
    and the worst witness passes the audit. The trace format names a node
    by its identifier, so it cannot carry these graphs (``write_graph``
    refuses a custom identifier map) and no golden trace pins them."""
    g, worst = COLORED[name]
    assert check_distance2_unique(g) != []
    result = exhaustive_search(g, "all", branch_marriage=True)
    assert result.ok and result.worst_steps == worst
    report = audit_trace(witness_trace(g, result.witness_initial, result.witness))
    assert report.all_pass and report.steps == worst


# n = 5 graphs where every closed neighborhood leaves some node out, so
# even a null-pointer node's results are cached under less than the whole
# state; C5 and the bull are labeled as in the benchmark's search workload
P5 = Graph.from_edges(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
C5 = Graph.from_edges(range(5), [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)])
BULL = Graph.from_edges(range(5), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
P3_K2 = Graph.from_edges(range(5), [(0, 1), (1, 2), (3, 4)])
# n = 4 graphs labeled as in the benchmark's search workload, where a
# null-pointer node with m clear reads every field (all of K4, the paw's 3)
K4 = Graph.from_edges(range(4), itertools.combinations(range(4), 2))
PAW = Graph.from_edges(range(4), [(0, 1), (0, 3), (1, 3), (2, 3)])


@pytest.mark.parametrize("g, semantics, branch_marriage", [
    (P5, STANDARD, True), (P5, BROKEN, False), (P5, BROKEN, True), (P3_K2, STANDARD, True)],
    ids=["P5", "P5-stripped", "P5-stripped-branching", "P3+K2"])
def test_equals_reference_where_the_view_caches_hit(g, semantics, branch_marriage):
    result = exhaustive_search(g, "all", branch_marriage, semantics=semantics)
    assert result == reference_search(g, "all", branch_marriage, semantics=semantics)
    assert result.livelock == (semantics is BROKEN)


@pytest.mark.parametrize("g, explored, worst", [(C5, 7776, 22), (BULL, 6144, 21)],
                         ids=["C5", "bull"])
def test_pinned_five_node_searches_and_their_audited_witnesses(g, explored, worst):
    result = exhaustive_search(g, "all", branch_marriage=True)
    assert (result.explored, result.memo_size, result.worst_steps) == (explored, explored, worst)
    assert result.ok
    trace = witness_trace(g, result.witness_initial, result.witness)
    assert trace.steps == worst and trace.stable
    assert audit_trace(trace).all_pass


def test_the_memo_holds_one_int_per_state():
    """The memo maps a state to its worst step count alone. Under
    tracemalloc, C5's search peaked at 1.13 MB when the memo also held each
    state's branch index and leaves flag, and at 0.68 MB without them."""
    tracemalloc.start()
    try:
        result = exhaustive_search(C5, "all", branch_marriage=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.memo_size == 7776
    assert peak < 900_000


@pytest.mark.parametrize("g, per_node, total", [
    (C5, 4 * 6 + 1 + 6**2, 329), (K4, 6 * 8 + 1 + 8**3, 2264)], ids=["C5", "K4"])
def test_each_guard_is_evaluated_once_per_read_set(monkeypatch, g, per_node, total):
    """A node is evaluated once per value of the fields it reads: its own
    field with its pointee's (C5: 4 pointer values * 6 pointee states; K4:
    6 * 8), its own alone with a null pointer and m set (1), its closed
    neighborhood with a null pointer and m clear (C5: 6**2 neighbor states;
    K4: 8**3). The witness replay evaluates once more per fired move."""
    calls = []
    guard = protocol.enabled_rule

    def counted(*args):
        calls.append(args[2])
        return guard(*args)

    for module in (protocol, scheduler):
        monkeypatch.setattr(module, "enabled_rule", counted)
    result = exhaustive_search(g, "all", branch_marriage=True)
    assert result.explored == result.memo_size == result.initial_count
    for i in g.nodes:
        fired = sum(i in ws.chosen for ws in result.witness)
        assert calls.count(i) == per_node + fired
    assert len(calls) == total


def test_each_stable_leaf_is_checked_in_its_own_configuration(monkeypatch):
    """A state whose nodes all hit their caches is not decoded to find its
    successors, so a stable leaf must be decoded for its maximality check.
    In P3 plus a disjoint K2, stable parts of the two components combine:
    a stable state is reached whose every node's read fields were seen
    before."""
    g = P3_K2
    leaves = []
    extract = verifier.extract_matching

    def recording(c, g):
        leaves.append(c.freeze())
        return extract(c, g)

    monkeypatch.setattr(verifier, "extract_matching", recording)
    assert exhaustive_search(g, "all", branch_marriage=True).all_leaves_maximal
    stable = [c for c in all_wellformed_configurations(g)
              if not any(literal_guards(c, g, i) for i in g.nodes)]
    assert len(leaves) == len(set(leaves)) == len(stable)
    assert set(leaves) == set(stable)


def test_read_masks_by_own_field_value():
    """Per node and own field value, (null, f), (null, t), then each
    neighbor as pointer with m false and true: the nodes whose fields the
    guard and command read."""
    def read_nodes(g):
        codec = verifier._StateCodec(g)
        return [[{j for j in g.nodes if mask & codec.field[j]} for mask in reads]
                for reads in codec.reads]

    assert read_nodes(K4)[0] == [
        {0, 1, 2, 3}, {0}, {0, 1}, {0, 1}, {0, 2}, {0, 2}, {0, 3}, {0, 3}]
    assert read_nodes(PAW) == [
        [{0, 1, 3}, {0}, {0, 1}, {0, 1}, {0, 3}, {0, 3}],
        [{0, 1, 3}, {1}, {1, 0}, {1, 0}, {1, 3}, {1, 3}],
        [{2, 3}, {2}, {2, 3}, {2, 3}],
        [{0, 1, 2, 3}, {3}, {3, 0}, {3, 0}, {3, 1}, {3, 1}, {3, 2}, {3, 2}],
    ]


@pytest.mark.parametrize("g", [PAW, P3_K2], ids=["paw", "P3+K2"])
def test_every_state_ascends_in_the_reference_order(g):
    """The search takes the least memoized state as the first worst start,
    so the ints must ascend in the reference's order of configurations."""
    codec = verifier._StateCodec(g)
    states = list(codec.every_state())
    assert states == sorted(states)
    assert [codec.decode(state) for state in states] == list(all_wellformed_configurations(g))
    assert verifier.configuration_count(g) == len(states)


def test_an_all_configurations_search_streams_its_starts():
    """Under a budget the starts are drawn one at a time: C8 has 1 679 616
    well-formed configurations, and listing them took 75 MB."""
    g = generate("cycle", 8)
    tracemalloc.start()
    try:
        result = exhaustive_search(g, "all", budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (result.explored, result.memo_size, result.initial_count, result.worst_steps) == (
        101, 91, 1_679_616, 8)
    assert not result.complete
    assert result.witness_initial.to_text() == (
        "0 7 f\n1 2 t\n2 1 t\n3 4 t\n4 3 t\n5 - f\n6 - f\n7 - f\n")
    assert len(result.witness) == 8


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.randoms(use_true_random=False))
def test_cached_successors_equal_fresh_ones(instance, rng):
    """States visited in a random order through one set of caches give
    the successors that fresh caches give."""
    g, _, branch_marriage, semantics = instance
    codec = verifier._StateCodec(g)
    states = list(codec.every_state())
    states = rng.sample(states, min(len(states), 200))
    caches = codec.caches()
    c = MutableConfiguration(Configuration.all_null(g))
    for state in states + states[:20]:
        got = verifier._successors(c, g, semantics, branch_marriage, codec, caches, state)
        want = verifier._successors(
            c, g, semantics, branch_marriage, codec, codec.caches(), state)
        assert got == want


@pytest.mark.parametrize("g", (generate("path", 3), C5), ids=("P3", "C5"))
def test_witness_replay_rejects_a_step_that_misses_its_successor(monkeypatch, g):
    """An apply_step that flips the first mover's m reaches a state the
    search never generated: the replay names the witness step instead of
    returning a witness built from states the engine never reaches."""
    def flipped(c, graph, chosen, semantics, **kwargs):
        c, moves = apply_step(c, graph, chosen, semantics, **kwargs)
        k = c.nodes.index(moves[0].node)
        m = c.m[:k] + (not c.m[k],) + c.m[k + 1:]
        return Configuration(c.nodes, c.p, m), moves

    monkeypatch.setattr(verifier, "apply_step", flipped)
    with pytest.raises(RuntimeError, match=r"^witness step 0: "):
        exhaustive_search(g, "all", branch_marriage=True)
