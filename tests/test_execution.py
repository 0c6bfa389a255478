"""The replay kernel against full rescans: after every step its enabled map
equals every node's guards evaluated afresh, and its round index is the one
the round definition gives, as ``rescan_rounds`` recomputes it. The inputs
include tied identifiers, node keys that are not 0..n-1, nodes in an order
that is not ascending, and dense graphs, since which neighbors a step
re-evaluates depends on identifier order and the guards read neighbors'
states at the positions of the graph's ``around`` table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmatch.graph import Graph, generate
from stabmatch.protocol import (
    STANDARD,
    Configuration,
    Rule,
    RuleSemantics,
    enabled_rule,
    enabled_rules,
    random_configuration,
)
from stabmatch.scheduler import (
    DaemonPolicy,
    Execution,
    Move,
    apply_step,
    replay_step,
    run,
    write_trace,
)
from stabmatch.verifier import audit_trace

from .conftest import config_of
from .golden_corpus import all_policies
from .oracles import replay_configurations, rescan_rounds

BROKEN = RuleSemantics(seduction_requires_larger_id=False)


@st.composite
def run_inputs(draw, traceable=False):
    """A run's inputs; ``traceable`` keeps each identifier equal to its node
    key, the only labeling a trace file carries."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("random_gnm", "complete", "star")))
    m = draw(st.integers(n - 1, n * (n - 1) // 2)) if kind == "random_gnm" else None
    g = generate(kind, n, m, draw(st.integers(0, 2**16)))
    if not traceable and draw(st.booleans()):
        # small identifier range: ties everywhere, broken by node key
        values = st.integers(0, max(1, n // 3))
        g = Graph(g.nodes, g.adjacency, {u: draw(values) for u in g.nodes})
    if n > 1 and draw(st.booleans()):
        # sparse node keys in a shuffled order, each keeping its identifier
        # (a trace file names a lone node 0)
        order = draw(st.permutations(range(n)))
        offset, stride = draw(st.integers(1, 50)), draw(st.integers(2, 5))
        key = {u: offset + stride * order[u] for u in g.nodes}
        g = Graph.from_edges(key.values(), [(key[u], key[v]) for u, v in g.edges()],
                             None if traceable else {key[u]: g.ident[u] for u in g.nodes})
    if not traceable and draw(st.booleans()):
        # the nodes in a drawn order (a trace file lists them ascending)
        g = Graph(tuple(draw(st.permutations(g.nodes))), g.adjacency, g.ident)
    semantics = draw(st.sampled_from((STANDARD, BROKEN)))
    policy = DaemonPolicy.parse(draw(st.sampled_from(all_policies())),
                                draw(st.integers(0, 2**16)))
    c0 = random_configuration(g, draw(st.integers(0, 2**16)))
    return g, c0, policy, semantics


@st.composite
def traces(draw):
    g, c0, policy, semantics = draw(run_inputs())
    return run(g, c0, policy, semantics=semantics), semantics


@settings(max_examples=200, deadline=None)
@given(traces(), st.sampled_from((enabled_rule, enabled_rules)))
def test_execution_matches_full_rescan(case, guards):
    trace, semantics = case
    g = trace.graph
    _, annotations = rescan_rounds(trace, semantics)
    execution = Execution(g, trace.initial, semantics, guards)
    assert execution.round == 1
    for k, record in enumerate(trace.records):
        c2 = replay_step(execution.config, g, record.moves, semantics)  # in place
        _, _, closed = execution.advance({mv.node for mv in record.moves})
        rescan = {}
        for i in g.nodes:
            result = guards(c2, g, i, semantics)
            if result:
                rescan[i] = result
        assert execution.enabled == rescan
        if k + 1 < len(annotations):
            assert execution.round == annotations[k + 1]
            assert closed == (annotations[k + 1] > annotations[k])
    assert execution.config.freeze() == trace.final
    assert (not execution.enabled) == trace.stable


# One step on a path of n nodes, and a non-mover whose guard the step
# changes through exactly one clause of advance's dependency rule: (n, ident,
# initial states, mover, semantics, the non-mover and its rule after the step).
ONE_CLAUSE_STEPS = {
    # 0 abandons 1 over tied identifiers: its old pointee loses a suitor
    "old pointee": (2, {0: 0, 1: 0}, {0: (1, False)}, 0, STANDARD, 1, None),
    # 0 courts 1, which gains a suitor but could not court 0 back
    "new pointee": (2, {}, {}, 0, STANDARD, 1, Rule.MARRIAGE),
    # 1 flags its marriage to 2: 0, pointing at 1, may now abandon it
    "points at mover": (3, {}, {0: (1, False), 1: (2, False), 2: (1, False)}, 1, STANDARD,
                        0, Rule.ABANDONMENT),
    # 1 clears a stale flag and becomes courtable by its smaller neighbor 0
    "courtable": (2, {}, {1: (None, True)}, 1, STANDARD, 0, Rule.SEDUCTION),
    # the same for the larger neighbor 1, once the identifier guard is stripped
    "courtable, stripped": (2, {}, {0: (None, True)}, 0, BROKEN, 1, Rule.SEDUCTION),
}


@pytest.mark.parametrize("case", ONE_CLAUSE_STEPS.values(), ids=ONE_CLAUSE_STEPS)
@pytest.mark.parametrize("guards", [enabled_rule, enabled_rules])
def test_each_dependency_clause_reevaluates_its_neighbor(case, guards):
    n, ident, states, mover, semantics, watched, rule_after = case
    g = generate("path", n)
    g = Graph(g.nodes, g.adjacency, ident)
    execution = Execution(g, config_of(g, states), semantics, guards)
    before = execution.enabled.get(watched)
    apply_step(execution.config, g, [mover], semantics)
    execution.advance([mover])
    after = guards(execution.config, g, watched, semantics) or None
    assert after != before and after in (rule_after, (rule_after,))
    assert execution.enabled.get(watched) == after


@pytest.mark.parametrize("guards", [enabled_rule, enabled_rules])
def test_update_move_does_not_reevaluate_a_pointee_that_points_elsewhere(guards):
    """0 clears a stale flag while pointing at 1, and 1 points at 2: the
    move changes nothing 1's guard reads, so 1 is not re-evaluated."""
    g = generate("path", 3)
    states = {0: (1, True), 1: (2, False), 2: (None, False)}
    evaluated = []

    def counted(*args):
        evaluated.append(args[2])
        return guards(*args)

    execution = Execution(g, config_of(g, states), STANDARD, counted)
    evaluated.clear()
    replay_step(execution.config, g, [Move(0, Rule.UPDATE)])
    execution.advance([0])
    assert evaluated == [0]
    c = execution.config
    assert c.m_of(0) is False
    assert execution.enabled == {i: r for i in g.nodes if (r := guards(c, g, i, STANDARD))}


def test_a_configuration_not_aligned_with_its_graph_is_refused():
    """The guards read states by position, so an Execution refuses a
    configuration whose nodes are the graph's in another order."""
    g = Graph((2, 0, 1), {0: (1, 2), 1: (0,), 2: (0,)})
    c0 = Configuration((0, 1, 2), (None, 0, 0), (False, False, False))
    with pytest.raises(ValueError, match="not the graph's"):
        Execution(g, c0, STANDARD, enabled_rule)
    with pytest.raises(ValueError, match="not the graph's"):
        run(g, c0, DaemonPolicy("synchronous"))
    aligned = Configuration(g.nodes, (0, None, 0), (False, False, False))
    assert run(g, aligned, DaemonPolicy("synchronous")).final.p_of(0) == 2


@pytest.mark.parametrize("kind", ["complete", "star"])
@pytest.mark.parametrize("semantics", [STANDARD, BROKEN], ids=["standard", "stripped"])
@pytest.mark.parametrize("guards", [enabled_rule, enabled_rules])
def test_dense_steps_reevaluate_fewer_than_the_movers_neighborhoods(kind, semantics, guards):
    """On a dense graph a sequential step's mover has many neighbors, and
    few of them read what it changed: advance evaluates fewer guards than
    the movers and all their neighbors, and still agrees with a rescan."""
    g = generate(kind, 14)
    trace = run(g, random_configuration(g, 3), DaemonPolicy("sequential_random", seed=5),
                semantics=semantics)
    evaluated = []  # the process of each guard evaluation

    def counted(*args):
        evaluated.append(args[2])
        return guards(*args)

    execution = Execution(g, trace.initial, semantics, counted)
    evaluated.clear()
    neighborhoods = 0
    for record in trace.records:
        moved = {mv.node for mv in record.moves}
        replay_step(execution.config, g, record.moves, semantics)
        execution.advance(moved)
        neighborhoods += len(moved.union(*(g.adjacency[i] for i in moved)))
        c = execution.config
        assert execution.enabled == {
            i: r for i in g.nodes if (r := guards(c, g, i, semantics))}
    assert trace.steps > 1 and len(evaluated) < neighborhoods


def _frozen(c):
    assert type(c) is Configuration
    assert type(c.p) is tuple and type(c.m) is tuple
    return c.p, c.m, hash(c)


@settings(max_examples=150, deadline=None)
@given(run_inputs(traceable=True))
def test_replays_in_place_never_write_a_kept_configuration(case):
    """run and the audit write their steps into a mutable copy: the
    caller's c0 and the trace's endpoints stay as they were, and a second
    audit of the same trace reports exactly what the first did."""
    g, c0, policy, semantics = case
    before = _frozen(c0)
    trace = run(g, c0, policy, semantics=semantics)
    assert _frozen(c0) == before
    kept = [_frozen(trace.initial), _frozen(trace.final)]
    first = audit_trace(trace, semantics)
    write_trace(trace)
    second = audit_trace(trace, semantics)
    assert [_frozen(trace.initial), _frozen(trace.final)] == kept
    assert trace.initial == c0
    configs = replay_configurations(g, c0, [r.moves for r in trace.records], semantics)
    assert trace.final == configs[-1]
    assert first.to_text() == second.to_text()
