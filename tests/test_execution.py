"""The replay kernel against full rescans: after every step its enabled map
equals every node's guards evaluated afresh, and its round index is the one
the round definition gives, as ``rescan_rounds`` recomputes it."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from stabmatch.graph import generate
from stabmatch.protocol import (
    STANDARD,
    Configuration,
    RuleSemantics,
    enabled_rule,
    enabled_rules,
    random_configuration,
)
from stabmatch.scheduler import (
    DaemonPolicy,
    Execution,
    replay_step,
    run,
    trace_counters,
    write_trace,
)
from stabmatch.verifier import audit_trace

from .golden_corpus import all_policies
from .oracles import replay_configurations, rescan_rounds

BROKEN = RuleSemantics(seduction_requires_larger_id=False)


@st.composite
def run_inputs(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(n - 1, n * (n - 1) // 2))
    g = generate("random_gnm", n, m, draw(st.integers(0, 2**16)))
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


def _frozen(c):
    assert type(c) is Configuration
    assert type(c.p) is tuple and type(c.m) is tuple
    return c.p, c.m, hash(c)


@settings(max_examples=150, deadline=None)
@given(run_inputs())
def test_replays_in_place_never_write_a_kept_configuration(case):
    """run, the audit and trace_counters write their steps into a mutable
    copy: the caller's c0 and the trace's endpoints stay as they were, and
    a second audit of the same trace reports exactly what the first did."""
    g, c0, policy, semantics = case
    before = _frozen(c0)
    trace = run(g, c0, policy, semantics=semantics)
    assert _frozen(c0) == before
    kept = [_frozen(trace.initial), _frozen(trace.final)]
    first = audit_trace(trace, semantics)
    trace_counters(trace, semantics)
    write_trace(trace)
    second = audit_trace(trace, semantics)
    assert [_frozen(trace.initial), _frozen(trace.final)] == kept
    assert trace.initial == c0
    configs = replay_configurations(g, c0, [r.moves for r in trace.records], semantics)
    assert trace.final == configs[-1]
    assert first.to_text() == second.to_text()
    assert ([r.snapshot for r in first.checks.values()]
            == [r.snapshot for r in second.checks.values()])
