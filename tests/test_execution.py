"""The replay kernel against full rescans: after every step its enabled map
equals every node's guards evaluated afresh, and its round index is the one
the round definition gives, as ``rescan_rounds`` recomputes it."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from stabmatch.graph import generate
from stabmatch.protocol import (
    STANDARD,
    RuleSemantics,
    enabled_rule,
    enabled_rules,
    random_configuration,
)
from stabmatch.scheduler import DaemonPolicy, Execution, replay_step, run

from .golden_corpus import all_policies
from .oracles import rescan_rounds

BROKEN = RuleSemantics(seduction_requires_larger_id=False)


@st.composite
def traces(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(n - 1, n * (n - 1) // 2))
    g = generate("random_gnm", n, m, draw(st.integers(0, 2**16)))
    semantics = draw(st.sampled_from((STANDARD, BROKEN)))
    policy = DaemonPolicy.parse(draw(st.sampled_from(all_policies())),
                                draw(st.integers(0, 2**16)))
    c0 = random_configuration(g, draw(st.integers(0, 2**16)))
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
        c2 = replay_step(execution.config, g, record.moves, semantics)
        _, _, closed = execution.advance(c2, {mv.node for mv in record.moves})
        rescan = {}
        for i in g.nodes:
            result = guards(c2, g, i, semantics)
            if result:
                rescan[i] = result
        assert execution.enabled == rescan
        if k + 1 < len(annotations):
            assert execution.round == annotations[k + 1]
            assert closed == (annotations[k + 1] > annotations[k])
    assert execution.config == trace.final
    assert (not execution.enabled) == trace.stable
