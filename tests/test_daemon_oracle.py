"""The incremental daemon and round bookkeeping of ``run`` against the
reference daemon that rebuilds them on every step."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from stabmatch.graph import Graph, generate
from stabmatch.protocol import STANDARD, RuleSemantics, random_configuration
from stabmatch.scheduler import DaemonPolicy, run

from .golden_corpus import all_policies
from .oracles import reference_run, rescan_rounds

BROKEN = RuleSemantics(seduction_requires_larger_id=False)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 30))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(n - 1, min(max_m, 3 * n)))
    base = generate("random_gnm", n, m, draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        # small identifier range: ties everywhere, broken by node key
        values = st.integers(0, max(1, n // 3))
        ident = {u: draw(values) for u in base.nodes}
        base = Graph(base.nodes, base.adjacency, ident)
    c0 = random_configuration(base, draw(st.integers(0, 2**16)))
    policy = DaemonPolicy.parse(draw(st.sampled_from(all_policies())),
                                draw(st.integers(0, 2**16)))
    semantics = draw(st.sampled_from((STANDARD, STANDARD, BROKEN)))
    return base, c0, policy, semantics


@settings(max_examples=300, deadline=None)
@given(instances())
def test_run_matches_reference_daemon(instance):
    g, c0, policy, semantics = instance
    trace = run(g, c0, policy, semantics=semantics)
    assert trace == reference_run(g, c0, policy, semantics=semantics)
    rounds, annotations = rescan_rounds(trace, semantics)
    assert [r.round_index for r in trace.records] == annotations
    assert trace.rounds == rounds
