"""The int-encoded exhaustive search against the reference search, which
fires every branch with apply_step on frozen configurations, and the
search's witnesses against the audit and the oracle replay."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmatch import verifier
from stabmatch.graph import Graph
from stabmatch.protocol import (
    STANDARD,
    MutableConfiguration,
    RuleSemantics,
    enabled_nodes,
    random_configuration,
)
from stabmatch.scheduler import apply_step
from stabmatch.verifier import audit_trace, exhaustive_search, witness_trace

from .oracles import _branches, _witness_step, reference_search, replay_configurations

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
    c0 = random_configuration(g, draw(st.integers(0, 2**16)))
    return g, c0, draw(st.booleans()), draw(st.sampled_from((STANDARD, STANDARD, BROKEN)))


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_successors_follow_the_reference_branch_order(instance):
    """One state's int successors and their labels, against the reference's
    branch enumeration fired one branch at a time by apply_step."""
    g, c0, branch_marriage, semantics = instance
    codec = verifier._StateCodec(g)
    state = codec.encode(c0)
    assert codec.decode(state) == c0
    labels = []
    succs = verifier._successors(
        MutableConfiguration(c0), g, semantics, branch_marriage, codec, state, labels)
    branches = list(_branches(c0, g, enabled_nodes(c0, g, semantics), branch_marriage))
    assert labels == [_witness_step(branch) for branch in branches]
    assert [codec.decode(succ) for succ in succs] == [
        apply_step(c0, g, subset, semantics, marriage_choices=choices)[0]
        for subset, choices in branches
    ]


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
