from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from stabmatch.graph import Graph, generate
from stabmatch.protocol import (
    Configuration,
    ProcessState,
    Rule,
    RuleSemantics,
    random_configuration,
)
from stabmatch.scheduler import (
    DaemonPolicy,
    Move,
    StepRecord,
    Trace,
    count_rounds,
    replay_step,
    run,
    write_trace,
)
from stabmatch.verifier import (
    CorruptTraceError,
    audit_trace,
    check_maximal,
    exhaustive_search,
    extract_matching,
    is_stable,
    witness_trace,
)

from .conftest import SMALL_CONNECTED, config_of, small_graph
from .oracles import brute_force_maximal

BROKEN = RuleSemantics(seduction_requires_larger_id=False)


def forge_trace(g, c0, step_moves, policy="forged", semantics=None):
    """Build a trace from hand-written moves with consistent final state,
    stability flag and round annotations, so only the forged content itself
    can trip the audit."""
    from stabmatch.protocol import STANDARD, enabled_rule

    semantics = semantics or STANDARD
    c = c0
    for moves in step_moves:
        c = replay_step(c, g, moves, semantics)
    final = c
    stable = all(enabled_rule(final, g, i, semantics) is None for i in g.nodes)
    provisional = Trace(
        graph=g, policy=policy, seed=0, initial=c0,
        records=tuple(
            StepRecord(k, tuple(moves), 1) for k, moves in enumerate(step_moves)
        ),
        final=final, stable=stable, max_steps=max(len(step_moves), 1),
    )
    _, annotations = count_rounds(provisional, semantics)
    return dataclasses.replace(
        provisional,
        records=tuple(
            StepRecord(k, tuple(moves), annotations[k])
            for k, moves in enumerate(step_moves)
        ),
    )


class TestIsStable:
    def test_married_pair_with_correct_flags(self, p2):
        assert is_stable(config_of(p2, {0: (1, True), 1: (0, True)}), p2)

    def test_courted_center_not_stable(self, two_suitors):
        g, c0 = two_suitors
        assert not is_stable(c0, g)

    def test_single_node_all_null(self):
        g = Graph.from_edges([0], [])
        assert is_stable(Configuration.all_null(g), g)


class TestExtractMatching:
    def test_final_panel(self, two_suitors):
        g, _ = two_suitors
        final = config_of(g, {1: (None, False), 2: (3, True), 3: (2, True)})
        assert extract_matching(final, g) == {(2, 3)}

    def test_all_null_empty(self, triangle):
        assert extract_matching(Configuration.all_null(triangle), triangle) == frozenset()

    def test_output_is_always_a_matching(self):
        g = generate("random_gnm", 10, 18, 3)
        for seed in range(30):
            mt = extract_matching(random_configuration(g, seed), g)
            seen = set()
            for u, v in mt:
                assert v in g.adjacency[u]
                assert u not in seen and v not in seen
                seen.update((u, v))


class TestCheckMaximal:
    def test_p3_single_edge_is_maximal(self, p3):
        assert check_maximal({(0, 1)}, p3) is None

    def test_p3_empty_matching_witness(self, p3):
        assert check_maximal(set(), p3) == (0, 1)

    def test_p4_middle_edge_is_maximal(self):
        g = small_graph("P4")
        assert check_maximal({(1, 2)}, g) is None
        assert brute_force_maximal({(1, 2)}, g)

    def test_invalid_matching_not_an_edge(self, p3):
        with pytest.raises(ValueError, match="not an edge"):
            check_maximal({(0, 2)}, p3)

    def test_invalid_matching_shared_endpoint(self, p3):
        with pytest.raises(ValueError, match="share endpoint"):
            check_maximal({(0, 1), (1, 2)}, p3)

    def test_agrees_with_superset_oracle(self):
        g = generate("random_gnm", 9, 14, 5)
        for seed in range(40):
            mt = extract_matching(random_configuration(g, seed), g)
            assert (check_maximal(mt, g) is None) == brute_force_maximal(mt, g)


class TestAuditOnLegitimateTraces:
    @pytest.mark.parametrize("name", sorted(SMALL_CONNECTED))
    def test_small_graphs_all_policies(self, name):
        g = small_graph(name)
        policies = [
            DaemonPolicy("sequential_random", seed=1),
            DaemonPolicy("synchronous"),
            DaemonPolicy("distributed_random", seed=1),
            DaemonPolicy("distributed_fair", seed=1),
            DaemonPolicy("sequential_adversarial_heuristic", "starve_one"),
        ]
        for policy in policies:
            for seed in range(4):
                t = run(g, random_configuration(g, seed), policy)
                report = audit_trace(t)
                assert report.all_pass, (name, policy.describe(), seed,
                                         [c.line() for c in report.failures()])

    def test_stability_routes_agree(self):
        """At stability, the classification route (everyone married or dead)
        and the independent maximality oracle must both accept; their
        agreement is itself evidence, on every sampled run."""
        from stabmatch.protocol import PredicateClass, classify

        g = generate("random_gnm", 14, 24, 2)
        for seed in range(20):
            t = run(g, random_configuration(g, seed), DaemonPolicy("distributed_random", seed=seed))
            assert t.stable
            assert check_maximal(extract_matching(t.final, g), g) is None
            assert all(
                classify(t.final, g, i) in (PredicateClass.MARRIED, PredicateClass.DEAD)
                for i in g.nodes
            )

    def test_shrink_windows_measured_on_synchronous_run(self):
        g = generate("path", 10)
        t = run(g, Configuration.all_null(g), DaemonPolicy("synchronous"))
        report = audit_trace(t)
        check = report.checks["active_component_shrink"]
        assert check.verdict == "pass"
        assert check.measured["windows_ge2"] > 0
        assert check.measured["violations_ge2"] == 0
        assert check.measured["violations_gt2"] == 0

    def test_report_text_is_stable_and_complete(self, p2):
        t = run(p2, Configuration.all_null(p2), DaemonPolicy("synchronous"))
        report = audit_trace(t)
        text = report.to_text()
        assert text == audit_trace(t).to_text()
        for name in report.checks:
            assert name in text

    def test_disconnected_graph_flagged_not_rejected(self):
        g = Graph.from_edges(range(4), [(0, 1), (2, 3)])
        t = run(g, Configuration.all_null(g), DaemonPolicy("synchronous"))
        report = audit_trace(t)
        assert report.all_pass and not report.connected
        assert "graph: disconnected" in report.to_text()


class TestForgedTraces:
    def test_extra_update_fails_update_limit_at_forged_step(self, p2):
        # two legitimate updates for node 0 (wrong initial flag, then the
        # wedding), plus a forged third
        c0 = config_of(p2, {0: (None, True), 1: (None, False)})
        legit = [
            (Move(0, Rule.UPDATE),),
            (Move(0, Rule.SEDUCTION),),
            (Move(1, Rule.MARRIAGE, 0),),
            (Move(0, Rule.UPDATE), Move(1, Rule.UPDATE)),
        ]
        forged = forge_trace(p2, c0, legit + [(Move(0, Rule.UPDATE),)])
        report = audit_trace(forged)
        check = report.checks["update_limit"]
        assert check.verdict == "fail"
        assert check.counterexample_step == 4
        assert report.checks["moves_enabled"].counterexample_step == 4

    def test_forged_divorce_fails_marriage_persistence(self, two_suitors):
        g, c0 = two_suitors
        legit = [
            (Move(3, Rule.MARRIAGE, 2),),
            (Move(3, Rule.UPDATE), Move(2, Rule.UPDATE)),
            (Move(1, Rule.ABANDONMENT),),
        ]
        forged = forge_trace(g, c0, legit + [(Move(3, Rule.ABANDONMENT),)])
        report = audit_trace(forged)
        check = report.checks["marriage_persistence"]
        assert check.verdict == "fail"
        assert check.counterexample_step == 3

    @pytest.mark.parametrize("movers, reported", [
        ((4, 11, 22, 37), (10, 11)),
        ((2, 30), (2, 3)),
        ((0, 8, 17, 25, 39), (0, 1)),
        ((12, 20, 33), (12, 13)),
    ])
    def test_several_divorces_in_one_step_report_a_fixed_pair(self, movers, reported):
        # twenty married pairs (2k, 2k + 1); one forged step breaks several.
        # The reported pair is the first separated one in the married set's
        # iteration order, pinned to what the full-scan audit reported.
        nodes = range(40)
        g = Graph.from_edges(nodes, [(2 * k, 2 * k + 1) for k in range(20)])
        c0 = Configuration.from_states(g, {i: ProcessState(i ^ 1, True) for i in nodes})
        forged = forge_trace(g, c0, [tuple(Move(i, Rule.ABANDONMENT) for i in movers)])
        check = audit_trace(forged).checks["marriage_persistence"]
        assert check.counterexample_step == 0
        assert check.detail == f"married pair {reported} separated"

    def test_seduce_abandon_churn_fails_edge_move_limit(self, p2):
        churn = [
            (Move(0, Rule.SEDUCTION),),
            (Move(0, Rule.ABANDONMENT),),
        ] * 2
        forged = forge_trace(p2, Configuration.all_null(p2), churn)
        report = audit_trace(forged)
        check = report.checks["edge_move_limit"]
        assert check.verdict == "fail"
        assert check.counterexample_step == 3
        # the abandonments were never enabled, and that is localized too
        assert report.checks["moves_enabled"].counterexample_step == 1

    def test_tampered_final_is_corrupt(self, p2):
        t = run(p2, Configuration.all_null(p2), DaemonPolicy("sequential_random", seed=2))
        bad = dataclasses.replace(
            t, final=t.final.with_writes({0: ProcessState(None, False)})
        )
        with pytest.raises(CorruptTraceError, match="final configuration"):
            audit_trace(bad)

    def test_tampered_round_annotation_is_corrupt(self, p2):
        t = run(p2, Configuration.all_null(p2), DaemonPolicy("sequential_random", seed=2))
        records = list(t.records)
        records[1] = dataclasses.replace(records[1], round_index=9)
        with pytest.raises(CorruptTraceError, match="round"):
            audit_trace(dataclasses.replace(t, records=tuple(records)))

    def test_tampered_stability_flag_is_corrupt(self, p2):
        t = run(p2, Configuration.all_null(p2), DaemonPolicy("sequential_random", seed=2))
        with pytest.raises(CorruptTraceError, match="stability"):
            audit_trace(dataclasses.replace(t, stable=False))

    def test_duplicate_mover_is_corrupt(self, p2):
        record = (Move(0, Rule.SEDUCTION), Move(0, Rule.SEDUCTION))
        forged = forge_trace(p2, Configuration.all_null(p2), [record])
        with pytest.raises(CorruptTraceError, match="twice"):
            audit_trace(forged)


class TestExhaustiveSearch:
    def test_p2_all_null_worst_is_four(self, p2):
        result = exhaustive_search(p2, Configuration.all_null(p2), branch_marriage=True)
        assert result.worst_steps == 4
        assert result.ok and result.complete and not result.livelock
        assert result.all_leaves_maximal

    def test_p2_all_configurations_within_bound(self, p2):
        result = exhaustive_search(p2, "all", branch_marriage=True)
        assert result.initial_count == 16
        assert result.worst_steps <= result.bound == 8
        assert result.ok

    def test_triangle_all_null(self, triangle):
        result = exhaustive_search(triangle, Configuration.all_null(triangle), branch_marriage=True)
        assert result.worst_steps <= 15
        assert result.all_leaves_maximal and result.complete

    def test_deterministic(self, triangle):
        a = exhaustive_search(triangle, "all")
        b = exhaustive_search(triangle, "all")
        assert a.worst_steps == b.worst_steps
        assert a.witness == b.witness and a.witness_initial == b.witness_initial

    def test_budget_exhaustion_flags_incomplete(self, triangle):
        result = exhaustive_search(triangle, "all", budget=5)
        assert not result.complete
        assert result.explored <= 6

    def test_witness_replays_to_worst(self, triangle):
        result = exhaustive_search(triangle, "all", branch_marriage=True)
        t = witness_trace(triangle, result.witness_initial, result.witness)
        assert t.steps == result.worst_steps
        assert t.stable
        assert audit_trace(t).all_pass

    def test_branch_marriage_never_shrinks_worst(self, two_suitors):
        g, c0 = two_suitors
        plain = exhaustive_search(g, c0)
        branched = exhaustive_search(g, c0, branch_marriage=True)
        assert branched.worst_steps >= plain.worst_steps

    def test_sequential_oracle_agrees_on_p2(self, p2):
        from .oracles import all_sequential_step_counts

        counts = all_sequential_step_counts(p2, Configuration.all_null(p2))
        result = exhaustive_search(p2, Configuration.all_null(p2), branch_marriage=True)
        # the distributed worst can only be at least the sequential worst
        assert result.worst_steps >= max(counts)


class TestBrokenVariant:
    def test_search_finds_livelock_on_triangle(self, triangle):
        result = exhaustive_search(
            triangle, Configuration.all_null(triangle), semantics=BROKEN
        )
        assert result.livelock
        assert not result.ok
        assert result.livelock_cycle

    def test_livelock_witness_replays_to_a_repeat(self, triangle):
        from stabmatch.scheduler import apply_step

        result = exhaustive_search(
            triangle, Configuration.all_null(triangle), semantics=BROKEN
        )
        c = result.livelock_initial
        for ws in result.livelock_prefix:
            c, _ = apply_step(c, triangle, ws.chosen, BROKEN,
                              marriage_choices=dict(ws.marriage_choices))
        start = c
        for ws in result.livelock_cycle:
            c, _ = apply_step(c, triangle, ws.chosen, BROKEN,
                              marriage_choices=dict(ws.marriage_choices))
        assert c == start

    def test_capped_run_fails_audit(self, triangle):
        t = run(
            triangle, Configuration.all_null(triangle),
            DaemonPolicy("sequential_adversarial_heuristic", "max_id"),
            semantics=BROKEN,
        )
        assert not t.stable
        report = audit_trace(t, semantics=BROKEN)
        failed = {c.name for c in report.failures()}
        assert "stable_is_maximal" in failed
        assert "step_bound" in failed

    def test_standard_protocol_never_livelocks_small(self):
        for name in ("K2", "P3", "C3", "P4", "C4"):
            g = small_graph(name)
            result = exhaustive_search(g, "all", budget=500_000)
            assert result.complete and not result.livelock, name


class TestLabelingRobustness:
    """The identifier order steers seduction and abandonment, so the bound
    must hold for every labeling of a shape, not just the canonical one."""

    @pytest.mark.parametrize("name", ["P3", "C3", "P4", "star4", "C4"])
    def test_every_labeling_within_bound(self, name):
        import itertools as it

        n, edges = SMALL_CONNECTED[name]
        seen = set()
        for perm in it.permutations(range(n)):
            relabeled = frozenset(
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
            )
            if relabeled in seen:
                continue
            seen.add(relabeled)
            g = Graph.from_edges(range(n), relabeled)
            result = exhaustive_search(g, "all", branch_marriage=True, budget=500_000)
            assert result.ok, (name, sorted(relabeled))
            assert result.worst_steps <= result.bound


class TestAuditProperty:
    @given(
        n=st.integers(2, 12),
        extra=st.integers(0, 8),
        gseed=st.integers(0, 10**6),
        cseed=st.integers(0, 10**6),
        policy=st.sampled_from([
            "sequential_random", "synchronous", "distributed_random",
            "distributed_fair", "sequential_adversarial_heuristic:min_id",
            "distributed_adversarial_heuristic:starve_one",
        ]),
        pseed=st.integers(0, 10**6),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_run_audits_clean(self, n, extra, gseed, cseed, policy, pseed):
        m = min(n - 1 + extra, n * (n - 1) // 2)
        g = generate("random_gnm", n, m, gseed)
        t = run(g, random_configuration(g, cseed), DaemonPolicy.parse(policy, pseed))
        report = audit_trace(t)
        assert t.stable
        assert report.all_pass, [c.line() for c in report.failures()]
