from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from stabmatch.graph import Graph, generate
from stabmatch.protocol import (
    Configuration,
    MutableConfiguration,
    ProcessState,
    Rule,
    RuleSemantics,
    STANDARD,
    enabled_nodes,
    enabled_rules,
    marriage_suitors,
    random_configuration,
    seduction_candidates,
)
from stabmatch.scheduler import (
    HEURISTIC_STRATEGIES,
    POLICY_KINDS,
    DaemonPolicy,
    Move,
    StepRecord,
    Trace,
    replay_step,
    run,
    write_trace,
)
from stabmatch.verifier import (
    CorruptTraceError,
    _components,
    audit_trace,
    check_maximal,
    exhaustive_search,
    extract_matching,
    witness_trace,
)

from .conftest import SMALL_CONNECTED, config_of, small_graph
from .oracles import (
    brute_force_maximal,
    edge_list_check_maximal,
    replay_configurations,
    rescan_rounds,
    shrink_tallies,
)

BROKEN = RuleSemantics(seduction_requires_larger_id=False)


def forge_trace(g, c0, step_moves, policy="forged", semantics=None):
    """Build a trace from hand-written moves with consistent final state,
    stability flag and round annotations, so only the forged content itself
    can trip the audit."""
    from stabmatch.protocol import STANDARD, enabled_rule

    semantics = semantics or STANDARD
    c = MutableConfiguration(c0)
    for moves in step_moves:
        replay_step(c, g, moves, semantics)
    final = c.freeze()
    stable = all(enabled_rule(final, g, i, semantics) is None for i in g.nodes)
    provisional = Trace(
        graph=g, policy=policy, seed=0, initial=c0,
        records=tuple(
            StepRecord(k, tuple(moves), 1) for k, moves in enumerate(step_moves)
        ),
        final=final, stable=stable, max_steps=max(len(step_moves), 1),
    )
    _, annotations = rescan_rounds(provisional, semantics)
    return dataclasses.replace(
        provisional,
        records=tuple(
            StepRecord(k, tuple(moves), annotations[k])
            for k, moves in enumerate(step_moves)
        ),
    )


def pre_step_text(trace, step, semantics=None):
    """The configuration before ``step``, replayed by the oracle, as text."""
    configs = replay_configurations(
        trace.graph, trace.initial, [r.moves for r in trace.records], semantics)
    return configs[step].to_text()


class TestIsStable:
    """A configuration is stable when ``enabled_nodes`` finds no process enabled."""

    def test_married_pair_with_correct_flags(self, p2):
        assert enabled_nodes(config_of(p2, {0: (1, True), 1: (0, True)}), p2) == {}

    def test_courted_center_not_stable(self, two_suitors):
        g, c0 = two_suitors
        assert enabled_nodes(c0, g) != {}

    def test_single_node_all_null(self):
        g = Graph.from_edges([0], [])
        assert enabled_nodes(Configuration.all_null(g), g) == {}


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

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_first_addable_edge_matches_the_edge_list_scan(self, data):
        """The adjacency scan returns the edge the sorted edge list gave
        first, and rejects an invalid matching with the same message: on
        sparse node keys, custom identifier maps, and graphs built by
        ``Graph(...)`` directly with the nodes and the adjacency dict in no
        particular order."""
        keys = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=9, unique=True))
        pairs = list(itertools.combinations(sorted(keys), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        ident = data.draw(st.sampled_from(({}, {u: u * 7 % 5 for u in keys})))
        if data.draw(st.booleans()):
            g = Graph(tuple(keys), {
                u: tuple(sorted({v for e in edges if u in e for v in e} - {u})) for u in keys
            }, ident)
        else:
            g = Graph.from_edges(keys, edges, ident)
        if data.draw(st.booleans()):  # any pairs: not edges, shared endpoints, reversed
            mt = data.draw(st.sets(st.tuples(st.sampled_from(keys), st.sampled_from(keys))))
        else:  # a matching: drawn edges kept while disjoint
            mt, used = set(), set()
            for u, v in data.draw(st.lists(st.sampled_from(sorted(edges)))) if edges else ():
                if u not in used and v not in used:
                    mt.add((u, v))
                    used.update((u, v))
        try:
            expected = edge_list_check_maximal(mt, g)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                check_maximal(mt, g)
            assert str(raised.value) == str(exc)
        else:
            assert check_maximal(mt, g) == expected


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

    def test_only_a_default_marriage_lists_the_suitors(self, monkeypatch):
        """The guards scan for a suitor themselves; the suitors are listed
        only for command_target's default pick. So a run lists them once
        per marriage move, and the audit of its trace, whose every marriage
        names its suitor, never."""
        from stabmatch import protocol

        calls = []
        marriage_suitors = protocol.marriage_suitors

        def counted(c, g, i):
            calls.append(i)
            return marriage_suitors(c, g, i)

        monkeypatch.setattr(protocol, "marriage_suitors", counted)
        g = generate("random_gnm", 60, 150, 3)
        t = run(g, random_configuration(g, 1), DaemonPolicy("sequential_random", seed=1))
        marriages = [mv.node for r in t.records for mv in r.moves if mv.rule is Rule.MARRIAGE]
        assert marriages and calls == marriages
        calls.clear()
        assert audit_trace(t).all_pass and calls == []


@pytest.mark.parametrize("policy, semantics", [
    (DaemonPolicy("sequential_random", seed=2), STANDARD),
    (DaemonPolicy("synchronous"), STANDARD),
    (DaemonPolicy("distributed_random", seed=2), BROKEN),
], ids=["sequential", "synchronous", "stripped"])
def test_the_audit_evaluates_as_many_guards_as_the_run(monkeypatch, policy, semantics):
    """The audit replays on the same Execution as the run, so it evaluates
    enabled_rules exactly where the run evaluated enabled_rule: a cheaper
    audit must come from a cheaper evaluation, never from a skipped one."""
    from stabmatch import scheduler, verifier

    counts = {"run": 0, "audit": 0}

    def counted(name, guards):
        def count(*args):
            counts[name] += 1
            return guards(*args)
        return count

    g = generate("random_gnm", 40, 100, 4)
    monkeypatch.setattr(scheduler, "enabled_rule", counted("run", scheduler.enabled_rule))
    t = run(g, random_configuration(g, 5), policy, semantics=semantics)
    monkeypatch.setattr(verifier, "enabled_rules", counted("audit", verifier.enabled_rules))
    audit_trace(t, semantics)
    assert counts["audit"] == counts["run"] > g.n


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
        assert check.snapshot == pre_step_text(forged, 4)
        assert report.checks["moves_enabled"].counterexample_step == 4
        assert report.checks["moves_enabled"].snapshot == pre_step_text(forged, 4)

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
        assert check.snapshot == pre_step_text(forged, 3)

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
        assert check.snapshot == c0.to_text()

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
        assert check.snapshot == pre_step_text(forged, 3)
        # the abandonments were never enabled, and that is localized too,
        # with the configuration the first one read, not the one it wrote
        assert report.checks["moves_enabled"].counterexample_step == 1
        assert report.checks["moves_enabled"].snapshot == pre_step_text(forged, 1)
        assert pre_step_text(forged, 1) != pre_step_text(forged, 2)

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
        # forge_trace replays its steps, which a duplicate mover stops
        t = run(p2, Configuration.all_null(p2), DaemonPolicy("sequential_random", seed=2))
        first = dataclasses.replace(t.records[0], moves=(Move(0, Rule.SEDUCTION),) * 2)
        with pytest.raises(CorruptTraceError, match="twice"):
            audit_trace(dataclasses.replace(t, records=(first, *t.records[1:])))


class TestWrongGuards:
    """The audit's guard_exclusivity, stable_is_maximal and
    m_flag_consistency checks read the configuration and the audit's own
    guard evaluation, never the trace's claims, so a wrong guard patched
    into the audit makes them fail on traces the real guards accept."""

    @staticmethod
    def _stable_record_free(g, c0):
        return Trace(graph=g, policy="forged", seed=0, initial=c0, records=(),
                     final=c0, stable=True, max_steps=1)

    def test_no_guard_anywhere_fails_maximality_and_m_flags(self, p2, monkeypatch):
        """(null, t), (null, f) on P2 is not stable: node 1 can court 0.
        With no guard anywhere the audit takes it for stable, and finds the
        edge (0, 1) addable and node 0's m flag wrong."""
        c0 = config_of(p2, {0: (None, True)})
        trace = self._stable_record_free(p2, c0)
        with pytest.raises(CorruptTraceError, match="stability"):
            audit_trace(trace)
        monkeypatch.setattr("stabmatch.verifier.enabled_rules", lambda *_: ())
        report = audit_trace(trace)
        maximal, flags = report.checks["stable_is_maximal"], report.checks["m_flag_consistency"]
        assert (maximal.verdict, maximal.counterexample_step, maximal.snapshot) == (
            "fail", 0, c0.to_text())
        assert maximal.detail == "stable configuration is not maximal, edge (0, 1) is addable"
        assert (flags.verdict, flags.counterexample_step, flags.snapshot) == (
            "fail", 0, c0.to_text())
        assert flags.detail == "node 0 has m=True but marriage status False"
        assert {c.name for c in report.failures()} == {"stable_is_maximal", "m_flag_consistency"}

    def test_no_guard_anywhere_fails_a_condemned_node(self, p3, monkeypatch):
        """0 and 1 are married, flagged, and 2 points at 1: the matching is
        maximal and every m flag right, but 2 classifies condemned."""
        c0 = config_of(p3, {0: (1, True), 1: (0, True), 2: (1, False)})
        monkeypatch.setattr("stabmatch.verifier.enabled_rules", lambda *_: ())
        report = audit_trace(self._stable_record_free(p3, c0))
        maximal = report.checks["stable_is_maximal"]
        assert (maximal.verdict, maximal.counterexample_step, maximal.snapshot) == (
            "fail", 0, c0.to_text())
        assert maximal.detail == "node 2 classifies condemned in a stable configuration"
        assert report.checks["m_flag_consistency"].verdict == "pass"

    @pytest.mark.parametrize("node, step, detail", [
        (0, 0, "node 0 has guards ['seduction', 'abandonment'] in the initial configuration"),
        (1, 1, "node 1 has guards ['marriage', 'abandonment'] after step 0"),
    ], ids=["initial", "after-step"])
    def test_a_second_guard_fails_exclusivity(self, p2, monkeypatch, node, step, detail):
        """Synchronous P2 from all-null: 0 courts 1, 1 marries 0, both
        update. Node 0 is enabled from the start, node 1 from step 1."""
        t = run(p2, Configuration.all_null(p2), DaemonPolicy("synchronous"))

        def guards(c, g, i, semantics=STANDARD):
            rules = enabled_rules(c, g, i, semantics)
            return rules + (Rule.ABANDONMENT,) if i == node and rules else rules

        monkeypatch.setattr("stabmatch.verifier.enabled_rules", guards)
        report = audit_trace(t)
        check = report.checks["guard_exclusivity"]
        assert (check.verdict, check.counterexample_step, check.detail) == ("fail", step, detail)
        assert check.snapshot == pre_step_text(t, step)
        assert [c.name for c in report.failures()] == ["guard_exclusivity"]


def _components_by_smallest_left(nodes, g):
    """The components in the order the audit first listed them: repeatedly
    the component of the smallest node not yet placed."""
    left = set(nodes)
    comps = []
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g.adjacency[u]:
                if v in left and v not in comp:
                    comp.add(v)
                    stack.append(v)
        left -= comp
        comps.append(frozenset(comp))
    return comps


@given(n=st.integers(1, 30), extra=st.integers(0, 40), gseed=st.integers(0, 10**6),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_components_keep_the_order_of_their_smallest_members(n, extra, gseed, data):
    """The first active_component_shrink counterexample depends on this
    order; sparse graphs split a random subset into many components."""
    g = generate("random_gnm", n, min(n - 1 + extra, n * (n - 1) // 2), gseed)
    g = Graph.from_edges(g.nodes, data.draw(st.sets(st.sampled_from(g.edges())))
                         if g.m else ())
    nodes = frozenset(data.draw(st.sets(st.sampled_from(g.nodes))))
    assert _components(nodes, g) == _components_by_smallest_left(nodes, g)


def _shrink_outcome(trace, semantics):
    """The audit's active_component_shrink tallies and first counterexample,
    in the form ``shrink_tallies`` gives them."""
    check = audit_trace(trace, semantics).checks["active_component_shrink"]
    first = None if check.verdict == "pass" else (check.counterexample_step, check.detail)
    return check.measured, first


@given(n=st.integers(2, 12), extra=st.integers(0, 12), gseed=st.integers(0, 10**6),
       cseed=st.integers(0, 1000), pseed=st.integers(0, 1000),
       policy=st.sampled_from(("synchronous", "distributed_fair")),
       semantics=st.sampled_from((STANDARD, BROKEN)),
       cap=st.one_of(st.none(), st.integers(1, 30)))
@settings(max_examples=150, deadline=None)
def test_shrink_tallies_match_a_rescan(n, extra, gseed, cseed, pseed, policy, semantics, cap):
    """The audit keeps the active set across steps and decides again, at a
    round boundary, only the processes the round can have changed; the
    oracle replays the trace itself and rescans every process at every
    boundary. Capped runs end unstable, which cuts windows off."""
    g = generate("random_gnm", n, min(n - 1 + extra, n * (n - 1) // 2), gseed)
    t = run(g, random_configuration(g, cseed), DaemonPolicy(policy, seed=pseed),
            max_steps=cap, semantics=semantics)
    assert _shrink_outcome(t, semantics) == shrink_tallies(t, semantics)


@st.composite
def forged_round_traces(draw):
    """Traces of random moves, each structurally possible but not
    necessarily enabled, under a policy whose rounds the audit checks: the
    active sets stay large and violations are common."""
    n = draw(st.integers(2, 9))
    g = generate("random_gnm", n, min(n - 1 + draw(st.integers(0, 8)), n * (n - 1) // 2),
                 draw(st.integers(0, 10**6)))
    c0 = random_configuration(g, draw(st.integers(0, 1000)))
    c = MutableConfiguration(c0)
    steps = []
    for _ in range(draw(st.integers(1, 14))):
        moves = []
        for i in sorted(draw(st.sets(st.sampled_from(g.nodes), min_size=1))):
            options = [Rule.UPDATE]
            if c.p_of(i) is not None:
                options.append(Rule.ABANDONMENT)
            if marriage_suitors(c, g, i):
                options.append(Rule.MARRIAGE)
            if seduction_candidates(c, g, i):
                options.append(Rule.SEDUCTION)
            moves.append(Move(i, draw(st.sampled_from(options))))
        steps.append(moves)
        replay_step(c, g, moves)
    return forge_trace(g, c0, steps, draw(st.sampled_from(("synchronous", "distributed_fair"))))


@given(t=forged_round_traces())
@settings(max_examples=200, deadline=None)
def test_forged_shrink_tallies_match_a_rescan(t):
    assert _shrink_outcome(t, STANDARD) == shrink_tallies(t)


@pytest.mark.parametrize("policy", ["synchronous", "distributed_fair"])
def test_shrink_counterexample_matches_a_rescan(triangle, policy):
    """A forged trace that keeps the triangle active: 0 and 1 court 2, then
    both abandon it. Each step closes a round, so every window sees the
    whole component still active four rounds on."""
    court = [Move(0, Rule.SEDUCTION), Move(1, Rule.SEDUCTION)]
    drop = [Move(0, Rule.ABANDONMENT), Move(1, Rule.ABANDONMENT)]
    t = forge_trace(triangle, Configuration.all_null(triangle), [court, drop] * 6, policy)
    measured, first = _shrink_outcome(t, STANDARD)
    assert first is not None and measured["violations_gt2"] > 0
    assert (measured, first) == shrink_tallies(t)


def test_a_mover_abandoning_into_death_leaves_the_active_set():
    """Node 1 courts 3 as 3 marries 2, then abandons 3 in the last step.
    With both its neighbors married it is then dead; no pair married or
    separated in that round, so only its being a mover gets it decided
    again."""
    g = Graph.from_edges(range(4), [(0, 2), (1, 2), (1, 3), (2, 3)])
    c0 = Configuration((0, 1, 2, 3), (2, None, 0, 2), (True, False, True, True))
    U, A, S, M = Rule.UPDATE, Rule.ABANDONMENT, Rule.SEDUCTION, Rule.MARRIAGE
    steps = [[Move(3, A)], [Move(0, A), Move(3, U)], [Move(2, S)],
             [Move(0, U), Move(1, S), Move(3, M)], [Move(1, A), Move(3, U)]]
    t = forge_trace(g, c0, steps, "synchronous")
    assert _shrink_outcome(t, STANDARD) == shrink_tallies(t)
    assert shrink_tallies(t)[1] is None


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

    def test_branched_marriages_are_written_through_command_target(self, monkeypatch):
        """With branch_marriage, each suitor of marriage_suitors is written
        by command_target as its marriage_choice: once per suitor, in the
        suitors' order, and the search writes no state of its own."""
        from stabmatch import verifier

        named, listed = [], []
        command_target, suitors_of = verifier.command_target, verifier.marriage_suitors

        def recorded(c, g, i, rule, semantics=STANDARD, marriage_choice=None):
            if rule is Rule.MARRIAGE:
                named.append((i, marriage_choice))
            return command_target(c, g, i, rule, semantics, marriage_choice)

        def listing(c, g, i):
            listed.append((i, suitors_of(c, g, i)))
            return listed[-1][1]

        monkeypatch.setattr(verifier, "command_target", recorded)
        monkeypatch.setattr(verifier, "marriage_suitors", listing)
        result = exhaustive_search(small_graph("P4"), "all", branch_marriage=True)
        assert result.ok and named
        assert named == [(i, j) for i, suitors in listed for j in suitors]

    def test_pointer_outside_the_adjacency_is_rejected(self, p3):
        c0 = Configuration(p3.nodes, (2, None, None), (False, False, False))
        with pytest.raises(ValueError, match="neither null nor a neighbor"):
            exhaustive_search(p3, c0)

    def test_progress_every_4096_explored_states(self):
        g = small_graph("K4")
        calls = []
        result = exhaustive_search(g, "all", branch_marriage=True,
                                   progress=lambda *args: calls.append(args))
        assert [explored for explored, _ in calls] == list(range(4096, result.explored + 1, 4096))
        assert calls and all(0 < memo_size < explored for explored, memo_size in calls)
        assert result == exhaustive_search(g, "all", branch_marriage=True)

    def test_zero_budget_rejected(self, p2):
        with pytest.raises(ValueError, match="budget must be positive"):
            exhaustive_search(p2, Configuration.all_null(p2), budget=0)

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

    def test_capped_run_edge_move_limit_snapshot_is_pre_step(self, triangle):
        t = run(
            triangle, Configuration.all_null(triangle),
            DaemonPolicy("sequential_adversarial_heuristic", "max_id"),
            semantics=BROKEN,
        )
        check = audit_trace(t, semantics=BROKEN).checks["edge_move_limit"]
        assert check.verdict == "fail"
        assert check.counterexample_step == 3
        assert check.snapshot == pre_step_text(t, 3, BROKEN)

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


ALL_POLICIES = [
    f"{kind}:{strategy}" if kind.endswith("adversarial_heuristic") else kind
    for kind in POLICY_KINDS
    for strategy in (HEURISTIC_STRATEGIES if kind.endswith("adversarial_heuristic") else (None,))
]


@st.composite
def run_traces(draw):
    """A run under any policy and strategy, capped or not."""
    n = draw(st.integers(2, 12))
    g = generate("random_gnm", n, min(n - 1 + draw(st.integers(0, 8)), n * (n - 1) // 2),
                 draw(st.integers(0, 10**6)))
    policy = DaemonPolicy.parse(draw(st.sampled_from(ALL_POLICIES)), draw(st.integers(0, 1000)))
    return run(g, random_configuration(g, draw(st.integers(0, 1000))), policy,
               max_steps=draw(st.one_of(st.none(), st.integers(1, 30))))


@st.composite
def stabilized_forged_traces(draw):
    """Random forged moves, then a run from where they end to stability:
    marriages forged apart and together before the protocol takes over."""
    t = draw(forged_round_traces())
    tail = run(t.graph, t.final, DaemonPolicy("sequential_random", seed=draw(st.integers(0, 99))))
    return forge_trace(t.graph, t.initial,
                       [r.moves for r in t.records] + [r.moves for r in tail.records], t.policy)


@given(t=st.one_of(run_traces(), stabilized_forged_traces()))
@settings(max_examples=200, deadline=None)
def test_audit_matching_is_the_final_configurations(t):
    """The audit reads its matching off the married pairs it tracks across
    the replay; they are the final configuration's pairs."""
    matching = extract_matching(t.final, t.graph)
    check = audit_trace(t).checks["stable_is_maximal"]
    assert check.measured == {"matching_size": len(matching)}
    if t.stable:
        assert (check.verdict == "pass") == (check_maximal(matching, t.graph) is None)
