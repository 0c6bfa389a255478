from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from stabmatch.graph import Graph, generate
from stabmatch.protocol import Configuration, ProcessState, Rule
from stabmatch.scheduler import (
    HEURISTIC_STRATEGIES,
    DaemonPolicy,
    EnabledSet,
    Move,
    SchedulerState,
    Trace,
    TraceFormatError,
    apply_step,
    count_rounds,
    default_step_cap,
    make_state,
    parse_trace,
    replay_step,
    run,
    select,
    trace_counters,
    trace_from_schedule,
    write_trace,
)

from .conftest import config_of
from .oracles import all_sequential_step_counts, rescan_rounds, starvation_streaks

ALL_POLICIES = [
    DaemonPolicy("sequential_random", seed=3),
    DaemonPolicy("synchronous"),
    DaemonPolicy("distributed_random", seed=3),
    DaemonPolicy("distributed_fair", seed=3),
    DaemonPolicy("sequential_adversarial_heuristic", "min_id"),
    DaemonPolicy("sequential_adversarial_heuristic", "max_id"),
    DaemonPolicy("distributed_adversarial_heuristic", "max_degree"),
    DaemonPolicy("distributed_adversarial_heuristic", "starve_one"),
]


class TestDaemonPolicy:
    def test_parse_kind_only(self):
        p = DaemonPolicy.parse("synchronous", 4)
        assert p.kind == "synchronous" and p.strategy is None and p.seed == 4

    def test_parse_with_strategy(self):
        p = DaemonPolicy.parse("sequential_adversarial_heuristic:max_id")
        assert p.strategy == "max_id"
        assert p.describe() == "sequential_adversarial_heuristic:max_id"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            DaemonPolicy.parse("chaotic")

    def test_heuristic_requires_strategy(self):
        with pytest.raises(ValueError, match="needs a strategy"):
            DaemonPolicy.parse("distributed_adversarial_heuristic")

    def test_strategy_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="takes no strategy"):
            DaemonPolicy.parse("synchronous:max_id")


class TestSelect:
    def _state(self, policy, g):
        return make_state(policy, g)

    def test_sequential_random_singleton_reproducible(self, p3):
        policy = DaemonPolicy("sequential_random", seed=9)
        picks = [
            select(policy, {0, 2}, self._state(policy, p3)) for _ in range(3)
        ]
        assert all(len(s) == 1 for s in picks)
        assert picks[0] == picks[1] == picks[2]

    def test_synchronous_takes_all(self, p3):
        policy = DaemonPolicy("synchronous")
        assert select(policy, {0, 2}, self._state(policy, p3)) == {0, 2}

    def test_distributed_random_nonempty_subset(self, p3):
        policy = DaemonPolicy("distributed_random", seed=1)
        state = self._state(policy, p3)
        for _ in range(50):
            s = select(policy, {0, 1, 2}, state)
            assert s and s <= {0, 1, 2}

    def test_min_id_and_max_id(self, p3):
        state = self._state(DaemonPolicy("sequential_adversarial_heuristic", "min_id"), p3)
        assert select(
            DaemonPolicy("sequential_adversarial_heuristic", "min_id"), {0, 2}, state
        ) == {0}
        assert select(
            DaemonPolicy("sequential_adversarial_heuristic", "max_id"), {0, 2}, state
        ) == {2}

    def test_max_degree_prefers_hub(self):
        g = generate("star", 4)
        policy = DaemonPolicy("distributed_adversarial_heuristic", "max_degree")
        assert select(policy, {0, 1, 3}, make_state(policy, g)) == {0}

    def test_starve_one_avoids_victim(self, p3):
        policy = DaemonPolicy("distributed_adversarial_heuristic", "starve_one")
        state = make_state(policy, p3)
        assert state.victim == 2
        assert select(policy, {0, 1, 2}, state) == {0, 1}
        assert select(policy, {2}, state) == {2}

    def test_empty_enabled_rejected(self, p3):
        policy = DaemonPolicy("synchronous")
        with pytest.raises(ValueError, match="nonempty"):
            select(policy, set(), self._state(policy, p3))


class TestEnabledSet:
    @settings(max_examples=60, deadline=None)
    @given(
        strategy=st.sampled_from((None,) + HEURISTIC_STRATEGIES),
        initial=st.sets(st.integers(0, 59)),
        batches=st.lists(
            st.tuples(st.sets(st.integers(0, 59), max_size=8),
                      st.sets(st.integers(0, 59), max_size=8)),
            max_size=30,
        ),
    )
    def test_orders_match_a_full_sort_after_every_update(self, strategy, initial, batches):
        # small batches on a large set take the bisection path, large
        # batches on a small set the re-sort path
        g = generate("random_gnm", 60, 150, 4)
        g = Graph(g.nodes, g.adjacency, {u: u % 7 for u in g.nodes})
        fresh = EnabledSet(g, strategy, initial)
        members = set(initial)
        for added, removed in batches:
            removed = removed - added
            fresh.update(added, removed)
            members = (members | added) - removed
            reference = EnabledSet(g, strategy, members)
            assert fresh.nodes == reference.nodes == sorted(members)
            assert fresh.ranked == reference.ranked
            assert len(fresh) == len(members)

    def test_heuristic_order_breaks_identifier_ties_by_node_key(self):
        g = Graph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)],
                             ident={0: 5, 1: 2, 2: 9, 3: 2})
        assert EnabledSet(g, "min_id", [0, 1, 3]).ranked[0][-1] == 1
        assert EnabledSet(g, "max_id", [0, 1, 2]).ranked[0][-1] == 2
        assert EnabledSet(g, "max_degree", [0, 1, 2, 3]).ranked[0][-1] == 1


class TestApplyStep:
    def test_simultaneous_seductions_both_land(self):
        # 0 and 1 both court their shared larger neighbor 2 in one step
        g = Graph.from_edges([0, 1, 2], [(0, 2), (1, 2)])
        c = Configuration.all_null(g)
        c2, moves = apply_step(c, g, [0, 1])
        assert [(mv.node, mv.rule) for mv in moves] == [
            (0, Rule.SEDUCTION), (1, Rule.SEDUCTION),
        ]
        assert c2.p_of(0) == 2 and c2.p_of(1) == 2

    def test_both_updates_in_one_step(self, two_suitors):
        g, _ = two_suitors
        panel_b = config_of(g, {1: (3, False), 2: (3, False), 3: (2, False)})
        c2, moves = apply_step(panel_b, g, [2, 3])
        assert all(mv.rule is Rule.UPDATE for mv in moves)
        assert c2.m_of(2) and c2.m_of(3) and not c2.m_of(1)

    def test_reads_against_pre_step_configuration(self, p2):
        # 0 seduces while 1 is chosen too: 1 has no suitor in the PRE state
        c = Configuration.all_null(p2)
        with pytest.raises(ValueError, match="no enabled rule"):
            apply_step(c, p2, [0, 1])

    def test_empty_selection_rejected(self, p2):
        with pytest.raises(ValueError, match="nonempty"):
            apply_step(Configuration.all_null(p2), p2, [])

    def test_disabled_member_rejected(self, p2):
        c = config_of(p2, {0: (1, True), 1: (0, True)})
        with pytest.raises(ValueError, match="no enabled rule"):
            apply_step(c, p2, [0])

    def test_marriage_records_target(self, two_suitors):
        g, c0 = two_suitors
        _, moves = apply_step(c0, g, [3])
        assert moves == (Move(3, Rule.MARRIAGE, 2),)


class TestRun:
    def test_p2_sequential_takes_four_steps(self, p2):
        # oracle first: every sequential schedule of P2 from all-null
        counts = all_sequential_step_counts(p2, Configuration.all_null(p2))
        assert counts == {4}
        for seed in range(5):
            t = run(p2, Configuration.all_null(p2), DaemonPolicy("sequential_random", seed=seed))
            assert t.stable and t.steps == 4
            moves = [(mv.node, mv.rule) for rec in t.records for mv in rec.moves]
            assert moves[:2] == [(0, Rule.SEDUCTION), (1, Rule.MARRIAGE)]
            assert sorted(moves[2:]) == [(0, Rule.UPDATE), (1, Rule.UPDATE)]

    def test_already_stable_zero_steps(self, p2):
        c = config_of(p2, {0: (1, True), 1: (0, True)})
        t = run(p2, c, DaemonPolicy("synchronous"))
        assert t.steps == 0 and t.stable and t.rounds == 0
        assert t.final == c

    def test_golden_sequential_linearization(self, two_suitors):
        g, c0 = two_suitors
        t = run(g, c0, DaemonPolicy("sequential_adversarial_heuristic", "max_id"))
        assert [(mv.node, mv.rule) for rec in t.records for mv in rec.moves] == [
            (3, Rule.MARRIAGE), (3, Rule.UPDATE), (2, Rule.UPDATE),
            (1, Rule.ABANDONMENT),
        ]
        assert t.stable and t.steps == 4

    def test_sequential_steps_equal_moves(self):
        g = generate("random_gnm", 12, 18, 4)
        for seed in range(4):
            t = run(g, Configuration.all_null(g), DaemonPolicy("sequential_random", seed=seed))
            assert t.steps == t.moves

    def test_distributed_moves_at_least_steps(self):
        g = generate("random_gnm", 12, 18, 4)
        for seed in range(4):
            t = run(g, Configuration.all_null(g), DaemonPolicy("distributed_random", seed=seed))
            assert t.moves >= t.steps

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.describe())
    def test_stabilizes_under_cap_on_every_policy(self, policy):
        g = generate("random_gnm", 15, 25, 8)
        for seed in range(5):
            from stabmatch.protocol import random_configuration

            t = run(g, random_configuration(g, seed), policy)
            assert t.stable
            assert t.steps <= 3 * g.n + 2 * g.m

    def test_max_steps_cap_reported_not_raised(self, p2):
        t = run(p2, Configuration.all_null(p2), DaemonPolicy("sequential_random"), max_steps=2)
        assert not t.stable and t.steps == 2

    def test_replaying_records_reproduces_final(self):
        g = generate("random_gnm", 10, 16, 6)
        t = run(g, Configuration.all_null(g), DaemonPolicy("distributed_random", seed=2))
        c = t.initial
        for record in t.records:
            c = replay_step(c, g, record.moves)
        assert c == t.final


class TestDeterminism:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.describe())
    def test_identical_inputs_identical_trace_bytes(self, policy):
        g = generate("random_gnm", 9, 14, 5)
        from stabmatch.protocol import random_configuration

        c0 = random_configuration(g, 11)
        a = write_trace(run(g, c0, policy))
        b = write_trace(run(g, c0, policy))
        assert a == b


class TestRounds:
    def test_synchronous_rounds_equal_steps(self):
        g = generate("random_gnm", 10, 16, 9)
        from stabmatch.protocol import random_configuration

        for seed in range(5):
            t = run(g, random_configuration(g, seed), DaemonPolicy("synchronous"))
            rounds, annotations = count_rounds(t)
            assert rounds == t.steps
            assert annotations == list(range(1, t.steps + 1))

    def test_empty_trace_zero_rounds(self, p2):
        c = config_of(p2, {0: (1, True), 1: (0, True)})
        t = run(p2, c, DaemonPolicy("synchronous"))
        assert count_rounds(t) == (0, [])

    def test_p2_sequential_round_structure(self, p2):
        t = run(p2, Configuration.all_null(p2), DaemonPolicy("sequential_random", seed=1))
        assert count_rounds(t)[0] == rescan_rounds(t)[0]

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.describe())
    def test_engine_annotation_matches_definition_rescan(self, policy):
        g = generate("random_gnm", 8, 12, 3)
        from stabmatch.protocol import random_configuration

        for seed in range(4):
            t = run(g, random_configuration(g, seed * 31), policy)
            recorded = [r.round_index for r in t.records]
            fast = count_rounds(t)
            slow = rescan_rounds(t)
            assert fast[1] == recorded == slow[1]
            assert fast[0] == t.rounds == slow[0]


class TestFairness:
    def test_no_starvation_across_seeded_runs(self):
        """A process continuously enabled is always selected within n steps."""
        graphs = [
            generate("random_gnm", 8, 12, 1),
            generate("random_gnm", 12, 18, 2),
            generate("cycle", 9),
            generate("star", 7),
        ]
        from stabmatch.protocol import random_configuration

        checked = 0
        for g, seed in itertools.product(graphs, range(250)):
            t = run(g, random_configuration(g, seed), DaemonPolicy("distributed_fair", seed=seed))
            assert t.stable
            worst = starvation_streaks(t)
            assert max(worst.values(), default=0) <= g.n, (g.n, worst)
            checked += 1
        assert checked == 1000


class TestTraceSerialization:
    def _trace(self):
        g = generate("random_gnm", 8, 12, 7)
        return run(g, Configuration.all_null(g), DaemonPolicy("distributed_fair", seed=5))

    def test_parse_roundtrip_bytes(self):
        t = self._trace()
        text = write_trace(t)
        assert write_trace(parse_trace(text)) == text

    def test_parse_preserves_content(self):
        t = self._trace()
        t2 = parse_trace(write_trace(t))
        assert t2.initial == t.initial and t2.final == t.final
        assert t2.records == t.records
        assert t2.policy == t.policy and t2.stable == t.stable

    @pytest.mark.parametrize("text,fragment", [
        ("", "header and a footer"),
        ('{"type":"step","index":0,"round_index":1,"moves":[]}', "outside body"),
        ('not json', "invalid record"),
        ('{"type":"mystery"}', "unknown record type"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(TraceFormatError, match=fragment):
            parse_trace(text)

    def test_footer_step_count_checked(self):
        t = self._trace()
        lines = write_trace(t).splitlines()
        del lines[2]
        with pytest.raises(TraceFormatError, match="does not match"):
            parse_trace("\n".join(lines) + "\n")

    def test_unknown_rule_rejected(self):
        t = self._trace()
        text = write_trace(t).replace('"seduction"', '"elopement"', 1)
        with pytest.raises(TraceFormatError, match="unknown rule"):
            parse_trace(text)


class TestTraceFromSchedule:
    def test_matches_engine_on_recorded_schedule(self, two_suitors):
        g, c0 = two_suitors
        t = run(g, c0, DaemonPolicy("sequential_adversarial_heuristic", "max_id"))
        schedule = [
            (tuple(mv.node for mv in rec.moves),
             {mv.node: mv.target for mv in rec.moves if mv.rule is Rule.MARRIAGE})
            for rec in t.records
        ]
        replayed = trace_from_schedule(g, c0, schedule, policy_desc=t.policy)
        assert replayed.final == t.final
        assert [r.round_index for r in replayed.records] == [
            r.round_index for r in t.records
        ]

    def test_step_record_invariants(self):
        g = generate("random_gnm", 9, 13, 3)
        t = run(g, Configuration.all_null(g), DaemonPolicy("distributed_random", seed=8))
        for record in t.records:
            nodes = [mv.node for mv in record.moves]
            assert nodes and len(nodes) == len(set(nodes))


class TestTraceCounters:
    def test_golden_scenario_counts(self, two_suitors):
        g, c0 = two_suitors
        t = run(g, c0, DaemonPolicy("sequential_adversarial_heuristic", "max_id"))
        counters = trace_counters(t)
        assert counters.steps == 4 and counters.moves == 4
        assert counters.per_rule == {
            Rule.UPDATE: 2, Rule.MARRIAGE: 1, Rule.SEDUCTION: 0, Rule.ABANDONMENT: 1,
        }
        assert counters.updates_per_node == {2: 1, 3: 1}
        assert counters.edge_move_steps == {(2, 3): 1, (1, 3): 1}
        assert counters.rounds == t.rounds

    def test_sequential_vs_distributed_totals(self):
        g = generate("random_gnm", 10, 16, 2)
        from stabmatch.protocol import random_configuration

        for kind in ("sequential_random", "distributed_random"):
            t = run(g, random_configuration(g, 3), DaemonPolicy(kind, seed=4))
            counters = trace_counters(t)
            assert counters.moves == t.moves
            assert sum(counters.per_rule.values()) == counters.moves
            assert max(counters.updates_per_node.values(), default=0) <= 2
            assert max(counters.edge_move_steps.values(), default=0) <= 3


def test_default_step_cap_is_bound_plus_one(p3):
    assert default_step_cap(p3) == 3 * 3 + 2 * 2 + 1
