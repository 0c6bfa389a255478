from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from stabmatch.graph import Graph, generate
from stabmatch.protocol import (
    STANDARD,
    Configuration,
    MutableConfiguration,
    Rule,
    enabled_rule,
    random_configuration,
)
from stabmatch.scheduler import (
    HEURISTIC_STRATEGIES,
    DaemonPolicy,
    Move,
    SchedulerState,
    StepRecord,
    Trace,
    TraceFormatError,
    apply_realized,
    apply_step,
    default_step_cap,
    parse_trace,
    realize_moves,
    replay_step,
    round_bound,
    run,
    select,
    step_bound,
    trace_counters,
    trace_from_schedule,
    write_trace,
)
from stabmatch.verifier import audit_trace

from .conftest import config_of
from .oracles import (
    all_sequential_step_counts,
    literal_realize,
    rescan_rounds,
    starvation_streaks,
)
from .test_execution import run_inputs

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


def _select(policy, g, nodes):
    """``select`` on a fresh state of ``policy`` whose enabled set is ``nodes``."""
    return select(policy, SchedulerState(policy, g, nodes))


class TestSelect:
    def test_sequential_random_singleton_reproducible(self, p3):
        policy = DaemonPolicy("sequential_random", seed=9)
        picks = [_select(policy, p3, {0, 2}) for _ in range(3)]
        assert all(len(s) == 1 for s in picks)
        assert picks[0] == picks[1] == picks[2]

    def test_synchronous_takes_all(self, p3):
        policy = DaemonPolicy("synchronous")
        assert _select(policy, p3, {0, 2}) == {0, 2}

    def test_distributed_random_nonempty_subset(self, p3):
        policy = DaemonPolicy("distributed_random", seed=1)
        state = SchedulerState(policy, p3, {0, 1, 2})
        for _ in range(50):
            s = select(policy, state)
            assert s and s <= {0, 1, 2}

    def test_min_id_and_max_id(self, p3):
        assert _select(DaemonPolicy("sequential_adversarial_heuristic", "min_id"),
                       p3, {0, 2}) == {0}
        assert _select(DaemonPolicy("sequential_adversarial_heuristic", "max_id"),
                       p3, {0, 2}) == {2}

    def test_max_degree_prefers_hub(self):
        g = generate("star", 4)
        policy = DaemonPolicy("distributed_adversarial_heuristic", "max_degree")
        assert _select(policy, g, {0, 1, 3}) == {0}

    def test_starve_one_avoids_victim(self, p3):
        policy = DaemonPolicy("distributed_adversarial_heuristic", "starve_one")
        state = SchedulerState(policy, p3, {0, 1, 2})
        assert state.victim == 2
        assert select(policy, state) == {0, 1}
        assert _select(policy, p3, {2}) == {2}

    def test_distributed_fair_includes_the_longest_pending(self):
        # identifiers run against the node keys, so a tie on pending_since
        # that went to the smaller node key would pick the wrong process
        g = generate("random_gnm", 12, 20, 2)
        g = Graph(g.nodes, g.adjacency, {u: 12 - u for u in g.nodes})
        rng = random.Random(5)
        for seed in range(300):
            members = rng.sample(g.nodes, rng.randint(1, 12))
            policy = DaemonPolicy("distributed_fair", seed=seed)
            state = SchedulerState(policy, g, members)
            for i in members:
                state.pending_since[i] = rng.randint(0, 2)
            oldest = min(members, key=lambda i: (state.pending_since[i], g.ident[i]))
            chosen = select(policy, state)
            assert oldest in chosen and chosen <= set(members)

    def test_empty_enabled_rejected(self, p3):
        policy = DaemonPolicy("synchronous")
        with pytest.raises(ValueError, match="nonempty"):
            _select(policy, p3, set())


class TestSchedulerState:
    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.sets(st.integers(0, 59)),
        batches=st.lists(
            st.tuples(st.sets(st.integers(0, 59), max_size=8),
                      st.sets(st.integers(0, 59), max_size=8),
                      st.sets(st.integers(0, 59), max_size=8)),
            max_size=30,
        ),
    )
    # two small batches on 30 members take the bisection path, the third
    # the re-sort path
    @example(initial=set(range(0, 60, 2)),
             batches=[({1, 3}, {0}, {0, 1}), ({5, 2}, {4}, {2, 4}),
                      ({7, 9, 11, 13, 15}, {6, 8}, {6})])
    def test_order_and_pending_match_a_fresh_state_after_every_update(self, initial, batches):
        g = generate("random_gnm", 60, 150, 4)
        g = Graph(g.nodes, g.adjacency, {u: u % 7 for u in g.nodes})
        for strategy in (None,) + HEURISTIC_STRATEGIES:
            kind = "synchronous" if strategy is None else "distributed_adversarial_heuristic"
            policy = DaemonPolicy(kind, strategy)
            state = SchedulerState(policy, g, initial)
            assert state.pending_since == dict.fromkeys(initial, 0)
            members = set(initial)
            for step, (on, off, chosen) in enumerate(batches, start=1):
                off = off - on
                chosen = chosen & (on | off)  # the movers are re-evaluated
                before = dict(state.pending_since)
                state.update(on, off, chosen, step)
                members = (members | on) - off
                assert state.pending_since.keys() == members
                for i in members:
                    restarts = i in on and (i in chosen or i not in before)
                    assert state.pending_since[i] == (step if restarts else before[i])
                assert state.order == SchedulerState(policy, g, members).order
                if strategy is None:
                    assert state.order == sorted(members)

    def test_heuristic_order_breaks_identifier_ties_by_node_key(self):
        g = Graph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)],
                             ident={0: 5, 1: 2, 2: 9, 3: 2})

        def front(strategy, nodes):
            policy = DaemonPolicy("sequential_adversarial_heuristic", strategy)
            return SchedulerState(policy, g, nodes).order[0][-1]

        assert front("min_id", [0, 1, 3]) == 1
        assert front("max_id", [0, 1, 2]) == 2
        assert front("max_degree", [0, 1, 2, 3]) == 1


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

    @pytest.mark.parametrize("n, m", [(30, 60), (100, 300), (7, 21)])
    @pytest.mark.parametrize("strategy", ["min_id", "max_id"])
    def test_distributed_min_and_max_id_fire_the_sequential_singleton(self, strategy, n, m):
        """Under min_id and max_id the distributed adversary fires the one
        node the sequential adversary fires: the records are the same step
        for step. Under max_degree and starve_one the two kinds differ."""
        g = generate("random_gnm", n, m, 1)
        for seed in (1, 2):
            c0 = random_configuration(g, seed)
            traces = [run(g, c0, DaemonPolicy(f"{kind}_adversarial_heuristic", strategy, seed))
                      for kind in ("sequential", "distributed")]
            assert traces[0].records == traces[1].records

    def test_max_steps_cap_reported_not_raised(self, p2):
        t = run(p2, Configuration.all_null(p2), DaemonPolicy("sequential_random"), max_steps=2)
        assert not t.stable and t.steps == 2

    def test_zero_step_cap_rejected(self, p2):
        with pytest.raises(ValueError, match="max_steps must be at least 1"):
            run(p2, Configuration.all_null(p2), DaemonPolicy("synchronous"), max_steps=0)

    def test_replaying_records_reproduces_final(self):
        g = generate("random_gnm", 10, 16, 6)
        t = run(g, Configuration.all_null(g), DaemonPolicy("distributed_random", seed=2))
        c = MutableConfiguration(t.initial)
        for record in t.records:
            replay_step(c, g, record.moves)
        assert c.freeze() == t.final


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
            rounds, annotations = rescan_rounds(t)
            assert rounds == t.steps
            assert annotations == list(range(1, t.steps + 1))

    def test_empty_trace_zero_rounds(self, p2):
        c = config_of(p2, {0: (1, True), 1: (0, True)})
        t = run(p2, c, DaemonPolicy("synchronous"))
        assert rescan_rounds(t) == (0, [])
        assert t.rounds == 0

    def test_p2_sequential_round_structure(self, p2):
        t = run(p2, Configuration.all_null(p2), DaemonPolicy("sequential_random", seed=1))
        assert audit_trace(t).rounds == rescan_rounds(t)[0]

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.describe())
    def test_engine_annotation_matches_definition_rescan(self, policy):
        g = generate("random_gnm", 8, 12, 3)
        from stabmatch.protocol import random_configuration

        for seed in range(4):
            t = run(g, random_configuration(g, seed * 31), policy)
            recorded = [r.round_index for r in t.records]
            slow = rescan_rounds(t)
            assert recorded == slow[1]
            assert t.rounds == slow[0]
            # the audit raises on an annotation its own replay does not reach
            assert audit_trace(t).rounds == t.rounds


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

    def test_rule_name_that_is_not_a_string_is_an_unknown_rule(self):
        t = self._trace()
        text = write_trace(t).replace('"seduction"', '["seduction"]', 1)
        with pytest.raises(TraceFormatError, match=r"unknown rule \['seduction'\]"):
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

    def test_empty_schedule_gives_a_one_step_cap(self, p2):
        """No step fired: the trace is its initial configuration, unstable
        here, and its cap is the least a header may hold."""
        c0 = Configuration.all_null(p2)
        t = trace_from_schedule(p2, c0, [])
        assert (t.initial, t.final, t.records, t.stable, t.max_steps) == (c0, c0, (), False, 1)
        text = write_trace(t)
        assert text == (
            '{"graph":"2\\n0 1\\n","graph_hash":"1e7a4f32fb9185df",'
            '"init":"0 - f\\n1 - f\\n","m":1,"max_steps":1,"n":2,'
            '"policy":"scripted","seed":0,"type":"header"}\n'
            '{"final":"0 - f\\n1 - f\\n","moves":0,"rounds":0,"stable":false,'
            '"steps":0,"type":"footer"}\n'
        )
        assert parse_trace(text) == t

    def test_step_record_invariants(self):
        g = generate("random_gnm", 9, 13, 3)
        t = run(g, Configuration.all_null(g), DaemonPolicy("distributed_random", seed=8))
        for record in t.records:
            nodes = [mv.node for mv in record.moves]
            assert nodes and len(nodes) == len(set(nodes))


class TestRecordTypes:
    """Move and StepRecord are slotted and write each field through its
    slot's setter; they keep the frozen dataclass contract. A process's
    state has no record type: it is a ``(p, m)`` pair."""

    @pytest.mark.parametrize("cls, names, args, text", [
        (Move, ["node", "rule", "target"], (3, Rule.MARRIAGE, 5),
         "Move(node=3, rule=<Rule.MARRIAGE: 'marriage'>, target=5)"),
        (StepRecord, ["index", "moves", "round_index"], (0, (Move(1, Rule.UPDATE),), 2),
         "StepRecord(index=0, moves=(Move(node=1, rule=<Rule.UPDATE: 'update'>, "
         "target=None),), round_index=2)"),
    ])
    def test_fields_equality_hash_repr_and_frozen(self, cls, names, args, text):
        record = cls(*args)
        assert [f.name for f in dataclasses.fields(cls)] == names and repr(record) == text
        assert tuple(getattr(record, name) for name in names) == args
        assert record == cls(**dict(zip(names, args))) and record != cls(*args[:-1], None)
        assert record != args  # a record equals only a record of its own type
        # a frozen dataclass hashes the tuple of its fields
        assert hash(record) == hash(cls(*args)) == hash(args)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, names[0], 9)
        assert dataclasses.replace(record, **{names[0]: 9}) == cls(9, *args[1:])
        assert pickle.loads(pickle.dumps(record)) == copy.copy(record) == record

    def test_move_target_defaults_to_none(self):
        assert Move(2, Rule.UPDATE) == Move(2, Rule.UPDATE, None) == Move(
            node=2, rule=Rule.UPDATE)
        assert Move(2, Rule.UPDATE).target is None

    def test_writes_are_keyed_by_the_recorded_movers_in_order(self):
        """realize_moves returns the writes alone, one per recorded move and
        keyed by the movers in the recorded order; a recorded move carries a
        target only for a marriage, the suitor it married."""
        g = generate("random_gnm", 30, 60, 2)
        t = run(g, random_configuration(g, 3), DaemonPolicy("distributed_random", seed=3))
        c, rules = MutableConfiguration(t.initial), set()
        for record in t.records:
            writes = realize_moves(c, g, record.moves)
            assert list(writes) == [mv.node for mv in record.moves]
            for mv in record.moves:
                assert mv.target == (writes[mv.node][0] if mv.rule is Rule.MARRIAGE else None)
                rules.add(mv.rule)
            apply_realized(c, writes)
        assert rules == set(Rule)

    def test_a_four_rule_run_and_its_parsed_trace_audit_clean(self):
        """A synchronous trace whose moves cover all four rules, written as
        ``(p, m)`` pairs, passes its audit, as does its trace parsed back
        from text."""
        g = generate("random_gnm", 300, 900, 1)
        t = run(g, random_configuration(g, 1), DaemonPolicy("synchronous", seed=1))
        assert all(trace_counters(t).values())
        assert audit_trace(t).all_pass
        assert audit_trace(parse_trace(write_trace(t))).all_pass

    def test_rules_hash_by_identity(self):
        """Rule members are singletons, so a dict keyed by them (the guards'
        results, the tally by rule) hashes each by identity."""
        for rule in Rule:
            assert hash(rule) == object.__hash__(rule)


class TestTraceCounters:
    """trace_counters tallies moves by rule from the records; the per-node
    update and per-edge step counts are the audit's."""

    def test_golden_scenario_counts(self, two_suitors):
        g, c0 = two_suitors
        t = run(g, c0, DaemonPolicy("sequential_adversarial_heuristic", "max_id"))
        assert trace_counters(t) == {
            Rule.UPDATE: 2, Rule.MARRIAGE: 1, Rule.SEDUCTION: 0, Rule.ABANDONMENT: 1,
        }
        assert list(trace_counters(t)) == list(Rule)
        report = audit_trace(t)
        assert (report.steps, report.moves, report.rounds) == (4, 4, t.rounds)
        # nodes 2 and 3 update once each; edges (2, 3) and (1, 3) see one step each
        assert report.checks["update_limit"].measured == {"max_updates_per_node": 1}
        assert report.checks["edge_move_limit"].measured == {
            "max_steps_per_edge": 1, "edges_at_three": 0,
        }

    def test_sequential_vs_distributed_totals(self):
        g = generate("random_gnm", 10, 16, 2)
        from stabmatch.protocol import random_configuration

        for kind in ("sequential_random", "distributed_random"):
            t = run(g, random_configuration(g, 3), DaemonPolicy(kind, seed=4))
            assert sum(trace_counters(t).values()) == t.moves
            report = audit_trace(t)
            assert report.moves == t.moves
            assert report.checks["update_limit"].measured["max_updates_per_node"] <= 2
            assert report.checks["edge_move_limit"].measured["max_steps_per_edge"] <= 3


def test_default_step_cap_is_bound_plus_one(p3):
    assert step_bound(p3) == 3 * 3 + 2 * 2
    assert round_bound(p3) == 2 * 3 + 1
    assert default_step_cap(p3) == 3 * 3 + 2 * 2 + 1


@st.composite
def recorded_steps(draw):
    """A configuration and a step as a trace could record it, resolvable or
    not: any rule at any node, most often its enabled one so that several
    moves resolve together, a node that may move twice, a marriage naming
    no target, a neighbor (pointing at the mover or not) or a key that is no
    node, and a target on a rule that carries none."""
    g, c0, _, semantics = draw(run_inputs())
    moves = []
    unique = draw(st.booleans())
    for i in draw(st.lists(st.sampled_from(g.nodes), min_size=1, max_size=g.n, unique=unique)):
        rules = [*Rule, *[enabled_rule(c0, g, i, semantics) or Rule.UPDATE] * 4]
        target = st.sampled_from([max(g.nodes) + 1, *g.adjacency[i]])
        moves.append(Move(i, draw(st.sampled_from(rules)), draw(st.none() | target)))
    return g, c0, tuple(moves), semantics


def _resolved(resolve):
    try:
        return resolve()
    except TraceFormatError as exc:
        return str(exc)


# a star whose leaves 2 and 3 tie for the largest identifier: the default
# suitor and the seduction target are the first of them, as max() picks
TIED_STAR = Graph.from_edges(range(5), [(0, j) for j in range(1, 5)],
                             {0: 0, 1: 5, 2: 7, 3: 7, 4: 2})


@settings(max_examples=400, deadline=None)
@given(recorded_steps())
@example((TIED_STAR, config_of(TIED_STAR, {j: (0, False) for j in range(1, 5)}),
          (Move(0, Rule.MARRIAGE),), STANDARD))
@example((TIED_STAR, Configuration.all_null(TIED_STAR), (Move(0, Rule.SEDUCTION),), STANDARD))
# an abandonment with a null pointer: command_target's ValueError, as a TraceFormatError
@example((TIED_STAR, Configuration.all_null(TIED_STAR), (Move(0, Rule.ABANDONMENT),), STANDARD))
# the structural faults: an empty step, a node not in the graph, a node moving twice
@example((TIED_STAR, Configuration.all_null(TIED_STAR), (), STANDARD))
@example((TIED_STAR, Configuration.all_null(TIED_STAR), (Move(9, Rule.UPDATE),), STANDARD))
@example((TIED_STAR, Configuration.all_null(TIED_STAR),
          (Move(1, Rule.UPDATE), Move(2, Rule.UPDATE), Move(1, Rule.UPDATE)), STANDARD))
def test_resolution_matches_its_literal_transcription(case):
    """realize_moves and apply_realized give the configuration after the
    step that the transcription gives, or raise the same TraceFormatError
    message; the writes are keyed by the recorded movers, in order. The
    configuration is written in place, and only by a step that resolves."""
    g, c0, moves, semantics = case
    c = MutableConfiguration(c0)

    def engine():
        writes = realize_moves(c, g, moves, semantics)
        assert list(writes) == [mv.node for mv in moves]
        assert apply_realized(c, writes) is c
        return c.freeze()

    expected = _resolved(lambda: literal_realize(c0, g, moves, semantics)[1])
    assert _resolved(engine) == expected
    if isinstance(expected, str):
        assert (tuple(c.p), tuple(c.m)) == (c0.p, c0.m)
