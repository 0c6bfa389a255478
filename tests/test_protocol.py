from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from stabmatch.graph import Graph, generate
from stabmatch.protocol import (
    ConfigFormatError,
    Configuration,
    MutableConfiguration,
    PredicateClass,
    ProcessState,
    Rule,
    RuleSemantics,
    classify,
    command_target,
    enabled_nodes,
    enabled_rule,
    enabled_rules,
    normalize,
    parse_configuration,
    pr_married,
    random_configuration,
)
from stabmatch.scheduler import Move, TraceFormatError

from .conftest import config_of
from .oracles import literal_guards, literal_predicates, literal_realize


@st.composite
def graph_and_config(draw):
    n = draw(st.integers(2, 8))
    extra = draw(st.integers(0, 6))
    m = min(n - 1 + extra, n * (n - 1) // 2)
    g = generate("random_gnm", n, m, draw(st.integers(0, 10**6)))
    states = {}
    for i in g.nodes:
        options = [None] + list(g.adjacency[i])
        p = options[draw(st.integers(0, len(options) - 1))]
        states[i] = ProcessState(p, draw(st.booleans()))
    return g, Configuration.from_states(g, states)


class TestPrMarried:
    def test_mutual_pointers(self, p2):
        c = config_of(p2, {0: (1, False), 1: (0, False)})
        assert pr_married(c, p2, 0) and pr_married(c, p2, 1)

    def test_unreciprocated_pointer(self, p2):
        c = config_of(p2, {0: (1, False), 1: (None, False)})
        assert not pr_married(c, p2, 0)

    def test_all_null(self, triangle):
        c = Configuration.all_null(triangle)
        assert not any(pr_married(c, triangle, i) for i in triangle.nodes)


class TestClassify:
    def test_dead_when_neighbors_married(self, two_suitors):
        g, _ = two_suitors
        final = config_of(g, {1: (None, False), 2: (3, True), 3: (2, True)})
        assert classify(final, g, 1) is PredicateClass.DEAD

    def test_condemned_when_pointee_married_elsewhere(self, two_suitors):
        g, _ = two_suitors
        c = config_of(g, {1: (3, False), 2: (3, True), 3: (2, True)})
        assert classify(c, g, 1) is PredicateClass.CONDEMNED

    def test_waiting_suitor(self, two_suitors):
        g, c0 = two_suitors
        assert classify(c0, g, 1) is PredicateClass.WAITING
        assert classify(c0, g, 2) is PredicateClass.WAITING

    def test_isolated_node_is_dead(self):
        g = Graph.from_edges([0], [])
        assert classify(Configuration.all_null(g), g, 0) is PredicateClass.DEAD

    @given(graph_and_config())
    @settings(max_examples=150, deadline=None)
    def test_exactly_one_predicate_holds(self, gc):
        g, c = gc
        for i in g.nodes:
            preds = literal_predicates(c, g, i)
            holding = [name for name, value in preds.items() if value]
            assert len(holding) == 1
            assert classify(c, g, i).value == holding[0]


class TestEnabledRule:
    def test_marriage_for_courted_center(self, two_suitors):
        g, c0 = two_suitors
        assert enabled_rule(c0, g, 3) is Rule.MARRIAGE

    def test_abandonment_after_updates(self, two_suitors):
        g, _ = two_suitors
        panel_c = config_of(g, {1: (3, False), 2: (3, True), 3: (2, True)})
        assert enabled_rule(panel_c, g, 1) is Rule.ABANDONMENT

    def test_stable_married_pair(self, p2):
        c = config_of(p2, {0: (1, True), 1: (0, True)})
        assert enabled_rule(c, p2, 0) is None
        assert enabled_rule(c, p2, 1) is None

    def test_update_has_priority_reporting(self, p2):
        c = config_of(p2, {0: (None, True), 1: (None, False)})
        assert enabled_rule(c, p2, 0) is Rule.UPDATE

    def test_seduction_needs_larger_unmarried_target(self, p3):
        c = config_of(p3, {0: (None, False), 1: (None, False), 2: (None, False)})
        assert enabled_rule(c, p3, 0) is Rule.SEDUCTION
        assert enabled_rule(c, p3, 2) is None  # only smaller-id neighbor

    @given(graph_and_config())
    @settings(max_examples=150, deadline=None)
    def test_guards_mutually_exclusive(self, gc):
        g, c = gc
        for i in g.nodes:
            rules = enabled_rules(c, g, i)
            assert len(rules) <= 1
            assert enabled_rule(c, g, i) == (rules[0] if rules else None)


    @given(graph_and_config(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_guards_match_their_literal_transcription(self, gc, data):
        """The guards read the neighbors' states at the positions of the
        graph's ``around`` table and compare identifiers through its
        ``rank``; under tied identifiers, sparse node keys, nodes in sorted
        or permuted order and both semantics they agree with the guards
        read one process at a time through ``p_of`` and ``adjacency``, on a
        frozen and on a mutable configuration."""
        g, c = _relabeled(*gc, data, tied=True)
        for semantics in (RuleSemantics(), RuleSemantics(seduction_requires_larger_id=False)):
            for config in (c, MutableConfiguration(c)):
                for i in g.nodes:
                    rules = literal_guards(c, g, i, semantics)
                    assert enabled_rules(config, g, i, semantics) == rules
                    assert enabled_rule(config, g, i, semantics) == (rules[0] if rules else None)


def _relabeled(g, c, data, tied):
    """g and c on sparse node keys, identifiers drawn from {0, 1, 2} when
    ``tied``, else the keys. The graph is built by ``from_edges`` (nodes
    sorted) or by ``Graph(...)`` directly on the nodes in a drawn order;
    either way its keys are not its positions, so ``around`` is built by
    the general mapping."""
    key = {u: 7 + 3 * k for k, u in enumerate(data.draw(st.permutations(g.nodes)))}
    ident = {key[u]: data.draw(st.integers(0, 2)) if tied else key[u] for u in g.nodes}
    edges = [(key[u], key[v]) for u, v in g.edges()]
    h = Graph.from_edges(key.values(), edges, ident)
    if data.draw(st.booleans()):
        h = Graph(tuple(data.draw(st.permutations(h.nodes))), h.adjacency, ident)
    return h, Configuration.from_states(h, {
        key[u]: ProcessState(None if c.p_of(u) is None else key[c.p_of(u)], c.m_of(u))
        for u in c.nodes})


def _write(c, g, i, rule, semantics, choice):
    """command_target's write for i, or None when it raises ValueError."""
    try:
        return command_target(c, g, i, rule, semantics, marriage_choice=choice)
    except ValueError:
        return None


def _realized_write(c, g, i, rule, semantics, choice):
    """i's state after literal_realize replays the one-move step (i, rule,
    choice), or None when the step raises TraceFormatError."""
    try:
        _, after = literal_realize(c, g, [Move(i, rule, choice)], semantics)
    except TraceFormatError:
        return None
    return after.state(i)


def _commands_agree(c, g):
    """command_target gives the write that literal_realize's replay of a
    one-move step gives, or both raise, for every node, rule and suitor
    choice (none, every node, a key that is no node), under both
    semantics, on a frozen and on a mutable configuration. The rule need
    not be enabled: neither evaluates a guard."""
    choices = (None, *g.nodes, max(g.nodes) + 1)
    for semantics in (RuleSemantics(), RuleSemantics(seduction_requires_larger_id=False)):
        for config in (c, MutableConfiguration(c)):
            for i in g.nodes:
                for rule in Rule:
                    for choice in choices:
                        assert _write(config, g, i, rule, semantics, choice) == _realized_write(
                            c, g, i, rule, semantics, choice), (i, rule, choice, semantics)


@given(graph_and_config(), st.data())
@settings(max_examples=150, deadline=None)
def test_commands_match_their_literal_transcription(gc, data):
    """On random graphs, with identifiers equal to the keys or drawn from
    {0, 1, 2} (ties everywhere, broken by node key), and sparse node keys in
    sorted or permuted order."""
    g, c = _relabeled(*gc, data, tied=data.draw(st.booleans()))
    _commands_agree(c, g)


@given(graph_and_config(), st.data())
@settings(max_examples=50, deadline=None)
def test_enabled_nodes_of_a_subset_is_the_restriction(gc, data):
    g, c = gc
    nodes = data.draw(st.lists(st.sampled_from(g.nodes), unique=True))
    everyone = enabled_nodes(c, g)
    assert enabled_nodes(c, g, nodes=nodes) == {i: everyone[i] for i in nodes if i in everyone}


@pytest.mark.parametrize("courted", [True, False])
def test_commands_on_tied_top_identifiers_match_their_literal_transcription(courted):
    """A star whose leaves tie at the top identifier: the default suitor
    and the seduction target are the first of them by key."""
    g = Graph.from_edges(range(5), [(0, k) for k in range(1, 5)],
                         {0: 1, 1: 3, 2: 9, 3: 9, 4: 2})
    leaf = (0, False) if courted else (None, False)
    c = config_of(g, {k: leaf for k in range(1, 5)})
    _commands_agree(c, g)
    rule = Rule.MARRIAGE if courted else Rule.SEDUCTION
    assert command_target(c, g, 0, rule).p == 2


class TestCommandTarget:
    def test_marriage_prefers_larger_suitor(self, two_suitors):
        g, c0 = two_suitors
        assert command_target(c0, g, 3, Rule.MARRIAGE) == ProcessState(2, False)

    def test_marriage_explicit_choice(self, two_suitors):
        g, c0 = two_suitors
        assert command_target(c0, g, 3, Rule.MARRIAGE, marriage_choice=1).p == 1

    def test_marriage_choice_must_be_suitor(self, two_suitors):
        g, c0 = two_suitors
        c = c0.with_writes({1: ProcessState(None, False)})
        with pytest.raises(ValueError, match="not a suitor"):
            command_target(c, g, 3, Rule.MARRIAGE, marriage_choice=1)

    def test_seduction_takes_maximum_candidate(self):
        g = Graph.from_edges([3, 5, 9], [(3, 5), (3, 9)])
        c = Configuration.all_null(g)
        assert command_target(c, g, 3, Rule.SEDUCTION).p == 9

    def test_abandonment_writes_null(self, two_suitors):
        g, _ = two_suitors
        panel_c = config_of(g, {1: (3, False), 2: (3, True), 3: (2, True)})
        assert command_target(panel_c, g, 1, Rule.ABANDONMENT) == ProcessState(None, False)

    def test_update_copies_marriage_status(self, p2):
        c = config_of(p2, {0: (1, False), 1: (0, False)})
        assert command_target(c, p2, 0, Rule.UPDATE) == ProcessState(1, True)

    @pytest.mark.parametrize("rule,choice,fragment", [
        (Rule.MARRIAGE, None, "no suitor"),
        (Rule.MARRIAGE, 1, "not a suitor"),
        (Rule.SEDUCTION, None, "no candidate"),
        (Rule.ABANDONMENT, None, "null pointer"),
    ])
    def test_command_with_nothing_to_act_on_raises(self, p3, rule, choice, fragment):
        """Node 2 of the path 0-1-2 is uncourted, its one neighbor is
        smaller, and its pointer is null."""
        c = Configuration.all_null(p3)
        with pytest.raises(ValueError, match=fragment):
            command_target(c, p3, 2, rule, marriage_choice=choice)

    def test_command_of_a_rule_not_enabled_still_acts(self):
        """The command evaluates no guard: at a courted node marriage is
        enabled, yet seduction's command courts the largest candidate."""
        g = Graph.from_edges([3, 5, 7, 9], [(3, 5), (3, 7), (3, 9)])
        c = config_of(g, {5: (3, False), 7: (None, False), 9: (None, False)})
        assert enabled_rule(c, g, 3) is Rule.MARRIAGE
        assert command_target(c, g, 3, Rule.SEDUCTION) == ProcessState(9, False)


class TestLocality:
    """enabled_rule and command_target read only the closed neighborhood."""

    @given(graph_and_config(), st.booleans(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_distant_mutation_is_invisible(self, gc, flip_m, clear_p):
        g, c = gc
        i = g.nodes[0]
        near = {i, *g.adjacency[i]}
        far = [x for x in g.nodes if x not in near and not near & set(g.adjacency[x])]
        if not far:
            return
        x = far[0]
        mutated = c.with_writes(
            {x: ProcessState(None if clear_p else c.p_of(x), flip_m != c.m_of(x))}
        )
        assert enabled_rule(c, g, i) == enabled_rule(mutated, g, i)
        rule = enabled_rule(c, g, i)
        if rule is not None:
            assert command_target(c, g, i, rule) == command_target(mutated, g, i, rule)

    @given(graph_and_config(), st.data(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_unread_neighbors_are_invisible(self, gc, data, strip):
        """With a pointer a process reads only its own and its pointee's
        state, and with a null pointer and m set only its own, under both
        semantics: the search caches its results under that read set."""
        g, c = gc
        semantics = RuleSemantics(seduction_requires_larger_id=not strip)
        i = g.nodes[0]
        pi = c.p_of(i)
        if pi is None and not c.m_of(i):
            return
        writes = {}
        for x in g.adjacency[i]:
            if x != pi:
                p = data.draw(st.sampled_from([None, *g.adjacency[x]]))
                writes[x] = ProcessState(p, data.draw(st.booleans()))
        mutated = c.with_writes(writes)
        rule = enabled_rule(c, g, i, semantics)
        assert enabled_rule(mutated, g, i, semantics) == rule
        if rule is not None:
            assert command_target(c, g, i, rule, semantics) == command_target(
                mutated, g, i, rule, semantics)


class TestMonotoneMarriage:
    @given(graph_and_config())
    @settings(max_examples=150, deadline=None)
    def test_no_single_command_divorces(self, gc):
        g, c = gc
        married = [
            (i, j)
            for i in g.nodes
            for j in g.adjacency[i]
            if i < j and c.p_of(i) == j and c.p_of(j) == i
        ]
        for x in g.nodes:
            rule = enabled_rule(c, g, x)
            if rule is None:
                continue
            c2 = c.with_writes({x: command_target(c, g, x, rule)})
            for i, j in married:
                assert c2.p_of(i) == j and c2.p_of(j) == i


class TestNormalize:
    def test_out_of_neighborhood_pointer_cleared(self, p3):
        c = normalize(p3, {0: (2, False), 1: (None, False), 2: (1, False)})
        assert c.p_of(0) is None and c.p_of(2) == 1

    def test_idempotent(self, p3):
        c = normalize(p3, {0: (5, 1), 1: (0, 0), 2: (None, "yes")})
        assert normalize(p3, c) == c

    def test_missing_nodes_default(self, p3):
        c = normalize(p3, {})
        assert c == Configuration.all_null(p3)

    @given(st.integers(0, 10**6), st.dictionaries(
        st.integers(0, 3), st.tuples(st.integers(-2, 9), st.integers(0, 1))
    ))
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_raw_states_become_wellformed(self, seed, raw):
        g = generate("path", 4)
        c = normalize(g, raw)
        for i in g.nodes:
            assert c.p_of(i) is None or c.p_of(i) in g.adjacency[i]
            assert isinstance(c.m_of(i), bool)


class TestWithWrites:
    def test_derived_configuration_shares_the_node_index(self, p3):
        c = Configuration.all_null(p3)
        c2 = c.with_writes({1: ProcessState(2, True)})
        assert c2._index is c._index
        fresh = Configuration(c2.nodes, c2.p, c2.m)
        assert c2 == fresh and hash(c2) == hash(fresh)
        assert c2.state(1) == ProcessState(2, True) and c.state(1) == ProcessState(None, False)


class TestFromStates:
    def test_states_name_each_node_once(self, p3):
        states = {i: ProcessState(None, False) for i in p3.nodes}
        assert Configuration.from_states(p3, states) == Configuration.all_null(p3)
        del states[2]
        with pytest.raises(ValueError, match="cover exactly the graph's nodes"):
            Configuration.from_states(p3, states)

    def test_a_pointer_names_a_neighbor_or_nothing(self, p3):
        states = {0: ProcessState(2, False), 1: ProcessState(None, False),
                  2: ProcessState(None, False)}
        with pytest.raises(ValueError, match="p of node 0 must be a neighbor or null"):
            Configuration.from_states(p3, states)


class TestConfigurationText:
    def test_roundtrip(self, two_suitors):
        g, c0 = two_suitors
        assert parse_configuration(c0.to_text(), g) == c0

    def test_format_example(self, p3):
        c = config_of(p3, {0: (1, True), 1: (None, False), 2: (1, False)})
        assert c.to_text() == "0 1 t\n1 - f\n2 1 f\n"

    def test_out_of_neighborhood_normalized(self, p3):
        c = parse_configuration("0 2 f\n1 - f\n2 - f\n", p3)
        assert c.p_of(0) is None

    @pytest.mark.parametrize("text,fragment", [
        ("0 - f\n1 - f\n", "missing state"),
        ("0 - f\n1 - f\n2 - f\n0 - f\n", "duplicate node"),
        ("0 - f\n1 - f\n9 - f\n", "not in graph"),
        ("0 - x\n1 - f\n2 - f\n", "'t' or 'f'"),
        ("0 -\n1 - f\n2 - f\n", "expected 'id p m'"),
        ("a - f\n1 - f\n2 - f\n", "non-integer"),
    ])
    def test_parse_errors(self, p3, text, fragment):
        with pytest.raises(ConfigFormatError, match=fragment):
            parse_configuration(text, p3)


class TestIdentifierLayer:
    """Rule guards compare identifier values, not node keys."""

    def test_seduction_follows_inverted_identifiers(self):
        g = Graph.from_edges([0, 1], [(0, 1)], ident={0: 5, 1: 2})
        c = Configuration.all_null(g)
        assert enabled_rule(c, g, 1) is Rule.SEDUCTION  # ident 2 courts ident 5
        assert enabled_rule(c, g, 0) is None
        assert command_target(c, g, 1, Rule.SEDUCTION).p == 0

    def test_duplicate_distant_identifiers_still_stabilize(self):
        # path 0-1-2-3-4 whose endpoints share an identifier value; they are
        # four hops apart, so the distance-2 discipline holds
        from stabmatch.graph import check_distance2_unique
        from stabmatch.scheduler import DaemonPolicy, run
        from stabmatch.verifier import audit_trace

        g = Graph.from_edges(
            range(5),
            [(0, 1), (1, 2), (2, 3), (3, 4)],
            ident={0: 10, 1: 20, 2: 30, 3: 21, 4: 10},
        )
        assert check_distance2_unique(g) == []
        for seed in range(5):
            t = run(g, random_configuration(g, seed),
                    DaemonPolicy("distributed_random", seed=seed))
            assert t.stable
            assert audit_trace(t).all_pass


class TestRandomConfiguration:
    def test_deterministic(self, p3):
        assert random_configuration(p3, 5) == random_configuration(p3, 5)

    def test_wellformed(self):
        g = generate("random_gnm", 10, 15, 2)
        for seed in range(20):
            c = random_configuration(g, seed)
            for i in g.nodes:
                assert c.p_of(i) is None or c.p_of(i) in g.adjacency[i]
