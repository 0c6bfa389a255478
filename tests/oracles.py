"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's fast paths: maximality is decided by
trying every superset, rounds are recomputed with a full eligibility scan at
every configuration, the five predicates, the four guards and the
resolution of a recorded step are transcribed literally (the round,
starvation and sequential-schedule oracles replay and fire steps through
these transcriptions, never through the engine), the reference daemon
sorts the enabled set and rebuilds its pending and owed bookkeeping from
scratch on every step, the reference search fires every branch with
apply_step on a frozen configuration, the active sets are rescanned over
every process at every round boundary, the reference parsers build an
edge list and a state dict before the graph or the configuration, and the
reference maximality scan walks the sorted edge list. If an
oracle and the implementation ever disagree, the test fails and one of
them is wrong.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from stabmatch.graph import Graph, GraphFormatError
from stabmatch.protocol import (
    ConfigFormatError,
    Configuration,
    RuleSemantics,
    Rule,
    STANDARD,
    enabled_nodes,
    enabled_rule,
    marriage_suitors,
)
from stabmatch.scheduler import (
    Move,
    StepRecord,
    Trace,
    TraceFormatError,
    apply_step,
    default_step_cap,
    step_bound,
)
from stabmatch.verifier import (
    SearchResult, WitnessStep, check_maximal, extract_matching, validate_matching)


def nodes_within_two_hops(g, u):
    """Plain BFS to depth two."""
    seen = {u}
    frontier = [u]
    for _ in range(2):
        nxt = []
        for x in frontier:
            for y in g.adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    seen.discard(u)
    return seen


def distance2_violations(g):
    """All node pairs within two hops sharing an identifier value."""
    out = set()
    for u in g.nodes:
        for v in nodes_within_two_hops(g, u):
            if u < v and g.ident[u] == g.ident[v]:
                out.add((u, v))
    return sorted(out)


def is_matching(edges, g):
    edges = list(edges)
    for e in edges:
        u, v = e
        if v not in g.adjacency.get(u, ()):
            return False
    for a, b in itertools.combinations(edges, 2):
        if set(a) & set(b):
            return False
    return True


def brute_force_maximal(mt, g):
    """Maximal iff no single edge can be added; tried edge by edge."""
    mt = set(tuple(e) for e in mt)
    assert is_matching(mt, g)
    for e in g.edges():
        if e not in mt and is_matching(mt | {e}, g):
            return False
    return True


def edge_list_check_maximal(mt, g) -> Optional[tuple[int, int]]:
    """``verifier.check_maximal`` as it was before it scanned the sorted
    adjacency: the first addable edge of the sorted ``Graph.edges()`` list.
    Kept verbatim."""
    mt = set(tuple(e) for e in mt)
    validate_matching(mt, g)
    matched = {u for e in mt for u in e}
    for u, v in g.edges():
        if u not in matched and v not in matched:
            return (u, v)
    return None


def rescan_rounds(trace: Trace, semantics=None):
    """Round partition recomputed with full eligibility scans at every
    configuration, O(steps * n * degree): the configurations replayed by
    ``replay_configurations``, eligibility decided by ``literal_guards``."""
    semantics = semantics or STANDARD
    g = trace.graph

    def eligible(c):
        return {i for i in g.nodes if literal_guards(c, g, i, semantics)}

    configs = replay_configurations(g, trace.initial, [r.moves for r in trace.records],
                                    semantics)

    annotations = []
    round_index = 1
    owed = eligible(configs[0])
    for k, record in enumerate(trace.records):
        annotations.append(round_index)
        moved = {mv.node for mv in record.moves}
        after = eligible(configs[k + 1])
        owed = {i for i in owed if i not in moved and i in after}
        if not owed and after:
            round_index += 1
            owed = after
    return (annotations[-1] if annotations else 0), annotations


def replay_configurations(g, c0: Configuration, step_moves, semantics=None):
    """Every configuration of a recorded execution, from c0 on, with each
    command transcribed from the rule definitions and evaluated against the
    pre-step configuration: update sets m to the marriage status, marriage
    points at the recorded suitor (or the suitor of largest identifier),
    seduction at the courtable neighbor of largest identifier, abandonment
    at null."""
    semantics = semantics or STANDARD
    ident = g.ident
    configs = [c0]
    for moves in step_moves:
        c = configs[-1]
        states = {i: (c.p_of(i), c.m_of(i)) for i in g.nodes}
        for mv in moves:
            i, p, m = mv.node, c.p_of(mv.node), c.m_of(mv.node)
            if mv.rule is Rule.UPDATE:
                m = p is not None and c.p_of(p) == i
            elif mv.rule is Rule.MARRIAGE:
                suitors = [j for j in g.adjacency[i] if c.p_of(j) == i]
                p = mv.target if mv.target is not None else max(
                    suitors, key=lambda j: ident[j])
            elif mv.rule is Rule.SEDUCTION:
                courtable = [
                    j for j in g.adjacency[i]
                    if c.p_of(j) is None and not c.m_of(j)
                    and (ident[j] > ident[i] or not semantics.seduction_requires_larger_id)
                ]
                p = max(courtable, key=lambda j: ident[j])
            else:
                p = None
            states[i] = (p, m)
        configs.append(Configuration.from_states(g, states))
    return configs


def all_sequential_step_counts(g, c0: Configuration, limit=200):
    """Step counts of every sequential schedule from c0, by full recursion.

    Branches over every single enabled process (``literal_guards``) and
    every marriage suitor, each step fired by ``literal_realize``.
    ``limit`` guards against runaway recursion on a broken protocol.
    """
    counts = set()

    def walk(c, depth):
        assert depth <= limit, "sequential schedule exceeded the recursion guard"
        moves = []
        for i in g.nodes:
            for rule in literal_guards(c, g, i):
                if rule is Rule.MARRIAGE:
                    moves += [Move(i, rule, j) for j in g.adjacency[i] if c.p_of(j) == i]
                else:
                    moves.append(Move(i, rule))
        if not moves:
            counts.add(depth)
        for mv in moves:
            _, c2 = literal_realize(c, g, [mv])
            walk(c2, depth + 1)

    walk(c0, 0)
    return counts


def literal_predicates(c, g, i):
    """The five per-process predicates transcribed one to one."""

    def married(x):
        return any(c.p_of(x) == j and c.p_of(j) == x for j in g.adjacency[x])

    p = c.p_of(i)
    return {
        "married": p is not None and any(
            p == j and c.p_of(j) == i for j in g.adjacency[i]
        ),
        "waiting": p is not None and any(
            p == j and c.p_of(j) != i and not married(j) for j in g.adjacency[i]
        ),
        "condemned": p is not None and any(
            p == j and c.p_of(j) != i and married(j) for j in g.adjacency[i]
        ),
        "dead": p is None and all(married(j) for j in g.adjacency[i]),
        "free": p is None and any(not married(j) for j in g.adjacency[i]),
    }


def literal_guards(c, g, i, semantics=STANDARD):
    """The four guards transcribed one to one, read through p_of/m_of, in
    the order enabled_rules lists them."""
    p, m = c.p_of(i), c.m_of(i)
    married = p is not None and c.p_of(p) == i
    courted = any(c.p_of(j) == i for j in g.adjacency[i])
    courtable = any(
        c.p_of(j) is None and not c.m_of(j)
        and (g.ident[j] > g.ident[i] or not semantics.seduction_requires_larger_id)
        for j in g.adjacency[i]
    )
    holds = {
        Rule.UPDATE: m != married,
        Rule.MARRIAGE: m == married and p is None and courted,
        Rule.SEDUCTION: m == married and p is None and not courted and courtable,
        Rule.ABANDONMENT: m == married and p is not None and c.p_of(p) != i
        and (c.m_of(p) or g.ident[p] <= g.ident[i]),
    }
    return tuple(rule for rule, ok in holds.items() if ok)


def literal_realize(c, g, moves, semantics=STANDARD):
    """A recorded step resolved and applied as the rules read, through
    p_of/m_of and max(..., key=ident): the realized moves and the frozen
    configuration after the step, or the TraceFormatError the step raises.
    ``c`` itself is left as it is."""
    ident = g.ident

    def suitors(i):
        return [j for j in g.adjacency[i] if c.p_of(j) == i]

    realized = []
    for mv in moves:
        i = mv.node
        if i not in g.adjacency:
            raise TraceFormatError(f"move recorded at unknown node {i}")
        if any(done.node == i for done in realized):
            raise TraceFormatError(f"node {i} recorded twice in one step")
        if mv.rule is Rule.UPDATE:
            realized.append(Move(i, Rule.UPDATE))
        elif mv.rule is Rule.MARRIAGE:
            if mv.target is None:
                if not suitors(i):
                    raise TraceFormatError(f"marriage recorded at node {i} with no suitor")
                realized.append(Move(i, Rule.MARRIAGE, max(suitors(i), key=lambda j: ident[j])))
            elif mv.target in suitors(i):
                realized.append(Move(i, Rule.MARRIAGE, mv.target))
            else:
                raise TraceFormatError(f"marriage target {mv.target} is not a suitor of {i}")
        elif mv.rule is Rule.SEDUCTION:
            courtable = [
                j for j in g.adjacency[i]
                if c.p_of(j) is None and not c.m_of(j)
                and (ident[j] > ident[i] or not semantics.seduction_requires_larger_id)
            ]
            if not courtable:
                raise TraceFormatError(f"seduction recorded at node {i} with no candidate")
            realized.append(Move(i, Rule.SEDUCTION, max(courtable, key=lambda j: ident[j])))
        elif mv.rule is Rule.ABANDONMENT:
            if c.p_of(i) is None:
                raise TraceFormatError(
                    f"abandonment recorded at node {i} with a null pointer")
            realized.append(Move(i, Rule.ABANDONMENT, c.p_of(i)))
        else:
            raise TraceFormatError(f"unknown rule in record: {mv.rule}")
    if not realized:
        raise TraceFormatError("step recorded with no moves")
    states = {i: (c.p_of(i), c.m_of(i)) for i in g.nodes}
    for mv in realized:
        i, p = mv.node, c.p_of(mv.node)
        if mv.rule is Rule.UPDATE:
            states[i] = (p, p is not None and c.p_of(p) == i)
        elif mv.rule is Rule.ABANDONMENT:
            states[i] = (None, c.m_of(i))
        else:
            states[i] = (mv.target, c.m_of(i))
    return tuple(realized), Configuration.from_states(g, states)


def starvation_streaks(trace: Trace):
    """Longest run of consecutive steps each node stayed enabled, unselected
    and undisturbed, recomputed from the configurations that
    ``replay_configurations`` replays, eligibility by ``literal_guards``."""
    g = trace.graph
    configs = replay_configurations(g, trace.initial, [r.moves for r in trace.records])
    streak = {i: 0 for i in g.nodes}
    worst = {i: 0 for i in g.nodes}
    for record, c in zip(trace.records, configs):
        moved = {mv.node for mv in record.moves}
        for i in g.nodes:
            if not literal_guards(c, g, i) or i in moved:
                streak[i] = 0
            else:
                streak[i] += 1
                worst[i] = max(worst[i], streak[i])
    return worst


@dataclass
class ReferenceSchedulerState:
    graph: object
    rng: random.Random
    victim: int
    pending_since: dict = field(default_factory=dict)
    step_index: int = 0


def reference_select(policy, enabled, history):
    """The daemon's choice, sorting and scanning every candidate each call."""
    candidates = sorted(enabled)
    if not candidates:
        raise ValueError("select requires a nonempty enabled set")
    g = history.graph
    if policy.kind == "sequential_random":
        return frozenset((history.rng.choice(candidates),))
    if policy.kind == "synchronous":
        return frozenset(candidates)
    if policy.kind == "distributed_random":
        while True:
            chosen = [i for i in candidates if history.rng.random() < 0.5]
            if chosen:
                return frozenset(chosen)
    if policy.kind == "distributed_fair":
        chosen = {i for i in candidates if history.rng.random() < 0.5}
        oldest = min(
            candidates,
            key=lambda i: (history.pending_since.get(i, 0), g.ident[i]),
        )
        chosen.add(oldest)
        return frozenset(chosen)
    # adversarial heuristics
    strategy = policy.strategy
    if strategy == "min_id":
        picks = [min(candidates, key=lambda i: g.ident[i])]
    elif strategy == "max_id":
        picks = [max(candidates, key=lambda i: g.ident[i])]
    elif strategy == "max_degree":
        top = max(len(g.adjacency[i]) for i in candidates)
        picks = [i for i in candidates if len(g.adjacency[i]) == top]
    else:  # starve_one
        picks = [i for i in candidates if i != history.victim] or [history.victim]
    if policy.kind == "sequential_adversarial_heuristic":
        picks = [min(picks, key=lambda i: g.ident[i])]
    return frozenset(picks)


def reference_run(g, c0, policy, max_steps=None, semantics=None):
    """The execution loop with the pending and owed sets rebuilt over the
    whole enabled set after every step."""
    from stabmatch.protocol import STANDARD

    semantics = semantics or STANDARD
    if max_steps is None:
        max_steps = default_step_cap(g)
    victim = max(g.nodes, key=lambda i: g.ident[i])
    state = ReferenceSchedulerState(g, random.Random(policy.seed), victim)
    c = c0
    enabled = {
        i: r
        for i in g.nodes
        if (r := enabled_rule(c, g, i, semantics)) is not None
    }
    state.pending_since = {i: 0 for i in enabled}
    owed = set(enabled)
    round_index = 1
    records = []
    while enabled and len(records) < max_steps:
        chosen = reference_select(policy, enabled.keys(), state)
        c2, moves = apply_step(c, g, chosen, semantics)
        moved = {mv.node for mv in moves}
        dirty = set(moved)
        for i in moved:
            dirty.update(g.adjacency[i])
        for i in dirty:
            r = enabled_rule(c2, g, i, semantics)
            if r is None:
                enabled.pop(i, None)
            else:
                enabled[i] = r
        records.append(StepRecord(len(records), moves, round_index))
        owed -= moved
        owed = {i for i in owed if i in enabled}
        if not owed and enabled:
            round_index += 1
            owed = set(enabled)
        state.step_index += 1
        pending = {}
        for i in enabled:
            prev = state.pending_since.get(i)
            if prev is not None and i not in moved:
                pending[i] = prev
            else:
                pending[i] = state.step_index
        state.pending_since = pending
        c = c2
    return Trace(
        graph=g,
        policy=policy.describe(),
        seed=policy.seed,
        initial=c0,
        records=tuple(records),
        final=c,
        stable=not enabled,
        max_steps=max_steps,
    )


# The exhaustive schedule search as it was before states were int-encoded,
# kept verbatim as the reference the int engine is compared against: every
# branch is an apply_step on a frozen Configuration, and the memo and the
# on-stack set hold Configurations.


def all_wellformed_configurations(g: Graph):
    """Every configuration with p in N(i) or null and boolean m, in a fixed
    deterministic order."""
    per_node = []
    for i in g.nodes:
        options = [(None, False), (None, True)]
        for j in g.adjacency[i]:
            options.extend(((j, False), (j, True)))
        per_node.append(options)
    for combo in itertools.product(*per_node):
        p = tuple(st[0] for st in combo)
        m = tuple(st[1] for st in combo)
        yield Configuration(g.nodes, p, m)


def _branches(c, g, enabled, branch_marriage):
    """All (subset, marriage choice) pairs a distributed daemon could fire
    from ``c``, whose enabled processes map to their rules in ``enabled``."""
    nodes = sorted(enabled)
    for mask in range(1, 1 << len(nodes)):
        subset = tuple(nodes[k] for k in range(len(nodes)) if mask >> k & 1)
        if branch_marriage:
            marrying = [i for i in subset if enabled[i] is Rule.MARRIAGE]
            if marrying:
                suitor_lists = [marriage_suitors(c, g, i) for i in marrying]
                for combo in itertools.product(*suitor_lists):
                    yield subset, dict(zip(marrying, combo))
                continue
        yield subset, None


class _Budget(Exception):
    pass


class _Livelock(Exception):
    def __init__(self, initial, prefix, cycle):
        self.initial = initial
        self.prefix = prefix
        self.cycle = cycle


class _Frame:
    """One depth-first frame: a configuration, its enabled rules and its
    pending branches."""

    __slots__ = ("config", "rules", "branches", "entering", "best", "best_branch",
                 "leaves_ok", "expanded")

    def __init__(self, config, g, semantics, branch_marriage, entering):
        self.config = config
        self.rules = enabled_nodes(config, g, semantics)
        self.branches = _branches(config, g, self.rules, branch_marriage)
        self.entering = entering  # the parent's branch that reached this frame
        self.best = 0
        self.best_branch = None
        self.leaves_ok = True
        self.expanded = False

    def fold(self, steps, branch, leaves_ok):
        if self.best_branch is None or steps > self.best:
            self.best = steps
            self.best_branch = branch
        self.leaves_ok = self.leaves_ok and leaves_ok


def _cycle_steps(stack, succ, closing_branch):
    """Split the DFS stack into the schedule reaching the repeated
    configuration and the schedule that loops back to it."""
    idx = next(k for k, frame in enumerate(stack) if frame.config == succ)
    prefix = tuple(_witness_step(stack[k].entering) for k in range(1, idx + 1))
    cycle = [_witness_step(stack[k].entering) for k in range(idx + 1, len(stack))]
    cycle.append(_witness_step(closing_branch))
    return prefix, tuple(cycle)


def reference_search(
    g: Graph,
    initial: Union[Configuration, str, Iterable[Configuration]],
    branch_marriage: bool = False,
    budget: int = 200_000,
    semantics: RuleSemantics = STANDARD,
) -> SearchResult:
    """Explore every daemon choice (every nonempty subset of the enabled
    processes, and every suitor choice when branch_marriage) to find the
    longest schedule to stability.

    ``initial`` is a configuration, the string "all" for every well-formed
    configuration, or an iterable of configurations. The memo is shared
    across initial states, so the all-configurations mode costs one sweep of
    the reachable state space. A repeated configuration on the current
    schedule proves a livelock and aborts the search with its witness.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if isinstance(initial, Configuration):
        initials = [initial]
    elif initial == "all":
        initials = list(all_wellformed_configurations(g))
    else:
        initials = list(initial)

    bound = step_bound(g)
    # memo: config -> (worst steps to stability, best branch, leaves all maximal)
    memo: dict[Configuration, tuple[int, Optional[tuple], bool]] = {}
    explored = 0
    complete = True
    livelock = False
    livelock_initial = None
    livelock_prefix: tuple[WitnessStep, ...] = ()
    livelock_cycle: tuple[WitnessStep, ...] = ()

    def expand(c0: Configuration) -> None:
        nonlocal explored
        if c0 in memo:
            return
        explored += 1
        if explored > budget:
            raise _Budget()
        onstack = {c0}
        stack = [_Frame(c0, g, semantics, branch_marriage, None)]
        while stack:
            frame = stack[-1]
            branch = next(frame.branches, None)
            if branch is None:
                c = frame.config
                if not frame.expanded:  # no enabled process: stable leaf
                    maximal = check_maximal(extract_matching(c, g), g) is None
                    memo[c] = (0, None, maximal)
                else:
                    memo[c] = (frame.best, frame.best_branch, frame.leaves_ok)
                stack.pop()
                onstack.discard(c)
                if stack:
                    steps, _, ok = memo[c]
                    stack[-1].fold(steps + 1, frame.entering, ok)
                continue
            frame.expanded = True
            subset, choices = branch
            succ, _ = apply_step(
                frame.config, g, subset, semantics,
                marriage_choices=choices, rules=frame.rules,
            )
            if succ in onstack:
                prefix, cycle = _cycle_steps(stack, succ, branch)
                raise _Livelock(c0, prefix, cycle)
            if succ in memo:
                steps, _, ok = memo[succ]
                frame.fold(steps + 1, branch, ok)
                continue
            explored += 1
            if explored > budget:
                raise _Budget()
            onstack.add(succ)
            stack.append(_Frame(succ, g, semantics, branch_marriage, branch))

    try:
        for c0 in initials:
            expand(c0)
    except _Budget:
        complete = False
    except _Livelock as exc:
        livelock = True
        livelock_initial = exc.initial
        livelock_prefix = exc.prefix
        livelock_cycle = exc.cycle

    worst = -1
    worst_initial = None
    leaves_ok = True
    for c0 in initials:
        if c0 not in memo:
            continue
        steps, _, ok = memo[c0]
        leaves_ok = leaves_ok and ok
        if steps > worst:
            worst = steps
            worst_initial = c0
    witness: tuple[WitnessStep, ...] = ()
    if worst_initial is not None:
        witness = _reconstruct_witness(worst_initial, g, memo, semantics)

    return SearchResult(
        worst_steps=max(worst, 0),
        witness_initial=worst_initial,
        witness=witness,
        explored=explored,
        branch_marriage=branch_marriage,
        complete=complete,
        livelock=livelock,
        livelock_initial=livelock_initial,
        livelock_prefix=livelock_prefix,
        livelock_cycle=livelock_cycle,
        all_leaves_maximal=leaves_ok and not livelock,
        bound=bound,
        initial_count=len(initials),
        memo_size=len(memo),
    )


def _witness_step(branch) -> WitnessStep:
    subset, choices = branch
    pairs = tuple(sorted(choices.items())) if choices else ()
    return WitnessStep(tuple(subset), pairs)


def _reconstruct_witness(c0, g, memo, semantics) -> tuple[WitnessStep, ...]:
    steps = []
    c = c0
    while True:
        entry = memo.get(c)
        if entry is None or entry[1] is None:
            break
        subset, choices = entry[1]
        steps.append(_witness_step((subset, choices)))
        c, _ = apply_step(c, g, subset, semantics, marriage_choices=choices)
    return tuple(steps)


def reference_read_graph(text: str) -> Graph:
    """The edge-list parser as it was before it built the adjacency in one
    pass: an edge list and a seen set, then ``Graph.from_edges``. Its count
    line check is the earlier ``isdigit``, so it raises ValueError, not
    GraphFormatError, on a count such as '²'."""
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1 or not parts[0].isdigit():
                raise GraphFormatError(f"line {lineno}: expected node count")
            n = int(parts[0])
            if n < 1:
                raise GraphFormatError(f"line {lineno}: node count must be >= 1")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer node id") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop {u}")
        if not 0 <= u < v:
            raise GraphFormatError(f"line {lineno}: edge must satisfy 0 <= u < v")
        if (u, v) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("line 1: missing node count")
    nodes = sorted({u for e in edges for u in e})
    if not edges:
        nodes = list(range(n))
    elif len(nodes) != n:
        raise GraphFormatError(
            f"node count {n} does not match the {len(nodes)} ids in edge lines"
            " (isolated nodes are not representable alongside edges)"
        )
    return Graph.from_edges(nodes, edges)


def reference_parse_configuration(text: str, g: Graph) -> Configuration:
    """The configuration parser as it was before it wrote state lists in
    one pass: a dict of raw states, then one (p, m) pair per graph node, a
    pointer outside N(i) made null."""
    raw: dict[int, tuple] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ConfigFormatError(f"line {lineno}: expected 'id p m'")
        try:
            i = int(parts[0])
            p = None if parts[1] == "-" else int(parts[1])
        except ValueError:
            raise ConfigFormatError(f"line {lineno}: non-integer field") from None
        if parts[2] not in ("t", "f"):
            raise ConfigFormatError(f"line {lineno}: m must be 't' or 'f'")
        if i not in g.adjacency:
            raise ConfigFormatError(f"line {lineno}: node {i} not in graph")
        if i in raw:
            raise ConfigFormatError(f"line {lineno}: duplicate node {i}")
        raw[i] = (p, parts[2] == "t")
    missing = set(g.nodes) - set(raw)
    if missing:
        raise ConfigFormatError(f"missing state for nodes {sorted(missing)}")
    p = tuple(raw[i][0] if raw[i][0] in g.adjacency[i] else None for i in g.nodes)
    return Configuration(g.nodes, p, tuple(raw[i][1] for i in g.nodes))


def shrink_tallies(trace: Trace, semantics=STANDARD):
    """The active_component_shrink tallies and first counterexample (its
    step and detail, or None), recomputed from scratch: every configuration
    by ``replay_configurations``, the round boundaries from
    ``rescan_rounds``, and at each boundary the active set (neither married
    nor dead by ``literal_predicates``) rescanned over every process.

    A round closes after a step whose annotation the next step raises,
    after a step that leaves no process enabled, and after the last step
    when every process its round started eligible has since moved or been
    disabled, as ``rescan_rounds`` reads rounds."""
    g = trace.graph
    configs = replay_configurations(g, trace.initial, [r.moves for r in trace.records],
                                    semantics)
    _, annotations = rescan_rounds(trace, semantics)

    def eligible(c):
        return {i for i in g.nodes if literal_guards(c, g, i, semantics)}

    after = [eligible(c) for c in configs[1:]]
    last = len(annotations) - 1
    closes = [not after[k] or k < last and annotations[k + 1] > annotations[k]
              for k in range(last + 1)]
    if annotations and not closes[-1]:
        start = annotations.index(annotations[-1])
        owed = eligible(configs[start])
        for k in range(start, last + 1):
            moved = {mv.node for mv in trace.records[k].moves}
            owed = {i for i in owed if i not in moved and i in after[k]}
        closes[-1] = not owed
    boundaries = [0] + [k + 1 for k, closed in enumerate(closes) if closed]

    def active(c):
        return {i for i in g.nodes
                if not any(literal_predicates(c, g, i)[name] for name in ("married", "dead"))}

    actives = [active(configs[b]) for b in boundaries]
    stable = not eligible(configs[-1])
    tallies = {"windows_ge2": 0, "windows_gt2": 0, "violations_ge2": 0, "violations_gt2": 0}
    first = None
    last = len(actives) - 1
    for b, nodes in enumerate(actives):
        comps = []
        left = set(nodes)
        while left:
            comp = {min(left)}
            frontier = list(comp)
            while frontier:
                u = frontier.pop()
                for v in g.adjacency[u]:
                    if v in left and v not in comp:
                        comp.add(v)
                        frontier.append(v)
            left -= comp
            comps.append(comp)
        for comp in comps:
            if len(comp) < 2:
                continue
            target = b + 4
            if target > last:
                if not stable:
                    continue
                target = last
            still = len(comp & actives[target])
            violated = still > len(comp) - 2
            tallies["windows_ge2"] += 1
            tallies["violations_ge2"] += violated
            if len(comp) > 2:
                tallies["windows_gt2"] += 1
                tallies["violations_gt2"] += violated
            if violated and first is None:
                first = (boundaries[b], f"component of {len(comp)} active processes at round "
                         f"boundary {b} kept {still} active members four rounds on")
    return tallies, first


def move_tallies(trace: Trace, semantics=STANDARD):
    """The audit's per-move checks recomputed from the configurations
    ``replay_configurations`` gives: the measured max_updates_per_node,
    max_steps_per_edge, edges_at_three and matching_size, and each check's
    first counterexample (step, detail), or None. The checks are
    moves_enabled (a recorded rule ``literal_guards`` does not hold before
    the step), update_limit (a node's third update), edge_move_limit (an
    edge's fourth step with a move on it, else an edge at three steps with
    no one-sided initial pointer) and marriage_persistence (a pair married,
    by ``literal_predicates``, before a step and not after it).

    A move is on the edge from its node to the node's pointer after the
    step, or before it for an abandonment, and an edge that two moves of a
    step are on counts that step once. Where one step holds several
    counterexamples the first in the recorded move order is reported, as
    the audit reports it: a fourth step by its edge's first move, a divorce
    by the first mover of the pair.
    """
    g = trace.graph
    configs = replay_configurations(g, trace.initial, [r.moves for r in trace.records],
                                    semantics)
    first = dict.fromkeys(
        ("moves_enabled", "update_limit", "edge_move_limit", "marriage_persistence"))

    def hit(name, step, detail):
        if first[name] is None:
            first[name] = (step, detail)

    def wed(c, u):
        return literal_predicates(c, g, u)["married"]

    pair_of = {u: pair for pair in extract_matching(trace.initial, g) for u in pair}
    updates, edge_steps, third = {}, {}, {}
    for k, record in enumerate(trace.records):
        before, after = configs[k], configs[k + 1]
        edges = []
        for mv in record.moves:
            i = mv.node
            if mv.rule not in literal_guards(before, g, i, semantics):
                hit("moves_enabled", k, f"node {i} executed {mv.rule.value} while not enabled")
            if mv.rule is Rule.UPDATE:
                updates[i] = updates.get(i, 0) + 1
                if updates[i] == 3:
                    hit("update_limit", k, f"node {i} executed its third update")
            else:
                j = (before if mv.rule is Rule.ABANDONMENT else after).p_of(i)
                edges.append((min(i, j), max(i, j)))
        for e in dict.fromkeys(edges):
            edge_steps[e] = edge_steps.get(e, 0) + 1
            if edge_steps[e] == 3:
                third[e] = k
            elif edge_steps[e] == 4:
                hit("edge_move_limit", k, f"edge {e} saw a fourth step with a move on it")
        movers = [mv.node for mv in record.moves]
        for i in movers:
            if i in pair_of and not (wed(after, i) and after.p_of(i) in pair_of[i]):
                u, v = pair_of[i]
                hit("marriage_persistence", k, f"married pair ({u}, {v}) separated")
                del pair_of[u], pair_of[v]
        for i in movers:
            if i not in pair_of and wed(after, i):
                j = after.p_of(i)
                pair_of[i] = pair_of[j] = (min(i, j), max(i, j))
    c0 = trace.initial
    for u, v in sorted(third):
        if (c0.p_of(u) == v) == (c0.p_of(v) == u):
            hit("edge_move_limit", third[(u, v)],
                f"edge ({u}, {v}) reached three steps without an initial one-sided pointer")
    measured = {
        "max_updates_per_node": max(updates.values(), default=0),
        "max_steps_per_edge": max(edge_steps.values(), default=0),
        "edges_at_three": len(third),
        "matching_size": sum(wed(configs[-1], i) for i in g.nodes) // 2,
    }
    return measured, first
