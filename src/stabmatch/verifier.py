"""Trace audits, the maximal-matching oracle, and exhaustive schedule search.

Every convergence claim the protocol makes is machine-checked here against
concrete traces: the step bound 3n + 2m, the round bound 2n + 1 under fair
scheduling, marriage persistence, the two-update limit per process, the
three-step limit per edge, guard mutual exclusion, and the terminal
configuration being a maximal matching. The maximality check is a brute
force edge scan on purpose: it must stay independent of the protocol's own
predicates so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .graph import Graph
from .protocol import (
    Configuration,
    PredicateClass,
    Rule,
    RuleSemantics,
    STANDARD,
    classify,
    enabled_nodes,
    enabled_rule,
    enabled_rules,
    marriage_suitors,
    pr_married,
)
from .scheduler import (
    Rounds,
    Trace,
    TraceFormatError,
    apply_realized,
    apply_step,
    realize_moves,
    trace_from_schedule,
)

CHECK_NAMES = (
    "moves_enabled",
    "guard_exclusivity",
    "marriage_persistence",
    "update_limit",
    "edge_move_limit",
    "step_bound",
    "round_bound",
    "stable_is_maximal",
    "m_flag_consistency",
    "active_component_shrink",
)

ROUND_BOUND_POLICIES = ("synchronous", "distributed_fair")


class CorruptTraceError(ValueError):
    """Raised when a trace's records do not reproduce its recorded outcome."""


def is_stable(c: Configuration, g: Graph, semantics: RuleSemantics = STANDARD) -> bool:
    """True iff no process has an enabled rule."""
    return all(enabled_rule(c, g, i, semantics) is None for i in g.nodes)


def extract_matching(c: Configuration, g: Graph) -> frozenset[tuple[int, int]]:
    """The mutually pointing adjacent pairs, as (u, v) edges with u < v."""
    out = set()
    for i in g.nodes:
        j = c.p_of(i)
        if j is not None and i < j and c.p_of(j) == i:
            out.add((i, j))
    return frozenset(out)


def validate_matching(mt: Iterable[tuple[int, int]], g: Graph) -> None:
    seen: set[int] = set()
    for u, v in mt:
        if not g.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        if u in seen or v in seen:
            raise ValueError(f"matching edges share endpoint at ({u}, {v})")
        seen.add(u)
        seen.add(v)


def check_maximal(
    mt: Iterable[tuple[int, int]], g: Graph
) -> Optional[tuple[int, int]]:
    """Brute-force maximality scan, independent of the protocol predicates.

    Returns None when every edge of the graph has a matched endpoint,
    otherwise the first edge that could still be added to the matching.
    """
    mt = set(tuple(e) for e in mt)
    validate_matching(mt, g)
    matched = {u for e in mt for u in e}
    for u, v in g.edges():
        if u not in matched and v not in matched:
            return (u, v)
    return None


def _active_set(
    c: Configuration, g: Graph, married_pairs: Iterable[tuple[int, int]]
) -> frozenset[int]:
    """Processes that are neither married nor dead, given c's married pairs."""
    married = {u for e in married_pairs for u in e}
    active = set()
    for i, p in zip(c.nodes, c.p):
        if i in married:
            continue
        if p is None and all(j in married for j in g.adjacency[i]):
            continue
        active.add(i)
    return frozenset(active)


def _components(nodes: frozenset[int], g: Graph) -> list[frozenset[int]]:
    """Maximal connected components of the induced subgraph on ``nodes``."""
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


@dataclass
class CheckResult:
    name: str
    verdict: str  # "pass" | "fail" | "skip"
    counterexample_step: Optional[int] = None
    detail: str = ""
    snapshot: Optional[str] = None
    measured: dict = field(default_factory=dict)

    def line(self) -> str:
        parts = [f"{self.name}: {self.verdict}"]
        items = [f"{k}={v}" for k, v in sorted(self.measured.items())]
        if self.counterexample_step is not None:
            items.append(f"counterexample_step={self.counterexample_step}")
        if self.detail:
            items.append(self.detail)
        if items:
            parts.append("; ".join(items))
        return ": ".join(parts)


@dataclass
class AuditReport:
    policy: str
    n: int
    m: int
    steps: int
    moves: int
    rounds: int
    step_bound: int
    round_bound: int
    stabilized: bool
    connected: bool
    checks: dict[str, CheckResult]

    @property
    def all_pass(self) -> bool:
        return all(c.verdict != "fail" for c in self.checks.values())

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks.values() if c.verdict == "fail"]

    def to_text(self) -> str:
        lines = [
            f"audit: {'pass' if self.all_pass else 'fail'}",
            f"policy: {self.policy}",
            f"counters: n={self.n}; m={self.m}; steps={self.steps}; "
            f"moves={self.moves}; rounds={self.rounds}",
            f"bounds: steps<={self.step_bound}; rounds<={self.round_bound}",
            f"stabilized: {'true' if self.stabilized else 'false'}",
        ]
        if not self.connected:
            # bounds are audited on the instance as given; disconnected
            # inputs are flagged rather than rejected
            lines.append("graph: disconnected")
        lines.extend(self.checks[name].line() for name in CHECK_NAMES)
        return "\n".join(lines) + "\n"


class _Failures:
    """First-counterexample bookkeeping for the audit checks."""

    def __init__(self):
        self.found: dict[str, CheckResult] = {}

    def hit(self, name, step, detail, snapshot=None):
        if name not in self.found:
            self.found[name] = CheckResult(
                name, "fail", counterexample_step=step, detail=detail,
                snapshot=snapshot,
            )


def audit_trace(trace: Trace, semantics: RuleSemantics = STANDARD) -> AuditReport:
    """Replay a trace and evaluate every bound and invariant on it.

    Raises CorruptTraceError when the records do not reproduce the recorded
    final configuration, stability flag or round annotation. Check verdicts
    carry the first counterexample step and a configuration snapshot.

    Per step, the replay re-evaluates only the dirty processes (the movers
    and their neighbors) and updates from them the enabled set, each
    process's guards and the round accounting; married pairs are indexed by
    node, so only the movers' pairs are checked for separation. The active
    set is computed at round boundaries only when the policy makes
    active_component_shrink applicable.
    """
    g = trace.graph
    n, m = g.n, g.m
    step_bound = 3 * n + 2 * m
    round_bound = 2 * n + 1
    fails = _Failures()

    c = trace.initial
    rules_of = {i: enabled_rules(c, g, i, semantics) for i in g.nodes}
    for i in g.nodes:
        if len(rules_of[i]) > 1:
            fails.hit(
                "guard_exclusivity", 0,
                f"node {i} has guards {[r.value for r in rules_of[i]]} "
                "in the initial configuration",
                snapshot=c.to_text(),
            )
    enabled = {i for i, r in rules_of.items() if r}
    round_state = Rounds(enabled)
    policy_kind = trace.policy.split(":", 1)[0]
    round_applicable = policy_kind in ROUND_BOUND_POLICIES
    # the married pairs, and each married process's pair
    married = set(extract_matching(c, g))
    pair_of = {u: pair for pair in married for u in pair}
    update_counts: Counter = Counter()
    edge_step_counts: Counter = Counter()
    edge_third_step: dict[tuple[int, int], int] = {}
    boundary_actives = [_active_set(c, g, married)] if round_applicable else []
    boundary_steps = [0]
    total_moves = 0

    for record in trace.records:
        if not record.moves:
            raise CorruptTraceError(
                f"corrupt trace: step {record.index} has no moves"
            )
        seen_nodes = set()
        for mv in record.moves:
            if mv.node not in g.adjacency:
                raise CorruptTraceError(
                    f"corrupt trace: step {record.index} moves unknown node {mv.node}"
                )
            if mv.node in seen_nodes:
                raise CorruptTraceError(
                    f"corrupt trace: step {record.index} moves node {mv.node} twice"
                )
            seen_nodes.add(mv.node)
        try:
            realized = realize_moves(c, g, record.moves, semantics)
        except TraceFormatError as exc:
            raise CorruptTraceError(
                f"corrupt trace: step {record.index}: {exc}"
            ) from exc
        for mv in realized:
            if mv.rule not in rules_of[mv.node]:
                fails.hit(
                    "moves_enabled", record.index,
                    f"node {mv.node} executed {mv.rule.value} while not enabled",
                    snapshot=c.to_text(),
                )
        total_moves += len(realized)

        c2 = apply_realized(c, g, realized)
        moved = {mv.node for mv in realized}

        touched = {pair_of[i] for i in moved if i in pair_of}
        separated = [
            (u, v) for u, v in touched if not (c2.p_of(u) == v and c2.p_of(v) == u)
        ]
        if len(separated) > 1:
            # report them in the married set's order, as a scan of it would
            broken = set(separated)
            separated = [pair for pair in married if pair in broken]
        for u, v in separated:
            fails.hit(
                "marriage_persistence", record.index,
                f"married pair ({u}, {v}) separated",
                snapshot=c.to_text(),
            )
            married.discard((u, v))
            del pair_of[u], pair_of[v]
        for i in moved:
            j = c2.p_of(i)
            if j is not None and c2.p_of(j) == i:
                pair = (min(i, j), max(i, j))
                married.add(pair)
                pair_of[i] = pair_of[j] = pair

        step_edges = set()
        for mv in realized:
            if mv.rule is Rule.UPDATE:
                update_counts[mv.node] += 1
                if update_counts[mv.node] == 3:
                    fails.hit(
                        "update_limit", record.index,
                        f"node {mv.node} executed its third update",
                        snapshot=c.to_text(),
                    )
            else:
                step_edges.add((min(mv.node, mv.target), max(mv.node, mv.target)))
        for e in step_edges:
            edge_step_counts[e] += 1
            if edge_step_counts[e] == 3:
                edge_third_step[e] = record.index
            elif edge_step_counts[e] == 4:
                fails.hit(
                    "edge_move_limit", record.index,
                    f"edge {e} saw a fourth step with a move on it",
                    snapshot=c.to_text(),
                )

        dirty = set(moved)
        for i in moved:
            dirty.update(g.adjacency[i])
        disabled = []
        for i in dirty:
            rules = enabled_rules(c2, g, i, semantics)
            rules_of[i] = rules
            if len(rules) > 1:
                fails.hit(
                    "guard_exclusivity", record.index + 1,
                    f"node {i} has guards {[r.value for r in rules]} "
                    f"after step {record.index}",
                    snapshot=c2.to_text(),
                )
            if rules:
                enabled.add(i)
            else:
                enabled.discard(i)
                disabled.append(i)

        if record.round_index != round_state.index:
            raise CorruptTraceError(
                f"corrupt trace: step {record.index} recorded round "
                f"{record.round_index}, recomputed {round_state.index}"
            )
        if round_state.close_step(moved, disabled, enabled) and round_applicable:
            boundary_actives.append(_active_set(c2, g, married))
            boundary_steps.append(record.index + 1)
        c = c2

    if c != trace.final:
        raise CorruptTraceError(
            "corrupt trace: replayed final configuration does not match the record"
        )
    stabilized = not enabled
    if stabilized != trace.stable:
        raise CorruptTraceError(
            "corrupt trace: recorded stability flag does not match the replay"
        )
    rounds = trace.records[-1].round_index if trace.records else 0

    checks: dict[str, CheckResult] = {}

    def settle(name, ok_detail="", measured=None, skip=False, skip_detail=""):
        if name in fails.found:
            result = fails.found[name]
        elif skip:
            result = CheckResult(name, "skip", detail=skip_detail)
        else:
            result = CheckResult(name, "pass", detail=ok_detail)
        result.measured.update(measured or {})
        checks[name] = result

    settle("moves_enabled")
    settle("guard_exclusivity")
    settle("marriage_persistence")
    settle(
        "update_limit",
        measured={"max_updates_per_node": max(update_counts.values(), default=0)},
    )

    # Sharper reading of the three-step edge limit: an edge may only reach
    # three steps when exactly one endpoint pointed at the other initially,
    # and a process's single pointer makes it the one-sided source of at
    # most one such edge, capping them at n overall.
    three_edges = sorted(edge_third_step)
    pointer_sources: dict[int, tuple[int, int]] = {}
    for u, v in three_edges:
        u_points = trace.initial.p_of(u) == v
        v_points = trace.initial.p_of(v) == u
        if u_points == v_points:
            fails.hit(
                "edge_move_limit", edge_third_step[(u, v)],
                f"edge ({u}, {v}) reached three steps without an initial "
                "one-sided pointer",
                snapshot=trace.initial.to_text(),
            )
            continue
        source = u if u_points else v
        if source in pointer_sources:
            fails.hit(
                "edge_move_limit", edge_third_step[(u, v)],
                f"node {source} is the initial pointer of two edges that "
                f"reached three steps, {pointer_sources[source]} and ({u}, {v})",
            )
        pointer_sources[source] = (u, v)
    if len(three_edges) > n:
        fails.hit(
            "edge_move_limit", max(edge_third_step.values()),
            f"{len(three_edges)} edges reached three steps, above n={n}",
        )
    settle(
        "edge_move_limit",
        measured={
            "max_steps_per_edge": max(edge_step_counts.values(), default=0),
            "edges_at_three": len(three_edges),
        },
    )

    if trace.steps > step_bound:
        fails.hit(
            "step_bound", step_bound,
            f"trace used {trace.steps} steps, bound is {step_bound}",
        )
    settle("step_bound", measured={"steps": trace.steps, "bound": step_bound})

    if round_applicable and rounds > round_bound:
        fails.hit(
            "round_bound", None,
            f"trace used {rounds} rounds, bound is {round_bound}",
        )
    settle(
        "round_bound",
        measured={"rounds": rounds, "bound": round_bound},
        skip=not round_applicable,
        skip_detail=f"bound applies to {' and '.join(ROUND_BOUND_POLICIES)} only",
    )

    matching = extract_matching(c, g)
    if not stabilized:
        fails.hit(
            "stable_is_maximal", trace.steps,
            "execution did not reach a stable configuration before the step cap",
            snapshot=c.to_text(),
        )
    else:
        witness = check_maximal(matching, g)
        if witness is not None:
            fails.hit(
                "stable_is_maximal", trace.steps,
                f"stable configuration is not maximal, edge {witness} is addable",
                snapshot=c.to_text(),
            )
        for i in g.nodes:
            cls = classify(c, g, i)
            if cls not in (PredicateClass.MARRIED, PredicateClass.DEAD):
                fails.hit(
                    "stable_is_maximal", trace.steps,
                    f"node {i} classifies {cls.value} in a stable configuration",
                    snapshot=c.to_text(),
                )
    settle("stable_is_maximal", measured={"matching_size": len(matching)})

    if stabilized:
        for i in g.nodes:
            if c.m_of(i) != pr_married(c, g, i):
                fails.hit(
                    "m_flag_consistency", trace.steps,
                    f"node {i} has m={c.m_of(i)} but marriage status "
                    f"{pr_married(c, g, i)}",
                    snapshot=c.to_text(),
                )
    settle(
        "m_flag_consistency",
        skip=not stabilized,
        skip_detail="only evaluated on stable final configurations",
    )

    shrink_measured = {"windows_ge2": 0, "windows_gt2": 0,
                       "violations_ge2": 0, "violations_gt2": 0}
    if round_applicable:
        last = len(boundary_actives) - 1
        for b, active in enumerate(boundary_actives):
            for comp in _components(active, g):
                if len(comp) < 2:
                    continue
                target = b + 4
                if target > last:
                    if not stabilized:
                        continue  # window cut off by the step cap
                    target = last
                still = len(comp & boundary_actives[target])
                shrink_measured["windows_ge2"] += 1
                violated = still > len(comp) - 2
                if len(comp) > 2:
                    shrink_measured["windows_gt2"] += 1
                    if violated:
                        shrink_measured["violations_gt2"] += 1
                if violated:
                    shrink_measured["violations_ge2"] += 1
                    fails.hit(
                        "active_component_shrink", boundary_steps[b],
                        f"component of {len(comp)} active processes at round "
                        f"boundary {b} kept {still} active members four rounds on",
                    )
    settle(
        "active_component_shrink",
        measured=shrink_measured,
        skip=not round_applicable,
        skip_detail=f"checked under {' and '.join(ROUND_BOUND_POLICIES)} only",
    )

    return AuditReport(
        policy=trace.policy,
        n=n,
        m=m,
        steps=trace.steps,
        moves=total_moves,
        rounds=rounds,
        step_bound=step_bound,
        round_bound=round_bound,
        stabilized=stabilized,
        connected=g.is_connected(),
        checks=checks,
    )


@dataclass(frozen=True)
class WitnessStep:
    chosen: tuple[int, ...]
    marriage_choices: tuple[tuple[int, int], ...] = ()


@dataclass
class SearchResult:
    """Outcome of exploring every daemon choice from the initial states."""

    worst_steps: int
    witness_initial: Optional[Configuration]
    witness: tuple[WitnessStep, ...]
    explored: int
    branch_marriage: bool
    complete: bool
    livelock: bool
    livelock_initial: Optional[Configuration]
    livelock_prefix: tuple[WitnessStep, ...]
    livelock_cycle: tuple[WitnessStep, ...]
    all_leaves_maximal: bool
    bound: int
    initial_count: int

    @property
    def bound_ok(self) -> bool:
        return not self.livelock and self.worst_steps <= self.bound

    @property
    def ok(self) -> bool:
        return (
            self.complete
            and not self.livelock
            and self.bound_ok
            and self.all_leaves_maximal
        )

    def to_text(self) -> str:
        lines = [
            f"search: {'ok' if self.ok else 'violation' if self.complete else 'incomplete'}",
            f"worst_steps: {self.worst_steps}",
            f"bound: {self.bound}",
            f"explored_states: {self.explored}",
            f"initial_configurations: {self.initial_count}",
            f"branch_marriage: {'true' if self.branch_marriage else 'false'}",
            f"complete: {'true' if self.complete else 'false'}",
            f"livelock: {'true' if self.livelock else 'false'}",
            f"all_leaves_maximal: {'true' if self.all_leaves_maximal else 'false'}",
        ]
        return "\n".join(lines) + "\n"


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


def _branches(c, g, semantics, branch_marriage):
    """All (subset, marriage choice) pairs a distributed daemon could fire."""
    enabled = enabled_nodes(c, g, semantics)
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
    """One depth-first frame: a configuration and its pending branches."""

    __slots__ = ("config", "branches", "entering", "best", "best_branch",
                 "leaves_ok", "expanded")

    def __init__(self, config, branches, entering):
        self.config = config
        self.branches = branches
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


def exhaustive_search(
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

    bound = 3 * g.n + 2 * g.m
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
        stack = [_Frame(c0, _branches(c0, g, semantics, branch_marriage), None)]
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
                frame.config, g, subset, semantics, marriage_choices=choices
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
            stack.append(
                _Frame(succ, _branches(succ, g, semantics, branch_marriage), branch)
            )

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


def witness_trace(
    g: Graph,
    c0: Configuration,
    steps: Iterable[WitnessStep],
    semantics: RuleSemantics = STANDARD,
    policy_desc: str = "scripted",
) -> Trace:
    """Materialize a schedule as a replayable trace with round annotations."""
    return trace_from_schedule(
        g, c0,
        [(ws.chosen, dict(ws.marriage_choices)) for ws in steps],
        policy_desc=policy_desc,
        semantics=semantics,
    )
