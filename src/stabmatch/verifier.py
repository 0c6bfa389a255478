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
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Union

from .graph import Graph
from .protocol import (
    ABANDONMENT,
    DEAD,
    MARRIAGE,
    MARRIED,
    UPDATE,
    Configuration,
    MutableConfiguration,
    RuleSemantics,
    STANDARD,
    classify,
    command_target,
    enabled_nodes,
    enabled_rules,
    marriage_suitors,
)
from .scheduler import (
    Execution,
    Trace,
    TraceFormatError,
    apply_step,
    replay_step,
    round_bound,
    step_bound,
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
    otherwise the first edge that could still be added to the matching,
    found in the nodes' ascending order, each through its sorted adjacency.
    """
    mt = set(tuple(e) for e in mt)
    validate_matching(mt, g)
    matched = {u for e in mt for u in e}
    return next(((u, v) for u, vs in sorted(g.adjacency.items()) if u not in matched
                 for v in vs if v > u and v not in matched), None)


@dataclass
class CheckResult:
    name: str
    verdict: str  # "pass" | "fail" | "skip"
    counterexample_step: Optional[int] = None
    detail: str = ""
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


def audit_trace(trace: Trace, semantics: RuleSemantics = STANDARD) -> AuditReport:
    """Replay a trace and evaluate every bound and invariant on it.

    Raises CorruptTraceError when a recorded step is malformed (the
    TraceFormatError of ``replay_step``) or the records do not reproduce
    the recorded final configuration, stability flag or round annotation.

    Each check's result lives in ``checks`` from before the replay to the
    report: it starts as a pass, or a skip where the check does not apply,
    its first counterexample replaces it (with the step and a detail line),
    and its measured values are written onto it at the end. Within one step
    that is the first in the recorded move order, each edge and pair once,
    and of a configuration's processes with several guards, the smallest
    node. ``export-dot --at-step K`` draws the configuration at step K.

    The replay runs on an Execution evaluating ``enabled_rules``, so each
    process's guards are known and, after each step, only the movers and the
    neighbors whose guards read a changed state are re-evaluated, once each.
    ``replay_step`` writes each recorded step into the Execution's
    configuration, as ``export-dot --at-step`` does into its own. One pass
    over the recorded moves then checks each against its node's held rules,
    counts updates per node, and lists the step's edges (to a mover's new
    pointer, or an abandonment's old one). The audit keeps no matching of its
    own: a mover's marriage before and after the step is read off the
    pointers, the pre-step ones from the Execution's lists, which keep every
    process's state until ``advance``. Once the replay has reproduced the
    final configuration, its matching is extracted once and each process is
    classified there once. When active_component_shrink applies, the active
    set is kept across steps as one byte per position in ``g.nodes``, each
    byte whether ``classify`` finds the process neither married nor dead: at
    each round boundary only the processes whose activity the round can have
    changed are decided again (its movers, the endpoints of pairs that
    married or separated, and their neighbors), and the n bytes are snapshot.
    """
    g = trace.graph
    steps_allowed, rounds_allowed = step_bound(g), round_bound(g)
    round_applicable = trace.policy.split(":", 1)[0] in ROUND_BOUND_POLICIES
    checks = {name: CheckResult(name, "pass") for name in CHECK_NAMES}
    if not round_applicable:
        policies = " and ".join(ROUND_BOUND_POLICIES)
        checks["round_bound"] = CheckResult(
            "round_bound", "skip", detail=f"bound applies to {policies} only")
        checks["active_component_shrink"] = CheckResult(
            "active_component_shrink", "skip", detail=f"checked under {policies} only")

    def hit(name, step, detail):
        """Fail ``name`` at its first counterexample."""
        if checks[name].verdict != "fail":
            checks[name] = CheckResult(
                name, "fail", counterexample_step=step, detail=detail)

    execution = Execution(g, trace.initial, semantics, enabled_rules)
    c = execution.config
    enabled, index, p = execution.enabled, c._index, c.p
    old_p = execution._p  # as of the last advance: a mover's pre-step pointer
    update_counts: dict[int, int] = {}
    edge_step_counts: dict[tuple[int, int], int] = {}
    edge_third_step: dict[tuple[int, int], int] = {}
    if round_applicable:
        active = bytearray(classify(c, g, i) not in (MARRIED, DEAD) for i in g.nodes)
        boundary_actives, boundary_steps = [bytes(active)], [0]
        undecided: set[int] = set()  # processes to decide at the next boundary

    fresh, at = enabled, 0  # the processes whose guards were just evaluated, and when
    for record in (*trace.records, None):
        for i in fresh:
            if len(enabled[i]) > 1:
                i = min(k for k in fresh if len(enabled[k]) > 1)
                hit(
                    "guard_exclusivity", at,
                    f"node {i} has guards {[r.value for r in enabled[i]]} "
                    + (f"after step {at - 1}" if at else "in the initial configuration"),
                )
                break
        if record is None:
            break
        try:
            replay_step(c, g, record.moves, semantics)
        except TraceFormatError as exc:
            raise CorruptTraceError(f"corrupt trace: step {record.index}: {exc}") from exc

        # one pass over the moves, after the write: the movers, their edges, and
        # the endpoints of pairs that separate or wed, read off the pointers
        # before (old_p) and after (p) the step
        moved, step_edges, flipped = [], [], []
        for mv in record.moves:
            i, rule = mv.node, mv.rule
            moved.append(i)
            if rule not in enabled.get(i, ()):
                hit(
                    "moves_enabled", record.index,
                    f"node {i} executed {rule.value} while not enabled",
                )
            j0, j = old_p[k := index[i]], p[k]
            if rule is UPDATE:
                count = update_counts[i] = update_counts.get(i, 0) + 1
                if count == 3:
                    hit(
                        "update_limit", record.index,
                        f"node {i} executed its third update",
                    )
            else:
                other = j0 if rule is ABANDONMENT else j
                step_edges.append((i, other) if i < other else (other, i))
            was = j0 is not None and old_p[index[j0]] == i
            now = j is not None and p[index[j]] == i
            if was and not (now and j == j0):
                hit(
                    "marriage_persistence", record.index,
                    f"married pair {(i, j0) if i < j0 else (j0, i)} separated",
                )
                flipped += i, j0
            if now and not (was and j == j0):
                flipped += i, j
        for e in dict.fromkeys(step_edges):  # an edge counts once a step
            count = edge_step_counts[e] = edge_step_counts.get(e, 0) + 1
            if count == 3:
                edge_third_step[e] = record.index
            elif count == 4:
                hit(
                    "edge_move_limit", record.index,
                    f"edge {e} saw a fourth step with a move on it",
                )
        if round_applicable:
            undecided.update(moved, flipped, *(g.adjacency[u] for u in flipped))

        if record.round_index != execution.round:
            raise CorruptTraceError(
                f"corrupt trace: step {record.index} recorded round "
                f"{record.round_index}, recomputed {execution.round}"
            )
        fresh, _, closed = execution.advance(moved)
        at = record.index + 1
        if closed and round_applicable:
            for i in undecided:
                active[index[i]] = classify(c, g, i) not in (MARRIED, DEAD)
            undecided.clear()
            boundary_actives.append(bytes(active))
            boundary_steps.append(at)

    final = trace.final  # equal to the replayed configuration past this check
    if c.p != list(final.p) or c.m != list(final.m):
        raise CorruptTraceError(
            "corrupt trace: replayed final configuration does not match the record"
        )
    stabilized = not execution.enabled
    if stabilized != trace.stable:
        raise CorruptTraceError(
            "corrupt trace: recorded stability flag does not match the replay"
        )

    # Sharper reading of the three-step edge limit: an edge may only reach
    # three steps when exactly one endpoint pointed at the other initially.
    # That endpoint's single pointer names one partner, so no two such edges
    # share it, and at most n edges reach three steps.
    for u, v in sorted(edge_third_step):
        if (trace.initial.p_of(u) == v) == (trace.initial.p_of(v) == u):
            hit(
                "edge_move_limit", edge_third_step[(u, v)],
                f"edge ({u}, {v}) reached three steps without an initial "
                "one-sided pointer",
            )

    if trace.steps > steps_allowed:
        hit(
            "step_bound", steps_allowed,
            f"trace used {trace.steps} steps, bound is {steps_allowed}",
        )
    if round_applicable and trace.rounds > rounds_allowed:
        hit(
            "round_bound", None,
            f"trace used {trace.rounds} rounds, bound is {rounds_allowed}",
        )

    matching = extract_matching(final, g)
    if not stabilized:
        hit(
            "stable_is_maximal", trace.steps,
            "execution did not reach a stable configuration before the step cap",
        )
        checks["m_flag_consistency"] = CheckResult(
            "m_flag_consistency", "skip",
            detail="only evaluated on stable final configurations")
    else:
        witness = check_maximal(matching, g)
        if witness is not None:
            hit(
                "stable_is_maximal", trace.steps,
                f"stable configuration is not maximal, edge {witness} is addable",
            )
        for i, mi in zip(g.nodes, final.m):
            cls = classify(final, g, i)
            if cls is not MARRIED and cls is not DEAD:
                hit(
                    "stable_is_maximal", trace.steps,
                    f"node {i} classifies {cls.value} in a stable configuration",
                )
            if mi != (cls is MARRIED):  # MARRIED is exactly pr_married
                hit(
                    "m_flag_consistency", trace.steps,
                    f"node {i} has m={mi} but marriage status {cls is MARRIED}",
                )

    shrink = {"windows_ge2": 0, "windows_gt2": 0, "violations_ge2": 0, "violations_gt2": 0}
    if round_applicable:
        last = len(boundary_actives) - 1
        for b, mask in enumerate(boundary_actives):
            for comp in g.components(mask):
                if len(comp) < 2:
                    continue
                target = b + 4
                if target > last:
                    if not stabilized:
                        continue  # window cut off by the step cap
                    target = last
                still = sum(map(boundary_actives[target].__getitem__, comp))
                shrink["windows_ge2"] += 1
                violated = still > len(comp) - 2
                if len(comp) > 2:
                    shrink["windows_gt2"] += 1
                    if violated:
                        shrink["violations_gt2"] += 1
                if violated:
                    shrink["violations_ge2"] += 1
                    hit(
                        "active_component_shrink", boundary_steps[b],
                        f"component of {len(comp)} active processes at round "
                        f"boundary {b} kept {still} active members four rounds on",
                    )

    for name, measured in (
        ("update_limit", {"max_updates_per_node": max(update_counts.values(), default=0)}),
        ("edge_move_limit", {"max_steps_per_edge": max(edge_step_counts.values(), default=0),
                             "edges_at_three": len(edge_third_step)}),
        ("step_bound", {"steps": trace.steps, "bound": steps_allowed}),
        ("round_bound", {"rounds": trace.rounds, "bound": rounds_allowed}),
        ("stable_is_maximal", {"matching_size": len(matching)}),
        ("active_component_shrink", shrink),
    ):
        checks[name].measured.update(measured)

    return AuditReport(
        policy=trace.policy,
        n=g.n,
        m=g.m,
        steps=trace.steps,
        moves=trace.moves,
        rounds=trace.rounds,
        step_bound=steps_allowed,
        round_bound=rounds_allowed,
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
    memo_size: int

    @property
    def ok(self) -> bool:
        return (self.complete and not self.livelock and self.worst_steps <= self.bound
                and self.all_leaves_maximal)

    def to_text(self) -> str:
        lines = [
            f"search: {'ok' if self.ok else 'violation' if self.complete else 'incomplete'}",
            f"worst_steps: {self.worst_steps}",
            f"bound: {self.bound}",
            f"explored_states: {self.explored}",
            f"initial_configurations: {count_text(self.initial_count)}",
            f"branch_marriage: {'true' if self.branch_marriage else 'false'}",
            f"complete: {'true' if self.complete else 'false'}",
            f"livelock: {'true' if self.livelock else 'false'}",
            f"all_leaves_maximal: {'true' if self.all_leaves_maximal else 'false'}",
        ]
        return "\n".join(lines) + "\n"


def configuration_count(g: Graph) -> int:
    """How many well-formed configurations g has: 2(deg + 1) per process."""
    return math.prod(2 * (len(g.adjacency[i]) + 1) for i in g.nodes)


def count_text(count: int) -> str:
    """A count exactly up to 600 digits, under any integer-string digit
    limit an interpreter may set; beyond that ``about 10^N``."""
    return str(count) if count < 10 ** 600 else f"about 10^{round(math.log10(count))}"


class _StateCodec:
    """A graph's configurations as ints. Node i's field holds the slot of
    its pointer in its sorted adjacency (0 for null) times 2, plus its m
    flag; the fields sit side by side, last node lowest. ``reads[k]`` maps
    node k's field value to the mask of the fields its guard and command
    read: its own and its pointee's, its own alone for (null, m set), its
    closed neighborhood for (null, m clear)."""

    def __init__(self, g: Graph):
        self.nodes = g.nodes
        self.decoders = []  # per node: (shift, field mask, value -> (p, m))
        self.field = {}  # node -> its field's bits in place
        self.bits = {}  # node -> {(p, m): its bits in place}
        shift = 0
        for i in reversed(g.nodes):
            table = tuple((p, m) for p in (None,) + g.adjacency[i] for m in (False, True))
            width = (len(table) - 1).bit_length()
            self.decoders.insert(0, (shift, (1 << width) - 1, table))
            self.field[i] = ((1 << width) - 1) << shift
            self.bits[i] = {pm: v << shift for v, pm in enumerate(table)}
            shift += width
        self.full = (1 << shift) - 1  # every field: a read set that keys the whole state
        field, self.reads = self.field, []
        for i, (_, _, table) in zip(g.nodes, self.decoders):
            nbrs = sum(field[j] for j in g.adjacency[i])
            self.reads.append(tuple(field[i] | field.get(p, 0 if m else nbrs) for p, m in table))

    def caches(self) -> list[tuple]:
        """Per node in key order: its key, its field's shift and mask, its
        ``reads``, and an empty dict of its results by what it reads."""
        return sorted((i, shift, mask, reads, {})
                      for i, (shift, mask, _), reads in zip(self.nodes, self.decoders, self.reads))

    def encode(self, c: Configuration) -> int:
        try:
            return sum(self.bits[i][p, m] for i, p, m in zip(c.nodes, c.p, c.m))
        except KeyError:
            raise ValueError("a pointer is neither null nor a neighbor") from None

    def decode_into(self, state: int, c: MutableConfiguration) -> None:
        p, m = c.p, c.m
        for k, (shift, mask, table) in enumerate(self.decoders):
            p[k], m[k] = table[state >> shift & mask]

    def decode(self, state: int) -> Configuration:
        return Configuration(self.nodes, *zip(*(
            table[state >> shift & mask] for shift, mask, table in self.decoders)))

    def every_state(self) -> Iterator[int]:
        """Every well-formed configuration, one at a time and ascending:
        the first node's varies slowest, each from (null, false) up its
        adjacency."""
        return map(sum, itertools.product(*(
            [v << shift for v in range(len(table))] for shift, _, table in self.decoders)))


def _node_entry(c, g, semantics, branch_marriage, codec, i, state):
    """Node i's entry in ``state``, decoded into ``c``: its command's writes
    as XOR deltas on its field, one per suitor when marriages branch, and
    none when it is disabled."""
    rule = enabled_nodes(c, g, semantics, (i,)).get(i)
    if rule is None:
        return []
    choices = marriage_suitors(c, g, i) if branch_marriage and rule is MARRIAGE else (None,)
    bits, old = codec.bits[i], state & codec.field[i]
    return [old ^ bits[command_target(c, g, i, rule, semantics, marriage_choice=j)]
            for j in choices]


def _successors(c, g, semantics, branch_marriage, codec, caches, state):
    """Every state a distributed daemon can reach from ``state`` in one
    step: subsets in mask order over the enabled processes in key order,
    each subset's suitor choices in product order. A successor is
    ``state`` XOR each of its members' deltas. Their fields are disjoint,
    and each delta is nonzero and its suitor's own, so one state's
    successors are pairwise distinct, and the fields in which a successor
    differs from ``state`` are exactly its subset's.

    One pass over the nodes looks each up in its cache (``codec.caches()``),
    keyed by the fields it reads, which fix its entry (``_node_entry``). The
    first miss decodes ``state`` into the MutableConfiguration ``c``, and
    only missed nodes' guards (``enabled_nodes``) and commands
    (``command_target``, for a branched marriage once per suitor of
    ``marriage_suitors``) are evaluated."""
    succs = [state]  # per subset so far, in mask order: each choice's successor
    decoded = False
    full = codec.full
    for i, shift, mask, reads, cache in caches:
        read = reads[state >> shift & mask]
        deltas = cache.get(key := state & read)
        if deltas is None:
            if not decoded:
                codec.decode_into(state, c)
                decoded = True
            deltas = _node_entry(c, g, semantics, branch_marriage, codec, i, state)
            if read != full:  # keyed by the whole state, which is expanded once
                cache[key] = deltas
        if deltas:
            succs += [s ^ delta for s in succs for delta in deltas]
    return succs[1:]


class _Budget(Exception):
    pass


class _Livelock(Exception):
    """args: the states on the stack, the start first, then the repeated one."""


def exhaustive_search(
    g: Graph,
    initial: Union[Configuration, str],
    branch_marriage: bool = False,
    budget: int = 200_000,
    semantics: RuleSemantics = STANDARD,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SearchResult:
    """Explore every daemon choice (every nonempty subset of the enabled
    processes, and every suitor choice when branch_marriage) to find the
    longest schedule to stability.

    ``initial`` is a configuration, or the string "all" for every
    well-formed configuration, drawn one at a time. The memo is shared
    across initial states, so this mode costs one sweep of the reachable
    state space. A repeated configuration on the current schedule proves a
    livelock and aborts the search with its witness. ``progress``, if
    given, is called with the explored-state count and the memo size after
    every 4 096 explored states.

    A state is one int (``_StateCodec``). When first reached, its
    successors come from each node's guard and command result, cached per
    search under the fields the node reads; a miss decodes the state into
    one reused MutableConfiguration and evaluates the missed nodes there
    (``_successors``). The memo maps a state to its worst step count alone.
    A stack frame iterates, through ``filterfalse``, only the successors
    not yet memoized, and closes with the maximum of its successors' counts
    plus one. The worst schedule takes at each state the first successor
    whose count is one less, the first branch that reaches the maximum.
    One search-wide flag records whether every memoized stable leaf is
    maximal: under "all" every memoized state is a start, and from one
    start every memoized state is reachable.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    codec = _StateCodec(g)
    if initial == "all":
        initials = codec.every_state()
        initial_count = configuration_count(g)
    else:
        initials, initial_count = [codec.encode(initial)], 1

    memo: dict[int, int] = {}
    explored = 0
    leaves_maximal = True
    decoded = MutableConfiguration(Configuration.all_null(g))
    caches = codec.caches()
    fields = sorted(zip(codec.nodes, codec.decoders))  # per node in key order

    def reach(state):
        """Count a new state: its successors, or none once memoized as stable."""
        nonlocal explored, leaves_maximal
        explored += 1
        if explored > budget:
            raise _Budget()
        if progress is not None and not explored % 4096:
            progress(explored, len(memo))
        succs = _successors(decoded, g, semantics, branch_marriage, codec, caches, state)
        if not succs:
            codec.decode_into(state, decoded)
            if check_maximal(extract_matching(decoded, g), g) is not None:
                leaves_maximal = False
            memo[state] = 0
        return succs

    def replay(c, path):
        """The steps along ``path``, searched states from c's. The k-th fires
        the nodes whose fields differ between path[k] and path[k + 1], in key
        order and each with its new pointer as its marriage choice, through
        apply_step on a frozen configuration, checked to reach path[k + 1]."""
        steps = []
        for k, (state, succ) in enumerate(zip(path, path[1:])):
            moved = {i: table[succ >> shift & mask][0] for i, (shift, mask, table) in fields
                     if (state ^ succ) >> shift & mask}
            c, moves = apply_step(c, g, moved, semantics, marriage_choices=moved)
            if codec.encode(c) != succ:
                raise RuntimeError(f"witness step {k}: apply_step misses the searched successor")
            steps.append(WitnessStep(tuple(moved), tuple(
                (mv.node, mv.target) for mv in moves if mv.rule is MARRIAGE and branch_marriage)))
        return tuple(steps)

    def expand(s0: int) -> None:
        if s0 in memo or not (succs := reach(s0)):
            return
        memoized = memo.__contains__
        stack = [(s0, succs, itertools.filterfalse(memoized, succs))]
        onstack = {s0}
        while stack:
            state, succs, pending = stack[-1]
            # a state on the stack is never in the memo; a pushed successor
            # is memoized by the time its parent's iteration resumes
            for succ in pending:
                if succ in onstack:
                    raise _Livelock([frame[0] for frame in stack] + [succ])
                if child := reach(succ):
                    onstack.add(succ)
                    stack.append((succ, child, itertools.filterfalse(memoized, child)))
                    break
            else:
                memo[state] = max(map(memo.__getitem__, succs)) + 1
                stack.pop()
                onstack.discard(state)

    complete = True
    livelock_initial, livelock_steps, cycle_at = None, (), 0
    try:
        for s0 in initials:
            expand(s0)
    except _Budget:
        complete = False
    except _Livelock as exc:
        (path,) = exc.args
        cycle_at = path.index(path[-1])
        livelock_initial = codec.decode(path[0])
        livelock_steps = replay(livelock_initial, path)

    # the explored starts (under "all", every memoized state) and the first
    # worst: states ascend in every_state's order
    done = memo if initial == "all" else {s0: memo[s0] for s0 in initials if s0 in memo}
    worst_steps = max(done.values(), default=0)
    worst = min((s0 for s0, steps in done.items() if steps == worst_steps), default=None)
    walk = [worst]  # to the first successor whose count is one less
    for steps in reversed(range(worst_steps)):
        succs = _successors(decoded, g, semantics, branch_marriage, codec, caches, walk[-1])
        walk.append(next(s for s in succs if memo[s] == steps))
    witness_initial = None if worst is None else codec.decode(worst)
    return SearchResult(
        worst_steps=worst_steps,
        witness_initial=witness_initial,
        witness=replay(witness_initial, walk),
        explored=explored,
        branch_marriage=branch_marriage,
        complete=complete,
        livelock=livelock_initial is not None,
        livelock_initial=livelock_initial,
        livelock_prefix=livelock_steps[:cycle_at],
        livelock_cycle=livelock_steps[cycle_at:],
        # a single start cut off by the budget is vacuously true
        all_leaves_maximal=livelock_initial is None and (leaves_maximal or not done),
        bound=step_bound(g),
        initial_count=initial_count,
        memo_size=len(memo),
    )


def witness_trace(
    g: Graph,
    c0: Configuration,
    steps: Iterable[WitnessStep],
    semantics: RuleSemantics = STANDARD,
) -> Trace:
    """Materialize a search's schedule as a replayable ``search-witness`` trace."""
    return trace_from_schedule(
        g, c0,
        [(ws.chosen, dict(ws.marriage_choices)) for ws in steps],
        policy_desc="search-witness",
        semantics=semantics,
    )
