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
from typing import Callable, Container, Iterable, Iterator, Optional, Union

from .graph import Graph
from .protocol import (
    ABANDONMENT,
    MARRIAGE,
    UPDATE,
    Configuration,
    MutableConfiguration,
    PredicateClass,
    RuleSemantics,
    STANDARD,
    classify,
    command_target,
    enabled_nodes,
    enabled_rules,
    marriage_suitors,
    pr_married,
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


def _active_set(
    c: Configuration, g: Graph, married: Container[int], nodes: Iterable[int]
) -> set[int]:
    """Those of ``nodes`` that are neither married nor dead, given c's
    married nodes."""
    index, p, adjacency = c._index, c.p, g.adjacency
    return {i for i in nodes if i not in married and (
        p[index[i]] is not None or not all(j in married for j in adjacency[i]))}


def _components(nodes: frozenset[int], g: Graph) -> list[frozenset[int]]:
    """Maximal connected components of the induced subgraph on ``nodes``,
    in the order of their smallest members."""
    left = set(nodes)  # those not yet placed in a component
    comps = []
    for start in sorted(nodes):
        if start in left:
            left.remove(start)
            comp = [start]
            for u in comp:
                for v in g.adjacency[u]:
                    if v in left:
                        left.remove(v)
                        comp.append(v)
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


def audit_trace(trace: Trace, semantics: RuleSemantics = STANDARD) -> AuditReport:
    """Replay a trace and evaluate every bound and invariant on it.

    Raises CorruptTraceError when a recorded step is malformed (the
    TraceFormatError of ``replay_step``) or the records do not reproduce
    the recorded final configuration, stability flag or round annotation.

    Each check's result lives in ``checks`` from before the replay to the
    report: it starts as a pass, or a skip where the check does not apply,
    its first counterexample replaces it (with the step and a configuration
    snapshot), and its measured values are written onto it at the end.

    The replay runs on an Execution evaluating ``enabled_rules``, so each
    process's guards are known and, after each step, only the movers and the
    neighbors whose guards read a changed state are re-evaluated, once each.
    ``replay_step`` writes each recorded step into the Execution's
    configuration, as ``export-dot --at-step`` does into its own. One pass
    over the recorded moves then checks each against its node's held rules,
    counts updates per node and collects the step's edges, to a mover's new
    pointer or an abandonment's old one; each edge's step count then rises
    once. A snapshot of the configuration before a step is rebuilt, only for
    a first failure, from the pre-step states the Execution keeps until
    ``advance``.
    Married pairs are indexed by node, so only the movers' pairs are checked
    for separation; once the replay has reproduced the final configuration
    they are its matching. When the policy makes active_component_shrink
    applicable, the active set is kept across steps: at each round boundary
    only the processes whose activity the round can have changed are decided
    again (its movers, the endpoints of pairs that married or separated, and
    their neighbors), and the set is snapshot.
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

    def hit(name, step, detail, snapshot=None):
        """Fail ``name`` at its first counterexample; ``snapshot`` is a
        callable giving the configuration text, called only for that one."""
        if checks[name].verdict != "fail":
            checks[name] = CheckResult(
                name, "fail", counterexample_step=step, detail=detail,
                snapshot=snapshot and snapshot(),
            )

    def pre_step_text():
        """The configuration before the step being checked, as text."""
        return c.freeze().with_writes({i: execution.previous_state(i) for i in moved}).to_text()

    execution = Execution(g, trace.initial, semantics, enabled_rules)
    c = execution.config
    # the married pairs, and each married process's pair
    married = set(extract_matching(trace.initial, g))
    pair_of = {u: pair for pair in married for u in pair}
    update_counts: dict[int, int] = {}
    edge_step_counts: dict[tuple[int, int], int] = {}
    edge_third_step: dict[tuple[int, int], int] = {}
    active = _active_set(trace.initial, g, pair_of, g.nodes) if round_applicable else set()
    boundary_actives = [frozenset(active)]
    boundary_steps = [0]
    undecided: set[int] = set()  # processes to decide at the next boundary

    # the processes whose guards were just evaluated, and when
    fresh, at, when = execution.enabled, 0, "in the initial configuration"
    for record in (*trace.records, None):
        for i in fresh:
            rules = execution.enabled[i]
            if len(rules) > 1:
                hit(
                    "guard_exclusivity", at,
                    f"node {i} has guards {[r.value for r in rules]} {when}",
                    snapshot=c.to_text,
                )
        if record is None:
            break
        try:
            replay_step(c, g, record.moves, semantics)
        except TraceFormatError as exc:
            raise CorruptTraceError(f"corrupt trace: step {record.index}: {exc}") from exc
        moved = {mv.node for mv in record.moves}

        enabled, index, p = execution.enabled, c._index, c.p
        step_edges = set()
        for mv in record.moves:
            i, rule = mv.node, mv.rule
            if rule not in enabled.get(i, ()):
                hit(
                    "moves_enabled", record.index,
                    f"node {i} executed {rule.value} while not enabled",
                    snapshot=pre_step_text,
                )
            if rule is UPDATE:
                count = update_counts[i] = update_counts.get(i, 0) + 1
                if count == 3:
                    hit(
                        "update_limit", record.index,
                        f"node {i} executed its third update",
                        snapshot=pre_step_text,
                    )
            else:
                j = execution.previous_state(i).p if rule is ABANDONMENT else p[index[i]]
                step_edges.add((i, j) if i < j else (j, i))
        for e in step_edges:
            count = edge_step_counts[e] = edge_step_counts.get(e, 0) + 1
            if count == 3:
                edge_third_step[e] = record.index
            elif count == 4:
                hit(
                    "edge_move_limit", record.index,
                    f"edge {e} saw a fourth step with a move on it",
                    snapshot=pre_step_text,
                )

        touched = {pair_of[i] for i in moved if i in pair_of}
        separated = [
            (u, v) for u, v in touched if not (p[index[u]] == v and p[index[v]] == u)
        ]
        if len(separated) > 1:
            # report them in the married set's order, as a scan of it would
            broken = set(separated)
            separated = [pair for pair in married if pair in broken]
        for u, v in separated:
            hit(
                "marriage_persistence", record.index,
                f"married pair ({u}, {v}) separated",
                snapshot=pre_step_text,
            )
            married.discard((u, v))
            del pair_of[u], pair_of[v]
        flipped = [u for pair in separated for u in pair]  # then those that wed
        for i in moved:
            j = p[index[i]]
            if j is not None and p[index[j]] == i and i not in pair_of:
                pair = (i, j) if i < j else (j, i)
                married.add(pair)
                pair_of[i] = pair_of[j] = pair
                flipped += pair
        if round_applicable:
            undecided.update(moved, flipped, *(g.adjacency[u] for u in flipped))

        if record.round_index != execution.round:
            raise CorruptTraceError(
                f"corrupt trace: step {record.index} recorded round "
                f"{record.round_index}, recomputed {execution.round}"
            )
        fresh, _, closed = execution.advance(moved)
        at, when = record.index + 1, f"after step {record.index}"
        if closed and round_applicable:
            active.difference_update(undecided)
            active |= _active_set(c, g, pair_of, undecided)
            undecided.clear()
            boundary_actives.append(frozenset(active))
            boundary_steps.append(record.index + 1)

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
                snapshot=trace.initial.to_text,
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

    if not stabilized:
        hit(
            "stable_is_maximal", trace.steps,
            "execution did not reach a stable configuration before the step cap",
            snapshot=final.to_text,
        )
        checks["m_flag_consistency"] = CheckResult(
            "m_flag_consistency", "skip",
            detail="only evaluated on stable final configurations")
    else:
        witness = check_maximal(married, g)
        if witness is not None:
            hit(
                "stable_is_maximal", trace.steps,
                f"stable configuration is not maximal, edge {witness} is addable",
                snapshot=final.to_text,
            )
        for i in g.nodes:
            cls = classify(final, g, i)
            if cls not in (PredicateClass.MARRIED, PredicateClass.DEAD):
                hit(
                    "stable_is_maximal", trace.steps,
                    f"node {i} classifies {cls.value} in a stable configuration",
                    snapshot=final.to_text,
                )
            if final.m_of(i) != pr_married(final, g, i):
                hit(
                    "m_flag_consistency", trace.steps,
                    f"node {i} has m={final.m_of(i)} but marriage status "
                    f"{pr_married(final, g, i)}",
                    snapshot=final.to_text,
                )

    shrink = {"windows_ge2": 0, "windows_gt2": 0, "violations_ge2": 0, "violations_gt2": 0}
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
        ("stable_is_maximal", {"matching_size": len(married)}),
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
            f"initial_configurations: {self.initial_count}",
            f"branch_marriage: {'true' if self.branch_marriage else 'false'}",
            f"complete: {'true' if self.complete else 'false'}",
            f"livelock: {'true' if self.livelock else 'false'}",
            f"all_leaves_maximal: {'true' if self.all_leaves_maximal else 'false'}",
        ]
        return "\n".join(lines) + "\n"


def configuration_count(g: Graph) -> int:
    """How many well-formed configurations g has: 2(deg + 1) per process."""
    return math.prod(2 * (len(g.adjacency[i]) + 1) for i in g.nodes)


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
        field, self.reads = self.field, []
        for i, (_, _, table) in zip(g.nodes, self.decoders):
            nbrs = sum(field[j] for j in g.adjacency[i])
            self.reads.append(tuple(field[i] | field.get(p, 0 if m else nbrs) for p, m in table))

    def caches(self) -> list[tuple]:
        """Per node: its field's shift and mask, its ``reads``, and an empty
        dict of its results by what it reads."""
        return [(shift, mask, reads, {})
                for (shift, mask, _), reads in zip(self.decoders, self.reads)]

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


def _successors(c, g, semantics, branch_marriage, codec, caches, state, labels=None):
    """Every state a distributed daemon can reach from ``state`` in one
    step: subsets in mask order over the sorted enabled processes, each
    subset's suitor choices in product order. A successor is ``state`` XOR
    each of its members' deltas, their fields being disjoint.

    A node's entry is ``()`` when it is disabled, otherwise ``(i, deltas,
    pairs)``: its command's write as the XOR of its field's old and new
    bits, one per suitor when marriages branch, and the marriage pairs they
    label. The fields the node reads fix the entry and key its cache
    (``codec.caches()``). Only on a miss is ``state`` decoded into the
    MutableConfiguration ``c``, and only the missed nodes' guards
    (``enabled_nodes``) and commands (``command_target``, for a branched
    marriage once per suitor of ``marriage_suitors``) are evaluated.
    ``labels``, if given, receives each branch's WitnessStep."""
    entries = [cache.get(state & reads[state >> shift & mask])
               for shift, mask, reads, cache in caches]
    if None in entries:
        codec.decode_into(state, c)
        nodes = codec.nodes
        missed = [k for k, entry in enumerate(entries) if entry is None]
        rules = enabled_nodes(c, g, semantics, [nodes[k] for k in missed])
        for k in missed:
            i = nodes[k]
            entry = ()
            if (rule := rules.get(i)) is not None:
                choices = (marriage_suitors(c, g, i) if branch_marriage and rule is MARRIAGE
                           else (None,))
                writes = [command_target(c, g, i, rule, semantics, marriage_choice=j)
                          for j in choices]
                bits, old = codec.bits[i], state & codec.field[i]
                entry = (i, [old ^ bits[w.p, w.m] for w in writes],
                         [() if j is None else ((i, j),) for j in choices])
            entries[k] = entry
            shift, mask, reads, cache = caches[k]
            cache[state & reads[state >> shift & mask]] = entry
    succs = [state]  # per subset so far, in mask order: each choice's successor
    steps = [((), ())]  # the same subsets and choices, for labels
    for entry in entries:
        if not entry:
            continue
        i, deltas, pairs = entry
        succs += [s ^ delta for s in succs for delta in deltas]
        if labels is not None:
            steps += [(subset + (i,), chosen + pair) for subset, chosen in steps for pair in pairs]
    if labels is not None:
        labels.extend(WitnessStep(subset, chosen) for subset, chosen in steps[1:])
    return succs[1:]


class _Expansion:
    """A state on the search's stack: its successors, the one being
    explored, and the worst schedule to stability found so far."""

    __slots__ = ("state", "succs", "next", "best", "best_at", "leaves_ok")

    def __init__(self, state: int, succs: list[int]):
        self.state, self.succs = state, succs
        self.next = self.best = 0
        self.best_at = None
        self.leaves_ok = True


class _Budget(Exception):
    pass


class _Livelock(Exception):
    """args: the initial state, the branch taken at each state on the stack
    (then None), and the stack position of the repeated state."""


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
    (``_successors``). The memo maps a state to its worst step count, the
    index of that branch and whether all leaves are maximal.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    codec = _StateCodec(g)
    if initial == "all":
        initials = codec.every_state()
        initial_count = configuration_count(g)
    else:
        initials, initial_count = [codec.encode(initial)], 1

    memo: dict[int, tuple[int, Optional[int], bool]] = {}
    explored = 0
    decoded = MutableConfiguration(Configuration.all_null(g))
    caches = codec.caches()

    def reach(state):
        """Count a new state: its expansion, or None once memoized as stable."""
        nonlocal explored
        explored += 1
        if explored > budget:
            raise _Budget()
        if progress is not None and not explored % 4096:
            progress(explored, len(memo))
        succs = _successors(decoded, g, semantics, branch_marriage, codec, caches, state)
        if succs:
            return _Expansion(state, succs)
        codec.decode_into(state, decoded)
        memo[state] = (0, None, check_maximal(extract_matching(decoded, g), g) is None)
        return None

    def replay(c0, pick):
        """The branches ``pick(state, k)`` names at the k-th state from c0,
        until it names none, each fired by apply_step on a frozen
        configuration, which re-checks it."""
        steps = []
        c, state = c0, codec.encode(c0)
        while (at := pick(state, len(steps))) is not None:
            labels = []
            _successors(decoded, g, semantics, branch_marriage, codec, caches, state, labels)
            ws = labels[at]
            steps.append(ws)
            c, _ = apply_step(c, g, ws.chosen, semantics, marriage_choices=dict(ws.marriage_choices))
            state = codec.encode(c)
        return tuple(steps)

    def expand(s0: int) -> None:
        if s0 in memo or (frame := reach(s0)) is None:
            return
        stack = [frame]
        onstack = {s0}
        memo_get = memo.get
        while True:
            succs = frame.succs
            at, best, best_at, leaves_ok = frame.next, frame.best, frame.best_at, frame.leaves_ok
            # a branch is folded once its successor is in the memo: the
            # branch to a pushed state is revisited when that state closes.
            # A state on the stack is never in the memo.
            for at, succ in enumerate(succs[at:], at):
                entry = memo_get(succ)
                if entry is None:
                    if succ in onstack:
                        frame.next = at
                        k = next(k for k, f in enumerate(stack) if f.state == succ)
                        raise _Livelock(s0, [f.next for f in stack] + [None], k)
                    child = reach(succ)
                    if child is not None:
                        frame.next, frame.best, frame.best_at, frame.leaves_ok = (
                            at, best, best_at, leaves_ok)
                        onstack.add(succ)
                        stack.append(child)
                        break
                    entry = memo[succ]
                if entry[0] >= best:
                    best = entry[0] + 1
                    best_at = at
                leaves_ok &= entry[2]
            else:
                memo[frame.state] = (best, best_at, leaves_ok)
                stack.pop()
                onstack.discard(frame.state)
                if not stack:
                    return
            frame = stack[-1]

    complete = True
    livelock_initial, livelock_steps, cycle_at = None, (), 0
    try:
        for s0 in initials:
            expand(s0)
    except _Budget:
        complete = False
    except _Livelock as exc:
        s0, path, cycle_at = exc.args
        livelock_initial = codec.decode(s0)
        livelock_steps = replay(livelock_initial, lambda _, k: path[k])

    # the explored starts (under "all", every memoized state) and the first
    # worst: states ascend in every_state's order
    done = memo.items() if initial == "all" else [
        (s0, memo[s0]) for s0 in initials if s0 in memo]
    worst_steps = max((entry[0] for _, entry in done), default=0)
    worst = min((s0 for s0, entry in done if entry[0] == worst_steps), default=None)
    witness_initial = None if worst is None else codec.decode(worst)
    return SearchResult(
        worst_steps=worst_steps,
        witness_initial=witness_initial,
        witness=() if worst is None else replay(witness_initial, lambda state, _: memo[state][1]),
        explored=explored,
        branch_marriage=branch_marriage,
        complete=complete,
        livelock=livelock_initial is not None,
        livelock_initial=livelock_initial,
        livelock_prefix=livelock_steps[:cycle_at],
        livelock_cycle=livelock_steps[cycle_at:],
        all_leaves_maximal=livelock_initial is None and all(entry[2] for _, entry in done),
        bound=step_bound(g),
        initial_count=initial_count,
        memo_size=len(memo),
    )


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
