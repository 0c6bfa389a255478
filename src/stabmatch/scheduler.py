"""Daemon policies and the execution engine.

A step fires a nonempty subset of the enabled processes under composite
atomicity: every chosen process evaluates its guard and command against the
same pre-step configuration and all writes land simultaneously. The daemon
decides the subset; six policy kinds cover the sequential, synchronous and
distributed daemon models, in random, adversarial-heuristic and fair
flavors. All randomness flows from the policy seed, so a (graph, initial
configuration, policy) triple always reproduces the same trace bit for bit.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .graph import Graph, read_graph, write_graph
from .protocol import (
    Configuration,
    ProcessState,
    Rule,
    RuleSemantics,
    STANDARD,
    command_target,
    enabled_rule,
    marriage_suitors,
    parse_configuration,
    seduction_candidates,
)

POLICY_KINDS = (
    "sequential_random",
    "sequential_adversarial_heuristic",
    "synchronous",
    "distributed_random",
    "distributed_adversarial_heuristic",
    "distributed_fair",
)

HEURISTIC_STRATEGIES = ("min_id", "max_id", "max_degree", "starve_one")


class TraceFormatError(ValueError):
    """Raised for trace files that cannot be decoded."""


@dataclass(frozen=True)
class DaemonPolicy:
    """Value description of a daemon; runtime state lives in SchedulerState.

    kind: one of POLICY_KINDS. Adversarial kinds take a strategy:
      min_id       always schedule the smallest enabled identifier
      max_id       always schedule the largest enabled identifier
      max_degree   prefer enabled nodes of maximum degree
      starve_one   withhold the largest-identifier node whenever possible
    Sequential kinds fire singletons, synchronous fires the full enabled
    set, distributed kinds fire arbitrary nonempty subsets. The fair kind
    force-includes the longest-pending process so no process is ever
    passed over indefinitely.
    """

    kind: str
    strategy: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind: {self.kind}")
        if self.kind.endswith("adversarial_heuristic"):
            if self.strategy not in HEURISTIC_STRATEGIES:
                raise ValueError(
                    f"policy {self.kind} needs a strategy from "
                    f"{', '.join(HEURISTIC_STRATEGIES)}"
                )
        elif self.strategy is not None:
            raise ValueError(f"policy {self.kind} takes no strategy")

    @staticmethod
    def parse(spec: str, seed: int = 0) -> "DaemonPolicy":
        """Parse "kind" or "kind:strategy" as used on the command line."""
        kind, _, strategy = spec.partition(":")
        return DaemonPolicy(kind, strategy or None, seed)

    def describe(self) -> str:
        return self.kind if self.strategy is None else f"{self.kind}:{self.strategy}"


@dataclass
class SchedulerState:
    """Per-run mutable scheduling history consumed by select()."""

    graph: Graph
    rng: random.Random
    victim: int
    pending_since: dict[int, int] = field(default_factory=dict)
    step_index: int = 0


def make_state(policy: DaemonPolicy, g: Graph) -> SchedulerState:
    victim = max(g.nodes, key=lambda i: g.ident[i])
    return SchedulerState(g, random.Random(policy.seed), victim)


def _strategy_key(g: Graph, strategy: Optional[str]):
    """Sort key under which a heuristic strategy's preferred node comes first.

    The trailing node key reproduces how ``min``/``max`` over node-sorted
    candidates break identifier ties: the smallest node key wins.
    """
    ident = g.ident
    if strategy == "max_id":
        return lambda i: (-ident[i], i)
    if strategy == "max_degree":
        adjacency = g.adjacency
        return lambda i: (-len(adjacency[i]), ident[i], i)
    if strategy is None:
        return None
    return lambda i: (ident[i], i)  # min_id, and starve_one's sequential pick


class EnabledSet:
    """The enabled processes, kept in the orders the daemons pick from.

    ``nodes`` is sorted by node key; for a heuristic strategy ``ranked``
    holds the strategy's sort keys in ascending order, so its preferred node
    is ``ranked[0][-1]``. ``update`` keeps both orders from a step's dirty
    processes, by bisection when few change, so the execution loop does not
    re-sort the whole set before every pick.
    """

    def __init__(self, g: Graph, strategy: Optional[str], nodes: Iterable[int]):
        self.strategy = strategy
        self._members = set(nodes)
        self.nodes = sorted(self._members)
        self._key = _strategy_key(g, strategy)
        self.ranked = [] if self._key is None else sorted(map(self._key, self.nodes))

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self.nodes)

    def update(self, added: Iterable[int], removed: Iterable[int]) -> None:
        """Apply one step's re-evaluation: ``added`` are the dirty processes
        now enabled, ``removed`` those now disabled, whether or not their
        membership changed."""
        members = self._members
        added = [i for i in added if i not in members]
        removed = [i for i in removed if i in members]
        members.update(added)
        members.difference_update(removed)
        key = self._key
        if 8 * (len(added) + len(removed)) > len(members):
            # a step that changes much of the set (a concurrent daemon's):
            # one sort is cheaper than many bisected inserts
            self.nodes = sorted(members)
            if key is not None:
                self.ranked = sorted(map(key, self.nodes))
            return
        nodes, ranked = self.nodes, self.ranked
        for i in removed:
            del nodes[bisect_left(nodes, i)]
            if key is not None:
                del ranked[bisect_left(ranked, key(i))]
        for i in added:
            insort(nodes, i)
            if key is not None:
                insort(ranked, key(i))


def select(
    policy: DaemonPolicy, enabled: Iterable[int], history: SchedulerState
) -> frozenset[int]:
    """Choose the nonempty subset of enabled processes that fires next.

    ``run`` passes its EnabledSet, whose node order and strategy order are
    maintained incrementally, so a sequential or min/max pick reads the
    front of a sorted list instead of sorting and scanning every candidate;
    any other iterable is sorted here first. Random kinds draw in node-key
    order: ``rng.choice`` over the sorted candidates, or one ``rng.random()``
    per candidate.
    """
    if not isinstance(enabled, EnabledSet) or enabled.strategy != policy.strategy:
        enabled = EnabledSet(history.graph, policy.strategy, enabled)
    candidates = enabled.nodes
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
    # adversarial heuristics; the sequential kind fires the single most
    # preferred node, the smallest identifier among the strategy's picks
    ranked = enabled.ranked
    sequential = policy.kind == "sequential_adversarial_heuristic"
    if policy.strategy == "starve_one":
        victim = history.victim
        if sequential:
            pick = ranked[0][-1]
            if pick == victim and len(ranked) > 1:
                pick = ranked[1][-1]
            return frozenset((pick,))
        return frozenset(i for i in candidates if i != victim) or frozenset((victim,))
    if policy.strategy == "max_degree" and not sequential:
        top = ranked[0][0]
        picks = []
        for key in ranked:
            if key[0] != top:
                break
            picks.append(key[-1])
        return frozenset(picks)
    return frozenset((ranked[0][-1],))


class Rounds:
    """Round accounting straight from the definition.

    A round closes at the earliest step after which every process eligible
    at the round's first configuration has moved or had its guard disabled.
    ``owed`` holds the processes the current round still waits for; since
    only a process that moved or neighbors a mover can change enabledness,
    each step updates it from that dirty set alone.
    """

    def __init__(self, enabled: Iterable[int]):
        self.index = 1
        self.owed = set(enabled)

    def close_step(self, moved, disabled, enabled) -> bool:
        """Account one step, given its movers, the dirty processes it
        disabled and the enabled set after it; True when it closed the
        current round. A new round opens only while some process is still
        enabled."""
        owed = self.owed
        owed.difference_update(moved)
        owed.difference_update(disabled)
        if owed:
            return False
        if enabled:
            self.index += 1
            self.owed = set(enabled)
        return True


@dataclass(frozen=True)
class Move:
    """One process executing one rule; target is the chosen suitor for
    marriage moves and None otherwise."""

    node: int
    rule: Rule
    target: Optional[int] = None


@dataclass(frozen=True)
class StepRecord:
    index: int
    moves: tuple[Move, ...]
    round_index: int


@dataclass(frozen=True)
class Trace:
    graph: Graph
    policy: str
    seed: int
    initial: Configuration
    records: tuple[StepRecord, ...]
    final: Configuration
    stable: bool
    max_steps: int

    @property
    def steps(self) -> int:
        return len(self.records)

    @property
    def moves(self) -> int:
        return sum(len(r.moves) for r in self.records)

    @property
    def rounds(self) -> int:
        return self.records[-1].round_index if self.records else 0


@dataclass(frozen=True)
class TraceCounters:
    """Derived per-trace tallies: moves by rule, updates by node, and for
    every edge the number of steps containing a pointer move on it."""

    steps: int
    moves: int
    per_rule: dict[Rule, int]
    updates_per_node: dict[int, int]
    edge_move_steps: dict[tuple[int, int], int]
    rounds: int


def trace_counters(trace: Trace, semantics: RuleSemantics = STANDARD) -> TraceCounters:
    """Recompute the counters by replaying the records.

    A pointer move (marriage, seduction, abandonment) counts against the
    edge between the mover and its target; several moves on the same edge
    within one step count as a single step for that edge.
    """
    g = trace.graph
    c = trace.initial
    per_rule = {rule: 0 for rule in Rule}
    updates: dict[int, int] = {}
    edge_steps: dict[tuple[int, int], int] = {}
    total = 0
    for record in trace.records:
        realized = realize_moves(c, g, record.moves, semantics)
        step_edges = set()
        for mv in realized:
            per_rule[mv.rule] += 1
            total += 1
            if mv.rule is Rule.UPDATE:
                updates[mv.node] = updates.get(mv.node, 0) + 1
            else:
                step_edges.add((min(mv.node, mv.target), max(mv.node, mv.target)))
        for e in step_edges:
            edge_steps[e] = edge_steps.get(e, 0) + 1
        c = apply_realized(c, g, realized)
    return TraceCounters(
        steps=trace.steps,
        moves=total,
        per_rule=per_rule,
        updates_per_node=updates,
        edge_move_steps=edge_steps,
        rounds=trace.rounds,
    )


def apply_step(
    c: Configuration,
    g: Graph,
    chosen: Iterable[int],
    semantics: RuleSemantics = STANDARD,
    marriage_choices: Optional[Mapping[int, int]] = None,
) -> tuple[Configuration, tuple[Move, ...]]:
    """Fire every chosen process's enabled rule against the same pre-step
    configuration and apply all writes simultaneously.

    Raises ValueError when the selection is empty or contains a process
    with no enabled rule.
    """
    nodes = sorted(set(chosen))
    if not nodes:
        raise ValueError("a step requires a nonempty selection")
    writes = {}
    moves = []
    for i in nodes:
        rule = enabled_rule(c, g, i, semantics)
        if rule is None:
            raise ValueError(f"node {i} has no enabled rule")
        choice = (marriage_choices or {}).get(i)
        state = command_target(c, g, i, rule, semantics, marriage_choice=choice)
        writes[i] = state
        moves.append(Move(i, rule, state.p if rule is Rule.MARRIAGE else None))
    return c.with_writes(writes), tuple(moves)


def realize_moves(
    c: Configuration, g: Graph, moves: Iterable[Move], semantics: RuleSemantics = STANDARD
) -> tuple[Move, ...]:
    """Resolve recorded moves against their pre-step configuration.

    The returned moves carry concrete targets: the married suitor, the
    courted neighbor, or the partner an abandonment drops. Commands are
    resolved even if a recorded rule is not actually enabled; enabledness is
    the verifier's concern, while structurally impossible moves raise
    TraceFormatError.
    """
    out = []
    for mv in moves:
        if mv.rule is Rule.UPDATE:
            out.append(Move(mv.node, Rule.UPDATE, None))
        elif mv.rule is Rule.MARRIAGE:
            suitors = marriage_suitors(c, g, mv.node)
            target = mv.target
            if target is None:
                if not suitors:
                    raise TraceFormatError(
                        f"marriage recorded at node {mv.node} with no suitor"
                    )
                target = max(suitors, key=lambda j: g.ident[j])
            elif target not in suitors:
                raise TraceFormatError(
                    f"marriage target {target} is not a suitor of {mv.node}"
                )
            out.append(Move(mv.node, Rule.MARRIAGE, target))
        elif mv.rule is Rule.SEDUCTION:
            cands = seduction_candidates(c, g, mv.node, semantics)
            if not cands:
                raise TraceFormatError(
                    f"seduction recorded at node {mv.node} with no candidate"
                )
            best = max(cands, key=lambda j: g.ident[j])
            out.append(Move(mv.node, Rule.SEDUCTION, best))
        elif mv.rule is Rule.ABANDONMENT:
            old = c.p_of(mv.node)
            if old is None:
                raise TraceFormatError(
                    f"abandonment recorded at node {mv.node} with a null pointer"
                )
            out.append(Move(mv.node, Rule.ABANDONMENT, old))
        else:
            raise TraceFormatError(f"unknown rule in record: {mv.rule}")
    return tuple(out)


def apply_realized(
    c: Configuration, g: Graph, realized: Iterable[Move]
) -> Configuration:
    """Apply the writes of realized moves simultaneously."""
    writes = {}
    for mv in realized:
        if mv.rule is Rule.UPDATE:
            j = c.p_of(mv.node)
            married = j is not None and c.p_of(j) == mv.node
            writes[mv.node] = ProcessState(c.p_of(mv.node), married)
        elif mv.rule is Rule.ABANDONMENT:
            writes[mv.node] = ProcessState(None, c.m_of(mv.node))
        else:
            writes[mv.node] = ProcessState(mv.target, c.m_of(mv.node))
    return c.with_writes(writes)


def replay_step(
    c: Configuration, g: Graph, moves: Iterable[Move], semantics: RuleSemantics = STANDARD
) -> Configuration:
    """Re-apply a recorded step's commands to a configuration."""
    return apply_realized(c, g, realize_moves(c, g, moves, semantics))


def default_step_cap(g: Graph) -> int:
    """One more than the convergence bound, so hitting the cap is itself a
    bound violation."""
    return 3 * g.n + 2 * g.m + 1


def run(
    g: Graph,
    c0: Configuration,
    policy: DaemonPolicy,
    max_steps: Optional[int] = None,
    semantics: RuleSemantics = STANDARD,
) -> Trace:
    """Iterate select/apply until no process is enabled or the cap is hit.

    After each step only the dirty processes (the movers and their
    neighbors) are re-evaluated, since no other guard reads a changed
    state. From them the loop updates, in place, the enabled set with its
    daemon orders, the pending-since map the fair daemon reads, and the
    round accounting, so a step costs time in proportion to the processes
    it touches plus the copy of the configuration's state tuples.
    """
    if max_steps is None:
        max_steps = default_step_cap(g)
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    state = make_state(policy, g)
    c = c0
    enabled = EnabledSet(
        g, policy.strategy,
        (i for i in g.nodes if enabled_rule(c, g, i, semantics) is not None),
    )
    pending = state.pending_since
    pending.update((i, 0) for i in enabled)
    rounds = Rounds(enabled)
    records = []
    while enabled and len(records) < max_steps:
        chosen = select(policy, enabled, state)
        c2, moves = apply_step(c, g, chosen, semantics)
        records.append(StepRecord(len(records), moves, rounds.index))
        state.step_index += 1
        moved = {mv.node for mv in moves}
        dirty = set(moved)
        for i in moved:
            dirty.update(g.adjacency[i])
        on, off = [], []
        for i in dirty:
            (off if enabled_rule(c2, g, i, semantics) is None else on).append(i)
        enabled.update(on, off)
        for i in off:
            pending.pop(i, None)
        for i in on:
            if i in moved or i not in pending:
                pending[i] = state.step_index
        rounds.close_step(moved, off, enabled)
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


def trace_from_schedule(
    g: Graph,
    c0: Configuration,
    schedule: Iterable[tuple[Iterable[int], Optional[Mapping[int, int]]]],
    policy_desc: str = "scripted",
    semantics: RuleSemantics = STANDARD,
) -> Trace:
    """Materialize an explicit schedule as a trace with round annotations.

    Every scheduled subset must be enabled when its turn comes; this is how
    search witnesses and interactive sessions become replayable artifacts.
    """
    c = c0
    enabled = {
        i for i in g.nodes if enabled_rule(c, g, i, semantics) is not None
    }
    rounds = Rounds(enabled)
    records = []
    for chosen, choices in schedule:
        c2, moves = apply_step(c, g, chosen, semantics, marriage_choices=choices)
        records.append(StepRecord(len(records), moves, rounds.index))
        moved = {mv.node for mv in moves}
        dirty = set(moved)
        for i in moved:
            dirty.update(g.adjacency[i])
        off = [i for i in dirty if enabled_rule(c2, g, i, semantics) is None]
        enabled.difference_update(off)
        enabled.update(dirty.difference(off))
        rounds.close_step(moved, off, enabled)
        c = c2
    return Trace(
        graph=g,
        policy=policy_desc,
        seed=0,
        initial=c0,
        records=tuple(records),
        final=c,
        stable=not enabled,
        max_steps=max(len(records), 1),
    )


def count_rounds(
    trace: Trace, semantics: RuleSemantics = STANDARD
) -> tuple[int, list[int]]:
    """Partition the step sequence into rounds, straight from the definition.

    A round closes at the earliest step after which every process eligible at
    the round's first configuration has moved or had its guard disabled at
    some intermediate configuration. Recomputed from the configurations, not
    from the recorded round annotations. Returns (rounds, per-step indices).
    """
    g = trace.graph
    c = trace.initial
    enabled = {
        i for i in g.nodes if enabled_rule(c, g, i, semantics) is not None
    }
    rounds = Rounds(enabled)
    annotations = []
    for record in trace.records:
        c = replay_step(c, g, record.moves, semantics)
        annotations.append(rounds.index)
        moved = {mv.node for mv in record.moves}
        dirty = set(moved)
        for i in moved:
            dirty.update(g.adjacency[i])
        off = [i for i in dirty if enabled_rule(c, g, i, semantics) is None]
        enabled.difference_update(off)
        enabled.update(dirty.difference(off))
        rounds.close_step(moved, off, enabled)
    return (annotations[-1] if annotations else 0), annotations


def write_trace(trace: Trace) -> str:
    """Serialize as line-delimited JSON records, bit-exact for fixed input."""
    graph_text = write_graph(trace.graph)
    lines = [
        _dump(
            {
                "type": "header",
                "graph_hash": trace.graph.digest(),
                "graph": graph_text,
                "init": trace.initial.to_text(),
                "policy": trace.policy,
                "seed": trace.seed,
                "n": trace.graph.n,
                "m": trace.graph.m,
                "max_steps": trace.max_steps,
            }
        )
    ]
    for record in trace.records:
        moves = []
        for mv in record.moves:
            entry = [mv.node, mv.rule.value]
            if mv.rule is Rule.MARRIAGE:
                entry.append(mv.target)
            moves.append(entry)
        lines.append(
            _dump(
                {
                    "type": "step",
                    "index": record.index,
                    "round_index": record.round_index,
                    "moves": moves,
                }
            )
        )
    lines.append(
        _dump(
            {
                "type": "footer",
                "steps": trace.steps,
                "moves": trace.moves,
                "rounds": trace.rounds,
                "stable": trace.stable,
                "final": trace.final.to_text(),
            }
        )
    )
    return "\n".join(lines) + "\n"


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_trace(text: str) -> Trace:
    """Decode a trace file; structural errors raise TraceFormatError."""
    header = None
    footer = None
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise TraceFormatError(f"line {lineno}: invalid record") from None
        if not isinstance(obj, dict):
            raise TraceFormatError(f"line {lineno}: record is not a JSON object")
        kind = obj.get("type")
        if kind == "header":
            if header is not None:
                raise TraceFormatError(f"line {lineno}: duplicate header")
            header = obj
        elif kind == "step":
            if header is None or footer is not None:
                raise TraceFormatError(f"line {lineno}: step outside body")
            moves = []
            try:
                for entry in obj["moves"]:
                    node, rule_name = entry[0], entry[1]
                    try:
                        rule = Rule(rule_name)
                    except ValueError:
                        raise TraceFormatError(
                            f"line {lineno}: unknown rule {rule_name!r}"
                        ) from None
                    target = entry[2] if len(entry) > 2 else None
                    if not isinstance(node, int) or not (
                        target is None or isinstance(target, int)
                    ):
                        raise TraceFormatError(
                            f"line {lineno}: move node and target must be integers"
                        )
                    moves.append(Move(node, rule, target))
                records.append(
                    StepRecord(obj["index"], tuple(moves), obj["round_index"])
                )
            except (KeyError, IndexError, TypeError) as exc:
                raise TraceFormatError(
                    f"line {lineno}: incomplete step record"
                ) from exc
        elif kind == "footer":
            if header is None:
                raise TraceFormatError(f"line {lineno}: footer before header")
            footer = obj
        else:
            raise TraceFormatError(f"line {lineno}: unknown record type")
    if header is None or footer is None:
        raise TraceFormatError("trace needs a header and a footer")
    for record, key in ((header, "graph"), (header, "init"), (header, "policy"),
                        (footer, "final")):
        if key in record and not isinstance(record[key], str):
            raise TraceFormatError(f"trace field {key!r} must be a string")
    try:
        g = read_graph(header["graph"])
        initial = parse_configuration(header["init"], g)
        final = parse_configuration(footer["final"], g)
        if footer["steps"] != len(records):
            raise TraceFormatError("footer step count does not match records")
        for k, record in enumerate(records):
            if record.index != k:
                raise TraceFormatError(f"step indices out of order at {record.index}")
        return Trace(
            graph=g,
            policy=header["policy"],
            seed=header["seed"],
            initial=initial,
            records=tuple(records),
            final=final,
            stable=bool(footer["stable"]),
            max_steps=header.get("max_steps", default_step_cap(g)),
        )
    except KeyError as exc:
        raise TraceFormatError(f"trace record missing field {exc}") from exc
