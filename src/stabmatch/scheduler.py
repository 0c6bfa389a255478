"""Daemon policies and the execution engine.

A step fires a nonempty subset of the enabled processes under composite
atomicity: every chosen process evaluates its guard and command against the
same pre-step configuration and all writes land simultaneously. The daemon
decides the subset; six policy kinds cover the sequential, synchronous and
distributed daemon models, in random, adversarial-heuristic and fair
flavors. All randomness flows from the policy seed, so a (graph, initial
configuration, policy) triple always reproduces the same trace bit for bit.
A run's daemon state is one ``SchedulerState``: the rng, the victim, the
step at which each enabled process's streak began, and the enabled set in
the policy's strategy order. ``select`` reads only the policy and that
state.

``run``, ``trace_from_schedule``, the audit and ``stabmatch step`` each
drive one ``Execution``. It owns the current configuration, a
MutableConfiguration that each step's writes update in place, the map from
each enabled process to its guard result, the round index and the set of
processes the current round still owes a move or a disabling. After a step
it evaluates, once each and in no fixed order, the movers and those of
their neighbors whose guard reads a state the step changed, and updates the
map and the rounds from those results. So a step costs time in proportion
to the guards it can change, not to n; a frozen Configuration is built only
for the trace's initial and final configurations. A chosen step goes to
``Execution.fire``, which writes it through ``apply_step`` and records it;
the Execution then builds the Trace. ``protocol.command_target`` computes
every command's write, and so every pick of a married suitor or a courted
neighbor: ``apply_step`` writes what it returns, and a recorded step is
written by ``replay_step`` alone, into the audit's Execution or, for
``export-dot --at-step``, which needs no guards, into a bare
MutableConfiguration. It resolves the step with ``realize_moves``, which
takes each mover's write from ``command_target``, and writes it in place
with ``apply_realized``; the benchmark's tracer names all three.

Only the search's witness replay drives neither an Execution nor
``replay_step``: it fires ``apply_step`` on the frozen Configurations the
search encodes, and is the benchmark's search workload's only source of
frozen writes. It stays until the benchmark counts the search itself.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Optional

from .graph import Graph, read_graph, text_digest, write_graph
from .protocol import (
    ABANDONMENT, MARRIAGE, SEDUCTION,
    Configuration,
    MutableConfiguration,
    Rule,
    RuleSemantics,
    STANDARD,
    command_target,
    enabled_rule,
    parse_configuration,
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
    """Value description of a daemon; a run's state lives in SchedulerState.

    kind: one of POLICY_KINDS. Adversarial kinds take a strategy:
      min_id       always schedule the smallest enabled identifier
      max_id       always schedule the largest enabled identifier
      max_degree   prefer enabled nodes of maximum degree
      starve_one   withhold the largest-identifier node whenever possible
    Sequential kinds fire singletons, synchronous the full enabled set,
    distributed kinds nonempty subsets (under min_id and max_id, the
    sequential singleton). The fair kind force-includes the longest-pending
    process, the smaller identifier on a tie, so none is passed over forever.
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


class SchedulerState:
    """One run's daemon state, the only input ``select`` reads besides the
    policy.

    ``pending_since`` maps each enabled process to the step at which its
    current enabled streak began, so its keys are the enabled set.
    ``order`` holds the same processes sorted under the policy's strategy
    key: node keys without a strategy, else ``_strategy_key``'s tuples,
    whose last entry is the node. ``rng`` draws every random choice from
    the policy seed; ``victim`` is the largest identifier, which
    ``starve_one`` withholds.
    """

    def __init__(self, policy: DaemonPolicy, g: Graph, enabled: Iterable[int]):
        self.graph = g
        self.rng = random.Random(policy.seed)
        self.victim = max(g.nodes, key=lambda i: g.ident[i])
        self.pending_since = dict.fromkeys(enabled, 0)
        self._key = _strategy_key(g, policy.strategy)
        self.order = self._sorted()

    def _sorted(self) -> list:
        key = self._key
        return sorted(self.pending_since if key is None else map(key, self.pending_since))

    def update(self, on: Iterable[int], off: Iterable[int], chosen: frozenset[int],
               step: int) -> None:
        """Apply one step's re-evaluation: ``on`` are the re-evaluated
        processes now enabled, ``off`` those now disabled, whether or not
        their membership changed, and ``chosen`` the step's movers. One in
        ``on`` that was chosen or not yet pending starts a streak at
        ``step``, one in ``off`` is dropped; ``order`` follows by bisection
        when few processes change."""
        pending = self.pending_since
        removed = [i for i in off if pending.pop(i, None) is not None]
        added = [i for i in on if i not in pending]
        for i in on:
            if i in chosen or i not in pending:
                pending[i] = step
        if 8 * (len(added) + len(removed)) > len(pending):
            # a step that changes much of the set (a concurrent daemon's):
            # one sort is cheaper than many bisected inserts
            self.order = self._sorted()
            return
        order, key = self.order, self._key
        for i in removed:
            del order[bisect_left(order, i if key is None else key(i))]
        for i in added:
            insort(order, i if key is None else key(i))


def select(policy: DaemonPolicy, state: SchedulerState) -> frozenset[int]:
    """Choose the nonempty subset of enabled processes that fires next.

    ``state.order`` is kept in the policy's strategy order across steps, so
    a sequential or min/max pick reads the front of a sorted list. Random
    kinds draw in node-key order: ``rng.choice`` over the sorted
    candidates, or one ``rng.random()`` per candidate.
    """
    order = state.order
    if not order:
        raise ValueError("select requires a nonempty enabled set")
    if policy.kind == "sequential_random":
        return frozenset((state.rng.choice(order),))
    if policy.kind == "synchronous":
        return frozenset(order)
    if policy.kind == "distributed_random":
        while True:
            chosen = [i for i in order if state.rng.random() < 0.5]
            if chosen:
                return frozenset(chosen)
    if policy.kind == "distributed_fair":
        chosen = {i for i in order if state.rng.random() < 0.5}
        pending, ident = state.pending_since, state.graph.ident
        chosen.add(min(order, key=lambda i: (pending[i], ident[i])))
        return frozenset(chosen)
    # adversarial heuristics; the sequential kind fires the single most
    # preferred node, the smallest identifier among the strategy's picks
    sequential = policy.kind == "sequential_adversarial_heuristic"
    if policy.strategy == "starve_one":
        victim = state.victim
        if sequential:
            pick = order[0][-1]
            if pick == victim and len(order) > 1:
                pick = order[1][-1]
            return frozenset((pick,))
        return frozenset(i for i in state.pending_since if i != victim) or frozenset((victim,))
    if policy.strategy == "max_degree" and not sequential:
        top = order[0][0]
        picks = []
        for key in order:
            if key[0] != top:
                break
            picks.append(key[-1])
        return frozenset(picks)
    return frozenset((order[0][-1],))


class Execution:
    """One execution replayed step by step, its guards kept current.

    ``enabled`` maps each enabled process to its ``guards`` result:
    ``enabled_rule``'s, or the same verdict as ``enabled_rules``' tuple, the
    audit's form. ``config`` is a MutableConfiguration copied from ``c0``,
    which the caller writes each step's movers into before calling
    ``advance``; the lists ``_p`` and ``_m`` keep each process's state as of
    the last ``advance``, by position, to tell what every mover changed;
    until then they hold a mover's pre-step state. A round closes at the
    earliest step after which every process eligible at the round's first
    configuration has moved or had its guard disabled; ``owed`` holds those
    the current round still waits for. ``fire`` writes, records and advances
    a chosen step in one call; ``records`` holds the steps it fired.
    Raises ValueError unless ``c0.nodes == g.nodes``: neighbors are read at
    ``g.around``'s positions.
    """

    def __init__(self, g: Graph, c0: Configuration, semantics: RuleSemantics, guards):
        if c0.nodes is not g.nodes and c0.nodes != g.nodes:
            raise ValueError("the configuration's nodes are not the graph's")
        self.graph = g
        self.semantics = semantics
        self.guards = guards
        self.config = MutableConfiguration(c0)
        self._p, self._m = list(c0.p), list(c0.m)
        self.enabled = {}
        for i in g.nodes:
            result = guards(c0, g, i, semantics)
            if result:
                self.enabled[i] = result
        self.round = 1
        self.owed = set(self.enabled)
        self.records = []

    def advance(self, moved: Iterable[int]):
        """Account for a step by ``moved``, already written into ``config``.

        A guard reads its own state, its pointee's and, with a null pointer,
        which neighbors point at it or are courtable (null pointer, m false,
        a larger identifier unless stripped). So the movers are re-evaluated,
        their old and new pointees when the pointer changed, and a neighbor j
        of a mover i if j points at i, or j's pointer is null and i's
        courtability for j changed; each once, in no fixed order: the guards
        are mutually exclusive by construction, and nothing built from on/off
        depends on their order. Returns the re-evaluated processes now
        enabled, those now disabled, and whether the step closed the current
        round; a new round opens only while some process is still enabled.
        """
        g, guards, semantics, c = self.graph, self.guards, self.semantics, self.config
        index, p, m, old_p, old_m = c._index, c.p, c.m, self._p, self._m
        nodes, around, rank = g.nodes, g.around, g.rank
        strict = semantics.seduction_requires_larger_id
        enabled = self.enabled
        needed = set(moved)
        for i in moved:
            k = index[i]
            if p[k] != old_p[k]:
                needed.update((old_p[k], p[k]))
            recourt = (p[k] is None and not m[k]) != (old_p[k] is None and not old_m[k])
            old_p[k], old_m[k] = p[k], m[k]
            if recourt:
                ri = rank[k]
                for kj in around[k]:
                    pj = p[kj]
                    if pj == i or pj is None and (rank[kj] < ri or not strict):
                        needed.add(nodes[kj])
            else:
                for kj in around[k]:
                    if p[kj] == i:
                        needed.add(nodes[kj])
        needed.discard(None)
        on, off = [], []
        for i in needed:
            result = guards(c, g, i, semantics)
            if result:
                enabled[i] = result
                on.append(i)
            else:
                enabled.pop(i, None)
                off.append(i)
        owed = self.owed
        owed.difference_update(moved)
        owed.difference_update(off)
        closed = not owed
        if closed and enabled:
            self.round += 1
            self.owed = set(enabled)
        return on, off, closed

    def fire(self, chosen: Iterable[int], choices: Optional[Mapping[int, int]] = None):
        """Fire ``chosen`` through ``apply_step`` with the enabled rules held
        here, record the step and ``advance``; returns what ``advance`` does."""
        _, moves = apply_step(self.config, self.graph, chosen, self.semantics,
                              marriage_choices=choices, rules=self.enabled)
        self.records.append(StepRecord(len(self.records), moves, self.round))
        return self.advance([mv.node for mv in moves])

    def trace(self, policy: str, seed: int = 0, max_steps: Optional[int] = None) -> "Trace":
        """The fired steps as a Trace from ``config.base`` to the current
        configuration; ``max_steps`` defaults to the steps fired, at least 1."""
        return Trace(self.graph, policy, seed, self.config.base, tuple(self.records),
                     self.config.freeze(), not self.enabled,
                     max(len(self.records), 1) if max_steps is None else max_steps)


@dataclass(frozen=True, slots=True)
class Move:
    """One process executing one rule; target is the chosen suitor for
    marriage moves and None otherwise."""

    node: int
    rule: Rule
    target: Optional[int] = None

    def __init__(self, node: int, rule: Rule, target: Optional[int] = None):
        _set_node(self, node)
        _set_rule(self, rule)
        _set_target(self, target)


@dataclass(frozen=True, slots=True)
class StepRecord:
    index: int
    moves: tuple[Move, ...]
    round_index: int

    def __init__(self, index: int, moves: tuple[Move, ...], round_index: int):
        _set_index(self, index)
        _set_step_moves(self, moves)
        _set_round_index(self, round_index)


# built per move and per step: each field is set by its slot's setter, not object.__setattr__
_set_node, _set_rule, _set_target, _set_index, _set_step_moves, _set_round_index = (
    getattr(cls, f.name).__set__ for cls in (Move, StepRecord) for f in fields(cls))


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


def trace_counters(trace: Trace) -> dict[Rule, int]:
    """Moves by rule, in Rule order with zeros kept, tallied from the
    records: a recorded move carries the rule it executed."""
    per_rule = dict.fromkeys(Rule, 0)
    for record in trace.records:
        for mv in record.moves:
            per_rule[mv.rule] += 1
    return per_rule


def apply_step(
    c: Configuration,
    g: Graph,
    chosen: Iterable[int],
    semantics: RuleSemantics = STANDARD,
    marriage_choices: Optional[Mapping[int, int]] = None,
    rules: Optional[Mapping[int, Rule]] = None,
) -> tuple[Configuration, tuple[Move, ...]]:
    """Fire every chosen process's enabled rule against the same pre-step
    configuration and apply all writes simultaneously.

    ``rules`` maps the enabled processes to their rules, as the caller's
    Execution already holds them; without it each chosen guard is evaluated
    here. A frozen ``c`` gives a new Configuration; a
    MutableConfiguration is written in place and returned. Raises
    ValueError when the selection is empty or contains a process with no
    enabled rule.
    """
    nodes = sorted(set(chosen))
    if not nodes:
        raise ValueError("a step requires a nonempty selection")
    writes = {}
    moves = []
    for i in nodes:
        rule = enabled_rule(c, g, i, semantics) if rules is None else rules.get(i)
        if rule is None:
            raise ValueError(f"node {i} has no enabled rule")
        choice = None if marriage_choices is None else marriage_choices.get(i)
        write = writes[i] = command_target(c, g, i, rule, semantics, marriage_choice=choice)
        moves.append(Move(i, rule, write[0] if rule is MARRIAGE else None))
    return c.with_writes(writes), tuple(moves)


def realize_moves(
    c: Configuration, g: Graph, moves: Iterable[Move], semantics: RuleSemantics = STANDARD
) -> dict[int, tuple[Optional[int], bool]]:
    """Resolve recorded moves against their pre-step configuration: each
    mover's ``(p, m)`` write, keyed in the recorded order. Every write, and
    so every pick, is ``command_target``'s, computed against ``c`` before
    any is made. Commands are resolved even if a recorded rule is not actually enabled;
    enabledness is the verifier's concern, while structurally impossible
    moves raise TraceFormatError: a step with no moves, a move by a node not
    in the graph, a node moving twice, a marriage to a non-suitor, or a
    command with nothing to act on.
    """
    index = c._index
    writes = {}
    for mv in moves:
        i, rule, target = mv.node, mv.rule, mv.target
        if i not in index:
            raise TraceFormatError(f"move recorded at unknown node {i}")
        if i in writes:
            raise TraceFormatError(f"node {i} recorded twice in one step")
        try:
            writes[i] = command_target(c, g, i, rule, semantics, target)
        except ValueError:
            raise TraceFormatError(
                f"abandonment recorded at node {i} with a null pointer" if rule is ABANDONMENT
                else f"seduction recorded at node {i} with no candidate" if rule is SEDUCTION
                else f"marriage recorded at node {i} with no suitor" if target is None
                else f"marriage target {target} is not a suitor of {i}") from None
    if not writes:
        raise TraceFormatError("step recorded with no moves")
    return writes


def apply_realized(
    c: MutableConfiguration, writes: Mapping[int, tuple[Optional[int], bool]]
) -> MutableConfiguration:
    """Write ``realize_moves``' ``(p, m)`` pairs into ``c`` in place; they were
    all computed before any is made, so they land simultaneously. Returns ``c``."""
    return c.with_writes(writes)


def replay_step(
    c: MutableConfiguration, g: Graph, moves: Iterable[Move], semantics: RuleSemantics = STANDARD
) -> MutableConfiguration:
    """Re-apply a recorded step's commands to ``c`` in place: the one way a
    recorded step is written, by the audit and by ``export-dot --at-step``.
    Raises ``realize_moves``' TraceFormatError, before any write, for a step
    that cannot resolve. Returns ``c``."""
    return apply_realized(c, realize_moves(c, g, moves, semantics))


def step_bound(g: Graph) -> int:
    """The protocol's convergence bound in steps, 3n + 2m."""
    return 3 * g.n + 2 * g.m


def round_bound(g: Graph) -> int:
    """The convergence bound in rounds under fair scheduling, 2n + 1."""
    return 2 * g.n + 1


def default_step_cap(g: Graph) -> int:
    """One more than the convergence bound, so hitting the cap is itself a
    bound violation."""
    return step_bound(g) + 1


def run(
    g: Graph,
    c0: Configuration,
    policy: DaemonPolicy,
    max_steps: Optional[int] = None,
    semantics: RuleSemantics = STANDARD,
) -> Trace:
    """Iterate select/fire until no process is enabled or the cap is hit.

    Each step is ``select`` from the run's one SchedulerState, then
    ``Execution.fire``, which writes the step in place, records it and
    re-evaluates the guards the step can change, then ``state.update`` from
    what the Execution reports; so a step costs time in proportion to the
    processes it touches.
    """
    if max_steps is None:
        max_steps = default_step_cap(g)
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    execution = Execution(g, c0, semantics, enabled_rule)
    state = SchedulerState(policy, g, execution.enabled)
    while execution.enabled and len(execution.records) < max_steps:
        chosen = select(policy, state)
        on, off, _ = execution.fire(chosen)
        state.update(on, off, chosen, len(execution.records))
    return execution.trace(policy.describe(), policy.seed, max_steps)


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
    execution = Execution(g, c0, semantics, enabled_rule)
    for chosen, choices in schedule:
        execution.fire(chosen, choices)
    return execution.trace(policy_desc)


def write_trace(trace: Trace) -> str:
    """Serialize as line-delimited JSON records, bit-exact for fixed input."""
    graph_text = write_graph(trace.graph)
    lines = [
        _dump(
            {
                "type": "header",
                "graph_hash": text_digest(graph_text),
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
    # a step line is formatted directly, in the bytes _dump gives it: keys
    # sorted, node ids and targets ints (a null target only in a parsed
    # trace), rule names plain ASCII, read as _value_ to skip the enum's
    # value property
    for record in trace.records:
        moves = ",".join([
            f'[{mv.node},"marriage",{"null" if mv.target is None else mv.target}]'
            if mv.rule is MARRIAGE else f'[{mv.node},"{mv.rule._value_}"]'
            for mv in record.moves
        ])
        lines.append(f'{{"index":{record.index},"moves":[{moves}],'
                     f'"round_index":{record.round_index},"type":"step"}}')
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


_RULE_BY_NAME = {rule.value: rule for rule in Rule}


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
        except (ValueError, RecursionError):  # ValueError: also an over-long int
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
                        rule = _RULE_BY_NAME[rule_name]
                    except (KeyError, TypeError):  # TypeError: an unhashable name
                        raise TraceFormatError(
                            f"line {lineno}: unknown rule {rule_name!r}"
                        ) from None
                    target = entry[2] if len(entry) > 2 else None
                    if type(node) is not int or type(target) not in (int, type(None)):
                        raise TraceFormatError(
                            f"line {lineno}: move node and target must be integers"
                        )
                    if len(entry) > 3 or target is not None and rule is not MARRIAGE:
                        raise TraceFormatError(f"line {lineno}: " + (
                            "a move has at most three entries" if len(entry) > 3
                            else f"{rule.value} move takes no target"))
                    moves.append(Move(node, rule, target))
                index, round_index = obj["index"], obj["round_index"]
                if type(index) is not int or type(round_index) is not int:
                    raise TraceFormatError(
                        f"line {lineno}: step index and round_index must be integers"
                    )
                records.append(StepRecord(index, tuple(moves), round_index))
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
    kinds = {str: "a string", int: "an integer", bool: "a boolean"}
    for record, key, kind in ((header, "graph", str), (header, "init", str),
                              (header, "policy", str), (header, "seed", int),
                              (header, "max_steps", int), (footer, "final", str),
                              (footer, "stable", bool)):
        if key in record and type(record[key]) is not kind:
            raise TraceFormatError(f"trace field {key!r} must be {kinds[kind]}")
    try:
        g = read_graph(header["graph"])
        trace = Trace(
            graph=g,
            policy=header["policy"],
            seed=header["seed"],
            initial=parse_configuration(header["init"], g),
            records=tuple(records),
            final=parse_configuration(footer["final"], g),
            stable=footer["stable"],
            max_steps=header.get("max_steps", default_step_cap(g)),
        )
        for record, key, value in (
            (header, "n", g.n), (header, "m", g.m),
            (header, "graph_hash", text_digest(header["graph"])),
            (footer, "steps", trace.steps),
            (footer, "moves", trace.moves),
            (footer, "rounds", trace.rounds),
        ):
            if type(record[key]) is not type(value) or record[key] != value:
                raise TraceFormatError(
                    f"trace field {key!r} is {record[key]!r}, which does not "
                    f"match the trace's {value!r}"
                )
        for k, record in enumerate(records):
            if record.index != k:
                raise TraceFormatError(f"step indices out of order at {record.index}")
        # every writer caps a trace at one step or more, and at no fewer
        # steps than it holds
        if "max_steps" in header and trace.max_steps < max(trace.steps, 1):
            raise TraceFormatError(
                f"trace field 'max_steps' is {trace.max_steps!r}, which is below 1 or "
                f"the trace's {trace.steps} steps"
            )
        return trace
    except KeyError as exc:
        raise TraceFormatError(f"trace record missing field {exc}") from exc
