"""Per-process state and the four guarded rules of the matching protocol.

Every process ``i`` owns a pointer ``p`` (a neighbor or null) and a boolean
flag ``m`` advertising to neighbors whether ``i`` is married. A move reads
the pre-step states of the process and its neighbors and rewrites only the
process's own state. Each guard is written once, in ``_guard``, whose
verdict ``enabled_rule`` and ``enabled_rules`` return; ``command_target`` is
the one command. Guards and commands only read a configuration, so they take
either a frozen ``Configuration`` (kept and compared: trace endpoints,
search witnesses) or the ``MutableConfiguration`` a replay writes in place
or a search decodes into. A configuration's ``nodes`` are its graph's, in
order, so the guards and the suitor and candidate scans read a neighbor's
``p`` and ``m`` at the position ``g.around`` gives, and its identifier in
``g.rank``; the node index ``_index`` gives only a node's own position and
its pointee's.
"""

from __future__ import annotations

import enum
import operator
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .graph import Graph, text_fields


class Rule(enum.Enum):
    UPDATE = "update"
    MARRIAGE = "marriage"
    SEDUCTION = "seduction"
    ABANDONMENT = "abandonment"

    __hash__ = object.__hash__  # members are singletons: an identity hash, in C

    def __str__(self) -> str:
        return self.value


class PredicateClass(enum.Enum):
    MARRIED = "married"
    WAITING = "waiting"
    CONDEMNED = "condemned"
    DEAD = "dead"
    FREE = "free"


@dataclass(frozen=True)
class RuleSemantics:
    """Guard variant knob.

    The shipped protocol requires a courted neighbor to carry a larger
    identifier, which is what prevents pointer cycles. Disabling that guard
    yields a deliberately broken variant used to prove the audits can catch
    incorrect protocols.
    """

    seduction_requires_larger_id: bool = True


STANDARD = RuleSemantics()
UPDATE, MARRIAGE, SEDUCTION, ABANDONMENT = Rule  # Rule.X is slow: EnumType has __getattr__
MARRIED, WAITING, CONDEMNED, DEAD, FREE = PredicateClass
_HELD = {None: (), **{rule: (rule,) for rule in Rule}}  # enabled_rules' results, one shared each


class ConfigFormatError(ValueError):
    """Raised for malformed configuration files; message carries the line."""


@dataclass(frozen=True)
class Configuration:
    """System state: one (p, m) pair per node, aligned with the graph's nodes."""

    nodes: tuple[int, ...]
    p: tuple[Optional[int], ...]
    m: tuple[bool, ...]
    _index: dict[int, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        nodes = self.nodes
        # with nodes 0..n-1 in order, each node's position is the node's own object
        positions = nodes if all(map(operator.eq, nodes, range(len(nodes)))) else range(len(nodes))
        object.__setattr__(self, "_index", dict(zip(nodes, positions)))

    def p_of(self, i: int) -> Optional[int]:
        return self.p[self._index[i]]

    def m_of(self, i: int) -> bool:
        return self.m[self._index[i]]

    def with_writes(self, writes: Mapping[int, tuple]) -> "Configuration":
        """New configuration with the given nodes' ``(p, m)`` pairs written.

        The result has the same node tuple, so it shares this configuration's
        node index instead of building its own; what remains O(n) is the copy
        of the two state tuples.
        """
        index = self._index
        p = list(self.p)
        m = list(self.m)
        for i, (pi, mi) in writes.items():
            k = index[i]
            p[k] = pi
            m[k] = mi
        derived = object.__new__(Configuration)
        derived.__dict__.update(nodes=self.nodes, p=tuple(p), m=tuple(m), _index=index)
        return derived

    @staticmethod
    def from_states(g: Graph, states: Mapping[int, tuple]) -> "Configuration":
        """The configuration whose node i holds the ``(p, m)`` pair ``states[i]``,
        m made a boolean. Raises ValueError unless ``states`` names exactly the
        graph's nodes, each pointer a neighbor or null."""
        if set(states) != set(g.nodes):
            raise ValueError("states must cover exactly the graph's nodes")
        p, m = [], []
        for i in g.nodes:
            pi, mi = states[i]
            if pi is not None:
                if pi not in (row := g.adjacency[i]):
                    raise ValueError(f"p of node {i} must be a neighbor or null")
                pi = row[row.index(pi)]  # the graph's own object for the id
            p.append(pi)
            m.append(bool(mi))
        return Configuration(g.nodes, tuple(p), tuple(m))

    @staticmethod
    def all_null(g: Graph) -> "Configuration":
        n = len(g.nodes)
        return Configuration(g.nodes, (None,) * n, (False,) * n)

    def to_text(self) -> str:
        lines = []
        for k, i in enumerate(self.nodes):
            p = "-" if self.p[k] is None else str(self.p[k])
            m = "t" if self.m[k] else "f"
            lines.append(f"{i} {p} {m}")
        return "\n".join(lines) + "\n"


class MutableConfiguration:
    """A configuration that a replay updates in place, step by step.

    ``p`` and ``m`` are lists aligned with ``nodes`` and indexed through the
    node index of the frozen configuration it starts from, so a step costs
    its writes and not a copy of every state. ``with_writes`` writes its
    ``(p, m)`` pairs here and returns this same object, so a command
    written for a frozen configuration applies in place; ``freeze`` builds
    the Configuration to keep. Identity is its equality, and it is not hashable.
    """

    __slots__ = ("base", "nodes", "p", "m", "_index")
    __hash__ = None

    def __init__(self, base: Configuration):
        self.base = base
        self.nodes = base.nodes
        self.p = list(base.p)
        self.m = list(base.m)
        self._index = base._index

    p_of = Configuration.p_of
    m_of = Configuration.m_of

    def with_writes(self, writes: Mapping[int, tuple]) -> "MutableConfiguration":
        index, p, m = self._index, self.p, self.m
        for i, (pi, mi) in writes.items():
            k = index[i]
            p[k] = pi
            m[k] = mi
        return self

    def freeze(self) -> Configuration:
        """The current states as a Configuration sharing the node index."""
        base = self.base
        return base.with_writes({
            i: (p, m)
            for i, p, m, p0, m0 in zip(self.nodes, self.p, self.m, base.p, base.m)
            if p != p0 or m != m0
        })


def random_configuration(g: Graph, seed: int) -> Configuration:
    """Seeded well-formed configuration: p uniform over N(i) plus null, m uniform."""
    rng = random.Random(seed)
    states = [(rng.choice((None,) + g.adjacency[i]), rng.random() < 0.5) for i in g.nodes]
    return Configuration(g.nodes, *zip(*states))


def parse_configuration(text: str, g: Graph) -> Configuration:
    """Parse "id p m" lines (p decimal or '-', m 't'/'f'), one per node.

    Out-of-neighborhood pointers are normalized to null so hand-written
    corrupt initial states remain loadable; ``parse_trace`` reads a trace's
    configurations strictly, refusing any text this would change. One pass writes each line's
    state into lists through a node index; an m still None is a missing node.
    """
    nodes, adjacency = g.nodes, g.adjacency
    index = {u: k for k, u in enumerate(nodes)}
    p: list[Optional[int]] = [None] * len(nodes)
    m: list[Optional[bool]] = [None] * len(nodes)
    for lineno, parts in text_fields(text):
        if len(parts) != 3:
            raise ConfigFormatError(f"line {lineno}: expected 'id p m'")
        try:
            i = int(parts[0])
            j = None if parts[1] == "-" else int(parts[1])
        except ValueError:  # int() refuses decimal digits only past its int-string digit limit
            digits = parts[0].isdecimal() and (parts[1] == "-" or parts[1].isdecimal())
            why = "integer field too long" if digits else "non-integer field"
            raise ConfigFormatError(f"line {lineno}: {why}") from None
        if parts[2] not in ("t", "f"):
            raise ConfigFormatError(f"line {lineno}: m must be 't' or 'f'")
        k = index.get(i)
        if k is None:
            raise ConfigFormatError(f"line {lineno}: node {i} not in graph")
        if m[k] is not None:
            raise ConfigFormatError(f"line {lineno}: duplicate node {i}")
        row = adjacency[i]
        p[k] = row[row.index(j)] if j in row else None  # the graph's own object for j
        m[k] = parts[2] == "t"
    if None in m:
        missing = [u for u, mk in zip(nodes, m) if mk is None]
        raise ConfigFormatError(f"missing state for nodes {sorted(missing)}")
    return Configuration(nodes, tuple(p), tuple(m))


def pr_married(c: Configuration, g: Graph, i: int) -> bool:
    """True iff i and its pointee point at each other."""
    index, p = c._index, c.p
    j = p[index[i]]
    return j is not None and p[index[j]] == i


def classify(c: Configuration, g: Graph, i: int) -> PredicateClass:
    """The unique holding class among the five per-process predicates, married
    as ``pr_married`` reads it. Needs ``c.nodes == g.nodes``, as ``_guard`` does."""
    index, p = c._index, c.p
    j = p[k := index[i]]
    if j is not None:
        if p[kj := index[j]] == i:
            return MARRIED
        q = p[kj]
        return CONDEMNED if q is not None and p[index[q]] == j else WAITING
    for kj in g.around[k]:
        q = p[kj]
        if q is None or p[index[q]] != g.nodes[kj]:
            return FREE
    return DEAD


def marriage_suitors(c: Configuration, g: Graph, i: int) -> tuple[int, ...]:
    """Neighbors currently pointing at i, sorted ascending."""
    nodes, p = g.nodes, c.p
    return tuple(nodes[kj] for kj in g.around[c._index[i]] if p[kj] == i)


def seduction_candidates(
    c: Configuration, g: Graph, i: int, semantics: RuleSemantics = STANDARD
) -> tuple[int, ...]:
    """Unmarried-flagged null-pointer neighbors courtable by i."""
    nodes, p, m, rank = g.nodes, c.p, c.m, g.rank
    k = c._index[i]
    # with the guard stripped every neighbor qualifies: identifiers are nonnegative
    above = rank[k] if semantics.seduction_requires_larger_id else -1
    return tuple(
        nodes[kj] for kj in g.around[k] if p[kj] is None and not m[kj] and rank[kj] > above)


def _guard(c: Configuration, g: Graph, i: int, semantics: RuleSemantics) -> Optional[Rule]:
    """The four guards in reporting order. The update clause (the flag is
    not whether the pointee points back) is tested per pointer branch; every
    other clause is written once."""
    p, m = c.p, c.m
    j = p[k := c._index[i]]
    if j is None:
        if m[k]:
            return UPDATE
        around = g.around[k]
        for ku in around:
            if p[ku] == i:
                return MARRIAGE
        rank = g.rank
        above = rank[k] if semantics.seduction_requires_larger_id else -1
        for ku in around:
            if p[ku] is None and not m[ku] and rank[ku] > above:
                return SEDUCTION
        return None
    if p[kj := c._index[j]] == i:
        return None if m[k] else UPDATE
    if m[k]:
        return UPDATE
    if m[kj] or g.rank[kj] <= g.rank[k]:
        return ABANDONMENT
    return None


def enabled_rules(
    c: Configuration, g: Graph, i: int, semantics: RuleSemantics = STANDARD
) -> tuple[Rule, ...]:
    """``enabled_rule`` as a tuple, ``()`` or one rule, for the audit. At most
    one guard holds, as each conjunction holds a clause every other negates;
    ``tests/oracles.literal_guards`` decides the four apart and checks it.
    Needs ``c.nodes == g.nodes``, as for ``enabled_rule``."""
    return _HELD[_guard(c, g, i, semantics)]


def enabled_rule(
    c: Configuration, g: Graph, i: int, semantics: RuleSemantics = STANDARD
) -> Optional[Rule]:
    """The enabled rule at i, or None. At most one guard holds, as each
    conjunction holds a clause every other negates (update: a wrong flag;
    abandonment: a pointer; seduction: no suitor), so ``_guard`` returns the
    first; ``tests/oracles.literal_guards`` decides the four apart to check it.
    Needs ``c.nodes == g.nodes``: neighbors are read at ``g.around``'s positions."""
    return _guard(c, g, i, semantics)


def command_target(
    c: Configuration,
    g: Graph,
    i: int,
    rule: Rule,
    semantics: RuleSemantics = STANDARD,
    marriage_choice: Optional[int] = None,
) -> tuple[Optional[int], bool]:
    """The ``(p, m)`` pair the rule's command writes for i. No guard is evaluated:
    every caller already holds the rule enabled at i.

    This is the one command: the run and the search's branches write through
    it, and the audit's replay takes its picks from it: the suitor
    ``marriage_choice``, by default the largest of ``marriage_suitors`` (the
    first of equals), and the largest of ``seduction_candidates``. Raises
    ValueError when the command has nothing to act on: no suitor, a choice
    that is no suitor, no candidate, or a null pointer to abandon.
    """
    index, p, m, ident = c._index, c.p, c.m, g.ident
    j, mi = p[k := index[i]], m[k]
    if rule is UPDATE:
        return (None, False) if j is None else (j, p[index[j]] == i)
    if rule is MARRIAGE and marriage_choice is not None:
        if marriage_choice not in g.adjacency[i] or p[kc := index[marriage_choice]] != i:
            raise ValueError(f"node {marriage_choice} is not a suitor of {i}")
        return g.nodes[kc], mi
    if rule is MARRIAGE or rule is SEDUCTION:
        marrying = rule is MARRIAGE
        picks = marriage_suitors(c, g, i) if marrying else seduction_candidates(c, g, i, semantics)
        if not picks:
            raise ValueError(f"{rule} at node {i} has no {'suitor' if marrying else 'candidate'}")
        return max(picks, key=ident.__getitem__), mi
    if j is None:
        raise ValueError(f"abandonment at node {i} has a null pointer")
    return (None, True) if mi else (None, False)


def enabled_nodes(
    c: Configuration,
    g: Graph,
    semantics: RuleSemantics = STANDARD,
    nodes: Optional[Iterable[int]] = None,
) -> dict[int, Rule]:
    """Map of every eligible node (of ``nodes``, all by default) to its
    enabled rule."""
    out = {}
    for i in g.nodes if nodes is None else nodes:
        r = enabled_rule(c, g, i, semantics)
        if r is not None:
            out[i] = r
    return out
