"""Per-process state and the four guarded rules of the matching protocol.

Every process ``i`` owns a pointer ``p`` (a neighbor or null) and a boolean
flag ``m`` advertising to neighbors whether ``i`` is married. All operations
here are pure functions of an immutable (Configuration, Graph) pair; a move
reads the pre-step states of the process and its neighbors and rewrites only
the process's own state.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .graph import Graph


class Rule(enum.Enum):
    UPDATE = "update"
    MARRIAGE = "marriage"
    SEDUCTION = "seduction"
    ABANDONMENT = "abandonment"

    def __str__(self) -> str:
        return self.value


class PredicateClass(enum.Enum):
    MARRIED = "married"
    WAITING = "waiting"
    CONDEMNED = "condemned"
    DEAD = "dead"
    FREE = "free"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ProcessState:
    p: Optional[int]
    m: bool


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


class ConfigFormatError(ValueError):
    """Raised for malformed configuration files; message carries the line."""


@dataclass(frozen=True)
class Configuration:
    """System state: one (p, m) pair per node, aligned with sorted node keys."""

    nodes: tuple[int, ...]
    p: tuple[Optional[int], ...]
    m: tuple[bool, ...]
    _index: dict[int, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {u: k for k, u in enumerate(self.nodes)}
        )

    def __hash__(self):
        return hash((self.nodes, self.p, self.m))

    def p_of(self, i: int) -> Optional[int]:
        return self.p[self._index[i]]

    def m_of(self, i: int) -> bool:
        return self.m[self._index[i]]

    def state(self, i: int) -> ProcessState:
        k = self._index[i]
        return ProcessState(self.p[k], self.m[k])

    def with_writes(self, writes: Mapping[int, ProcessState]) -> "Configuration":
        """New configuration with the given per-node states replaced.

        The result has the same node tuple, so it shares this configuration's
        node index instead of building its own; what remains O(n) is the copy
        of the two state tuples.
        """
        index = self._index
        p = list(self.p)
        m = list(self.m)
        for i, st in writes.items():
            k = index[i]
            p[k] = st.p
            m[k] = st.m
        derived = object.__new__(Configuration)
        derived.__dict__.update(nodes=self.nodes, p=tuple(p), m=tuple(m), _index=index)
        return derived

    @staticmethod
    def from_states(g: Graph, states: Mapping[int, ProcessState]) -> "Configuration":
        if set(states) != set(g.nodes):
            raise ValueError("states must cover exactly the graph's nodes")
        p = []
        m = []
        for i in g.nodes:
            st = states[i]
            if st.p is not None and st.p not in g.adjacency[i]:
                raise ValueError(f"p of node {i} must be a neighbor or null")
            p.append(st.p)
            m.append(bool(st.m))
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


def normalize(g: Graph, raw: Mapping[int, tuple] | Configuration) -> Configuration:
    """Coerce an arbitrary assignment into a well-formed configuration.

    Pointer values outside N(i) or null become null, m-values are coerced to
    booleans, missing nodes default to (null, false). Idempotent on
    well-formed input.
    """
    if isinstance(raw, Configuration):
        raw = {i: (raw.p_of(i), raw.m_of(i)) for i in raw.nodes}
    states = {}
    for i in g.nodes:
        p, m = raw.get(i, (None, False))
        if p is not None and p not in g.adjacency[i]:
            p = None
        states[i] = ProcessState(p, bool(m))
    return Configuration.from_states(g, states)


def random_configuration(g: Graph, seed: int) -> Configuration:
    """Seeded well-formed configuration: p uniform over N(i) plus null, m uniform."""
    rng = random.Random(seed)
    states = {}
    for i in g.nodes:
        choices = (None,) + g.adjacency[i]
        states[i] = ProcessState(rng.choice(choices), rng.random() < 0.5)
    return Configuration.from_states(g, states)


def parse_configuration(text: str, g: Graph) -> Configuration:
    """Parse "id p m" lines (p decimal or '-', m 't'/'f'), one per node.

    Out-of-neighborhood pointers are normalized to null so hand-written
    corrupt initial states remain loadable.
    """
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
    return normalize(g, raw)


def pr_married(c: Configuration, g: Graph, i: int) -> bool:
    """True iff i and its pointee point at each other."""
    j = c.p_of(i)
    return j is not None and c.p_of(j) == i


def classify(c: Configuration, g: Graph, i: int) -> PredicateClass:
    """The unique holding class among the five per-process predicates."""
    j = c.p_of(i)
    if j is not None:
        if c.p_of(j) == i:
            return PredicateClass.MARRIED
        if pr_married(c, g, j):
            return PredicateClass.CONDEMNED
        return PredicateClass.WAITING
    if all(pr_married(c, g, k) for k in g.adjacency[i]):
        return PredicateClass.DEAD
    return PredicateClass.FREE


def marriage_suitors(c: Configuration, g: Graph, i: int) -> tuple[int, ...]:
    """Neighbors currently pointing at i, sorted ascending."""
    return tuple(j for j in g.adjacency[i] if c.p_of(j) == i)


def seduction_candidates(
    c: Configuration, g: Graph, i: int, semantics: RuleSemantics = STANDARD
) -> tuple[int, ...]:
    """Unmarried-flagged null-pointer neighbors courtable by i."""
    ident = g.ident
    my_id = ident[i]
    return tuple(
        j
        for j in g.adjacency[i]
        if c.p_of(j) is None
        and not c.m_of(j)
        and (ident[j] > my_id or not semantics.seduction_requires_larger_id)
    )


def enabled_rules(
    c: Configuration, g: Graph, i: int, semantics: RuleSemantics = STANDARD
) -> tuple[Rule, ...]:
    """Every rule whose guard holds at i, evaluated independently.

    The guards are designed to be mutually exclusive, so this should never
    return more than one rule; the verifier audits exactly that, which is why
    this function must not short-circuit.
    """
    married = pr_married(c, g, i)
    mi = c.m_of(i)
    pi = c.p_of(i)
    out = []
    if mi != married:
        out.append(Rule.UPDATE)
    if mi == married and pi is None and marriage_suitors(c, g, i):
        out.append(Rule.MARRIAGE)
    if (
        mi == married
        and pi is None
        and not marriage_suitors(c, g, i)
        and seduction_candidates(c, g, i, semantics)
    ):
        out.append(Rule.SEDUCTION)
    if mi == married and pi is not None and c.p_of(pi) != i:
        j = pi
        if c.m_of(j) or g.ident[j] <= g.ident[i]:
            out.append(Rule.ABANDONMENT)
    return tuple(out)


def enabled_rule(
    c: Configuration, g: Graph, i: int, semantics: RuleSemantics = STANDARD
) -> Optional[Rule]:
    """The enabled rule at i, or None. Guard order is fixed for reporting."""
    j = c.p_of(i)
    married = j is not None and c.p_of(j) == i
    if c.m_of(i) != married:
        return Rule.UPDATE
    if j is None:
        if marriage_suitors(c, g, i):
            return Rule.MARRIAGE
        if seduction_candidates(c, g, i, semantics):
            return Rule.SEDUCTION
        return None
    if c.p_of(j) != i and (c.m_of(j) or g.ident[j] <= g.ident[i]):
        return Rule.ABANDONMENT
    return None


def command_target(
    c: Configuration,
    g: Graph,
    i: int,
    rule: Rule,
    semantics: RuleSemantics = STANDARD,
    marriage_choice: Optional[int] = None,
) -> ProcessState:
    """The new state the rule's command writes for i.

    ``marriage_choice`` overrides the default suitor pick (the largest
    identifier); it must be an actual suitor. Raises ValueError when the rule
    is not enabled at i.
    """
    if enabled_rule(c, g, i, semantics) != rule:
        raise ValueError(f"rule {rule} is not enabled at node {i}")
    if rule is Rule.UPDATE:
        return ProcessState(c.p_of(i), pr_married(c, g, i))
    if rule is Rule.MARRIAGE:
        suitors = marriage_suitors(c, g, i)
        if marriage_choice is None:
            choice = max(suitors, key=lambda j: g.ident[j])
        elif marriage_choice in suitors:
            choice = marriage_choice
        else:
            raise ValueError(f"node {marriage_choice} is not a suitor of {i}")
        return ProcessState(choice, c.m_of(i))
    if rule is Rule.SEDUCTION:
        cands = seduction_candidates(c, g, i, semantics)
        return ProcessState(max(cands, key=lambda j: g.ident[j]), c.m_of(i))
    if rule is Rule.ABANDONMENT:
        return ProcessState(None, c.m_of(i))
    raise ValueError(f"unknown rule: {rule}")


def enabled_nodes(
    c: Configuration, g: Graph, semantics: RuleSemantics = STANDARD
) -> dict[int, Rule]:
    """Map of every eligible node to its enabled rule."""
    out = {}
    for i in g.nodes:
        r = enabled_rule(c, g, i, semantics)
        if r is not None:
            out[i] = r
    return out
