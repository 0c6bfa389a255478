"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's fast paths: maximality is decided by
trying every superset, rounds are recomputed with a full eligibility scan at
every configuration, the five predicates are transcribed literally, and the
reference daemon sorts the enabled set and rebuilds its pending and owed
bookkeeping from scratch on every step. If
an oracle and the implementation ever disagree, the test fails and one of
them is wrong.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from stabmatch.protocol import Configuration, enabled_rule
from stabmatch.scheduler import (
    StepRecord,
    Trace,
    apply_step,
    default_step_cap,
    replay_step,
)


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


def rescan_rounds(trace: Trace, semantics=None):
    """Round partition recomputed with full eligibility scans at every
    configuration, O(steps * n * degree)."""
    from stabmatch.protocol import STANDARD

    semantics = semantics or STANDARD
    g = trace.graph

    def eligible(c):
        return {i for i in g.nodes if enabled_rule(c, g, i, semantics) is not None}

    configs = [trace.initial]
    for record in trace.records:
        configs.append(replay_step(configs[-1], g, record.moves, semantics))

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
    from stabmatch.protocol import STANDARD, ProcessState, Rule

    semantics = semantics or STANDARD
    ident = g.ident
    configs = [c0]
    for moves in step_moves:
        c = configs[-1]
        states = {i: ProcessState(c.p_of(i), c.m_of(i)) for i in g.nodes}
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
            states[i] = ProcessState(p, m)
        configs.append(Configuration.from_states(g, states))
    return configs


def all_sequential_step_counts(g, c0: Configuration, limit=200):
    """Step counts of every sequential schedule from c0, by full recursion.

    Branches over every single enabled process and every marriage suitor.
    ``limit`` guards against runaway recursion on a broken protocol.
    """
    from stabmatch.protocol import Rule, marriage_suitors
    from stabmatch.scheduler import apply_step

    counts = set()

    def walk(c, depth):
        assert depth <= limit, "sequential schedule exceeded the recursion guard"
        enabled = [i for i in g.nodes if enabled_rule(c, g, i) is not None]
        if not enabled:
            counts.add(depth)
            return
        for i in enabled:
            if enabled_rule(c, g, i) is Rule.MARRIAGE:
                for suitor in marriage_suitors(c, g, i):
                    c2, _ = apply_step(c, g, [i], marriage_choices={i: suitor})
                    walk(c2, depth + 1)
            else:
                c2, _ = apply_step(c, g, [i])
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


def starvation_streaks(trace: Trace):
    """Longest run of consecutive steps each node stayed enabled, unselected
    and undisturbed, recomputed from the configurations."""
    g = trace.graph
    c = trace.initial
    streak = {i: 0 for i in g.nodes}
    worst = {i: 0 for i in g.nodes}
    for record in trace.records:
        moved = {mv.node for mv in record.moves}
        for i in g.nodes:
            if enabled_rule(c, g, i) is None or i in moved:
                streak[i] = 0
            else:
                streak[i] += 1
                worst[i] = max(worst[i], streak[i])
        c = replay_step(c, g, record.moves)
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
