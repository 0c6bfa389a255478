"""Acceptance suite: the protocol's headline guarantees checked end to end.

Each criterion prints one PASS/FAIL line (run pytest with -rP or -s to see
them on success). The shared matrix spans every graph family, every policy
kind and n from 1 to 200 with seeded well-formed random initial states.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from stabmatch.graph import Graph, generate
from stabmatch.protocol import (
    Configuration,
    Rule,
    RuleSemantics,
    random_configuration,
)
from stabmatch.scheduler import (
    DaemonPolicy,
    HEURISTIC_STRATEGIES,
    Move,
    run,
    write_trace,
)
from stabmatch.verifier import (
    audit_trace,
    check_maximal,
    exhaustive_search,
    extract_matching,
)

from .conftest import SMALL_CONNECTED, config_of, small_graph
from .oracles import rescan_rounds
from .test_verifier import forge_trace

BROKEN = RuleSemantics(seduction_requires_larger_id=False)

MATRIX_GRAPHS = (
    [("path", n, None) for n in (1, 2, 3, 5, 13, 40, 200)]
    + [("cycle", n, None) for n in (3, 4, 7, 29, 120)]
    + [("complete", n, None) for n in (2, 4, 8, 16)]
    + [("star", n, None) for n in (2, 5, 21, 100)]
    + [("random_gnm", n, m)
       for n, m in ((10, 15), (30, 60), (60, 120), (100, 300), (120, 240), (200, 400))]
)
MATRIX_KINDS = (
    "sequential_random",
    "sequential_adversarial_heuristic",
    "synchronous",
    "distributed_random",
    "distributed_adversarial_heuristic",
    "distributed_fair",
)
MATRIX_SEEDS = range(7)


def _verdict(num, name, ok, detail=""):
    suffix = f" - {detail}" if detail else ""
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def matrix():
    """All runs shared by criteria 1, 2, 3 and 5: 25 graphs x 6 policies x
    7 seeds = 1050 traces from seeded random well-formed initial states."""
    t0 = time.time()
    runs = []
    for gidx, (kind, n, m) in enumerate(MATRIX_GRAPHS):
        g = generate(kind, n, m, seed=1000 + gidx)
        for pidx, policy_kind in enumerate(MATRIX_KINDS):
            for seed in MATRIX_SEEDS:
                strategy = (
                    HEURISTIC_STRATEGIES[seed % len(HEURISTIC_STRATEGIES)]
                    if policy_kind.endswith("adversarial_heuristic")
                    else None
                )
                policy = DaemonPolicy(policy_kind, strategy, seed)
                c0 = random_configuration(g, seed * 7919 + gidx * 101 + pidx)
                runs.append((g, policy, run(g, c0, policy)))
    elapsed = time.time() - t0
    assert len(runs) >= 1000
    return runs, elapsed


def test_criterion_1_terminal_maximal_matching(matrix):
    runs, elapsed = matrix
    bad = []
    for g, policy, trace in runs:
        if not trace.stable:
            bad.append((policy.describe(), "did not stabilize"))
            continue
        witness = check_maximal(extract_matching(trace.final, g), g)
        if witness is not None:
            bad.append((policy.describe(), f"augmenting edge {witness}"))
    sizes = sorted({g.n for g, _, _ in runs})
    _verdict(
        1, "stable configurations define maximal matchings",
        not bad and elapsed < 60,
        f"{len(runs)} runs over n in [{sizes[0]}, {sizes[-1]}], "
        f"{len(bad)} failures, matrix built in {elapsed:.1f}s (target < 60s)",
    )


def test_criterion_2_step_bound(matrix):
    runs, _ = matrix
    violations = [
        (g.n, g.m, policy.describe(), trace.steps)
        for g, policy, trace in runs
        if trace.steps > 3 * g.n + 2 * g.m
    ]
    worst = max(trace.steps / (3 * g.n + 2 * g.m) for g, _, trace in runs)
    _verdict(
        2, "steps within 3n+2m on every trace",
        not violations,
        f"{len(runs)} traces, tightest ratio {worst:.2f}, "
        f"{len(violations)} violations",
    )


def test_criterion_3_round_bound(matrix):
    runs, _ = matrix
    fair = [
        (g, policy, trace)
        for g, policy, trace in runs
        if policy.kind in ("synchronous", "distributed_fair")
    ]
    violations = []
    for g, policy, trace in fair:
        rounds, _ = rescan_rounds(trace)
        if rounds > 2 * g.n + 1:
            violations.append((g.n, policy.describe(), rounds))
    _verdict(
        3, "rounds within 2n+1 under fair and synchronous daemons",
        bool(fair) and not violations,
        f"{len(fair)} fair/synchronous traces, {len(violations)} violations",
    )


def test_criterion_4_exhaustive_small_graphs():
    t0 = time.time()
    worst_report = []
    ok = True
    for name in sorted(SMALL_CONNECTED):
        g = small_graph(name)
        result = exhaustive_search(g, "all", branch_marriage=True, budget=1_000_000)
        worst_report.append(f"{name}:{result.worst_steps}/{result.bound}")
        if not (
            result.complete
            and not result.livelock
            and result.worst_steps <= result.bound
            and result.all_leaves_maximal
        ):
            ok = False
    elapsed = time.time() - t0
    _verdict(
        4, "exhaustive search over all connected graphs with n <= 4",
        ok and elapsed < 600,
        f"worst/bound per graph: {' '.join(worst_report)}; {elapsed:.1f}s (target < 600s)",
    )


def test_criterion_5_trace_invariants(matrix):
    runs, _ = matrix
    audit_failures = []
    for g, policy, trace in runs:
        report = audit_trace(trace)
        if not report.all_pass:
            audit_failures.append(
                (policy.describe(), [c.name for c in report.failures()])
            )

    # negative controls must fail with the right localization
    controls_ok = True
    p2 = small_graph("K2")
    c0 = config_of(p2, {0: (None, True), 1: (None, False)})
    forged_update = forge_trace(p2, c0, [
        (Move(0, Rule.UPDATE),),
        (Move(0, Rule.SEDUCTION),),
        (Move(1, Rule.MARRIAGE, 0),),
        (Move(0, Rule.UPDATE), Move(1, Rule.UPDATE)),
        (Move(0, Rule.UPDATE),),
    ])
    check = audit_trace(forged_update).checks["update_limit"]
    controls_ok &= check.verdict == "fail" and check.counterexample_step == 4

    g, c0 = _two_suitors()
    forged_divorce = forge_trace(g, c0, [
        (Move(3, Rule.MARRIAGE, 2),),
        (Move(3, Rule.UPDATE), Move(2, Rule.UPDATE)),
        (Move(3, Rule.ABANDONMENT),),
    ])
    check = audit_trace(forged_divorce).checks["marriage_persistence"]
    controls_ok &= check.verdict == "fail" and check.counterexample_step == 2

    churn = forge_trace(p2, Configuration.all_null(p2), [
        (Move(0, Rule.SEDUCTION),), (Move(0, Rule.ABANDONMENT),),
    ] * 2)
    check = audit_trace(churn).checks["edge_move_limit"]
    controls_ok &= check.verdict == "fail" and check.counterexample_step == 3

    _verdict(
        5, "trace invariant audits",
        not audit_failures and controls_ok,
        f"{len(runs)} audited traces, {len(audit_failures)} failures; "
        f"forged controls localized: {controls_ok}",
    )


def _two_suitors():
    g = Graph.from_edges([1, 2, 3], [(1, 3), (2, 3)])
    c0 = Configuration.from_states(g, {1: (3, False), 2: (3, False), 3: (None, False)})
    return g, c0


def test_criterion_6_golden_scenario():
    g, c0 = _two_suitors()
    panel_b = config_of(g, {1: (3, False), 2: (3, False), 3: (2, False)})
    panel_c = config_of(g, {1: (3, False), 2: (3, True), 3: (2, True)})
    panel_d = config_of(g, {1: (None, False), 2: (3, True), 3: (2, True)})

    # the four-panel walk: marriage by the center (larger suitor wins),
    # both updates at once, then the spurned suitor abandons
    from stabmatch.scheduler import apply_step

    c, moves = apply_step(c0, g, [3])
    ok = moves == (Move(3, Rule.MARRIAGE, 2),) and c == panel_b
    c, moves = apply_step(c, g, [2, 3])
    ok &= {mv.rule for mv in moves} == {Rule.UPDATE} and c == panel_c
    c, moves = apply_step(c, g, [1])
    ok &= moves == (Move(1, Rule.ABANDONMENT),) and c == panel_d

    # sequential linearization reaches the same final configuration
    trace = run(g, c0, DaemonPolicy("sequential_adversarial_heuristic", "max_id"))
    sequence = [(mv.node, mv.rule) for rec in trace.records for mv in rec.moves]
    ok &= sequence == [
        (3, Rule.MARRIAGE), (3, Rule.UPDATE), (2, Rule.UPDATE), (1, Rule.ABANDONMENT)
    ]
    ok &= trace.stable and trace.final == panel_d
    ok &= extract_matching(trace.final, g) == {(2, 3)}
    _verdict(6, "golden two-suitors scenario", ok,
             "marriage to the larger suitor, both updates, abandonment")


def test_criterion_7_determinism(tmp_path):
    samples = [
        ("random_gnm", 30, 60, "distributed_fair", None),
        ("random_gnm", 30, 60, "distributed_random", None),
        ("cycle", 15, None, "sequential_random", None),
        ("complete", 8, None, "distributed_adversarial_heuristic", "starve_one"),
    ]
    ok = True
    for kind, n, m, policy_kind, strategy in samples:
        g = generate(kind, n, m, 77)
        c0 = random_configuration(g, 42)
        policy = DaemonPolicy(policy_kind, strategy, seed=5)
        ok &= write_trace(run(g, c0, policy)) == write_trace(run(g, c0, policy))

    from stabmatch.cli import main

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "graphs": [{"kind": "random_gnm", "n": 20, "m": 40, "seed": 3}],
        "policies": ["synchronous", "distributed_fair", "sequential_random"],
        "seeds": [1, 2, 3, 4],
        "inits": ["random"],
    }))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["experiment", "--spec", str(spec), "--out", str(a)])
    main(["experiment", "--spec", str(spec), "--out", str(b)])
    ok &= a.read_bytes() == b.read_bytes()
    _verdict(7, "bit-identical reruns", ok,
             "trace bytes and experiment summaries repeat exactly")


def test_criterion_8_broken_variant_detected():
    triangle = small_graph("C3")
    c0 = Configuration.all_null(triangle)

    search = exhaustive_search(triangle, c0, semantics=BROKEN)
    search_detects = search.livelock and not search.ok

    trace = run(
        triangle, c0,
        DaemonPolicy("sequential_adversarial_heuristic", "max_id"),
        semantics=BROKEN,
    )
    report = audit_trace(trace, semantics=BROKEN)
    failed = {c.name for c in report.failures()}
    run_detects = (not trace.stable) and {"stable_is_maximal", "step_bound"} <= failed

    _verdict(
        8, "harness detects the guard-stripped protocol",
        search_detects and run_detects,
        f"search found a livelock cycle of {len(search.livelock_cycle)} steps; "
        f"capped run failed {sorted(failed)}",
    )
