"""The four benchmark workloads: their generated inputs, their CLI commands,
and the checks every command's output must pass.

Each workload is named for the one layer it alone stresses:

seq_large     run + verify under two sequential daemons on a 1 000-node
              graph. About 2 100-2 400 single-move steps per run, so any O(n)
              cost paid per step (configuration copy and index rebuild,
              pending bookkeeping, select's sort, the married-pair scan)
              dominates.
conc_large    run + verify under the synchronous, fair and random
              distributed daemons on a 4 000-node graph. 14-34 steps but
              10 000-11 600 moves per run: cost is guard evaluation and the
              trace write and parse. A per-step fix should leave it
              unchanged; per-move bookkeeping shows up here as a slowdown.
matrix_small  one experiment over every generator family, n from 2 to 200,
              all six policy kinds and seven seeds (840 tiny runs), so the
              fixed per-run costs of cli, graph and audit set-up dominate.
search_small  exhaustive search with marriage branching from every
              configuration of K4, the tight paw, C5 and the bull: only
              verifier.exhaustive_search and its tiny apply_step calls.

All inputs are derived from the workload seed, so a seed reproduces them.
The graph sizes keep one pass at a few seconds on one core, so that a run of
20 s gives enough passes for its median to be steady.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from typing import Callable
from pathlib import Path


@dataclass
class Command:
    """One CLI invocation; ``outputs`` are files it writes, digested with
    its stdout."""

    label: str
    kind: str  # run | verify | experiment | search
    argv: list[str]
    outputs: dict[str, Path] = field(default_factory=dict)
    graph: Path | None = None  # input graph, for the independent output checks
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[..., list[Command]]  # (stabmatch modules, workdir, seed)


def _write_gnm(sm, path: Path, n: int, seed: int) -> Path:
    g = sm.graph.generate("random_gnm", n, 3 * n, seed)
    path.write_text(sm.graph.write_graph(g))
    return path


def _run_and_verify(sm, workdir: Path, seed: int, n: int, policies) -> list[Command]:
    graph = _write_gnm(sm, workdir / f"gnm{n}.txt", n, seed)
    commands = []
    for policy in policies:
        tag = policy.replace(":", "-")
        trace = workdir / f"{tag}.jsonl"
        commands.append(Command(
            f"run:{policy}", "run",
            ["run", "--graph", str(graph), "--init", f"random:{seed}",
             "--policy", policy, "--seed", str(seed), "--trace-out", str(trace)],
            outputs={"trace": trace}, graph=graph,
        ))
        commands.append(Command(
            f"verify:{policy}", "verify", ["verify", "--trace", str(trace)],
            expect={"same_report_as": f"run:{policy}"},
        ))
    return commands


def setup_seq_large(sm, workdir: Path, seed: int) -> list[Command]:
    return _run_and_verify(sm, workdir, seed, 1000, (
        "sequential_random", "sequential_adversarial_heuristic:max_degree"))


def setup_conc_large(sm, workdir: Path, seed: int) -> list[Command]:
    return _run_and_verify(sm, workdir, seed, 4000, (
        "synchronous", "distributed_fair", "distributed_random"))


MATRIX_GRAPHS = (
    [("path", n) for n in (2, 5, 13, 40, 200)]
    + [("cycle", n) for n in (3, 7, 29, 120)]
    + [("complete", n) for n in (2, 4, 8, 16)]
    + [("star", n) for n in (5, 21, 100)]
    + [("random_gnm", n, m) for n, m in ((10, 15), (30, 60), (60, 120), (100, 300))]
)
MATRIX_SEEDS = 7
# All six policy kinds. The adversarial strategies are fixed rather than
# drawn from the seed: they change a run's cost, and the seed should only
# vary instances of the same work.
MATRIX_POLICIES = (
    "sequential_random",
    "sequential_adversarial_heuristic:min_id",
    "synchronous",
    "distributed_random",
    "distributed_adversarial_heuristic:max_degree",
    "distributed_fair",
)


def setup_matrix_small(sm, workdir: Path, seed: int) -> list[Command]:
    rng = random.Random(seed)
    graphs = []
    for entry in MATRIX_GRAPHS:
        spec = {"kind": entry[0], "n": entry[1]}
        if entry[0] == "random_gnm":
            spec.update(m=entry[2], seed=rng.randrange(1 << 30))
        graphs.append(spec)
    seeds = [seed * 1000 + k for k in range(MATRIX_SEEDS)]
    spec_path = workdir / "matrix.json"
    spec_path.write_text(json.dumps(
        {"graphs": graphs, "policies": MATRIX_POLICIES, "seeds": seeds, "inits": ["random"]},
        indent=1,
    ))
    runs = len(graphs) * len(MATRIX_POLICIES) * len(seeds)
    return [Command("experiment:matrix", "experiment",
                    ["experiment", "--spec", str(spec_path)], expect={"runs": runs})]


# Edge lists on nodes 0..n-1. The paw labeling reaches its bound 3n + 2m = 20
# exactly; K4's worst case is also 20. Both are fixed; C5 and the bull get a
# seeded relabeling, since identifier order changes the schedules searched.
SEARCH_GRAPHS = (
    ("K4", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), 20, False),
    ("paw", 4, ((0, 1), (0, 3), (1, 3), (2, 3)), 20, False),
    ("C5", 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), None, True),
    ("bull", 5, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4)), None, True),
)


def setup_search_small(sm, workdir: Path, seed: int) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for name, n, edges, worst, relabel in SEARCH_GRAPHS:
        perm = list(range(n))
        if relabel:
            rng.shuffle(perm)
        relabeled = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        path = workdir / f"{name}.txt"
        path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in relabeled))
        expect = {} if worst is None else {"worst_steps": worst}
        commands.append(Command(
            f"search:{name}", "search",
            ["search", "--graph", str(path), "--init", "all", "--branch-marriage"],
            graph=path, expect=expect,
        ))
    return commands


WORKLOADS = {w.name: w for w in (
    Workload("seq_large",
             "about 2 300 single-move steps per run at n = 1 000, so O(n) per-step costs dominate",
             setup_seq_large),
    Workload("conc_large",
             "about 10 000 moves in 14-34 steps per run at n = 4 000: guard evaluation and trace I/O",
             setup_conc_large),
    Workload("matrix_small",
             "840 tiny experiment runs, so fixed per-run costs in cli, graph and audit set-up dominate",
             setup_matrix_small),
    Workload("search_small",
             "exhaustive search on four graphs of 4-5 nodes: branch generation, memo hashing, tiny steps",
             setup_search_small),
)}


# -- output checks, independent of the program's own audit -----------------


def _read_edges(path: Path) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln.split() for ln in path.read_text().splitlines() if ln.strip()]
    return int(lines[0][0]), [(int(u), int(v)) for u, v in lines[1:]]


def check_run_trace(graph: Path, trace_text: str) -> list[str]:
    """Problems with a run's trace: it must end stable, within 3n + 2m steps,
    in a configuration whose mutual pointers form a maximal matching."""
    n, edges = _read_edges(graph)
    try:
        footer = json.loads(trace_text.rstrip("\n").rsplit("\n", 1)[-1])
        if footer.get("type") != "footer":
            raise ValueError
        pointer = {}
        for line in footer["final"].splitlines():
            node, p, _ = line.split()
            pointer[int(node)] = None if p == "-" else int(p)
    except (ValueError, KeyError, AttributeError):
        return ["trace does not end in a readable footer"]
    problems = []
    if not footer.get("stable"):
        problems.append("trace does not end stable")
    if footer.get("steps", 0) > 3 * n + 2 * len(edges):
        problems.append(f"{footer.get('steps')} steps exceed 3n + 2m")
    adjacent = set(edges)
    for u, v in pointer.items():
        if v is not None and (min(u, v), max(u, v)) not in adjacent:
            problems.append(f"node {u} points at non-neighbor {v}")
    matched = {u for u, v in pointer.items() if v is not None and pointer.get(v) == u}
    free_edges = [(u, v) for u, v in edges if u not in matched and v not in matched]
    if free_edges:
        problems.append(f"final matching is not maximal: edge {free_edges[0]} is addable")
    return problems


def check_stdout(command: Command, stdout: str, by_label: dict[str, str]) -> list[str]:
    """Problems with a command's printed output (exit code is checked apart)."""
    problems = []
    if command.kind in ("run", "verify") and "\naudit: pass\n" not in "\n" + stdout:
        problems.append("audit verdict is not pass")
    same = command.expect.get("same_report_as")
    if same is not None and not by_label.get(same, "").endswith(stdout):
        problems.append(f"report differs from the one {same} printed")
    if command.kind == "experiment":
        last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
        want = f"experiment: pass runs={command.expect['runs']} failures=0"
        if last != want:
            problems.append(f"summary ends {last!r}, expected {want!r}")
    if command.kind == "search":
        fields = dict(re.findall(r"^(\w+): (\S+)$", stdout, re.M))
        if fields.get("search") != "ok" or fields.get("complete") != "true":
            problems.append("search is not complete and ok")
        n, edges = _read_edges(command.graph)
        worst = _int_field(stdout, "worst_steps")
        if not 0 <= worst <= 3 * n + 2 * len(edges):
            problems.append(f"worst_steps {worst} outside 0..3n+2m")
        if "worst_steps" in command.expect and worst != command.expect["worst_steps"]:
            problems.append(f"worst_steps {worst}, expected {command.expect['worst_steps']}")
    return problems


def _int_field(stdout: str, name: str) -> int:
    """The value of a ``name: <integer>`` line of search output, or -1."""
    match = re.search(rf"^{name}: (\d+)$", stdout, re.M)
    return int(match.group(1)) if match else -1


def search_explored(stdout: str) -> int:
    return max(_int_field(stdout, "explored_states"), 0)
