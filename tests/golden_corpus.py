"""The golden corpus: traces, audit reports, an experiment summary and a
search result, produced by the package and compared byte for byte with the
files committed under ``tests/golden/``.

The files fix the output contract, so that a refactor or an optimization
which changes a single byte of a trace, report or summary fails the suite.
They cover every policy kind and every heuristic strategy on a random graph
through the CLI, the same on a graph with a custom identifier map (which
the trace file format cannot carry, so its records are dumped as text), the
failing audit of the guard-stripped protocol variant, one experiment summary
and one exhaustive search with its witness trace.

Regenerate the files only for an intended change of the contract:

    PYTHONPATH=src python -m tests.golden_corpus
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from stabmatch.cli import main
from stabmatch.graph import Graph, check_distance2_unique, generate, write_graph
from stabmatch.protocol import Configuration, RuleSemantics, random_configuration
from stabmatch.scheduler import (
    HEURISTIC_STRATEGIES,
    POLICY_KINDS,
    DaemonPolicy,
    Trace,
    run,
)
from stabmatch.verifier import audit_trace

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

BROKEN = RuleSemantics(seduction_requires_larger_id=False)


def all_policies() -> list[str]:
    """Every policy kind, with every strategy for the adversarial kinds."""
    out = []
    for kind in POLICY_KINDS:
        if kind.endswith("adversarial_heuristic"):
            out.extend(f"{kind}:{s}" for s in HEURISTIC_STRATEGIES)
        else:
            out.append(kind)
    return out


def custom_ident_graph() -> Graph:
    """A random graph whose identifiers repeat beyond two hops, so every
    identifier-ordered choice has ties broken by node key."""
    base = generate("random_gnm", 20, 34, seed=5)
    ident: dict[int, int] = {}
    for u in base.nodes:
        near = set(base.adjacency[u])
        for v in base.adjacency[u]:
            near.update(base.adjacency[v])
        taken = {ident[v] for v in near if v in ident}
        ident[u] = next(k for k in (7, 3, 11, 5, 2, 13, 17, 19, 23, 29, 31, 37,
                                    41, 43, 47, 53, 59, 61, 67, 71) if k not in taken)
    g = Graph(base.nodes, base.adjacency, ident)
    assert check_distance2_unique(g) == []
    assert len(set(ident.values())) < g.n
    return g


def dump_trace(trace: Trace) -> str:
    """Text form of a trace whose graph the trace file format cannot hold."""
    lines = [
        f"policy {trace.policy} seed {trace.seed} steps {trace.steps} "
        f"moves {trace.moves} rounds {trace.rounds} "
        f"stable {'yes' if trace.stable else 'no'} max_steps {trace.max_steps}",
        "initial",
        trace.initial.to_text().rstrip("\n"),
    ]
    for record in trace.records:
        moves = " ".join(
            f"{mv.node}:{mv.rule.value}"
            + ("" if mv.target is None else f":{mv.target}")
            for mv in record.moves
        )
        lines.append(f"step {record.index} round {record.round_index} {moves}")
    lines.append("final")
    lines.append(trace.final.to_text().rstrip("\n"))
    return "\n".join(lines) + "\n"


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _tag(policy: str) -> str:
    return policy.replace(":", "-")


def build() -> dict[str, str]:
    """Every golden file name mapped to the text the package produces now."""
    files: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        graph = work / "gnm.g"
        graph.write_text(write_graph(generate("random_gnm", 24, 48, seed=3)))
        for policy in all_policies():
            trace_path = work / "t.jsonl"
            code, out = _cli(["run", "--graph", str(graph), "--init", "random:5",
                              "--policy", policy, "--seed", "11",
                              "--trace-out", str(trace_path)])
            files[f"gnm24-{_tag(policy)}.jsonl"] = trace_path.read_text()
            files[f"gnm24-{_tag(policy)}.run.txt"] = f"exit {code}\n{out}"

        spec = work / "spec.json"
        spec.write_text(json.dumps({
            "graphs": [{"kind": "cycle", "n": 9},
                       {"kind": "random_gnm", "n": 16, "m": 30, "seed": 2}],
            "policies": ["sequential_random", "distributed_fair",
                         "distributed_adversarial_heuristic:starve_one"],
            "seeds": [1, 2, 3],
            "inits": ["allnull", "random"],
        }))
        code, out = _cli(["experiment", "--spec", str(spec)])
        files["experiment.txt"] = f"exit {code}\n{out}"

        paw = work / "paw.g"
        paw.write_text("4\n0 1\n0 3\n1 3\n2 3\n")
        witness = work / "witness.jsonl"
        code, out = _cli(["search", "--graph", str(paw), "--init", "all",
                          "--witness-out", str(witness)])
        files["search-paw.txt"] = f"exit {code}\n{out}"
        files["search-paw-witness.jsonl"] = witness.read_text()

    g = custom_ident_graph()
    c0 = random_configuration(g, 4)
    for policy in all_policies():
        trace = run(g, c0, DaemonPolicy.parse(policy, 8))
        files[f"ident20-{_tag(policy)}.trace.txt"] = dump_trace(trace)
        files[f"ident20-{_tag(policy)}.report.txt"] = audit_trace(trace).to_text()

    triangle = Graph.from_edges([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    cycle6 = generate("cycle", 6)
    broken_cases = (
        ("broken-triangle", triangle, Configuration.all_null(triangle),
         DaemonPolicy("sequential_adversarial_heuristic", "max_id")),
        ("broken-cycle6", cycle6, random_configuration(cycle6, 0),
         DaemonPolicy("distributed_fair", seed=0)),
    )
    for name, bg, bc0, policy in broken_cases:
        trace = run(bg, bc0, policy, semantics=BROKEN)
        files[f"{name}.trace.txt"] = dump_trace(trace)
        files[f"{name}.report.txt"] = audit_trace(trace, semantics=BROKEN).to_text()
    return files


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for old in GOLDEN_DIR.iterdir():
        old.unlink()
    for name, text in sorted(build().items()):
        (GOLDEN_DIR / name).write_text(text)
    print(f"wrote {len(list(GOLDEN_DIR.iterdir()))} files to {GOLDEN_DIR}")
