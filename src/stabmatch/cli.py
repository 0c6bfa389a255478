"""Command-line interface.

Subcommands: gen, run, experiment, search, step, export-dot, verify.
Exit codes are a contract: 0 all checks pass, 1 audit or bound failure,
2 incomplete search, 64 usage error. All randomness flows from explicit
seeds, so every invocation is reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

from .graph import GENERATOR_KINDS, Graph, GraphFormatError, generate, read_graph, write_graph
from .protocol import (
    ConfigFormatError,
    Configuration,
    MutableConfiguration,
    STANDARD,
    classify,
    enabled_rule,
    parse_configuration,
    random_configuration,
)
from .scheduler import (
    DaemonPolicy,
    Execution,
    HEURISTIC_STRATEGIES,
    POLICY_KINDS,
    TraceFormatError,
    parse_trace,
    replay_step,
    round_bound,
    run,
    step_bound,
    trace_counters,
    write_trace,
)
from .verifier import (
    CorruptTraceError,
    audit_trace,
    configuration_count,
    count_text,
    exhaustive_search,
    extract_matching,
    witness_trace,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCOMPLETE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_graph(path: str) -> Graph:
    return read_graph(_read(path))


def _load_init(spec: str, g: Graph) -> Configuration:
    """Initial configuration source: allnull, random[:SEED], or a file."""
    if spec == "allnull":
        return Configuration.all_null(g)
    if spec == "random" or spec.startswith("random:"):
        _, _, seed = spec.partition(":")
        try:
            seed_value = int(seed) if seed else 0
        except ValueError:
            raise UsageError(f"bad random init seed in {spec!r}") from None
        return random_configuration(g, seed_value)
    return parse_configuration(_read(spec), g)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


def cmd_gen(args) -> int:
    try:
        g = generate(args.kind, args.n, args.m, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write(args.out, write_graph(g))
    # beside a graph on stdout, the counts go to stderr so a pipe reads the graph alone
    print(f"n={g.n} m={g.m}", file=sys.stderr if args.out in (None, "-") else sys.stdout)
    return EXIT_OK


def _print_report(report) -> int:
    """Print an audit report, name its first counterexample on stderr if it
    fails, and return the exit code: how run and verify end."""
    print(report.to_text(), end="")
    if report.all_pass:
        return EXIT_OK
    first = report.failures()[0]
    print(f"counterexample: check={first.name} step={first.counterexample_step}",
          file=sys.stderr)
    return EXIT_FAIL


def _audited_run(g: Graph, init: str, policy_spec: str, seed: int, max_steps: int | None):
    """Parse the policy, then load the init, run and audit: (policy, trace, report)."""
    try:
        policy = DaemonPolicy.parse(policy_spec, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    trace = run(g, _load_init(init, g), policy, max_steps=max_steps)
    return policy, trace, audit_trace(trace)


def cmd_run(args) -> int:
    g = _load_graph(args.graph)
    _, trace, report = _audited_run(g, args.init, args.policy, args.seed, args.max_steps)
    if args.trace_out:
        _write(args.trace_out, write_trace(trace))
    if args.report_out:
        _write(args.report_out, report.to_text())
    per_rule = trace_counters(trace)
    print(
        f"stable={'yes' if trace.stable else 'no'} steps={trace.steps} "
        f"moves={trace.moves} rounds={trace.rounds} "
        f"matching={report.checks['stable_is_maximal'].measured['matching_size']}"
    )
    print("moves by rule: " + " ".join(
        f"{rule.value}={count}" for rule, count in per_rule.items()
    ))
    return _print_report(report)


def _graph_from_spec(entry: dict) -> tuple[str, Graph]:
    if "file" in entry:
        if not isinstance(entry["file"], str):
            raise UsageError("graph entry 'file' must be a string")
        return entry["file"], _load_graph(entry["file"])
    kind = entry.get("kind")
    if kind is None:
        raise UsageError("graph entry needs 'file' or 'kind'")
    if not isinstance(kind, str):
        raise UsageError("graph entry 'kind' must be a string")
    for key in ("n", "m", "seed"):
        if key in entry and type(entry[key]) is not int:
            raise UsageError(f"graph entry '{key}' must be an integer")
    n = entry.get("n")
    m = entry.get("m")
    seed = entry.get("seed", 0)
    label = kind + "(" + ",".join(
        f"{k}={entry[k]}" for k in ("n", "m", "seed") if k in entry
    ) + ")"
    try:
        return label, generate(kind, n, m, seed)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad graph entry {label}: {exc}") from exc


def _experiment_run(label, g, policy_spec, init_spec, seed, max_steps):
    """One audited experiment run: (summary row, steps, rounds, audit passed)."""
    init = init_spec if init_spec != "random" else f"random:{seed}"
    policy, trace, report = _audited_run(g, init, policy_spec, seed, max_steps)
    ok = report.all_pass
    return (f"graph={label} policy={policy.describe()} seed={seed} init={init_spec} "
            f"steps={trace.steps} rounds={trace.rounds} moves={trace.moves} "
            f"stable={'yes' if trace.stable else 'no'} audit={'pass' if ok else 'fail'}",
            trace.steps, trace.rounds, ok)


def _map_runs(fn, jobs: list) -> list:
    """[fn(*job) for job in jobs], job k in worker k mod W, W = min(jobs, usable
    CPUs). Worker 0 is this process, the others forked children that pickle their
    results down a pipe; once every child is reaped, the first failure in job
    order is raised. W is 1 while another thread lives: a fork copies only one."""
    import pickle
    import threading

    width = (min(len(jobs), len(os.sched_getaffinity(0)))
             if hasattr(os, "sched_getaffinity") and threading.active_count() == 1 else 1)

    def run_slice(w):  # up to and including its first failure
        results = []
        try:
            for job in jobs[w::width]:
                results.append(fn(*job))
        except Exception as exc:  # raised again below, in job order
            results.append(exc)
        return results

    slices, children = [None] * width, []
    try:
        for w in range(1, width):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:  # os._exit: nothing of this process runs twice
                try:
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(run_slice(w)))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children.append((w, pid, read_fd))
        slices[0] = run_slice(0)
    finally:
        for w, pid, read_fd in children:
            with open(read_fd, "rb") as pipe:
                data = pipe.read()
            slices[w] = pickle.loads(data) if os.waitpid(pid, 0)[1] == 0 else [
                RuntimeError(f"experiment worker {w} ended without its results")]
    outcomes = [slices[k % width][k // width] for k in range(len(jobs))
                if k // width < len(slices[k % width])]
    if failed := [x for x in outcomes if isinstance(x, Exception)]:
        raise failed[0]
    return outcomes


def cmd_experiment(args) -> int:
    try:
        spec = json.loads(_read(args.spec))
    except (ValueError, RecursionError) as exc:  # ValueError: also an over-long int
        raise UsageError(f"bad experiment spec: {exc}") from exc
    if not isinstance(spec, dict):
        raise UsageError("experiment spec must be a JSON object")
    # a default stands in for an absent key only
    graphs = spec.get("graphs", [])
    policies = spec.get("policies", [])
    seeds = spec.get("seeds", [0])
    inits = spec.get("inits", ["allnull"])
    max_steps = spec.get("max_steps")
    for key, items, kind, what in (("graphs", graphs, dict, "objects"),
                                   ("policies", policies, str, "strings"),
                                   ("seeds", seeds, int, "integers"),
                                   ("inits", inits, str, "strings")):
        if not isinstance(items, list) or not all(type(x) is kind for x in items):
            raise UsageError(f"experiment spec '{key}' must be a list of {what}")
        if not items:
            raise UsageError(f"experiment spec needs a nonempty '{key}' list")
    if max_steps is not None and (type(max_steps) is not int or max_steps < 1):
        raise UsageError("experiment spec 'max_steps' must be a positive integer")

    loaded = [_graph_from_spec(entry) for entry in graphs]
    jobs = [(label, g, policy_spec, init_spec, seed, max_steps) for label, g in loaded
            for policy_spec in policies for init_spec in inits for seed in seeds]
    outcomes = _map_runs(_experiment_run, jobs)
    per_graph = len(jobs) // len(loaded)
    rows = []
    for (label, g), start in zip(loaded, range(0, len(jobs), per_graph)):
        cell_rows, cell_steps, cell_rounds, _ = zip(*outcomes[start:start + per_graph])
        rows += cell_rows
        rows.append(
            f"aggregate graph={label} runs={len(cell_steps)} "
            f"max_steps={max(cell_steps)} mean_steps={statistics.mean(cell_steps):.2f} "
            f"step_bound={step_bound(g)} max_rounds={max(cell_rounds)} "
            f"round_bound={round_bound(g)}"
        )
    failures = sum(not ok for *_, ok in outcomes)
    verdict = "pass" if failures == 0 else "fail"
    rows.append(f"experiment: {verdict} runs={len(jobs)} failures={failures}")
    _write(args.out or None, "\n".join(rows) + "\n")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _search_status(explored: int, memo_size: int, elapsed: float) -> None:
    """One stderr line of search progress after ``elapsed`` seconds."""
    elapsed = max(elapsed, 1e-9)
    print(f"search: explored={explored} memo={memo_size} elapsed_s={elapsed:.2f} "
          f"states_per_s={explored / elapsed:.0f}", file=sys.stderr)


def _search_progress(start: float):
    """exhaustive_search's progress callback: a status line on stderr at
    most once a second."""
    last = start

    def report(explored: int, memo_size: int) -> None:
        nonlocal last
        if (now := time.perf_counter()) - last >= 1.0:
            last = now
            _search_status(explored, memo_size, now - start)
    return report


def cmd_search(args) -> int:
    g = _load_graph(args.graph)
    if args.init == "all":
        initial = "all"
        # every well-formed configuration is a start, each explored once
        if (states := configuration_count(g)) > args.budget:
            print(
                f"warning: all-configurations search over {count_text(states)} configurations "
                f"exceeds --budget {args.budget}; raise it for a complete search",
                file=sys.stderr,
            )
    else:
        initial = _load_init(args.init, g)
    start = time.perf_counter()
    result = exhaustive_search(
        g, initial, branch_marriage=args.branch_marriage, budget=args.budget,
        progress=_search_progress(start) if args.progress else None,
    )
    if args.progress:
        _search_status(result.explored, result.memo_size, time.perf_counter() - start)
    sys.stdout.write(result.to_text())
    if args.witness_out and result.witness_initial is not None:
        trace = witness_trace(g, result.witness_initial, result.witness)
        _write(args.witness_out, write_trace(trace))
    if not result.complete:
        return EXIT_INCOMPLETE
    return EXIT_OK if result.ok else EXIT_FAIL


def _format_state(c: MutableConfiguration, g: Graph, enabled: dict) -> str:
    lines = ["node  p     m  class      enabled"]
    for i in g.nodes:
        p = c.p_of(i)
        rule = enabled.get(i)
        lines.append(
            f"{i:<5} {'-' if p is None else p:<5} "
            f"{'t' if c.m_of(i) else 'f'}  {classify(c, g, i).value:<10} "
            f"{rule.value if rule else '-'}"
        )
    return "\n".join(lines)


def cmd_step(args) -> int:
    g = _load_graph(args.graph)
    c0 = _load_init(args.init, g)
    rng = random.Random(args.seed)
    execution = Execution(g, c0, STANDARD, enabled_rule)
    print("interactive stepper; enter node ids, 'all', 'rand', 'undo', "
          "'save FILE', or 'quit'")
    while True:
        enabled = execution.enabled
        print(_format_state(execution.config, g, enabled))
        if not enabled:
            print("stable configuration reached")
        print("> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] in ("quit", "q"):
            break
        if tokens[0] == "undo":
            if execution.records:
                fired = execution.records[:-1]
                execution = Execution(g, c0, STANDARD, enabled_rule)
                for record in fired:
                    execution.fire([mv.node for mv in record.moves])
            else:
                print("nothing to undo")
            continue
        if tokens[0] == "save":
            if len(tokens) != 2:
                print("usage: save FILE")
                continue
            trace = execution.trace("interactive")
            try:
                _write(tokens[1], write_trace(trace))
                print(f"saved {len(execution.records)} steps to {tokens[1]}")
            except OSError as exc:
                print(f"cannot write {tokens[1]}: {exc}")
            continue
        if tokens[0] == "all":
            chosen = tuple(enabled)
        elif tokens[0] == "rand":
            if not enabled:
                print("no enabled process")
                continue
            # drawn in node order, which the enabled map's order is not
            candidates = [i for i in g.nodes if i in enabled]
            chosen = tuple(
                sorted(rng.sample(candidates, rng.randint(1, len(candidates))))
            )
        else:
            try:
                chosen = tuple(int(t) for t in tokens)
            except ValueError:
                print(f"unrecognized input: {line.strip()}")
                continue
            bad = [i for i in chosen if i not in g.adjacency]
            disabled = [i for i in chosen if i in g.adjacency and i not in enabled]
            if bad:
                print(f"unknown node: {bad[0]}")
                continue
            if disabled:
                print(f"node {disabled[0]} has no enabled rule")
                continue
        if not chosen:
            continue
        execution.fire(chosen)
        print("fired: " + ", ".join(
            f"{mv.node}:{mv.rule.value}" for mv in execution.records[-1].moves))
    return EXIT_OK


def _dot_quote(s) -> str:
    return '"' + str(s).replace('"', '\\"') + '"'


def export_dot(c: Configuration, g: Graph) -> str:
    """DOT document: matched edges double-width, pointers as dashed arcs,
    m-flags in the node labels."""
    matched = extract_matching(c, g)
    lines = ["digraph matching {", "  node [shape=circle];"]
    for i in g.nodes:
        flag = "t" if c.m_of(i) else "f"
        lines.append(f"  {_dot_quote(i)} [label={_dot_quote(f'{i} m={flag}')}];")
    for u, v in g.edges():
        style = " [dir=none, penwidth=2]" if (u, v) in matched else " [dir=none]"
        lines.append(f"  {_dot_quote(u)} -> {_dot_quote(v)}{style};")
    for i in g.nodes:
        p = c.p_of(i)
        if p is not None:
            lines.append(
                f"  {_dot_quote(i)} -> {_dot_quote(p)} "
                "[style=dashed, color=gray40, constraint=false];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_dot(args) -> int:
    if args.trace:
        trace = parse_trace(_read(args.trace))
        g = trace.graph
        if args.at_step is None:
            c = trace.final
        else:
            if not 0 <= args.at_step <= trace.steps:
                raise UsageError(
                    f"--at-step must be within 0..{trace.steps} for this trace"
                )
            state = MutableConfiguration(trace.initial)
            for record in trace.records[: args.at_step]:
                replay_step(state, g, record.moves)
            c = state.freeze()
    else:
        if not args.graph or not args.config:
            raise UsageError("export-dot needs --trace or both --graph and --config")
        g = _load_graph(args.graph)
        c = parse_configuration(_read(args.config), g)
    _write(args.out, export_dot(c, g))
    return EXIT_OK


def cmd_verify(args) -> int:
    trace = parse_trace(_read(args.trace))
    try:
        report = audit_trace(trace)
    except CorruptTraceError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    if args.report_out:
        _write(args.report_out, report.to_text())
    return _print_report(report)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="stabmatch",
        description="Simulate and verify the self-stabilizing maximal "
        "matching protocol under different daemon models.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None,
                   help="edge count (random_gnm only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file, '-' for stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run one simulation and audit its trace")
    p.add_argument("--graph", required=True)
    p.add_argument("--init", default="allnull",
                   help="allnull, random[:SEED], or a configuration file")
    p.add_argument("--policy", required=True,
                   help="policy kind, optionally kind:strategy; kinds: "
                   + ", ".join(POLICY_KINDS) + "; strategies: "
                   + ", ".join(HEURISTIC_STRATEGIES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=positive_int, default=None,
                   help="step cap (default 3n+2m+1, one above the bound)")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("experiment",
                       help="run a matrix of graphs x policies x seeds")
    p.add_argument("--spec", required=True, help="JSON experiment spec")
    p.add_argument("--out", default=None, help="summary output file")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("search",
                       help="exhaustively explore daemon schedules on a small graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--init", default="allnull",
                   help="'all' for every well-formed configuration, allnull, "
                   "random[:SEED], or a configuration file")
    p.add_argument("--branch-marriage", action="store_true",
                   help="also branch over every suitor choice")
    p.add_argument("--budget", type=positive_int, default=200_000,
                   help="maximum distinct configurations to explore")
    p.add_argument("--witness-out", default=None,
                   help="write the worst schedule as a replayable trace")
    p.add_argument("--progress", action="store_true",
                   help="print explored states, memo size, elapsed seconds and "
                   "states/s to stderr about once a second and once at the end")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("step", help="interactive schedule stepper")
    p.add_argument("--graph", required=True)
    p.add_argument("--init", default="allnull")
    p.add_argument("--seed", type=int, default=0, help="seed for 'rand' steps")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("export-dot", help="render a configuration as DOT")
    p.add_argument("--trace", default=None)
    p.add_argument("--at-step", type=int, default=None,
                   help="configuration after this many steps (default: final)")
    p.add_argument("--graph", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("verify", help="audit an existing trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, GraphFormatError, ConfigFormatError, TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
