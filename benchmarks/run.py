"""stabmatch benchmark: one workload, closed loop, in-process.

    python3 benchmarks/run.py --workload seq_large --seed 1 --seconds 20 --trace 0

One client, one process, one thread: each CLI command goes through
``stabmatch.cli.main`` with its stdout captured in memory, and starts when
the previous one returns. The workload's command list (a "pass") repeats
until ``--seconds`` have elapsed, and at least three times. Every command's
exit code, printed verdict, stdout and output files are checked; for the
seeds in ``expected.json`` the bytes must also match the recorded digests.

``--trace 0`` prints the end-to-end metrics, built from each command's
median time over the passes. The host's speed drifts by a quarter within
seconds, so a timer samples fixed calibration work while the commands run
and every time is also given in reference seconds (see meter.py); the JSON
figures are in reference seconds.
``--trace 1`` alternates untraced passes with passes that have every
public stabmatch function wrapped (see tracer.py), at least three of each,
and prints the per-layer metrics. Their counts must
repeat exactly across the traced passes, be nonzero on the workloads they
are meant for, and the traced outputs must match the untraced ones byte for
byte.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
``--write-expected`` regenerates expected.json from the current sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from meter import Meter
from tracer import Tracer
from workloads import WORKLOADS, check_run_trace, check_stdout, search_explored

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
EXPECTED_SEEDS = (1, 2)  # the default seed and one held out while tuning
SETUP_SECONDS_PER_PASS = 0.3
MIN_PASSES = 3  # so a command's median can discard one slow sample

LAYERS = ("graph", "protocol", "scheduler", "verifier", "cli")
RUNS = ("seq_large", "conc_large")
GUARDS = RUNS + ("search_small",)
SEARCH = ("search_small",)
MATRIX = ("matrix_small",)


def _ratio(num, den):
    return num / den if den else 0.0


# name, unit, kind, value from the traced totals, workloads where it must be
# nonzero. "time" values vary run to run; "count" and "ratio" values must
# repeat exactly. Which direction is better is recorded in BENCHMARK.json.
LAYER_METRICS = (
    ("scheduler.run.self_s", "s", "time", lambda a: a.self_s["scheduler.run"], RUNS),
    ("scheduler.apply_step.s", "s", "time", lambda a: a.total_s["scheduler.apply_step"], GUARDS),
    ("scheduler.select.s", "s", "time", lambda a: a.total_s["scheduler.select"], RUNS),
    ("protocol.Configuration.with_writes.calls", "count", "count",
     lambda a: a.calls["protocol.Configuration.with_writes"], GUARDS),
    ("protocol.index_entries_built", "count", "count",
     lambda a: a.counters["protocol.index_entries_built"], GUARDS),
    ("scheduler.steps_applied", "count", "count",
     lambda a: a.calls["scheduler.apply_step"] + a.calls["scheduler.apply_realized"], GUARDS),
    ("protocol.index_entries_per_step", "ratio", "ratio",
     lambda a: _ratio(a.counters["protocol.index_entries_built"],
                      a.calls["scheduler.apply_step"] + a.calls["scheduler.apply_realized"]),
     GUARDS),
    ("verifier.audit_trace.self_s", "s", "time", lambda a: a.self_s["verifier.audit_trace"], RUNS),
    ("scheduler.apply_realized.s", "s", "time",
     lambda a: a.total_s["scheduler.apply_realized"], RUNS),
    ("scheduler.trace_counters.s", "s", "time",
     lambda a: a.total_s["scheduler.trace_counters"], RUNS),
    ("protocol.enabled_rule.calls", "count", "count",
     lambda a: a.calls["protocol.enabled_rule"], GUARDS),
    ("protocol.enabled_rule.s", "s", "time", lambda a: a.total_s["protocol.enabled_rule"], GUARDS),
    ("protocol.enabled_rules.calls", "count", "count",
     lambda a: a.calls["protocol.enabled_rules"], RUNS),
    ("protocol.enabled_rules.s", "s", "time", lambda a: a.total_s["protocol.enabled_rules"], RUNS),
    ("protocol.command_target.s", "s", "time",
     lambda a: a.total_s["protocol.command_target"], GUARDS),
    ("protocol.marriage_suitors.calls", "count", "count",
     lambda a: a.calls["protocol.marriage_suitors"], GUARDS),
    ("protocol.seduction_candidates.calls", "count", "count",
     lambda a: a.calls["protocol.seduction_candidates"], GUARDS),
    ("scheduler.moves_applied", "count", "count",
     lambda a: a.counters["scheduler.moves_applied"], GUARDS),
    ("protocol.guard_evals_per_move", "ratio", "ratio",
     lambda a: _ratio(a.calls["protocol.enabled_rule"], a.counters["scheduler.moves_applied"]),
     GUARDS),
    ("scheduler.write_trace.s", "s", "time", lambda a: a.total_s["scheduler.write_trace"], RUNS),
    ("scheduler.parse_trace.s", "s", "time", lambda a: a.total_s["scheduler.parse_trace"], RUNS),
    ("scheduler.trace_bytes", "bytes", "count",
     lambda a: a.counters["scheduler.trace_bytes"], RUNS),
    ("graph.write_graph.calls", "count", "count", lambda a: a.calls["graph.write_graph"], RUNS),
    ("verifier.exhaustive_search.s", "s", "time",
     lambda a: a.total_s["verifier.exhaustive_search"], SEARCH),
    # enabled_nodes is defined in protocol; its only caller is the search
    ("verifier.enabled_nodes.s", "s", "time", lambda a: a.total_s["protocol.enabled_nodes"], SEARCH),
    ("verifier.explored_states", "count", "count",
     lambda a: a.counters["verifier.explored_states"], SEARCH),
    ("verifier.successors_generated", "count", "count",
     lambda a: a.counters["verifier.successors_generated"], SEARCH),
    ("verifier.new_state_ratio", "ratio", "ratio",
     lambda a: _ratio(a.counters["verifier.explored_states"],
                      a.counters["verifier.successors_generated"]), SEARCH),
    ("cli.main.calls", "count", "count", lambda a: a.calls["cli.main"], MATRIX + GUARDS),
    ("cli.main.self_s", "s", "time", lambda a: a.self_s["cli.main"], MATRIX + GUARDS),
    ("graph.generate.s", "s", "time", lambda a: a.total_s["graph.generate"], MATRIX),
    ("graph.Graph.m.calls", "count", "count", lambda a: a.calls["graph.Graph.m"], MATRIX + RUNS),
    ("verifier.check_maximal.s", "s", "time",
     lambda a: a.total_s["verifier.check_maximal"], MATRIX + GUARDS),
) + tuple(
    (f"{layer}.self_s", "s", "time",
     lambda a, layer=layer: sum(v for k, v in a.self_s.items() if k.startswith(layer + ".")),
     MATRIX + GUARDS)
    for layer in LAYERS
)


def _layer_modules() -> SimpleNamespace:
    return SimpleNamespace(**{name: sys.modules[f"stabmatch.{name}"] for name in LAYERS})


def load_stabmatch() -> SimpleNamespace:
    """Import stabmatch from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stabmatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no stabmatch sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import stabmatch.cli  # noqa: F401  (loads every layer module)

    pkg = sys.modules["stabmatch"]
    if Path(pkg.__file__).resolve().parent != (src / "stabmatch").resolve():
        raise SystemExit(f"error: imported stabmatch from {pkg.__file__}, not {src}")
    return _layer_modules()


def fresh_stabmatch() -> SimpleNamespace:
    """Imports stabmatch anew, executing every module of the package again,
    as a new CLI process does, and returns the new modules. The modules
    loaded before are put back afterwards, so the timed commands and the
    tracer keep using them."""
    def ours():
        return [name for name in sys.modules
                if name == "stabmatch" or name.startswith("stabmatch.")]

    loaded = {name: sys.modules.pop(name) for name in ours()}
    try:
        importlib.import_module("stabmatch.cli")
        return _layer_modules()
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(loaded)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs a workload's commands as passes and checks every output."""

    def __init__(self, sm, commands, expected, meter: Meter):
        self.sm = sm
        self.meter = meter
        self.commands = commands
        self.expected = expected  # label -> {name: sha256}, or None
        self.reference = None  # digests of the first pass
        self.checked_traces: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer: Tracer | None = None) -> SimpleNamespace:
        times, ref_s, stdouts, codes = {}, {}, {}, {}
        meter = self.meter
        for command in self.commands:
            out = io.StringIO()
            mark = meter.mark()
            start = meter.clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    codes[command.label] = self.sm.cli.main(list(command.argv))
            except SystemExit as exc:
                codes[command.label] = exc.code
            except Exception as exc:  # a crash is a failed command, not a crashed benchmark
                codes[command.label] = f"{type(exc).__name__}: {exc}"
            times[command.label] = meter.clock() - start
            ref_s[command.label] = meter.to_ref(times[command.label], mark)
            stdouts[command.label] = out.getvalue()
            if tracer is not None:
                tracer.end_command()
        digests = {label: self._check(label, stdouts, codes[label]) for label in stdouts}
        if self.reference is None:
            self.reference = digests
        return SimpleNamespace(times=times, ref_s=ref_s, stdouts=stdouts, digests=digests,
                               wall_s=sum(times.values()))

    def _check(self, label, stdouts, code) -> dict[str, str]:
        command = next(c for c in self.commands if c.label == label)
        stdout = stdouts[label]
        digests = {"stdout": _sha(stdout.encode())}
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += check_stdout(command, stdout, stdouts)
        for name, path in command.outputs.items():
            data = path.read_bytes() if path.exists() else b""
            digests[name] = _sha(data)
            if digests[name] not in self.checked_traces:
                self.checked_traces[digests[name]] = check_run_trace(
                    command.graph, data.decode())
            problems += self.checked_traces.get(digests[name], [])
        want = (self.expected or {}).get(label) or (self.reference or {}).get(label)
        if want is not None and want != digests:
            source = "expected.json" if self.expected else "the first pass"
            problems.append(f"output digests differ from {source}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return digests


def end_to_end(passes, commands) -> dict[str, float | None]:
    """The figures named in the README. Each command's time is its median
    over the passes, which discards a burst of host contention that slowed
    one command in one pass; a pass total is the sum of those medians.
    ``wall_ref_s`` is the same sum in reference seconds."""
    median_s = {c.label: statistics.median(p.times[c.label] for p in passes) for c in commands}
    median_ref_s = {c.label: statistics.median(p.ref_s[c.label] for p in passes)
                    for c in commands}

    def kind_s(kind):
        secs = [median_s[c.label] for c in commands if c.kind == kind]
        return sum(secs) if secs else None

    runs = sum(c.expect["runs"] for c in commands if c.kind == "experiment")
    states = sum(search_explored(passes[0].stdouts[c.label])
                 for c in commands if c.kind == "search")
    return {
        "wall_ref_s": sum(median_ref_s.values()),
        "wall_s": sum(median_s.values()),
        "run_s": kind_s("run"),
        "verify_s": kind_s("verify"),
        "experiment_runs_per_s": runs / kind_s("experiment") if runs else None,
        "search_states_per_s": states / kind_s("search") if states else None,
    }


def time_setup(meter: Meter, workload, workdir: Path, seed: int) -> list[float]:
    """Times the workload's set-up, repeated for SETUP_SECONDS_PER_PASS. One set-up
    imports stabmatch anew, which is most of a short CLI command's start-up,
    and generates and writes the inputs with the new modules; so work moved
    into import time or into input generation both show. Each repeat writes
    into a new directory: ext4 flushes a file that is truncated and
    rewritten when it is closed, and that disk latency, not the work of
    generating inputs, would set the figure."""
    times = []
    while sum(times) < SETUP_SECONDS_PER_PASS:
        target = Path(tempfile.mkdtemp(dir=workdir))
        start = meter.clock()
        workload.setup(fresh_stabmatch(), target, seed)
        times.append(meter.clock() - start)
        shutil.rmtree(target)
    return times


def measure_untraced(runner: Runner, seconds: float, setup=None):
    """Untraced passes for ``seconds``. With ``setup`` (a callable that
    returns set-up times), set-up is timed before every pass, so that its
    median samples the host over the whole run, as the passes do."""
    passes, setup_times = [], []
    began = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - began < seconds:
        if setup is not None:
            setup_times += setup()
        gc.collect()
        passes.append(runner.run_pass())
    return passes, setup_times


def measure_traced(runner: Runner, seconds: float, workload: str):
    """Per-layer values: counts from the traced passes (which must agree),
    times as medians over them. Untraced and traced passes alternate, so
    that both sample the same host conditions and their ratio is the
    tracing overhead. Returns (values, self-check problems)."""
    tracer = Tracer(runner.meter.clock)
    problems = []
    per_pass, untraced, traced = [], [], []
    began = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - began < seconds:
        gc.collect()
        untraced.append(runner.run_pass())
        tracer.install()
        try:
            if not traced:
                problems += [f"unwrapped reference left: {m}" for m in tracer.unbound_originals()]
            gc.collect()
            tracer.clear_totals()
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        per_pass.append({name: fn(tracer) for name, _, _, fn, _ in LAYER_METRICS})
    values = {}
    for name, _, kind, _, meant_for in LAYER_METRICS:
        seen = [p[name] for p in per_pass]
        if kind == "time":
            values[name] = statistics.median(seen)
        else:
            values[name] = seen[0]
            if len(set(seen)) != 1:
                problems.append(f"{name} differs across traced passes: {seen}")
        if workload in meant_for and not all(seen):
            problems.append(f"{name} is zero on {workload}: its layer was not traced")
    untraced_s = end_to_end(untraced, runner.commands)["wall_ref_s"]
    traced_s = end_to_end(traced, runner.commands)["wall_ref_s"]
    values["bench.wall_ref_s_untraced"] = untraced_s
    values["bench.wall_ref_s_traced"] = traced_s
    values["bench.trace_overhead"] = traced_s / untraced_s
    spans = sorted(tracer.total_s, key=tracer.total_s.get, reverse=True)
    print(f"{'span':44} {'calls':>10} {'total_s':>9} {'self_s':>9}  (last traced pass)")
    for name in spans:
        print(f"{name:44} {tracer.calls[name]:>10} {tracer.total_s[name]:>9.3f} "
              f"{tracer.self_s[name]:>9.3f}")
    return values, problems


LAYER_UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}
LAYER_UNITS.update({"bench.wall_ref_s_untraced": "s", "bench.wall_ref_s_traced": "s",
                    "bench.trace_overhead": "ratio"})


def write_expected(sm) -> int:
    """Record the output digests of every workload for EXPECTED_SEEDS."""
    manifest = {}
    for name, workload in WORKLOADS.items():
        manifest[name] = {}
        for seed in EXPECTED_SEEDS:
            with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp, \
                    Meter() as meter:
                runner = Runner(sm, workload.setup(sm, Path(tmp), seed), None, meter)
                result = runner.run_pass()
            if runner.failed:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            manifest[name][str(seed)] = result.digests
            print(f"{name} seed {seed}: {len(result.digests)} commands recorded")
    EXPECTED.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=EXPECTED_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json from the current sources")
    args = parser.parse_args(argv)
    sm = load_stabmatch()
    if args.write_expected:
        return write_expected(sm)
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp, Meter() as meter:
        commands = workload.setup(sm, Path(tmp), args.seed)
        runner = Runner(sm, commands, expected.get(args.workload, {}).get(str(args.seed)),
                        meter)
        print(f"workload {args.workload} seed {args.seed}: {len(commands)} commands per pass, "
              f"digests checked against {'expected.json' if runner.expected else 'the first pass'}")
        if args.trace:
            values, self_check = measure_traced(runner, args.seconds, args.workload)
            metrics = {name: {"value": values[name], "unit": LAYER_UNITS[name]}
                       for name in LAYER_UNITS}
        else:
            passes, setup_times = measure_untraced(
                runner, args.seconds, lambda: time_setup(meter, workload, Path(tmp), args.seed))
            self_check = []
            figures = end_to_end(passes, commands)
            # a repeat is too short for the rounds sampled during it to
            # measure the host's speed, so set-up is scaled by the whole run's
            figures["setup_s"] = meter.to_ref(statistics.median(setup_times))
            figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = {"wall_ref_s": "s", "wall_s": "s", "run_s": "s", "verify_s": "s",
                     "setup_s": "s",
                     "experiment_runs_per_s": "1/s", "search_states_per_s": "1/s",
                     "peak_rss_mb": "MB"}
            print(f"{len(passes)} passes of " + ", ".join(f"{p.wall_s:.3f}" for p in passes)
                  + f" s; set-up repeated {len(setup_times)} times")
            for name, unit in units.items():
                value = figures[name]
                print(f"{name:22} {'n/a' if value is None else f'{value:.6g}'} {unit}")
            metrics = {name: {"value": figures[name], "unit": units[name]}
                       for name in ("wall_ref_s", "setup_s", "peak_rss_mb")}
    print(f"{'failed_frac':22} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted} commands)")
    for problem in (runner.problems + self_check)[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems and not self_check,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
