"""The benchmark's tracer must still find and wrap every function it names.

``benchmarks/tracer.py`` rebinds its targets by attribute name, so renaming
or inlining one of them, or no longer calling it on a run or a verify,
would make the benchmark's self-check fail. This test reads the tracer as
the benchmark does and changes nothing in it.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

import stabmatch.cli
from stabmatch.graph import generate, write_graph

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_counts_run_and_verify(tmp_path):
    """Under the sequential daemon and the synchronous one (conc_large's
    policy family), a verify on its own replays the trace through
    realize_moves and apply_realized, the resolution every replay shares."""
    tracer = _load_tracer_module().Tracer()
    graph = tmp_path / "g.txt"
    graph.write_text(write_graph(generate("random_gnm", 30, 60, seed=1)))
    trace = tmp_path / "t.jsonl"
    tracer.install()
    try:
        assert tracer.unbound_originals() == []
        for policy in ("sequential_random", "synchronous"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert stabmatch.cli.main(
                    ["run", "--graph", str(graph), "--init", "random:1",
                     "--policy", policy, "--seed", "1",
                     "--trace-out", str(trace)]) == 0
            tracer.end_command()
            before = Counter(tracer.calls)
            with contextlib.redirect_stdout(io.StringIO()):
                assert stabmatch.cli.main(["verify", "--trace", str(trace)]) == 0
            tracer.end_command()
            verify_calls = tracer.calls - before
            for name in ("scheduler.realize_moves", "scheduler.apply_realized"):
                assert verify_calls[name] > 0, (policy, name)
    finally:
        tracer.uninstall()
    for name in ("protocol.Configuration.with_writes", "scheduler.apply_realized",
                 "scheduler.trace_counters", "protocol.enabled_rules",
                 "scheduler.select"):
        assert tracer.calls[name] > 0, name
    assert tracer.counters["protocol.index_entries_built"] > 0
    assert not hasattr(stabmatch.cli.main, "__wrapped__")


def _target_originals(tracer_module) -> dict[int, str]:
    """id of every function the tracer targets, as the package defines it."""
    originals = {}
    for mod_name, path, _ in tracer_module.TARGETS:
        owner = importlib.import_module(f"stabmatch.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        value = owner.__dict__[attr]
        originals[id(getattr(value, "fget", value))] = f"{mod_name}.{path}"
    return originals


def _package_functions():
    """Every function and method defined in a loaded stabmatch module."""
    for name, module in sorted(sys.modules.items()):
        if name != "stabmatch" and not name.startswith("stabmatch."):
            continue
        for value in vars(module).values():
            members = vars(value).values() if inspect.isclass(value) else [value]
            for member in members:
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if inspect.isfunction(member) and member.__module__ == name:
                    yield member


def _held_values(fn):
    yield from fn.__defaults__ or ()
    yield from (fn.__kwdefaults__ or {}).values()
    for cell in fn.__closure__ or ():
        try:
            yield cell.cell_contents
        except ValueError:  # an empty cell
            continue


def test_no_target_is_held_where_the_tracer_cannot_rebind_it():
    """The tracer rebinds module attributes only: a target bound as a
    default argument or captured in a closure at import time would run
    untraced, and unbound_originals() would not notice."""
    originals = _target_originals(_load_tracer_module())
    held = [
        f"{fn.__module__}.{fn.__qualname__} holds {originals[id(value)]}"
        for fn in _package_functions()
        for value in _held_values(fn)
        if id(value) in originals
    ]
    assert held == []


def test_tracer_counts_search_and_experiment(tmp_path):
    tracer = _load_tracer_module().Tracer()
    graph = tmp_path / "p3.g"
    graph.write_text("3\n0 1\n1 2\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "graphs": [{"kind": "path", "n": 4}], "policies": ["synchronous"],
        "seeds": [1], "inits": ["random"],
    }))
    tracer.install()
    try:
        assert tracer.unbound_originals() == []
        with contextlib.redirect_stdout(io.StringIO()):
            assert stabmatch.cli.main(
                ["search", "--graph", str(graph), "--init", "all"]) == 0
            assert stabmatch.cli.main(["experiment", "--spec", str(spec)]) == 0
        tracer.end_command()
    finally:
        tracer.uninstall()
    for name in ("scheduler.apply_step", "protocol.command_target",
                 "protocol.enabled_nodes", "verifier.exhaustive_search",
                 "verifier.check_maximal", "graph.generate"):
        assert tracer.calls[name] > 0, name


BENCH_DIR = TRACER_PATH.parent


def _load_bench_run():
    """benchmarks/run.py, imported as the benchmark imports it; importing
    it starts nothing (its Meter's timer runs only while entered)."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


def _run_and_verify(tmp_path, policy):
    graph = tmp_path / "gnm.txt"
    graph.write_text(write_graph(generate("random_gnm", 40, 120, seed=1)))
    trace = tmp_path / "t.jsonl"
    return [["run", "--graph", str(graph), "--init", "random:1", "--policy", policy,
             "--seed", "1", "--trace-out", str(trace)],
            ["verify", "--trace", str(trace)]]


def _search(tmp_path):
    graph = tmp_path / "p3.g"
    graph.write_text("3\n0 1\n1 2\n")
    return [["search", "--graph", str(graph), "--init", "all", "--branch-marriage"]]


def _experiment(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "graphs": [{"kind": "cycle", "n": 5}, {"kind": "random_gnm", "n": 8, "m": 12}],
        "policies": ["sequential_random", "distributed_fair"],
        "seeds": [1, 2], "inits": ["random"],
    }))
    return [["experiment", "--spec", str(spec)]]


def test_every_layer_metric_is_nonzero_on_a_miniature_of_its_workload(tmp_path, monkeypatch):
    """Each benchmark workload in miniature, traced as the benchmark traces
    it: every LAYER_METRICS entry meant for that workload must read nonzero,
    as the benchmark's self-check requires. The experiment runs once more on
    two usable CPUs, where the tracer sees only the runs of this process's
    share; they alone must keep matrix_small's entries nonzero."""
    bench = _load_bench_run()
    miniatures = (
        (bench.RUNS[0], _run_and_verify(tmp_path, "sequential_random"), None),
        (bench.RUNS[1], _run_and_verify(tmp_path, "distributed_random"), None),
        (bench.SEARCH[0], _search(tmp_path), None),
        (bench.MATRIX[0], _experiment(tmp_path), None),
        (bench.MATRIX[0], _experiment(tmp_path), 2),
    )
    tracer = bench.Tracer()
    zero = []
    for workload, commands, cpus in miniatures:
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        tracer.clear_totals()
        tracer.install()
        try:
            assert tracer.unbound_originals() == []
            for argv in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert stabmatch.cli.main(argv) == 0, argv
                tracer.end_command()
        finally:
            tracer.uninstall()
        zero += [f"{name} on {workload} ({cpus or 'all'} CPUs)"
                 for name, _, _, value, meant_for in bench.LAYER_METRICS
                 if workload in meant_for and not value(tracer)]
    assert zero == []
