"""The benchmark's tracer must still find and wrap every function it names.

``benchmarks/tracer.py`` rebinds its targets by attribute name, so renaming
or inlining one of them, or no longer calling it on a run or a verify,
would make the benchmark's self-check fail. This test reads the tracer as
the benchmark does and changes nothing in it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
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
    tracer = _load_tracer_module().Tracer()
    graph = tmp_path / "g.txt"
    graph.write_text(write_graph(generate("random_gnm", 30, 60, seed=1)))
    trace = tmp_path / "t.jsonl"
    tracer.install()
    try:
        assert tracer.unbound_originals() == []
        with contextlib.redirect_stdout(io.StringIO()):
            assert stabmatch.cli.main(
                ["run", "--graph", str(graph), "--init", "random:1",
                 "--policy", "sequential_random", "--seed", "1",
                 "--trace-out", str(trace)]) == 0
            assert stabmatch.cli.main(["verify", "--trace", str(trace)]) == 0
        tracer.end_command()
    finally:
        tracer.uninstall()
    for name in ("protocol.Configuration.with_writes", "scheduler.apply_realized",
                 "scheduler.trace_counters", "protocol.enabled_rules",
                 "scheduler.select"):
        assert tracer.calls[name] > 0, name
    assert tracer.counters["protocol.index_entries_built"] > 0
    assert not hasattr(stabmatch.cli.main, "__wrapped__")
