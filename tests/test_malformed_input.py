"""Malformed input files never crash the command line.

Every field of a valid trace, of one of its step moves and of a valid
experiment spec is replaced by a value of some JSON type. Whatever the value,
``main`` must answer with an exit code of the contract (0 pass, 1 audit
failure, 64 usage or format error) and never raise, whether it verifies the
trace or renders it with ``export-dot --at-step``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabmatch.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from stabmatch.graph import generate
from stabmatch.protocol import random_configuration
from stabmatch.scheduler import DaemonPolicy, run, write_trace

# small ints: a graph size or a step cap drawn here must stay cheap to run
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.lists(st.integers(-3, 5), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 5), max_size=2),
)

_G = generate("random_gnm", 6, 8, 1)
# a distributed_fair trace with marriage moves, so move targets and the
# round checks are exercised too
TRACE = write_trace(
    run(_G, random_configuration(_G, 2), DaemonPolicy("distributed_fair", seed=1))
)

STEPS = TRACE.count('"type":"step"')


def _unknown_mover() -> str:
    """TRACE with its first step's first mover replaced by a node not in
    the graph; the footer's counts still match."""
    records = [json.loads(line) for line in TRACE.splitlines()]
    records[1]["moves"][0][0] = _G.n + 1
    return "\n".join(json.dumps(r) for r in records) + "\n"


def _with_header_graph(graph_text: str) -> str:
    """TRACE with its header's graph text replaced."""
    records = [json.loads(line) for line in TRACE.splitlines()]
    records[0]["graph"] = graph_text
    return "\n".join(json.dumps(r) for r in records) + "\n"


SPEC = {
    "graphs": [{"kind": "random_gnm", "n": 6, "m": 8, "seed": 1}],
    "policies": ["distributed_fair"],
    "seeds": [1, 2],
    "inits": ["random"],
    "max_steps": 50,
}


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed") / "input"


@st.composite
def mutated_traces(draw):
    records = [json.loads(line) for line in TRACE.splitlines()]
    record = draw(st.sampled_from(records))
    if record["type"] == "step" and draw(st.booleans()):
        move = draw(st.sampled_from(record["moves"]))
        move[draw(st.integers(0, len(move) - 1))] = draw(VALUES)
    else:
        record[draw(st.sampled_from(sorted(record)))] = draw(VALUES)
    return "\n".join(json.dumps(r) for r in records) + "\n"


@st.composite
def mutated_specs(draw):
    spec = json.loads(json.dumps(SPEC))
    target = draw(st.sampled_from((spec, spec["graphs"][0])))
    target[draw(st.sampled_from(sorted(target)))] = draw(VALUES)
    return json.dumps(spec)


@settings(max_examples=300, deadline=None)
@given(text=mutated_traces())
def test_verify_never_raises(input_path, text):
    input_path.write_text(text)
    assert main(["verify", "--trace", str(input_path)]) in (
        EXIT_OK, EXIT_FAIL, EXIT_USAGE)


@settings(max_examples=300, deadline=None)
@given(text=mutated_traces())
@example(text=_unknown_mover())
def test_export_dot_at_step_never_raises(input_path, text):
    """export-dot --at-step resolves every recorded step without the audit:
    a malformed one is a format error, never a traceback."""
    input_path.write_text(text)
    assert main(["export-dot", "--trace", str(input_path), "--at-step", str(STEPS),
                 "--out", str(input_path.with_name("out.dot"))]) in (EXIT_OK, EXIT_USAGE)


@settings(max_examples=200, deadline=None)
@given(text=mutated_specs())
@example(text=json.dumps({**SPEC, "max_steps": False}))
def test_experiment_never_raises(input_path, text):
    input_path.write_text(text)
    assert main(["experiment", "--spec", str(input_path)]) in (
        EXIT_OK, EXIT_FAIL, EXIT_USAGE)


@pytest.mark.parametrize("graph, seeds, fragment", [
    ({"kind": "path", "n": True}, [0], "graph entry 'n' must be an integer"),
    ({"kind": "path", "n": 4.0}, [0], "graph entry 'n' must be an integer"),
    ({"kind": "random_gnm", "n": 6, "m": True}, [0], "graph entry 'm' must be an integer"),
    ({"kind": "path", "n": 4, "seed": "abc"}, [0], "graph entry 'seed' must be an integer"),
    ({"kind": "path", "n": 4}, [True], "experiment spec 'seeds' must be a list of integers"),
], ids=["n-true", "n-float", "m-true", "seed-string", "seeds-true"])
def test_non_integer_spec_numbers_are_usage_errors(input_path, capsys, graph, seeds, fragment):
    """A graph entry's n, m and seed, and every seed, must be JSON integers:
    a boolean is no graph size and a string no seed."""
    input_path.write_text(json.dumps({**SPEC, "graphs": [graph], "seeds": seeds}))
    assert main(["experiment", "--spec", str(input_path)]) == EXIT_USAGE
    assert fragment in capsys.readouterr().err


def test_superscript_graph_count_is_a_usage_error(input_path, capsys):
    """'²' passes str.isdigit but not int(): the header's graph must be
    rejected as a graph format error, not end in a ValueError traceback."""
    input_path.write_text(_with_header_graph("²\n"))
    assert main(["verify", "--trace", str(input_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: line 1: expected node count\n"
