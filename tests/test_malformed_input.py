"""Malformed input files never crash the command line.

Every field of a valid trace, of one of its step moves and of a valid
experiment spec is replaced by a value of some JSON type. Whatever the value,
``main`` must answer with an exit code of the contract (0 pass, 1 audit
failure, 64 usage or format error) and never raise, whether it verifies the
trace or renders it with ``export-dot --at-step``.
"""

from __future__ import annotations

import json
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabmatch.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from stabmatch.graph import MAX_EDGE_FREE_NODES, generate
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
    """'²' passes str.isdigit but not int(), and where Python limits int() to
    4 300 digits so does a 5 000-digit count: as a trace header's graph and
    as a graph file, each must be rejected as a graph format error, not end
    in a ValueError traceback."""
    graph = input_path.with_name("count.g")
    counts = ["²", LONG_INT] if hasattr(sys, "get_int_max_str_digits") else ["²"]
    for count in counts:
        input_path.write_text(_with_header_graph(count + "\n"))
        graph.write_text(count + "\n")
        for argv in (["verify", "--trace", input_path],
                     ["export-dot", "--trace", input_path, "--out", graph.with_suffix(".dot")],
                     ["run", "--graph", graph, "--policy", "synchronous"],
                     ["search", "--graph", graph]):
            assert main([str(a) for a in argv]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == "error: line 1: expected node count\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--trace", "{trace}"],
    ["run", "--graph", "{graph}", "--policy", "synchronous"],
    ["search", "--graph", "{graph}"],
], ids=["verify", "run", "search"])
def test_a_huge_edge_free_count_is_a_usage_error(input_path, capsys, argv):
    """A count alone names an edge-free graph of that many nodes: above
    ``MAX_EDGE_FREE_NODES`` it is refused before any of them is built, as a
    graph file and as a trace header's graph."""
    graph = input_path.with_name("huge.g")
    graph.write_text("# a count alone\n1000000000\n")
    input_path.write_text(_with_header_graph("1000000000\n"))
    line = 2 if "--graph" in argv else 1
    _fails_with_one_error_line(
        [a.format(trace=input_path, graph=graph) for a in argv], capsys,
        f"line {line}: an edge-free graph has at most {MAX_EDGE_FREE_NODES} nodes, "
        "not 1000000000")


def _with_move(rule: str, entry: list) -> tuple[str, int]:
    """TRACE with the first move of ``rule`` replaced by ``entry``, and the
    line that move is on."""
    records = [json.loads(line) for line in TRACE.splitlines()]
    lineno, k = next((lineno, k) for lineno, r in enumerate(records, start=1)
                     for k, mv in enumerate(r.get("moves", ())) if mv[1] == rule)
    records[lineno - 1]["moves"][k] = entry
    return "\n".join(json.dumps(r) for r in records) + "\n", lineno


def _fails_with_one_error_line(argv, capsys, fragment: str) -> None:
    """``main`` returns the usage exit code, raising nothing, and prints one
    ``error:`` line that holds ``fragment``."""
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err


@pytest.mark.parametrize("rule, entry, fragment", [
    ("seduction", [1, "seduction", 999], "seduction move takes no target"),
    ("update", [0, "update", 3], "update move takes no target"),
    ("abandonment", [4, "abandonment", 3], "abandonment move takes no target"),
    ("marriage", [0, "marriage", 3, 0], "a move has at most three entries"),
    ("update", [0, "update", None, None], "a move has at most three entries"),
], ids=["seduction-target", "update-target", "abandonment-target", "marriage-four",
        "update-four"])
@pytest.mark.parametrize("command", ["verify", "export-dot"])
def test_a_target_off_a_marriage_is_a_format_error(input_path, capsys, rule, entry,
                                                    fragment, command):
    """Only a marriage records a target, and a move has at most three
    entries: anything else is refused by name, not ignored by the replay."""
    text, lineno = _with_move(rule, entry)
    input_path.write_text(text)
    _fails_with_one_error_line([command, "--trace", str(input_path)], capsys,
                               f"line {lineno}: {fragment}")


def test_a_null_target_off_a_marriage_is_accepted(input_path, capsys):
    text, _ = _with_move("seduction", [1, "seduction", None])
    input_path.write_text(text)
    assert main(["verify", "--trace", str(input_path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("audit: pass\n")


@pytest.fixture
def graph_path(input_path):
    path = input_path.with_name("graph.g")
    path.write_text("2\n0 1\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["verify", "--trace", "{input}"],
    ["run", "--graph", "{input}", "--policy", "synchronous"],
    ["run", "--graph", "{graph}", "--init", "{input}", "--policy", "synchronous"],
    ["search", "--graph", "{input}"],
    ["export-dot", "--trace", "{input}"],
    ["experiment", "--spec", "{input}"],
], ids=["verify", "run-graph", "run-init", "search", "export-dot", "experiment"])
def test_a_file_that_is_not_utf8_is_a_usage_error(input_path, graph_path, capsys, argv):
    input_path.write_bytes(b"\xff\xfe\x00")
    _fails_with_one_error_line(
        [a.format(input=input_path, graph=graph_path) for a in argv], capsys,
        f"cannot read {input_path}: ")


# 200 000 nested arrays overflow the decoder's recursion; where Python limits
# int() to 4 300 digits, a 5 000-digit literal is a ValueError
DEEP, LONG_INT = "[" * 200_000, "9" * 5_000


@pytest.mark.parametrize("text", [DEEP, LONG_INT], ids=["deep", "long-int"])
def test_json_the_decoder_refuses_is_a_usage_error(input_path, capsys, text):
    """As a trace line and as an experiment spec. Without the int limit a
    long literal decodes, and a later check refuses it."""
    refused = text is DEEP or hasattr(sys, "get_int_max_str_digits")
    lines = TRACE.splitlines()
    input_path.write_text("\n".join([lines[0], text, *lines[1:]]) + "\n")
    _fails_with_one_error_line(["verify", "--trace", str(input_path)], capsys,
                               "line 2: invalid record" if refused else "")
    input_path.write_text(text)
    _fails_with_one_error_line(["experiment", "--spec", str(input_path)], capsys,
                               "bad experiment spec: " if refused else "")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python's int() reads integers of any length")
@pytest.mark.parametrize("option, text, fragment", [
    ("--graph", f"2\n0 {LONG_INT}\n", "line 2: node id too long"),
    ("--init", f"0 - f\n{LONG_INT} - f\n", "line 2: integer field too long"),
    ("--init", f"0 {LONG_INT} f\n1 - f\n", "line 1: integer field too long"),
], ids=["graph-node-id", "init-node-id", "init-pointer"])
def test_an_integer_past_the_digit_limit_is_too_long(input_path, graph_path, capsys,
                                                      option, text, fragment):
    """int() refuses a run of decimal digits only past Python's int-string
    digit limit: a node id or a configuration field that long is named too
    long, not non-integer, in a graph file, a trace header's graph and a
    configuration file."""
    input_path.write_text(text)
    if option == "--init":
        _fails_with_one_error_line(["run", "--graph", graph_path, "--init", str(input_path),
                                    "--policy", "synchronous"], capsys, fragment)
        return
    _fails_with_one_error_line(["run", "--graph", str(input_path), "--policy", "synchronous"],
                               capsys, fragment)
    input_path.write_text(_with_header_graph(text))
    _fails_with_one_error_line(["verify", "--trace", str(input_path)], capsys, fragment)


def _with_far_pointer(record_type: str, key: str) -> str:
    """TRACE with the configuration in ``key`` of its ``record_type`` record
    pointing its first node that has a non-neighbor at that non-neighbor."""
    records = [json.loads(line) for line in TRACE.splitlines()]
    i, far = next((i, u) for i in _G.nodes for u in _G.nodes
                  if u != i and u not in _G.adjacency[i])
    record = next(r for r in records if r["type"] == record_type)
    record[key] = re.sub(rf"^{i} \S+ ", f"{i} {far} ", record[key], flags=re.MULTILINE)
    return "\n".join(json.dumps(r) for r in records) + "\n"


@pytest.mark.parametrize("record_type, key", [("header", "init"), ("footer", "final")])
@pytest.mark.parametrize("command", ["verify", "export-dot"])
def test_a_pointer_at_a_non_neighbor_in_a_trace_is_a_format_error(input_path, capsys,
                                                                  record_type, key, command):
    """A configuration file's pointer at a non-neighbor is made null, but a
    trace is read strictly: auditing or drawing the null pointer instead
    would pass off a start or an end the trace does not record."""
    input_path.write_text(_with_far_pointer(record_type, key))
    _fails_with_one_error_line([command, "--trace", str(input_path)], capsys,
                               f"trace field {key!r} differs from the configuration "
                               "it parses to")
