"""The text codec against the parsers it replaced and against ``json.dumps``.

``read_graph`` and ``parse_configuration`` build their results in one pass;
``tests/oracles.py`` keeps the parsers they replaced. On well-formed texts
and on texts mutated line by line (comments, '#' mid-line, blank lines,
self-loops, out-of-order, duplicate and missing edges or nodes, pointers
outside the neighborhood, bad tokens) both must return equal results or
raise the same exception type with the same message. ``write_trace``
formats each step line itself; every line must equal the ``json.dumps``
of its record with sorted keys and compact separators.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabmatch.graph import GraphFormatError, generate, read_graph, write_graph
from stabmatch.protocol import Rule, parse_configuration, random_configuration
from stabmatch.scheduler import (
    HEURISTIC_STRATEGIES,
    POLICY_KINDS,
    DaemonPolicy,
    Move,
    StepRecord,
    run,
    write_trace,
)

from .oracles import reference_parse_configuration, reference_read_graph

# tokens a mutation may write into a line: ints in and out of range, signs,
# non-integers, the null pointer, the flags, and a stray comment
TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "7", "11", "-1", "+2", "007", "1_0", "x", "1.5", "-", "t", "f", "#"])


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@st.composite
def small_graphs(draw):
    kind = draw(st.sampled_from(("path", "cycle", "complete", "star", "random_gnm")))
    n = draw(st.integers(3 if kind == "cycle" else 1, 9))
    m = None
    if kind == "random_gnm":
        m = draw(st.integers(n - 1, n * (n - 1) // 2))
    return generate(kind, n, m, draw(st.integers(0, 1000)))


@st.composite
def mutated_lines(draw, lines):
    """``lines`` with a few edits, each one of the mutations the module
    docstring lists."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, max(len(lines) - 1, 0)))
        line = lines[k] if lines else ""
        parts = line.split()
        edit = draw(st.sampled_from((
            "comment_line", "trailing_comment", "hash_mid", "blank", "duplicate",
            "drop", "swap", "self_loop", "token", "extra_token", "indent")))
        if edit == "comment_line":
            lines.insert(k, "# " + draw(st.sampled_from(["note", "1 2", ""])))
        elif edit == "trailing_comment":
            lines[k:k + 1] = [line + draw(st.sampled_from(["#", " # x", "\t#1 2"]))]
        elif edit == "hash_mid" and line:
            cut = draw(st.integers(0, len(line)))
            lines[k] = line[:cut] + "#" + line[cut:]
        elif edit == "blank":
            lines.insert(k, draw(st.sampled_from(["", "   ", "\t"])))
        elif edit == "duplicate" and lines:
            lines.insert(k, line)
        elif edit == "drop" and lines:
            del lines[k]
        elif edit == "swap" and len(parts) >= 2:
            lines[k] = " ".join([parts[1], parts[0]] + parts[2:])
        elif edit == "self_loop" and parts:
            lines[k] = " ".join([parts[0], parts[0]] + parts[2:])
        elif edit == "token" and parts:
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
            lines[k] = " ".join(parts)
        elif edit == "extra_token" and lines:
            lines[k] = line + " " + draw(TOKENS)
        elif edit == "indent" and lines:
            lines[k] = draw(st.sampled_from([" ", "\t", "  "])) + line + " "
    return lines


@st.composite
def graph_texts(draw):
    lines = write_graph(draw(small_graphs())).splitlines()
    return "\n".join(draw(mutated_lines(lines))) + draw(st.sampled_from(["\n", "", "\n\n"]))


@st.composite
def configuration_texts(draw):
    g = draw(small_graphs())
    lines = random_configuration(g, draw(st.integers(0, 1000))).to_text().splitlines()
    lines = draw(mutated_lines(lines))
    if lines and draw(st.booleans()):
        # a pointer outside the neighborhood, or at no node at all
        k = draw(st.integers(0, len(lines) - 1))
        parts = lines[k].split()
        if len(parts) == 3:
            parts[1] = str(draw(st.integers(0, g.n + 1)))
            lines[k] = " ".join(parts)
    return g, "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(text=graph_texts())
@example(text="")
@example(text="# only a comment\n")
@example(text="3\n")
@example(text="0\n")
@example(text="3\n0 1\n")
@example(text="3 # nodes\n0 1#a\n1 2\n")
@example(text="3\n0 1\n0 1\n")
@example(text="3\n2 1\n")
@example(text="4\n0 1\n2 3\n")
@example(text="4\n0 1\n1 2\n0 1\n2 2\n")  # a duplicate before a later self-loop
@example(text="3\n0 1\n1 2\n+0 001\n")  # a duplicate spelled another way
@example(text="3\n0 1\n1 2\n0 2\n1 2\n")  # a duplicate whose twin is the last line
@example(text="3\n0 1\n1 5\n")  # ids beyond the count
@example(text="9\n0 1\n")  # a count above the ids
def test_read_graph_matches_the_reference(text):
    assert _outcome(read_graph, text) == _outcome(reference_read_graph, text)


@settings(max_examples=400, deadline=None)
@given(case=configuration_texts())
def test_parse_configuration_matches_the_reference(case):
    g, text = case
    assert _outcome(parse_configuration, text, g) == _outcome(
        reference_parse_configuration, text, g)


def test_superscript_count_is_a_format_error():
    """'²' passes isdigit but not int(): the count line check must reject
    it as the parser's own error. The reference, as it was, let int()
    raise a plain ValueError."""
    assert _outcome(read_graph, "²\n") == (GraphFormatError, "line 1: expected node count")
    assert _outcome(reference_read_graph, "²\n")[0] is ValueError


def _step_dumps(record: StepRecord) -> str:
    moves = [[mv.node, mv.rule.value] + ([mv.target] if mv.rule is Rule.MARRIAGE else [])
             for mv in record.moves]
    return json.dumps({"type": "step", "index": record.index,
                       "round_index": record.round_index, "moves": moves},
                      sort_keys=True, separators=(",", ":"))


POLICIES = [kind for kind in POLICY_KINDS if "adversarial" not in kind] + [
    f"{kind}:{strategy}" for kind in POLICY_KINDS if "adversarial" in kind
    for strategy in HEURISTIC_STRATEGIES]


@settings(max_examples=150, deadline=None)
@given(g=small_graphs(), cseed=st.integers(0, 1000), pseed=st.integers(0, 1000),
       policy=st.sampled_from(POLICIES))
def test_step_lines_are_the_json_dumps_of_their_records(g, cseed, pseed, policy):
    trace = run(g, random_configuration(g, cseed), DaemonPolicy.parse(policy, pseed))
    lines = write_trace(trace).splitlines()
    assert lines[1:-1] == [_step_dumps(r) for r in trace.records]


def test_marriage_lines_carry_their_targets():
    """Every policy's runs on a graph dense enough to marry, and a parsed
    marriage move with no recorded target, which is written as null."""
    g = generate("random_gnm", 12, 30, 3)
    married = 0
    for policy in POLICIES:
        trace = run(g, random_configuration(g, 5), DaemonPolicy.parse(policy, 5))
        married += sum(mv.rule is Rule.MARRIAGE for r in trace.records for mv in r.moves)
        assert write_trace(trace).splitlines()[1:-1] == [_step_dumps(r) for r in trace.records]
    assert married > 0
    record = StepRecord(0, (Move(1, Rule.MARRIAGE), Move(2, Rule.MARRIAGE, 0)), 1)
    trace = run(g, random_configuration(g, 5), DaemonPolicy("synchronous"))
    trace = dataclasses.replace(trace, records=(record,))
    assert write_trace(trace).splitlines()[1] == _step_dumps(record)
