from __future__ import annotations

import itertools
import json
import random
import types
from collections import Counter

import pytest

from stabmatch.cli import EXIT_FAIL, EXIT_INCOMPLETE, EXIT_OK, EXIT_USAGE, main
from stabmatch.graph import generate, read_graph, write_graph
from stabmatch.protocol import (
    Configuration,
    Rule,
    enabled_nodes,
    parse_configuration,
    random_configuration,
)
from stabmatch.scheduler import (
    Move,
    apply_step,
    parse_trace,
    trace_counters,
    trace_from_schedule,
    write_trace,
)
from stabmatch.verifier import count_text, exhaustive_search

TWO_SUITORS_GRAPH = "3\n1 3\n2 3\n"
TWO_SUITORS_INIT = "1 3 f\n2 3 f\n3 - f\n"
STABLE_TWO_SUITORS = "1 - f\n2 3 t\n3 2 t\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestGen:
    def test_path_file(self, workdir, capsys):
        assert main(["gen", "--kind", "path", "--n", "3", "--out", "p3.g"]) == EXIT_OK
        assert (workdir / "p3.g").read_text() == "3\n0 1\n1 2\n"
        assert "n=3 m=2" in capsys.readouterr().out

    def test_stdout_with_counts_on_stderr(self, workdir, capsys):
        for out in ([], ["--out", "-"]):
            assert main(["gen", "--kind", "path", "--n", "3", *out]) == EXIT_OK
            assert capsys.readouterr() == ("3\n0 1\n1 2\n", "n=3 m=2\n")
        assert list(workdir.iterdir()) == []

    def test_deterministic_files(self, workdir):
        for name in ("a.g", "b.g"):
            main(["gen", "--kind", "random_gnm", "--n", "50", "--m", "200",
                  "--seed", "7", "--out", name])
        assert (workdir / "a.g").read_bytes() == (workdir / "b.g").read_bytes()

    def test_infeasible_m_is_usage_error(self, workdir, capsys):
        assert main(["gen", "--kind", "random_gnm", "--n", "5", "--m", "999",
                     "--out", "x.g"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "torus", "--n", "5"])
        assert exc.value.code == EXIT_USAGE

    def test_empty_graph_is_usage_error(self, workdir, capsys):
        assert main(["gen", "--kind", "path", "--n", "0"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: n must be at least 1\n")


class TestRun:
    def test_p2_run_passes(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "2", "--out", "p2.g"])
        code = main(["run", "--graph", "p2.g", "--policy", "sequential_random",
                     "--seed", "1", "--trace-out", "p2.trace",
                     "--report-out", "p2.report"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "stable=yes steps=4" in out
        assert "audit: pass" in out
        trace = parse_trace((workdir / "p2.trace").read_text())
        assert trace.steps == 4
        assert "audit: pass" in (workdir / "p2.report").read_text()

    def test_prestable_config_zero_steps(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "2", "--out", "p2.g"])
        _write(workdir / "stable.cfg", "0 1 t\n1 0 t\n")
        code = main(["run", "--graph", "p2.g", "--init", "stable.cfg",
                     "--policy", "synchronous"])
        assert code == EXIT_OK
        assert "steps=0" in capsys.readouterr().out

    def test_golden_scenario_move_sequence(self, workdir):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", TWO_SUITORS_INIT)
        code = main(["run", "--graph", "two.g", "--init", "two.cfg",
                     "--policy", "sequential_adversarial_heuristic:max_id",
                     "--trace-out", "two.trace"])
        assert code == EXIT_OK
        trace = parse_trace((workdir / "two.trace").read_text())
        assert [
            (mv.node, mv.rule.value) for rec in trace.records for mv in rec.moves
        ] == [(3, "marriage"), (3, "update"), (2, "update"), (1, "abandonment")]

    def test_step_cap_failure_exits_one(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "4", "--out", "p4.g"])
        code = main(["run", "--graph", "p4.g", "--policy", "sequential_random",
                     "--max-steps", "1"])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert "counterexample" in err

    def test_non_integer_random_init_seed_is_usage_error(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "3", "--out", "p3.g"])
        assert main(["run", "--graph", "p3.g", "--init", "random:x",
                     "--policy", "synchronous"]) == EXIT_USAGE
        assert "bad random init seed" in capsys.readouterr().err

    def test_bad_policy_is_usage_error(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "2", "--out", "p2.g"])
        assert main(["run", "--graph", "p2.g", "--policy", "nonsense"]) == EXIT_USAGE

    def test_non_positive_max_steps_is_usage_error(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "2", "--out", "p2.g"])
        with pytest.raises(SystemExit) as exc:
            main(["run", "--graph", "p2.g", "--policy", "synchronous",
                  "--max-steps", "0"])
        assert exc.value.code == EXIT_USAGE
        assert "error: argument --max-steps" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["sequential_random", "synchronous"])
    def test_run_replays_its_trace_once(self, workdir, capsys, monkeypatch, policy):
        """Past the simulation itself, one run command replays the trace
        once, in the audit: one realize_moves call per recorded step, made
        by replay_step, the only name under which the audit reaches it."""
        import stabmatch.scheduler
        import stabmatch.verifier

        calls = []
        realize = stabmatch.scheduler.realize_moves

        def counted(*args, **kwargs):
            calls.append(args)
            return realize(*args, **kwargs)

        assert not {"realize_moves", "apply_realized"} & set(vars(stabmatch.verifier))
        monkeypatch.setattr(stabmatch.scheduler, "realize_moves", counted)
        main(["gen", "--kind", "random_gnm", "--n", "30", "--m", "60", "--out", "g.g"])
        assert main(["run", "--graph", "g.g", "--init", "random:1", "--policy", policy,
                     "--trace-out", "t.trace"]) == EXIT_OK
        steps = parse_trace((workdir / "t.trace").read_text()).steps
        assert steps > 1 and len(calls) == steps
        assert "moves by rule: " in capsys.readouterr().out

    def test_verify_takes_one_write_per_move_from_command_target(
        self, workdir, capsys, monkeypatch
    ):
        """verify's replay computes every replayed move's write with one
        command_target call, whatever its rule: the calls tallied by rule
        are the trace's moves by rule, and all four rules move."""
        import stabmatch.scheduler
        import stabmatch.verifier

        main(["gen", "--kind", "random_gnm", "--n", "30", "--m", "60", "--out", "g.g"])
        assert main(["run", "--graph", "g.g", "--init", "random:1",
                     "--policy", "distributed_random", "--trace-out", "t.trace"]) == EXIT_OK
        per_rule = trace_counters(parse_trace((workdir / "t.trace").read_text()))
        assert all(per_rule.values())
        calls = Counter()
        command_target = stabmatch.scheduler.command_target

        def counted(c, g, i, rule, *args, **kwargs):
            calls[rule] += 1
            return command_target(c, g, i, rule, *args, **kwargs)

        for module in (stabmatch.scheduler, stabmatch.verifier):
            monkeypatch.setattr(module, "command_target", counted)
        assert main(["verify", "--trace", "t.trace"]) == EXIT_OK
        assert calls == Counter(per_rule)


@pytest.mark.parametrize("command", ["run", "experiment"])
def test_unknown_policy_is_reported_before_a_missing_init(workdir, capsys, command):
    """Both commands parse the policy before they read an init file."""
    main(["gen", "--kind", "path", "--n", "3", "--out", "p3.g"])
    if command == "run":
        argv = ["run", "--graph", "p3.g", "--policy", "nosuch", "--init", "missing.cfg"]
    else:
        spec = {"graphs": [{"file": "p3.g"}], "policies": ["nosuch"], "inits": ["missing.cfg"]}
        argv = ["experiment", "--spec", _write(workdir / "spec.json", json.dumps(spec))]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown policy kind: nosuch\n"


class TestExperiment:
    def _spec(self, workdir, **overrides):
        spec = {
            "graphs": [{"kind": "path", "n": 4}, {"kind": "cycle", "n": 5}],
            "policies": ["synchronous", "distributed_fair"],
            "seeds": [1, 2, 3],
            "inits": ["random"],
        }
        spec.update(overrides)
        return _write(workdir / "spec.json", json.dumps(spec))

    def test_matrix_pass(self, workdir, capsys):
        spec = self._spec(workdir)
        assert main(["experiment", "--spec", spec, "--out", "summary.txt"]) == EXIT_OK
        summary = (workdir / "summary.txt").read_text()
        assert "experiment: pass runs=12 failures=0" in summary
        assert "aggregate graph=path(n=4)" in summary

    def test_rerun_byte_identical(self, workdir):
        spec = self._spec(workdir)
        main(["experiment", "--spec", spec, "--out", "a.txt"])
        main(["experiment", "--spec", spec, "--out", "b.txt"])
        assert (workdir / "a.txt").read_bytes() == (workdir / "b.txt").read_bytes()

    def test_empty_policies_usage_error(self, workdir, capsys):
        spec = self._spec(workdir, policies=[])
        assert main(["experiment", "--spec", spec]) == EXIT_USAGE
        assert "policies" in capsys.readouterr().err

    def test_unknown_policy_is_usage_error(self, workdir, capsys):
        spec = self._spec(workdir, policies=["synchronous", "no_such_policy"])
        assert main(["experiment", "--spec", spec]) == EXIT_USAGE
        assert "no_such_policy" in capsys.readouterr().err

    def test_member_failure_marks_summary_and_exits_one(self, workdir, capsys):
        spec = self._spec(workdir, max_steps=1)
        assert main(["experiment", "--spec", spec, "--out", "s.txt"]) == EXIT_FAIL
        assert "audit=fail" in (workdir / "s.txt").read_text()

    @pytest.mark.parametrize("overrides, fragment", [
        ({"graphs": [5]}, "'graphs' must be a list of objects"),
        ({"seeds": ["x"]}, "'seeds' must be a list of integers"),
        ({"policies": "synchronous"}, "'policies' must be a list of strings"),
        ({"graphs": [{"kind": 3, "n": 4}]}, "'kind' must be a string"),
        ({"graphs": [{"file": 5}]}, "graph entry 'file' must be a string"),
        # a present key never falls back to its default
        ({"seeds": False}, "'seeds' must be a list of integers"),
        ({"seeds": 0}, "'seeds' must be a list of integers"),
        ({"seeds": {}}, "'seeds' must be a list of integers"),
        ({"seeds": []}, "needs a nonempty 'seeds' list"),
        ({"inits": ""}, "'inits' must be a list of strings"),
        ({"inits": []}, "needs a nonempty 'inits' list"),
    ])
    def test_mistyped_spec_field_is_usage_error(self, workdir, capsys, overrides, fragment):
        spec = self._spec(workdir, **overrides)
        assert main(["experiment", "--spec", spec]) == EXIT_USAGE
        assert fragment in capsys.readouterr().err

    def test_graph_file_entry_labels_rows_by_path(self, workdir):
        main(["gen", "--kind", "path", "--n", "3", "--out", "p3.g"])
        spec = self._spec(workdir, graphs=[{"file": "p3.g"}])
        assert main(["experiment", "--spec", spec, "--out", "s.txt"]) == EXIT_OK
        *rows, verdict = (workdir / "s.txt").read_text().splitlines()
        assert len(rows) == 7 and verdict == "experiment: pass runs=6 failures=0"
        assert all(" graph=p3.g " in f" {row} " for row in rows)

    @pytest.mark.parametrize("max_steps", [0, -1, False])
    def test_non_positive_max_steps_is_usage_error(self, workdir, capsys, max_steps):
        spec = self._spec(workdir, max_steps=max_steps)
        assert main(["experiment", "--spec", spec]) == EXIT_USAGE
        assert "error: experiment spec 'max_steps' must be a positive integer" in (
            capsys.readouterr().err)

    def test_non_json_spec_is_usage_error(self, workdir, capsys):
        spec = _write(workdir / "spec.json", "graphs: path\n")
        assert main(["experiment", "--spec", spec]) == EXIT_USAGE
        assert "error: bad experiment spec: " in capsys.readouterr().err

    def test_top_level_list_is_usage_error(self, workdir, capsys):
        spec = _write(workdir / "spec.json", json.dumps([{"kind": "path", "n": 4}]))
        assert main(["experiment", "--spec", spec]) == EXIT_USAGE
        assert "must be a JSON object" in capsys.readouterr().err

    def test_ten_seeds_three_policies_on_medium_gnm(self, workdir):
        spec = self._spec(
            workdir,
            graphs=[{"kind": "random_gnm", "n": 100, "m": 300, "seed": 9}],
            policies=["synchronous", "distributed_random", "distributed_fair"],
            seeds=list(range(10)),
        )
        assert main(["experiment", "--spec", spec, "--out", "s.txt"]) == EXIT_OK
        summary = (workdir / "s.txt").read_text()
        assert "experiment: pass runs=30 failures=0" in summary
        aggregate = next(
            line for line in summary.splitlines() if line.startswith("aggregate")
        )
        max_steps = int(aggregate.split("max_steps=")[1].split()[0])
        assert max_steps <= 3 * 100 + 2 * 300


class TestSearch:
    def test_p2_all_configurations(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "2", "--out", "p2.g"])
        code = main(["search", "--graph", "p2.g", "--init", "all",
                     "--branch-marriage"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "search: ok" in out
        assert "bound: 8" in out

    @pytest.mark.parametrize("init, c0", [
        ([], Configuration.all_null),
        (["--init", "random:3"], lambda g: random_configuration(g, 3)),
    ], ids=["default-allnull", "random-seed"])
    def test_single_initial_configuration(self, workdir, capsys, init, c0):
        main(["gen", "--kind", "cycle", "--n", "4", "--out", "c4.g"])
        g = read_graph((workdir / "c4.g").read_text())
        capsys.readouterr()
        assert main(["search", "--graph", "c4.g", *init]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == exhaustive_search(g, c0(g)).to_text()
        assert "initial_configurations: 1\n" in out

    def test_budget_exhaustion_exits_two(self, workdir):
        main(["gen", "--kind", "cycle", "--n", "3", "--out", "c3.g"])
        code = main(["search", "--graph", "c3.g", "--init", "all",
                     "--budget", "4"])
        assert code == EXIT_INCOMPLETE

    def test_zero_budget_is_usage_error(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "2", "--out", "p2.g"])
        with pytest.raises(SystemExit) as exc:
            main(["search", "--graph", "p2.g", "--budget", "0"])
        assert exc.value.code == EXIT_USAGE
        assert "error: argument --budget" in capsys.readouterr().err

    def test_large_all_mode_warns(self, workdir, capsys):
        main(["gen", "--kind", "cycle", "--n", "6", "--out", "c6.g"])
        main(["search", "--graph", "c6.g", "--init", "all", "--budget", "10"])
        err = capsys.readouterr().err
        assert "warning" in err and "46656 configurations" in err and "--budget 10" in err

    def test_count_past_the_digit_limit_prints_as_a_power_of_ten(self, workdir, capsys):
        """15 000 isolated nodes have 2**15000 configurations, 4 516 digits,
        past the 4 300-digit int-string limit: the warning and the report
        print about 10^4515, and the budget cuts the search as any other."""
        _write(workdir / "iso.g", "15000\n")
        assert main(["search", "--graph", "iso.g", "--init", "all",
                     "--budget", "5"]) == EXIT_INCOMPLETE
        out, err = capsys.readouterr()
        assert "initial_configurations: about 10^4515\n" in out
        assert "search over about 10^4515 configurations exceeds --budget 5" in err

    @pytest.mark.parametrize("count, text", [
        (46656, "46656"), (10**600 - 1, "9" * 600), (10**600, "about 10^600"),
        (5 * 10**600, "about 10^601"),
    ])
    def test_counts_print_exactly_up_to_600_digits(self, count, text):
        assert count_text(count) == text

    def test_all_mode_within_budget_does_not_warn(self, workdir, capsys):
        """K5 has 10**5 well-formed configurations, within the default
        budget, so its all-configurations search completes unwarned."""
        main(["gen", "--kind", "complete", "--n", "5", "--out", "k5.g"])
        capsys.readouterr()
        assert main(["search", "--graph", "k5.g", "--init", "all"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "warning" not in captured.err and "complete: true" in captured.out

    def test_progress_goes_to_stderr_and_leaves_stdout_unchanged(
            self, workdir, capsys, monkeypatch):
        main(["gen", "--kind", "complete", "--n", "4", "--out", "k4.g"])
        argv = ["search", "--graph", "k4.g", "--init", "all", "--branch-marriage"]
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        plain = capsys.readouterr()
        # a clock that advances two seconds per reading: every report is due
        ticks = itertools.count(0.0, 2.0)
        monkeypatch.setattr("stabmatch.cli.time", types.SimpleNamespace(
            perf_counter=lambda: next(ticks)))
        assert main(argv + ["--progress"]) == EXIT_OK
        progress = capsys.readouterr()
        assert progress.out == plain.out
        assert "search: explored=4096 memo=" in progress.err
        assert "states_per_s=" in progress.err and "search: explored" not in plain.err
        # the last line sums up the whole search: K4 has 4 096 states
        assert progress.err.endswith(
            "search: explored=4096 memo=4096 elapsed_s=4.00 states_per_s=1024\n")

    def test_witness_trace_verifies(self, workdir, capsys):
        main(["gen", "--kind", "cycle", "--n", "3", "--out", "c3.g"])
        code = main(["search", "--graph", "c3.g", "--init", "all",
                     "--branch-marriage", "--witness-out", "w.trace"])
        assert code == EXIT_OK
        capsys.readouterr()
        assert main(["verify", "--trace", "w.trace"]) == EXIT_OK


class TestStep:
    def _feed(self, monkeypatch, text):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_golden_panel_walk(self, workdir, capsys, monkeypatch):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", TWO_SUITORS_INIT)
        # blank line in the middle re-prompts without consuming a step
        self._feed(monkeypatch, "3\n\n3 2\n1\nsave walk.trace\nquit\n")
        code = main(["step", "--graph", "two.g", "--init", "two.cfg"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "stable configuration reached" in out
        trace = parse_trace((workdir / "walk.trace").read_text())
        assert trace.steps == 3 and trace.stable
        final = trace.final
        assert final.p_of(3) == 2 and final.p_of(2) == 3 and final.p_of(1) is None
        assert final.m_of(3) and final.m_of(2) and not final.m_of(1)

    def test_end_of_input_ends_the_session(self, workdir, capsys, monkeypatch):
        """Input that runs out without 'quit' ends the session as 'quit'
        does, after the last step it fired."""
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", TWO_SUITORS_INIT)
        self._feed(monkeypatch, "3\n")
        assert main(["step", "--graph", "two.g", "--init", "two.cfg"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "> fired: 3:marriage\n" in out and out.endswith("> ")

    def test_disabled_selection_is_rejected_without_step(self, workdir, capsys, monkeypatch):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", TWO_SUITORS_INIT)
        self._feed(monkeypatch, "1\nquit\n")
        main(["step", "--graph", "two.g", "--init", "two.cfg"])
        out = capsys.readouterr().out
        assert "node 1 has no enabled rule" in out

    def test_an_unwritable_save_keeps_the_session(self, workdir, capsys, monkeypatch):
        """A save that cannot write prints why, like any other bad input;
        the session goes on and a later save writes a trace that verifies."""
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", TWO_SUITORS_INIT)
        self._feed(monkeypatch, "save nodir/s.trace\n" + "all\n" * 9 + "save s.trace\nquit\n")
        assert main(["step", "--graph", "two.g", "--init", "two.cfg"]) == EXIT_OK
        out = capsys.readouterr().out
        trace = parse_trace((workdir / "s.trace").read_text())
        assert "> cannot write nodir/s.trace: " in out
        assert f"> saved {trace.steps} steps to s.trace\n" in out and trace.stable
        assert main(["verify", "--trace", "s.trace"]) == EXIT_OK

    def test_undo_restores_state(self, workdir, capsys, monkeypatch):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", TWO_SUITORS_INIT)
        self._feed(monkeypatch, "3\nundo\nsave empty.trace\nquit\n")
        main(["step", "--graph", "two.g", "--init", "two.cfg"])
        trace = parse_trace((workdir / "empty.trace").read_text())
        assert trace.steps == 0

    @pytest.mark.parametrize("init, command, printed", [
        (TWO_SUITORS_INIT, "undo", "nothing to undo"),
        (TWO_SUITORS_INIT, "save", "usage: save FILE"),
        (TWO_SUITORS_INIT, "foo", "unrecognized input: foo"),
        (TWO_SUITORS_INIT, "9", "unknown node: 9"),
        (STABLE_TWO_SUITORS, "rand", "no enabled process"),
    ])
    def test_input_that_fires_nothing_prints_why(
        self, workdir, capsys, monkeypatch, init, command, printed
    ):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", init)
        self._feed(monkeypatch, f"{command}\nquit\n")
        assert main(["step", "--graph", "two.g", "--init", "two.cfg"]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"> {printed}\n" in out and "fired:" not in out

    def test_rand_fires_a_seeded_subset_of_the_enabled(self, workdir, capsys, monkeypatch):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", TWO_SUITORS_INIT)
        outs = []
        for _ in range(2):
            self._feed(monkeypatch, "rand\nquit\n")
            assert main(["step", "--graph", "two.g", "--init", "two.cfg", "--seed", "4"]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "fired: 3:marriage" in outs[0]

    def test_all_at_a_stable_configuration_fires_nothing(self, workdir, capsys, monkeypatch):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", STABLE_TWO_SUITORS)
        self._feed(monkeypatch, "all\nquit\n")
        assert main(["step", "--graph", "two.g", "--init", "two.cfg"]) == EXIT_OK
        out = capsys.readouterr().out
        # the prompt comes back on the same stable configuration
        assert out.count("stable configuration reached\n> ") == 2 and "fired:" not in out

    @staticmethod
    def _reference_session(g, c0, seed, inputs):
        """The history and the ``fired:`` lines a session of ``inputs``
        leaves, stepped without an Execution: every prompt rescans the
        guards with enabled_nodes, and every step is a frozen apply_step
        whose pre-step configuration is kept to undo."""
        rng = random.Random(seed)
        history, fired, c = [], [], c0
        for token in inputs:
            enabled = enabled_nodes(c, g)
            if token == "undo":
                c, _ = history.pop()
                continue
            if token == "all":
                chosen = tuple(enabled)
            elif token == "rand":
                chosen = tuple(sorted(rng.sample(list(enabled), rng.randint(1, len(enabled)))))
            else:
                chosen = tuple(map(int, token.split()))
            history.append((c, chosen))
            c, moves = apply_step(c, g, chosen)
            fired.append("fired: " + ", ".join(f"{mv.node}:{mv.rule.value}" for mv in moves))
        return [chosen for _, chosen in history], fired

    # a 12-node random_gnm graph and a random initial configuration on it
    GNM = generate("random_gnm", 12, 20, 3)
    GNM_C0 = random_configuration(GNM, 5)

    def _gnm_session(self, workdir, monkeypatch, inputs, seed):
        """Run a session of ``inputs`` on GNM from GNM_C0."""
        _write(workdir / "g.g", write_graph(self.GNM))
        _write(workdir / "c0.cfg", self.GNM_C0.to_text())
        self._feed(monkeypatch, "".join(f"{token}\n" for token in inputs) + "quit\n")
        assert main(["step", "--graph", "g.g", "--init", "c0.cfg",
                     "--seed", str(seed)]) == EXIT_OK

    def test_saved_session_is_the_trace_of_its_history(self, workdir, capsys, monkeypatch):
        """A session of node ids, all, rand and undo saves the bytes that
        trace_from_schedule gives for the history it keeps."""
        g, c0 = self.GNM, self.GNM_C0
        inputs = [str(min(enabled_nodes(c0, g))), "all", "rand", "undo", "rand", "all",
                  "undo", "all"]
        self._gnm_session(workdir, monkeypatch, inputs + ["save s.trace"], seed=2)
        assert "> saved 4 steps to s.trace\n" in capsys.readouterr().out
        schedule, _ = self._reference_session(g, c0, 2, inputs)
        expected = write_trace(trace_from_schedule(
            g, c0, [(chosen, None) for chosen in schedule], "interactive"))
        assert (workdir / "s.trace").read_text() == expected

    def test_undo_prints_the_state_of_one_step_before(self, workdir, capsys, monkeypatch):
        """undo after two steps prints the state table printed after the
        first step."""
        self._gnm_session(workdir, monkeypatch, ["all", "all", "undo"], seed=0)
        prompts = capsys.readouterr().out.split("> ")
        after = [text.split("\n", 1)[1] for text in prompts[1:3]]  # past each fired line
        assert after[0] != after[1] and prompts[3] == after[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rand_draws_from_the_enabled_in_node_order(
        self, workdir, capsys, monkeypatch, seed
    ):
        """Each rand fires the subset random.Random(seed) draws from the
        enabled processes taken in node order, as the reference session
        draws them."""
        self._gnm_session(workdir, monkeypatch, ["rand"] * 6, seed)
        fired = [line for line in capsys.readouterr().out.split("> ")
                 if line.startswith("fired: ")]
        _, expected = self._reference_session(self.GNM, self.GNM_C0, seed, ["rand"] * len(fired))
        assert len(fired) >= 4
        assert [line.split("\n", 1)[0] for line in fired] == expected

    def test_saved_walk_replays_to_same_final(self, workdir, capsys, monkeypatch):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", TWO_SUITORS_INIT)
        self._feed(monkeypatch, "3\nall\n1\nsave walk.trace\nquit\n")
        main(["step", "--graph", "two.g", "--init", "two.cfg"])
        capsys.readouterr()
        assert main(["verify", "--trace", "walk.trace"]) == EXIT_OK


class TestExportDot:
    def test_matched_edge_double_pen(self, workdir, capsys):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "final.cfg", "1 - f\n2 3 t\n3 2 t\n")
        code = main(["export-dot", "--graph", "two.g", "--config", "final.cfg"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("penwidth=2") == 1
        assert '"2" -> "3" [dir=none, penwidth=2];' in out
        assert "m=t" in out and "m=f" in out

    def test_empty_matching_no_double_pen(self, workdir, capsys):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "empty.cfg", "1 - f\n2 - f\n3 - f\n")
        main(["export-dot", "--graph", "two.g", "--config", "empty.cfg"])
        assert "penwidth" not in capsys.readouterr().out

    def test_deterministic(self, workdir, capsys):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "final.cfg", "1 - f\n2 3 t\n3 2 t\n")
        main(["export-dot", "--graph", "two.g", "--config", "final.cfg", "--out", "a.dot"])
        main(["export-dot", "--graph", "two.g", "--config", "final.cfg", "--out", "b.dot"])
        assert (workdir / "a.dot").read_bytes() == (workdir / "b.dot").read_bytes()

    def test_trace_at_step(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "2", "--out", "p2.g"])
        main(["run", "--graph", "p2.g", "--policy", "sequential_random",
              "--seed", "1", "--trace-out", "p2.trace"])
        capsys.readouterr()
        assert main(["export-dot", "--trace", "p2.trace", "--at-step", "0"]) == EXIT_OK
        initial = capsys.readouterr().out
        assert "penwidth" not in initial
        assert main(["export-dot", "--trace", "p2.trace"]) == EXIT_OK
        assert "penwidth=2" in capsys.readouterr().out

    def test_at_step_matches_oracle_replay(self, capsys):
        from stabmatch.cli import export_dot

        from .golden_corpus import GOLDEN_DIR
        from .oracles import replay_configurations

        path = GOLDEN_DIR / "gnm24-distributed_random.jsonl"
        trace = parse_trace(path.read_text())
        configs = replay_configurations(
            trace.graph, trace.initial, [r.moves for r in trace.records])
        assert len(configs) == trace.steps + 1
        for k, c in enumerate(configs):
            assert main(["export-dot", "--trace", str(path), "--at-step", str(k)]) == EXIT_OK
            assert capsys.readouterr().out == export_dot(c, trace.graph)

    def test_missing_inputs_usage_error(self, workdir):
        assert main(["export-dot"]) == EXIT_USAGE

    def test_unknown_mover_at_step_is_usage_error(self, workdir, capsys):
        """--at-step writes recorded steps through replay_step, as the audit
        does, so a step moving a node not in the graph is a format error, as
        verify finds it a corrupt trace."""
        main(["gen", "--kind", "path", "--n", "3", "--out", "p3.g"])
        main(["run", "--graph", "p3.g", "--policy", "synchronous",
              "--trace-out", "p3.trace"])
        capsys.readouterr()
        records = [json.loads(ln) for ln in (workdir / "p3.trace").read_text().splitlines()]
        records[-1]["moves"] -= len(records[1]["moves"]) - 1
        records[1]["moves"] = [[7, "update"]]
        _write(workdir / "bad.trace", "\n".join(json.dumps(r) for r in records) + "\n")
        assert main(["export-dot", "--trace", "bad.trace", "--at-step", "2"]) == EXIT_USAGE
        assert "unknown node 7" in capsys.readouterr().err
        assert main(["verify", "--trace", "bad.trace"]) == EXIT_FAIL
        assert "corrupt trace: step 0" in capsys.readouterr().err

    def test_at_step_out_of_range(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "2", "--out", "p2.g"])
        main(["run", "--graph", "p2.g", "--policy", "synchronous",
              "--trace-out", "p2.trace"])
        capsys.readouterr()
        assert main(["export-dot", "--trace", "p2.trace", "--at-step", "99"]) == EXIT_USAGE


class TestVerify:
    def test_roundtrip_files(self, workdir, capsys):
        main(["gen", "--kind", "cycle", "--n", "5", "--out", "c5.g"])
        main(["run", "--graph", "c5.g", "--policy", "distributed_fair",
              "--seed", "3", "--trace-out", "c5.trace"])
        capsys.readouterr()
        assert main(["verify", "--trace", "c5.trace", "--report-out", "r.txt"]) == EXIT_OK
        assert "audit: pass" in (workdir / "r.txt").read_text()

    def test_corrupt_trace_exits_one(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "2", "--out", "p2.g"])
        main(["run", "--graph", "p2.g", "--policy", "sequential_random",
              "--seed", "1", "--trace-out", "p2.trace"])
        capsys.readouterr()
        lines = (workdir / "p2.trace").read_text().splitlines()
        # drop one step record but keep the footer counts intact
        forged = [ln for ln in lines if '"index":1' not in ln]
        forged = [ln.replace('"steps":4', '"steps":3').replace('"moves":4,', '"moves":3,')
                  for ln in forged]
        forged = [
            ln.replace('{"index":2', '{"index":1').replace('{"index":3', '{"index":2')
            for ln in forged
        ]
        _write(workdir / "bad.trace", "\n".join(forged) + "\n")
        assert main(["verify", "--trace", "bad.trace"]) == EXIT_FAIL
        assert "corrupt trace" in capsys.readouterr().err

    def test_failing_audit_exits_one(self, workdir, capsys):
        """verify reports a failing audit as run does: the same report, the
        same counterexample line, exit 1."""
        main(["gen", "--kind", "path", "--n", "4", "--out", "p4.g"])
        capsys.readouterr()
        assert main(["run", "--graph", "p4.g", "--policy", "sequential_random",
                     "--max-steps", "1", "--trace-out", "p4.trace"]) == EXIT_FAIL
        run = capsys.readouterr()
        assert main(["verify", "--trace", "p4.trace"]) == EXIT_FAIL
        verify = capsys.readouterr()
        assert verify.out.startswith("audit: fail\n") and run.out.endswith(verify.out)
        assert run.err == verify.err == "counterexample: check=stable_is_maximal step=1\n"

    def test_counterexample_step_can_be_drawn(self, workdir, capsys):
        """A counterexample names a step, and export-dot draws the
        configuration there: a third update forged after the stable end
        fails moves_enabled and update_limit at step 4."""
        from .test_verifier import forge_trace

        g = read_graph("2\n0 1\n")
        c0 = parse_configuration("0 - t\n1 - f\n", g)
        forged = forge_trace(g, c0, [
            (Move(0, Rule.UPDATE),),
            (Move(0, Rule.SEDUCTION),),
            (Move(1, Rule.MARRIAGE, 0),),
            (Move(0, Rule.UPDATE), Move(1, Rule.UPDATE)),
            (Move(0, Rule.UPDATE),),
        ])
        _write(workdir / "forged.trace", write_trace(forged))
        assert main(["verify", "--trace", "forged.trace"]) == EXIT_FAIL
        verify = capsys.readouterr()
        assert verify.err == "counterexample: check=moves_enabled step=4\n"
        assert ("update_limit: fail: max_updates_per_node=3; counterexample_step=4; "
                "node 0 executed its third update\n" in verify.out)
        assert main(["export-dot", "--trace", "forged.trace", "--at-step", "4"]) == EXIT_OK
        assert "penwidth=2" in capsys.readouterr().out

    def test_noncanonical_graph_text_is_usage_error(self, workdir, capsys):
        """graph_hash is the digest of the header's graph text as written:
        an equivalent text that is not the canonical one does not match it."""
        records = self._valid_lines(workdir, capsys)
        records[0]["graph"] += "# the same graph\n"
        assert self._verify_lines(workdir, records) == EXIT_USAGE
        assert "'graph_hash'" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "2", "--out", "p2.g"])
        main(["run", "--graph", "p2.g", "--policy", "sequential_random",
              "--seed", "1", "--trace-out", "p2.trace"])
        capsys.readouterr()
        assert main(["verify", "--trace", "p2.trace"]) == EXIT_OK
        plain = capsys.readouterr()
        lines = (workdir / "p2.trace").read_text().splitlines()
        _write(workdir / "blank.trace", "\n".join([lines[0], "", "  ", *lines[1:]]) + "\n")
        assert main(["verify", "--trace", "blank.trace"]) == EXIT_OK
        assert capsys.readouterr() == plain

    def test_header_without_graph_is_usage_error(self, workdir, capsys):
        records = self._valid_lines(workdir, capsys)
        del records[0]["graph"]
        assert self._verify_lines(workdir, records) == EXIT_USAGE
        assert capsys.readouterr().err == "error: trace record missing field 'graph'\n"

    def test_malformed_trace_usage_error(self, workdir, capsys):
        _write(workdir / "junk.trace", "not a trace\n")
        assert main(["verify", "--trace", "junk.trace"]) == EXIT_USAGE

    def test_missing_file(self, workdir, capsys):
        assert main(["verify", "--trace", "nope.trace"]) == EXIT_USAGE

    def _valid_lines(self, workdir, capsys):
        main(["gen", "--kind", "path", "--n", "2", "--out", "p2.g"])
        main(["run", "--graph", "p2.g", "--policy", "sequential_random",
              "--seed", "1", "--trace-out", "p2.trace"])
        capsys.readouterr()
        return [json.loads(ln) for ln in (workdir / "p2.trace").read_text().splitlines()]

    def _verify_lines(self, workdir, records):
        text = "\n".join(json.dumps(r) for r in records) + "\n"
        return main(["verify", "--trace", _write(workdir / "bad.trace", text)])

    def test_duplicate_header_is_usage_error(self, workdir, capsys):
        records = self._valid_lines(workdir, capsys)
        records.insert(1, records[0])
        assert self._verify_lines(workdir, records) == EXIT_USAGE
        assert "line 2: duplicate header" in capsys.readouterr().err

    def test_footer_before_header_is_usage_error(self, workdir, capsys):
        records = self._valid_lines(workdir, capsys)
        records.insert(0, records.pop())
        assert self._verify_lines(workdir, records) == EXIT_USAGE
        assert "line 1: footer before header" in capsys.readouterr().err

    def test_non_string_header_graph_is_usage_error(self, workdir, capsys):
        records = self._valid_lines(workdir, capsys)
        records[0]["graph"] = 2
        assert self._verify_lines(workdir, records) == EXIT_USAGE
        assert "'graph' must be a string" in capsys.readouterr().err

    def test_array_record_is_usage_error(self, workdir, capsys):
        records = self._valid_lines(workdir, capsys)
        records[1] = [records[1]]
        assert self._verify_lines(workdir, records) == EXIT_USAGE
        assert "line 2: record is not a JSON object" in capsys.readouterr().err

    def test_list_move_node_is_usage_error(self, workdir, capsys):
        records = self._valid_lines(workdir, capsys)
        records[1]["moves"][0][0] = [0]
        assert self._verify_lines(workdir, records) == EXIT_USAGE
        assert "line 2: move node and target must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("record, field, value", [
        (0, "n", 99),
        (0, "m", -5),
        (0, "graph_hash", "bogus"),
        (0, "seed", "x"),
        (0, "seed", True),
        (0, "max_steps", "abc"),
        (0, "max_steps", True),
        # every writer caps a trace at one step or more, and at no fewer
        # steps than its four
        (0, "max_steps", 3),
        (0, "max_steps", -5),
        (-1, "moves", 99),
        (-1, "rounds", 99),
        (-1, "stable", "x"),
        (1, "index", False),
        (1, "round_index", True),
    ])
    def test_inconsistent_or_mistyped_field_is_usage_error(
        self, workdir, capsys, record, field, value
    ):
        records = self._valid_lines(workdir, capsys)
        records[record][field] = value
        assert self._verify_lines(workdir, records) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
