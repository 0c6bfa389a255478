from __future__ import annotations

import json

import pytest

from stabmatch.cli import EXIT_FAIL, EXIT_INCOMPLETE, EXIT_OK, EXIT_USAGE, main
from stabmatch.graph import read_graph
from stabmatch.protocol import parse_configuration
from stabmatch.scheduler import parse_trace

TWO_SUITORS_GRAPH = "3\n1 3\n2 3\n"
TWO_SUITORS_INIT = "1 3 f\n2 3 f\n3 - f\n"


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

    def test_member_failure_marks_summary_and_exits_one(self, workdir, capsys):
        spec = self._spec(workdir, max_steps=1)
        assert main(["experiment", "--spec", spec, "--out", "s.txt"]) == EXIT_FAIL
        assert "audit=fail" in (workdir / "s.txt").read_text()

    @pytest.mark.parametrize("overrides, fragment", [
        ({"graphs": [5]}, "'graphs' must be a list of objects"),
        ({"seeds": ["x"]}, "'seeds' must be a list of integers"),
        ({"policies": "synchronous"}, "'policies' must be a list of strings"),
        ({"graphs": [{"kind": 3, "n": 4}]}, "'kind' must be a string"),
    ])
    def test_mistyped_spec_field_is_usage_error(self, workdir, capsys, overrides, fragment):
        spec = self._spec(workdir, **overrides)
        assert main(["experiment", "--spec", spec]) == EXIT_USAGE
        assert fragment in capsys.readouterr().err

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

    def test_budget_exhaustion_exits_two(self, workdir):
        main(["gen", "--kind", "cycle", "--n", "3", "--out", "c3.g"])
        code = main(["search", "--graph", "c3.g", "--init", "all",
                     "--budget", "4"])
        assert code == EXIT_INCOMPLETE

    def test_large_all_mode_warns(self, workdir, capsys):
        main(["gen", "--kind", "cycle", "--n", "6", "--out", "c6.g"])
        main(["search", "--graph", "c6.g", "--init", "all", "--budget", "10"])
        assert "warning" in capsys.readouterr().err

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

    def test_disabled_selection_is_rejected_without_step(self, workdir, capsys, monkeypatch):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", TWO_SUITORS_INIT)
        self._feed(monkeypatch, "1\nquit\n")
        main(["step", "--graph", "two.g", "--init", "two.cfg"])
        out = capsys.readouterr().out
        assert "node 1 has no enabled rule" in out

    def test_undo_restores_state(self, workdir, capsys, monkeypatch):
        _write(workdir / "two.g", TWO_SUITORS_GRAPH)
        _write(workdir / "two.cfg", TWO_SUITORS_INIT)
        self._feed(monkeypatch, "3\nundo\nsave empty.trace\nquit\n")
        main(["step", "--graph", "two.g", "--init", "two.cfg"])
        trace = parse_trace((workdir / "empty.trace").read_text())
        assert trace.steps == 0

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

    def test_missing_inputs_usage_error(self, workdir):
        assert main(["export-dot"]) == EXIT_USAGE

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
        # drop one step record but keep the footer count intact
        forged = [ln for ln in lines if '"index":1' not in ln]
        forged = [ln.replace('"steps":4', '"steps":3') for ln in forged]
        forged = [
            ln.replace('{"index":2', '{"index":1').replace('{"index":3', '{"index":2')
            for ln in forged
        ]
        _write(workdir / "bad.trace", "\n".join(forged) + "\n")
        assert main(["verify", "--trace", "bad.trace"]) == EXIT_FAIL
        assert "corrupt trace" in capsys.readouterr().err

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
