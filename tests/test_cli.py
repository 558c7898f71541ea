from __future__ import annotations

import json

import pytest

from bornlab.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    ScenarioError,
    main,
    render_report,
    run_scenario,
)


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def lln_scan_doc(seed=3):
    return {
        "schema_version": 1,
        "kind": "lln",
        "seed": seed,
        "parameters": {"op": "scan", "p": 0.5, "delta": 0.1, "ns": [10, 100, 1000]},
    }


class TestRunScenario:
    def test_lln_scan_passes(self, tmp_path):
        report, code = run_scenario(write_scenario(tmp_path, lln_scan_doc()))
        assert code == EXIT_OK
        assert report["verdicts"]["converged"] == "PASS"
        assert report["kind"] == "lln"
        assert report["seed"] == 3

    def test_malformed_json_raises_scenario_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            run_scenario(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {"kind": "frobnicate", "parameters": {}})
        with pytest.raises(ScenarioError, match="unknown scenario kind"):
            run_scenario(path)

    def test_kind_subcommand_mismatch(self, tmp_path):
        path = write_scenario(tmp_path, lln_scan_doc())
        with pytest.raises(ScenarioError, match="does not match"):
            run_scenario(path, expected_kind="nogo")

    def test_seed_override(self, tmp_path):
        path = write_scenario(tmp_path, lln_scan_doc(seed=3))
        report, _ = run_scenario(path, seed_override=99)
        assert report["seed"] == 99

    def test_failing_check_sets_exit_code(self, tmp_path):
        doc = {
            "kind": "lln",
            "seed": 0,
            "parameters": {
                "op": "scan",
                "p": 0.5,
                "delta": 0.01,
                "ns": [10, 20],
                "threshold": 1e-12,
            },
        }
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_FAIL
        assert report["failures"][0]["check"] == "converged"


class TestDeterminism:
    def test_reports_identical_modulo_wall_clock(self, tmp_path):
        doc = {
            "kind": "simulate",
            "seed": 4100,
            "parameters": {
                "model": {"observables": [[[1, 0], [0, -1]]], "gamma": 1.0},
                "psi0": [0.7071067811865476, 0.7071067811865476],
                "t_max": 20.0,
                "dt": 0.001,
                "n_trajectories": 200,
            },
        }
        path = write_scenario(tmp_path, doc)
        first, _ = run_scenario(path)
        second, _ = run_scenario(path)
        first.pop("wall_clock_s")
        second.pop("wall_clock_s")
        assert render_report(first) == render_report(second)

    def test_simulate_work_counters(self, tmp_path):
        doc = {
            "kind": "simulate",
            "seed": 4300,
            "parameters": {
                "model": {"observables": [[[1, 0], [0, -1]]], "gamma": 1.0},
                "psi0": [0.7071067811865476, 0.7071067811865476],
                "t_max": 3.0,
                "dt": 0.001,
                "n_trajectories": 40,
                "martingale_checkpoints": [0.5, 4.0],
                "martingale_trajectories": 50,
            },
        }
        report, _ = run_scenario(write_scenario(tmp_path, doc))
        metrics = report["metrics"]
        assert sorted(metrics["resolve_time"]) == ["max", "p50", "p90"]
        assert 0 < metrics["resolve_time"]["p50"] <= metrics["resolve_time"]["max"] <= 3.0
        # 40 ensemble rows to 3000 steps at most, 50 martingale rows to 4000
        assert 0 < metrics["trajectory_steps"] <= 50 * 4000
        assert [row["time"] for row in metrics["martingale"]] == [0.5, 0.5, 4.0, 4.0]
        assert report["verdicts"]["martingale"] in ("PASS", "FAIL")

    def test_worker_count_invariance(self, tmp_path):
        base = {
            "kind": "simulate",
            "seed": 4200,
            "parameters": {
                "model": {"observables": [[[1, 0], [0, -1]]], "gamma": 1.0},
                "psi0": [0.5477225575051661, 0.8366600265340756],
                "t_max": 20.0,
                "dt": 0.001,
                "n_trajectories": 240,
            },
        }
        reports = []
        for workers in (1, 3):
            doc = json.loads(json.dumps(base))
            doc["parameters"]["workers"] = workers
            report, _ = run_scenario(write_scenario(tmp_path, doc, f"w{workers}.json"))
            report.pop("wall_clock_s")
            report["scenario"]["parameters"].pop("workers")
            reports.append(render_report(report))
        assert reports[0] == reports[1]


class TestMain:
    def test_usage_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["lln", "--scenario", str(path)]) == EXIT_USAGE

    def test_report_written_to_out(self, tmp_path):
        scenario = write_scenario(tmp_path, lln_scan_doc())
        out = tmp_path / "report.json"
        code = main(["lln", "--scenario", str(scenario), "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["verdicts"]["converged"] == "PASS"

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        scenario = write_scenario(tmp_path, lln_scan_doc())
        monkeypatch.setenv("BORNLAB_OUT_DIR", str(tmp_path / "outputs"))
        code = main(["lln", "--scenario", str(scenario), "--out", "report.json"])
        assert code == EXIT_OK
        assert (tmp_path / "outputs" / "report.json").exists()

    def test_stdout_when_no_out(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, lln_scan_doc())
        assert main(["lln", "--scenario", str(scenario)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "lln"

    def test_invalid_inputs_exit_usage(self, tmp_path):
        doc = {
            "kind": "nogo",
            "parameters": {"check": "separation", "chi": [0, 0], "phi": [1, 0]},
        }
        scenario = write_scenario(tmp_path, doc)
        assert main(["nogo", "--scenario", str(scenario)]) == EXIT_USAGE

    def test_numerical_failure_exit_code(self, tmp_path, recwarn):
        # eigenvalues near the float ceiling overflow the quadratic drift
        doc = {
            "kind": "simulate",
            "seed": 1,
            "parameters": {
                "model": {"observables": [[[1e160, 0], [0, -1e160]]], "gamma": 1.0},
                "psi0": [0.6, 0.8],
                "t_max": 2.0,
                "dt": 1.0,
                "n_trajectories": 4,
            },
        }
        scenario = write_scenario(tmp_path, doc)
        assert main(["simulate", "--scenario", str(scenario)]) == 3


class TestScenarioKinds:
    def test_nogo_pm(self, tmp_path):
        doc = {
            "kind": "nogo",
            "parameters": {
                "check": "pm",
                "chi1": [1, 0, 0],
                "chi2": [0, 1, 0],
                "assignment": {"P1": 0.0, "P2": 0.0},
                "expect": "consistent",
            },
        }
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK
        derived = {d["projector"]: d["value"] for d in report["metrics"]["derived"]}
        assert derived == {"P+": 0.0, "P-": 0.0}

    def test_nogo_search_counts(self, tmp_path):
        doc = {
            "kind": "nogo",
            "parameters": {
                "check": "search",
                "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "expect_satisfiable": True,
                "expect_count": 3,
            },
        }
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK

    def test_derive_rational_trace(self, tmp_path):
        doc = {
            "kind": "derive",
            "parameters": {"construction": "rational", "weights": [2, 1]},
        }
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK
        assert report["metrics"]["weights"] == ["2/3", "1/3"]
        rules = [s["rule"] for s in report["traces"][0]["steps"]]
        assert "refinement" in rules and "additivity" in rules

    def test_solve_measure_underdetermined_expectation(self, tmp_path):
        doc = {
            "kind": "solve-measure",
            "parameters": {
                "masses": ["1/4", "1/4", "1/4", "1/4"],
                "grainings": [[2, 1, 1]],
                "expect": "underdetermined",
            },
        }
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK
        assert report["metrics"]["freedom"] >= 1
        # x(0,2) + x(2,3) + x(3,4) = 1 and x(2,3) - x(3,4) = 0
        assert report["metrics"]["constraints"] == 2
        assert report["metrics"]["nonzeros"] == 5

    @pytest.mark.parametrize(
        "n, path, terms", [(10, "exact", 6), (1000, "exact", 600), (1001, "log", 602)]
    )
    def test_lln_tail_counters(self, tmp_path, n, path, terms):
        doc = {"kind": "lln", "parameters": {"op": "tail", "n": n, "delta": 0.2, "p": 0.5}}
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK
        assert report["metrics"]["tail_path"] == path
        assert report["metrics"]["terms"] == terms

    def test_games_pivotal(self, tmp_path):
        doc = {
            "kind": "games",
            "parameters": {"mode": "pivotal", "x1": 0.0, "x2": 10.0},
        }
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK
        assert report["metrics"]["value"] == pytest.approx(5.0)

    def test_histories_interference(self, tmp_path):
        h = 0.7071067811865476
        doc = {
            "kind": "histories",
            "parameters": {
                "psi0": [h, h],
                "steps": [
                    {"resolution": [[0], [1]]},
                    {"resolution": [[0], [1]], "unitary": [[h, h], [h, -h]]},
                ],
                "expect": "INCONSISTENT",
            },
        }
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK
        assert report["metrics"]["max_discrepancy"] == pytest.approx(0.5)

    def test_simulate_csv(self, tmp_path):
        doc = {
            "kind": "simulate",
            "seed": 11,
            "parameters": {
                "model": {"observables": [[[1, 0], [0, -1]]], "gamma": 1.0},
                "psi0": [1.0, 0.0],
                "t_max": 0.1,
                "dt": 0.001,
                "n_trajectories": 10,
            },
        }
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "rep.json"
        report, code = run_scenario(path, out_path=out, write_csv=True)
        assert code == EXIT_OK
        csv_files = report["metrics"]["csv_files"]
        assert (tmp_path / "trajectory_0.csv").exists()
        assert str(tmp_path / "trajectory_0.csv") in csv_files
