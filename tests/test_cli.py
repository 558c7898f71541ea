from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import histories, lln
from bornlab.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    KINDS,
    SCENARIOS,
    VARIANT_FIELDS,
    ScenarioError,
    _table_to_dict,
    main,
    parse_matrix,
    parse_vector,
    render_report,
    run_scenario,
)
from bornlab.collapse import (
    MAX_NOISE_STREAMS,
    MAX_RECORDED_VALUES,
    CollapseModel,
    simulate,
    trajectory_to_csv,
)
from bornlab.emergence import MAX_TOTAL_WEIGHT
from bornlab.games import MAX_CLOSURE_DEPTH
from bornlab.hilbert import MeasureTable, Projector, StateVector
from bornlab.lln import MAX_AUDIT_WEIGHTS, MAX_TRIALS
from bornlab.nogo import MAX_ROTATION_STEPS


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


SIMULATE_PARAMS = {
    "model": {"observables": [[[1, 0], [0, -1]]], "gamma": 1.0},
    "psi0": [0.6, 0.8],
    "t_max": 0.01,
    "dt": 0.001,
    "n_trajectories": 2,
}

PM_PARAMS = {"check": "pm", "chi1": [1, 0, 0], "chi2": [0, 1, 0]}
SEPARATION_PARAMS = {"check": "separation", "chi": [1, 0], "phi": [0.6, 0.8]}
ROTATION_PARAMS = {"check": "rotation", "chi": [1, 0], "phi": [0, 1], "steps": 8}
SEARCH_PARAMS = {"check": "search", "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
PIVOTAL_PARAMS = {"mode": "pivotal", "x1": 0.0, "x2": 1.0}


def half_points(wholes, digits_below=10**10):
    """(whole, digits, ulps, direction): a float 1-4 ulps from a 10-decimal half-point."""
    return st.tuples(
        wholes,
        st.integers(0, digits_below - 1),
        st.integers(1, 4),
        st.sampled_from((-math.inf, math.inf)),
    )


HALF_POINT = half_points(st.integers(-20, 20))
# within (0, 0.3), so that four complex entries fit in a unit state
UNIT_HALF_POINT = half_points(st.just(0), 3 * 10**9)


def near_half_point(whole, digits, ulps, toward, last_digit=5) -> float:
    x = float(f"{whole}.{digits:010d}{last_digit}")  # nearest double to the decimal
    for _ in range(ulps):
        x = math.nextafter(x, toward)
    return x


# each keeps |a + bi| bit for bit: times 1, i, -1, -i, and conjugation
MODULUS_PHASES = (
    lambda a, b: [a, b],
    lambda a, b: [-b, a],
    lambda a, b: [-a, -b],
    lambda a, b: [b, -a],
    lambda a, b: [a, -b],
)


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


class TestParsing:
    @pytest.mark.parametrize("value", [5, "ab", {"a": 1}, None])
    def test_vector_must_be_a_list(self, value):
        with pytest.raises(ScenarioError, match="list"):
            parse_vector(value)

    @pytest.mark.parametrize("value", [5, "ab", [5], [[1, 0], "ab"]])
    def test_matrix_must_be_a_list_of_lists(self, value):
        with pytest.raises(ScenarioError, match="list"):
            parse_matrix(value)

    def test_parsed_values(self):
        assert parse_vector([1, [0, 2]]).tolist() == [1, 2j]
        assert parse_matrix([[1, 0], [0, [0, -1]]]).tolist() == [[1, 0], [0, -1j]]


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

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([{"kind": "histories"}], "JSON object"),
            ({"kind": "histories", "parameters": [1, 2]}, "'parameters'"),
        ],
    )
    def test_malformed_document_exit_usage(self, tmp_path, capsys, doc, field):
        scenario = write_scenario(tmp_path, doc)
        assert main(["histories", "--scenario", str(scenario)]) == EXIT_USAGE
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"epsilon": "x"}, "'epsilon'"),
            ({"epsilon": -1e-3}, "'epsilon'"),
            ({"epsilon": float("inf")}, "'epsilon'"),
            ({"epsilon": float("nan")}, "'epsilon'"),
            ({"steps": 5}, "'steps'"),
            ({"steps": []}, "'steps'"),
            ({"steps": [[[0], [1]]]}, "'steps'"),
            ({"steps": [{"resolution": [["a"], [1]]}]}, "'resolution'"),
            ({"steps": [{"resolution": [[0.5], [1]]}]}, "'resolution'"),
            ({"steps": [{"resolution": [[0, 0], [1]]}]}, "'resolution'"),
            ({"steps": [{"resolution": [[-1], [0, 1]]}]}, "'resolution'"),
            ({"steps": [{"resolution": [[0], [1, 2]]}]}, "'resolution'"),
        ],
    )
    def test_malformed_histories_exit_usage(self, tmp_path, capsys, change, field):
        params = {"psi0": [0.6, 0.8], "steps": [{"resolution": [[0], [1]]}], **change}
        scenario = write_scenario(tmp_path, {"kind": "histories", "parameters": params})
        assert main(["histories", "--scenario", str(scenario)]) == EXIT_USAGE
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", [[[0], [0, 1]], [[0]]])
    def test_resolution_off_the_identity_exit_usage(self, tmp_path, capsys, resolution):
        params = {"psi0": [0.6, 0.8], "steps": [{"resolution": resolution}]}
        scenario = write_scenario(tmp_path, {"kind": "histories", "parameters": params})
        assert main(["histories", "--scenario", str(scenario)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "must sum to the identity" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("histories", {"psi0": 5, "steps": [{"resolution": [[0], [1]]}]}, "'psi0'"),
            (
                "histories",
                {"psi0": [0.6, 0.8], "steps": [{"resolution": [[0], [1]], "unitary": 5}]},
                "'unitary'",
            ),
            ("simulate", {**SIMULATE_PARAMS, "psi0": 5}, "'psi0'"),
            ("simulate", {**SIMULATE_PARAMS, "n_trajectories": "abc"}, "'n_trajectories'"),
            ("nogo", {"check": "separation", "chi": 7, "phi": [1, 0]}, "'chi'"),
            ("lln", {"op": "tail", "n": 10, "delta": "x", "p": 0.5}, "'delta'"),
            ("solve-measure", {"masses": ["1/0", 1], "grainings": [[1, 1]]}, "'masses'"),
            ("nogo", {**PM_PARAMS, "assignment": {"P3": 0.5}}, "'assignment'"),
            ("nogo", {**PM_PARAMS, "assignment": {"P1": 1.5}}, "'assignment'"),
            ("simulate", {**SIMULATE_PARAMS, "workers": "two"}, "'workers'"),
        ],
    )
    def test_unconvertible_field_exit_usage(self, tmp_path, capsys, kind, params, field):
        scenario = write_scenario(tmp_path, {"kind": kind, "parameters": params})
        assert main([kind, "--scenario", str(scenario)]) == EXIT_USAGE
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("lln", {"op": "tail", "n": 10, "delta": 0.1, "p": 1.5}, "chance p"),
            ("lln", {"op": "tail", "n": -3, "delta": 0.1, "p": 0.5}, "count n"),
            (
                "simulate",
                {**SIMULATE_PARAMS, "model": {**SIMULATE_PARAMS["model"], "norm_mode": "x"}},
                "'norm_mode'",
            ),
            (
                "histories",
                {"psi0": [0.6, 0.8], "steps": [{"resolution": [[0], [1]]}], "expect": 3},
                "'expect'",
            ),
            (
                "games",
                {
                    "mode": "special-equivalence",
                    "state": [1, 0, 1],
                    "p1_cells": [0, 1],
                    "p2_cells": [1, 2],
                },
                "'p1_cells'",
            ),
            (
                "simulate",
                {**SIMULATE_PARAMS, "model": {**SIMULATE_PARAMS["model"], "observables": []}},
                "'observables'",
            ),
            ("simulate", {**SIMULATE_PARAMS, "dt": 0.0}, "step size dt"),
            ("simulate", {**SIMULATE_PARAMS, "dt": -0.001}, "step size dt"),
            ("simulate", {**SIMULATE_PARAMS, "t_max": -1.0}, "horizon t_max"),
            ("simulate", {**SIMULATE_PARAMS, "n_trajectories": 0}, "'n_trajectories'"),
            ("simulate", {**SIMULATE_PARAMS, "csv_record_every": 0}, "'csv_record_every'"),
            ("simulate", {**SIMULATE_PARAMS, "eps_collapse": 2}, "eps_collapse"),
            ("simulate", {**SIMULATE_PARAMS, "eps_collapse": -0.1}, "eps_collapse"),
            (
                "simulate",
                {**SIMULATE_PARAMS, "martingale_checkpoints": 5},
                "'martingale_checkpoints'",
            ),
            (
                "simulate",
                {**SIMULATE_PARAMS, "martingale_checkpoints": [-1.0]},
                "martingale checkpoints",
            ),
            ("nogo", {**PM_PARAMS, "assignment": {}, "expect": "contradicton"}, "'expect'"),
            ("nogo", {**SEPARATION_PARAMS, "expect": "forbiden"}, "'expect'"),
            ("nogo", {**ROTATION_PARAMS, "expect": "consistant"}, "'expect'"),
            (
                "solve-measure",
                {"masses": [1, 1], "grainings": [[1, 1]], "expect": "Underdetermined"},
                "'expect'",
            ),
            ("nogo", {**ROTATION_PARAMS, "steps": 1}, "'steps'"),
            ("nogo", {**ROTATION_PARAMS, "steps": 2.5}, "'steps'"),
            ("nogo", {**ROTATION_PARAMS, "steps": MAX_ROTATION_STEPS + 1}, "'steps'"),
            ("lln", {"op": "scan", "p": 0.5, "delta": 0.1, "ns": []}, "'ns'"),
            ("lln", {"op": "scan", "p": 0.5, "delta": 0.1, "ns": [100, 10]}, "'ns'"),
            ("nogo", {**SEARCH_PARAMS, "expect_satisfiable": "no"}, "'expect_satisfiable'"),
            ("nogo", {**SEARCH_PARAMS, "expect_satisfiable": 1}, "'expect_satisfiable'"),
            ("nogo", {**SEARCH_PARAMS, "expect_count": 3.5}, "'expect_count'"),
            ("nogo", {**SEARCH_PARAMS, "expect_count": True}, "'expect_count'"),
            ("games", {**PIVOTAL_PARAMS, "depth": 2.5}, "'depth'"),
            ("games", {**PIVOTAL_PARAMS, "depth": "3"}, "'depth'"),
            ("lln", {"op": "tail", "n": 10.7, "delta": 0.1, "p": 0.5}, "'n'"),
            ("lln", {"op": "tail", "n": True, "delta": 0.1, "p": 0.5}, "'n'"),
            ("lln", {"op": "scan", "p": 0.5, "delta": 0.1, "ns": [10, 100.5]}, "'ns'"),
            ("derive", {"construction": "rational", "weights": [1.5, 2]}, "'weights'"),
            (
                "derive",
                {"construction": "rational", "weights": [1, 2], "block_sizes": [1, False]},
                "'block_sizes'",
            ),
            (
                "derive",
                {"construction": "equiprobable", "amplitudes": [1, 1], "lattice": "no"},
                "'lattice'",
            ),
            (
                "solve-measure",
                {"masses": [1, 1, 1], "grainings": [[1.5, 1.5]]},
                "'grainings'",
            ),
            (
                "games",
                {
                    "mode": "special-equivalence",
                    "state": [1, 0, 1],
                    "p1_cells": [0.5],
                    "p2_cells": [2],
                },
                "'p1_cells'",
            ),
            ("simulate", {**SIMULATE_PARAMS, "n_trajectories": 2.5}, "'n_trajectories'"),
            ("simulate", {**SIMULATE_PARAMS, "workers": 1.5}, "'workers'"),
            ("simulate", {**SIMULATE_PARAMS, "csv_trajectories": ["0"]}, "'csv_trajectories'"),
            ("simulate", {**SIMULATE_PARAMS, "t_max": 1e12, "dt": 1e-12}, "t_max"),
            ("simulate", {**SIMULATE_PARAMS, "t_max": 1e9, "dt": 1e-9}, "MAX_STEPS"),
            ("simulate", {**SIMULATE_PARAMS, "dt": 1e-320}, "t_max"),
            (
                "simulate",
                {**SIMULATE_PARAMS, "martingale_checkpoints": [0.001, 1e5]},
                "martingale checkpoint",
            ),
            ("solve-measure", {"masses": ["1/2", "1/2"], "grainings": []}, "'grainings'"),
            (
                "derive",
                {"construction": "rational", "weights": [1, 1], "profiles": [[True], [True]]},
                "'profiles'",
            ),
            (
                "derive",
                {"construction": "rational", "weights": [1, 1], "profiles": [["1e10000000"], [1]]},
                "'profiles'",
            ),
            (
                "derive",
                {"construction": "rational", "weights": [1, 1], "profiles": [["1" * 101], [1]]},
                "'profiles'",
            ),
            ("solve-measure", {"masses": [True, 1], "grainings": [[1, 1]]}, "'masses'"),
            (
                "derive",
                {"construction": "rational", "weights": [1, 1], "block_sizes": [10000, 1]},
                "'block_sizes'",
            ),
            ("nogo", {**PM_PARAMS, "assignment": []}, "'assignment'"),
            ("nogo", {**PM_PARAMS, "assignment": ""}, "'assignment'"),
            ("nogo", {**PM_PARAMS, "assignment": [["P1", 0], ["P2", 0]]}, "'assignment'"),
            ("nogo", {**PM_PARAMS, "assignment": {"P1": 1.5}}, "'assignment'"),
            (
                "games",
                {
                    "mode": "special-equivalence",
                    "state": [1, 0, 1],
                    "p1_cells": [0, 0],
                    "p2_cells": [2],
                },
                "'p1_cells'",
            ),
            (
                "games",
                {
                    "mode": "special-equivalence",
                    "state": [1, 0, 1],
                    "p1_cells": [0],
                    "p2_cells": [2, 2],
                },
                "'p2_cells'",
            ),
            (
                "games",
                {
                    "mode": "special-equivalence",
                    "state": [1, 0, 1],
                    "p1_cells": [0],
                    "p2_cells": [-1],
                },
                "'p2_cells'",
            ),
            (
                "games",
                {"mode": "special-equivalence", "state": [1, 0, 1], "p1_cells": [5], "p2_cells": [2]},
                "'p1_cells'",
            ),
            (
                "games",
                {"mode": "special-equivalence", "state": [1, 0, 1], "p1_cells": [0], "p2_cells": [3]},
                "'p2_cells'",
            ),
        ],
    )
    def test_out_of_range_field_exit_usage(self, tmp_path, capsys, kind, params, field):
        scenario = write_scenario(tmp_path, {"kind": kind, "parameters": params})
        assert main([kind, "--scenario", str(scenario)]) == EXIT_USAGE
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1.5, True, "7"])
    def test_non_integer_seed_exit_usage(self, tmp_path, capsys, seed):
        params = {"op": "tail", "n": 10, "delta": 0.1, "p": 0.5}
        doc = {"kind": "lln", "seed": seed, "parameters": params}
        assert main(["lln", "--scenario", str(write_scenario(tmp_path, doc))]) == EXIT_USAGE
        assert "'seed'" in capsys.readouterr().err

    def test_integral_floats_read_as_integers(self, tmp_path):
        doc = {
            "kind": "nogo",
            "seed": 4.0,
            "parameters": {**SEARCH_PARAMS, "expect_satisfiable": True, "expect_count": 3.0},
        }
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK
        assert report["seed"] == 4 and type(report["seed"]) is int

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

    @pytest.mark.parametrize("n, terms", [(10, 6), (1000, 600), (1001, 602)])
    def test_lln_tail_counters(self, tmp_path, n, terms):
        doc = {"kind": "lln", "parameters": {"op": "tail", "n": n, "delta": 0.2, "p": 0.5}}
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK
        assert list(report["metrics"]) == ["tail", "terms"]
        assert report["metrics"]["terms"] == terms

    def test_lln_scan_counters(self, tmp_path):
        doc = {
            "kind": "lln",
            "parameters": {"op": "scan", "p": 0.5, "delta": 0.2, "ns": [10, 1000, 1001]},
        }
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK
        assert "tail_paths" not in report["metrics"]
        assert report["metrics"]["terms"] == [6, 600, 602]

    def test_games_pivotal(self, tmp_path):
        doc = {
            "kind": "games",
            "parameters": {"mode": "pivotal", "x1": 0.0, "x2": 10.0},
        }
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK
        assert report["metrics"]["value"] == pytest.approx(5.0)
        # the depth-4 closure expands each of its 8 games once
        assert report["metrics"]["solver_rank"] == report["metrics"]["n_unknowns"] == 8
        assert report["metrics"]["constraints"] == 24

    def test_games_special_equivalence_counters(self, tmp_path):
        doc = {
            "kind": "games",
            "parameters": {
                "mode": "special-equivalence",
                "state": [1, 1, 1],
                "p1_cells": [0],
                "p2_cells": [1],
            },
        }
        report, code = run_scenario(write_scenario(tmp_path, doc))
        assert code == EXIT_OK
        # the two projector games and their negations form one free component
        assert report["metrics"]["value_difference"] == 0.0
        assert (report["metrics"]["rank"], report["metrics"]["n_unknowns"]) == (3, 4)
        assert report["metrics"]["constraints"] == 8

    def test_games_pivotal_labels_at_a_rounding_half_point(self, tmp_path, capsys):
        # in floats -x1 + (x1 + x2) is one ulp from x2 here, and labels once
        # rounded to 10 decimals put the two presentations on either side
        params = {"mode": "pivotal", "x1": 1.0000000000499998, "x2": 2.00000000005}
        out = tmp_path / "report.json"
        assert run_main(tmp_path, "games", params, "--out", str(out)) == EXIT_OK
        assert capsys.readouterr().err == ""
        verdicts = json.loads(out.read_text())["verdicts"]
        assert verdicts["pivotal_value"] == verdicts["closure_solve"] == "PASS"

    def test_games_pivotal_labels_one_ulp_apart_run_the_closure(self, tmp_path, capsys):
        # distinct labels are two outcomes however close: the closure runs
        params = {"mode": "pivotal", "x1": 1.0, "x2": math.nextafter(1.0, 2.0), "slope": 3.0}
        out = tmp_path / "report.json"
        assert run_main(tmp_path, "games", params, "--out", str(out)) == EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert set(report["verdicts"].values()) == {"PASS"}
        metrics = report["metrics"]
        assert metrics["value"] == metrics["expected"] == 3.0000000000000004
        assert metrics["solver_rank"] == metrics["n_unknowns"] == 8

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(HALF_POINT, min_size=2, max_size=2))
    def test_games_pivotal_labels_near_half_points_pass(self, draws):
        labels = [near_half_point(*draw) for draw in draws]
        doc = {"kind": "games", "parameters": {"mode": "pivotal", "x1": labels[0], "x2": labels[1]}}
        with tempfile.TemporaryDirectory() as tmp:
            report, code = run_scenario(write_scenario(Path(tmp), doc))
        assert code == EXIT_OK
        assert set(report["verdicts"].values()) == {"PASS"}

    def test_games_special_equivalence_state_at_a_rounding_half_point(self, tmp_path, capsys):
        # both weights are equal bit for bit; a float swap of the state once
        # moved its first entry to the other side of a 10-decimal half-point
        params = {
            "mode": "special-equivalence",
            "state": [0.3123456789499999, 0.3123456789499999, 0.8971512434826845],
            "p1_cells": [0],
            "p2_cells": [1],
        }
        out = tmp_path / "report.json"
        assert run_main(tmp_path, "games", params, "--out", str(out)) == EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["verdicts"]["special_equivalence"] == "PASS"
        metrics = report["metrics"]
        assert (metrics["rank"], metrics["n_unknowns"], metrics["value_difference"]) == (3, 4, 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(1, 2),
        st.lists(
            st.tuples(UNIT_HALF_POINT, UNIT_HALF_POINT, st.sampled_from(MODULUS_PHASES)),
            min_size=2,
            max_size=2,
        ),
    )
    def test_games_special_equivalence_states_near_half_points_pass(self, rank, parts):
        # the second range holds the first range's entries under phases
        # that keep each modulus exactly, and a last entry completes a unit
        # norm, so the normalised state keeps its entries at the
        # half-points; the verdict and counters must match those of the
        # same state moved off the half-points
        def report_for(last_digit):
            first = [
                [near_half_point(*re, last_digit), near_half_point(*im, last_digit)]
                for re, im, _ in parts[:rank]
            ]
            second = [phase(*entry) for entry, (_, _, phase) in zip(first, parts)]
            rest = math.sqrt(1.0 - 2.0 * sum(re * re + im * im for re, im in first))
            params = {
                "mode": "special-equivalence",
                "state": [*first, *second, rest],
                "p1_cells": list(range(rank)),
                "p2_cells": list(range(rank, 2 * rank)),
            }
            with tempfile.TemporaryDirectory() as tmp:
                doc = {"kind": "games", "parameters": params}
                return run_scenario(write_scenario(Path(tmp), doc))

        report, code = report_for(5)
        off_boundary, _ = report_for(3)
        assert code == EXIT_OK
        assert report["verdicts"] == off_boundary["verdicts"] == {"special_equivalence": "PASS"}
        counters = ("rank", "n_unknowns", "constraints", "value_difference")
        assert [report["metrics"][c] for c in counters] == [
            off_boundary["metrics"][c] for c in counters
        ]

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
        assert report["metrics"]["pairs"] == 6
        assert report["metrics"]["pairs_over_epsilon"] == 2

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

    def test_csv_files_are_the_ensemble_members(self, tmp_path):
        # trajectory_i.csv is ensemble member seed + i, recorded up to t_max even when a
        # martingale checkpoint keeps it integrating; duplicates are written twice
        params = {
            "model": {"observables": [[[1, 0], [0, -1]]], "gamma": 1.0},
            "psi0": [0.6, 0.8],
            "t_max": 0.4,
            "dt": 0.001,
            "n_trajectories": 6,
            "martingale_checkpoints": [1.5],
            "csv_record_every": 3,
            "csv_trajectories": [4, 1, 4],
        }
        doc = {"kind": "simulate", "seed": 70, "parameters": params}
        report, _ = run_scenario(
            write_scenario(tmp_path, doc), out_path=tmp_path / "rep.json", write_csv=True
        )
        names = [Path(f).name for f in report["metrics"]["csv_files"]]
        assert names == ["trajectory_4.csv", "trajectory_1.csv", "trajectory_4.csv"]
        model = CollapseModel(None, [np.diag([1.0, -1.0])], 1.0)
        for idx in (1, 4):
            alone = simulate(model, StateVector([0.6, 0.8]), 0.4, 0.001, 70 + idx, record_every=3)
            trajectory_to_csv(alone, model, tmp_path / "alone.csv")
            expected = (tmp_path / "alone.csv").read_bytes()
            assert (tmp_path / f"trajectory_{idx}.csv").read_bytes() == expected


NAN, INF = float("nan"), float("inf")
WITH_MODEL = {**SIMULATE_PARAMS["model"]}


def run_main(tmp_path, kind, params, *extra):
    scenario = write_scenario(tmp_path, {"kind": kind, "parameters": params})
    return main([kind, "--scenario", str(scenario), *extra])


class TestScenarioTable:
    def test_defaults_are_the_library_constants(self):
        assert SCENARIOS["histories"][0]["epsilon"][1] == histories.DEFAULT_EPSILON
        assert SCENARIOS["lln:scan"][0]["threshold"][1] == lln.DEFAULT_SCAN_THRESHOLD

    def test_kinds_are_the_registered_kinds(self, capsys):
        registered = [name.partition(":")[0] for name in SCENARIOS]
        assert KINDS == ("simulate", "derive", "solve-measure", "games", "histories", "lln", "nogo")
        assert sorted(set(registered), key=registered.index) == list(KINDS)
        assert main(["--help"]) == EXIT_OK
        assert "{" + ",".join(KINDS) + "}" in capsys.readouterr().out
        for kind in KINDS:
            assert main([kind, "--help"]) == EXIT_OK
            assert f"usage: bornlab {kind} " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("nogo", {**SEPARATION_PARAMS, "chi": [1, NAN]}, "'chi'"),
            ("nogo", {**SEARCH_PARAMS, "rays": [[1, 0, 0], [0, NAN, 0], [0, 0, 1]]}, "'rays'"),
            ("nogo", {**PM_PARAMS, "chi1": [1, 0, NAN], "assignment": {}}, "'chi1'"),
            ("derive", {"construction": "equiprobable", "amplitudes": [NAN, 1]}, "'amplitudes'"),
            ("games", {**PIVOTAL_PARAMS, "x1": NAN}, "'x1'"),
            ("games", {**PIVOTAL_PARAMS, "x1": INF}, "'x1'"),
            (
                "games",
                {
                    "mode": "special-equivalence",
                    "state": [1, 1, 1],
                    "p1_cells": [0],
                    "p2_cells": [1],
                    "slope": INF,
                },
                "'slope'",
            ),
            ("lln", {"op": "audit", "outcomes": [0, 1], "weights": [NAN, 0.5]}, "'weights'"),
            ("simulate", {**SIMULATE_PARAMS, "model": {**WITH_MODEL, "gamma": NAN}}, "'gamma'"),
            ("simulate", {**SIMULATE_PARAMS, "model": {**WITH_MODEL, "gamma": INF}}, "'gamma'"),
            ("simulate", {**SIMULATE_PARAMS, "psi0": [0.6, NAN]}, "'psi0'"),
            (
                "simulate",
                {**SIMULATE_PARAMS, "model": {**WITH_MODEL, "observables": [[[1, 0], [0, NAN]]]}},
                "'observables'",
            ),
            ("histories", {"psi0": [0.6, 0.8], "steps": [{"resolution": [[0], [1]]}],
                           "epsilon": NAN}, "'epsilon'"),
            ("simulate", {**SIMULATE_PARAMS, "band_multiplier": -1}, "'band_multiplier'"),
            ("games", {**PIVOTAL_PARAMS, "depth": -3}, "'depth'"),
            ("nogo", {**SEARCH_PARAMS, "expect_count": -1}, "'expect_count'"),
            ("simulate", {**SIMULATE_PARAMS, "csv_trajectories": [-1]}, "'csv_trajectories'"),
        ],
    )
    def test_non_finite_and_negative_exit_usage(self, tmp_path, capsys, kind, params, field):
        assert run_main(tmp_path, kind, params) == EXIT_USAGE
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_overflowing_json_number_exit_usage(self, tmp_path, capsys):
        text = json.dumps({"kind": "games", "parameters": PIVOTAL_PARAMS}).replace("1.0", "1e400")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        assert main(["games", "--scenario", str(scenario)]) == EXIT_USAGE
        assert "'x2'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("lln", {"op": "audit", "outcomes": [0], "weights": [0.5, 0.4]}, "'weights'"),
            ("lln", {"op": "audit", "outcomes": [], "weights": [0.5, 0.5]}, "'outcomes'"),
            ("lln", {"op": "audit", "outcomes": [0, 2], "weights": [0.5, 0.5]}, "'outcomes'"),
            ("simulate", {**SIMULATE_PARAMS, "psi0": [0.6, 0.8, 0]}, "dimensions"),
            ("simulate", {**SIMULATE_PARAMS, "model": {**WITH_MODEL, "observables": [[]]}},
             "non-empty"),
            (
                "derive",
                {"construction": "equiprobable", "amplitudes": [1, 1], "block_sizes": [1, 2]},
                "graining",
            ),
            ("lln", {"op": "scan", "p": 0.5, "delta": 0.1, "ns": [10], "treshold": 0.5},
             "'treshold'"),
            ("simulate", {**SIMULATE_PARAMS, "model": {**WITH_MODEL, "gama": 1}}, "'gama'"),
            (
                "histories",
                {"psi0": [0.6, 0.8], "steps": [{"resolution": [[0], [1]], "unitry": None}]},
                "'unitry'",
            ),
        ],
    )
    def test_library_errors_and_unknown_fields_exit_usage(
        self, tmp_path, capsys, kind, params, field
    ):
        assert run_main(tmp_path, kind, params) == EXIT_USAGE
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_overflow_exits_numerical(self, tmp_path, capsys):
        params = {**PIVOTAL_PARAMS, "x2": 1e300, "slope": 1e10}
        assert run_main(tmp_path, "games", params) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("derive", {"construction": "rational", "weights": [MAX_TOTAL_WEIGHT, 1]}, "'weights'"),
            ("lln", {"op": "tail", "n": MAX_TRIALS + 1, "delta": 0.1, "p": 0.5}, "count n"),
            ("lln", {"op": "scan", "p": 0.5, "delta": 0.1, "ns": [10, MAX_TRIALS + 1]}, "'ns'"),
            (
                "lln",
                {"op": "audit", "outcomes": [0] * (MAX_TRIALS + 1), "weights": [1.0]},
                "'outcomes'",
            ),
            ("games", {**PIVOTAL_PARAMS, "depth": MAX_CLOSURE_DEPTH + 1}, "'depth'"),
            (
                "simulate",
                {**SIMULATE_PARAMS, "n_trajectories": MAX_NOISE_STREAMS + 1},
                "MAX_NOISE_STREAMS",
            ),
            (
                "simulate",
                {**SIMULATE_PARAMS, "n_trajectories": MAX_NOISE_STREAMS, "t_max": 100.0},
                "MAX_TRAJECTORY_STEPS",
            ),
            ("simulate", {**SIMULATE_PARAMS, "seed_offset": 1}, "'seed_offset'"),
            (
                "lln",
                {"op": "audit", "outcomes": [0], "weights": [1.0] + [0.0] * MAX_AUDIT_WEIGHTS},
                "'weights'",
            ),
        ],
    )
    def test_resource_bounds_exit_usage(self, tmp_path, capsys, kind, params, field):
        assert run_main(tmp_path, kind, params) == EXIT_USAGE
        assert field in capsys.readouterr().err

    def test_csv_volume_bound(self, tmp_path, capsys):
        # each qubit row holds t, two real and two imaginary parts and two weights
        rows = MAX_RECORDED_VALUES // 7 // 10 + 1
        params = {**SIMULATE_PARAMS, "t_max": rows * 1e-3, "csv_trajectories": list(range(10))}
        out = tmp_path / "report.json"
        assert run_main(tmp_path, "simulate", params, "--csv", "--out", str(out)) == EXIT_USAGE
        assert "'csv_trajectories'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("indices", [[2], [1e300]])
    def test_csv_index_beyond_ensemble_exit_usage(self, tmp_path, capsys, indices):
        params = {**SIMULATE_PARAMS, "csv_trajectories": indices}
        out = tmp_path / "report.json"
        assert run_main(tmp_path, "simulate", params, "--csv", "--out", str(out)) == EXIT_USAGE
        assert "'csv_trajectories'" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [(), ("--csv",)])
    def test_unwritable_out_path_exit_usage(self, tmp_path, capsys, extra):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        out = blocker / "report.json"
        code = run_main(tmp_path, "simulate", SIMULATE_PARAMS, "--out", str(out), *extra)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(blocker) in err and "Traceback" not in err

    def test_unwritable_csv_file_exit_usage(self, tmp_path, capsys):
        (tmp_path / "trajectory_0.csv").mkdir()
        out = tmp_path / "report.json"
        code = run_main(tmp_path, "simulate", SIMULATE_PARAMS, "--csv", "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(tmp_path / "trajectory_0.csv") in err and "Traceback" not in err

    def test_csv_needs_a_positive_horizon(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        params = {**SIMULATE_PARAMS, "t_max": 0.0}
        assert run_main(tmp_path, "simulate", params, "--out", str(out)) != EXIT_USAGE
        assert run_main(tmp_path, "simulate", params, "--csv", "--out", str(out)) == EXIT_USAGE
        assert "horizon t_max must be > 0, got 0.0" in capsys.readouterr().err

    def test_negative_seed_exit_usage(self, tmp_path, capsys):
        doc = {"kind": "simulate", "seed": -1, "parameters": SIMULATE_PARAMS}
        scenario = write_scenario(tmp_path, doc)
        assert main(["simulate", "--scenario", str(scenario)]) == EXIT_USAGE
        assert "'seed'" in capsys.readouterr().err


# games scenarios whose rendered reports, less ``wall_clock_s``, are pinned by
# one digest: distinct, coinciding and extreme labels, one- and two-cell swaps
# with phases, a range without weight, unequal weights and a depth-0 closure
GAMES_DIGEST_SCENARIOS = [
    {"mode": "pivotal", "x1": 0.0, "x2": 10.0},
    {"mode": "pivotal", "x1": -3.5, "x2": 2.25, "slope": 2.0, "depth": 3},
    {"mode": "pivotal", "x1": 4.0, "x2": 4.0, "slope": 0.5},
    {"mode": "pivotal", "x1": 0.1, "x2": 0.7, "depth": 1},
    {
        "mode": "pivotal",
        "x1": -64.89728701564388,
        "x2": -1465.7272602194046,
        "slope": 15.622688098359621,
        "depth": 5,
    },
    {"mode": "special-equivalence", "state": [1, 1, 1], "p1_cells": [0], "p2_cells": [1]},
    {
        "mode": "special-equivalence",
        "state": [[0.3, 0.4], [-0.4, 0.3], 0.2, [0.1, -0.6]],
        "p1_cells": [1],
        "p2_cells": [0],
        "slope": 2.5,
        "depth": 3,
    },
    {
        "mode": "special-equivalence",
        "state": [0.5, [0, 0.5], [0.3, 0.4], -0.5, 0.1],
        "p1_cells": [0, 1],
        "p2_cells": [2, 3],
    },
    {"mode": "special-equivalence", "state": [0, 0, 1, 2], "p1_cells": [0], "p2_cells": [1]},
    {"mode": "special-equivalence", "state": [1, 2, 1], "p1_cells": [0], "p2_cells": [1]},
    {
        "mode": "special-equivalence",
        "state": [1, 1, 1],
        "p1_cells": [0],
        "p2_cells": [2],
        "depth": 0,
    },
]
GAMES_REPORTS_DIGEST = "eef2becb0f520a1377d96ac341e43b6f601124640f16648e5bf5d679ec0e2fea"


class TestGamesReportDigest:
    def test_rendered_reports_are_pinned(self, tmp_path):
        h = hashlib.sha256()
        for i, params in enumerate(GAMES_DIGEST_SCENARIOS):
            doc = {"kind": "games", "seed": 7, "parameters": params}
            report, code = run_scenario(write_scenario(tmp_path, doc, f"games-{i}.json"))
            del report["wall_clock_s"]
            h.update(f"{code}\n{render_report(report)}".encode())
        assert h.hexdigest() == GAMES_REPORTS_DIGEST


# derive and solve-measure scenarios whose rendered measure tables, less
# ``wall_clock_s``, are pinned by one digest: blocks of one and several cells,
# profiles, complex amplitudes, unique tables over two grainings and the two
# witnesses of underdetermined systems, one of them of float masses
TABLES_DIGEST_SCENARIOS = [
    ("derive", {"construction": "rational", "weights": [2, 1]}),
    ("derive", {"construction": "rational", "weights": [3, 1, 2], "block_sizes": [3, 1, 2]}),
    (
        "derive",
        {
            "construction": "rational",
            "weights": [1, 2],
            "block_sizes": [1, 2],
            "profiles": [["1"], ["1/3", "2/3"]],
        },
    ),
    ("derive", {"construction": "equiprobable", "amplitudes": [1, 1]}),
    ("derive", {"construction": "equiprobable", "amplitudes": [[0.6, 0.8], [0, 1], -1]}),
    (
        "derive",
        {
            "construction": "equiprobable",
            "amplitudes": [0.5, 0.5, [0, 0.5], -0.5],
            "block_sizes": [2, 2],
        },
    ),
    ("solve-measure", {"masses": ["1/2", "1/2"], "grainings": [[1, 1]]}),
    ("solve-measure", {"masses": ["1/4"] * 4, "grainings": [[1, 1, 1, 1], [2, 2]]}),
    (
        "solve-measure",
        {
            "masses": ["1/6", "1/3", "1/6", "1/3"],
            "grainings": [[1, 1, 1, 1], [2, 2], [1, 3]],
            "expect": "underdetermined",
        },
    ),
    (
        "solve-measure",
        {
            "masses": [0.1, 0.2, 0.3, 0.4, "0"],
            "grainings": [[1, 2, 2], [3, 2]],
            "expect": "underdetermined",
        },
    ),
]
TABLES_REPORTS_DIGEST = "d1b5a7a62fb8c0b017c9e00d0c01408bc40e28bd596ee5ebb85b2da628da97a1"


class TestMeasureTableReportDigest:
    def test_rendered_reports_are_pinned(self, tmp_path):
        h = hashlib.sha256()
        for i, (kind, params) in enumerate(TABLES_DIGEST_SCENARIOS):
            doc = {"kind": kind, "seed": 7, "parameters": params}
            report, code = run_scenario(write_scenario(tmp_path, doc, f"tables-{i}.json"))
            del report["wall_clock_s"]
            h.update(f"{code}\n{render_report(report)}".encode())
        assert h.hexdigest() == TABLES_REPORTS_DIGEST


    @pytest.mark.parametrize("cells", [[], [(2, 5)], [0, (2, 4), 7, 11, (12, 15)]])
    def test_table_keys_are_the_json_of_the_cells(self, cells):
        proj = Projector.from_cells(cells, 16)
        table = MeasureTable({proj: 0.5})
        assert list(_table_to_dict(table)) == [json.dumps(proj.cells)]


# the operational axioms a derivation may cite, and each construction's rules
AXIOMS = {
    "degeneracy",
    "invariance",
    "stability",
    "additivity",
    "normalization",
    "continuity",
    "linearity",
    "sure-thing",
    "zero-sum",
    "payoff-equivalence",
    "measurement-equivalence",
}
DERIVATION_RULES = {
    "phase-elim",
    "permutation",
    "complement",
    "additivity",
    "refinement",
    "continuity",
}
GAME_RULES = {"measurement-equivalence", "payoff-equivalence", "sure-thing", "zero-sum"}


class TestTracePremises:
    def test_every_derivation_keeps_the_premise_discipline(self, tmp_path):
        cases = [("games", params, GAME_RULES) for params in GAMES_DIGEST_SCENARIOS] + [
            (kind, params, DERIVATION_RULES)
            for kind, params in TABLES_DIGEST_SCENARIOS
            if kind == "derive"
        ]
        traced = 0
        for i, (kind, params, rules) in enumerate(cases):
            doc = {"kind": kind, "seed": 7, "parameters": params}
            report, _ = run_scenario(write_scenario(tmp_path, doc, f"trace-{i}.json"))
            for trace in report.get("traces", []):
                traced += 1
                assert trace["steps"]
                for n, step in enumerate(trace["steps"], start=1):
                    assert step["id"] == f"s{n}"
                    assert step["rule"] in rules
                    earlier = {f"s{k}" for k in range(1, n)}
                    for premise in step["premises"]:
                        assert premise in AXIOMS or premise in earlier, (kind, params, step)
        # every pivotal and every derive scenario records one trace
        assert traced == len(cases) - sum(p["mode"] != "pivotal" for p in GAMES_DIGEST_SCENARIOS)


# one small valid document per table entry; the fuzz corrupts one field at a time
FUZZ_BASES = {
    "simulate": SIMULATE_PARAMS,
    "derive:rational": {"construction": "rational", "weights": [2, 1]},
    "derive:equiprobable": {"construction": "equiprobable", "amplitudes": [1, 1]},
    "solve-measure": {"masses": ["1/2", "1/2"], "grainings": [[1, 1]]},
    "games:pivotal": PIVOTAL_PARAMS,
    "games:special-equivalence": {
        "mode": "special-equivalence",
        "state": [1, 1, 1],
        "p1_cells": [0],
        "p2_cells": [1],
    },
    "histories": {"psi0": [0.6, 0.8], "steps": [{"resolution": [[0], [1]]}]},
    "lln:tail": {"op": "tail", "n": 10, "delta": 0.2, "p": 0.5},
    "lln:scan": {"op": "scan", "p": 0.5, "delta": 0.1, "ns": [10, 40]},
    "lln:audit": {"op": "audit", "outcomes": [0, 1, 1], "weights": [0.5, 0.5]},
    "nogo:pm": {**PM_PARAMS, "assignment": {}},
    "nogo:separation": SEPARATION_PARAMS,
    "nogo:rotation": ROTATION_PARAMS,
    "nogo:search": SEARCH_PARAMS,
}
TABLE_FIELDS = [(entry, field) for entry in FUZZ_BASES for field in SCENARIOS[entry][0]]
REJECTED_EVERYWHERE = ["bogus", {"bogus": 1}, NAN, INF]
NESTED_FIELDS = [
    *(("simulate", "model", f) for f in ("observables", "hamiltonian", "gamma", "norm_mode")),
    *(("histories", "steps", f) for f in ("resolution", "unitary", "bogus_key")),
]

_fuzz_scalars = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([0.0, -1.0, 0.5, 3.0, 1e-300, 1e300, NAN, INF, -INF]),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)
_fuzz_values = st.one_of(
    _fuzz_scalars,
    st.lists(_fuzz_scalars, max_size=4),
    st.lists(st.lists(st.integers(-3, 40), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), _fuzz_scalars, max_size=2),
)


def run_doc(entry, params, *extra) -> int:
    kind = entry.partition(":")[0]
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps({"kind": kind, "parameters": params}))
        out = Path(tmp) / "report.json"
        code = main([kind, "--scenario", str(scenario), "--out", str(out), "--csv", *extra])
    return code


class TestFuzz:
    def test_every_entry_has_a_valid_base(self):
        assert set(FUZZ_BASES) == set(SCENARIOS)
        for entry, params in FUZZ_BASES.items():
            kind, _, variant = entry.partition(":")
            assert params.get(VARIANT_FIELDS.get(kind), variant) == variant
            assert run_doc(entry, params) in (EXIT_OK, EXIT_FAIL)

    @pytest.mark.parametrize("entry, field", TABLE_FIELDS)
    def test_junk_in_any_field_names_it(self, entry, field, capsys):
        for value in REJECTED_EVERYWHERE:
            assert run_doc(entry, {**FUZZ_BASES[entry], field: value}) == EXIT_USAGE
            assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", sorted(FUZZ_BASES))
    def test_unknown_key_names_it(self, entry, capsys):
        assert run_doc(entry, {**FUZZ_BASES[entry], "bogus_key": 1}) == EXIT_USAGE
        assert "'bogus_key'" in capsys.readouterr().err

    @settings(max_examples=1200, deadline=None, derandomize=True)
    @given(st.sampled_from(TABLE_FIELDS), _fuzz_values)
    def test_corrupted_field_exits_cleanly(self, entry_field, value):
        entry, field = entry_field
        assert run_doc(entry, {**FUZZ_BASES[entry], field: value}) in (0, 1, 2, 3)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(NESTED_FIELDS), _fuzz_values)
    def test_corrupted_nested_field_exits_cleanly(self, entry_field, value):
        entry, outer, field = entry_field
        params = json.loads(json.dumps(FUZZ_BASES[entry]))
        inner = params[outer][0] if isinstance(params[outer], list) else params[outer]
        inner[field] = value
        assert run_doc(entry, params) in (0, 1, 2, 3)
