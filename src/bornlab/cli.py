"""Scenario-driven command line interface.

Every subcommand reads a JSON scenario document, dispatches to the owning
module, and writes a JSON report (plus optional CSV for trajectory data).
All randomness flows from the scenario seed, so a re-run with the same
seed produces a byte-identical report up to the wall-clock field.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
parse error, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .collapse import (
    CollapseModel,
    ensemble_outcomes,
    simulate,
    trajectory_to_csv,
)
from .emergence import (
    MassProfile,
    RationalState,
    equiprobable_values,
    measure_uniqueness_solve,
    rational_born_values,
)
from .errors import (
    BornLabError,
    ConvergenceFailureError,
    InconsistentSystemError,
    IntegrationFailureError,
)
from .games import (
    Game,
    derive_pivotal,
    general_equivalence_check,
    linear_payoff,
    value_solve,
    verify_soundness,
)
from .games import _swap_unitary
from .hilbert import (
    CoarseGraining,
    GrainingFamily,
    MeasureTable,
    Projector,
    SeparatingSet,
    StateVector,
    born_weight,
    sublattice_from_graining,
)
from .histories import HistorySet, HistoryStep, consistency_check
from .lln import frequency_audit, lln_limit_scan, lln_tail, tail_work
from .nogo import (
    FrameAssignment,
    PMSystem,
    RaySet,
    dispersion_free_search,
    propagate_pm_constraint,
    rotation_jump_demo,
    separation_check,
)

SCHEMA_VERSION = 1
KINDS = ("simulate", "derive", "solve-measure", "games", "histories", "lln", "nogo")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class ScenarioError(ValueError):
    """Scenario document malformed or missing required parameters."""


# ---------------------------------------------------------------------------
# JSON value parsing
# ---------------------------------------------------------------------------


def _entry_to_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ScenarioError(f"cannot read {value!r} as a complex number")


def parse_vector(values) -> np.ndarray:
    return np.array([_entry_to_complex(v) for v in values], dtype=complex)


def parse_matrix(rows) -> np.ndarray:
    return np.array([[_entry_to_complex(v) for v in row] for row in rows], dtype=complex)


def parse_rational(value) -> Fraction:
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise ScenarioError(f"cannot read {value!r} as a rational mass")


def _require(params: dict, key: str):
    if key not in params:
        raise ScenarioError(f"scenario parameters missing required key {key!r}")
    return params[key]


def _table_to_dict(table: MeasureTable) -> dict:
    out = {}
    for key, value in table.items():
        label = json.dumps(key[2] if key[0] == "cells" else "matrix")
        out[label] = float(value) if not isinstance(value, Fraction) else (
            str(value) if value.denominator != 1 else float(value)
        )
    return out


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _handle_simulate(params: dict, seed: int, csv_dir: Path | None) -> dict:
    model_doc = _require(params, "model")
    observables = [parse_matrix(m) for m in _require(model_doc, "observables")]
    dim = observables[0].shape[0]
    hamiltonian = (
        parse_matrix(model_doc["hamiltonian"])
        if "hamiltonian" in model_doc
        else np.zeros((dim, dim))
    )
    model = CollapseModel(
        hamiltonian,
        observables,
        _require(model_doc, "gamma"),
        model_doc.get("norm_mode", "mean-preserving"),
    )
    psi0 = StateVector(parse_vector(_require(params, "psi0")))
    t_max = float(_require(params, "t_max"))
    dt = float(_require(params, "dt"))
    n = int(_require(params, "n_trajectories"))
    eps = float(params.get("eps_collapse", 1e-6))
    report = ensemble_outcomes(
        model,
        psi0,
        n,
        t_max=t_max,
        dt=dt,
        seed=seed,
        eps_collapse=eps,
        band_multiplier=float(params.get("band_multiplier", 1.0)),
        workers=int(params.get("workers", 1)),
        martingale_checkpoints=params.get("martingale_checkpoints"),
        martingale_trajectories=int(params.get("martingale_trajectories", min(n, 2000))),
    )
    verdicts = {
        "born_frequencies": "PASS" if report.passed else "FAIL",
        "unresolved_fraction": "FAIL" if report.unresolved_flagged else "PASS",
    }
    metrics = {
        "outcomes": [asdict(row) for row in report.rows],
        "n_resolved": report.n_resolved,
        "unresolved_fraction": report.unresolved_fraction,
        "trajectory_steps": report.trajectory_steps,
        "resolve_time": report.resolve_time_quantiles(),
    }
    if report.martingale is not None:
        verdicts["martingale"] = "PASS" if report.martingale.passed else "FAIL"
        metrics["martingale"] = [asdict(r) for r in report.martingale.rows]
    if csv_dir is not None:
        for idx in params.get("csv_trajectories", [0]):
            traj = simulate(
                model,
                psi0,
                t_max,
                dt,
                seed + int(idx),
                eps,
                record_every=int(params.get("csv_record_every", 1)),
            )
            path = csv_dir / f"trajectory_{int(idx)}.csv"
            trajectory_to_csv(traj, model, path)
            metrics.setdefault("csv_files", []).append(str(path))
    return {"verdicts": verdicts, "metrics": metrics}


def _handle_derive(params: dict, seed: int, csv_dir) -> dict:
    construction = _require(params, "construction")
    if construction == "rational":
        weights = [int(w) for w in _require(params, "weights")]
        sizes = params.get("block_sizes", [1] * len(weights))
        graining = CoarseGraining.from_sizes(sizes)
        profiles = None
        if "profiles" in params:
            profiles = [[parse_rational(p) for p in prof] for prof in params["profiles"]]
        state = RationalState(weights, graining, profiles)
        table, trace = rational_born_values(state)
        total = sum(weights)
        expected = [Fraction(w, total) for w in weights]
        actual = [table.value(graining.block_projector(i)) for i in range(len(weights))]
        ok = actual == expected
        return {
            "verdicts": {"table_matches_weights": "PASS" if ok else "FAIL"},
            "metrics": {
                "table": _table_to_dict(table),
                "weights": [str(v) for v in actual],
            },
            "traces": [trace.to_dict()],
        }
    if construction == "equiprobable":
        amplitudes = parse_vector(_require(params, "amplitudes"))
        sizes = params.get("block_sizes", [1] * len(amplitudes))
        graining = CoarseGraining.from_sizes(sizes)
        psi = StateVector(amplitudes)
        separating = SeparatingSet.from_graining(psi, graining)
        lattice = sublattice_from_graining(graining) if params.get("lattice", False) else None
        table, trace = equiprobable_values(psi, separating, lattice)
        d = separating.size
        ok = all(
            table.value(graining.block_projector(i)) == Fraction(1, d) for i in range(d)
        )
        return {
            "verdicts": {"table_matches_weights": "PASS" if ok else "FAIL"},
            "metrics": {"table": _table_to_dict(table)},
            "traces": [trace.to_dict()],
        }
    raise ScenarioError(f"unknown derive construction {construction!r}")


def _handle_solve_measure(params: dict, seed: int, csv_dir) -> dict:
    masses = [parse_rational(m) for m in _require(params, "masses")]
    dim = len(masses)
    grainings = []
    for sizes in _require(params, "grainings"):
        graining = CoarseGraining.from_sizes(sizes)
        if graining.dim != dim:
            raise ScenarioError("graining sizes must cover the mass grid")
        grainings.append(graining)
    family = GrainingFamily(grainings)
    profile = MassProfile(masses)
    result = measure_uniqueness_solve(profile, family)
    expect = params.get("expect", "unique")
    verdict = "PASS" if result.status == expect else "FAIL"
    metrics = {
        "status": result.status,
        "rank": result.rank,
        "n_unknowns": result.n_unknowns,
        "constraints": result.constraint_count,
        "nonzeros": result.nonzeros,
    }
    if result.unique:
        total = sum(masses)
        born_ok = all(
            result.table.value(Projector.from_cells([block], dim))
            == sum(masses[block[0] : block[1]]) / total
            for block in result.unknown_keys
        )
        metrics["table"] = _table_to_dict(result.table)
        return {
            "verdicts": {"expectation": verdict, "matches_weights": "PASS" if born_ok else "FAIL"},
            "metrics": metrics,
        }
    metrics["freedom"] = result.freedom
    metrics["witnesses"] = [_table_to_dict(w) for w in result.witnesses]
    return {"verdicts": {"expectation": verdict}, "metrics": metrics}


def _handle_games(params: dict, seed: int, csv_dir) -> dict:
    mode = _require(params, "mode")
    if mode == "pivotal":
        x1, x2 = float(_require(params, "x1")), float(_require(params, "x2"))
        payoff = linear_payoff(float(params.get("slope", 1.0)))
        result = derive_pivotal(x1, x2, payoff)
        expected = 0.5 * (payoff(x1) + payoff(x2))
        game = Game(
            np.array([1.0, 1.0]),
            [
                (x1, Projector.from_cells([0], 2)),
                (x2, Projector.from_cells([1], 2)),
            ],
            payoff,
        ) if abs(x1 - x2) > 1e-10 else None
        solve_ok = True
        rank = None
        if game is not None:
            solved = value_solve([game], int(params.get("depth", 4)))
            rank = solved.rank
            solve_ok = (
                solved.value_of(game) is not None
                and abs(solved.value_of(game) - expected) < 1e-9
            )
        ok = result.value.known and abs(result.value.value - expected) < 1e-9
        sound = verify_soundness(
            result.solver.constraints, result.solver.games.values()
        )
        return {
            "verdicts": {
                "pivotal_value": "PASS" if ok else "FAIL",
                "closure_solve": "PASS" if solve_ok else "FAIL",
                "soundness": "PASS" if sound <= 1e-10 else "FAIL",
            },
            "metrics": {
                "value": result.value.value,
                "expected": expected,
                "solver_rank": rank,
                "soundness_residual": sound,
            },
            "traces": [result.trace.to_dict()],
        }
    if mode == "special-equivalence":
        state = parse_vector(_require(params, "state"))
        dim = len(state)
        p1 = Projector.from_cells([int(i) for i in _require(params, "p1_cells")], dim)
        p2 = Projector.from_cells([int(i) for i in _require(params, "p2_cells")], dim)
        payoff = linear_payoff(float(params.get("slope", 1.0)))
        psi = StateVector(state)
        w1, w2 = born_weight(psi, p1), born_weight(psi, p2)
        game_a = Game.projector_game(state, p1, payoff)
        game_b = Game.projector_game(state, p2, payoff)
        rest = p1.union(p2).complement()
        helper_spectral = [(1.0, p1), (0.0, p2)]
        if rest.rank:
            helper_spectral.append((-1.0, rest))
        helper = Game(state, helper_spectral, linear_payoff(1.0))
        swap = _swap_unitary(helper, 0, 1)
        unitaries = [swap] if swap is not None else []
        solved = value_solve([game_a, game_b], int(params.get("depth", 2)), unitaries=unitaries)
        diff = solved.difference(game_a, game_b)
        ok = abs(w1 - w2) < 1e-10 and diff is not None and abs(diff) < 1e-9
        general = general_equivalence_check(solved, [game_a, game_b])
        return {
            "verdicts": {"special_equivalence": "PASS" if ok else "FAIL"},
            "metrics": {
                "weight_1": w1,
                "weight_2": w2,
                "value_difference": diff,
                "rank": solved.rank,
                "n_unknowns": solved.n_unknowns,
                "general_equivalence": [
                    {
                        "pair": list(row["pair"]),
                        "difference": row["difference"],
                        "equal": row["equal"],
                        "determined": row["determined"],
                    }
                    for row in general
                ],
            },
        }
    raise ScenarioError(f"unknown games mode {mode!r}")


def _handle_histories(params: dict, seed: int, csv_dir) -> dict:
    psi0 = StateVector(parse_vector(_require(params, "psi0")))
    dim = psi0.dim
    steps = []
    for doc in _require(params, "steps"):
        resolution = [
            Projector.from_cells([int(i) for i in cells], dim)
            for cells in _require(doc, "resolution")
        ]
        unitary = parse_matrix(doc["unitary"]) if "unitary" in doc else None
        steps.append(HistoryStep(resolution, unitary))
    history_set = HistorySet(steps, float(params.get("epsilon", 1e-8)))
    report = consistency_check(history_set, psi0)
    expect = params.get("expect", "CONSISTENT")
    sums_ok = abs(report.collapsed_sum - 1.0) <= 1e-9
    return {
        "verdicts": {
            "expectation": "PASS" if report.verdict == expect else "FAIL",
            "collapsed_sum": "PASS" if sums_ok else "FAIL",
        },
        "metrics": {
            "verdict": report.verdict,
            "max_discrepancy": report.max_discrepancy,
            "worst_event": None
            if report.worst is None
            else {"kind": report.worst.kind, "label": report.worst.label},
            "collapsed_sum": report.collapsed_sum,
            "uncollapsed_sum": report.uncollapsed_sum,
            "n_histories": report.n_histories,
        },
    }


def _handle_lln(params: dict, seed: int, csv_dir) -> dict:
    op = _require(params, "op")
    if op == "tail":
        n = int(_require(params, "n"))
        delta = float(_require(params, "delta"))
        p = float(_require(params, "p"))
        value = lln_tail(n, delta, p)
        work = tail_work(n, delta, p)
        return {
            "verdicts": {"computed": "PASS"},
            "metrics": {"tail": value, "tail_path": work.path, "terms": work.terms},
        }
    if op == "scan":
        report = lln_limit_scan(
            float(_require(params, "p")),
            float(_require(params, "delta")),
            [int(n) for n in _require(params, "ns")],
            threshold=float(params.get("threshold", 1e-3)),
        )
        return {
            "verdicts": {"converged": "PASS" if report.converged else "FAIL"},
            "metrics": {
                "ns": list(report.ns),
                "values": list(report.values),
                "final_is_minimum": report.final_is_minimum,
                "strictly_decreasing": report.strictly_decreasing,
            },
        }
    if op == "audit":
        audit = frequency_audit(
            [int(o) for o in _require(params, "outcomes")],
            [float(w) for w in _require(params, "weights")],
        )
        floor = float(params.get("surprise_floor", 0.0))
        ok = all(row.surprise >= floor for row in audit.rows)
        return {
            "verdicts": {"surprise_floor": "PASS" if ok else "FAIL"},
            "metrics": {
                "rows": [
                    {
                        "outcome": r.outcome,
                        "count": r.count,
                        "frequency": r.frequency,
                        "weight": r.weight,
                        "deviation": r.deviation,
                        "surprise": r.surprise,
                    }
                    for r in audit.rows
                ]
            },
        }
    raise ScenarioError(f"unknown lln op {op!r}")


def _handle_nogo(params: dict, seed: int, csv_dir) -> dict:
    check = _require(params, "check")
    if check == "pm":
        system = PMSystem.from_generators(
            parse_vector(_require(params, "chi1")), parse_vector(_require(params, "chi2"))
        )
        names = {"P1": 0, "P2": 1, "P+": 2, "P-": 3}
        assignment = FrameAssignment()
        for name, value in _require(params, "assignment").items():
            assignment.set(names[name], float(value))
        result = propagate_pm_constraint(system, assignment)
        expect = params.get("expect", "consistent")
        actual = "consistent" if result.consistent else "contradiction"
        return {
            "verdicts": {"expectation": "PASS" if actual == expect else "FAIL"},
            "metrics": {
                "status": actual,
                "derived": [
                    {"projector": n, "value": v, "reason": r} for n, v, r in result.derived
                ],
                "contradiction": result.contradiction,
            },
        }
    if check == "separation":
        result = separation_check(
            parse_vector(_require(params, "chi")), parse_vector(_require(params, "phi"))
        )
        expect = params.get("expect")
        verdict = "PASS" if expect is None or result.verdict.value == expect else "FAIL"
        return {
            "verdicts": {"expectation": verdict},
            "metrics": {
                "verdict": result.verdict.value,
                "distance": result.distance,
                "threshold": result.threshold,
            },
        }
    if check == "rotation":
        report = rotation_jump_demo(
            parse_vector(_require(params, "chi")),
            parse_vector(_require(params, "phi")),
            int(_require(params, "steps")),
        )
        expect = params.get("expect", "contradiction")
        return {
            "verdicts": {
                "expectation": "PASS" if report.status == expect else "FAIL",
            },
            "metrics": {
                "status": report.status,
                "max_consecutive_distance": report.max_consecutive_distance,
                "flip_allowed_at": report.flip_allowed_at,
                "n_pairs": len(report.steps),
            },
        }
    if check == "search":
        rays = RaySet([parse_vector(r) for r in _require(params, "rays")])
        result = dispersion_free_search(rays)
        metrics = {
            "satisfiable": result.satisfiable,
            "n_assignments": len(result.assignments),
            "contexts": [list(c) for c in result.contexts],
        }
        if result.certificate is not None:
            metrics["certificate"] = list(result.certificate.chain)
        verdicts = {}
        if "expect_satisfiable" in params:
            verdicts["satisfiable"] = (
                "PASS" if result.satisfiable == bool(params["expect_satisfiable"]) else "FAIL"
            )
        if "expect_count" in params:
            verdicts["count"] = (
                "PASS" if len(result.assignments) == int(params["expect_count"]) else "FAIL"
            )
        if not verdicts:
            verdicts["computed"] = "PASS"
        return {"verdicts": verdicts, "metrics": metrics}
    raise ScenarioError(f"unknown nogo check {check!r}")


_HANDLERS = {
    "simulate": _handle_simulate,
    "derive": _handle_derive,
    "solve-measure": _handle_solve_measure,
    "games": _handle_games,
    "histories": _handle_histories,
    "lln": _handle_lln,
    "nogo": _handle_nogo,
}


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_scenario(
    path,
    *,
    out_path=None,
    seed_override: int | None = None,
    write_csv: bool = False,
    expected_kind: str | None = None,
) -> tuple[dict, int]:
    """Execute one scenario document; returns (report, exit code)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ScenarioError(f"cannot parse scenario {path}: {err}") from err
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ScenarioError(
            f"unknown scenario kind {kind!r}; expected one of {', '.join(KINDS)}"
        )
    if expected_kind is not None and kind != expected_kind:
        raise ScenarioError(
            f"scenario kind {kind!r} does not match the {expected_kind!r} subcommand"
        )
    params = doc.get("parameters", {})
    seed = int(seed_override if seed_override is not None else doc.get("seed", 0))
    csv_dir = None
    if write_csv:
        csv_dir = Path(out_path).parent if out_path else Path.cwd()
        csv_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    body = _HANDLERS[kind](params, seed, csv_dir)
    elapsed = time.perf_counter() - start

    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "scenario": doc,
        "seed": seed,
        "tool_version": __version__,
        "verdicts": body.get("verdicts", {}),
        "metrics": body.get("metrics", {}),
        "wall_clock_s": elapsed,
    }
    if "traces" in body:
        report["traces"] = body["traces"]
    failures = [
        {"check": name, "reason": f"check {name} reported {verdict}"}
        for name, verdict in report["verdicts"].items()
        if verdict == "FAIL"
    ]
    if failures:
        report["failures"] = failures
    code = EXIT_OK if not failures else EXIT_FAIL
    return report, code


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get("BORNLAB_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Scenario-driven checks for probability constructions in "
        "finite quantum models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} scenario")
        p.add_argument("--scenario", required=True, help="path to the scenario JSON")
        p.add_argument("--out", default=None, help="path for the report JSON")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument(
            "--csv", action="store_true", help="also write trajectory CSV data"
        )
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0

    try:
        report, code = run_scenario(
            args.scenario,
            out_path=_resolve_out(args.out),
            seed_override=args.seed,
            write_csv=args.csv,
            expected_kind=args.command,
        )
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (IntegrationFailureError, ConvergenceFailureError, InconsistentSystemError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BornLabError as err:
        print(f"invalid scenario inputs: {err}", file=sys.stderr)
        return EXIT_USAGE

    text = render_report(report)
    out = _resolve_out(args.out)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
