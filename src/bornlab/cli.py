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
    projector_swap,
    value_solve,
    verify_soundness,
)
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
    if not isinstance(values, list):
        raise ScenarioError(f"expected a list of numbers, not {type(values).__name__}")
    return np.array([_entry_to_complex(v) for v in values], dtype=complex)


def parse_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list):
        raise ScenarioError(f"expected a list of rows, not {type(rows).__name__}")
    return np.array([parse_vector(row) for row in rows], dtype=complex)


def parse_rational(value) -> Fraction:
    if isinstance(value, (str, int, float)):
        return Fraction(value)
    raise ScenarioError(f"cannot read {value!r} as a rational mass")


_REQUIRED = object()


def _field(params: dict, key: str, convert=lambda value: value, default=_REQUIRED):
    """``convert(params[key])``, or ``default`` when the key is absent.

    A missing required key, or a value that ``convert`` rejects with a
    TypeError, ValueError, KeyError or ArithmeticError, raises a
    ScenarioError naming the key.
    """
    if key not in params:
        if default is _REQUIRED:
            raise ScenarioError(f"scenario parameters missing required key {key!r}")
        return default
    try:
        return convert(params[key])
    except (TypeError, ValueError, KeyError, ArithmeticError) as err:
        raise ScenarioError(f"cannot read {key!r}: {err}") from err


def _int(value) -> int:
    """A JSON integer, or a float with an integral value; never a boolean or a string."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _bool(value) -> bool:
    if type(value) is not bool:
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _ints(values) -> list[int]:
    return [_int(v) for v in values]


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _at_least_one(value) -> int:
    count = _int(value)
    if count < 1:
        raise ValueError(f"must be at least 1, got {count}")
    return count


def _choice(params: dict, key: str, *allowed):
    """``params[key]``, which must be one of ``allowed``; the first is the default."""
    value = params.get(key, allowed[0])
    if value not in allowed:
        raise ScenarioError(f"{key!r} must be one of {', '.join(map(repr, allowed))}: {value!r}")
    return value


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
    model_doc = _field(params, "model", dict)
    observables = _field(model_doc, "observables", lambda ms: [parse_matrix(m) for m in ms])
    if not observables:
        raise ScenarioError("'observables' must list at least one matrix")
    dim = observables[0].shape[0]
    model = CollapseModel(
        _field(model_doc, "hamiltonian", parse_matrix, np.zeros((dim, dim))),
        observables,
        _field(model_doc, "gamma", float),
        model_doc.get("norm_mode", "mean-preserving"),
    )
    psi0 = StateVector(_field(params, "psi0", parse_vector))
    t_max = _field(params, "t_max", float)
    dt = _field(params, "dt", float)
    n = _field(params, "n_trajectories", _at_least_one)
    eps = _field(params, "eps_collapse", float, 1e-6)
    _field(params, "workers", _int, 1)  # accepted; one batch runs every trajectory
    checkpoints = _field(params, "martingale_checkpoints", _floats, None)
    martingale_n = _field(params, "martingale_trajectories", _at_least_one, min(n, 2000))
    record_every = _field(params, "csv_record_every", _at_least_one, 1)
    csv_trajectories = _field(params, "csv_trajectories", _ints, [0])
    report = ensemble_outcomes(
        model,
        psi0,
        n,
        t_max=t_max,
        dt=dt,
        seed=seed,
        eps_collapse=eps,
        band_multiplier=_field(params, "band_multiplier", float, 1.0),
        martingale_checkpoints=checkpoints,
        martingale_trajectories=martingale_n,
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
        for idx in csv_trajectories:
            traj = simulate(model, psi0, t_max, dt, seed + idx, eps, record_every=record_every)
            path = csv_dir / f"trajectory_{idx}.csv"
            trajectory_to_csv(traj, model, path)
            metrics.setdefault("csv_files", []).append(str(path))
    return {"verdicts": verdicts, "metrics": metrics}


def _handle_derive(params: dict, seed: int, csv_dir) -> dict:
    construction = _field(params, "construction")
    if construction == "rational":
        weights = _field(params, "weights", _ints)
        sizes = _field(params, "block_sizes", _ints, [1] * len(weights))
        graining = CoarseGraining.from_sizes(sizes)
        profiles = _field(
            params, "profiles", lambda ps: [[parse_rational(p) for p in prof] for prof in ps], None
        )
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
        amplitudes = _field(params, "amplitudes", parse_vector)
        sizes = _field(params, "block_sizes", _ints, [1] * len(amplitudes))
        graining = CoarseGraining.from_sizes(sizes)
        psi = StateVector(amplitudes)
        separating = SeparatingSet.from_graining(psi, graining)
        with_lattice = _field(params, "lattice", _bool, False)
        lattice = sublattice_from_graining(graining) if with_lattice else None
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
    expect = _choice(params, "expect", "unique", "underdetermined")
    masses = _field(params, "masses", lambda ms: [parse_rational(m) for m in ms])
    dim = len(masses)
    grainings = _field(
        params, "grainings", lambda gs: [CoarseGraining.from_sizes(_ints(g)) for g in gs]
    )
    if any(graining.dim != dim for graining in grainings):
        raise ScenarioError("graining sizes must cover the mass grid")
    family = GrainingFamily(grainings)
    profile = MassProfile(masses)
    result = measure_uniqueness_solve(profile, family)
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
    mode = _field(params, "mode")
    payoff = linear_payoff(_field(params, "slope", float, 1.0))
    if mode == "pivotal":
        x1, x2 = _field(params, "x1", float), _field(params, "x2", float)
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
        solve_ok, solved = True, None
        if game is not None:
            solved = value_solve([game], _field(params, "depth", _int, 4))
            solve_ok = (
                solved.value_of(game) is not None
                and abs(solved.value_of(game) - expected) < 1e-9
            )
        ok = result.value.known and abs(result.value.value - expected) < 1e-9
        sound = verify_soundness(result.solver.constraints, result.solver.games.values())
        return {
            "verdicts": {
                "pivotal_value": "PASS" if ok else "FAIL",
                "closure_solve": "PASS" if solve_ok else "FAIL",
                "soundness": "PASS" if sound <= 1e-10 else "FAIL",
            },
            "metrics": {
                "value": result.value.value,
                "expected": expected,
                "solver_rank": solved and solved.rank,
                "n_unknowns": solved and solved.n_unknowns,
                "constraints": solved and len(solved.constraints),
                "soundness_residual": sound,
            },
            "traces": [result.trace.to_dict()],
        }
    if mode == "special-equivalence":
        state = _field(params, "state", parse_vector)
        p1 = Projector.from_cells(_field(params, "p1_cells", _ints), len(state))
        p2 = Projector.from_cells(_field(params, "p2_cells", _ints), len(state))
        if p1.index_set() & p2.index_set():
            raise ScenarioError("'p1_cells' and 'p2_cells' must not overlap")
        psi = StateVector(state)
        w1, w2 = born_weight(psi, p1), born_weight(psi, p2)
        game_a = Game.projector_game(state, p1, payoff)
        game_b = Game.projector_game(state, p2, payoff)
        swap = projector_swap(state, p1, p2)
        unitaries = [swap] if swap is not None else []
        depth = _field(params, "depth", _int, 2)
        solved = value_solve([game_a, game_b], depth, unitaries=unitaries)
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
                "constraints": len(solved.constraints),
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
    expect = _choice(params, "expect", "CONSISTENT", "INCONSISTENT")
    psi0 = StateVector(_field(params, "psi0", parse_vector))
    dim = psi0.dim
    docs = _field(params, "steps")
    if not isinstance(docs, list) or not docs or not all(isinstance(d, dict) for d in docs):
        raise ScenarioError("histories 'steps' must be a non-empty list of objects")
    steps = []
    for doc in docs:
        cells = _field(doc, "resolution", lambda cs: [_ints(c) for c in cs])
        unitary = _field(doc, "unitary", parse_matrix, None)
        steps.append(HistoryStep([Projector.from_cells(c, dim) for c in cells], unitary))
    epsilon = params.get("epsilon", 1e-8)
    if type(epsilon) not in (int, float) or not 0 <= epsilon <= sys.float_info.max:
        raise ScenarioError(f"histories 'epsilon' must be a finite number >= 0, got {epsilon!r}")
    history_set = HistorySet(steps, float(epsilon))
    report = consistency_check(history_set, psi0)
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
            "pairs": report.pairs,
            "pairs_over_epsilon": report.pairs_over_epsilon,
        },
    }


def _handle_lln(params: dict, seed: int, csv_dir) -> dict:
    op = _field(params, "op")
    if op == "tail":
        n = _field(params, "n", _int)
        delta = _field(params, "delta", float)
        p = _field(params, "p", float)
        value = lln_tail(n, delta, p)
        work = tail_work(n, delta, p)
        return {
            "verdicts": {"computed": "PASS"},
            "metrics": {"tail": value, "tail_path": work.path, "terms": work.terms},
        }
    if op == "scan":
        p, delta = _field(params, "p", float), _field(params, "delta", float)
        ns = _field(params, "ns", _ints)
        report = lln_limit_scan(p, delta, ns, threshold=_field(params, "threshold", float, 1e-3))
        work = [tail_work(n, delta, p) for n in report.ns]
        return {
            "verdicts": {"converged": "PASS" if report.converged else "FAIL"},
            "metrics": {
                "ns": list(report.ns),
                "values": list(report.values),
                "final_is_minimum": report.final_is_minimum,
                "strictly_decreasing": report.strictly_decreasing,
                "tail_paths": [w.path for w in work],
                "terms": [w.terms for w in work],
            },
        }
    if op == "audit":
        audit = frequency_audit(
            _field(params, "outcomes", _ints),
            _field(params, "weights", lambda ws: [float(w) for w in ws]),
        )
        floor = _field(params, "surprise_floor", float, 0.0)
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


def _pm_assignment(doc) -> FrameAssignment:
    assignment = FrameAssignment()
    for name, value in dict(doc).items():
        assignment.set({"P1": 0, "P2": 1, "P+": 2, "P-": 3}[name], float(value))
    return assignment


def _handle_nogo(params: dict, seed: int, csv_dir) -> dict:
    check = _field(params, "check")
    if check == "pm":
        expect = _choice(params, "expect", "consistent", "contradiction")
        system = PMSystem.from_generators(
            _field(params, "chi1", parse_vector), _field(params, "chi2", parse_vector)
        )
        result = propagate_pm_constraint(system, _field(params, "assignment", _pm_assignment))
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
        expect = _choice(params, "expect", None, "allowed", "forbidden")
        result = separation_check(
            _field(params, "chi", parse_vector), _field(params, "phi", parse_vector)
        )
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
        expect = _choice(params, "expect", "contradiction", "inconclusive", "degenerate")
        report = rotation_jump_demo(
            _field(params, "chi", parse_vector),
            _field(params, "phi", parse_vector),
            _field(params, "steps"),
        )
        return {
            "verdicts": {
                "expectation": "PASS" if report.status == expect else "FAIL",
            },
            "metrics": {
                "status": report.status,
                "max_consecutive_distance": report.max_consecutive_distance,
                "flip_allowed_at": report.flip_allowed_at,
                "n_pairs": len(report.distances),
            },
        }
    if check == "search":
        rays = RaySet(_field(params, "rays", lambda rs: [parse_vector(r) for r in rs]))
        expect_satisfiable = _field(params, "expect_satisfiable", _bool, None)
        expect_count = _field(params, "expect_count", _int, None)
        result = dispersion_free_search(rays)
        metrics = {
            "satisfiable": result.satisfiable,
            "n_assignments": len(result.assignments),
            "contexts": [list(c) for c in result.contexts],
        }
        if result.certificate is not None:
            metrics["certificate"] = list(result.certificate.chain)
        verdicts = {}
        if expect_satisfiable is not None:
            verdicts["satisfiable"] = "PASS" if result.satisfiable == expect_satisfiable else "FAIL"
        if expect_count is not None:
            verdicts["count"] = "PASS" if len(result.assignments) == expect_count else "FAIL"
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
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario {path} must be a JSON object, not {type(doc).__name__}")
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
    if not isinstance(params, dict):
        raise ScenarioError(f"'parameters' must be an object, not {type(params).__name__}")
    seed = int(seed_override) if seed_override is not None else _field(doc, "seed", _int, 0)
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
