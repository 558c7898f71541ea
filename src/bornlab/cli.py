"""Scenario-driven command line interface.

Every subcommand reads a JSON scenario document, dispatches to the owning
module, and writes a JSON report (plus optional CSV for trajectory data).
All randomness flows from the scenario seed, so a re-run with the same
seed produces a byte-identical report up to the wall-clock field.
Each scenario kind, or each variant of a kind, has one field table in
``SCENARIOS``, through which every parameter is read and checked first.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
parse error, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, collapse, emergence, errors, games, hilbert, histories, lln, nogo
from .hilbert import CoarseGraining, Projector, StateVector

SCHEMA_VERSION = 1
VARIANT_FIELDS = {"derive": "construction", "games": "mode", "lln": "op", "nogo": "check"}
MAX_MASS_CHARS = 100  # characters of one string mass
MAX_MASS_EXPONENT = 400  # size of a string mass's decimal exponent; floats reach 1e308

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class ScenarioError(ValueError):
    """Scenario document malformed or missing required parameters."""


# ---------------------------------------------------------------------------
# field readers: each takes a JSON value and returns it checked, or raises
# ---------------------------------------------------------------------------


def _finite(value) -> float:
    """A finite JSON number; never a boolean or a string."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ScenarioError(f"expected a finite number, got {value!r}")
    return float(value)


def _int(value) -> int:
    """A JSON integer, or a float with an integral value; never a boolean or a string."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ScenarioError(f"expected an integer, got {value!r}")


def _where(read, test, need: str):
    """Reader that applies ``read`` and then requires ``test`` of the value."""

    def reader(value):
        out = read(value)
        if not test(out):
            raise ScenarioError(f"must be {need}, got {out!r}")
        return out

    return reader


def _list_of(read):
    def reader(values) -> list:
        if not isinstance(values, list):
            raise ScenarioError(f"expected a list, got {values!r}")
        return [read(v) for v in values]

    return reader


def _one_of(*allowed):
    return _where(lambda value: value, lambda value: value in allowed,
                  f"one of {', '.join(map(repr, allowed))}")


def _entry_to_complex(value) -> complex:
    """A finite JSON number, or an ``[re, im]`` pair of them."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_finite(value[0]), _finite(value[1]))
    return complex(_finite(value))


def parse_vector(values) -> np.ndarray:
    return np.array(_list_of(_entry_to_complex)(values), dtype=complex)


def parse_matrix(rows) -> np.ndarray:
    return np.array(_list_of(parse_vector)(rows), dtype=complex)


def parse_rational(value) -> Fraction:
    """A JSON number or a string such as "1/3" or "2.5e-3"; never a boolean.

    A string is bounded by its length and its decimal exponent before any
    Fraction is built, since ``Fraction("1e10000000")`` alone takes seconds.
    """
    if isinstance(value, str):
        if len(value) > MAX_MASS_CHARS:
            raise ScenarioError(f"a mass string has at most {MAX_MASS_CHARS} characters")
        exponent = value.lower().partition("e")[2]
        if exponent and abs(int(exponent)) > MAX_MASS_EXPONENT:
            raise ScenarioError(f"a mass exponent is at most {MAX_MASS_EXPONENT} in size")
        return Fraction(value)
    if type(value) in (int, float):
        return Fraction(value)
    raise ScenarioError(f"cannot read {value!r} as a rational mass")


_ints = _list_of(_int)
_count = _where(_int, lambda n: n >= 1, "at least 1")
_index = _where(_int, lambda n: n >= 0, "at least 0")
_nonnegative = _where(_finite, lambda x: x >= 0, "at least 0")
_bool = _where(lambda value: value, lambda value: type(value) is bool, "true or false")
_cells = _where(_list_of(_index), lambda cells: len(set(cells)) == len(cells), "distinct cells")


def _projector(cells: list, dim: int, field: str, grid: str) -> Projector:
    """The projector on the ``field`` list's ``cells``, which must lie on ``grid``'s ``dim``."""
    if any(cell >= dim for cell in cells):
        raise ScenarioError(f"{field!r} names a cell past the {dim} cells of {grid!r}")
    return Projector.from_cells(cells, dim)


def _pm_assignment(doc) -> nogo.FrameAssignment:
    if not isinstance(doc, dict):
        raise ScenarioError(f"expected an object, not {type(doc).__name__}")
    assignment = nogo.FrameAssignment()
    for name, value in doc.items():
        assignment.set({"P1": 0, "P2": 1, "P+": 2, "P-": 3}[name], _finite(value))
    return assignment


def _field(doc: dict, key: str, spec):
    """``doc[key]`` read through ``spec``: a reader, or ``(reader, default)``.

    A missing key without a default, or a value that the reader rejects
    with a TypeError, ValueError, KeyError or ArithmeticError, raises a
    ScenarioError naming the key.
    """
    read, *default = spec if isinstance(spec, tuple) else (spec,)
    if key not in doc:
        if not default:
            raise ScenarioError(f"scenario parameters missing required key {key!r}")
        return default[0]
    try:
        return read(doc[key])
    except (TypeError, ValueError, KeyError, ArithmeticError) as err:
        raise ScenarioError(f"cannot read {key!r}: {err}") from err


def _record(table: dict):
    """Reader of a JSON object: every field of ``table`` and no other key."""

    def reader(doc) -> dict:
        if not isinstance(doc, dict):
            raise ScenarioError(f"expected an object, not {type(doc).__name__}")
        for key in doc:
            if key not in table:
                raise ScenarioError(f"unknown field {key!r}; expected one of {', '.join(table)}")
        return {key: _field(doc, key, spec) for key, spec in table.items()}

    return reader


def _verdict(ok) -> str:
    return "PASS" if ok else "FAIL"


def _attrs(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _cells_key(cells) -> str:
    """``json.dumps(cells)`` of a projector's canonical ranges, written directly."""
    return "[" + ", ".join(f"[{start}, {stop}]" for start, stop in cells) + "]"


def _table_to_dict(table: hilbert.MeasureTable) -> dict:
    """Table values keyed by cell list; a non-integral Fraction is written as a string."""
    return {
        _cells_key(proj.cells): (
            str(value) if isinstance(value, Fraction) and value.denominator != 1 else float(value)
        )
        for proj, value in table.items()
    }


# ---------------------------------------------------------------------------
# scenario table: "kind" or "kind:variant" -> (fields, handler(values, seed, csv_dir))
# ---------------------------------------------------------------------------

SCENARIOS: dict[str, tuple] = {}


def _scenario(name: str, **fields):
    """Register the decorated handler under ``name`` with its field table."""
    kind, _, variant = name.partition(":")
    if variant:
        fields[VARIANT_FIELDS[kind]] = _one_of(variant)

    def register(handler):
        SCENARIOS[name] = (fields, handler)
        return handler

    return register


_MODEL = {
    "observables": _where(_list_of(parse_matrix), len, "a non-empty list of matrices"),
    "hamiltonian": (parse_matrix, None),
    "gamma": _finite,
    "norm_mode": (_one_of("mean-preserving", "literal"), "mean-preserving"),
}


@_scenario(
    "simulate",
    model=_record(_MODEL),
    psi0=parse_vector,
    t_max=_finite,
    dt=_finite,
    n_trajectories=_count,
    eps_collapse=(_finite, collapse.DEFAULT_COLLAPSE_EPS),
    workers=(_int, 1),  # accepted; one batch runs every trajectory
    band_multiplier=(_nonnegative, 1.0),
    martingale_checkpoints=(_list_of(_finite), None),
    martingale_trajectories=(_count, None),
    csv_record_every=(_count, 1),
    csv_trajectories=(_list_of(_index), [0]),
)
def _simulate(v: dict, seed: int, csv_dir: Path | None) -> dict:
    spec = v["model"]
    model = collapse.CollapseModel(
        spec["hamiltonian"], spec["observables"], spec["gamma"], spec["norm_mode"]
    )
    psi0 = StateVector(v["psi0"])
    t_max, dt, n, eps = v["t_max"], v["dt"], v["n_trajectories"], v["eps_collapse"]
    record_every, martingale_n = v["csv_record_every"], v["martingale_trajectories"]
    if any(idx >= n for idx in v["csv_trajectories"]):
        raise ScenarioError("'csv_trajectories' must index trajectories below n_trajectories")
    csv_trajectories = v["csv_trajectories"] if csv_dir is not None else []
    # the library checks the same bound; checked here first so the message names the field
    rows = t_max / dt / record_every + 2 if dt > 0 else 0
    volume = len(csv_trajectories) * rows * (2 * model.dim + 1 + model.n_outcomes)
    if volume > collapse.MAX_RECORDED_VALUES:
        raise errors.PreconditionError(
            f"'csv_trajectories' exceed {collapse.MAX_RECORDED_VALUES} CSV values"
        )
    report = collapse.ensemble_outcomes(
        model,
        psi0,
        n,
        t_max=t_max,
        dt=dt,
        seed=seed,
        eps_collapse=eps,
        band_multiplier=v["band_multiplier"],
        martingale_checkpoints=v["martingale_checkpoints"],
        martingale_trajectories=min(n, 2000) if martingale_n is None else martingale_n,
        record=csv_trajectories,
        record_every=record_every,
    )
    verdicts = {
        "born_frequencies": _verdict(report.passed),
        "unresolved_fraction": _verdict(not report.unresolved_flagged),
    }
    metrics = {
        **_attrs(report, "n_resolved", "unresolved_fraction", "trajectory_steps"),
        "outcomes": [asdict(row) for row in report.rows],
        "resolve_time": report.resolve_time_quantiles(),
    }
    if report.martingale is not None:
        verdicts["martingale"] = _verdict(report.martingale.passed)
        metrics["martingale"] = [asdict(r) for r in report.martingale.rows]
    for idx, traj in zip(csv_trajectories, report.trajectories):
        path = csv_dir / f"trajectory_{idx}.csv"
        try:
            collapse.trajectory_to_csv(traj, model, path)
        except OSError as err:
            raise ScenarioError(f"cannot write {path}: {err}") from err
        metrics.setdefault("csv_files", []).append(str(path))
    return {"verdicts": verdicts, "metrics": metrics}


@_scenario(
    "derive:rational",
    weights=_ints,
    block_sizes=(_ints, None),
    profiles=(_list_of(_list_of(parse_rational)), None),
)
def _derive_rational(v: dict, seed: int, csv_dir) -> dict:
    weights, sizes = v["weights"], v["block_sizes"]
    graining = CoarseGraining.from_sizes([1] * len(weights) if sizes is None else sizes)
    state = emergence.RationalState(weights, graining, v["profiles"])
    table, trace = emergence.rational_born_values(state)
    blocks = [graining.block_projector(i) for i in range(len(weights))]
    ok = emergence.table_matches_weights(table, blocks, weights)
    return {
        "verdicts": {"table_matches_weights": _verdict(ok)},
        "metrics": {
            "table": _table_to_dict(table),
            "weights": [str(table.value(proj)) for proj in blocks],
        },
        "traces": [trace.to_dict()],
    }


@_scenario(
    "derive:equiprobable",
    amplitudes=parse_vector,
    block_sizes=(_ints, None),
)
def _derive_equiprobable(v: dict, seed: int, csv_dir) -> dict:
    amplitudes, sizes = v["amplitudes"], v["block_sizes"]
    graining = CoarseGraining.from_sizes([1] * len(amplitudes) if sizes is None else sizes)
    psi = StateVector(amplitudes)
    separating = hilbert.SeparatingSet.from_graining(psi, graining)
    table, trace = emergence.equiprobable_values(psi, separating)
    blocks = separating.projectors
    ok = emergence.table_matches_weights(table, blocks, [1] * len(blocks))
    return {
        "verdicts": {"table_matches_weights": _verdict(ok)},
        "metrics": {"table": _table_to_dict(table)},
        "traces": [trace.to_dict()],
    }


@_scenario(
    "solve-measure",
    masses=_list_of(parse_rational),
    grainings=_where(_list_of(_ints), len, "a non-empty list of grainings"),
    expect=(_one_of("unique", "underdetermined"), "unique"),
)
def _solve_measure(v: dict, seed: int, csv_dir) -> dict:
    family = hilbert.GrainingFamily(CoarseGraining.from_sizes(s) for s in v["grainings"])
    result = emergence.measure_uniqueness_solve(emergence.MassProfile(v["masses"]), family)
    verdict = _verdict(result.status == v["expect"])
    metrics = {
        **_attrs(result, "status", "rank", "n_unknowns", "nonzeros"),
        "constraints": result.constraint_count,
    }
    if result.unique:
        metrics["table"] = _table_to_dict(result.table)
        return {
            "verdicts": {
                "expectation": verdict,
                "matches_weights": _verdict(result.matches_weights),
            },
            "metrics": metrics,
        }
    metrics["freedom"] = result.freedom
    metrics["witnesses"] = [_table_to_dict(w) for w in result.witnesses]
    return {"verdicts": {"expectation": verdict}, "metrics": metrics}


@_scenario("games:pivotal", x1=_finite, x2=_finite, slope=(_finite, 1.0), depth=(_int, 4))
def _games_pivotal(v: dict, seed: int, csv_dir) -> dict:
    check = games.check_pivotal(v["x1"], v["x2"], games.linear_payoff(v["slope"]), v["depth"])
    solved = check.solved
    return {
        "verdicts": {
            "pivotal_value": _verdict(check.value_forced),
            "closure_solve": _verdict(check.closure_forced),
            "soundness": _verdict(check.sound),
        },
        "metrics": {
            "value": check.derived.value.value,
            "expected": float(check.expected),
            "solver_rank": solved and solved.rank,
            "n_unknowns": solved and solved.n_unknowns,
            "constraints": solved and len(solved.constraints),
            "soundness_residual": check.soundness_residual,
        },
        "traces": [check.derived.trace.to_dict()],
    }


@_scenario(
    "games:special-equivalence",
    state=parse_vector,
    p1_cells=_cells,
    p2_cells=_cells,
    slope=(_finite, 1.0),
    depth=(_int, 2),
)
def _games_special_equivalence(v: dict, seed: int, csv_dir) -> dict:
    state = v["state"]
    p1 = _projector(v["p1_cells"], len(state), "p1_cells", "state")
    p2 = _projector(v["p2_cells"], len(state), "p2_cells", "state")
    if p1.index_set() & p2.index_set():
        raise ScenarioError("'p1_cells' and 'p2_cells' must not overlap")
    payoff = games.linear_payoff(v["slope"])
    check = games.special_equivalence(state, p1, p2, payoff, v["depth"])
    diff = check.difference
    return {
        "verdicts": {"special_equivalence": _verdict(check.holds)},
        "metrics": {
            **_attrs(check.solved, "rank", "n_unknowns"),
            "weight_1": check.weights[0],
            "weight_2": check.weights[1],
            "value_difference": None if diff is None else float(diff),
            "constraints": len(check.solved.constraints),
            "general_equivalence": check.general,
        },
    }


_STEP = {"resolution": _list_of(_cells), "unitary": (parse_matrix, None)}


@_scenario(
    "histories",
    psi0=parse_vector,
    steps=_where(_list_of(_record(_STEP)), len, "a non-empty list of steps"),
    epsilon=(_nonnegative, histories.DEFAULT_EPSILON),
    expect=(_one_of("CONSISTENT", "INCONSISTENT"), "CONSISTENT"),
)
def _histories(v: dict, seed: int, csv_dir) -> dict:
    psi0 = StateVector(v["psi0"])
    steps = [
        histories.HistoryStep(
            [_projector(cells, psi0.dim, "resolution", "psi0") for cells in step["resolution"]],
            step["unitary"],
        )
        for step in v["steps"]
    ]
    report = histories.consistency_check(histories.HistorySet(steps, v["epsilon"]), psi0)
    return {
        "verdicts": {
            "expectation": _verdict(report.verdict == v["expect"]),
            "collapsed_sum": _verdict(report.collapsed_sum_ok),
        },
        "metrics": {
            **_attrs(report, "verdict", "max_discrepancy", "collapsed_sum", "uncollapsed_sum"),
            **_attrs(report, "n_histories", "pairs", "pairs_over_epsilon"),
            "worst_event": report.worst and _attrs(report.worst, "kind", "label"),
        },
    }


@_scenario("lln:tail", n=_int, delta=_finite, p=_finite)
def _lln_tail(v: dict, seed: int, csv_dir) -> dict:
    n, delta, p = v["n"], v["delta"], v["p"]
    return {
        "verdicts": {"computed": "PASS"},
        "metrics": {"tail": lln.lln_tail(n, delta, p), "terms": lln.tail_work(n, delta, p)},
    }


@_scenario(
    "lln:scan",
    p=_finite,
    delta=_finite,
    ns=_ints,
    threshold=(_finite, lln.DEFAULT_SCAN_THRESHOLD),
)
def _lln_scan(v: dict, seed: int, csv_dir) -> dict:
    p, delta = v["p"], v["delta"]
    report = lln.lln_limit_scan(p, delta, v["ns"], threshold=v["threshold"])
    return {
        "verdicts": {"converged": _verdict(report.converged)},
        "metrics": {
            **_attrs(report, "final_is_minimum", "strictly_decreasing"),
            "ns": list(report.ns),
            "values": list(report.values),
            "terms": [lln.tail_work(n, delta, p) for n in report.ns],
        },
    }


@_scenario(
    "lln:audit", outcomes=_ints, weights=_list_of(_finite), surprise_floor=(_finite, 0.0)
)
def _lln_audit(v: dict, seed: int, csv_dir) -> dict:
    audit = lln.frequency_audit(v["outcomes"], v["weights"])
    ok = all(row.surprise >= v["surprise_floor"] for row in audit.rows)
    return {
        "verdicts": {"surprise_floor": _verdict(ok)},
        "metrics": {"rows": [asdict(row) for row in audit.rows]},
    }


@_scenario(
    "nogo:pm",
    chi1=parse_vector,
    chi2=parse_vector,
    assignment=_pm_assignment,
    expect=(_one_of("consistent", "contradiction"), "consistent"),
)
def _nogo_pm(v: dict, seed: int, csv_dir) -> dict:
    system = nogo.PMSystem.from_generators(v["chi1"], v["chi2"])
    result = nogo.propagate_pm_constraint(system, v["assignment"])
    actual = "consistent" if result.consistent else "contradiction"
    return {
        "verdicts": {"expectation": _verdict(actual == v["expect"])},
        "metrics": {
            "status": actual,
            "derived": [
                {"projector": n, "value": x, "reason": r} for n, x, r in result.derived
            ],
            "contradiction": result.contradiction,
        },
    }


_RAY_PAIR = {"chi": parse_vector, "phi": parse_vector}


@_scenario("nogo:separation", **_RAY_PAIR, expect=(_one_of(None, "allowed", "forbidden"), None))
def _nogo_separation(v: dict, seed: int, csv_dir) -> dict:
    result = nogo.separation_check(v["chi"], v["phi"])
    return {
        "verdicts": {"expectation": _verdict(v["expect"] in (None, result.verdict.value))},
        "metrics": {"verdict": result.verdict.value, **_attrs(result, "distance", "threshold")},
    }


@_scenario(
    "nogo:rotation",
    **_RAY_PAIR,
    steps=_int,
    expect=(_one_of("contradiction", "inconclusive", "degenerate"), "contradiction"),
)
def _nogo_rotation(v: dict, seed: int, csv_dir) -> dict:
    report = nogo.rotation_jump_demo(v["chi"], v["phi"], v["steps"])
    return {
        "verdicts": {"expectation": _verdict(report.status == v["expect"])},
        "metrics": {
            **_attrs(report, "status", "max_consecutive_distance", "flip_allowed_at"),
            "n_pairs": len(report.distances),
        },
    }


@_scenario(
    "nogo:search",
    rays=_list_of(parse_vector),
    expect_satisfiable=(_bool, None),
    expect_count=(_index, None),
)
def _nogo_search(v: dict, seed: int, csv_dir) -> dict:
    result = nogo.dispersion_free_search(nogo.RaySet(v["rays"]))
    metrics = {
        "satisfiable": result.satisfiable,
        "n_assignments": len(result.assignments),
        "contexts": [list(c) for c in result.contexts],
    }
    if result.certificate is not None:
        metrics["certificate"] = list(result.certificate.chain)
    verdicts = {}
    if v["expect_satisfiable"] is not None:
        verdicts["satisfiable"] = _verdict(result.satisfiable == v["expect_satisfiable"])
    if v["expect_count"] is not None:
        verdicts["count"] = _verdict(len(result.assignments) == v["expect_count"])
    if not verdicts:
        verdicts["computed"] = "PASS"
    return {"verdicts": verdicts, "metrics": metrics}


KINDS = tuple(dict.fromkeys(name.partition(":")[0] for name in SCENARIOS))  # in registration order


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
    seed = _field(doc if seed_override is None else {"seed": seed_override}, "seed", (_index, 0))
    csv_dir = None
    if write_csv:
        csv_dir = Path(out_path).parent if out_path else Path.cwd()
        try:
            csv_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ScenarioError(f"cannot create the CSV directory {csv_dir}: {err}") from err

    start = time.perf_counter()
    entry = kind
    if kind in VARIANT_FIELDS:
        variants = [name.partition(":")[2] for name in SCENARIOS if name.startswith(f"{kind}:")]
        entry += ":" + _field(params, VARIANT_FIELDS[kind], _one_of(*variants))
    fields, handler = SCENARIOS[entry]
    body = handler(_record(fields)(params), seed, csv_dir)
    elapsed = time.perf_counter() - start

    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "scenario": doc,
        "seed": seed,
        "tool_version": __version__,
        **body,
        "wall_clock_s": elapsed,
    }
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

    out = _resolve_out(args.out)
    try:
        report, code = run_scenario(
            args.scenario,
            out_path=out,
            seed_override=args.seed,
            write_csv=args.csv,
            expected_kind=args.command,
        )
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, errors.ConvergenceFailureError, errors.InconsistentSystemError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except errors.BornLabError as err:
        print(f"invalid scenario inputs: {err}", file=sys.stderr)
        return EXIT_USAGE

    text = render_report(report)
    if out is not None:
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text)
        except OSError as err:
            print(f"cannot write the report to {out}: {err}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
