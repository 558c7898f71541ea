"""Independent checks of scenario reports.

Each check recomputes what the report should say from the scenario's own
construction (``Scenario.expect``) with code of its own, never with the
bornlab function under test.  ``check`` returns the list of problems; an
empty list means the report is correct.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

SIGMAS = 5.0  # frequency band: the program's band times BAND_MULTIPLIER
TAIL_RTOL = 1e-9
SEPARATION_BOUND = 0.5  # |chi - phi| at or below which a 1 -> 0 drop is forbidden


def binomial_tail(n: int, delta: float, p: float, *, strict: bool = True) -> float:
    """P(|K/n - p| > delta) for K ~ Binomial(n, p); ``>=`` when not strict.

    The tail's index set is decided exactly on the binary rationals of the
    float inputs.  The probabilities are summed in floats by the pmf ratio
    recurrence outward from the mode, which shares nothing with the
    program's rational or log-gamma-per-term sums.
    """
    if p in (0.0, 1.0):
        return 0.0
    pf, df = Fraction(p), Fraction(delta)

    def in_tail(k: int) -> bool:
        dev = abs(Fraction(k, n) - pf)
        return dev > df if strict else dev >= df

    q = 1.0 - p
    mode = min(n, max(0, int((n + 1) * p)))
    log_mode = (
        math.lgamma(n + 1) - math.lgamma(mode + 1) - math.lgamma(n - mode + 1)
        + mode * math.log(p) + (n - mode) * math.log1p(-p)
    )
    total = 1.0 if in_tail(mode) else 0.0
    ratio = 1.0
    for k in range(mode + 1, n + 1):
        ratio *= (n - k + 1) / k * p / q
        if in_tail(k):
            total += ratio
    ratio = 1.0
    for k in range(mode - 1, -1, -1):
        ratio *= (k + 1) / (n - k) * q / p
        if in_tail(k):
            total += ratio
    return total * math.exp(log_mode)


def _close(got, want) -> bool:
    return got is not None and abs(got - want) <= TAIL_RTOL * max(abs(want), 1e-300)


def _table_value(value) -> Fraction:
    return Fraction(value) if isinstance(value, str) else Fraction(float(value))


def _block_cells(label: str) -> list[int]:
    return [i for a, b in json.loads(label) for i in range(a, b)]


# ---------------------------------------------------------------------------
# per kind
# ---------------------------------------------------------------------------


def _simulate(sc, report) -> list[str]:
    ex = sc.expect
    coeff = ex["basis"].conj().T @ ex["psi0"]
    mass = np.abs(coeff) ** 2 / np.sum(np.abs(coeff) ** 2)
    labels = ex["labels"]
    born = {}
    for i in range(labels.shape[1]):
        key = tuple(np.round(labels[:, i], 6))
        born[key] = born.get(key, 0.0) + mass[i]
    m = report["metrics"]
    problems = []
    n_res = m["n_resolved"]
    if sum(r["count"] for r in m["outcomes"]) != n_res:
        problems.append("outcome counts do not add up to n_resolved")
    if sorted(born) != sorted(tuple(np.round(r["eigenvalues"], 6)) for r in m["outcomes"]):
        return problems + ["outcome eigenvalues differ from the construction"]
    weights = {}
    for row in m["outcomes"]:
        p = born[tuple(np.round(row["eigenvalues"], 6))]
        weights[row["outcome"]] = p
        freq = row["count"] / n_res if n_res else 0.0
        if abs(freq - p) > SIGMAS * math.sqrt(p * (1 - p) / max(n_res, 1)) + 1e-12:
            problems.append(f"outcome {row['outcome']}: frequency {freq:.4f} vs Born {p:.4f}")
    for row in m.get("martingale", []):
        p = weights[row["outcome"]]
        if abs(row["mean"] - p) > SIGMAS * row["sigma_mean"] + 1e-9:
            problems.append(f"martingale t={row['time']} outcome {row['outcome']} drifted")
    if sc.write_csv:
        problems += _csv_files(report, labels.shape[1], len(born))
    return problems


def _csv_files(report, dim: int, n_outcomes: int) -> list[str]:
    problems = []
    files = report["metrics"].get("csv_files", [])
    if len(files) != len(report["scenario"]["parameters"]["csv_trajectories"]):
        return ["missing CSV files"]
    for path in files:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 2 or len(rows[0]) != 1 + 2 * dim + n_outcomes:
            problems.append(f"{Path(path).name}: bad shape")
            continue
        for row in rows[1:]:
            amps = [float(x) for x in row[1 : 1 + 2 * dim]]
            probs = [float(x) for x in row[1 + 2 * dim :]]
            if abs(sum(a * a for a in amps) - 1.0) > 1e-9 or abs(sum(probs) - 1.0) > 1e-9:
                problems.append(f"{Path(path).name}: row at t={row[0]} not normalized")
                break
    return problems


def _solve_measure(sc, report) -> list[str]:
    m = report["metrics"]
    params = sc.doc["parameters"]
    if m["status"] != sc.expect["status"]:
        return [f"status {m['status']}, construction says {sc.expect['status']}"]
    if m["status"] == "underdetermined":
        if m["freedom"] != sc.expect["freedom"]:
            return [f"freedom {m['freedom']}, construction says {sc.expect['freedom']}"]
        return []
    masses = [Fraction(x) for x in params["masses"]]
    total = sum(masses)
    problems = []
    for label, value in m["table"].items():
        want = sum(masses[i] for i in _block_cells(label)) / total
        if _table_value(value) != want:
            problems.append(f"block {label}: {value} != {want}")
    if len(m["table"]) != m["n_unknowns"]:
        problems.append("table does not cover every unknown")
    return problems


def _derive(sc, report) -> list[str]:
    params = sc.doc["parameters"]
    if params["construction"] == "rational":
        weights = sc.expect["weights"]
        want = [str(Fraction(w, sum(weights))) for w in weights]
        got = report["metrics"]["weights"]
        return [] if got == want else [f"weights {got} != {want}"]
    sizes = sc.expect["sizes"]
    edges = [0, *itertools.accumulate(sizes)]
    want = Fraction(1, sc.expect["n_blocks"])
    table = report["metrics"]["table"]
    problems = []
    for a, b in zip(edges, edges[1:]):
        label = json.dumps([[a, b]])
        if label not in table or _table_value(table[label]) != want:
            problems.append(f"block {label}: {table.get(label)} != {want}")
    return problems


def _lln(sc, report) -> list[str]:
    params = sc.doc["parameters"]
    m = report["metrics"]
    op = params["op"]
    if op == "tail":
        want = binomial_tail(params["n"], params["delta"], params["p"])
        return [] if _close(m["tail"], want) else [f"tail {m['tail']!r} != {want!r}"]
    if op == "scan":
        problems = []
        for n, got in zip(params["ns"], m["values"]):
            want = binomial_tail(n, params["delta"], params["p"])
            if not _close(got, want):
                problems.append(f"scan n={n}: {got!r} != {want!r}")
        if list(m["ns"]) != list(params["ns"]):
            problems.append("scan trial counts differ")
        return problems
    outcomes, weights = params["outcomes"], params["weights"]
    n = len(outcomes)
    problems = []
    for row in m["rows"]:
        k, w = row["outcome"], weights[row["outcome"]]
        count = outcomes.count(k)
        if row["count"] != count:
            problems.append(f"audit outcome {k}: count {row['count']} != {count}")
            continue
        # "chance of a deviation larger than the one observed": accept the
        # strict tail, the inclusive one, or anything between them
        dev = abs(Fraction(count, n) - Fraction(w))
        lo = binomial_tail(n, dev, w, strict=True)
        hi = binomial_tail(n, dev, w, strict=False)
        s = row["surprise"]
        if not (lo * (1 - TAIL_RTOL) <= s <= hi * (1 + TAIL_RTOL)):
            problems.append(f"audit outcome {k}: surprise {s!r} outside [{lo!r}, {hi!r}]")
    return problems


def _histories(sc, report) -> list[str]:
    m = report["metrics"]
    problems = []
    if m["verdict"] != sc.expect["verdict"]:
        problems.append(f"verdict {m['verdict']}, construction says {sc.expect['verdict']}")
    if abs(m["collapsed_sum"] - 1.0) > 1e-9:
        problems.append(f"collapsed_sum {m['collapsed_sum']!r}")
    if m["n_histories"] != sc.expect["n_histories"]:
        problems.append(f"{m['n_histories']} histories")
    return problems


def _games(sc, report) -> list[str]:
    m = report["metrics"]
    if sc.doc["parameters"]["mode"] == "pivotal":
        want = sc.expect["value"]
        return [] if abs(m["value"] - want) <= 1e-9 else [f"value {m['value']} != {want}"]
    state = np.array([complex(*z) if isinstance(z, list) else z
                      for z in sc.doc["parameters"]["state"]])
    w = np.abs(state) ** 2 / np.sum(np.abs(state) ** 2)
    problems = []
    if abs(m["weight_1"] - w[0]) > 1e-10 or abs(m["weight_2"] - w[1]) > 1e-10:
        problems.append("weights differ from the state")
    if m["value_difference"] is None or abs(m["value_difference"]) > 1e-9:
        problems.append(f"value difference {m['value_difference']}")
    return problems


def _ray_distance(a, b) -> float:
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    return math.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(a, b))))


def count_assignments(rays) -> int:
    """{0,1} assignments over 2^n: at most one 1 per orthogonal pair and
    exactly one 1 per complete orthogonal context, by brute force."""
    rays = [np.asarray(r) / np.linalg.norm(r) for r in rays]
    n, dim = len(rays), len(rays[0])
    ortho = {(i, j) for i in range(n) for j in range(i + 1, n)
             if abs(np.vdot(rays[i], rays[j])) < 1e-8}
    contexts = [c for c in itertools.combinations(range(n), dim)
                if all(pair in ortho for pair in itertools.combinations(c, 2))]
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    ok = np.ones(2**n, dtype=bool)
    for i, j in ortho:
        ok &= (bits[:, i] + bits[:, j]) <= 1
    for ctx in contexts:
        ok &= bits[:, list(ctx)].sum(axis=1) == 1
    return int(ok.sum())


def _nogo(sc, report) -> list[str]:
    params = sc.doc["parameters"]
    m = report["metrics"]
    check = params["check"]
    if check == "pm":
        want = sc.expect["status"]
        problems = [] if m["status"] == want else [f"status {m['status']} != {want}"]
        if want == "consistent":
            derived = {d["projector"]: d["value"] for d in m["derived"]}
            if derived != {"P+": 0.0, "P-": 0.0}:
                problems.append(f"derived {derived}")
        return problems
    if check == "separation":
        dist = _ray_distance(sc.expect["chi"], sc.expect["phi"])
        want = "forbidden" if dist <= SEPARATION_BOUND else "allowed"
        if abs(dist - SEPARATION_BOUND) < 1e-9:
            return []  # on the boundary either verdict is defensible
        problems = [] if m["verdict"] == want else [f"verdict {m['verdict']} != {want}"]
        if abs(m["distance"] - dist) > 1e-9:
            problems.append(f"distance {m['distance']} != {dist}")
        return problems
    if check == "rotation":
        steps = sc.expect["steps"]
        dist = math.sqrt(2.0 - 2.0 * math.cos(sc.expect["angle"] / steps))
        want = "contradiction" if dist <= SEPARATION_BOUND else "inconclusive"
        problems = [] if m["status"] == want else [f"status {m['status']} != {want}"]
        if m["n_pairs"] != steps or abs(m["max_consecutive_distance"] - dist) > 1e-9:
            problems.append("sweep geometry differs")
        return problems
    want = count_assignments(sc.expect["rays"])
    problems = [] if m["n_assignments"] == want else [f"{m['n_assignments']} assignments != {want}"]
    if m["satisfiable"] != (want > 0):
        problems.append("satisfiability differs")
    return problems


_CHECKS = {
    "simulate": _simulate,
    "solve-measure": _solve_measure,
    "derive": _derive,
    "lln": _lln,
    "histories": _histories,
    "games": _games,
    "nogo": _nogo,
}


def check(sc, report: dict, code: int) -> list[str]:
    """Problems with one scenario's report; every scenario expects exit 0."""
    problems = [] if code == 0 else [f"exit code {code}: {report.get('failures')}"]
    return problems + _CHECKS[sc.kind](sc, report)
