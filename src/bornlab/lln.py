"""Exact binomial tail probabilities for the law of large numbers.

The central quantity is the chance that the relative frequency of an
outcome over n independent trials differs from its per-trial chance by
more than delta (strictly: boundary deviations are excluded).  The tail's
index set is decided exactly, by two integer cut points.  Small n is summed
as integers: with p = a/d, the terms comb(n, k) a^k (d - a)^(n - k) of each
tail run are summed by an exact integer recurrence, and the sum over d^n is
the tail as a rational.  Large n switches to log-domain summation to avoid
overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import OutcomeIndexError, PreconditionError

EXACT_N_LIMIT = 1000
MAX_TRIALS = 10**5  # trial count n; the log-domain tail holds about n floats
MAX_AUDIT_WEIGHTS = 100  # weight-table entries of one audit; each costs one tail


@dataclass(frozen=True)
class LlnQuery:
    """Trial count, deviation threshold, per-trial chance."""

    n: int
    delta: float
    p: float

    def __post_init__(self):
        if not 1 <= self.n <= MAX_TRIALS:
            raise PreconditionError(f"trial count n must lie in [1, {MAX_TRIALS}], got {self.n}")
        if not 0 < self.delta < math.inf:
            raise PreconditionError(f"threshold delta must be positive and finite: {self.delta}")
        if not 0.0 <= self.p <= 1.0:
            raise PreconditionError(f"per-trial chance p must lie in [0, 1], got {self.p}")


def _tail_cut(n: int, delta: Fraction, p: Fraction) -> tuple[int, int]:
    """Cut points (lo, hi): |k/n - p| > delta exactly for k < lo or k >= hi.

    With p = a/d and delta = e/f the test is |k d - n a| f > e n d, so the
    lower run ends below (n a f - e n d) / (d f) and the upper run starts
    above (n a f + e n d) / (d f).
    """
    a, d = p.numerator, p.denominator
    e, f = delta.numerator, delta.denominator
    centre, width, scale = n * a * f, e * n * d, d * f
    lo = (centre - width - 1) // scale + 1
    hi = (centre + width) // scale + 1
    return min(max(lo, 0), n + 1), min(max(hi, 0), n + 1)


def _run_sum(n: int, count: int, a: int, b: int) -> int:
    """sum of comb(n, k) a^k b^(n-k) for k < count, as an integer.

    Horner's rule in b over the terms comb(n, k) a^k, each found from the
    one before by exact division by k; the common factor b^(n - count + 1)
    is applied last, so the working integers grow with k instead of
    starting n digits long.  a = 0 or b = 0 needs no special case.
    """
    if count <= 0:
        return 0
    term = total = 1
    for k in range(1, count):
        term = term * ((n - k + 1) * a) // k
        total = total * b + term
    return total * b ** (n + 1 - count)


def lln_tail_exact(n: int, delta, p) -> Fraction:
    """Exact P(|K/n - p| > delta) for binomial K, as a rational.

    Floats convert to their exact binary rationals, so dyadic inputs like
    0.5 are handled exactly.
    """
    query = LlnQuery(int(n), float(delta), float(p))
    n = query.n
    p = Fraction(p)
    lo, hi = _tail_cut(n, Fraction(delta), p)
    a, d = p.numerator, p.denominator
    # the upper run mirrors the lower one with the roles of a and d - a swapped
    total = _run_sum(n, lo, a, d - a) + _run_sum(n, n + 1 - hi, d - a, a)
    return Fraction(total, d**n)


def _log_pmf(n: int, k: int, p: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


@dataclass(frozen=True)
class TailWork:
    """Which summation ``lln_tail`` runs and how many tail indices it sums."""

    path: str
    terms: int


def tail_work(n: int, delta: float | Fraction, p: float) -> TailWork:
    """The work ``lln_tail(n, delta, p)`` does, without doing it.

    A chance of 0 or 1 sums nothing; otherwise n <= EXACT_N_LIMIT takes the
    ``exact`` integer path and larger n the ``log`` path.
    """
    query = LlnQuery(int(n), float(delta), float(p))
    if query.p in (0.0, 1.0):
        return TailWork("exact", 0)
    lo, hi = _tail_cut(query.n, Fraction(delta), Fraction(p))
    path = "exact" if query.n <= EXACT_N_LIMIT else "log"
    return TailWork(path, lo + query.n + 1 - hi)


def lln_tail(n: int, delta: float | Fraction, p: float) -> float:
    """P(|K/n - p| > delta), exact summation (log-domain above n=1000).

    ``delta`` may be a Fraction, so a threshold that is not a float (an
    observed deviation, say) is compared exactly.
    """
    query = LlnQuery(int(n), float(delta), float(p))
    n, p = query.n, query.p
    delta = Fraction(delta)
    if p == 0.0 or p == 1.0:
        # the frequency equals p with certainty; strict deviation needs
        # |k/n - p| > delta with k pinned at 0 or n
        return 0.0
    if n <= EXACT_N_LIMIT:
        return float(lln_tail_exact(n, delta, p))
    lo, hi = _tail_cut(n, delta, Fraction(p))
    logs = [_log_pmf(n, k, p) for k in (*range(lo), *range(hi, n + 1))]
    if not logs:
        return 0.0
    peak = max(logs)
    return float(math.exp(peak) * sum(math.exp(x - peak) for x in logs))


@dataclass(frozen=True)
class LimitScanReport:
    ns: tuple[int, ...]
    values: tuple[float, ...]
    final_is_minimum: bool
    strictly_decreasing: bool
    converged: bool
    threshold: float


def lln_limit_scan(
    p: float, delta: float, ns: Sequence[int], *, threshold: float = 1e-3
) -> LimitScanReport:
    """Tail values along increasing n, with a convergence verdict.

    ``converged`` means the final value dropped below ``threshold``; the
    report also notes whether the final value is the minimum and whether
    the sequence decreases strictly.
    """
    ns = tuple(int(n) for n in ns)
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[-1] > MAX_TRIALS:
        raise PreconditionError(f"'ns' must be non-empty, increasing, <= {MAX_TRIALS}: {ns}")
    values = tuple(lln_tail(n, delta, p) for n in ns)
    final_is_minimum = values[-1] == min(values)
    strictly_decreasing = all(b < a for a, b in zip(values, values[1:])) or len(values) == 1
    return LimitScanReport(
        ns=ns,
        values=values,
        final_is_minimum=final_is_minimum,
        strictly_decreasing=strictly_decreasing,
        converged=values[-1] < threshold,
        threshold=threshold,
    )


@dataclass(frozen=True)
class AuditRow:
    outcome: int
    count: int
    frequency: float
    weight: float
    deviation: float
    surprise: float


@dataclass(frozen=True)
class FrequencyAudit:
    rows: tuple[AuditRow, ...]
    n: int

    def row(self, outcome: int) -> AuditRow:
        for row in self.rows:
            if row.outcome == outcome:
                return row
        raise KeyError(outcome)


def frequency_audit(outcomes: Sequence[int], weights: Sequence[float]) -> FrequencyAudit:
    """Per-outcome frequencies against a weight table, with surprise scores.

    The surprise score of an outcome is the exact chance of a deviation
    larger than the one observed, so small scores flag sequences a
    weight-distributed source would rarely produce.
    """
    outcomes = [int(o) for o in outcomes]
    if not 1 <= len(outcomes) <= MAX_TRIALS:
        raise PreconditionError(f"'outcomes' must hold 1 to {MAX_TRIALS} entries")
    if len(weights) > MAX_AUDIT_WEIGHTS:
        raise PreconditionError(f"'weights' must hold at most {MAX_AUDIT_WEIGHTS} entries")
    weights = [float(w) for w in weights]
    if not all(w >= 0 for w in weights) or not abs(sum(weights) - 1.0) <= 1e-9:
        raise PreconditionError(f"'weights' must be a probability table, got {weights}")
    for o in outcomes:
        if not 0 <= o < len(weights):
            raise OutcomeIndexError(f"'outcomes' entry {o} lies outside the weight table")
    n = len(outcomes)
    rows = []
    for k, weight in enumerate(weights):
        count = sum(1 for o in outcomes if o == k)
        freq = count / n
        # the threshold is the exact observed deviation, so the observed
        # count itself never lands in the strict tail through rounding
        exact_deviation = abs(Fraction(count, n) - Fraction(weight))
        surprise = lln_tail(n, exact_deviation or 1e-300, weight)
        rows.append(
            AuditRow(
                outcome=k,
                count=count,
                frequency=freq,
                weight=weight,
                deviation=abs(freq - weight),
                surprise=surprise,
            )
        )
    return FrequencyAudit(rows=tuple(rows), n=n)
