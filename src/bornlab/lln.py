"""Exact binomial tail probabilities for the law of large numbers.

The central quantity is the chance that the relative frequency of an
outcome over n independent trials differs from its per-trial chance by
more than delta (strictly: boundary deviations are excluded).  The tail's
index set is decided exactly, by two integer cut points.  With p = a/d,
``lln_tail_exact`` sums the terms comb(n, k) a^k (d - a)^(n - k) of each
tail run by an exact integer recurrence, and the sum over d^n is the tail
as a rational.  ``lln_tail`` returns that rational correctly rounded at
every n without forming it: one walk out from the mode on each side sums
every term relative to the mode's in fixed point, into the tail or the rest,
with a bound on what truncation lost, and it falls back to the rational
only when the bounds straddle a rounding boundary.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import OutcomeIndexError, PreconditionError

MAX_TRIALS = 10**5  # trial count n; each walk of a tail takes at most n steps
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


_UNIT_BITS = 1280  # the mode's term is 2**_UNIT_BITS fixed-point units
_INVISIBLE = 1 << (_UNIT_BITS - 1200)  # 2**-1200 of the mode's term: no float sees it
_GUARD_BITS = 192  # a walk ends once what one part has left is below 2**-_GUARD_BITS of it


def _side(n: int, a: int, b: int, m: int, first: int, lo: int, hi: int) -> list[int]:
    """Bounds [tail, tail_c, rest, rest_c] on the sums of w_k over first <= k <= n.

    w_k = comb(n, k) a^k b^(n - k) relative to the term of the mode m <= first,
    in fixed-point units of which w_m holds 2**_UNIT_BITS.  The terms with
    k < lo or k >= hi sum to a value in [tail, tail + tail_c], the others to
    one in [rest, rest + rest_c].  One walk up from the mode serves both:
    each step multiplies by (n - k) a / ((k + 1) b) <= 1 and floors, so a
    term j steps from the mode is at most j units short.  The terms left,
    none above the current one, end the walk once they are invisible to any
    float or, when they all fall in one part, below 2**-_GUARD_BITS of its
    sum; what they may hold is added to the bound of each part they fall in.
    """
    tail = tail_c = rest = rest_c = 0
    term = 1 << _UNIT_BITS
    for k in range(m, n + 1):
        tail_ahead = k < lo or hi <= n
        rest_ahead = k < hi and lo < hi
        left = (n + 1 - k) * (term + k - m)
        if tail_ahead and rest_ahead:
            limit = _INVISIBLE
        else:
            limit = max((tail if tail_ahead else rest) >> _GUARD_BITS, _INVISIBLE)
        if left <= limit:
            if tail_ahead:
                tail_c += left
            if rest_ahead:
                rest_c += left
            break
        if k >= first:
            if lo <= k < hi:
                rest += term
                rest_c += k - m
            else:
                tail += term
                tail_c += k - m
        term = term * ((n - k) * a) // ((k + 1) * b)
    return [tail, tail_c, rest, rest_c]


def tail_work(n: int, delta: float | Fraction, p: float) -> int:
    """The number of indices k in the tail of ``lln_tail(n, delta, p)``.

    A chance of 0 or 1 has no tail.
    """
    query = LlnQuery(int(n), float(delta), float(p))
    if query.p in (0.0, 1.0):
        return 0
    lo, hi = _tail_cut(query.n, Fraction(delta), Fraction(p))
    return lo + query.n + 1 - hi


def lln_tail(n: int, delta: float | Fraction, p: float) -> float:
    """P(|K/n - p| > delta), the exact tail correctly rounded to a float.

    ``delta`` may be a Fraction, so a threshold that is not a float (an
    observed deviation, say) is compared exactly.  The tail and the rest
    are summed with error bounds by one walk (``_side``) on each side of
    the mode; when the bounds of their share round to one float, that float
    is the rounded exact tail, and otherwise the rational ``lln_tail_exact``
    decides (Ziv's rounding test).
    """
    query = LlnQuery(int(n), float(delta), float(p))
    n = query.n
    if query.p in (0.0, 1.0):
        # the frequency equals p with certainty; strict deviation needs
        # |k/n - p| > delta with k pinned at 0 or n
        return 0.0
    chance = Fraction(p)
    lo, hi = _tail_cut(n, Fraction(delta), chance)
    a, d = chance.numerator, chance.denominator
    mode = (n + 1) * a // d  # the largest term; the terms fall away on either side
    above = _side(n, a, d - a, mode, mode, lo, hi)
    # below the mode walks its mirror image: a and b swap roles, k maps to n - k
    below = _side(n, d - a, a, n - mode, n + 1 - mode, n + 1 - hi, n + 1 - lo)
    tail, tail_c, rest, rest_c = (x + y for x, y in zip(above, below))
    low = tail / (tail + rest + rest_c)
    if low == (tail + tail_c) / (tail + tail_c + rest):
        return low
    return float(lln_tail_exact(n, delta, p))


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
    counts = Counter(outcomes)  # keys in order of first appearance
    for o in counts:
        if not 0 <= o < len(weights):
            raise OutcomeIndexError(f"'outcomes' entry {o} lies outside the weight table")
    n = len(outcomes)
    rows = []
    for k, weight in enumerate(weights):
        count = counts[k]
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
