from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab.errors import BornLabError, OutcomeIndexError, PreconditionError
from bornlab import lln
from bornlab.lln import (
    DEFAULT_SCAN_THRESHOLD,
    MAX_AUDIT_WEIGHTS,
    MAX_TRIALS,
    WEIGHT_SUM_TOL,
    LlnQuery,
    frequency_audit,
    lln_limit_scan,
    lln_tail,
    lln_tail_exact,
    tail_work,
)


def brute_force_tail(n: int, delta: float, p: float) -> float:
    # strict-deviation test in exact arithmetic (float comparison flips
    # boundary cases), probability mass accumulated in floats
    total = 0.0
    dlt, chance = Fraction(delta), Fraction(p)
    for k in range(n + 1):
        if abs(Fraction(k, n) - chance) > dlt:
            total += math.comb(n, k) * p**k * (1 - p) ** (n - k)
    return total


def fraction_tail(n: int, delta, p) -> Fraction:
    # oracle: Fraction powers summed over the indices picked one Fraction
    # comparison at a time
    delta, p = Fraction(delta), Fraction(p)
    total = Fraction(0)
    for k in range(n + 1):
        if abs(Fraction(k, n) - p) > delta:
            total += math.comb(n, k) * p**k * (1 - p) ** (n - k)
    return total


# floats stay clear of subnormals, whose 2^-1074 denominators make the
# Fraction oracle crawl
chances = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
    st.floats(1e-3, 1.0),
    st.builds(Fraction, st.integers(0, 40), st.integers(40, 97)),
)


@st.composite
def boundary_queries(draw):
    # delta equal to |k/n - p| for some k, so that index sits on the boundary
    n = draw(st.integers(1, 300))
    p = draw(chances)
    k = draw(st.integers(0, n))
    delta = abs(Fraction(k, n) - Fraction(p))
    if delta == 0:
        delta = Fraction(1, n)
    return n, delta, p


class TestLlnTail:
    def test_textbook_rational(self):
        assert lln_tail_exact(10, 0.2, 0.5) == Fraction(112, 1024)
        assert lln_tail(10, 0.2, 0.5) == 0.109375

    def test_boundary_deviation_excluded(self):
        # k=3 and k=7 sit exactly at |k/10 - 0.5| = 0.2 and must not count
        included = {k for k in range(11) if abs(Fraction(k, 10) - Fraction(1, 2)) > Fraction(1, 5)}
        assert included == {0, 1, 2, 8, 9, 10}

    def test_impossible_deviation(self):
        assert lln_tail(10, 0.6, 0.5) == 0.0
        assert lln_tail(7, 0.5, 0.5) == 0.0

    def test_degenerate_chance(self):
        assert lln_tail(100, 0.1, 0.0) == 0.0
        assert lln_tail(100, 0.1, 1.0) == 0.0

    def test_invalid_queries(self):
        with pytest.raises(ValueError):
            LlnQuery(0, 0.1, 0.5)
        with pytest.raises(ValueError):
            LlnQuery(10, 0.0, 0.5)
        with pytest.raises(ValueError):
            LlnQuery(10, 0.1, 1.5)

    @pytest.mark.parametrize(
        "n, delta, p, field",
        [
            (-3, 0.1, 0.5, "count n"),
            (10, math.inf, 0.5, "threshold delta"),
            (10, 0.1, 1.5, "chance p"),
        ],
    )
    def test_invalid_queries_name_the_field(self, n, delta, p, field):
        with pytest.raises(PreconditionError, match=field):
            LlnQuery(n, delta, p)

    def test_matches_brute_force_up_to_thirty(self):
        for n in range(1, 31):
            for p in (0.5, 0.3, 0.25):
                for delta in (0.05, 0.21, 0.4):
                    assert lln_tail(n, delta, p) == pytest.approx(
                        brute_force_tail(n, delta, p), abs=1e-14
                    )

    @given(st.integers(1, 300), st.floats(1e-3, 1.0), chances)
    @settings(max_examples=80, deadline=None)
    def test_exact_matches_fraction_oracle(self, n, delta, p):
        assert lln_tail_exact(n, delta, p) == fraction_tail(n, delta, p)

    @given(boundary_queries())
    @settings(max_examples=80, deadline=None)
    def test_exact_matches_fraction_oracle_on_boundaries(self, query):
        n, delta, p = query
        assert lln_tail_exact(n, delta, p) == fraction_tail(n, delta, p)

    @given(boundary_queries())
    @settings(max_examples=100, deadline=None)
    def test_cut_points_match_index_test(self, query):
        from bornlab import lln

        n, delta, p = query
        lo, hi = lln._tail_cut(n, delta, Fraction(p))
        picked = [*range(lo), *range(hi, n + 1)]
        assert picked == [k for k in range(n + 1) if abs(Fraction(k, n) - Fraction(p)) > delta]

    def test_tail_work(self):
        # |k/10 - 1/2| > 1/5 for k in {0, 1, 2, 8, 9, 10}
        assert tail_work(10, 0.2, 0.5) == 6
        assert tail_work(1001, 0.5, 0.5) == 0
        # k <= 100 and k >= 901
        assert tail_work(1001, 0.4, 0.5) == 2 * 101
        assert tail_work(100, 0.1, 0.0) == 0

    def test_fraction_delta_is_exact(self):
        # 0.6 - 0.3 rounds down to the float 0.3, which would let k = 6 in
        dev = Fraction(6, 10) - Fraction(0.3)
        assert lln_tail(10, dev, 0.3) == float(fraction_tail(10, dev, 0.3))
        assert lln_tail(10, 0.6 - 0.3, 0.3) > lln_tail(10, dev, 0.3)

    @given(
        st.integers(1, 200),
        st.floats(0.01, 0.9),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_delta(self, n, delta, p):
        wider = lln_tail(n, min(0.99, delta + 0.07), p)
        assert wider <= lln_tail(n, delta, p) + 1e-15

    @given(st.integers(1, 150), st.floats(0.01, 0.5), st.integers(1, 255))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_under_p_flip(self, n, delta, num):
        # dyadic chances make 1-p exact, so the identity holds to rounding
        p = num / 256.0
        assert lln_tail(n, delta, p) == pytest.approx(
            lln_tail(n, delta, 1.0 - p), abs=1e-14
        )

    def test_symmetry_exact(self):
        for num, den in ((1, 3), (2, 7), (13, 64)):
            p = Fraction(num, den)
            assert lln_tail_exact(40, Fraction(1, 10), p) == lln_tail_exact(
                40, Fraction(1, 10), 1 - p
            )


@st.composite
def rounding_queries(draw):
    p = draw(
        st.one_of(
            st.integers(1, 2**12 - 1).map(lambda k: k / 2**12),
            st.floats(1e-300, 1e-6),
            st.floats(1e-16, 1e-3).map(lambda x: 1.0 - x),
            st.floats(1e-3, 1.0, exclude_max=True),
        )
    )
    # the rational oracle's integers hold about n times the bits of p's
    # denominator, so long denominators get a small n
    bits = Fraction(p).denominator.bit_length()
    n = draw(st.integers(1, min(2000, 60_000 // bits)))
    k = draw(st.integers(0, n))
    delta = draw(
        st.one_of(
            st.floats(1e-4, 1.0),
            st.just(1e-300),
            st.just(abs(Fraction(k, n) - Fraction(p)) or Fraction(1, n)),
        )
    )
    return n, delta, p


class TestCorrectRounding:
    """``lln_tail`` is the exact rational tail rounded to the nearest float."""

    @given(rounding_queries())
    @settings(max_examples=200, deadline=None)
    def test_matches_rounded_exact(self, query):
        assert lln_tail(*query) == float(lln_tail_exact(*query))

    @pytest.mark.parametrize(
        "n, delta, p",
        [
            (1000, 0.05, 0.5),
            (1001, 0.018, 0.5),
            (1001, Fraction(1, 1001), 0.25),
            (2048, 1e-300, 0.5),
            (5000, 0.01, 0.25),
            (20_000, 0.006, 0.5),
        ],
    )
    def test_matches_rounded_exact_above_one_thousand(self, n, delta, p):
        assert lln_tail(n, delta, p) == float(lln_tail_exact(n, delta, p))

    def test_tie_takes_the_rational(self, monkeypatch):
        # 1 - comb(58, 29) / 2^58 sits exactly halfway between two floats,
        # so no error bound, however tight, decides its rounding
        exact = lln_tail_exact(58, 1e-300, 0.5)
        f = float(exact)
        assert exact in {(Fraction(f) + Fraction(math.nextafter(f, side))) / 2 for side in (0, 2)}
        calls = []

        def counted(*args):
            calls.append(args)
            return lln_tail_exact(*args)

        monkeypatch.setattr(lln, "lln_tail_exact", counted)
        assert lln_tail(58, 1e-300, 0.5) == float(exact)
        assert len(calls) == 1
        # a value 3e-51 (relative) from a tie is decided by the bounds alone
        query = (3, 0.11154869887122325, 3.2891323289806945e-51)
        assert lln_tail(*query) == float(lln_tail_exact(*query))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "query", [(923, 0.4342227299325477, 0.3717933555623072), (774, 0.2311, 0.8194)]
    )
    def test_far_tail_needs_no_rational(self, query, monkeypatch):
        # on one side of the mode every index lies in the rest, so what that
        # walk leaves unwalked must widen the rest's bound only; on the
        # tail's it would blur these tiny tails into the fallback
        exact = float(lln_tail_exact(*query))

        def no_fallback(*args):
            raise AssertionError("the bounds did not decide the rounding")

        monkeypatch.setattr(lln, "lln_tail_exact", no_fallback)
        assert lln_tail(*query) == exact

    def test_every_index_but_none_is_certain(self):
        # k / 10^5 never equals the float 0.3, so every index deviates
        assert lln_tail(100_000, 1e-300, 0.3) == 1.0

    def test_tiny_chance_far_tail_is_zero(self):
        # p = 1e-300 has a 1049-bit denominator; the tail k >= 101 is far
        # below the smallest subnormal
        assert lln_tail(1000, 0.1, 1e-300) == 0.0


class TestLimitScan:
    def test_textbook_scan(self):
        report = lln_limit_scan(0.5, 0.1, (10, 100, 1000))
        assert all(v > 0 for v in report.values)
        assert report.strictly_decreasing
        assert report.values[-1] < 0.01

    def test_single_element(self):
        report = lln_limit_scan(0.5, 0.1, (1000,), threshold=1e-3)
        assert report.converged
        assert report.final_is_minimum

    def test_huge_delta_all_zero(self):
        report = lln_limit_scan(0.5, 0.9, (10, 100))
        assert report.values == (0.0, 0.0)
        assert report.converged

    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            lln_limit_scan(0.5, 0.1, (100, 10))

    def test_default_threshold(self):
        report = lln_limit_scan(0.5, 0.1, (10, 100))
        assert report.threshold == DEFAULT_SCAN_THRESHOLD


class TestFrequencyAudit:
    def test_certain_outcome(self):
        audit = frequency_audit([0, 0, 0, 0], [1.0, 0.0])
        row = audit.rows[0]
        assert row.deviation == 0.0
        assert row.surprise == 0.0

    def test_adversarial_sequence(self):
        audit = frequency_audit([0] * 100, [0.5, 0.5])
        assert audit.rows[0].surprise < 1e-20

    def test_balanced_sequence_unsurprising(self):
        audit = frequency_audit([0, 1] * 50, [0.5, 0.5])
        assert audit.rows[0].deviation == 0.0
        assert audit.rows[0].surprise > 0.9

    def test_surprise_is_strict_tail(self):
        # 6 of 10 against weight 0.3: deviations strictly larger than the
        # observed one are K >= 7, so the observed count is excluded
        audit = frequency_audit([1] * 6 + [0] * 4, [0.7, 0.3])
        row = audit.rows[1]
        assert row.deviation == 0.6 - 0.3
        assert row.surprise == float(fraction_tail(10, Fraction(6, 10) - Fraction(0.3), 0.3))
        assert row.surprise == pytest.approx(0.0106, abs=5e-5)
        p = Fraction(0.3)
        at_least_7 = sum(math.comb(10, k) * p**k * (1 - p) ** (10 - k) for k in range(7, 11))
        assert row.surprise == float(at_least_7)

    def test_outcome_outside_table(self):
        with pytest.raises(IndexError):
            frequency_audit([0, 2], [0.5, 0.5])

    def test_collapse_ensemble_audit(self):
        # stochastic-reduction outcomes audited against the state's weights:
        # nothing should look rarer than a 3-sigma fluctuation
        import numpy as np

        from bornlab.collapse import CollapseModel, ensemble_outcomes
        from bornlab.hilbert import StateVector
        from bornlab.lln import lln_tail

        model = CollapseModel(np.zeros((2, 2)), [np.diag([1.0, -1.0])], gamma=1.0)
        psi0 = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
        report = ensemble_outcomes(
            model, psi0, 800, t_max=30.0, dt=1e-3, seed=4321
        )
        assert all(o >= 0 for o in report.outcomes)
        weights = [row.born for row in report.rows]
        audit = frequency_audit(report.outcomes, weights)
        for row in audit.rows:
            three_sigma = 3.0 * (row.weight * (1 - row.weight) / audit.n) ** 0.5
            floor = lln_tail(audit.n, three_sigma, row.weight)
            assert row.surprise >= floor

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            frequency_audit([0], [0.5, 0.4])

    def test_weight_sum_tolerance(self):
        assert frequency_audit([0, 1], [0.5, 0.5 + WEIGHT_SUM_TOL / 2]).n == 2
        with pytest.raises(PreconditionError, match="probability table"):
            frequency_audit([0, 1], [0.5, 0.5 + 2 * WEIGHT_SUM_TOL])


class TestTrialBounds:
    def test_trial_count_bounded(self):
        LlnQuery(MAX_TRIALS, 0.1, 0.5)
        with pytest.raises(PreconditionError, match="count n"):
            LlnQuery(MAX_TRIALS + 1, 0.1, 0.5)
        with pytest.raises(PreconditionError, match="'ns'"):
            lln_limit_scan(0.5, 0.1, [10, MAX_TRIALS + 1])

    @pytest.mark.parametrize(
        "outcomes, weights, error",
        [
            ([0, 2], [0.5, 0.5], OutcomeIndexError),
            ([0], [0.5, 0.4], PreconditionError),
            ([0], [float("nan"), 0.5], PreconditionError),
            ([], [0.5, 0.5], PreconditionError),
            ([0] * (MAX_TRIALS + 1), [1.0], PreconditionError),
        ],
    )
    def test_audit_errors_are_library_errors(self, outcomes, weights, error):
        with pytest.raises(error) as err:
            frequency_audit(outcomes, weights)
        assert isinstance(err.value, BornLabError)

    def test_audit_weight_count_bounded_before_any_tail(self, monkeypatch):
        at_bound = frequency_audit([0, 1], [0.5, 0.5] + [0.0] * (MAX_AUDIT_WEIGHTS - 2))
        assert len(at_bound.rows) == MAX_AUDIT_WEIGHTS

        def no_tail(*args):
            raise AssertionError("a tail ran before the weight count was checked")

        monkeypatch.setattr(lln, "lln_tail", no_tail)
        with pytest.raises(PreconditionError, match=f"at most {MAX_AUDIT_WEIGHTS}"):
            frequency_audit([0, 1], [0.5, 0.5] + [0.0] * (MAX_AUDIT_WEIGHTS - 1))
