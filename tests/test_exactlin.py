from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab.errors import InconsistentSystemError
from bornlab.exactlin import LinearSolveResult, require_feasible, solve_exact


def dense_solve_exact(rows, rhs, labels=None) -> LinearSolveResult:
    # oracle: dense Gauss-Jordan on Fraction rows, normalising each pivot
    # row to 1, with the same pivot choice and provenance bookkeeping
    m = len(rows)
    n = len(rows[0])
    if labels is None:
        labels = [f"row{i}" for i in range(m)]
    work = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    provenance = [{labels[i]} for i in range(m)]
    pivot_cols = []
    pivot_row = 0
    for col in range(n):
        sel = next((r for r in range(pivot_row, m) if work[r][col] != 0), None)
        if sel is None:
            continue
        work[pivot_row], work[sel] = work[sel], work[pivot_row]
        provenance[pivot_row], provenance[sel] = provenance[sel], provenance[pivot_row]
        pivot = work[pivot_row][col]
        work[pivot_row] = [x / pivot for x in work[pivot_row]]
        for r in range(m):
            if r != pivot_row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[pivot_row])]
                provenance[r] = provenance[r] | provenance[pivot_row]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == m:
            break
    rank = len(pivot_cols)
    for r in range(rank, m):
        if work[r][n] != 0:
            return LinearSolveResult(
                status="infeasible", rank=rank, n_unknowns=n,
                conflict=tuple(sorted(provenance[r])),
            )
    free_cols = [c for c in range(n) if c not in pivot_cols]
    particular = [Fraction(0)] * n
    for r, col in enumerate(pivot_cols):
        particular[col] = work[r][n]
    if not free_cols:
        return LinearSolveResult(
            status="unique", rank=rank, n_unknowns=n, solution=tuple(particular)
        )
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, col in enumerate(pivot_cols):
            vec[col] = -work[r][free]
        basis.append(tuple(vec))
    return LinearSolveResult(
        status="underdetermined", rank=rank, n_unknowns=n,
        solution=tuple(particular), nullspace=tuple(basis),
    )


# small rationals, ints and bools with plenty of zeros, so rank deficiency
# and conflicts come up often
entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)),
    st.integers(-6, 6),
    st.booleans(),
)


@st.composite
def systems(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(entries, min_size=m, max_size=m))
    # a scaled copy of a row with a shifted right-hand side makes the
    # system infeasible; a plain copy adds a redundant constraint
    if m > 1 and draw(st.booleans()):
        src, dst = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        scale = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 5)]))
        shift = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 3)]))
        if src != dst:
            rows[dst] = [scale * x for x in rows[src]]
            rhs[dst] = scale * rhs[src] + shift
    return rows, rhs


@st.composite
def measure_systems(draw):
    # the shape measure_uniqueness_solve builds: one dense normalisation
    # row, chains of equalities x_a - x_b = 0 over shuffled columns and
    # block sums x_a - x_b - ... = 0, all in ints; a perturbed right-hand
    # side turns a dependent row into a conflict
    n = draw(st.integers(2, 12))
    cols = draw(st.permutations(range(n)))
    rows, rhs = [[1] * n], [1]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3)))
    for group in (cols[a:b] for a, b in zip([0, *cuts], [*cuts, n])):
        for a, b in zip(group, group[1:]):
            row = [0] * n
            row[a], row[b] = 1, -1
            rows.append(row)
            rhs.append(0)
    for _ in range(draw(st.integers(0, 3))):
        whole, *parts = draw(st.lists(st.sampled_from(cols), min_size=2, max_size=4, unique=True))
        row = [0] * n
        row[whole] = 1
        for part in parts:
            row[part] = -1
        rows.append(row)
        rhs.append(0)
    if draw(st.booleans()):
        rhs[draw(st.integers(0, len(rows) - 1))] += draw(st.sampled_from([1, -1, Fraction(1, 2)]))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], [rhs[i] for i in order]


class TestSolveExact:
    @given(systems())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_fraction_oracle(self, system):
        rows, rhs = system
        labels = [f"c{i}" for i in range(len(rows))]
        assert solve_exact(rows, rhs, labels) == dense_solve_exact(rows, rhs, labels)

    @given(measure_systems())
    @settings(max_examples=300, deadline=None)
    def test_measure_shaped_systems_match_dense_oracle(self, system):
        rows, rhs = system
        labels = [f"c{i}" for i in range(len(rows))]
        assert solve_exact(rows, rhs, labels) == dense_solve_exact(rows, rhs, labels)

    def test_conflicting_rows_sharing_a_label_name_it_once(self):
        rows = [[1, 0], [0, 1], [1, 0]]
        rhs, labels = [1, 2, 3], ["a", "b", "a"]
        result = solve_exact(rows, rhs, labels)
        assert result == dense_solve_exact(rows, rhs, labels)
        assert result.conflict == ("a",)

    @given(systems())
    @settings(max_examples=100, deadline=None)
    def test_solutions_satisfy_the_system(self, system):
        rows, rhs = system
        result = solve_exact(rows, rhs)
        if result.status == "infeasible":
            return
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, result.solution)) == b
            for vec in result.nullspace:
                assert sum(a * x for a, x in zip(row, vec)) == 0

    def test_unique(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        result = solve_exact(rows, [Fraction(1), Fraction(1, 3)])
        assert result.status == "unique"
        assert result.solution == (Fraction(2, 3), Fraction(1, 3))

    def test_underdetermined_nullspace(self):
        result = solve_exact([[Fraction(2), Fraction(4), Fraction(0)]], [Fraction(1)])
        assert result.status == "underdetermined"
        assert result.rank == 1
        assert result.solution == (Fraction(1, 2), Fraction(0), Fraction(0))
        assert result.nullspace == (
            (Fraction(-2), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )

    def test_infeasible_names_conflict(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        result = solve_exact(rows, [Fraction(1), Fraction(2), Fraction(3)], ["a", "b", "c"])
        assert result.status == "infeasible"
        assert result.conflict == ("a", "c")
        with pytest.raises(InconsistentSystemError):
            require_feasible(result, "test system")

    def test_floats_are_exact_binary_rationals(self):
        result = solve_exact([[0.1, 0.0], [0.0, 3]], [0.3, 1])
        assert result.solution == (Fraction(0.3) / Fraction(0.1), Fraction(1, 3))

    @pytest.mark.parametrize("bad", [None, "", float("nan")])
    def test_entries_that_are_not_numbers_fail(self, bad):
        with pytest.raises((TypeError, ValueError)):
            solve_exact([[1, bad]], [0])
        with pytest.raises((TypeError, ValueError)):
            solve_exact([[1, 0]], [bad])

    def test_no_constraints(self):
        with pytest.raises(ValueError):
            solve_exact([], [])
