"""Exact linear-constraint solving over the rationals.

Gaussian elimination over the integers with constraint provenance.  Each
row of [A | b] is scaled to integers once; elimination then
cross-multiplies rows (fraction-free, after Bareiss, Math. Comp. 22, 1968),
touching only the pivot row's nonzero columns and dividing each updated row
by its gcd.  The forward pass clears each pivot column from the rows below
the pivot only, so a chain of equalities x_a - x_b = 0 is not rewritten at
every later pivot; once the system is known feasible, back substitution
clears the pivot columns bottom-up from the rows above.  Every working row
stays a nonzero multiple of the row that rational elimination would hold,
so pivots, rank and zero tests are exact, the reduced rows are multiples of
the reduced row echelon form, and rationals are formed only when those rows
are read out.  Every working row remembers which original constraints the
forward pass combined into it, so an infeasible system can name a
conflicting subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InconsistentSystemError, PreconditionError


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of solving A x = b exactly.

    ``status`` is one of ``unique``, ``underdetermined``, ``infeasible``.
    For unique systems ``solution`` holds the values; otherwise
    ``solution`` is one particular solution (when feasible) and
    ``nullspace`` spans the solution space's direction vectors.
    """

    status: str
    rank: int
    n_unknowns: int
    solution: tuple[Fraction, ...] | None = None
    nullspace: tuple[tuple[Fraction, ...], ...] = ()
    conflict: tuple[str, ...] = ()

    @property
    def freedom(self) -> int:
        return len(self.nullspace)


def _integer_row(row: Sequence, rhs) -> dict[int, int]:
    """Nonzero entries of one row of [A | b], scaled to coprime integers.

    The right-hand side sits at column ``len(row)``.  Only entries that
    differ from 0 are read, and those that are neither int nor Fraction are
    converted; a value that is not a number, such as None or NaN, differs
    from 0 and fails its conversion.  An int has denominator 1.
    """
    entries = {
        j: x if type(x) in (int, Fraction) else Fraction(x)
        for j, x in enumerate([*row, rhs])
        if x != 0
    }
    scale = math.lcm(*(x.denominator for x in entries.values()))
    ints = {j: x.numerator * (scale // x.denominator) for j, x in entries.items() if x}
    return _primitive(ints)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    content = math.gcd(*row.values())
    if content > 1:
        for j in row:
            row[j] //= content
    return row


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> None:
    """row <- (pivot * row - row[col] * prow) / g, clearing column ``col``."""
    pivot = prow[col]
    g = math.gcd(pivot, row[col])
    keep, take = pivot // g, row[col] // g
    if keep != 1:
        for j in row:
            row[j] *= keep
    for j, x in prow.items():
        y = row.get(j, 0) - take * x
        if y:
            row[j] = y
        else:
            row.pop(j, None)
    _primitive(row)


def solve_exact(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    labels: Sequence[str] | None = None,
) -> LinearSolveResult:
    """Row-reduce [A | b] over Q and classify the system.

    ``labels`` name the constraints for conflict reporting; defaults to
    row indices.
    """
    m = len(rows)
    if m == 0:
        raise PreconditionError("no constraints given")
    n = len(rows[0])
    # sparse integer rows; column n holds the right-hand side
    work = [_integer_row(row, rhs[i]) for i, row in enumerate(rows)]
    # bit i set: original row i was combined into this working row
    provenance = [1 << i for i in range(m)]

    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(n):
        sel = None
        for r in range(pivot_row, m):
            if col in work[r]:
                sel = r
                break
        if sel is None:
            continue
        work[pivot_row], work[sel] = work[sel], work[pivot_row]
        provenance[pivot_row], provenance[sel] = provenance[sel], provenance[pivot_row]
        prow = work[pivot_row]
        for r in range(pivot_row + 1, m):
            if col in work[r]:
                _eliminate(work[r], prow, col)
                provenance[r] |= provenance[pivot_row]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == m:
            break

    rank = len(pivot_cols)
    for r in range(rank, m):
        if n in work[r]:
            if labels is None:
                labels = [f"row{i}" for i in range(m)]
            bits = provenance[r]
            return LinearSolveResult(
                status="infeasible",
                rank=rank,
                n_unknowns=n,
                conflict=tuple(sorted({labels[i] for i in range(m) if bits >> i & 1})),
            )

    # back substitution, bottom-up: row r is already reduced against every
    # later pivot when it clears its own pivot column from the rows above
    for r in range(rank - 1, 0, -1):
        col = pivot_cols[r]
        for above in range(r):
            if col in work[above]:
                _eliminate(work[above], work[r], col)

    # reduced row r reads x[pivot_cols[r]] + sum(row[j] x[j]) / pivot = rhs / pivot
    free_cols = [c for c in range(n) if c not in pivot_cols]
    particular = [Fraction(0)] * n
    for r, col in enumerate(pivot_cols):
        particular[col] = Fraction(work[r].get(n, 0), work[r][col])
    if not free_cols:
        return LinearSolveResult(
            status="unique", rank=rank, n_unknowns=n, solution=tuple(particular)
        )
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, col in enumerate(pivot_cols):
            vec[col] = -Fraction(work[r].get(free, 0), work[r][col])
        basis.append(tuple(vec))
    return LinearSolveResult(
        status="underdetermined",
        rank=rank,
        n_unknowns=n,
        solution=tuple(particular),
        nullspace=tuple(basis),
    )


def require_feasible(result: LinearSolveResult, context: str) -> LinearSolveResult:
    if result.status == "infeasible":
        raise InconsistentSystemError(
            f"{context}: constraints {', '.join(result.conflict)} conflict",
            conflict=result.conflict,
        )
    return result
