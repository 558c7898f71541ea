"""Coarse-graining derivation laboratory.

Executable versions of the symmetry constructions that force probability
weights on a grained configuration space: phase elimination, the
equiprobable case, integer-weight states (each block cut into equal-mass
pieces), the continuity limit to arbitrary states, and a linear-constraint
solver that decides whether a graining family pins the weight table
uniquely.

Masses are exact rationals, so every rank or equality decision is exact;
floating point only enters at the boundary (amplitudes, reported values).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    InvalidGrainingError,
    InvalidStateError,
    PreconditionError,
    ResolutionError,
)
from .exactlin import LinearSolveResult, require_feasible, solve_exact
from .hilbert import (
    DERIVED_TOL,
    CoarseGraining,
    GrainingFamily,
    MeasureTable,
    Projector,
    SeparatingSet,
    StateVector,
    born_weight,
)
from .trace import DerivationTrace

DEFAULT_SUBDIVISION_CAP = 2**40
DEFAULT_DENOMINATOR_CAP = 10**6
MAX_TOTAL_WEIGHT = 10**4  # rational derivations cut sum(weights) equal-mass pieces
MAX_RATIONAL_CELLS = 10**4  # cells of a rational state's grid, sum(block sizes)
# first denominator cap of the continuity-limit sweep
START_DENOMINATOR = 64


# ---------------------------------------------------------------------------
# mass profiles and rational states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MassProfile:
    """Per-cell nonnegative masses (|amplitude|^2, cell volume included), as
    Fractions; a float mass converts exactly (base 2)."""

    masses: tuple[Fraction, ...]

    def __init__(self, masses):
        masses = tuple(m if type(m) is Fraction else Fraction(m) for m in masses)
        if not masses:
            raise InvalidStateError("mass profile needs at least one cell")
        # a Fraction's denominator is positive, so its numerator carries the sign
        if any(m.numerator < 0 for m in masses):
            raise InvalidStateError("masses must be nonnegative")
        if not any(m.numerator for m in masses):
            raise InvalidStateError("total mass must be positive")
        object.__setattr__(self, "masses", masses)

    @property
    def dim(self) -> int:
        return len(self.masses)

    @property
    def total(self):
        return sum(self.masses)

    def block_mass(self, start: int, stop: int):
        return sum(self.masses[start:stop])


@dataclass(frozen=True)
class RationalState:
    """A state whose block masses are proportional to integers.

    ``weights[k]`` is the integer mass carried by block ``k`` of the
    graining; ``profiles[k]`` optionally shapes how that mass spreads over
    the block's cells (rational, summing to 1; default uniform).
    """

    weights: tuple[int, ...]
    graining: CoarseGraining
    profiles: tuple[tuple[Fraction, ...], ...]

    def __init__(self, weights, graining: CoarseGraining, profiles=None):
        weights = tuple(int(w) for w in weights)
        if len(weights) != graining.n_blocks:
            raise DimensionMismatchError("one weight per block required")
        if any(w < 0 for w in weights):
            raise InvalidStateError("weights must be nonnegative integers")
        if not any(w > 0 for w in weights):
            raise InvalidStateError("at least one weight must be positive")
        if sum(weights) > MAX_TOTAL_WEIGHT:
            raise PreconditionError(f"'weights' sum beyond MAX_TOTAL_WEIGHT = {MAX_TOTAL_WEIGHT}")
        if graining.dim > MAX_RATIONAL_CELLS:
            raise PreconditionError(
                f"the grid's {graining.dim} cells (the sum of 'block_sizes') exceed "
                f"MAX_RATIONAL_CELLS = {MAX_RATIONAL_CELLS}"
            )
        if profiles is None:
            profiles = tuple(
                tuple(Fraction(1, stop - start) for _ in range(start, stop))
                for start, stop in graining.blocks
            )
        else:
            profiles = tuple(tuple(Fraction(p) for p in prof) for prof in profiles)
            for prof, (start, stop) in zip(profiles, graining.blocks):
                if len(prof) != stop - start:
                    raise DimensionMismatchError("profile length must match block size")
                if any(p < 0 for p in prof):
                    raise InvalidStateError("profile entries must be nonnegative")
                if sum(prof) != 1:
                    raise InvalidStateError("each block profile must sum to 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "graining", graining)
        object.__setattr__(self, "profiles", profiles)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def cell_masses(self) -> MassProfile:
        masses = []
        for weight, prof in zip(self.weights, self.profiles):
            masses.extend(Fraction(weight) * p for p in prof)
        return MassProfile(masses)

    def to_state(self) -> StateVector:
        return StateVector([math.sqrt(float(m)) for m in self.cell_masses().masses])


# ---------------------------------------------------------------------------
# equal-mass cuts and regridding
# ---------------------------------------------------------------------------


def _exact_cuts(masses, start, stop, m) -> list[Fraction]:
    """Cut positions (Fractions, original cell coordinates) splitting the
    rational masses[start:stop], of positive total, into m equal-mass runs.

    Each cell's mass spreads uniformly across the cell.  Every target j/m
    (j < m) of the block mass is reached by the block's last cell with mass
    at the latest, so the walk never leaves the block.
    """
    total = sum(masses[start:stop])
    cuts = []
    cum = Fraction(0)
    cell = start
    for j in range(1, m):
        target = total * j / m
        while cum + masses[cell] < target or masses[cell] == 0:
            cum += masses[cell]
            cell += 1
        cuts.append(cell + (target - cum) / masses[cell])
    return cuts


def _subdivision(cuts, what: str) -> int:
    """Sub-cells per cell that put every cut on a sub-cell boundary: the lcm
    of the cut denominators.

    Raises :class:`ResolutionError` when it exceeds ``DEFAULT_SUBDIVISION_CAP``.
    """
    denom = math.lcm(*(c.denominator for c in cuts))
    if denom > DEFAULT_SUBDIVISION_CAP:
        raise ResolutionError(
            f"{what} needs {denom} sub-cells per cell ({(denom - 1).bit_length()} "
            f"halving steps; cap {DEFAULT_SUBDIVISION_CAP})",
            required_subcells=denom,
        )
    return denom


@dataclass(frozen=True)
class EqualMassGrid:
    """A regrid of a rational profile into cells of one common mass.

    Cell ``i`` of the original grid becomes ``counts[i]`` new cells, each
    carrying the profile's mass quantum (the gcd of the cell masses).  The
    new grid is the desk-scale stand-in for refining until every cell is
    interchangeable, which is what makes permutation constraints dense
    enough to pin a weight table.
    """

    profile: MassProfile
    quantum: Fraction
    counts: tuple[int, ...]
    offsets: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.offsets[-1]

    def map_block(self, block: tuple[int, int]) -> tuple[int, int]:
        a, b = block
        return (self.offsets[a], self.offsets[b])

    def map_graining(self, graining: CoarseGraining) -> CoarseGraining:
        return CoarseGraining(self.dim, [self.map_block(b) for b in graining.blocks])

    def unit_graining(self) -> CoarseGraining:
        return CoarseGraining.unit_cells(self.dim)


def equal_mass_grid(profile: MassProfile) -> EqualMassGrid:
    """Regrid a strictly positive rational profile into equal-mass cells."""
    masses = profile.masses
    if any(m <= 0 for m in masses):
        raise PreconditionError("equal-mass regridding needs strictly positive masses")
    denom = math.lcm(*(m.denominator for m in masses))
    numerators = [int(m * denom) for m in masses]
    g = math.gcd(*numerators)
    quantum = Fraction(g, denom)
    counts = tuple(a // g for a in numerators)
    offsets = [0]
    for c in counts:
        offsets.append(offsets[-1] + c)
    refined = MassProfile([quantum] * offsets[-1])
    return EqualMassGrid(
        profile=refined, quantum=quantum, counts=counts, offsets=tuple(offsets)
    )


# ---------------------------------------------------------------------------
# equiprobable case
# ---------------------------------------------------------------------------


def _component_coefficients(psi: StateVector, separating: SeparatingSet):
    coeffs = [
        complex(np.vdot(vec.amplitudes, psi.amplitudes)) for vec in separating.vectors
    ]
    residual = psi.amplitudes.copy()
    for c, vec in zip(coeffs, separating.vectors):
        residual = residual - c * vec.amplitudes
    if np.linalg.norm(residual) > DERIVED_TOL * math.sqrt(psi.norm2):
        raise PreconditionError(
            "state has components outside the separating family's span"
        )
    return coeffs


def equiprobable_values(
    psi: StateVector, separating: SeparatingSet
) -> tuple[MeasureTable, DerivationTrace]:
    """Weight table forced for a state with equal-modulus coefficients.

    Every projector of the separating family, of d >= 2, receives 1/d.  The
    trace replays the forcing argument: phase elimination, permutation
    symmetry, the complement construction, and additivity.

    A one-projector family, or a non-constant modulus, raises
    :class:`PreconditionError`; the latter names the offending pair.
    """
    psi.require_nonzero()
    d = separating.size
    if d < 2:
        raise PreconditionError(
            f"the equiprobable construction needs at least two projectors, got {d}"
        )
    coeffs = _component_coefficients(psi, separating)
    norm2 = psi.norm2
    moduli = [abs(c) ** 2 / norm2 for c in coeffs]
    for j in range(d):
        for k in range(j + 1, d):
            if abs(moduli[j] - moduli[k]) > DERIVED_TOL:
                raise PreconditionError(
                    f"|c_{j}|^2 = {moduli[j]:.12g} and |c_{k}|^2 = {moduli[k]:.12g} "
                    f"differ; the equiprobable construction needs a constant modulus"
                )

    trace = DerivationTrace()
    table = MeasureTable()

    phases = [float(np.angle(c)) if abs(c) > 0 else 0.0 for c in coeffs]
    s_phase = trace.add(
        "phase-elim",
        "coefficients replaced by their moduli; all weights unchanged",
        premises=("invariance",),
        payload={"phases": phases},
    )

    witnessed = _permutation_witnessed(separating)
    s_perm = trace.add(
        "permutation",
        f"the {d} block weights are pairwise equal",
        premises=("invariance", "degeneracy", s_phase),
        payload={"witness": "constructed" if witnessed else "degeneracy axiom"},
    )
    s_comp = trace.add(
        "complement",
        "the first block extended by the family's complement carries the same "
        "weight, giving d equal projectors that sum to the identity",
        premises=("invariance", s_perm),
    )
    trace.add(
        "additivity",
        f"d equal weights summing to 1 are each 1/{d}",
        premises=("additivity", "normalization", s_comp),
    )

    for proj in separating.projectors:
        table.assign(proj, Fraction(1, d))
    return table, trace


def _permutation_witnessed(separating: SeparatingSet) -> bool:
    """True when a unitary can cycle every block of the family onto the
    next, carrying separating vector onto separating vector; a unitary maps
    a range only onto one of the same rank, so every block needs it."""
    return len({proj.rank for proj in separating.projectors}) == 1


# ---------------------------------------------------------------------------
# rational weights
# ---------------------------------------------------------------------------


def rational_born_values(rational: RationalState) -> tuple[MeasureTable, DerivationTrace]:
    """Weight table forced for integer-weight states: m_j / sum(m_k).

    Each block with weight m_k is cut into m_k equal-mass pieces by
    :func:`_exact_cuts`, on one grid subdivided by the lcm of every cut's
    denominator; the equiprobable argument runs on the
    sum(m_k) pieces, and additivity reassembles the block weights.  Exact
    rational arithmetic throughout.

    Raises :class:`ResolutionError` when that subdivision exceeds
    ``DEFAULT_SUBDIVISION_CAP``.
    """
    graining = rational.graining
    weights = rational.weights
    total = rational.total_weight
    masses = rational.cell_masses().masses
    cuts = [
        cut
        for k, weight in enumerate(weights)
        if weight
        for cut in _exact_cuts(masses, *graining.blocks[k], weight)
    ]
    L = _subdivision(cuts, "equal-mass refinement")

    trace = DerivationTrace()
    s_refine = trace.add(
        "refinement",
        f"each weight-m block split into m equal-mass pieces "
        f"({total} pieces total, subdivision {L})",
        premises=("stability",),
        payload={"subdivision": L, "weights": list(weights)},
    )
    s_phase = trace.add(
        "phase-elim",
        "piece coefficients replaced by moduli",
        premises=("invariance",),
    )
    s_perm = trace.add(
        "permutation",
        f"all {total} equal-mass pieces are pairwise equiprobable",
        premises=("invariance", "degeneracy", s_phase, s_refine),
    )
    s_equal = trace.add(
        "additivity",
        f"each piece carries weight 1/{total}",
        premises=("additivity", "normalization", s_perm),
    )

    table = MeasureTable()
    for k, weight in enumerate(weights):
        table.assign(graining.block_projector(k), Fraction(weight, total))
    trace.add(
        "additivity",
        "block weights reassemble as (pieces in block)/(total pieces)",
        premises=("additivity", "stability", s_equal),
        payload={
            "weights": {str(k): f"{weights[k]}/{total}" for k in range(len(weights))}
        },
    )
    return table, trace


# ---------------------------------------------------------------------------
# continuity limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Approximant:
    denominator_cap: int
    weights: tuple[int, int]
    value: Fraction
    value_error: float
    state_error: float


@dataclass(frozen=True)
class BornLimitResult:
    value: float
    record: tuple[Approximant, ...]
    converged: bool


def born_limit(psi: StateVector, proj: Projector, tol: float) -> BornLimitResult:
    """Approach an arbitrary state through integer-weight states.

    Builds a sequence of two-weight rational states separating ``proj``
    and its complement, converging to ``psi`` in norm; the weight of
    ``proj`` under each approximant is its rational weight ratio.  The
    recorded value-error sequence is non-increasing after the first term
    (each sweep step takes the best rational below the denominator cap).

    Raises :class:`ConvergenceFailureError` when the cap is reached before
    ``tol``.
    """
    if tol <= 0:
        raise PreconditionError("tolerance must be positive")
    psi.require_nonzero()
    target = born_weight(psi, proj)
    exact_target = Fraction(target)
    record: list[Approximant] = []
    cap = START_DENOMINATOR
    while True:
        best = exact_target.limit_denominator(cap)
        m1 = best.numerator
        m2 = best.denominator - best.numerator
        value_error = float(abs(best - exact_target))
        state_error = math.sqrt(
            (math.sqrt(float(best)) - math.sqrt(target)) ** 2
            + (math.sqrt(float(1 - best)) - math.sqrt(1.0 - target)) ** 2
        )
        record.append(
            Approximant(
                denominator_cap=cap,
                weights=(m1, m2),
                value=best,
                value_error=value_error,
                state_error=state_error,
            )
        )
        if value_error < tol:
            return BornLimitResult(
                value=float(best), record=tuple(record), converged=True
            )
        if cap >= DEFAULT_DENOMINATOR_CAP:
            raise ConvergenceFailureError(
                f"no rational approximant below denominator {DEFAULT_DENOMINATOR_CAP} "
                f"reaches tolerance {tol}",
                record=tuple(record),
            )
        cap = min(DEFAULT_DENOMINATOR_CAP, cap * 2)


# ---------------------------------------------------------------------------
# uniqueness solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniquenessResult:
    """Outcome of the weight-uniqueness linear solve.

    ``status`` is ``unique`` or ``underdetermined``.  For unique systems
    ``table`` holds the solved weights (exact rationals), and
    ``matches_weights`` says whether each is its block's share of the
    total mass, the Born weight.  Otherwise ``freedom`` gives the
    solution-space dimension and ``witnesses`` two distinct valid tables.
    ``nonzeros`` counts the nonzero coefficients of the constraint matrix.
    """

    status: str
    rank: int
    n_unknowns: int
    unknown_keys: tuple
    table: MeasureTable | None = None
    matches_weights: bool = False
    freedom: int = 0
    witnesses: tuple[MeasureTable, MeasureTable] | None = None
    constraint_count: int = 0
    nonzeros: int = 0

    @property
    def unique(self) -> bool:
        return self.status == "unique"


def _integer_masses(masses) -> list[int]:
    """Rational masses (ints or Fractions) scaled by their common
    denominator: integers in the same ratios."""
    scale = math.lcm(*(m.denominator for m in masses))
    return [m.numerator * (scale // m.denominator) for m in masses]


def _shares_match(values, parts, total: int) -> bool:
    """True when every value equals its integer part over ``total``,
    tested as numerator * total == denominator * part."""
    for value, part in zip(values, parts):
        num, den = value.as_integer_ratio()
        if num * total != den * part:
            return False
    return True


def table_matches_weights(table: MeasureTable, projectors, weights) -> bool:
    """True when the table gives each projector its weight's share of the
    total weight; ``weights`` are nonnegative rationals (ints or Fractions),
    one per projector, and the test runs in integers."""
    parts = _integer_masses(weights)
    return _shares_match((table.value(proj) for proj in projectors), parts, sum(parts))


def measure_uniqueness_solve(profile: MassProfile, family: GrainingFamily) -> UniquenessResult:
    """Decide whether additivity, invariance, and stability pin the weights.

    Unknowns are the block projectors across the family, identified across
    grainings by their cell ranges (stability).  Constraints: equality of
    blocks related by a mass-profile-preserving cell permutation (the
    constructible invariance unitaries), block-vs-refinement additivity for
    every refining pair, and per-graining normalization.  The system is
    assembled and solved in exact rational arithmetic.

    The sparse rows come first so that forward elimination does not carry
    the dense normalization rows through every equality chain.  The system
    is always feasible (the Born weights solve it), and the pivot columns
    and reduced rows of a feasible system depend only on its row space, so
    the order changes no result.
    """
    if not family.members:
        raise InvalidGrainingError("the graining family has no members")
    if family.members[0].dim != profile.dim:
        raise DimensionMismatchError("profile and family disagree on grid size")
    parts = _integer_masses(profile.masses)
    prefix = list(itertools.accumulate(parts, initial=0))

    keys = list(dict.fromkeys(block for g in family.members for block in g.blocks))
    index = {block: i for i, block in enumerate(keys)}
    rows: list[list[int]] = []
    rhs: list[int] = []
    labels: list[str] = []
    nonzeros = 0

    def add_row(terms, value: int, label: str) -> None:
        nonlocal nonzeros
        row = [0] * len(keys)
        for block, coeff in terms:
            row[index[block]] = coeff
        rows.append(row)
        rhs.append(value)
        labels.append(label)
        nonzeros += len(terms)  # the blocks of one row are distinct

    for gi, graining in enumerate(family.members):
        # invariance: blocks whose mass profiles match as multisets swap
        # under a cell permutation preserving the (phase-stripped) state;
        # a chain of equalities per matching group spans all the pairs
        groups: dict = {}
        for i, (a, b) in enumerate(graining.blocks):
            groups.setdefault(tuple(sorted(parts[a:b])), []).append(i)
        for members in groups.values():
            for i, j in zip(members, members[1:]):
                terms = ((graining.blocks[i], 1), (graining.blocks[j], -1))
                add_row(terms, 0, f"invar[g{gi}]:{i}~{j}")

    for gi, coarse in enumerate(family.members):
        for gj, fine in enumerate(family.members):
            if gi == gj or not fine.refines(coarse):
                continue
            for block in coarse.blocks:
                b_start, b_stop = block
                inner = [
                    blk
                    for blk in fine.blocks
                    if b_start <= blk[0] and blk[1] <= b_stop
                ]
                if inner == [block]:
                    continue
                terms = [(block, 1)] + [(blk, -1) for blk in inner]
                add_row(terms, 0, f"refine[g{gi}<g{gj}]:{b_start}-{b_stop}")

    for gi, graining in enumerate(family.members):
        add_row([(b, 1) for b in graining.blocks], 1, f"norm[g{gi}]")

    result: LinearSolveResult = solve_exact(rows, rhs, labels)
    require_feasible(result, "weight-uniqueness system")
    dim0 = family.members[0].dim
    shape = {
        "rank": result.rank,
        "n_unknowns": result.n_unknowns,
        "unknown_keys": tuple(keys),
        "constraint_count": len(rows),
        "nonzeros": nonzeros,
    }

    if result.status == "unique":
        table = MeasureTable()
        for key, value in zip(keys, result.solution):
            table.assign(Projector(dim0, (key,)), value)
        born = _shares_match(
            result.solution, (prefix[b] - prefix[a] for a, b in keys), prefix[-1]
        )
        return UniquenessResult(status="unique", table=table, matches_weights=born, **shape)

    # underdetermined: exhibit two distinct valid tables.  The first is the
    # reference additive solution; the second steps halfway to [0, 1]'s edge
    # along a nullspace direction, or, when the reference already sits on
    # that edge, gives each block its share of cells (matched blocks have
    # equal cell counts, so every row holds)
    reference = [Fraction(prefix[b] - prefix[a], prefix[-1]) for a, b in keys]
    direction = result.nullspace[0]
    t_limit = min(
        (1 - ref) / step if step > 0 else ref / -step
        for ref, step in zip(reference, direction)
        if step
    )
    if t_limit > 0:
        alt = [ref + t_limit / 2 * step for ref, step in zip(reference, direction)]
    else:
        alt = [Fraction(b - a, dim0) for a, b in keys]
    table_a, table_b = MeasureTable(), MeasureTable()
    for key, va, vb in zip(keys, reference, alt):
        proj = Projector(dim0, (key,))
        table_a.assign(proj, va)
        table_b.assign(proj, vb)
    return UniquenessResult(
        status="underdetermined",
        freedom=result.freedom,
        witnesses=(table_a, table_b),
        **shape,
    )
