"""Oracles shared by the test modules, kept out of the package.

``em_step`` is the scalar Euler-Maruyama step, one state at a time, that
the batch collapse engine must reproduce row for row.  ``check_additivity``
checks a measure table for additivity over the unions of a
coarse-graining's blocks, which ``block_projectors`` and ``block_union``
build.  ``swap_unitary`` is the dense unitary of a ``games.projector_swap``
pair, built by ``permutation_unitary``, which ``games.transform_game`` must
match by conjugation; ``cell_matrix`` is the dense matrix of a cell
projector that the conjugations compare.  None of them is called by the
package itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from bornlab.collapse import CollapseModel
from bornlab.errors import (
    DimensionMismatchError,
    IncompleteMeasureError,
    IntegrationFailureError,
    PreconditionError,
)
from bornlab.hilbert import (
    DERIVED_TOL,
    CoarseGraining,
    MeasureTable,
    Projector,
    SeparatingSet,
    StateVector,
    SymmetryUnitary,
)

# ``check_additivity`` tests every pair of unions up to this many blocks,
# and only the blocks and the identity above it.
ADDITIVITY_ENUMERATION_LIMIT = 10


# ---------------------------------------------------------------------------
# the scalar collapse step
# ---------------------------------------------------------------------------


def _require_normalized(psi: np.ndarray) -> None:
    norm2 = float(np.real(np.vdot(psi, psi)))
    if abs(norm2 - 1.0) > 1e-9:
        raise PreconditionError(f"state must be normalized; got |psi|^2 = {norm2}")


def drift_diffusion(model: CollapseModel, psi) -> tuple[np.ndarray, list[np.ndarray]]:
    """Drift vector and the K diffusion vectors at a normalized state.

    The k-th diffusion vector is ``(A_k - <A_k>) psi``; the drift is
    ``(-i H - c * sum_k (A_k - <A_k>)^2) psi`` with ``c`` the model's
    damping coefficient.
    """
    if isinstance(psi, StateVector):
        psi = psi.amplitudes
    psi = np.asarray(psi, dtype=complex)
    _require_normalized(psi)
    diffusion = []
    quad = np.zeros_like(psi)
    for a in model.observables:
        apsi = a @ psi
        expect = float(np.real(np.vdot(psi, apsi)))
        rpsi = apsi - expect * psi
        diffusion.append(rpsi)
        quad += a @ rpsi - expect * rpsi
    drift = -1j * (model.hamiltonian @ psi) - model.damping_coefficient * quad
    return drift, diffusion


def em_step(model: CollapseModel, psi, dt: float, noise) -> np.ndarray:
    """One explicit Euler-Maruyama step, renormalized.

    ``noise`` holds one increment per observable; the step is deterministic
    in (psi, dt, noise).  Raises :class:`IntegrationFailureError` on
    overflow or a vanishing norm.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if isinstance(psi, StateVector):
        psi = psi.amplitudes
    psi = np.asarray(psi, dtype=complex)
    values = np.asarray(noise, float)
    if values.shape[0] != model.n_observables:
        raise DimensionMismatchError("one noise component per observable required")
    drift, diffusion = drift_diffusion(model, psi)
    new = psi + drift * dt
    for rpsi, db in zip(diffusion, values):
        new = new + rpsi * db
    norm = float(np.linalg.norm(new))
    if not np.isfinite(norm) or norm == 0.0:
        raise IntegrationFailureError(f"step produced norm {norm}")
    return new / norm


# ---------------------------------------------------------------------------
# additivity over the unions of a graining's blocks
# ---------------------------------------------------------------------------


def block_projectors(graining: CoarseGraining) -> list[Projector]:
    """Projector onto each block, in block order."""
    return [graining.block_projector(i) for i in range(graining.n_blocks)]


def block_union(graining: CoarseGraining, indices) -> Projector:
    """Projector onto the union of the blocks at ``indices``."""
    return Projector.from_cells([graining.blocks[i] for i in indices], graining.dim)


@dataclass(frozen=True)
class AdditivityViolation:
    left: tuple
    right: tuple
    union: tuple
    expected: float
    actual: float

    def __str__(self) -> str:
        return (
            f"mu(P v Q) = {self.actual} but mu(P) + mu(Q) = {self.expected} "
            f"for disjoint P={self.left}, Q={self.right}"
        )


@dataclass(frozen=True)
class AdditivityReport:
    violations: tuple[AdditivityViolation, ...]
    normalization_ok: bool

    @property
    def ok(self) -> bool:
        return self.normalization_ok and not self.violations


def check_additivity(table: MeasureTable, graining: CoarseGraining) -> AdditivityReport:
    """Check pairwise additivity of a measure table on the unions of blocks.

    The table must cover every block of the graining; it is extended
    additively to unions it does not cover.  The report is empty iff
    mu(P v Q) = mu(P) + mu(Q) for all disjoint unions P, Q and mu(I) = 1.
    """
    blocks = block_projectors(graining)
    for block in blocks:
        if not table.covers(block):
            raise IncompleteMeasureError(f"measure undefined on block {block.cells}")

    def union_value(indices: frozenset[int]) -> float:
        proj = block_union(graining, indices)
        if table.covers(proj):
            return float(table.value(proj))
        return float(sum(table.value(blocks[i]) for i in indices))

    n = graining.n_blocks
    violations = []
    subsets: list[frozenset[int]]
    if n <= ADDITIVITY_ENUMERATION_LIMIT:
        subsets = [
            frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n)
        ]
    else:
        # too many unions to enumerate: check the blocks and the identity
        subsets = [frozenset([i]) for i in range(n)]
        subsets.append(frozenset(range(n)))
    for i, left in enumerate(subsets):
        for right in subsets[i + 1 :]:
            if left & right:
                continue
            expected = union_value(left) + union_value(right)
            actual = union_value(left | right)
            if abs(expected - actual) > DERIVED_TOL:
                violations.append(
                    AdditivityViolation(
                        left=tuple(sorted(left)),
                        right=tuple(sorted(right)),
                        union=tuple(sorted(left | right)),
                        expected=expected,
                        actual=actual,
                    )
                )
    total = union_value(frozenset(range(n)))
    normalization_ok = abs(total - 1.0) <= DERIVED_TOL
    return AdditivityReport(tuple(violations), normalization_ok)


# ---------------------------------------------------------------------------
# the dense matrix of a cell projector and the swap unitary
# ---------------------------------------------------------------------------


def cell_matrix(proj: Projector) -> np.ndarray:
    """The dense 0/1 diagonal matrix of a cell projector."""
    diag = np.zeros(proj.dim, dtype=complex)
    diag[list(proj.indices())] = 1.0
    return np.diag(diag)


def _range_basis(separating: SeparatingSet, k: int) -> np.ndarray:
    """Orthonormal basis of ran(P_k) whose first column is vector k.

    Vector k is completed by Gram-Schmidt over the unit cells of P_k.
    """
    proj = separating.projectors[k]
    vec = separating.vectors[k].amplitudes
    cols = [vec]
    for e in np.eye(len(vec), dtype=complex)[sorted(proj.indices())]:
        if len(cols) >= proj.rank:
            break
        for c in cols:
            e = e - np.vdot(c, e) * c
        norm = np.linalg.norm(e)
        if norm > 1e-9:
            cols.append(e / norm)
    return np.array(cols[: proj.rank]).T


def permutation_unitary(permutation: Sequence[int], separating: SeparatingSet) -> SymmetryUnitary:
    """Unitary sending vector ``k`` to vector ``pi(k)`` and conjugating the
    projector family accordingly; the identity outside every range.

    ``permutation[k]`` is the image of index ``k`` (0-based).  Projector
    ranges swapped into each other must have equal dimension.
    """
    n = separating.size
    perm = tuple(int(p) for p in permutation)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    ranks = [proj.rank for proj in separating.projectors]
    for k, target in enumerate(perm):
        if ranks[k] != ranks[target]:
            raise ValueError(f"blocks {k} and {target} have unequal dimension")
    dim = separating.dim
    matrix = np.eye(dim, dtype=complex) - sum(cell_matrix(p) for p in separating.projectors)
    bases = [_range_basis(separating, k) for k in range(n)]
    for k, target in enumerate(perm):
        for col_src, col_dst in zip(bases[k].T, bases[target].T):
            matrix += np.outer(col_dst, col_src.conj())
    return SymmetryUnitary(matrix)


def swap_unitary(state, p1: Projector, p2: Projector) -> np.ndarray:
    """The unitary of a ``projector_swap`` pair: it maps the state's
    normalised component in each range onto the other's, pairs off the
    remaining range directions and fixes everything outside both ranges.
    A component with no weight is replaced by a unit vector of its range.
    """
    state = np.asarray(state, dtype=complex)
    if p1.rank == 0:
        return np.eye(p1.dim, dtype=complex)
    vectors = []
    for proj in (p1, p2):
        comp = proj.apply(state)
        if np.linalg.norm(comp) <= 1e-10 * np.linalg.norm(state):
            comp = np.eye(proj.dim, dtype=complex)[next(proj.indices())]
        vectors.append(comp / np.linalg.norm(comp))
    return permutation_unitary((1, 0), SeparatingSet(vectors, (p1, p2))).matrix
