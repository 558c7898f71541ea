"""Finite-dimensional Hilbert-space kernel.

States, projectors, coarse-grainings of a discretized configuration space,
separating sets, unitaries, measure tables and the Born rule.
Configuration space is modelled as ``d`` grid cells, and a projector is a
set of cells: every projector lies in the lattice that a coarse-graining's
blocks generate.  A family of projectors resolves the identity when its
ranges tile the grid, which ``resolves_identity`` decides exactly.

All types are immutable values after construction and safe to share across
threads.  Tolerances follow a two-level policy: structural identities are
checked at ``STRUCT_TOL`` (1e-12), derived numerical identities at
``DERIVED_TOL`` (1e-10), among them the unitarity of a ``SymmetryUnitary``,
whose matrix was assembled in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    IncompleteMeasureError,
    InvalidGrainingError,
    InvalidStateError,
    UnitarityError,
)

STRUCT_TOL = 1e-12
DERIVED_TOL = 1e-10


def _as_complex_vector(amplitudes) -> np.ndarray:
    arr = np.asarray(amplitudes, dtype=complex).reshape(-1)
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _as_complex_matrix(matrix) -> np.ndarray:
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_k, b_k> for every row k, one BLAS dot each, so a row rounds as its ``np.vdot``."""
    return np.matmul(a.conj()[:, None, :], b[:, :, None])[:, 0, 0]


def row_apply(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix @ row`` for every row, one product each (``rows @ matrix.T`` rounds otherwise)."""
    return (matrix[None] @ rows[:, :, None])[:, :, 0]


def _normalize_ranges(cells: Iterable, dim: int) -> tuple[tuple[int, int], ...]:
    """Canonicalize a cell collection into sorted, merged, disjoint ranges.

    Accepts single indices or ``(start, stop)`` pairs.
    """
    raw: list[tuple[int, int]] = []
    for item in cells:
        if isinstance(item, (tuple, list)) and len(item) == 2:
            start, stop = int(item[0]), int(item[1])
        else:
            idx = int(item)
            start, stop = idx, idx + 1
        if start < 0 or stop > dim:
            raise DimensionMismatchError(
                f"cell range [{start},{stop}) outside grid of {dim} cells"
            )
        if start < stop:
            raw.append((start, stop))
    raw.sort()
    merged: list[tuple[int, int]] = []
    for start, stop in raw:
        if merged and start <= merged[-1][1]:
            if start < merged[-1][1]:
                raise InvalidGrainingError("overlapping cell ranges")
            merged[-1] = (merged[-1][0], stop)
        else:
            merged.append((start, stop))
    return tuple(merged)


@dataclass(frozen=True)
class StateVector:
    """A vector of complex amplitudes over ``dim`` grid cells.

    Not required to be normalized: the Born rule divides by the squared
    norm.  When the vector is used as a state, at least one
    amplitude must be nonzero.
    """

    amplitudes: np.ndarray

    def __init__(self, amplitudes):
        object.__setattr__(self, "amplitudes", _as_complex_vector(amplitudes))
        if self.dim < 1:
            raise InvalidStateError("state needs at least one amplitude")
        if not np.isfinite(self.amplitudes).all():
            raise InvalidStateError("state amplitudes must be finite")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm2(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    def require_nonzero(self) -> None:
        if self.norm2 == 0.0:
            raise InvalidStateError("zero vector cannot be used as a state")

    def normalized(self) -> "StateVector":
        self.require_nonzero()
        return StateVector(self.amplitudes / np.sqrt(self.norm2))

    def masses(self) -> np.ndarray:
        """Per-cell mass |amplitude|^2."""
        return np.abs(self.amplitudes) ** 2

    def __eq__(self, other) -> bool:
        return isinstance(other, StateVector) and np.array_equal(
            self.amplitudes, other.amplitudes
        )

    def __hash__(self):
        return hash(self.amplitudes.tobytes())


@dataclass(frozen=True)
class Projector:
    """The projector onto a set of grid cells.

    ``cells`` is a canonical tuple of sorted, merged, disjoint index ranges,
    so two projectors are equal exactly when they project onto the same
    cells of the same grid.
    """

    dim: int
    cells: tuple[tuple[int, int], ...]

    @classmethod
    def from_cells(cls, cells: Iterable, dim: int) -> "Projector":
        return cls(dim=dim, cells=_normalize_ranges(cells, dim))

    @property
    def rank(self) -> int:
        return sum(stop - start for start, stop in self.cells)

    def indices(self) -> Iterator[int]:
        for start, stop in self.cells:
            yield from range(start, stop)

    def index_set(self) -> frozenset[int]:
        return frozenset(self.indices())

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        if amplitudes.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"projector on {self.dim} cells applied to vector of length {amplitudes.shape[0]}"
            )
        out = np.zeros(amplitudes.shape, dtype=amplitudes.dtype)
        for start, stop in self.cells:
            out[start:stop] = amplitudes[start:stop]
        return out

    def complement(self) -> "Projector":
        inside = self.index_set()
        return Projector.from_cells((i for i in range(self.dim) if i not in inside), self.dim)


def resolves_identity(projectors: Iterable[Projector], dim: int) -> bool:
    """True when the projectors act on ``dim`` cells and their ranges tile
    ``[0, dim)`` once: they are orthogonal and sum to the identity."""
    projectors = tuple(projectors)
    if any(proj.dim != dim for proj in projectors):
        return False
    edge = 0
    for start, stop in sorted(r for proj in projectors for r in proj.cells):
        if start != edge:
            return False
        edge = stop
    return edge == dim


@dataclass(frozen=True)
class CoarseGraining:
    """Partition of the grid ``{0..dim-1}`` into contiguous blocks.

    Amplitudes are assumed to already include any cell-volume weighting.
    """

    dim: int
    blocks: tuple[tuple[int, int], ...]

    def __init__(self, dim: int, blocks):
        blocks = tuple((int(a), int(b)) for a, b in blocks)
        if not blocks:
            raise InvalidGrainingError("coarse-graining needs at least one block")
        expected = 0
        for start, stop in blocks:
            if stop <= start:
                raise InvalidGrainingError(f"empty block [{start},{stop})")
            if start != expected:
                raise InvalidGrainingError(
                    "blocks must be contiguous, disjoint, and exhaustive"
                )
            expected = stop
        if expected != dim:
            raise InvalidGrainingError(
                f"blocks cover [0,{expected}) but the grid has {dim} cells"
            )
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "CoarseGraining":
        blocks = []
        start = 0
        for size in sizes:
            blocks.append((start, start + int(size)))
            start += int(size)
        return cls(start, blocks)

    @classmethod
    def unit_cells(cls, dim: int) -> "CoarseGraining":
        return cls(dim, [(i, i + 1) for i in range(dim)])

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_projector(self, index: int) -> Projector:
        start, stop = self.blocks[index]
        return Projector.from_cells([(start, stop)], self.dim)

    def refines(self, other: "CoarseGraining") -> bool:
        """True when every block of ``other`` is a union of blocks of self."""
        if self.dim != other.dim:
            return False
        boundaries = {start for start, _ in self.blocks} | {self.dim}
        return all(start in boundaries and stop in boundaries for start, stop in other.blocks)


@dataclass(frozen=True)
class GrainingFamily:
    """A finite family of coarse-grainings of one grid, ordered by refinement."""

    members: tuple[CoarseGraining, ...]

    def __init__(self, members: Iterable[CoarseGraining]):
        members = tuple(members)
        dims = {g.dim for g in members}
        if len(dims) > 1:
            raise DimensionMismatchError("family members must share one grid")
        object.__setattr__(self, "members", members)


@dataclass(frozen=True)
class SymmetryUnitary:
    """A square matrix checked to be unitary within ``DERIVED_TOL``."""

    matrix: np.ndarray

    def __init__(self, matrix):
        arr = _as_complex_matrix(matrix)
        dev = np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])))
        if dev > DERIVED_TOL:
            raise UnitarityError(f"matrix deviates from unitarity by {dev:.3e}")
        object.__setattr__(self, "matrix", arr)


@dataclass(frozen=True)
class SeparatingSet:
    """Orthonormal vectors paired one-to-one with disjoint projectors.

    ``projectors[j]`` acts as identity on ``vectors[j]`` and annihilates
    every other member.
    """

    vectors: tuple[StateVector, ...]
    projectors: tuple[Projector, ...]

    def __init__(self, vectors, projectors):
        vectors = tuple(v if isinstance(v, StateVector) else StateVector(v) for v in vectors)
        projectors = tuple(projectors)
        if len(vectors) != len(projectors):
            raise DimensionMismatchError("need one projector per vector")
        if not vectors:
            raise InvalidStateError("separating set cannot be empty")
        dim = vectors[0].dim
        for v in vectors:
            if v.dim != dim:
                raise DimensionMismatchError("vectors live on different grids")
        columns = np.array([v.amplitudes for v in vectors]).T
        if np.max(np.abs(columns.conj().T @ columns - np.eye(len(vectors)))) > DERIVED_TOL:
            raise InvalidStateError("vectors are not orthonormal within tolerance")
        for j, proj in enumerate(projectors):
            if proj.dim != dim:
                raise DimensionMismatchError("projector dimension mismatch")
            target = np.zeros_like(columns)
            target[:, j] = columns[:, j]
            misses = np.max(np.abs(proj.apply(columns) - target), axis=0) > DERIVED_TOL
            if misses.any():
                raise InvalidStateError(
                    f"projector {j} does not separate vector {np.argmax(misses)} within tolerance"
                )
        # the projectors are orthogonal when no cell is counted twice
        ranks = sum(proj.rank for proj in projectors)
        if ranks != len(frozenset().union(*(proj.index_set() for proj in projectors))):
            raise InvalidStateError("projectors are not mutually orthogonal")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "projectors", projectors)

    @property
    def size(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return self.vectors[0].dim

    @classmethod
    def from_graining(cls, psi: StateVector, graining: CoarseGraining) -> "SeparatingSet":
        """Separating set with one unit vector per block carrying psi's profile.

        Blocks where psi has no mass get the flat profile.
        """
        if graining.dim != psi.dim:
            raise DimensionMismatchError("graining and state dimensions differ")
        vectors = []
        projectors = []
        for i, (start, stop) in enumerate(graining.blocks):
            comp = np.zeros(graining.dim, dtype=complex)
            comp[start:stop] = psi.amplitudes[start:stop]
            norm = np.linalg.norm(comp)
            if norm == 0.0:
                comp[start:stop] = 1.0
                norm = np.linalg.norm(comp)
            vectors.append(StateVector(comp / norm))
            projectors.append(graining.block_projector(i))
        return cls(vectors, projectors)


class MeasureTable:
    """A finite candidate probability assignment over projectors.

    Keys are the projectors themselves; values must lie in [0, 1].
    Shared by the constraint-propagation and derivation modules.
    """

    def __init__(self, entries: dict[Projector, float] | None = None):
        self._entries: dict = {}
        if entries:
            for proj, value in entries.items():
                self.assign(proj, value)

    def assign(self, proj: Projector, value) -> None:
        if not isinstance(value, Fraction):
            value = float(value)
        if not 0 <= value <= 1 and (value < -STRUCT_TOL or value > 1 + STRUCT_TOL):
            raise ValueError(f"measure value {value} outside [0,1]")
        self._entries[proj] = value

    def value(self, proj: Projector):
        if proj not in self._entries:
            raise IncompleteMeasureError(f"measure undefined on cells {proj.cells}")
        return self._entries[proj]

    def covers(self, proj: Projector) -> bool:
        return proj in self._entries

    def items(self):
        return self._entries.items()


# ---------------------------------------------------------------------------
# the Born rule
# ---------------------------------------------------------------------------


def born_weight(psi: StateVector, proj: Projector) -> float:
    """Probability weight of ``proj`` in the (possibly unnormalized) state.

    Returns ``<psi, P psi> / <psi, psi>``, clamped to [0, 1].
    """
    if not isinstance(psi, StateVector):
        psi = StateVector(psi)
    psi.require_nonzero()
    if proj.dim != psi.dim:
        raise DimensionMismatchError(
            f"projector dimension {proj.dim} != state dimension {psi.dim}"
        )
    num = 0.0
    for start, stop in proj.cells:
        seg = psi.amplitudes[start:stop]
        num += float(np.real(np.vdot(seg, seg)))
    weight = num / psi.norm2
    return min(1.0, max(0.0, weight))
