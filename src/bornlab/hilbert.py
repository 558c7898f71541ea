"""Finite-dimensional Hilbert-space kernel.

States, projectors, coarse-grainings of a discretized configuration space,
the Boolean sublattices they generate, symmetry unitaries, and the two
probability rules (vector and density-matrix form).  Configuration space is
modelled as ``d`` grid cells; a projector is either a set of cells (lattice
form) or a dense Hermitian idempotent matrix (general form).

All types are immutable values after construction and safe to share across
threads.  Tolerances follow a two-level policy: structural identities are
checked at ``STRUCT_TOL`` (1e-12), derived numerical identities at
``DERIVED_TOL`` (1e-10).  Both can be overridden per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DegeneracyViolationError,
    DimensionMismatchError,
    IncompleteMeasureError,
    InvalidDensityError,
    InvalidGrainingError,
    InvalidStateError,
    UnitarityError,
)

STRUCT_TOL = 1e-12
DERIVED_TOL = 1e-10

# Boolean sublattices with more than this many generators are never
# materialized eagerly; ``elements()`` stays lazy.
LATTICE_MATERIALIZE_LIMIT = 20


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


def _normalize_ranges(cells: Iterable, dim: int) -> tuple[tuple[int, int], ...]:
    """Canonicalize a cell collection into sorted, merged, disjoint ranges.

    Accepts single indices, ``(start, stop)`` pairs, or ``range`` objects.
    """
    raw: list[tuple[int, int]] = []
    for item in cells:
        if isinstance(item, range):
            start, stop = item.start, item.stop
        elif isinstance(item, (tuple, list)) and len(item) == 2:
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

    Not required to be normalized: the probability rules divide by the
    squared norm.  When the vector is used as a state, at least one
    amplitude must be nonzero.
    """

    amplitudes: np.ndarray

    def __init__(self, amplitudes):
        object.__setattr__(self, "amplitudes", _as_complex_vector(amplitudes))
        if self.dim < 1:
            raise InvalidStateError("state needs at least one amplitude")

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


def _check_projector_matrix(matrix: np.ndarray, tol: float) -> None:
    if np.max(np.abs(matrix - matrix.conj().T)) > tol:
        raise InvalidStateError("projector matrix is not Hermitian within tolerance")
    if np.max(np.abs(matrix @ matrix - matrix)) > tol:
        raise InvalidStateError("projector matrix is not idempotent within tolerance")


@dataclass(frozen=True)
class Projector:
    """A projector, in cell form, matrix form, or both.

    Cell form is a canonical tuple of disjoint index ranges on the grid and
    is exact; matrix form is a dense Hermitian idempotent checked at
    construction.  Lattice members (coarse-graining blocks and their unions)
    use cell form; general projectors use matrix form.
    """

    dim: int
    cells: tuple[tuple[int, int], ...] | None = None
    matrix: np.ndarray | None = field(default=None, compare=False)

    @classmethod
    def from_cells(cls, cells: Iterable, dim: int) -> "Projector":
        return cls(dim=dim, cells=_normalize_ranges(cells, dim))

    @classmethod
    def from_matrix(cls, matrix, *, tol: float = STRUCT_TOL) -> "Projector":
        arr = _as_complex_matrix(matrix)
        _check_projector_matrix(arr, tol)
        # canonicalize lattice-aligned projectors so that cell-form and
        # matrix-form presentations of the same projector share a key
        diag = np.real(np.diag(arr)).copy()
        off = arr - np.diag(np.diag(arr))
        if np.max(np.abs(off)) <= 1e-10 and np.all(
            (np.abs(diag) <= 1e-10) | (np.abs(diag - 1.0) <= 1e-10)
        ):
            cells = [i for i, v in enumerate(diag) if v > 0.5]
            return cls(dim=arr.shape[0], cells=_normalize_ranges(cells, arr.shape[0]))
        return cls(dim=arr.shape[0], matrix=arr)

    @classmethod
    def onto_vector(cls, vector) -> "Projector":
        """Rank-1 projector onto the ray of ``vector``."""
        v = _as_complex_vector(vector)
        n2 = np.real(np.vdot(v, v))
        if n2 == 0.0:
            raise InvalidStateError("cannot project onto the zero vector")
        return cls(dim=v.shape[0], matrix=np.outer(v, v.conj()) / n2)

    def __post_init__(self):
        if self.cells is None and self.matrix is None:
            raise InvalidStateError("projector needs a cell or matrix representation")

    @property
    def rank(self) -> int:
        if self.cells is not None:
            return sum(stop - start for start, stop in self.cells)
        return int(round(np.real(np.trace(self.matrix))))

    def indices(self) -> Iterator[int]:
        if self.cells is None:
            raise InvalidStateError("matrix-form projector has no cell indices")
        for start, stop in self.cells:
            yield from range(start, stop)

    def index_set(self) -> frozenset[int]:
        return frozenset(self.indices())

    def as_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        diag = np.zeros(self.dim)
        for start, stop in self.cells:
            diag[start:stop] = 1.0
        return np.diag(diag).astype(complex)

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        if amplitudes.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"projector on {self.dim} cells applied to vector of length {amplitudes.shape[0]}"
            )
        if self.cells is not None:
            out = np.zeros_like(amplitudes)
            for start, stop in self.cells:
                out[start:stop] = amplitudes[start:stop]
            return out
        return self.matrix @ amplitudes

    def complement(self) -> "Projector":
        if self.cells is not None:
            inside = set(self.indices())
            return Projector.from_cells(
                (i for i in range(self.dim) if i not in inside), self.dim
            )
        return Projector(dim=self.dim, matrix=np.eye(self.dim, dtype=complex) - self.matrix)

    def union(self, other: "Projector") -> "Projector":
        self._require_cells_pair(other)
        return Projector.from_cells(
            list(self.cells) + list(other.cells), self.dim
        )

    def contains(self, other: "Projector") -> bool:
        self._require_cells_pair(other)
        return other.index_set() <= self.index_set()

    def _require_cells_pair(self, other: "Projector") -> None:
        if self.cells is None or other.cells is None:
            raise InvalidStateError("lattice operations need cell-form projectors")
        if self.dim != other.dim:
            raise DimensionMismatchError("projectors live on different grids")

    def key(self):
        """Canonical hashable identity used by measure tables.

        Cell-form projectors are identified by their ranges; matrix-form
        ones by their rounded entries.
        """
        if self.cells is not None:
            return ("cells", self.dim, self.cells)
        return ("matrix", self.dim, tuple(np.round(self.matrix, 10).ravel().tolist()))

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        return isinstance(other, Projector) and self.key() == other.key()


@dataclass(frozen=True)
class DensityMatrix:
    """Positive, self-adjoint, trace-one matrix."""

    matrix: np.ndarray

    def __init__(self, matrix, *, tol: float = STRUCT_TOL):
        arr = _as_complex_matrix(matrix)
        if np.max(np.abs(arr - arr.conj().T)) > tol:
            raise InvalidDensityError("density matrix is not Hermitian within tolerance")
        if abs(np.real(np.trace(arr)) - 1.0) > tol:
            raise InvalidDensityError("density matrix trace differs from one")
        eigvals = np.linalg.eigvalsh(arr)
        if np.min(eigvals) < -tol:
            raise InvalidDensityError(f"density matrix has negative eigenvalue {np.min(eigvals)}")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, psi: StateVector) -> "DensityMatrix":
        psi.require_nonzero()
        v = psi.amplitudes
        return cls(np.outer(v, v.conj()) / psi.norm2)


@dataclass(frozen=True)
class CoarseGraining:
    """Partition of the grid ``{0..dim-1}`` into contiguous blocks.

    ``volumes`` optionally attaches a physical volume per block; it is
    carried as metadata only (amplitudes are assumed to already include any
    cell-volume weighting).
    """

    dim: int
    blocks: tuple[tuple[int, int], ...]
    volumes: tuple[float, ...] | None = None

    def __init__(self, dim: int, blocks, volumes=None):
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
        if volumes is not None:
            volumes = tuple(float(v) for v in volumes)
            if len(volumes) != len(blocks):
                raise InvalidGrainingError("one volume per block required")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "volumes", volumes)

    @classmethod
    def from_sizes(cls, sizes: Sequence[int], volumes=None) -> "CoarseGraining":
        blocks = []
        start = 0
        for size in sizes:
            blocks.append((start, start + int(size)))
            start += int(size)
        return cls(start, blocks, volumes)

    @classmethod
    def unit_cells(cls, dim: int) -> "CoarseGraining":
        return cls(dim, [(i, i + 1) for i in range(dim)])

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_projector(self, index: int) -> Projector:
        start, stop = self.blocks[index]
        return Projector.from_cells([(start, stop)], self.dim)

    def block_projectors(self) -> list[Projector]:
        return [self.block_projector(i) for i in range(self.n_blocks)]

    def refines(self, other: "CoarseGraining") -> bool:
        """True when every block of ``other`` is a union of blocks of self."""
        if self.dim != other.dim:
            return False
        boundaries = {start for start, _ in self.blocks} | {self.dim}
        return all(start in boundaries and stop in boundaries for start, stop in other.blocks)


@dataclass(frozen=True)
class GrainingFamily:
    """A finite family of coarse-grainings ordered by refinement.

    ``allow_generated`` lets operations extend the family with refinements
    they construct (the desk-scale stand-in for arbitrarily fine
    partitions); with it off, only the listed members may be used.
    """

    members: tuple[CoarseGraining, ...]
    allow_generated: bool = True

    def __init__(self, members: Iterable[CoarseGraining], allow_generated: bool = True):
        members = tuple(members)
        dims = {g.dim for g in members}
        if len(dims) > 1:
            raise DimensionMismatchError("family members must share one grid")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "allow_generated", bool(allow_generated))

    def is_partial_order_consistent(self) -> bool:
        """Refinement is reflexive, antisymmetric and transitive on members."""
        ms = self.members
        for a in ms:
            if not a.refines(a):
                return False
            for b in ms:
                if a.refines(b) and b.refines(a) and a.blocks != b.blocks:
                    return False
                for c in ms:
                    if a.refines(b) and b.refines(c) and not a.refines(c):
                        return False
        return True


@dataclass(frozen=True)
class BooleanSublattice:
    """The Boolean lattice generated by the blocks of a coarse-graining.

    Generators are pairwise orthogonal cell projectors summing to the
    identity; elements are all unions of generators, materialized lazily
    above ``LATTICE_MATERIALIZE_LIMIT`` generators.
    """

    generators: tuple[Projector, ...]

    def __init__(self, generators: Iterable[Projector]):
        generators = tuple(generators)
        if not generators:
            raise InvalidGrainingError("lattice needs at least one generator")
        dim = generators[0].dim
        seen: set[int] = set()
        for proj in generators:
            if proj.cells is None:
                raise InvalidStateError("lattice generators must be cell-form")
            if proj.dim != dim:
                raise DimensionMismatchError("generators live on different grids")
            idx = proj.index_set()
            if not idx:
                raise InvalidGrainingError("empty block cannot generate a lattice")
            if idx & seen:
                raise InvalidGrainingError("generators overlap")
            seen |= idx
        if seen != set(range(dim)):
            raise InvalidGrainingError("generators do not sum to the identity")
        object.__setattr__(self, "generators", generators)

    @property
    def dim(self) -> int:
        return self.generators[0].dim

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @property
    def element_count(self) -> int:
        return 2 ** self.n_generators

    def zero(self) -> Projector:
        return Projector.from_cells([], self.dim)

    def identity(self) -> Projector:
        return Projector.from_cells([(0, self.dim)], self.dim)

    def element(self, generator_indices: Iterable[int]) -> Projector:
        cells: list[tuple[int, int]] = []
        for i in generator_indices:
            cells.extend(self.generators[i].cells)
        return Projector.from_cells(cells, self.dim)

    def elements(self) -> Iterator[Projector]:
        """All lattice elements, from the empty projector to the identity."""
        for mask in range(self.element_count):
            yield self.element(i for i in range(self.n_generators) if mask >> i & 1)

    def contains(self, proj: Projector) -> bool:
        if proj.cells is None:
            return False
        idx = proj.index_set()
        chosen: set[int] = set()
        for gen in self.generators:
            gidx = gen.index_set()
            if gidx <= idx:
                chosen |= gidx
            elif gidx & idx:
                return False
        return chosen == idx


@dataclass(frozen=True)
class SymmetryUnitary:
    """A unitary with a tag recording how it was built."""

    matrix: np.ndarray
    kind: str = "general"

    def __init__(self, matrix, kind: str = "general", *, tol: float = STRUCT_TOL):
        arr = _as_complex_matrix(matrix)
        dev = np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])))
        if dev > tol:
            raise UnitarityError(f"matrix deviates from unitarity by {dev:.3e}")
        if kind not in ("phase", "permutation", "general"):
            raise ValueError(f"unknown unitary kind {kind!r}")
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "kind", kind)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def conjugate_projector(self, proj: Projector) -> Projector:
        mat = self.matrix @ proj.as_matrix() @ self.matrix.conj().T
        return Projector.from_matrix(mat, tol=1e-9)

    def apply(self, psi: StateVector) -> StateVector:
        return StateVector(self.matrix @ psi.amplitudes)


@dataclass(frozen=True)
class SeparatingSet:
    """Orthonormal vectors paired one-to-one with disjoint projectors.

    ``projectors[j]`` acts as identity on ``vectors[j]`` and annihilates
    every other member.
    """

    vectors: tuple[StateVector, ...]
    projectors: tuple[Projector, ...]

    def __init__(self, vectors, projectors, *, tol: float = DERIVED_TOL):
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
        gram = np.array(
            [[np.vdot(a.amplitudes, b.amplitudes) for b in vectors] for a in vectors]
        )
        if np.max(np.abs(gram - np.eye(len(vectors)))) > tol:
            raise InvalidStateError("vectors are not orthonormal within tolerance")
        for j, proj in enumerate(projectors):
            if proj.dim != dim:
                raise DimensionMismatchError("projector dimension mismatch")
            for k, vec in enumerate(vectors):
                image = proj.apply(vec.amplitudes)
                target = vec.amplitudes if j == k else 0.0 * vec.amplitudes
                if np.max(np.abs(image - target)) > tol:
                    raise InvalidStateError(
                        f"projector {j} does not separate vector {k} within tolerance"
                    )
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

    Keys are canonical projector identities; values must lie in [0, 1].
    Shared by the constraint-propagation and derivation modules.
    """

    def __init__(self, entries: dict[Projector, float] | None = None, *, slack: float = 1e-12):
        self._entries: dict = {}
        self._slack = slack
        if entries:
            for proj, value in entries.items():
                self.assign(proj, value)

    def assign(self, proj: Projector, value) -> None:
        if not isinstance(value, Fraction):
            value = float(value)
        if value < -self._slack or value > 1 + self._slack:
            raise ValueError(f"measure value {value} outside [0,1]")
        self._entries[proj.key()] = value

    def value(self, proj: Projector):
        key = proj.key()
        if key not in self._entries:
            raise IncompleteMeasureError(f"measure undefined on projector {key}")
        return self._entries[key]

    def covers(self, proj: Projector) -> bool:
        return proj.key() in self._entries

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def born_table(cls, psi: StateVector, projectors: Iterable[Projector]) -> "MeasureTable":
        table = cls()
        for proj in projectors:
            table.assign(proj, born_weight(psi, proj))
        return table


# ---------------------------------------------------------------------------
# probability rules and lattice operations
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
    amp = psi.amplitudes
    if proj.cells is not None:
        num = 0.0
        for start, stop in proj.cells:
            seg = amp[start:stop]
            num += float(np.real(np.vdot(seg, seg)))
    else:
        num = float(np.real(np.vdot(amp, proj.matrix @ amp)))
    weight = num / psi.norm2
    return min(1.0, max(0.0, weight))


def trace_weight(rho: DensityMatrix, proj: Projector) -> float:
    """Probability weight ``Tr(rho P)``, clamped to [0, 1]."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    if proj.dim != rho.dim:
        raise DimensionMismatchError(
            f"projector dimension {proj.dim} != density dimension {rho.dim}"
        )
    if proj.cells is not None:
        value = 0.0
        for start, stop in proj.cells:
            value += float(np.real(np.trace(rho.matrix[start:stop, start:stop])))
    else:
        value = float(np.real(np.trace(rho.matrix @ proj.matrix)))
    return min(1.0, max(0.0, value))


def sublattice_from_graining(graining: CoarseGraining) -> BooleanSublattice:
    """Boolean sublattice generated by the block projectors of a graining."""
    return BooleanSublattice(graining.block_projectors())


def permutation_unitary(
    permutation: Sequence[int], separating: SeparatingSet, *, tol: float = DERIVED_TOL
) -> SymmetryUnitary:
    """Unitary sending vector ``k`` to vector ``pi(k)`` and conjugating the
    projector family accordingly.

    ``permutation[k]`` is the image of index ``k`` (0-based).  Projector
    ranges swapped into each other must have equal dimension; unequal block
    dimensions raise :class:`DegeneracyViolationError`.
    """
    n = separating.size
    perm = tuple(int(p) for p in permutation)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    dim = separating.dim
    for k, target in enumerate(perm):
        if separating.projectors[k].rank != separating.projectors[target].rank:
            raise DegeneracyViolationError(
                f"blocks {k} and {target} have unequal dimension "
                f"({separating.projectors[k].rank} vs {separating.projectors[target].rank})"
            )

    matrix = np.zeros((dim, dim), dtype=complex)
    bases = [_range_basis(separating, k) for k in range(n)]
    for k, target in enumerate(perm):
        src = bases[k]
        dst = bases[target]
        for col_src, col_dst in zip(src.T, dst.T):
            matrix += np.outer(col_dst, col_src.conj())
    total = sum(p.as_matrix() for p in separating.projectors)
    matrix += np.eye(dim, dtype=complex) - total
    return SymmetryUnitary(matrix, "permutation", tol=max(tol, 1e-10))


def _range_basis(separating: SeparatingSet, k: int) -> np.ndarray:
    """Orthonormal basis of ran(P_k) whose first column is vector k."""
    proj = separating.projectors[k]
    vec = separating.vectors[k].amplitudes
    if proj.cells is not None:
        idx = sorted(proj.indices())
        cols = [vec]
        # complete with unit cells of the block, Gram-Schmidt against vec
        for i in idx:
            e = np.zeros(len(vec), dtype=complex)
            e[i] = 1.0
            for c in cols:
                e = e - np.vdot(c, e) * c
            norm = np.linalg.norm(e)
            if norm > 1e-9:
                cols.append(e / norm)
        return np.array(cols[: proj.rank]).T
    mat = proj.as_matrix()
    eigvals, eigvecs = np.linalg.eigh(mat)
    basis = eigvecs[:, eigvals > 0.5]
    cols = [vec]
    for j in range(basis.shape[1]):
        e = basis[:, j]
        for c in cols:
            e = e - np.vdot(c, e) * c
        norm = np.linalg.norm(e)
        if norm > 1e-9:
            cols.append(e / norm)
    return np.array(cols[: proj.rank]).T


def phase_unitary(
    thetas: Sequence[float], separating: SeparatingSet, *, tol: float = DERIVED_TOL
) -> SymmetryUnitary:
    """Unitary multiplying the range of projector ``k`` by ``exp(-i theta_k)``.

    Leaves every projector of the set invariant under conjugation and acts
    as the identity outside their joint range.
    """
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) != separating.size:
        raise DimensionMismatchError(
            f"{len(thetas)} phases for {separating.size} projectors"
        )
    dim = separating.dim
    matrix = np.eye(dim, dtype=complex)
    for theta, proj in zip(thetas, separating.projectors):
        pmat = proj.as_matrix()
        matrix = matrix + (np.exp(-1j * theta) - 1.0) * pmat
    return SymmetryUnitary(matrix, "phase", tol=max(tol, 1e-10))


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


def check_additivity(
    table: MeasureTable, lattice: BooleanSublattice, *, tol: float = DERIVED_TOL
) -> AdditivityReport:
    """Check pairwise additivity of a measure table on a Boolean sublattice.

    The table must cover all generators and every queried union; it is
    extended additively to unions it does not cover.  The report is empty
    iff mu(P v Q) = mu(P) + mu(Q) for all disjoint P, Q and mu(I) = 1.
    """
    for gen in lattice.generators:
        if not table.covers(gen):
            raise IncompleteMeasureError(f"measure undefined on generator {gen.key()}")

    def lattice_value(indices: frozenset[int]) -> float:
        proj = lattice.element(indices)
        if table.covers(proj):
            return float(table.value(proj))
        return float(sum(table.value(lattice.generators[i]) for i in indices))

    n = lattice.n_generators
    violations = []
    subsets: list[frozenset[int]]
    if n <= LATTICE_MATERIALIZE_LIMIT // 2:
        subsets = [
            frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n)
        ]
    else:
        # too many elements to enumerate all unions: check the covered ones
        subsets = [frozenset([i]) for i in range(n)]
        subsets.append(frozenset(range(n)))
    for i, left in enumerate(subsets):
        for right in subsets[i + 1 :]:
            if left & right:
                continue
            expected = lattice_value(left) + lattice_value(right)
            actual = lattice_value(left | right)
            if abs(expected - actual) > tol:
                violations.append(
                    AdditivityViolation(
                        left=tuple(sorted(left)),
                        right=tuple(sorted(right)),
                        union=tuple(sorted(left | right)),
                        expected=expected,
                        actual=actual,
                    )
                )
    total = lattice_value(frozenset(range(n)))
    normalization_ok = abs(total - 1.0) <= tol
    return AdditivityReport(tuple(violations), normalization_ok)
