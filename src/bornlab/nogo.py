"""Frame-function constraint machinery.

Covers three no-go style computations on finite ray sets: additivity
propagation across the non-commuting pair of sublattices generated by two
orthogonal rays and their sum/difference rays, the minimum-separation bound
for a {0,1}-valued frame function, and exhaustive search for dispersion-free
assignments over orthogonality contexts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, GeometryError, InvalidStateError, PreconditionError
from .hilbert import row_dots

ORTHO_TOL = 1e-10
PM_TOL = 1e-12  # slack of the unit interval and of a zero pair sum
PM_AGREE_TOL = 1e-9  # gap at which a forced value, or a pair sum, contradicts a known one
SAME_RAY_TOL = 1e-14  # |<a, b>| above 1 - SAME_RAY_TOL: one ray, an empty rotation sweep
SEPARATION_THRESHOLD = 0.5
MAX_ROTATION_STEPS = 10**6  # the sweep holds all steps + 1 rays at once
SOLUTION_CAP = 10_000  # satisfying assignments a dispersion-free search keeps


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.sqrt(row_dots(rows.real, rows.real) + row_dots(rows.imag, rows.imag))
    if not norms.all():
        raise InvalidStateError("a ray representative cannot be the zero vector")
    return rows / norms[:, None]


def _ray_pair(chi, phi) -> np.ndarray:
    a, b = (np.asarray(v, dtype=complex).reshape(-1) for v in (chi, phi))
    if a.shape != b.shape:
        raise DimensionMismatchError("rays live in different dimensions")
    return np.stack([a, b])


@dataclass(frozen=True)
class RaySet:
    """Normalized representatives of 1-dimensional projectors."""

    rays: tuple[np.ndarray, ...]
    dim: int

    def __init__(self, rays):
        rays = [np.asarray(r, dtype=complex).reshape(-1) for r in rays]
        if not rays:
            raise InvalidStateError("ray set cannot be empty")
        if any(ray.shape != rays[0].shape for ray in rays):
            raise DimensionMismatchError("rays live in different dimensions")
        object.__setattr__(self, "rays", tuple(_unit_rows(np.stack(rays))))
        object.__setattr__(self, "dim", rays[0].shape[0])

    def __len__(self) -> int:
        return len(self.rays)

    def orthogonal(self, i: int, j: int) -> bool:
        return abs(np.vdot(self.rays[i], self.rays[j])) < ORTHO_TOL


@dataclass
class FrameAssignment:
    """Partial map from ray index to a value in [0, 1].

    The dispersion-free search restricts values to {0, 1}; the propagator
    accepts anything in the unit interval.
    """

    values: dict[int, float] = field(default_factory=dict)

    def set(self, index: int, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise PreconditionError(f"frame value {value} outside [0,1]")
        self.values[int(index)] = float(value)

    def get(self, index: int) -> float | None:
        return self.values.get(int(index))

    def copy(self) -> "FrameAssignment":
        return FrameAssignment(dict(self.values))


# ---------------------------------------------------------------------------
# sum/difference-ray additivity propagation
# ---------------------------------------------------------------------------

# Indices of the four rays in a PMSystem's assignment.
P1, P2, PLUS, MINUS = 0, 1, 2, 3
_PM_NAMES = {P1: "P1", P2: "P2", PLUS: "P+", MINUS: "P-"}


@dataclass(frozen=True)
class PMSystem:
    """Two orthogonal generator rays plus their sum and difference rays.

    The generators span a plane; the sum/difference rays lie in that plane
    and generate a second sublattice that does not commute with the first.
    """

    rays: RaySet

    @classmethod
    def from_generators(cls, chi1, chi2) -> "PMSystem":
        a, b = _unit_rows(_ray_pair(chi1, chi2))
        if abs(np.vdot(a, b)) > ORTHO_TOL:
            raise GeometryError("generator rays must be orthogonal")
        return cls(RaySet([a, b, a + b, a - b]))


@dataclass(frozen=True)
class PMPropagation:
    """Result of additivity propagation on a PMSystem.

    ``derived`` lists (ray name, value, reason) in derivation order;
    ``contradiction`` explains unsatisfiability when not None.
    """

    assignment: FrameAssignment
    derived: tuple[tuple[str, float, str], ...]
    contradiction: str | None = None

    @property
    def consistent(self) -> bool:
        return self.contradiction is None


def propagate_pm_constraint(system: PMSystem, f: FrameAssignment) -> PMPropagation:
    """Propagate additivity between the two sublattices of a PMSystem.

    The projector sums P1 + P2 and P+ + P- coincide, so any frame function
    satisfies f(P1) + f(P2) = f(P+) + f(P-) with every value in [0, 1].
    Known values are extended to forced ones; in particular a zero sum on
    one side forces both values on the other side to zero.  Never shrinks
    the defined domain and is idempotent.
    """
    out = f.copy()
    derived: list[tuple[str, float, str]] = []

    def known_sum(i, j):
        a, b = out.get(i), out.get(j)
        return None if a is None or b is None else a + b

    def force(idx: int, value: float, reason: str) -> str | None:
        if value < -PM_TOL or value > 1.0 + PM_TOL:
            return (
                f"{_PM_NAMES[idx]} forced to {value:.6g}, outside [0,1] ({reason})"
            )
        value = min(1.0, max(0.0, value))
        current = out.get(idx)
        if current is None:
            out.set(idx, value)
            derived.append((_PM_NAMES[idx], value, reason))
            return None
        if abs(current - value) > PM_AGREE_TOL:
            return (
                f"{_PM_NAMES[idx]} already {current:.6g} but forced to {value:.6g} ({reason})"
            )
        return None

    pairs = ((P1, P2, PLUS, MINUS), (PLUS, MINUS, P1, P2))
    changed = True
    while changed:
        changed = False
        before = len(derived)
        s12 = known_sum(P1, P2)
        spm = known_sum(PLUS, MINUS)
        if s12 is not None and spm is not None and abs(s12 - spm) > PM_AGREE_TOL:
            return PMPropagation(
                out,
                tuple(derived),
                contradiction=(
                    f"additivity requires f(P1)+f(P2) = f(P+)+f(P-) "
                    f"but {s12:.6g} != {spm:.6g}"
                ),
            )
        for a, b, c, d in pairs:
            total = known_sum(a, b)
            if total is None:
                continue
            reason = f"f({_PM_NAMES[a]})+f({_PM_NAMES[b]}) = {total:.6g}"
            if total <= PM_TOL:
                # positivity: a zero sum forces both members of the other pair
                for idx in (c, d):
                    msg = force(idx, 0.0, reason + " and positivity")
                    if msg:
                        return PMPropagation(out, tuple(derived), contradiction=msg)
            else:
                for idx, other in ((c, d), (d, c)):
                    if out.get(other) is not None and out.get(idx) is None:
                        msg = force(idx, total - out.get(other), reason)
                        if msg:
                            return PMPropagation(out, tuple(derived), contradiction=msg)
        changed = len(derived) > before
    return PMPropagation(out, tuple(derived))


# ---------------------------------------------------------------------------
# separation bound
# ---------------------------------------------------------------------------


class SeparationVerdict(Enum):
    ALLOWED = "allowed"
    FORBIDDEN = "forbidden"


@dataclass(frozen=True)
class SeparationResult:
    distance: float
    threshold: float = SEPARATION_THRESHOLD

    @property
    def forbidden(self) -> bool:
        return self.distance <= self.threshold

    @property
    def verdict(self) -> SeparationVerdict:
        return SeparationVerdict.FORBIDDEN if self.forbidden else SeparationVerdict.ALLOWED


def _ray_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise distance between the rays of the nonzero rows a[k] and b[k].

    Both rows are normalized and the relative phase is chosen to minimize
    |a_k - b_k|, which leaves sqrt(2 - 2|<a_k, b_k>|).
    """
    dots = row_dots(_unit_rows(a), _unit_rows(b))
    # np.hypot rounds as abs() of one complex does; np.abs of a complex array may not
    overlap = np.hypot(dots.real, dots.imag)
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * overlap))


def separation_check(chi, phi) -> SeparationResult:
    """Can a {0,1} frame function assign 1 to chi's ray and 0 to phi's?

    Works ray-wise: both vectors are normalized and the relative phase of
    chi is chosen to minimize |chi - phi| before comparing with half of
    |phi|.  FORBIDDEN means the pair is too close for the value to drop
    from 1 to 0 under additivity.
    """
    pair = _ray_pair(chi, phi)
    return SeparationResult(float(_ray_distances(pair[:1], pair[1:])[0]))


# ---------------------------------------------------------------------------
# dispersion-free search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnsatCertificate:
    """Shortest violated constraint chain observed during the search."""

    chain: tuple[str, ...]

    def __str__(self) -> str:
        return " -> ".join(self.chain)


@dataclass(frozen=True)
class SearchResult:
    assignments: tuple[tuple[int, ...], ...]
    certificate: UnsatCertificate | None
    contexts: tuple[tuple[int, ...], ...]

    @property
    def satisfiable(self) -> bool:
        return bool(self.assignments)


def _orthogonality_contexts(adjacency: list[set[int]]):
    """Maximal cliques of mutually orthogonal rays (Bron-Kerbosch), sorted."""
    cliques: set[tuple[int, ...]] = set()

    def expand(clique: set[int], candidates: set[int], excluded: set[int]) -> None:
        if not candidates and not excluded:
            cliques.add(tuple(sorted(clique)))
            return
        for v in sorted(candidates):
            expand(clique | {v}, candidates & adjacency[v], excluded & adjacency[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(set(), set(range(len(adjacency))), set())
    return sorted(cliques)


def dispersion_free_search(
    rays: RaySet,
    *,
    pinned: dict[int, int] | None = None,
) -> SearchResult:
    """Exhaustive backtracking over {0,1} ray values.

    Constraints: at most one 1 in any orthogonal pair, and exactly one 1 in
    every complete context (a maximal set of ``dim`` mutually orthogonal
    rays).  ``pinned`` forces chosen rays to fixed values first.  Returns
    every satisfying assignment up to ``SOLUTION_CAP``, or an UNSAT
    certificate naming the shortest violated constraint chain encountered.
    """
    if rays.dim < 2:
        raise DimensionMismatchError("dispersion-free search needs dimension >= 2")
    n = len(rays)
    pinned = {int(k): int(v) for k, v in (pinned or {}).items()}
    adjacency = [{j for j in range(n) if j != i and rays.orthogonal(i, j)} for i in range(n)]
    contexts = _orthogonality_contexts(adjacency)
    complete = [c for c in contexts if len(c) == rays.dim]

    solutions: list[tuple[int, ...]] = []
    best_chain: tuple[str, ...] | None = None
    assignment: dict[int, int] = {}

    def conflict(idx: int, value: int) -> str | None:
        if value == 1:
            for other in sorted(adjacency[idx]):
                if assignment.get(other) == 1:
                    return f"rays {idx} and {other} are orthogonal but both valued 1"
        # a context's rays are pairwise orthogonal, so the pair check above keeps its 1s to one
        for ctx in complete:
            if idx not in ctx:
                continue
            values = [assignment.get(k) for k in ctx if k != idx] + [value]
            if all(v == 0 for v in values):
                return f"context {ctx} has every ray valued 0; one must be 1"
        return None

    def record_chain(reason: str) -> None:
        nonlocal best_chain
        chain = tuple(
            f"f(ray {i}) = {assignment[i]}" for i in sorted(assignment)
        ) + (reason,)
        if best_chain is None or len(chain) < len(best_chain):
            best_chain = chain

    def backtrack(idx: int) -> None:
        if len(solutions) >= SOLUTION_CAP:
            return
        if idx == n:
            solutions.append(tuple(assignment[i] for i in range(n)))
            return
        choices = (pinned[idx],) if idx in pinned else (0, 1)
        for value in choices:
            reason = conflict(idx, value)
            if reason is not None:
                assignment[idx] = value
                record_chain(reason)
                del assignment[idx]
                continue
            assignment[idx] = value
            backtrack(idx + 1)
            del assignment[idx]

    backtrack(0)
    certificate = None
    if not solutions:
        certificate = UnsatCertificate(best_chain or ("no assignment explored",))
    return SearchResult(tuple(solutions), certificate, tuple(contexts))


# ---------------------------------------------------------------------------
# rotation sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationJumpReport:
    """Outcome of sweeping a ray continuously from chi to phi.

    With endpoint values fixed at f(chi) = 1 and f(phi) = 0, a {0,1} frame
    function must flip somewhere along the sweep.  ``distances`` holds the
    read-only distance of each consecutive pair of rays.  ``contradiction``
    holds when every pair is within the separation bound, so no legal flip
    position exists; the sweep between identical rays is empty.
    """

    distances: np.ndarray

    def __post_init__(self):
        self.distances.flags.writeable = False

    @property
    def forbidden(self) -> np.ndarray:
        return self.distances <= SEPARATION_THRESHOLD

    @property
    def steps(self) -> range:
        """Index of each consecutive pair; the benchmark counts pairs as ``len(steps)``."""
        return range(len(self.distances))

    @property
    def empty(self) -> bool:
        return not self.distances.size

    @property
    def flip_allowed_at(self) -> int | None:
        allowed = np.flatnonzero(~self.forbidden)
        return int(allowed[0]) if allowed.size else None

    @property
    def max_consecutive_distance(self) -> float:
        return float(self.distances.max(initial=0.0))

    @property
    def status(self) -> str:  # "contradiction" | "inconclusive" | "degenerate"
        if self.empty:
            return "degenerate"
        return "contradiction" if self.flip_allowed_at is None else "inconclusive"

    @property
    def contradiction(self) -> bool:
        return self.status == "contradiction"


def rotation_jump_demo(chi, phi, steps: int) -> RotationJumpReport:
    """Interpolate chi into phi and test every consecutive pair.

    ``steps`` counts interpolation intervals, an integer in
    [2, ``MAX_ROTATION_STEPS``]; the steps + 1 rays are built and compared
    as one array, and each distance is the one ``separation_check`` gives
    for that pair of rays, bit for bit.  If some pair is far enough apart
    the flip can sit there and the report is inconclusive; if every pair is
    forbidden the report certifies that no dispersion-free assignment
    survives the sweep.  Identical rays give a degenerate empty report.
    """
    if not isinstance(steps, (int, np.integer)) or not 2 <= steps <= MAX_ROTATION_STEPS:
        raise PreconditionError(
            f"rotation 'steps' must be an integer in [2, {MAX_ROTATION_STEPS}], got {steps!r}"
        )
    a, b = _unit_rows(_ray_pair(chi, phi))
    overlap = np.vdot(a, b)
    if abs(overlap) > 1.0 - SAME_RAY_TOL:
        return RotationJumpReport(np.zeros(0))
    # align phase so the geodesic stays real in the (a, b) plane
    # a subnormal overlap counts as zero: dividing by it overflows
    phase = overlap / abs(overlap) if abs(overlap) >= np.finfo(float).tiny else 1.0
    b_aligned = b / phase
    angle = float(np.arccos(min(1.0, abs(overlap))))

    t = (np.arange(steps + 1) / steps)[:, None]
    rays = _unit_rows((np.sin((1 - t) * angle) * a + np.sin(t * angle) * b_aligned) / np.sin(angle))
    return RotationJumpReport(_ray_distances(rays[:-1], rays[1:]))
