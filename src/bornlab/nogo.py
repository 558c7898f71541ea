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

from .errors import DimensionMismatchError, GeometryError, InvalidStateError
from .hilbert import StateVector

ORTHO_TOL = 1e-10
PM_TOL = 1e-12  # slack of the unit interval and of a zero pair sum
SEPARATION_THRESHOLD = 0.5


def _normalize_ray(vector) -> np.ndarray:
    arr = np.asarray(vector, dtype=complex).reshape(-1)
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise InvalidStateError("a ray representative cannot be the zero vector")
    return arr / norm


@dataclass(frozen=True)
class RaySet:
    """Normalized representatives of 1-dimensional projectors."""

    rays: tuple[np.ndarray, ...]
    dim: int

    def __init__(self, rays):
        normalized = tuple(_normalize_ray(r) for r in rays)
        if not normalized:
            raise InvalidStateError("ray set cannot be empty")
        dim = normalized[0].shape[0]
        for ray in normalized:
            if ray.shape[0] != dim:
                raise DimensionMismatchError("rays live in different dimensions")
        object.__setattr__(self, "rays", normalized)
        object.__setattr__(self, "dim", dim)

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
            raise ValueError(f"frame value {value} outside [0,1]")
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
        a = _normalize_ray(chi1)
        b = _normalize_ray(chi2)
        if abs(np.vdot(a, b)) > ORTHO_TOL:
            raise GeometryError("generator rays must be orthogonal")
        plus = _normalize_ray(a + b)
        minus = _normalize_ray(a - b)
        return cls(RaySet([a, b, plus, minus]))


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
        if abs(current - value) > 1e-9:
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
        if s12 is not None and spm is not None and abs(s12 - spm) > 1e-9:
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
                if total > 2.0 + PM_TOL:
                    return PMPropagation(
                        out,
                        tuple(derived),
                        contradiction=f"{reason} exceeds 2, impossible for unit-interval values",
                    )
                for idx, other in ((c, d), (d, c)):
                    if out.get(other) is not None and out.get(idx) is None:
                        msg = force(idx, total - out.get(other), reason)
                        if msg:
                            return PMPropagation(out, tuple(derived), contradiction=msg)
                # range pruning: a known value cannot exceed the pair sum
                for idx in (c, d):
                    val = out.get(idx)
                    if val is not None and val > total + 1e-9:
                        return PMPropagation(
                            out,
                            tuple(derived),
                            contradiction=(
                                f"f({_PM_NAMES[idx]}) = {val:.6g} exceeds {reason}; "
                                f"its partner would be negative"
                            ),
                        )
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
    verdict: SeparationVerdict
    distance: float
    threshold: float = SEPARATION_THRESHOLD

    @property
    def forbidden(self) -> bool:
        return self.verdict is SeparationVerdict.FORBIDDEN


def separation_check(chi, phi) -> SeparationResult:
    """Can a {0,1} frame function assign 1 to chi's ray and 0 to phi's?

    Works ray-wise: both vectors are normalized and the relative phase of
    chi is chosen to minimize |chi - phi| before comparing with half of
    |phi|.  FORBIDDEN means the pair is too close for the value to drop
    from 1 to 0 under additivity.
    """
    a = _normalize_ray(chi if not isinstance(chi, StateVector) else chi.amplitudes)
    b = _normalize_ray(phi if not isinstance(phi, StateVector) else phi.amplitudes)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError("rays live in different dimensions")
    overlap = abs(np.vdot(a, b))
    distance = float(np.sqrt(max(0.0, 2.0 - 2.0 * overlap)))
    verdict = (
        SeparationVerdict.FORBIDDEN
        if distance <= SEPARATION_THRESHOLD
        else SeparationVerdict.ALLOWED
    )
    return SeparationResult(verdict, distance)


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


def _orthogonality_contexts(rays: RaySet):
    """Maximal cliques of mutually orthogonal rays (Bron-Kerbosch), sorted."""
    n = len(rays)
    adjacency = [
        {j for j in range(n) if j != i and rays.orthogonal(i, j)}
        for i in range(n)
    ]
    cliques: set[tuple[int, ...]] = set()

    def expand(clique: set[int], candidates: set[int], excluded: set[int]) -> None:
        if not candidates and not excluded:
            cliques.add(tuple(sorted(clique)))
            return
        for v in sorted(candidates):
            expand(clique | {v}, candidates & adjacency[v], excluded & adjacency[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(set(), set(range(n)), set())
    return sorted(cliques)


def dispersion_free_search(
    rays: RaySet,
    *,
    pinned: dict[int, int] | None = None,
    solution_cap: int = 10_000,
) -> SearchResult:
    """Exhaustive backtracking over {0,1} ray values.

    Constraints: at most one 1 in any orthogonal pair, and exactly one 1 in
    every complete context (a maximal set of ``dim`` mutually orthogonal
    rays).  ``pinned`` forces chosen rays to fixed values first.  Returns
    every satisfying assignment up to ``solution_cap``, or an UNSAT
    certificate naming the shortest violated constraint chain encountered.
    """
    if rays.dim < 2:
        raise DimensionMismatchError("dispersion-free search needs dimension >= 2")
    n = len(rays)
    pinned = {int(k): int(v) for k, v in (pinned or {}).items()}
    contexts = _orthogonality_contexts(rays)
    complete = [c for c in contexts if len(c) == rays.dim]
    ortho_pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rays.orthogonal(i, j)
    ]

    solutions: list[tuple[int, ...]] = []
    best_chain: tuple[str, ...] | None = None
    assignment: dict[int, int] = {}

    def conflict(idx: int, value: int) -> str | None:
        if value == 1:
            for i, j in ortho_pairs:
                other = j if i == idx else i if j == idx else None
                if other is not None and assignment.get(other) == 1:
                    return f"rays {idx} and {other} are orthogonal but both valued 1"
        for ctx in complete:
            if idx not in ctx:
                continue
            values = [assignment.get(k) for k in ctx if k != idx] + [value]
            ones = sum(1 for v in values if v == 1)
            unknown = sum(1 for v in values if v is None)
            if ones > 1:
                return f"context {ctx} holds more than one ray valued 1"
            if ones == 0 and unknown == 0:
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
        if len(solutions) >= solution_cap:
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
class RotationStep:
    index: int
    distance: float
    forbidden: bool


@dataclass(frozen=True)
class RotationJumpReport:
    """Outcome of sweeping a ray continuously from chi to phi.

    With endpoint values fixed at f(chi) = 1 and f(phi) = 0, a {0,1} frame
    function must flip somewhere along the sweep.  ``contradiction`` holds
    when every consecutive pair is within the separation bound, so no legal
    flip position exists.
    """

    status: str  # "contradiction" | "inconclusive" | "degenerate"
    steps: tuple[RotationStep, ...]
    max_consecutive_distance: float
    flip_allowed_at: int | None

    @property
    def contradiction(self) -> bool:
        return self.status == "contradiction"

    @property
    def empty(self) -> bool:
        return not self.steps


def rotation_jump_demo(chi, phi, steps: int) -> RotationJumpReport:
    """Interpolate chi into phi and test every consecutive pair.

    ``steps`` counts interpolation intervals (so the sweep has steps + 1
    rays).  If some consecutive pair is far enough apart the flip can sit
    there and the report is inconclusive; if every pair is forbidden the
    report certifies that no dispersion-free assignment survives the sweep.
    Identical rays produce a degenerate empty report.
    """
    if steps < 2:
        raise ValueError("need at least 2 interpolation steps")
    a = _normalize_ray(chi if not isinstance(chi, StateVector) else chi.amplitudes)
    b = _normalize_ray(phi if not isinstance(phi, StateVector) else phi.amplitudes)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError("rays live in different dimensions")

    overlap = np.vdot(a, b)
    if abs(overlap) > 1.0 - 1e-14:
        return RotationJumpReport("degenerate", (), 0.0, None)
    # align phase so the geodesic stays real in the (a, b) plane
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    b_aligned = b / phase
    angle = float(np.arccos(min(1.0, abs(overlap))))

    rays = []
    for k in range(steps + 1):
        t = k / steps
        ray = (
            np.sin((1 - t) * angle) * a + np.sin(t * angle) * b_aligned
        ) / np.sin(angle)
        rays.append(_normalize_ray(ray))

    records = []
    flip_at = None
    worst = 0.0
    for k in range(steps):
        result = separation_check(rays[k], rays[k + 1])
        worst = max(worst, result.distance)
        records.append(RotationStep(k, result.distance, result.forbidden))
        if not result.forbidden and flip_at is None:
            flip_at = k
    status = "inconclusive" if flip_at is not None else "contradiction"
    return RotationJumpReport(status, tuple(records), worst, flip_at)
