"""Decision calculus for quantum games.

A game is a prepared state, an observable with spectral data, and a payoff
function on the spectrum.  Games related by spectrum relabeling (with the
payoff pre-composed accordingly) or by unitary conjugation of state and
observable describe the same physical process and are recorded as
equipreferable; two further axioms constrain values across payoff shifts
(sure-thing) and payoff negation (zero-sum).  A linear solver over the
generated equivalence closure recovers forced game values, in particular
the equal-amplitude two-outcome value (half the summed payoffs, the chain
that ``derive_pivotal`` replays for two unit amplitudes and a linear
payoff) and the equal-weight equivalence of projector games.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InconsistentSystemError,
    LinearityError,
    PreconditionError,
    RelabelingError,
    UnitarityError,
)
from .hilbert import (
    Projector,
    SeparatingSet,
    StateVector,
    SymmetryUnitary,
    born_weight,
    permutation_unitary,
)
from .trace import GAME_RULES, DerivationTrace

SPECTRUM_TOL = 1e-10
WEIGHT_TOL = 1e-10
KEY_DECIMALS = 10
CLOSURE_TOL = 1e-9  # relative; cycles close only to the rounding of game keys
EQUIVALENCE_TOL = 1e-9  # solved values closer than this count as equal
MAX_CLOSURE_DEPTH = 100  # closure rounds; each may add games and rows


# ---------------------------------------------------------------------------
# payoffs and relabelings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffinePayoff:
    """Payoff x -> slope*x + offset.

    Linear (additive over label sums) exactly when the offset vanishes;
    nonzero offsets arise from composing a linear payoff with label shifts.
    """

    slope: float
    offset: float = 0.0

    def __call__(self, x: float) -> float:
        return self.slope * float(x) + self.offset

    @property
    def is_linear(self) -> bool:
        return self.offset == 0.0

    def key(self):
        return ("affine", round(self.slope, 12), round(self.offset, 12))

    def compose_affine(self, eps: float, c: float) -> "AffinePayoff":
        """Payoff composed with the label map x -> eps*x + c."""
        return AffinePayoff(self.slope * eps, self.offset + self.slope * c)


@dataclass(frozen=True)
class TabularPayoff:
    """Finite payoff table over spectrum values."""

    table: tuple[tuple[float, float], ...]

    def __init__(self, mapping):
        items = tuple(sorted((float(x), float(u)) for x, u in dict(mapping).items()))
        object.__setattr__(self, "table", items)

    def __call__(self, x: float) -> float:
        for key, value in self.table:
            if abs(key - float(x)) <= SPECTRUM_TOL:
                return value
        raise KeyError(f"payoff table has no entry for label {x}")

    def key(self):
        return ("table", tuple((round(x, 10), round(u, 10)) for x, u in self.table))


def linear_payoff(slope: float = 1.0) -> AffinePayoff:
    return AffinePayoff(float(slope), 0.0)


@dataclass(frozen=True)
class Relabeling:
    """Invertible map on spectrum labels.

    ``shift``, ``negate`` and their compositions stay affine (``eps``,
    ``c``); finite permutations (``mapping``) cover maps with no affine
    extension.
    """

    kind: str
    eps: float | None = None
    c: float | None = None
    mapping: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def shift(cls, s: float) -> "Relabeling":
        return cls(kind="shift", eps=1.0, c=float(s))

    @classmethod
    def negate(cls) -> "Relabeling":
        return cls(kind="negate", eps=-1.0, c=0.0)

    @classmethod
    def affine(cls, eps: float, c: float) -> "Relabeling":
        if eps == 0.0:
            raise RelabelingError("affine relabeling needs a nonzero scale")
        return cls(kind="affine", eps=float(eps), c=float(c))

    @classmethod
    def permutation(cls, mapping: dict) -> "Relabeling":
        pairs = tuple(sorted((float(a), float(b)) for a, b in mapping.items()))
        sources = [a for a, _ in pairs]
        targets = sorted(b for _, b in pairs)
        if len(set(sources)) != len(sources) or targets != sources:
            raise RelabelingError("permutation must be a bijection of the label set")
        return cls(kind="permutation", mapping=pairs)

    def __call__(self, x: float) -> float:
        x = float(x)
        if self.eps is not None:
            return self.eps * x + self.c
        for a, b in self.mapping:
            if abs(a - x) <= SPECTRUM_TOL:
                return b
        raise RelabelingError(f"label {x} outside the permutation's domain")

    def inverse(self, y: float) -> float:
        y = float(y)
        if self.eps is not None:
            return (y - self.c) / self.eps
        for a, b in self.mapping:
            if abs(b - y) <= SPECTRUM_TOL:
                return a
        raise RelabelingError(f"label {y} outside the permutation's range")


def _label_swap(spectrum: Sequence[float], a: float, b: float) -> Relabeling:
    """Relabeling exchanging labels ``a`` and ``b`` of ``spectrum``: affine on
    two outcomes, otherwise a permutation fixing every other label."""
    if len(spectrum) == 2:
        return Relabeling.affine(-1.0, a + b)
    mapping = {lam: lam for lam in spectrum}
    mapping[a], mapping[b] = b, a
    return Relabeling.permutation(mapping)


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------


def _round_key(values) -> tuple:
    arr = np.round(np.asarray(values, dtype=complex), KEY_DECIMALS) + 0.0
    return tuple(complex(v) for v in arr.ravel())


def _unit_state(state) -> np.ndarray:
    if isinstance(state, StateVector):
        state = state.amplitudes
    state = np.asarray(state, dtype=complex).reshape(-1)
    norm = np.linalg.norm(state)
    if norm == 0.0:
        raise PreconditionError("game needs a nonzero prepared state")
    return state / norm


@dataclass(frozen=True)
class Game:
    """Prepared state, spectral observable, payoff.

    The observable is stored as spectral pairs (label, projector) with
    distinct labels and orthogonal projectors summing to the identity; the
    state is stored normalized.
    """

    state: np.ndarray
    spectral: tuple[tuple[float, Projector], ...]
    payoff: object

    def __init__(self, state, spectral, payoff):
        state = _unit_state(state)
        state.setflags(write=False)
        spectral = tuple(
            (float(lam), proj) for lam, proj in sorted(spectral, key=lambda p: -p[0])
        )
        if not spectral:
            raise PreconditionError("game needs at least one outcome")
        dim = spectral[0][1].dim
        if dim != state.shape[0]:
            raise DimensionMismatchError("state and observable dimensions differ")
        labels = [lam for lam, _ in spectral]
        for a, b in itertools.combinations(labels, 2):
            if abs(a - b) <= SPECTRUM_TOL:
                raise PreconditionError(f"spectral labels {a} and {b} coincide")
        total = sum(proj.as_matrix() for _, proj in spectral)
        if np.max(np.abs(total - np.eye(dim))) > 1e-9:
            raise PreconditionError("spectral projectors must sum to the identity")
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "spectral", spectral)
        object.__setattr__(self, "payoff", payoff)

    def _with_payoff(self, payoff) -> "Game":
        """This game's validated state and observable under another payoff."""
        game = object.__new__(Game)
        object.__setattr__(game, "state", self.state)
        object.__setattr__(game, "spectral", self.spectral)
        object.__setattr__(game, "payoff", payoff)
        return game

    @classmethod
    def projector_game(cls, state, proj: Projector, payoff) -> "Game":
        """Game measuring a single projector: labels 1 on it, 0 on the rest."""
        return cls(state, [(1.0, proj), (0.0, proj.complement())], payoff)

    @property
    def dim(self) -> int:
        return self.state.shape[0]

    @property
    def spectrum(self) -> tuple[float, ...]:
        return tuple(lam for lam, _ in self.spectral)

    def outcome_weights(self) -> tuple[float, ...]:
        psi = StateVector(self.state)
        return tuple(born_weight(psi, proj) for _, proj in self.spectral)

    def born_value(self) -> float:
        """Weighted payoff under the state's projector weights."""
        return float(
            sum(w * self.payoff(lam) for w, (lam, _) in zip(self.outcome_weights(), self.spectral))
        )

    def key(self):
        """Rounded state, spectral pairs and payoff; built once, as a game is frozen."""
        if "_key" not in self.__dict__:
            key = (
                _round_key(self.state),
                tuple((round(lam, KEY_DECIMALS), proj.key()) for lam, proj in self.spectral),
                self.payoff.key(),
            )
            object.__setattr__(self, "_key", key)
        return self._key


def relabel_game(game: Game, f: Relabeling) -> Game:
    """Relabeled presentation: labels pushed through f, payoff pre-composed
    with its inverse.  The two games describe the same physical process."""
    new_labels = [f(lam) for lam in game.spectrum]
    for a, b in itertools.combinations(new_labels, 2):
        if abs(a - b) <= SPECTRUM_TOL:
            raise RelabelingError("relabeling collapses two spectrum labels")
    for lam, new in zip(game.spectrum, new_labels):
        if abs(f.inverse(new) - lam) > 1e-9:
            raise RelabelingError("relabeling is not invertible on the spectrum")
    if f.eps is not None and isinstance(game.payoff, AffinePayoff):
        # payoff o f^{-1}: x -> payoff((x - c)/eps)
        new_payoff = game.payoff.compose_affine(1.0 / f.eps, -f.c / f.eps)
    else:
        new_payoff = TabularPayoff(
            {new: game.payoff(lam) for lam, new in zip(game.spectrum, new_labels)}
        )
    spectral = tuple((new, proj) for new, (_, proj) in zip(new_labels, game.spectral))
    return Game(game.state, spectral, new_payoff)


def transform_game(game: Game, unitary) -> Game:
    """Conjugated presentation: state and observable moved by one unitary."""
    if not isinstance(unitary, SymmetryUnitary):
        if np.shape(unitary) != (game.dim, game.dim):
            raise UnitarityError("transformation must be unitary on the game's space")
        unitary = SymmetryUnitary(unitary, tol=1e-10)
    matrix = unitary.matrix
    spectral = []
    for lam, proj in game.spectral:
        moved = matrix @ proj.as_matrix() @ matrix.conj().T
        spectral.append((lam, Projector.from_matrix(moved, tol=1e-9)))
    return Game(matrix @ game.state, spectral, game.payoff)


# ---------------------------------------------------------------------------
# constraints and the value solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """Linear relation sum(coeff * V(game)) = const."""

    terms: tuple[tuple[tuple, float], ...]  # (game key, coefficient)
    const: float
    kind: str
    note: str = ""

    def residual(self, assignment: dict) -> float:
        return abs(sum(c * assignment[k] for k, c in self.terms) - self.const)


@dataclass(frozen=True)
class GameValue:
    """Solved value of one game, with the trace that produced it."""

    value: float | None
    game_key: tuple
    provenance: DerivationTrace | None = None

    @property
    def known(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class ValueSolveResult:
    values: dict
    rank: int
    n_unknowns: int
    freedom: int
    constraints: tuple[Constraint, ...]
    _index: dict | None = None  # key -> (root, sign, offset, exact value or None)

    @property
    def full_rank(self) -> bool:
        return self.freedom == 0

    def value_of(self, game: Game) -> float | None:
        gv = self.values.get(game.key())
        return gv.value if gv is not None else None

    def difference(self, a: Game, b: Game) -> float | None:
        """V(a) - V(b) when the constraints pin that difference, else None.

        A difference can be forced (e.g. by a recorded equivalence) even
        when the individual values float freely.
        """
        pa, pb = self._index.get(a.key()), self._index.get(b.key())
        if pa is None or pb is None:
            return None
        (ra, sa, oa, xa), (rb, sb, ob, xb) = pa, pb
        if xa is not None and xb is not None:
            return float(xa - xb)
        return float(oa - ob) if (ra, sa) == (rb, sb) else None


def projector_swap(state, p1: Projector, p2: Projector) -> np.ndarray | None:
    """State-preserving unitary exchanging the ranges of two orthogonal projectors.

    Exists when the projectors have equal rank and the state's components
    in them have equal norm: the normalised components map onto each other,
    the remaining range directions pair off, and everything outside the two
    ranges stays fixed (``permutation_unitary`` on the pair).  A component
    with no weight is replaced by a unit vector of its range.
    """
    state = _unit_state(state)
    if p1.rank != p2.rank:
        return None
    comps = [p1.apply(state), p2.apply(state)]
    norms = [np.linalg.norm(comp) for comp in comps]
    if abs(norms[0] - norms[1]) > WEIGHT_TOL:
        return None
    if p1.rank == 0:
        return np.eye(p1.dim, dtype=complex)
    vectors = []
    for proj, comp, norm in zip((p1, p2), comps, norms):
        if norm <= WEIGHT_TOL:
            mat = proj.as_matrix()
            comp = mat[:, np.argmax(np.linalg.norm(mat, axis=0))]
            norm = np.linalg.norm(comp)
        vectors.append(comp / norm)
    return permutation_unitary((1, 0), SeparatingSet(vectors, (p1, p2))).matrix


class ValueSolver:
    """Registry of games, recorded equivalences, and axiom constraints."""

    def __init__(self):
        self.games: dict[tuple, Game] = {}
        self.constraints: list[Constraint] = []

    def register(self, game: Game) -> tuple:
        key = game.key()
        self.games.setdefault(key, game)
        return key

    def _equate(self, a: Game, b: Game, kind: str, note: str) -> None:
        ka, kb = self.register(a), self.register(b)
        if ka == kb:
            return
        self.constraints.append(
            Constraint(terms=((ka, 1.0), (kb, -1.0)), const=0.0, kind=kind, note=note)
        )

    def relabel(self, game: Game, f: Relabeling) -> Game:
        moved = relabel_game(game, f)
        self._equate(game, moved, "payoff-equivalence", f"relabel {f.kind}")
        return moved

    def transform(self, game: Game, unitary) -> Game:
        moved = transform_game(game, unitary)
        self._equate(game, moved, "measurement-equivalence", "unitary conjugation")
        return moved

    def sure_thing(self, game: Game, s: float) -> Game:
        """Shifted game: same observable, payoff pre-composed with x -> x+s.

        The value offset equals the payoff of the shift only for a linear
        payoff, so (like negation) the axiom is emitted for linear bases.
        """
        if not (isinstance(game.payoff, AffinePayoff) and game.payoff.is_linear):
            raise LinearityError("the shift axiom needs a linear payoff")
        shifted = game._with_payoff(game.payoff.compose_affine(1.0, s))
        ka, kb = self.register(game), self.register(shifted)
        if s != 0.0:
            self.constraints.append(
                Constraint(
                    terms=((kb, 1.0), (ka, -1.0)),
                    const=game.payoff(s),
                    kind="sure-thing",
                    note=f"shift {s}",
                )
            )
        return shifted

    def zero_sum(self, game: Game) -> Game:
        """Negated game: payoff pre-composed with x -> -x; values negate.

        Reversing the labels negates every outcome's payoff only for a
        linear (odd) payoff, so affine offsets are rejected.
        """
        if not (isinstance(game.payoff, AffinePayoff) and game.payoff.is_linear):
            raise LinearityError("the negation axiom needs a linear payoff")
        negated = game._with_payoff(game.payoff.compose_affine(-1.0, 0.0))
        ka, kb = self.register(game), self.register(negated)
        self.constraints.append(
            Constraint(
                terms=((ka, 1.0), (kb, 1.0)),
                const=0.0,
                kind="zero-sum",
                note="negation",
            )
        )
        return negated

    # -- canonical closure ---------------------------------------------------

    def expand_game(self, game: Game) -> list[Game]:
        """Apply every canonical move available on one game.

        Moves: state-preserving eigenspace swaps (conjugation), the matching
        label swap (relabeling; affine on two-point spectra), the shift
        decomposition of an affine payoff, and payoff negation.
        """
        produced = []
        n = len(game.spectral)
        weights = game.outcome_weights()
        for j in range(n):
            for k in range(j + 1, n):
                if abs(weights[j] - weights[k]) > WEIGHT_TOL:
                    continue
                (lam_j, p_j), (lam_k, p_k) = game.spectral[j], game.spectral[k]
                u = projector_swap(game.state, p_j, p_k)
                if u is None:
                    continue
                produced.append(self.transform(game, u))
                produced.append(self.relabel(game, _label_swap(game.spectrum, lam_j, lam_k)))
        if isinstance(game.payoff, AffinePayoff):
            if game.payoff.offset != 0.0 and game.payoff.slope != 0.0:
                produced.append(
                    self.sure_thing(
                        game._with_payoff(AffinePayoff(game.payoff.slope, 0.0)),
                        game.payoff.offset / game.payoff.slope,
                    )
                )
            if game.payoff.is_linear:
                produced.append(self.zero_sum(game))
        return produced

    def solve(self) -> ValueSolveResult:
        """Exact values from the signed constraint graph.

        Every row reads sa*V(a) + sb*V(b) = c with sa, sb = +-1.  Each
        component is walked from its first game, writing every value as
        sign*root + offset in fractions: a same-sign cycle must close its
        constant and an opposite-sign cycle pins the root, both to
        ``CLOSURE_TOL`` (relative), since game keys are rounded.
        """
        edges = {key: [] for key in self.games}
        for i, con in enumerate(self.constraints):
            (ka, ca), (kb, cb) = con.terms
            edges[ka].append((i, int(ca), kb, int(cb)))
            edges[kb].append((i, int(cb), ka, int(ca)))
        place, pins, done = {}, {}, set()
        for root in edges:
            if root in place:
                continue
            place[root] = (root, 1, Fraction(0))
            stack = [root]
            while stack:
                u = stack.pop()
                _, su, ou = place[u]
                for i, cu, v, cv in edges[u]:
                    if i in done:  # each row is placed or checked once
                        continue
                    done.add(i)
                    con = self.constraints[i]
                    const = Fraction(con.const)
                    if v not in place:
                        place[v] = (root, -cv * cu * su, cv * (const - cu * ou))
                        stack.append(v)
                        continue
                    k = cu * su + cv * place[v][1]
                    want, got = const, cu * ou + cv * place[v][2]
                    if k:  # opposite-sign cycle: pins the root
                        got = (const - got) / k
                        want = pins.setdefault(root, got)
                    if abs(want - got) > CLOSURE_TOL * max(1, abs(want), abs(got)):
                        raise InconsistentSystemError(
                            f"{con.kind} row {i} ({con.note}) does not close: "
                            f"{float(got)} against {float(want)}",
                            conflict=(f"{con.kind}[{i}]",),
                        )
        index, values = {}, {}
        for key in edges:
            root, s, o = place[key]
            exact = s * pins[root] + o if root in pins else None
            index[key] = (root, s, o, exact)
            values[key] = GameValue(None if exact is None else float(exact), key)
        freedom = len({root for root, *_ in place.values()} - pins.keys())
        return ValueSolveResult(
            values=values,
            rank=len(place) - freedom,
            n_unknowns=len(place),
            freedom=freedom,
            constraints=tuple(self.constraints),
            _index=index,
        )


def born_assignment(games: Iterable[Game]) -> dict:
    return {g.key(): g.born_value() for g in games}


def verify_soundness(constraints: Iterable[Constraint], games: Iterable[Game]) -> float:
    """Largest residual of the weight-consistent value assignment.

    The assignment V(g) = sum of projector weights times payoffs satisfies
    every recorded equivalence and axiom; the return value is the worst
    residual, which callers compare with their own bound.
    """
    assignment = born_assignment(games)
    worst = 0.0
    for con in constraints:
        worst = max(worst, con.residual(assignment))
    return worst


# ---------------------------------------------------------------------------
# the equal-amplitude two-outcome derivation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PivotalResult:
    value: GameValue
    solver: ValueSolver
    trace: DerivationTrace


def derive_pivotal(x1: float, x2: float, payoff: AffinePayoff) -> PivotalResult:
    """Forced value of the equal-amplitude two-outcome game.

    Replays the four-step chain: a state-preserving swap of the two
    eigenspaces (measurement equivalence), the matching label swap (payoff
    equivalence), the shift decomposition of the swapped payoff
    (sure-thing), and payoff negation (zero-sum).  The chain closes to
    2V = payoff(x1) + payoff(x2).  Each step is numerically validated
    against the weight-consistent assignment.
    """
    if not isinstance(payoff, AffinePayoff) or not payoff.is_linear:
        raise LinearityError("the derivation needs a linear payoff")
    if abs(float(x1) - float(x2)) <= SPECTRUM_TOL:
        return _degenerate_pivotal(x1, payoff)
    state = np.ones(2, dtype=complex)
    spectral = [
        (float(x1), Projector.from_cells([0], 2)),
        (float(x2), Projector.from_cells([1], 2)),
    ]

    solver = ValueSolver()
    trace = DerivationTrace(rules=GAME_RULES)
    game = Game(state, spectral, payoff)
    solver.register(game)

    u = projector_swap(state, spectral[0][1], spectral[1][1])
    conjugated = solver.transform(game, u)
    _validate_step(trace, "measurement-equivalence", game, conjugated, 0.0)

    relabeled = solver.relabel(conjugated, _label_swap(game.spectrum, float(x1), float(x2)))
    _validate_step(trace, "payoff-equivalence", conjugated, relabeled, 0.0)

    # relabeled payoff is (payoff o -I) o shift(-(x1+x2)); peel the shift
    negated_payoff_game = game._with_payoff(payoff.compose_affine(-1.0, 0.0))
    shift = -(float(x1) + float(x2))
    shifted = solver.sure_thing(negated_payoff_game, shift)
    if shifted.key() != relabeled.key() and shift != 0.0:
        raise AssertionError("shift decomposition failed to close the chain")
    _validate_step(
        trace,
        "sure-thing",
        shifted,
        negated_payoff_game,
        negated_payoff_game.payoff(shift),
    )

    negated = solver.zero_sum(game)
    _validate_step(trace, "zero-sum", game, negated, None)

    result = solver.solve()
    value = result.value_of(game)
    expected = 0.5 * (payoff(x1) + payoff(x2))
    if value is None or abs(value - expected) > 1e-9:
        raise AssertionError(
            f"pivotal chain solved to {value}, expected {expected}"
        )
    trace.add(
        "sure-thing",
        f"chain closes: twice the value equals payoff({x1}) + payoff({x2}); "
        f"value = {expected}",
        premises=("sure-thing", "zero-sum"),
        payload={"value": expected, "rank": result.rank, "unknowns": result.n_unknowns},
    )
    return PivotalResult(
        value=GameValue(value, game.key(), provenance=trace),
        solver=solver,
        trace=trace,
    )


def _degenerate_pivotal(x: float, payoff: AffinePayoff) -> PivotalResult:
    """Both labels equal: the game pays payoff(x) on every outcome."""
    state = np.array([1.0, 1.0])
    game = Game(state, [(float(x), Projector.from_cells([0, 1], 2))], payoff)
    solver = ValueSolver()
    key = solver.register(game)
    trace = DerivationTrace(rules=GAME_RULES)
    trace.add(
        "sure-thing",
        f"single-outcome game pays payoff({x}) with certainty",
        premises=("sure-thing",),
        payload={"value": payoff(x)},
    )
    return PivotalResult(
        value=GameValue(payoff(x), key, provenance=trace), solver=solver, trace=trace
    )


def _validate_step(trace, rule, left: Game, right: Game, offset: float | None) -> None:
    """Record a chain step, checking it against the weight assignment.

    ``offset`` None marks a negation step (values must be opposite);
    otherwise V(left) = V(right) + offset must hold.
    """
    lv, rv = left.born_value(), right.born_value()
    residual = abs(lv + rv) if offset is None else abs(lv - rv - offset)
    if residual > 1e-10:
        raise AssertionError(f"{rule} step fails under the weight assignment: {residual}")
    claim = (
        "values negate under payoff reversal"
        if offset is None
        else ("values agree" if offset == 0.0 else f"values differ by {offset}")
    )
    trace.add(
        rule,
        claim,
        premises=(rule,),
        payload={"left": lv, "right": rv, "residual": residual},
    )


def general_equivalence_check(result: ValueSolveResult, games: Sequence[Game]) -> list[dict]:
    """Check solved values across games with matching outcome statistics.

    Two games whose (weight, payoff) outcome profiles coincide — possibly
    with different states and observables — should be valued equally.
    This is checked on solved values, never assumed as an axiom; pairs
    whose difference the constraints leave open are reported as such.
    """

    def profile(game: Game):
        return tuple(
            sorted(
                (round(w, 10), round(game.payoff(lam), 10))
                for w, (lam, _) in zip(game.outcome_weights(), game.spectral)
            )
        )

    rows = []
    profiles = [profile(g) for g in games]
    for i in range(len(games)):
        for j in range(i + 1, len(games)):
            if profiles[i] != profiles[j]:
                continue
            diff = result.difference(games[i], games[j])
            rows.append(
                {
                    "pair": (i, j),
                    "difference": diff,
                    "equal": diff is not None and abs(diff) <= EQUIVALENCE_TOL,
                    "determined": diff is not None,
                }
            )
    return rows


def value_solve(
    games: Sequence[Game],
    closure_depth: int,
    *,
    unitaries: Sequence[np.ndarray] = (),
) -> ValueSolveResult:
    """Solve for game values over the generated equivalence closure.

    Canonical moves (eigenspace swaps, label swaps, shift decompositions,
    negations) are applied ``closure_depth`` times, together with any
    explicitly supplied unitaries.  Depth zero emits no constraints and
    leaves everything undetermined.
    """
    if not 0 <= closure_depth <= MAX_CLOSURE_DEPTH:
        raise PreconditionError(f"'depth' must be in [0, {MAX_CLOSURE_DEPTH}]: {closure_depth}")
    solver = ValueSolver()
    for game in games:
        solver.register(game)
    frontier = list(solver.games.values())
    for _ in range(int(closure_depth)):
        seen = len(solver.games)
        for game in frontier:
            solver.expand_game(game)
            for u in unitaries:
                if np.asarray(u).shape == (game.dim, game.dim):
                    solver.transform(game, u)
        # re-expanding a game re-emits only rows already present
        frontier = list(solver.games.values())[seen:]
    return solver.solve()
