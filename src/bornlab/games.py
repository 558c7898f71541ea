"""Decision calculus for quantum games.

A game is a prepared state, an observable with spectral data, and a payoff
function on the spectrum.  Games related by spectrum relabeling (with the
payoff pre-composed accordingly) or by unitary conjugation of state and
observable describe the same physical process and are recorded as
equipreferable; two further axioms constrain values across payoff shifts
(sure-thing) and payoff negation (zero-sum).

Spectrum labels, relabelings and payoffs are exact rationals, converted
once from the input floats, so every constraint row has coefficients +-1
and an exact constant.  ``exactlin.solve_exact`` solves the rows of the
generated equivalence closure for the forced game values, in particular
the equal-amplitude two-outcome value (half the summed payoffs, the chain
that ``derive_pivotal`` replays for two unit amplitudes and a linear
payoff) and the equal-weight equivalence of projector games.

Every measurement equivalence is a swap of two cell projectors of equal
rank in which the state's components have equal norm; ``projector_swap``
alone decides which pairs swap.  Its unitary fixes the state, so a swapped
game keeps its input game's state array and trades cells exactly: every
game of a closure shares one state, and game keys are exact.
The pivotal chain's trace records each step's residual under the weight
assignment; the soundness verdict judges them.
"""

from __future__ import annotations

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
)
from .exactlin import require_feasible, solve_exact
from .hilbert import Projector, StateVector, born_weight, resolves_identity
from .trace import DerivationTrace

WEIGHT_TOL = 1e-10
SOUNDNESS_TOL = 1e-10  # largest residual the weight assignment may leave on a row
MAX_CLOSURE_DEPTH = 100  # closure rounds; each may add games and rows


# ---------------------------------------------------------------------------
# payoffs and relabelings
# ---------------------------------------------------------------------------


def _exact(x) -> Fraction:
    """``x`` as an exact rational: a float converts without rounding."""
    return x if type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class AffinePayoff:
    """Payoff x -> slope*x + offset, with exact rational coefficients.

    Linear (additive over label sums) exactly when the offset vanishes;
    nonzero offsets arise from composing a linear payoff with label shifts.
    """

    slope: Fraction
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "slope", _exact(self.slope))
        object.__setattr__(self, "offset", _exact(self.offset))

    def __call__(self, x) -> Fraction:
        return self.slope * _exact(x) + self.offset

    @property
    def is_linear(self) -> bool:
        return not self.offset

    def key(self):
        return ("affine", self.slope.as_integer_ratio(), self.offset.as_integer_ratio())

    def compose_affine(self, eps, c) -> "AffinePayoff":
        """Payoff composed with the label map x -> eps*x + c."""
        return AffinePayoff(self.slope * eps, self.offset + self.slope * c)


@dataclass(frozen=True)
class TabularPayoff:
    """Finite payoff table over exact spectrum labels."""

    table: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, mapping):
        items = tuple(sorted((_exact(x), _exact(u)) for x, u in dict(mapping).items()))
        object.__setattr__(self, "table", items)

    def __call__(self, x) -> Fraction:
        x = _exact(x)
        for key, value in self.table:
            if key == x:
                return value
        raise PreconditionError(f"payoff table has no entry for label {float(x)}")

    def key(self):
        pairs = tuple((x.as_integer_ratio(), u.as_integer_ratio()) for x, u in self.table)
        return ("table", pairs)


def linear_payoff(slope: float = 1.0) -> AffinePayoff:
    return AffinePayoff(slope)


@dataclass(frozen=True)
class Relabeling:
    """Invertible map on spectrum labels, exact on rationals.

    ``shift``, ``negate`` and their compositions stay affine (``eps``,
    ``c``); finite permutations (``mapping``) cover maps with no affine
    extension.
    """

    kind: str
    eps: Fraction | None = None
    c: Fraction | None = None
    mapping: tuple[tuple[Fraction, Fraction], ...] | None = None

    @classmethod
    def shift(cls, s) -> "Relabeling":
        return cls(kind="shift", eps=Fraction(1), c=_exact(s))

    @classmethod
    def negate(cls) -> "Relabeling":
        return cls(kind="negate", eps=Fraction(-1), c=Fraction(0))

    @classmethod
    def affine(cls, eps, c) -> "Relabeling":
        if eps == 0:
            raise RelabelingError("affine relabeling needs a nonzero scale")
        return cls(kind="affine", eps=_exact(eps), c=_exact(c))

    @classmethod
    def permutation(cls, mapping: dict) -> "Relabeling":
        pairs = tuple(sorted((_exact(a), _exact(b)) for a, b in mapping.items()))
        sources = [a for a, _ in pairs]
        targets = sorted(b for _, b in pairs)
        if len(set(sources)) != len(sources) or targets != sources:
            raise RelabelingError("permutation must be a bijection of the label set")
        return cls(kind="permutation", mapping=pairs)

    def __call__(self, x) -> Fraction:
        x = _exact(x)
        if self.eps is not None:
            return self.eps * x + self.c
        for a, b in self.mapping:
            if a == x:
                return b
        raise RelabelingError(f"label {float(x)} outside the permutation's domain")


def _label_swap(spectrum: Sequence[Fraction], a: Fraction, b: Fraction) -> Relabeling:
    """Relabeling exchanging labels ``a`` and ``b`` of ``spectrum``: affine on
    two outcomes, otherwise a permutation fixing every other label."""
    if len(spectrum) == 2:
        return Relabeling.affine(-1, a + b)
    mapping = {lam: lam for lam in spectrum}
    mapping[a], mapping[b] = b, a
    return Relabeling.permutation(mapping)


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------


def _unit_state(state) -> np.ndarray:
    state = np.asarray(state, dtype=complex).reshape(-1)
    norm = np.linalg.norm(state)
    if norm == 0.0:
        raise PreconditionError("game needs a nonzero prepared state")
    return state / norm


@dataclass(frozen=True)
class Game:
    """Prepared state, spectral observable, payoff.

    The observable is stored as spectral pairs (label, projector) with
    distinct exact labels and orthogonal projectors summing to the identity;
    the state is stored normalized.
    """

    state: np.ndarray
    spectral: tuple[tuple[Fraction, Projector], ...]
    payoff: object

    def __init__(self, state, spectral, payoff):
        state = _unit_state(state)
        state.setflags(write=False)
        spectral = tuple(
            (_exact(lam), proj) for lam, proj in sorted(spectral, key=lambda p: -p[0])
        )
        if not spectral:
            raise PreconditionError("game needs at least one outcome")
        dim = spectral[0][1].dim
        if dim != state.shape[0]:
            raise DimensionMismatchError("state and observable dimensions differ")
        for (a, _), (b, _) in zip(spectral, spectral[1:]):
            if a == b:
                raise PreconditionError(f"spectral labels {float(a)} and {float(b)} coincide")
        if not resolves_identity((proj for _, proj in spectral), dim):
            raise PreconditionError("spectral projectors must sum to the identity")
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "spectral", spectral)
        object.__setattr__(self, "payoff", payoff)

    def _with_payoff(self, payoff, labels=None, projectors=None) -> "Game":
        """This game's validated state under another payoff, with new distinct
        ``labels`` or new ``projectors`` resolving the identity, each given in
        the order of the spectral pairs."""
        spectral = self.spectral
        if labels is not None or projectors is not None:
            labels = self.spectrum if labels is None else labels
            projectors = [proj for _, proj in spectral] if projectors is None else projectors
            pairs = zip(labels, projectors)
            spectral = tuple(sorted(pairs, key=lambda p: p[0], reverse=True))
        game = object.__new__(Game)
        object.__setattr__(game, "state", self.state)
        object.__setattr__(game, "spectral", spectral)
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
    def spectrum(self) -> tuple[Fraction, ...]:
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
        """Exact state bytes, projectors, labels and payoff; built once, as a
        game is frozen.  Games derived from one another share the state array."""
        if "_key" not in self.__dict__:
            key = (
                self.state.tobytes(),
                tuple((lam.as_integer_ratio(), proj.cells) for lam, proj in self.spectral),
                self.payoff.key(),
            )
            object.__setattr__(self, "_key", key)
        return self._key


def relabel_game(game: Game, f: Relabeling) -> Game:
    """Relabeled presentation: labels pushed through f, payoff pre-composed
    with its inverse.  The two games describe the same physical process.

    An exact affine map or bijection is invertible, so only a map that
    sends two labels to one (a zero scale built past ``Relabeling.affine``)
    is rejected.
    """
    new_labels = [f(lam) for lam in game.spectrum]
    if len(set(new_labels)) < len(new_labels):
        raise RelabelingError("relabeling collapses two spectrum labels")
    if f.eps is not None and isinstance(game.payoff, AffinePayoff):
        # payoff o f^{-1}: x -> payoff((x - c)/eps)
        new_payoff = game.payoff.compose_affine(1 / f.eps, -f.c / f.eps)
    else:
        new_payoff = TabularPayoff(
            {new: game.payoff(lam) for lam, new in zip(game.spectrum, new_labels)}
        )
    return game._with_payoff(new_payoff, new_labels)


def transform_game(game: Game, swap: tuple[Projector, Projector]) -> Game:
    """Conjugated presentation under a swap from ``projector_swap``.

    The swap's unitary fixes the game's state and exchanges the two ranges,
    so it carries a projector that holds or misses each range whole onto
    the same cells with the two ranges traded; the state stays the same
    array.  Ranges of unequal rank, or a projector that splits a swapped
    range, raise ``PreconditionError``.
    """
    first, second = (p.index_set() for p in swap)
    if len(first) != len(second) or first & second:
        raise PreconditionError("a swap exchanges disjoint ranges of equal rank")
    projectors = []
    for _, proj in game.spectral:
        cells = proj.index_set()
        holds = first <= cells, second <= cells
        if (not holds[0] and cells & first) or (not holds[1] and cells & second):
            raise PreconditionError("a game projector splits a swapped range")
        if holds[0] != holds[1]:
            proj = Projector.from_cells(cells ^ first ^ second, game.dim)
        projectors.append(proj)
    return game._with_payoff(game.payoff, projectors=projectors)


# ---------------------------------------------------------------------------
# constraints and the value solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """Linear relation sum(coeff * V(game)) = const, with coefficients +-1
    and an exact rational constant."""

    terms: tuple[tuple[tuple, int], ...]  # (game key, coefficient)
    const: Fraction
    kind: str
    note: str = ""

    def residual(self, assignment: dict) -> float:
        return abs(sum(c * assignment[k] for k, c in self.terms) - self.const)


@dataclass(frozen=True)
class GameValue:
    """Solved value of one game."""

    value: float
    game_key: tuple


@dataclass(frozen=True)
class ValueSolveResult:
    rank: int
    n_unknowns: int
    constraints: tuple[Constraint, ...]
    # key -> (value in one particular solution, its component in each nullspace vector)
    exact: dict

    @property
    def freedom(self) -> int:
        return self.n_unknowns - self.rank

    @property
    def full_rank(self) -> bool:
        return self.freedom == 0

    def value_of(self, game: Game) -> float | None:
        value = self.exact_value(game)
        return None if value is None else float(value)

    def exact_value(self, game: Game) -> Fraction | None:
        """V(game) when no nullspace vector moves it, else None."""
        entry = self.exact.get(game.key())
        return None if entry is None or any(entry[1]) else entry[0]

    def exact_difference(self, a: Game, b: Game) -> Fraction | None:
        """V(a) - V(b) when every nullspace vector moves both values alike.

        A difference can be forced (e.g. by a recorded equivalence) even
        when the individual values float freely.
        """
        pa, pb = self.exact.get(a.key()), self.exact.get(b.key())
        if pa is None or pb is None or pa[1] != pb[1]:
            return None
        return pa[0] - pb[0]

    def difference(self, a: Game, b: Game) -> float | None:
        diff = self.exact_difference(a, b)
        return None if diff is None else float(diff)


def projector_swap(
    state, p1: Projector, p2: Projector
) -> tuple[Projector, Projector] | None:
    """The pair ``(p1, p2)`` when a unitary fixing the state exchanges their ranges.

    Two orthogonal cell projectors admit one when they have equal rank and
    the state's components in them have equal norm (within ``WEIGHT_TOL``):
    the normalised components map onto each other, the remaining range
    directions pair off, and everything outside the two ranges stays fixed.
    ``transform_game`` applies the swap; ``None`` means there is none.
    """
    if p1.index_set() & p2.index_set():
        raise PreconditionError("swapped projectors must be orthogonal")
    state = _unit_state(state)
    if p1.rank != p2.rank:
        return None
    norms = [np.linalg.norm(p.apply(state)) for p in (p1, p2)]
    if abs(norms[0] - norms[1]) > WEIGHT_TOL:
        return None
    return p1, p2


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
        self.constraints.append(Constraint(((ka, 1), (kb, -1)), 0, kind, note))

    def relabel(self, game: Game, f: Relabeling) -> Game:
        moved = relabel_game(game, f)
        self._equate(game, moved, "payoff-equivalence", f"relabel {f.kind}")
        return moved

    def transform(self, game: Game, swap) -> Game:
        moved = transform_game(game, swap)
        self._equate(game, moved, "measurement-equivalence", "unitary conjugation")
        return moved

    def sure_thing(self, game: Game, s) -> Game:
        """Shifted game: same observable, payoff pre-composed with x -> x+s.

        The value offset equals the payoff of the shift only for a linear
        payoff, so (like negation) the axiom is emitted for linear bases.
        """
        if not (isinstance(game.payoff, AffinePayoff) and game.payoff.is_linear):
            raise LinearityError("the shift axiom needs a linear payoff")
        s = _exact(s)
        shifted = game._with_payoff(game.payoff.compose_affine(1, s))
        ka, kb = self.register(game), self.register(shifted)
        if s:
            self.constraints.append(
                Constraint(((kb, 1), (ka, -1)), game.payoff(s), "sure-thing", f"shift {float(s)}")
            )
        return shifted

    def zero_sum(self, game: Game) -> Game:
        """Negated game: payoff pre-composed with x -> -x; values negate.

        Reversing the labels negates every outcome's payoff only for a
        linear (odd) payoff, so affine offsets are rejected.
        """
        if not (isinstance(game.payoff, AffinePayoff) and game.payoff.is_linear):
            raise LinearityError("the negation axiom needs a linear payoff")
        negated = game._with_payoff(game.payoff.compose_affine(-1, 0))
        ka, kb = self.register(game), self.register(negated)
        self.constraints.append(Constraint(((ka, 1), (kb, 1)), 0, "zero-sum", "negation"))
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
        for j in range(n):
            for k in range(j + 1, n):
                (lam_j, p_j), (lam_k, p_k) = game.spectral[j], game.spectral[k]
                swap = projector_swap(game.state, p_j, p_k)
                if swap is None:
                    continue
                produced.append(self.transform(game, swap))
                produced.append(self.relabel(game, _label_swap(game.spectrum, lam_j, lam_k)))
        if isinstance(game.payoff, AffinePayoff):
            if game.payoff.offset and game.payoff.slope:
                produced.append(
                    self.sure_thing(
                        game._with_payoff(AffinePayoff(game.payoff.slope)),
                        game.payoff.offset / game.payoff.slope,
                    )
                )
            if game.payoff.is_linear:
                produced.append(self.zero_sum(game))
        return produced

    def solve(self) -> ValueSolveResult:
        """Exact game values from ``exactlin.solve_exact``.

        Every row reads sa*V(a) + sb*V(b) = c with sa, sb = +-1 and c
        exact.  A value is forced when no nullspace vector moves it, and a
        difference when every nullspace vector moves both games alike.
        Rows that contradict each other raise ``InconsistentSystemError``
        naming them.
        """
        keys = list(self.games)
        n = len(keys)
        if self.constraints:
            index = {key: j for j, key in enumerate(keys)}
            rows = []
            for con in self.constraints:
                row = [0] * n
                for key, coeff in con.terms:
                    row[index[key]] += coeff
                rows.append(row)
            labels = [f"{con.kind}[{i}]" for i, con in enumerate(self.constraints)]
            rhs = [con.const for con in self.constraints]
            solved = require_feasible(solve_exact(rows, rhs, labels), "game values")
            rank, solution, nullspace = solved.rank, solved.solution, solved.nullspace
        else:  # no rows: every value moves freely
            rank, solution = 0, [0] * n
            nullspace = [[int(i == j) for j in range(n)] for i in range(n)]
        exact = {
            key: (solution[j], tuple(vec[j] for vec in nullspace)) for j, key in enumerate(keys)
        }
        return ValueSolveResult(rank, n, tuple(self.constraints), exact)


def born_assignment(games: Iterable[Game]) -> dict:
    return {g.key(): g.born_value() for g in games}


def verify_soundness(constraints: Iterable[Constraint], games: Iterable[Game]) -> float:
    """Largest residual of the weight-consistent value assignment.

    The assignment V(g) = sum of projector weights times payoffs satisfies
    every recorded equivalence and axiom; the return value is the worst
    residual, which a sound constraint set keeps within ``SOUNDNESS_TOL``.
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
    exact: Fraction  # the forced value; ``value.value`` is its float
    solver: ValueSolver
    trace: DerivationTrace


def derive_pivotal(x1: float, x2: float, payoff: AffinePayoff) -> PivotalResult:
    """Forced value of the equal-amplitude two-outcome game.

    Replays the four-step chain: a state-preserving swap of the two
    eigenspaces (measurement equivalence), the matching label swap (payoff
    equivalence), the shift decomposition of the swapped payoff
    (sure-thing), and payoff negation (zero-sum).  The chain closes exactly
    to 2V = payoff(x1) + payoff(x2), which the exact solve confirms.  Each
    step's residual under the weight-consistent assignment goes into the
    trace; ``check_pivotal``'s soundness verdict bounds the same residuals.
    """
    if not isinstance(payoff, AffinePayoff) or not payoff.is_linear:
        raise LinearityError("the derivation needs a linear payoff")
    if x1 == x2:
        return _degenerate_pivotal(_exact(x1), payoff)
    state = np.ones(2, dtype=complex)
    spectral = [(x1, Projector.from_cells([0], 2)), (x2, Projector.from_cells([1], 2))]

    solver = ValueSolver()
    trace = DerivationTrace()
    game = Game(state, spectral, payoff)
    solver.register(game)
    a, b = game.spectrum

    swap = projector_swap(state, spectral[0][1], spectral[1][1])
    conjugated = solver.transform(game, swap)
    _record_step(trace, "measurement-equivalence", game, conjugated, 0.0)

    relabeled = solver.relabel(conjugated, _label_swap(game.spectrum, a, b))
    _record_step(trace, "payoff-equivalence", conjugated, relabeled, 0.0)

    # relabeled payoff is (payoff o -I) o shift(-(x1+x2)); peel the shift
    negated_payoff_game = game._with_payoff(payoff.compose_affine(-1, 0))
    shift = -(a + b)
    shifted = solver.sure_thing(negated_payoff_game, shift)
    _record_step(
        trace,
        "sure-thing",
        shifted,
        negated_payoff_game,
        float(negated_payoff_game.payoff(shift)),
    )

    negated = solver.zero_sum(game)
    _record_step(trace, "zero-sum", game, negated, None)

    result = solver.solve()
    expected = (payoff(a) + payoff(b)) / 2
    if result.exact_value(game) != expected:
        raise InconsistentSystemError(
            f"pivotal chain solved to {result.value_of(game)}, expected {float(expected)}"
        )
    value = float(expected)
    trace.add(
        "sure-thing",
        f"chain closes: twice the value equals payoff({x1}) + payoff({x2}); "
        f"value = {value}",
        premises=("sure-thing", "zero-sum"),
        payload={"value": value, "rank": result.rank, "unknowns": result.n_unknowns},
    )
    return PivotalResult(
        value=GameValue(value, game.key()),
        exact=expected,
        solver=solver,
        trace=trace,
    )


def _degenerate_pivotal(x: Fraction, payoff: AffinePayoff) -> PivotalResult:
    """Equal labels ``x``: one outcome, paid with certainty."""
    state = np.array([1.0, 1.0])
    game = Game(state, [(x, Projector.from_cells([0, 1], 2))], payoff)
    solver = ValueSolver()
    key = solver.register(game)
    value = float(payoff(x))
    trace = DerivationTrace()
    trace.add(
        "sure-thing",
        f"single-outcome game pays payoff({float(x)}) with certainty",
        premises=("sure-thing",),
        payload={"value": value},
    )
    return PivotalResult(
        value=GameValue(value, key),
        exact=payoff(x),
        solver=solver,
        trace=trace,
    )


def _record_step(trace, rule, left: Game, right: Game, offset: float | None) -> None:
    """Record a chain step with its residual under the weight assignment.

    ``offset`` None marks a negation step (values are opposite); otherwise
    the step claims V(left) = V(right) + offset.
    """
    lv, rv = left.born_value(), right.born_value()
    residual = abs(lv + rv) if offset is None else abs(lv - rv - offset)
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

    Two games whose outcomes pair off with equal exact payoffs and weights
    within ``WEIGHT_TOL`` — possibly with different states and observables —
    should be valued equally.  This is checked on solved values, never
    assumed as an axiom; pairs whose difference the constraints leave open
    are reported as such.
    """

    def profile(game: Game):
        pairs = zip(game.outcome_weights(), game.spectral)
        return sorted((game.payoff(lam), w) for w, (lam, _) in pairs)

    def matches(a, b) -> bool:
        # sorted by payoff, then weight: if any pairing of the outcomes
        # keeps every weight within the tolerance, this one does
        return len(a) == len(b) and all(
            pa == pb and abs(wa - wb) <= WEIGHT_TOL for (pa, wa), (pb, wb) in zip(a, b)
        )

    rows = []
    profiles = [profile(g) for g in games]
    for i in range(len(games)):
        for j in range(i + 1, len(games)):
            if not matches(profiles[i], profiles[j]):
                continue
            diff = result.exact_difference(games[i], games[j])
            rows.append(
                {
                    "pair": (i, j),
                    "difference": None if diff is None else float(diff),
                    "equal": diff == 0,
                    "determined": diff is not None,
                }
            )
    return rows


def value_solve(
    games: Sequence[Game],
    closure_depth: int,
    *,
    unitaries: Sequence[tuple[Projector, Projector]] = (),
) -> ValueSolveResult:
    """Solve for game values over the generated equivalence closure.

    Canonical moves (eigenspace swaps, label swaps, shift decompositions,
    negations) are applied ``closure_depth`` times, together with the
    supplied ``unitaries``: swaps from ``projector_swap``, each applied to
    every game of its dimension whose state it fixes.  Depth zero emits no
    constraints and leaves everything undetermined.
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
            for p1, p2 in unitaries:
                if p1.dim == game.dim and projector_swap(game.state, p1, p2) is not None:
                    solver.transform(game, (p1, p2))
        # re-expanding a game re-emits only rows already present
        frontier = list(solver.games.values())[seen:]
    return solver.solve()


# ---------------------------------------------------------------------------
# the games scenarios' verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PivotalCheck:
    """The pivotal derivation, the closure solve of its game and their verdicts."""

    derived: PivotalResult
    expected: Fraction  # half the summed payoffs
    solved: ValueSolveResult | None  # None when the labels coincide
    soundness_residual: float

    @property
    def value_forced(self) -> bool:
        return self.derived.exact == self.expected

    @property
    def closure_forced(self) -> bool:
        if self.solved is None:
            return True
        game = self.derived.solver.games[self.derived.value.game_key]
        return self.solved.exact_value(game) == self.expected

    @property
    def sound(self) -> bool:
        return self.soundness_residual <= SOUNDNESS_TOL


def check_pivotal(x1: float, x2: float, payoff: AffinePayoff, depth: int) -> PivotalCheck:
    """Derive the pivotal value, solve the depth-``depth`` closure of its game
    when the labels differ, and measure the derivation's soundness residual."""
    derived = derive_pivotal(x1, x2, payoff)
    solved = None
    if x1 != x2:
        solved = value_solve([derived.solver.games[derived.value.game_key]], depth)
    residual = verify_soundness(derived.solver.constraints, derived.solver.games.values())
    return PivotalCheck(derived, (payoff(x1) + payoff(x2)) / 2, solved, residual)


@dataclass(frozen=True)
class SpecialEquivalence:
    """Two projector games of one state, their closure solve and its verdict."""

    solved: ValueSolveResult
    weights: tuple[float, float]
    difference: Fraction | None  # V(first) - V(second) when forced
    general: list[dict]  # ``general_equivalence_check`` rows

    @property
    def holds(self) -> bool:
        """Equal weights, and values forced exactly equal."""
        return abs(self.weights[0] - self.weights[1]) <= WEIGHT_TOL and self.difference == 0


def special_equivalence(
    state, p1: Projector, p2: Projector, payoff, depth: int
) -> SpecialEquivalence:
    """Solve the games measuring ``p1`` and ``p2`` on ``state`` over their
    depth-``depth`` closure, with the swap of the two when one exists."""
    psi = StateVector(state)
    weights = (born_weight(psi, p1), born_weight(psi, p2))
    pair = [Game.projector_game(state, p, payoff) for p in (p1, p2)]
    swap = projector_swap(state, p1, p2)
    solved = value_solve(pair, depth, unitaries=[] if swap is None else [swap])
    return SpecialEquivalence(
        solved, weights, solved.exact_difference(*pair), general_equivalence_check(solved, pair)
    )
