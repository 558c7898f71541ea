from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab.errors import (
    InconsistentSystemError,
    LinearityError,
    PreconditionError,
    RelabelingError,
)
from bornlab.exactlin import solve_exact
from bornlab.games import (
    MAX_CLOSURE_DEPTH,
    WEIGHT_TOL,
    AffinePayoff,
    Constraint,
    Game,
    Relabeling,
    TabularPayoff,
    ValueSolver,
    ValueSolveResult,
    born_assignment,
    derive_pivotal,
    general_equivalence_check,
    linear_payoff,
    projector_swap,
    relabel_game,
    special_equivalence,
    transform_game,
    value_solve,
    verify_soundness,
)
from bornlab.hilbert import Projector, StateVector, born_weight
from oracles import cell_matrix, swap_unitary


def two_outcome_game(x1=0.0, x2=10.0, amplitudes=(1.0, 1.0), slope=1.0) -> Game:
    return Game(
        np.array(amplitudes, dtype=complex),
        [
            (float(x1), Projector.from_cells([0], 2)),
            (float(x2), Projector.from_cells([1], 2)),
        ],
        linear_payoff(slope),
    )


def cells_swap(state, first, second):
    d = len(state)
    swap = projector_swap(state, Projector.from_cells(first, d), Projector.from_cells(second, d))
    assert swap is not None
    return swap


class TestGameConstruction:
    def test_spectral_labels_must_differ(self):
        with pytest.raises(PreconditionError):
            Game(
                np.array([1.0, 1.0]),
                [
                    (1.0, Projector.from_cells([0], 2)),
                    (1.0, Projector.from_cells([1], 2)),
                ],
                linear_payoff(),
            )

    def test_born_value(self):
        game = two_outcome_game(0.0, 10.0, amplitudes=(np.sqrt(0.3), np.sqrt(0.7)))
        assert game.born_value() == pytest.approx(7.0)

    @pytest.mark.parametrize(
        "cells",
        [
            [([0], 2)],  # gap
            [([0], 2), ([0, 1], 2)],  # overlap
            [([0, 1], 2), ([], 3)],  # another dim
        ],
    )
    def test_projectors_must_partition_the_cells(self, cells):
        spectral = [(float(-k), Projector.from_cells(c, d)) for k, (c, d) in enumerate(cells)]
        with pytest.raises(PreconditionError, match="must sum to the identity"):
            Game(np.ones(2), spectral, linear_payoff())

    def test_empty_projector_beside_a_partition(self):
        spectral = [(0.0, Projector.from_cells([0, 1], 2)), (1.0, Projector.from_cells([], 2))]
        assert Game(np.ones(2), spectral, linear_payoff()).born_value() == 0.0


class TestRelabelGame:
    def test_identity_is_noop(self):
        game = two_outcome_game()
        assert relabel_game(game, Relabeling.affine(1.0, 0.0)).key() == game.key()

    def test_shift_moves_spectrum_and_compensates(self):
        game = two_outcome_game(0.0, 10.0)
        moved = relabel_game(game, Relabeling.shift(5.0))
        assert sorted(moved.spectrum) == [5.0, 15.0]
        # payoff o f^{-1} undoes the shift: value at 5 equals old value at 0
        assert moved.payoff(5.0) == pytest.approx(0.0)
        assert moved.payoff(15.0) == pytest.approx(10.0)

    def test_negation_records_spectrum(self):
        game = two_outcome_game(2.0, 7.0)
        moved = relabel_game(game, Relabeling.negate())
        assert sorted(moved.spectrum) == [-7.0, -2.0]

    def test_relabeling_must_stay_invertible(self):
        game = two_outcome_game(1.0, -1.0)
        with pytest.raises(RelabelingError, match="collapses two spectrum labels"):
            relabel_game(game, Relabeling("affine", Fraction(0), Fraction(1)))

    def test_preserves_born_value(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            game = two_outcome_game(
                rng.normal(), rng.normal() + 20, amplitudes=rng.normal(size=2) + 0.1
            )
            for f in (Relabeling.shift(rng.normal()), Relabeling.negate()):
                moved = relabel_game(game, f)
                assert moved.born_value() == pytest.approx(game.born_value(), abs=1e-10)

    def test_tabular_payoff_outside_its_table(self):
        payoff = TabularPayoff({1.0: 5.0})
        with pytest.raises(PreconditionError, match="no entry for label 2.0"):
            payoff(2.0)

    def test_tabular_payoff_composition(self):
        game = Game(
            np.array([1.0, 1.0]),
            [(1.0, Projector.from_cells([0], 2)), (2.0, Projector.from_cells([1], 2))],
            TabularPayoff({1.0: 5.0, 2.0: -3.0}),
        )
        moved = relabel_game(game, Relabeling.shift(10.0))
        assert moved.payoff(11.0) == 5.0
        assert moved.payoff(12.0) == -3.0


def swap_game_case(seed):
    """A game whose projectors hold or miss each of two equal-weight cell
    ranges whole, and the swap of the two ranges."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    rank = int(rng.integers(0, d // 2 + 1))
    cells = rng.permutation(d)
    first, second, rest = cells[:rank], cells[rank : 2 * rank], cells[2 * rank :]
    state = rng.normal(size=d) + 1j * rng.normal(size=d)
    if rest.size and rng.random() < 0.3:
        state[first] = state[second] = 0.0
    elif rank:  # rescale the second range to the first range's norm
        state[second] *= np.linalg.norm(state[first]) / np.linalg.norm(state[second])
    # outcomes: unions of whole ranges and of the remaining cells
    units = [list(first), list(second), *([int(c)] for c in rest)]
    units = [u for u in units if u]
    groups = [[] for _ in range(int(rng.integers(1, len(units) + 1)))]
    for unit in units:
        groups[int(rng.integers(len(groups)))].extend(unit)
    groups = [g for g in groups if g]
    labels = rng.permutation(len(groups)) * 1.5 - 2.0
    spectral = [(float(x), Projector.from_cells(g, d)) for x, g in zip(labels, groups)]
    game = Game(state, spectral, linear_payoff(float(rng.uniform(0.5, 2.0))))
    swap = projector_swap(state, Projector.from_cells(first, d), Projector.from_cells(second, d))
    return game, swap


class TestTransformGame:
    def test_identity(self):
        game = two_outcome_game()
        assert transform_game(game, cells_swap(game.state, [], [])).key() == game.key()

    def test_permutation_leaves_symmetric_state(self):
        game = two_outcome_game(0.0, 10.0)
        moved = transform_game(game, cells_swap(game.state, [0], [1]))
        assert moved.state is game.state
        # labels ride along with their eigenspaces
        assert moved.spectral[0][1].index_set() == {0}
        assert moved.spectral[0][0] == 10.0

    def test_nonunitary_rejected(self):
        # no unitary maps a range onto one of another rank
        game = Game.projector_game(np.ones(3), Projector.from_cells([0], 3), linear_payoff())
        wider = (Projector.from_cells([0], 3), Projector.from_cells([1, 2], 3))
        with pytest.raises(PreconditionError, match="equal rank"):
            transform_game(game, wider)

    def test_preserves_weights_and_value(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            modulus = abs(rng.normal()) + 0.2
            game = two_outcome_game(1.0, 4.0, amplitudes=(modulus, modulus * phase))
            moved = transform_game(game, cells_swap(game.state, [0], [1]))
            for (_, proj), (_, moved_proj) in zip(game.spectral, moved.spectral):
                w0 = born_weight(StateVector(game.state), proj)
                w1 = born_weight(StateVector(moved.state), moved_proj)
                assert w1 == pytest.approx(w0, abs=1e-10)
            assert moved.born_value() == pytest.approx(game.born_value(), abs=1e-10)

    def test_projector_splitting_a_range_rejected(self):
        # the outcome on cells {0, 2} holds half of the rank-2 range {0, 1}
        state = np.ones(4)
        cells = [(0.0, Projector.from_cells([0, 2], 4)), (1.0, Projector.from_cells([1, 3], 4))]
        game = Game(state, cells, linear_payoff())
        with pytest.raises(PreconditionError, match="splits a swapped range"):
            transform_game(game, cells_swap(state, [0, 1], [2, 3]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_conjugation_by_the_oracle_unitary(self, seed):
        game, swap = swap_game_case(seed)
        assert swap is not None
        u = swap_unitary(game.state, *swap)
        assert np.max(np.abs(u @ game.state - game.state)) <= 1e-10
        moved = transform_game(game, swap)
        assert moved.state is game.state
        assert moved.spectrum == game.spectrum
        for (_, proj), (_, moved_proj) in zip(game.spectral, moved.spectral):
            conjugated = u @ cell_matrix(proj) @ u.conj().T
            assert np.max(np.abs(conjugated - cell_matrix(moved_proj))) <= 1e-9


class TestAxiomConstraints:
    def test_zero_shift_is_tautology(self):
        game = two_outcome_game()
        solver = ValueSolver()
        assert solver.sure_thing(game, 0.0).key() == game.key()
        assert solver.constraints == []

    def test_double_negation_involution(self):
        game = two_outcome_game()
        solver = ValueSolver()
        negated = solver.zero_sum(game)
        double = solver.zero_sum(negated)
        assert double.key() == game.key()
        # V(g) + V(g') = 0 and V(g') + V(g) = 0: consistent, rank 1
        assert len(solver.constraints) == 2

    def test_nonlinear_payoff_rejected_for_shifts(self):
        game = Game(
            np.array([1.0, 1.0]),
            [(1.0, Projector.from_cells([0], 2)), (2.0, Projector.from_cells([1], 2))],
            TabularPayoff({1.0: 1.0, 2.0: 4.0}),
        )
        with pytest.raises(LinearityError):
            ValueSolver().sure_thing(game, 1.0)

    def test_axioms_reject_offset_payoffs(self):
        # shift/negation relations hold only for odd payoffs; an offset
        # base would make the emitted constraints unsound
        game = Game(
            np.array([1.0, 1.0]),
            [(0.0, Projector.from_cells([0], 2)), (3.0, Projector.from_cells([1], 2))],
            AffinePayoff(2.0, 5.0),
        )
        solver = ValueSolver()
        with pytest.raises(LinearityError):
            solver.sure_thing(game, 1.0)
        with pytest.raises(LinearityError):
            solver.zero_sum(game)

    def test_pivotal_state_constraints_solvable(self):
        result = value_solve([two_outcome_game(0.0, 10.0)], 4)
        assert result.freedom == 0


class TestDerivePivotal:
    def test_textbook_values(self):
        result = derive_pivotal(0.0, 10.0, linear_payoff(1.0))
        assert result.value.value == pytest.approx(5.0, abs=1e-12)
        rules = [s.rule for s in result.trace.steps]
        assert rules[:4] == [
            "measurement-equivalence",
            "payoff-equivalence",
            "sure-thing",
            "zero-sum",
        ]

    def test_degenerate_equal_labels(self):
        result = derive_pivotal(3.0, 3.0, linear_payoff(2.0))
        assert result.value.value == pytest.approx(6.0)

    def test_nonlinear_payoff_rejected(self):
        with pytest.raises(LinearityError):
            derive_pivotal(0.0, 1.0, AffinePayoff(1.0, 3.0))

    def test_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            x1, x2 = rng.normal(size=2) * 10
            if abs(x1 - x2) < 1e-8:
                continue
            slope = float(rng.uniform(0.2, 4.0))
            expected = 0.5 * slope * (x1 + x2)
            result = derive_pivotal(x1, x2, linear_payoff(slope))
            assert result.value.value == pytest.approx(expected, abs=1e-9)


class TestValueSolve:
    def test_depth_zero_underdetermined(self):
        game = two_outcome_game()
        result = value_solve([game], 0)
        assert result.value_of(game) is None
        assert result.freedom == result.n_unknowns

    def test_pivotal_closure_unique(self):
        game = two_outcome_game(0.0, 10.0)
        result = value_solve([game], 4)
        assert result.full_rank
        assert result.value_of(game) == pytest.approx(5.0, abs=1e-9)

    def test_random_pivotal_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x1, x2 = rng.normal(size=2) * 5
            if abs(x1 - x2) < 1e-8:
                continue
            slope = float(rng.uniform(0.5, 2.0))
            game = two_outcome_game(x1, x2, slope=slope)
            result = value_solve([game], 4)
            assert result.value_of(game) == pytest.approx(
                0.5 * slope * (x1 + x2), abs=1e-9
            )

    def test_special_equivalence_rank_one_projectors(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
            extra = rng.normal() + 1j * rng.normal()
            state = np.array([phases[0], phases[1], extra])
            p1 = Projector.from_cells([0], 3)
            p2 = Projector.from_cells([1], 3)
            game_a = Game.projector_game(state, p1, linear_payoff(2.0))
            game_b = Game.projector_game(state, p2, linear_payoff(2.0))
            swap = projector_swap(state, p1, p2)
            result = value_solve([game_a, game_b], 2, unitaries=[swap])
            diff = result.difference(game_a, game_b)
            assert diff is not None and abs(diff) < 1e-9

    def test_equivalence_requires_equal_weights(self):
        state = np.array([1.0, 2.0, 1.0])
        p0, p1 = Projector.from_cells([0], 3), Projector.from_cells([1], 3)
        assert projector_swap(state, p0, p1) is None

    def test_expand_game_swaps_exactly_the_pairs_projector_swap_returns(self):
        # cells 0 and 1: equal rank, norms 9.5e-11 apart, weights 1.1e-10 apart (both swap);
        # cell 0 and cells 2-3: equal weight, unequal rank (neither swaps)
        s = np.sqrt(0.5)
        state = np.array([1.0, 1.0 + 9.5e-11 * np.sqrt(3), s, s])
        p0, p1, p23 = (Projector.from_cells(c, 4) for c in ([0], [1], [2, 3]))
        unit = state / np.linalg.norm(state)
        norms = [np.linalg.norm(p.apply(unit)) for p in (p0, p1)]
        assert abs(norms[0] - norms[1]) < WEIGHT_TOL
        w0, w1, w23 = (born_weight(StateVector(state), p) for p in (p0, p1, p23))
        assert abs(w0 - w1) > WEIGHT_TOL and abs(w0 - w23) < WEIGHT_TOL
        game = Game(state, [(0.0, p0), (1.0, p1), (2.0, p23)], linear_payoff())
        solver = ValueSolver()
        solver.register(game)
        transformed, relabeled, _ = solver.expand_game(game)
        kinds = [con.kind for con in solver.constraints]
        assert kinds == ["measurement-equivalence", "payoff-equivalence", "zero-sum"]
        assert [(lam, p.cells) for lam, p in transformed.spectral] == [
            (2, p23.cells), (1, p0.cells), (0, p1.cells)
        ]
        assert transformed.state is game.state
        assert relabeled.spectral == transformed.spectral  # each cell keeps its payoff
        assert [relabeled.payoff(lam) for lam in (0, 1, 2)] == [1, 0, 2]

    def test_special_equivalence_holds_exactly_when_the_swap_forces_equal_values(self):
        # norms 9.5e-11 apart swap, though the float weights differ by 1.1e-10
        s = np.sqrt(0.5)
        state = [1.0, 1.0 + 9.5e-11 * np.sqrt(3), s, s]
        p0, p1, p23 = (Projector.from_cells(c, 4) for c in ([0], [1], [2, 3]))
        check = special_equivalence(state, p0, p1, linear_payoff(), 2)
        assert abs(check.weights[0] - check.weights[1]) > WEIGHT_TOL
        assert check.swap == (p0, p1)
        assert check.difference == 0 and check.holds
        # equal weights but unequal rank: no swap, so the verdict fails
        check = special_equivalence(state, p0, p23, linear_payoff(), 2)
        assert abs(check.weights[0] - check.weights[1]) < WEIGHT_TOL
        assert check.swap is None and not check.holds


def lstsq_oracle(solver: ValueSolver):
    """The former float solve: least squares with an SVD rank.

    Returns the rank, each game's value (None when the null space moves
    it) and a difference function on game indices.
    """
    keys = list(solver.games)
    rows = np.zeros((len(solver.constraints), len(keys)))
    rhs = np.zeros(len(solver.constraints))
    for r, con in enumerate(solver.constraints):
        for key, coeff in con.terms:
            rows[r, keys.index(key)] += coeff
        rhs[r] = con.const
    if solver.constraints:
        solution = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        _, singular, vh = np.linalg.svd(rows)
        cutoff = max(rows.shape) * np.finfo(float).eps * singular[0]
        rank = int(np.sum(singular > max(cutoff, 1e-12)))
        null_basis = vh[rank:]
    else:
        solution, null_basis, rank = np.zeros(len(keys)), np.eye(len(keys)), 0
    values = {
        key: None
        if null_basis.size and np.max(np.abs(null_basis[:, i])) > 1e-9
        else float(solution[i])
        for i, key in enumerate(keys)
    }

    def difference(i, j):
        if null_basis.size and np.max(np.abs(null_basis[:, i] - null_basis[:, j])) > 1e-9:
            return None
        return float(solution[i] - solution[j])

    return rank, values, difference


def forced_values(result: ValueSolveResult, games) -> dict:
    """Each game's float value, for the games whose value the solve forces."""
    return {g.key(): result.value_of(g) for g in games if result.exact_value(g) is not None}


@st.composite
def signed_systems(draw):
    """Distinct games and two-term +-1 rows that their Born values satisfy.

    Rows may join a game to itself or repeat; each constant is the exact
    signed sum of the two Born values, each float taken as a rational.
    """
    n = draw(st.integers(1, 6))
    games = [
        two_outcome_game(
            float(i),
            float(i) + 10.0,
            amplitudes=(1.0, draw(st.floats(0.1, 3.0))),
            slope=draw(st.floats(0.2, 3.0)),
        )
        for i in range(n)
    ]
    solver = ValueSolver()
    for game in games:
        solver.register(game)
    values = [Fraction(game.born_value()) for game in games]
    sign = st.sampled_from((1, -1))
    index = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(index, index, sign, sign), max_size=3 * n))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    for a, b, sa, sb in rows:
        const = sa * values[a] + sb * values[b]
        terms = ((games[a].key(), sa), (games[b].key(), sb))
        solver.constraints.append(Constraint(terms, const, kind="equivalence"))
    return games, solver


def reexpanding_solve(games, depth, *, unitaries=()) -> ValueSolveResult:
    """The former closure loop: every registered game expanded at every depth."""
    solver = ValueSolver()
    for game in games:
        solver.register(game)
    for _ in range(depth):
        for game in list(solver.games.values()):
            solver.expand_game(game)
            for swap in unitaries:
                solver.transform(game, swap)
    return solver.solve()


def special_case():
    state = np.array([1.0, 1.0j, 0.5])
    p1, p2 = Projector.from_cells([0], 3), Projector.from_cells([1], 3)
    games = [Game.projector_game(state, p, linear_payoff(2.0)) for p in (p1, p2)]
    return games, 3, {"unitaries": [projector_swap(state, p1, p2)]}


class TestExactSolve:
    @settings(max_examples=200, deadline=None)
    @given(signed_systems())
    def test_matches_float_oracle(self, system):
        games, solver = system
        result = solver.solve()
        rank, values, difference = lstsq_oracle(solver)
        assert (result.rank, result.freedom) == (rank, len(games) - rank)
        forced = {key: value for key, value in values.items() if value is not None}
        assert forced_values(result, games).keys() == forced.keys()
        for key, value in forced_values(result, games).items():
            assert value == pytest.approx(forced[key], abs=1e-9)
        for i, j in itertools.product(range(len(games)), repeat=2):
            want, got = difference(i, j), result.difference(games[i], games[j])
            assert (got is None) == (want is None)
            if got is not None:
                assert got == pytest.approx(want, abs=1e-9)

    def test_same_sign_cycle_must_close(self):
        # a second row for the shift of 1, off by 1e-6 or by one ulp of 1.0
        for const in (1.0 + 1e-6, math.nextafter(1.0, 2.0)):
            game = two_outcome_game()
            solver = ValueSolver()
            shifted = solver.sure_thing(game, 1.0)
            terms = ((shifted.key(), 1), (game.key(), -1))
            solver.constraints.append(Constraint(terms, const, kind="sure-thing"))
            with pytest.raises(InconsistentSystemError) as err:
                solver.solve()
            assert "sure-thing[0], sure-thing[1] conflict" in str(err.value)
            assert err.value.conflict == ("sure-thing[0]", "sure-thing[1]")

    def test_extreme_range_pivotal_closure(self):
        # exact labels and payoffs: the depth-5 closure is a feasible exact
        # system whose forced value is exactly half the summed payoffs
        x1, x2, slope = -64.89728701564388, -1465.7272602194046, 15.622688098359621
        game = two_outcome_game(x1, x2, slope=slope)
        result = value_solve([game], 5)
        assert (result.rank, result.n_unknowns) == (8, 8)
        payoff = linear_payoff(slope)
        assert result.exact_value(game) == (payoff(x1) + payoff(x2)) / 2
        keys = list(result.exact)
        rows = [
            [sum(c for k, c in con.terms if k == key) for key in keys]
            for con in result.constraints
        ]
        rhs = [con.const for con in result.constraints]
        assert solve_exact(rows, rhs).status == "unique"

    @pytest.mark.parametrize(
        "case",
        [
            lambda: ([two_outcome_game(0.0, 10.0)], 4, {}),
            special_case,
        ],
        ids=["pivotal", "special-equivalence"],
    )
    def test_frontier_closure_matches_reexpansion(self, case):
        games, depth, moves = case()
        old = reexpanding_solve(games, depth, **moves)
        new = value_solve(games, depth, **moves)
        assert new.n_unknowns == old.n_unknowns
        assert list(dict.fromkeys(new.constraints)) == list(dict.fromkeys(old.constraints))
        assert new.exact == old.exact
        assert len(new.constraints) < len(old.constraints)


def swap_case(seed, d, zero_weight):
    """Two orthogonal cell projectors of equal rank and a state with equal weight in each."""
    rng = np.random.default_rng(seed)
    rank = 1 + seed % (d // 2)
    if zero_weight and 2 * rank == d:
        rank -= 1  # leave room outside the two ranges for the state
    if rank == 0:
        rank, zero_weight = 1, False
    basis = np.eye(d, dtype=complex)
    cols = rng.permutation(d)
    ranges = [basis[:, cols[:rank]], basis[:, cols[rank : 2 * rank]]]
    p1, p2 = (Projector.from_cells(cols[i * rank : (i + 1) * rank], d) for i in (0, 1))
    weight = 0.0 if zero_weight else rng.uniform(0.05, 0.5)
    blocks = [(weight, ranges[0]), (weight, ranges[1])]
    if 2 * rank < d:
        blocks.append((1 - 2 * weight, basis[:, cols[2 * rank :]]))
    state = np.zeros(d, dtype=complex)
    for share, block in blocks:
        coeffs = rng.normal(size=block.shape[1]) + 1j * rng.normal(size=block.shape[1])
        state += np.sqrt(share) * block @ coeffs / np.linalg.norm(coeffs)
    return 3.0 * state, p1, p2


class TestProjectorSwap:
    @given(st.integers(0, 10_000), st.integers(2, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_swap_properties(self, seed, d, zero_weight):
        state, p1, p2 = swap_case(seed, d, zero_weight)
        assert projector_swap(state, p1, p2) == (p1, p2)
        u = swap_unitary(state, p1, p2)
        eye = np.eye(d)
        assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-10
        psi = state / np.linalg.norm(state)
        assert np.max(np.abs(u @ psi - psi)) <= 1e-10
        m1, m2 = cell_matrix(p1), cell_matrix(p2)
        assert np.max(np.abs(u @ m1 @ u.conj().T - m2)) <= 1e-9
        outside = eye - m1 - m2
        assert np.max(np.abs(u @ outside - outside)) <= 1e-10

    @given(st.integers(0, 10_000), st.integers(3, 5))
    @settings(max_examples=30, deadline=None)
    def test_no_swap_without_equal_rank_and_weight(self, seed, d):
        state, p1, p2 = swap_case(seed, d, False)
        tilted = state + 0.5 * p1.apply(state)
        assert projector_swap(tilted, p1, p2) is None
        wider = Projector.from_cells(range(1, d), d)
        assert projector_swap(state, Projector.from_cells([0], d), wider) is None

    def test_empty_ranges_swap_to_identity(self):
        empty = Projector.from_cells([], 3)
        state = [1.0, 2.0, 3.0]
        assert projector_swap(state, empty, empty) == (empty, empty)
        assert np.array_equal(swap_unitary(state, empty, empty), np.eye(3))
        game = Game.projector_game(state, Projector.from_cells([0], 3), linear_payoff())
        assert transform_game(game, (empty, empty)).key() == game.key()

    def test_needs_orthogonal_cell_projectors(self):
        state = np.ones(3)
        p01, p12 = Projector.from_cells([0, 1], 3), Projector.from_cells([1, 2], 3)
        with pytest.raises(PreconditionError, match="orthogonal"):
            projector_swap(state, p01, p12)

    def test_no_swap_between_ranks_of_equal_weight(self):
        state = np.array([1.0, np.sqrt(0.5), np.sqrt(0.5)])
        p0, p12 = Projector.from_cells([0], 3), Projector.from_cells([1, 2], 3)
        assert born_weight(StateVector(state), p0) == pytest.approx(0.5)
        assert projector_swap(state, p0, p12) is None


class TestGeneralEquivalence:
    def test_different_states_equal_statistics(self):
        # two pivotal games with different (but equal-weight) states and
        # different observables; both solve to the half-sum, so any pair
        # with matching outcome statistics is valued equally
        game_a = two_outcome_game(0.0, 10.0, amplitudes=(1.0, 1.0))
        game_b = Game(
            np.array([1.0, 1.0j]),
            [
                (0.0, Projector.from_cells([1], 2)),
                (10.0, Projector.from_cells([0], 2)),
            ],
            linear_payoff(1.0),
        )
        result = value_solve([game_a, game_b], 4)
        rows = general_equivalence_check(result, [game_a, game_b])
        assert rows and rows[0]["equal"]

    def test_mismatched_statistics_not_compared(self):
        game_a = two_outcome_game(0.0, 10.0)
        game_b = two_outcome_game(0.0, 11.0)
        result = value_solve([game_a, game_b], 4)
        assert general_equivalence_check(result, [game_a, game_b]) == []

    def test_weights_either_side_of_a_rounding_half_point_match(self):
        # the two weights differ by a few ulps and once rounded to 10
        # decimals fall in different buckets
        state = np.array([0.35136418293559724, 0.35136418293559746, 0.8678055207821624])
        p1, p2 = Projector.from_cells([0], 3), Projector.from_cells([1], 3)
        weights = [born_weight(StateVector(state), p) for p in (p1, p2)]
        assert round(weights[0], 10) != round(weights[1], 10)
        pair = [Game.projector_game(state, p, linear_payoff()) for p in (p1, p2)]
        result = value_solve(pair, 2, unitaries=[projector_swap(state, p1, p2)])
        rows = general_equivalence_check(result, pair)
        assert [(row["pair"], row["equal"]) for row in rows] == [((0, 1), True)]


class TestSoundness:
    def test_random_constraint_instances(self):
        rng = np.random.default_rng(41)
        solver = ValueSolver()
        for i in range(50):
            modulus = abs(rng.normal()) + 0.1
            if i % 2:  # equal weights, so the two cells swap
                second = modulus * np.exp(1j * rng.uniform(0, 2 * np.pi))
            else:
                second = abs(rng.normal()) + 0.1
            game = two_outcome_game(
                rng.normal() * 8,
                rng.normal() * 8 + 17,
                amplitudes=(modulus, second),
                slope=float(rng.uniform(0.2, 3.0)),
            )
            solver.register(game)
            solver.sure_thing(game, float(rng.normal()))
            solver.zero_sum(game)
            solver.relabel(game, Relabeling.shift(float(rng.normal())))
            solver.relabel(game, Relabeling.negate())
            swap = projector_swap(game.state, *(proj for _, proj in game.spectral))
            if swap is not None:
                solver.transform(game, swap)
        kinds = [con.kind for con in solver.constraints]
        assert kinds.count("measurement-equivalence") == 25
        worst = verify_soundness(solver.constraints, solver.games.values())
        assert worst < 1e-10

    def test_closure_soundness(self):
        game = two_outcome_game(1.0, 4.0)
        solver = ValueSolver()
        solver.register(game)
        for _ in range(4):
            for g in list(solver.games.values()):
                solver.expand_game(g)
        assert verify_soundness(solver.constraints, solver.games.values()) < 1e-10

    def test_three_label_swap(self):
        # cells 0 and 1 carry equal weight, so swapping their labels 1 and 2
        # is a permutation of three labels, not an affine relabeling
        cells = [(float(x), Projector.from_cells([x - 1], 3)) for x in (1, 2, 3)]
        game = Game(np.array([1.0, 1.0, 0.5]), cells, linear_payoff())
        solver = ValueSolver()
        solver.register(game)
        frontier = [game]
        for _ in range(2):
            seen = len(solver.games)
            for g in frontier:
                solver.expand_game(g)
            frontier = list(solver.games.values())[seen:]
        assert any(con.note == "relabel permutation" for con in solver.constraints)
        result = solver.solve()
        assert (result.rank, result.n_unknowns, len(solver.constraints)) == (7, 8, 11)
        assert value_solve([game], 2).exact == result.exact
        rank, values, difference = lstsq_oracle(solver)
        assert rank == result.rank
        games = list(solver.games.values())
        forced = {key for key, value in values.items() if value is not None}
        assert forced_values(result, games).keys() == forced
        for i, j in itertools.product(range(len(games)), repeat=2):
            want, got = difference(i, j), result.difference(games[i], games[j])
            assert (got is None) == (want is None)
            if got is not None:
                assert got == pytest.approx(want, abs=1e-9)
        assert verify_soundness(solver.constraints, solver.games.values()) <= 1e-10

    def test_born_assignment_covers_all_games(self):
        game = two_outcome_game()
        assignment = born_assignment([game])
        assert assignment[game.key()] == pytest.approx(5.0)


class TestClosureDepthBound:
    @pytest.mark.parametrize("depth", [-3, MAX_CLOSURE_DEPTH + 1])
    def test_depth_outside_range_rejected(self, depth):
        with pytest.raises(PreconditionError, match="'depth'"):
            value_solve([two_outcome_game()], depth)

    def test_depth_at_bound_is_cheap(self):
        # the pivotal closure saturates, so the bound costs no extra games
        deep = value_solve([two_outcome_game()], MAX_CLOSURE_DEPTH)
        assert deep.n_unknowns == value_solve([two_outcome_game()], 5).n_unknowns
