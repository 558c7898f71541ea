from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import histories as histories_module
from bornlab.errors import DimensionMismatchError, HistoryCountError, UnitarityError
from bornlab.hilbert import Projector, StateVector
from bornlab.histories import (
    EventDiscrepancy,
    HistorySet,
    HistoryStep,
    _branches,
    _worst_pair,
    consistency_check,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def z_resolution():
    return [Projector.from_cells([0], 2), Projector.from_cells([1], 2)]


def plus():
    return StateVector(np.array([1.0, 1.0]) / np.sqrt(2))


def oracle_chain(steps, choices, psi):
    """The history's operator string applied to the normalized amplitudes ``psi``."""
    for step, choice in zip(steps, choices):
        psi = step.resolution[choice].apply(step.unitary @ psi)
    return psi


def oracle_product(steps, choices, psi):
    """Product of stepwise reduction weights; an annihilated state ends it at zero."""
    product = 1.0
    for step, choice in zip(steps, choices):
        projected = step.resolution[choice].apply(step.unitary @ psi)
        weight = float(np.real(np.vdot(projected, projected)))
        product *= weight
        if product == 0.0:
            return 0.0
        psi = projected / np.sqrt(weight)
    return product


def oracle_branches(history_set, psi0):
    """Every history walked on its own from the start, in ``itertools.product`` order."""
    psi = psi0.normalized().amplitudes
    choices = list(
        itertools.product(*(range(len(step.resolution)) for step in history_set.steps))
    )
    chains = np.array([oracle_chain(history_set.steps, c, psi) for c in choices])
    collapsed = np.array([oracle_product(history_set.steps, c, psi) for c in choices])
    return choices, chains, collapsed


def oracle_check(history_set, psi0):
    """The full event loop: one row per history, per pair union and per marginal."""
    choices, chains, collapsed = oracle_branches(history_set, psi0)
    chained = np.real(np.einsum("nd,nd->n", chains.conj(), chains))
    discrepancies = [
        EventDiscrepancy("history", str(c), float(p_add), float(p_chain))
        for c, p_add, p_chain in zip(choices, collapsed, chained)
    ]
    gram = chains.conj() @ chains.T
    n = len(choices)
    for i in range(n):
        for j in range(i + 1, n):
            additive = float(collapsed[i] + collapsed[j])
            chained_pair = float(chained[i] + chained[j] + 2.0 * np.real(gram[i, j]))
            label = f"{choices[i]}+{choices[j]}"
            discrepancies.append(EventDiscrepancy("pair", label, additive, chained_pair))
    psi = psi0.normalized().amplitudes
    for step in history_set.steps:
        psi = step.unitary @ psi
    for k, proj in enumerate(history_set.steps[-1].resolution):
        image = proj.apply(psi)
        marginal_chain = float(np.real(np.vdot(image, image)))
        marginal_additive = float(sum(p for c, p in zip(choices, collapsed) if c[-1] == k))
        discrepancies.append(
            EventDiscrepancy("marginal", f"final={k}", marginal_additive, marginal_chain)
        )
    worst = max(discrepancies, key=lambda d: d.gap)
    return worst, discrepancies, float(collapsed.sum()), float(chained.sum())


def history_rows(history_set, psi0):
    """History label -> (collapsed product, chained probability) from the checked report."""
    report = consistency_check(history_set, psi0)
    return {d.label: (d.additive, d.chained) for d in report.discrepancies if d.kind == "history"}


def random_resolution(draw, rng, d):
    """Cell projectors over a random labelling, or matrix projectors onto the same groups of
    columns of a random unitary."""
    n_cells = draw(st.integers(1, d))
    labels = np.concatenate([np.arange(n_cells), rng.integers(0, n_cells, d - n_cells)])
    rng.shuffle(labels)
    groups = [[int(i) for i in np.flatnonzero(labels == c)] for c in range(n_cells)]
    if not draw(st.booleans()):
        return [Projector.from_cells(cells, d) for cells in groups]
    basis = random_unitary(rng, d)
    return [
        Projector.from_matrix(basis[:, cells] @ basis[:, cells].conj().T) for cells in groups
    ]


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    return q


@st.composite
def history_problems(draw):
    """Up to 64 histories over d in 2..4: identity, diagonal-phase or dense unitaries,
    cell or matrix resolutions, and states that may have zero amplitudes."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps, count = [], 1
    for index in range(draw(st.integers(1, 5))):
        resolution = random_resolution(draw, rng, d)
        if index and count * len(resolution) > 64:
            break
        unitary = draw(st.sampled_from([None, "phase", "dense"]))
        if unitary == "phase":
            unitary = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d)))
        elif unitary == "dense":
            unitary = random_unitary(rng, d)
        steps.append(HistoryStep(resolution, unitary))
        count *= len(resolution)
    epsilon = draw(
        st.sampled_from([0.0, 1e-17, 1e-16, 1e-12, 1e-3, 1e-1]) | st.floats(0.0, 1.0)
    )
    amplitudes = rng.normal(size=d) + 1j * rng.normal(size=d)
    amplitudes[draw(st.lists(st.integers(0, d - 1), max_size=d - 1))] = 0.0  # one stays nonzero
    return HistorySet(steps, epsilon), StateVector(amplitudes)


class TestCollapsedProbability:
    def test_identity_projector_single_step(self):
        step = HistoryStep([Projector.from_cells([(0, 2)], 2)])
        rows = history_rows(HistorySet([step]), StateVector([0.6, 0.8]))
        assert rows["(0,)"][0] == pytest.approx(1.0)

    def test_repeated_projection(self):
        steps = [HistoryStep(z_resolution()), HistoryStep(z_resolution())]
        rows = history_rows(HistorySet(steps), StateVector([1, 0]))
        assert rows["(0, 0)"][0] == pytest.approx(1.0)
        assert rows["(0, 1)"][0] == 0.0

    def test_hadamard_between_z_steps(self):
        steps = [HistoryStep(z_resolution()), HistoryStep(z_resolution(), HADAMARD)]
        rows = history_rows(HistorySet(steps), StateVector([1, 0]))
        assert rows["(0, 0)"][0] == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        history_set = HistorySet([HistoryStep(z_resolution())])
        with pytest.raises(DimensionMismatchError):
            consistency_check(history_set, StateVector([1, 0, 0]))

    def test_annihilated_branch_stays_zero(self):
        # the z-basis state loses every branch through |1>, and no NaN appears
        steps = [HistoryStep(z_resolution()) for _ in range(3)]
        chains, products = _branches(HistorySet(steps), np.array([1.0, 0.0], dtype=complex))
        assert products.tolist() == [1.0] + [0.0] * 7
        assert np.isfinite(chains).all()

    def test_nonunitary_step_rejected(self):
        with pytest.raises(UnitarityError):
            HistoryStep(z_resolution(), np.diag([1.0, 2.0]))
        with pytest.raises(DimensionMismatchError):
            HistoryStep(z_resolution(), np.eye(3))


class TestUncollapsedProbability:
    def test_single_step_equals_collapsed(self):
        rng = np.random.default_rng(0)
        history_set = HistorySet([HistoryStep(z_resolution(), HADAMARD)])
        for _ in range(10):
            psi = StateVector(rng.normal(size=2) + 1j * rng.normal(size=2))
            for collapsed, chained in history_rows(history_set, psi).values():
                assert chained == pytest.approx(collapsed, abs=1e-12)

    def test_single_step_equals_weight_of_evolved_state(self):
        psi = StateVector([0.8, 0.6j])
        history_set = HistorySet([HistoryStep(z_resolution(), HADAMARD)])
        evolved = HADAMARD @ psi.normalized().amplitudes
        expected = abs(evolved[0]) ** 2
        assert history_rows(history_set, psi)["(0,)"][1] == pytest.approx(expected)

    def test_two_step_same_basis(self):
        steps = [HistoryStep(z_resolution()), HistoryStep(z_resolution())]
        rows = history_rows(HistorySet(steps), plus())
        assert len(rows) == 4
        for collapsed, chained in rows.values():
            assert chained == pytest.approx(collapsed, abs=1e-12)


class TestConsistencyCheck:
    def commuting_set(self):
        diag = np.diag([np.exp(0.4j), np.exp(-1.1j)])
        return HistorySet(
            [HistoryStep(z_resolution(), diag), HistoryStep(z_resolution(), diag)]
        )

    def interference_set(self, epsilon=1e-8):
        return HistorySet(
            [
                HistoryStep(z_resolution()),
                HistoryStep(z_resolution(), HADAMARD),
            ],
            epsilon=epsilon,
        )

    def test_commuting_chain_consistent(self):
        report = consistency_check(self.commuting_set(), plus())
        assert report.consistent
        assert report.max_discrepancy < 1e-12

    def test_interference_inconsistent_with_half_gap(self):
        report = consistency_check(self.interference_set(), plus())
        assert not report.consistent
        assert report.max_discrepancy == pytest.approx(0.5, abs=1e-12)
        assert report.worst.kind in ("pair", "marginal")

    def test_vacuous_epsilon(self):
        report = consistency_check(self.interference_set(epsilon=1.0), plus())
        assert report.consistent

    def test_collapsed_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            psi = StateVector(rng.normal(size=2) + 1j * rng.normal(size=2))
            report = consistency_check(self.interference_set(), psi)
            assert report.collapsed_sum == pytest.approx(1.0, abs=1e-9)
            assert report.uncollapsed_sum == pytest.approx(1.0, abs=1e-9)

    def test_three_step_commuting(self):
        steps = [HistoryStep(z_resolution()) for _ in range(3)]
        report = consistency_check(HistorySet(steps), plus())
        assert report.consistent
        assert report.n_histories == 8

    def test_marginal_event_discrepancy(self):
        # preparing a superposition, measuring, then recombining: the final
        # marginal shows the interference between the two paths
        report = consistency_check(self.interference_set(), plus())
        marginals = [d for d in report.discrepancies if d.kind == "marginal"]
        assert max(d.gap for d in marginals) == pytest.approx(0.5, abs=1e-12)

    def test_pair_cap(self, monkeypatch):
        monkeypatch.setattr(histories_module, "DEFAULT_PAIR_CAP", 4)
        steps = [HistoryStep(z_resolution()) for _ in range(3)]
        with pytest.raises(HistoryCountError, match="cap of 4"):
            consistency_check(HistorySet(steps), plus())

    def test_history_count_cap(self, monkeypatch):
        monkeypatch.setattr(histories_module, "DEFAULT_HISTORY_CAP", 32)
        with pytest.raises(HistoryCountError, match="cap of 32"):
            HistorySet([HistoryStep(z_resolution()) for _ in range(6)])


class TestPairReduction:
    @given(history_problems(), st.integers(2, 7))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_event_loop(self, problem, block_rows):
        history_set, psi0 = problem
        chains, collapsed = _branches(history_set, psi0.normalized().amplitudes)
        choices, oracle_chains, oracle_collapsed = oracle_branches(history_set, psi0)
        assert history_set.choices() == choices
        assert np.array_equal(chains, oracle_chains)
        assert np.array_equal(collapsed, oracle_collapsed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(histories_module, "PAIR_BLOCK_ROWS", block_rows)
            report = consistency_check(history_set, psi0)
        worst, rows, collapsed_sum, uncollapsed_sum = oracle_check(history_set, psi0)
        assert report.max_discrepancy == worst.gap
        assert (report.worst.kind, report.worst.label) == (worst.kind, worst.label)
        assert report.worst == worst
        assert report.collapsed_sum == collapsed_sum
        assert report.uncollapsed_sum == uncollapsed_sum
        assert report.discrepancies == tuple(d for d in rows if d.kind != "pair")
        pair_rows = [d for d in rows if d.kind == "pair"]
        assert report.pairs == len(pair_rows)
        over = sum(1 for d in pair_rows if d.gap > history_set.epsilon)
        assert report.pairs_over_epsilon == over

    @pytest.mark.parametrize("block_rows", [2, 3, 4, 5, 64, 512])
    def test_first_pair_wins_ties(self, block_rows, monkeypatch):
        # unit chains e0, e1, e0, e1, e0, e1: every pair of equal chains has gap exactly 2
        monkeypatch.setattr(histories_module, "PAIR_BLOCK_ROWS", block_rows)
        choices = [(k,) for k in range(6)]
        chains = np.array([[1.0, 0.0], [0.0, 1.0]] * 3, dtype=complex)
        ones = np.ones(6)
        best, over = _worst_pair(choices, chains, ones, ones, 1.0)
        assert best == [EventDiscrepancy("pair", "(0,)+(2,)", 2.0, 4.0)]
        assert over == 6

    @pytest.mark.parametrize("block_rows", [4, 64])
    def test_worst_pair_inside_a_later_diagonal_square(self, block_rows, monkeypatch):
        # zero chains but for rows 5, 6 = e0 and 9, 10 = e1: pairs (5, 6) and (9, 10) have
        # gap 2, every other pair 0; with 4 rows a block, (5, 6) lies in block 1's diagonal
        # square, where the diagonal (i, i) also has gap 2, and the tie (9, 10) in block 2's
        monkeypatch.setattr(histories_module, "PAIR_BLOCK_ROWS", block_rows)
        choices = [(k,) for k in range(12)]
        chains = np.zeros((12, 2), dtype=complex)
        chains[[5, 6], 0] = chains[[9, 10], 1] = 1.0
        ones = np.ones(12)
        best, over = _worst_pair(choices, chains, ones, ones, 1.0)
        assert best == [EventDiscrepancy("pair", "(5,)+(6,)", 2.0, 4.0)]
        assert over == 2

    def test_block_rows_agree_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(11)
        n = 300
        chains = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        collapsed = rng.random(n)
        chained = np.real(np.einsum("nd,nd->n", chains.conj(), chains))
        choices = [(k,) for k in range(n)]
        results = []
        for block_rows in (2, 3, 7, 64, 512):
            monkeypatch.setattr(histories_module, "PAIR_BLOCK_ROWS", block_rows)
            results.append(_worst_pair(choices, chains, collapsed, chained, 2.0))
        assert 0 < results[0][1] < n * (n - 1) // 2
        assert all(result == results[0] for result in results)

    def test_working_set_is_bounded(self):
        # 4096 histories: the whole upper triangle would take 4096^2 / 2 gaps of 8 bytes each
        rng = np.random.default_rng(5)
        n = 4096
        chains = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        probabilities = rng.random(n)
        choices = [(k,) for k in range(n)]
        tracemalloc.start()
        try:
            _worst_pair(choices, chains, probabilities, probabilities, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_history_tie_beats_pairs_and_marginals(self):
        # a z-basis state measured in z: every gap is exactly zero
        steps = [HistoryStep(z_resolution()), HistoryStep(z_resolution())]
        report = consistency_check(HistorySet(steps), StateVector([1.0, 0.0]))
        assert report.max_discrepancy == 0.0
        assert (report.worst.kind, report.worst.label) == ("history", "(0, 0)")
        assert report.pairs_over_epsilon == 0

    def test_pair_tie_beats_later_marginal(self):
        # the interference set's largest pair gap ties the final marginal's
        steps = [HistoryStep(z_resolution()), HistoryStep(z_resolution(), HADAMARD)]
        report = consistency_check(HistorySet(steps), plus())
        worst, rows, _, _ = oracle_check(HistorySet(steps), plus())
        marginal = max(d.gap for d in rows if d.kind == "marginal")
        assert marginal == report.max_discrepancy
        assert report.worst == worst
        assert report.worst.kind == "pair"

    def test_pair_cap_smoke(self):
        steps = [HistoryStep(z_resolution(), HADAMARD) for _ in range(12)]
        report = consistency_check(HistorySet(steps), plus())
        assert report.n_histories == 4096
        assert report.pairs == 4096 * 4095 // 2
        assert len(report.discrepancies) == 4096 + 2


class TestHistorySetValidation:
    def test_resolution_must_sum_to_identity(self):
        with pytest.raises(Exception):
            HistoryStep([Projector.from_cells([0], 2)])

    def test_enumeration_order(self):
        hs = HistorySet([HistoryStep(z_resolution()), HistoryStep(z_resolution())])
        assert hs.choices() == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]
        assert hs.n_histories == 4
