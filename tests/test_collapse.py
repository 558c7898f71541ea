from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from bornlab.collapse import (
    MARTINGALE_FLOOR,
    MAX_NOISE_STREAMS,
    MAX_RECORDED_VALUES,
    MAX_STEPS,
    MAX_TRAJECTORY_STEPS,
    CollapseModel,
    MartingaleRow,
    _check_run,
    _eigen_frame,
    _run_batch,
    ensemble_outcomes,
    martingale_check,
    simulate,
    trajectory_to_csv,
)
from bornlab.errors import (
    DimensionMismatchError,
    IntegrationFailureError,
    InvalidStateError,
    PreconditionError,
)
from bornlab.hilbert import StateVector
from oracles import drift_diffusion, em_step


@pytest.fixture
def qubit_model():
    return CollapseModel(np.zeros((2, 2)), [np.diag([1.0, -1.0])], gamma=1.0)


def plus_state():
    return StateVector(np.array([1.0, 1.0]) / np.sqrt(2))


# joint labels on six cells; every family has at least one 2-dim joint block
LABELS = [[1, 1, 0, 0, -1, -1], [1, 0, 1, 0, 1, 1], [0, 2, 2, 1, 1, 1]]


def rotated_model(n_obs, hamiltonian="zero", norm_mode="mean-preserving"):
    """Observables diagonal in a random basis, plus a normalized start state.

    ``hamiltonian`` is ``zero``, ``diagonal`` (diagonal in the model's own
    eigenbasis, so it commutes with the observables), ``block`` (as
    ``diagonal``, but dense inside the first 2-dim joint block, so it still
    commutes) or ``dense`` (a random Hermitian matrix that does not commute
    with them).
    """
    rng = np.random.default_rng(n_obs)
    d = len(LABELS[0])
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    obs = [basis @ np.diag(labels) @ basis.conj().T for labels in LABELS[:n_obs]]
    ham = np.zeros((d, d))
    if hamiltonian in ("diagonal", "block"):
        free = CollapseModel(ham, obs, gamma=1.0)
        inner = np.diag(rng.normal(size=d)).astype(complex)
        if hamiltonian == "block":
            i, j = next(b.indices for b in free.blocks if len(b.indices) == 2)
            inner[i, j] = 0.8 - 0.5j
            inner[j, i] = 0.8 + 0.5j
        ham = free.eigenbasis @ inner @ free.eigenbasis.conj().T
    elif hamiltonian == "dense":
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ham = 0.3 * (z + z.conj().T)
    model = CollapseModel(ham, obs, gamma=1.0, norm_mode=norm_mode)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return model, psi / np.linalg.norm(psi)


def engine_path(model):
    ham = _eigen_frame(model)[3]
    return "zero" if ham is None else ("diagonal" if ham.ndim == 1 else "dense")


# the engine path each ``rotated_model`` Hamiltonian takes: a commuting H is a real vector
PATHS = {"zero": "zero", "diagonal": "diagonal", "block": "diagonal", "dense": "dense"}


class TestCollapseModel:
    def test_blocks_ordered_by_eigenvalue(self, qubit_model):
        assert [b.eigenvalues for b in qubit_model.blocks] == [(1.0,), (-1.0,)]

    def test_rejects_noncommuting(self):
        sx = np.array([[0, 1], [1, 0]])
        sz = np.diag([1.0, -1.0])
        with pytest.raises(InvalidStateError, match="commute"):
            CollapseModel(np.zeros((2, 2)), [sx, sz], gamma=1.0)

    def test_rejects_negative_gamma(self):
        with pytest.raises(InvalidStateError):
            CollapseModel(np.zeros((2, 2)), [np.diag([1.0, -1.0])], gamma=-1.0)

    def test_rejects_unknown_norm_mode(self):
        with pytest.raises(PreconditionError, match="unknown norm mode 'x'"):
            CollapseModel(None, [np.diag([1.0, -1.0])], gamma=1.0, norm_mode="x")

    def test_commuting_pair_joint_blocks(self):
        a1 = np.diag([1.0, 1.0, -1.0])
        a2 = np.diag([2.0, -2.0, 0.0])
        model = CollapseModel(np.zeros((3, 3)), [a1, a2], gamma=0.5)
        assert [b.eigenvalues for b in model.blocks] == [
            (1.0, 2.0),
            (1.0, -2.0),
            (-1.0, 0.0),
        ]

    def test_degenerate_observable_groups_block(self):
        model = CollapseModel(np.zeros((3, 3)), [np.diag([1.0, 1.0, -1.0])], gamma=1.0)
        assert model.n_outcomes == 2
        assert model.blocks[0].eigenvalues == (1.0,)
        cols = model.eigenbasis[:, list(model.blocks[0].indices)]
        assert np.allclose(cols @ cols.conj().T, np.diag([1.0, 1.0, 0.0]))

    def test_norm_convention(self, qubit_model):
        assert qubit_model.damping_coefficient == 0.5
        literal = CollapseModel(
            np.zeros((2, 2)), [np.diag([1.0, -1.0])], gamma=1.0, norm_mode="literal"
        )
        assert literal.damping_coefficient == 1.0


class TestDriftDiffusion:
    def test_eigenvector_annihilated(self, qubit_model):
        drift, diffusion = drift_diffusion(qubit_model, StateVector([1, 0]))
        assert np.allclose(diffusion[0], 0)
        assert np.allclose(drift, 0)

    def test_balanced_superposition(self, qubit_model):
        _, diffusion = drift_diffusion(qubit_model, plus_state())
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(diffusion[0], expected)

    def test_requires_normalized_state(self, qubit_model):
        with pytest.raises(PreconditionError):
            drift_diffusion(qubit_model, np.array([1.0, 1.0]))


class TestEmStep:
    def test_eigenstate_is_exact_fixed_point(self, qubit_model):
        psi = np.array([1.0 + 0j, 0.0])
        for db in (0.0, 0.3, -1.7):
            out = em_step(qubit_model, psi, 1e-3, np.array([db]))
            assert np.array_equal(out, psi)

    def test_zero_noise_contracts_toward_dominant(self, qubit_model):
        psi = np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex)
        out = em_step(qubit_model, psi, 1e-3, np.array([0.0]))
        # quadratic damping shrinks the component with larger |A - <A>|
        assert abs(out[1]) ** 2 > 0.7
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_zero_noise_step_matches_hand_computation(self, qubit_model):
        p = 0.3
        psi = np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex)
        dt = 1e-3
        mean = p - (1 - p)
        r = np.array([1.0, -1.0]) - mean
        expected = psi * (1 - 0.5 * r**2 * dt)
        expected /= np.linalg.norm(expected)
        out = em_step(qubit_model, psi, dt, np.array([0.0]))
        assert np.allclose(out, expected, atol=1e-15)

    def test_pure_hamiltonian_matches_exponential_to_dt2(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = CollapseModel(h, [np.eye(2)], gamma=0.0)
        psi = np.array([1.0 + 0j, 0.0])
        dt = 1e-3
        stepped = em_step(model, psi, dt, np.zeros(1))
        eigvals, eigvecs = np.linalg.eigh(h)
        exact = eigvecs @ np.diag(np.exp(-1j * eigvals * dt)) @ eigvecs.conj().T @ psi
        exact /= np.linalg.norm(exact)
        # H commutes with the observable, so the step applies exp(-i H dt) itself
        assert np.max(np.abs(stepped - exact)) < 1e-15

    def test_noise_component_count_checked(self, qubit_model):
        with pytest.raises(DimensionMismatchError):
            em_step(qubit_model, plus_state(), 1e-3, np.zeros(2))


class TestSimulate:
    def test_eigenstate_resolves_immediately(self, qubit_model):
        traj = simulate(qubit_model, StateVector([1, 0]), t_max=1.0, dt=1e-3, seed=5)
        assert traj.outcome == 0
        assert traj.resolve_time == 0.0
        traj2 = simulate(qubit_model, StateVector([0, 1]), t_max=1.0, dt=1e-3, seed=5)
        assert traj2.outcome == 1

    def test_eigenstate_states_bit_identical(self, qubit_model):
        # run with collapse detection off so all 10^4 steps execute
        psi0 = StateVector([0, 1])
        traj = simulate(
            qubit_model, psi0, t_max=10.0, dt=1e-3, seed=99, eps_collapse=0.0
        )
        assert traj.outcome is None
        reference = psi0.amplitudes
        assert all(np.array_equal(state, reference) for state in traj.states)
        assert len(traj.states) == 10_001

    def test_same_seed_bit_identical(self, qubit_model):
        a = simulate(qubit_model, plus_state(), t_max=3.0, dt=1e-3, seed=42)
        b = simulate(qubit_model, plus_state(), t_max=3.0, dt=1e-3, seed=42)
        assert np.array_equal(a.states, b.states)
        assert a.outcome == b.outcome
        assert a.resolve_time == b.resolve_time

    def test_balanced_state_resolves(self, qubit_model):
        traj = simulate(qubit_model, plus_state(), t_max=50.0, dt=1e-3, seed=1)
        assert traj.outcome in (0, 1)

    def test_norms_stay_unit(self, qubit_model):
        traj = simulate(qubit_model, plus_state(), t_max=1.0, dt=1e-3, seed=3)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_step_size_warning(self, qubit_model):
        with pytest.warns(RuntimeWarning, match="dt"):
            simulate(qubit_model, plus_state(), t_max=1.0, dt=0.2, seed=1)

    def test_frozen_dynamics(self):
        model = CollapseModel(np.zeros((2, 2)), [np.diag([1.0, -1.0])], gamma=0.0)
        traj = simulate(model, plus_state(), t_max=0.1, dt=1e-3, seed=8)
        assert traj.outcome is None
        assert np.array_equal(traj.states[0], traj.states[-1])

    def test_three_component_observable_family(self):
        # a commuting triple acting on a 4-cell grid
        observables = [
            np.diag([1.0, 1.0, -1.0, -1.0]),
            np.diag([1.0, -1.0, 1.0, -1.0]),
            np.diag([2.0, 0.0, 0.0, -2.0]),
        ]
        model = CollapseModel(np.zeros((4, 4)), observables, gamma=1.0)
        assert model.n_outcomes == 4
        psi0 = StateVector([1.0, 1.0, 1.0, 1.0])
        traj = simulate(model, psi0, t_max=30.0, dt=1e-3, seed=31)
        assert traj.outcome in range(4)
        report = ensemble_outcomes(
            model, psi0, 200, t_max=30.0, dt=1e-3, seed=31, band_multiplier=2.0
        )
        assert report.unresolved_fraction < 0.05

    def test_sparse_recording_keeps_times_increasing(self, qubit_model):
        traj = simulate(
            qubit_model, plus_state(), t_max=5.0, dt=1e-3, seed=13, record_every=7
        )
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == pytest.approx(
            traj.resolve_time if traj.resolved else 5.0
        )

    def test_csv_roundtrip(self, qubit_model, tmp_path):
        traj = simulate(qubit_model, plus_state(), t_max=0.05, dt=1e-3, seed=2)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, qubit_model, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,re_0,re_1,im_0,im_1,p_0,p_1"
        assert len(lines) == len(traj.times) + 1
        first = [float(x) for x in lines[1].split(",")]
        assert first[5] + first[6] == pytest.approx(1.0)

    def test_csv_weights_match_block_weights(self, tmp_path):
        # joint blocks of 1 to 9 coordinates in a random basis; 8 or more take numpy's
        # pairwise sum, which a 2-D row sum does not reproduce
        sizes = range(1, 10)
        labels = np.repeat(np.arange(len(sizes), dtype=float), sizes)
        rng = np.random.default_rng(5)
        d = labels.size
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        model = CollapseModel(np.zeros((d, d)), [basis @ np.diag(labels) @ basis.conj().T], 1.0)
        assert sorted(len(b.indices) for b in model.blocks) == list(sizes)
        psi0 = StateVector(rng.normal(size=d) + 1j * rng.normal(size=d))
        traj = simulate(model, psi0, t_max=0.02, dt=1e-3, seed=3)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, model, path)
        rows = [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()[1:]]
        assert len(rows) == len(traj.states)
        for row, state in zip(rows, traj.states):
            assert row[1 + 2 * d :] == model.block_weights(state).tolist()

    def test_step_bound_checked_before_the_run(self, qubit_model):
        with pytest.raises(PreconditionError, match="t_max"):
            simulate(qubit_model, plus_state(), t_max=1e12, dt=1e-12, seed=1)
        with pytest.raises(PreconditionError, match="MAX_STEPS"):
            ensemble_outcomes(qubit_model, plus_state(), 2, t_max=1.0, dt=1e-320, seed=1)
        with pytest.raises(PreconditionError, match="martingale checkpoint"):
            martingale_check(qubit_model, plus_state(), 2, [MAX_STEPS * 2e-3], dt=1e-3, seed=1)
        assert _check_run(qubit_model, MAX_STEPS * 1e-3, 1e-3, 1e-6, [0.5]) == (MAX_STEPS, [500])


class TestEnsemble:
    def test_eigenstate_frequency_exactly_one(self, qubit_model):
        report = ensemble_outcomes(
            qubit_model, StateVector([1, 0]), 200, t_max=0.5, dt=1e-3, seed=10
        )
        assert report.rows[0].frequency == 1.0
        assert report.rows[0].count == 200
        assert report.unresolved_fraction == 0.0

    def test_balanced_frequencies(self, qubit_model):
        report = ensemble_outcomes(
            qubit_model, plus_state(), 1000, t_max=50.0, dt=1e-3, seed=500
        )
        assert report.passed
        assert report.rows[0].frequency == pytest.approx(0.5, abs=0.05)

    def test_ensemble_member_matches_single_simulation(self, qubit_model):
        report = ensemble_outcomes(
            qubit_model, plus_state(), 50, t_max=20.0, dt=1e-3, seed=7000
        )
        outcomes = []
        for i in range(50):
            traj = simulate(
                qubit_model, plus_state(), t_max=20.0, dt=1e-3, seed=7000 + i
            )
            outcomes.append(traj.outcome)
            # same outcome at the same step: a simulation is a batch of one
            assert report.outcomes[i] == (-1 if traj.outcome is None else traj.outcome)
            step = report.resolve_steps[i]
            assert (None if step < 0 else step * 1e-3) == traj.resolve_time
        assert report.rows[0].count == sum(1 for o in outcomes if o == 0)
        assert report.rows[1].count == sum(1 for o in outcomes if o == 1)

    def test_work_counters(self, qubit_model):
        report = ensemble_outcomes(
            qubit_model, plus_state(), 60, t_max=2.0, dt=1e-3, seed=31
        )
        steps = report.resolve_steps
        assert report.trajectory_steps == sum(s if s >= 0 else 2000 for s in steps)
        times = sorted(s * 1e-3 for s in steps if s >= 0)
        assert 0 < len(times) < 60
        quantiles = report.resolve_time_quantiles()
        assert quantiles["p50"] == pytest.approx(np.quantile(times, 0.5), abs=0)
        assert quantiles["p90"] == pytest.approx(np.quantile(times, 0.9), abs=0)
        assert quantiles["max"] == times[-1]

    def test_counters_without_resolution(self, qubit_model):
        report = ensemble_outcomes(
            qubit_model, plus_state(), 5, t_max=0.01, dt=1e-3, seed=3
        )
        assert report.trajectory_steps == 5 * 10
        assert report.resolve_time_quantiles() == {"p50": None, "p90": None, "max": None}

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_raises_integration_failure(self):
        model = CollapseModel(np.zeros((2, 2)), [np.diag([1e200, -1e200])], gamma=1.0)
        with pytest.raises(IntegrationFailureError) as err:
            ensemble_outcomes(model, plus_state(), 3, t_max=1.0, dt=1e-3, seed=1)
        assert err.value.step == 1
        assert "seed 1" in str(err.value)


class TestBatchEngine:
    @pytest.mark.parametrize("norm_mode", ["mean-preserving", "literal"])
    @pytest.mark.parametrize("hamiltonian", ["zero", "diagonal", "dense", "block"])
    @pytest.mark.parametrize("n_obs", [1, 2, 3])
    def test_matches_scalar_em_step(self, n_obs, hamiltonian, norm_mode):
        model, psi0 = rotated_model(n_obs, hamiltonian, norm_mode)
        assert engine_path(model) == PATHS[hamiltonian]
        assert max(len(b.indices) for b in model.blocks) == 2
        dt, n_steps, seed = 1e-3, 250, 17
        traj = simulate(
            model, StateVector(psi0), t_max=n_steps * dt, dt=dt, seed=seed, eps_collapse=0.0
        )
        assert len(traj.states) == n_steps + 1
        # the oracle draws the same stream one step at a time
        rng = np.random.default_rng(seed)
        scale = np.sqrt(model.gamma * dt)
        psi = psi0
        assert np.max(np.abs(traj.states[0] - psi)) < 1e-12
        for step in range(1, n_steps + 1):
            psi = em_step(model, psi, dt, rng.standard_normal(n_obs) * scale)
            assert np.max(np.abs(traj.states[step] - psi)) < 1e-12, step

    @pytest.mark.parametrize("hamiltonian", ["zero", "diagonal", "dense"])
    def test_row_does_not_depend_on_its_batch(self, hamiltonian):
        model, psi0 = rotated_model(2, hamiltonian)
        seeds = list(range(4000, 4300))
        rows, kwargs = (0, 1, 150, 299), dict(record_every=1000, record_until=6000)
        batch = _run_batch(model, psi0, seeds, [6000] * 300, 1e-3, 1e-6, record=rows, **kwargs)
        if hamiltonian != "dense":
            assert 0 < np.count_nonzero(batch.outcome >= 0) < 300
        for i in rows:
            alone = _run_batch(model, psi0, [seeds[i]], [6000], 1e-3, 1e-6, record=[0], **kwargs)
            assert alone.outcome[0] == batch.outcome[i]
            assert alone.resolve_step[0] == batch.resolve_step[i]
            assert np.array_equal(alone.traces[0][0], batch.traces[i][0])
            assert np.array_equal(alone.traces[0][1], batch.traces[i][1])

    @pytest.mark.parametrize("n, m, t_max", [(120, 40, 20.0), (120, 120, 20.0), (50, 80, 1.0)])
    def test_fused_martingale_matches_standalone(self, qubit_model, n, m, t_max):
        psi0 = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
        checkpoints = [2.0, 0.0, 0.4, 1.0]
        kwargs = dict(t_max=t_max, dt=1e-3, seed=8100)
        fused = ensemble_outcomes(
            qubit_model,
            psi0,
            n,
            martingale_checkpoints=checkpoints,
            martingale_trajectories=m,
            **kwargs,
        )
        alone = martingale_check(qubit_model, psi0, m, checkpoints, dt=1e-3, seed=8100)
        assert fused.martingale == alone
        assert fused.martingale.n_trajectories == m
        # martingale rows that run past t_max change no outcome
        plain = ensemble_outcomes(qubit_model, psi0, n, **kwargs)
        assert fused.outcomes == plain.outcomes
        assert fused.resolve_steps == plain.resolve_steps


def batch_law(model, psi):
    """Outcomes, resolution steps and block-mass snapshots of one fixed-seed batch."""
    checkpoints = [0, 300, 1500, 3000]
    batch = _run_batch(
        model, psi, list(range(5200, 5260)), [3000] * 60, 1e-3, 1e-3,
        checkpoints=checkpoints, snapshot_rows=30,
    )
    assert np.count_nonzero(batch.outcome >= 0) > 0
    return [batch.outcome, batch.resolve_step, *(batch.snapshots[s] for s in checkpoints)]


def invariance_case(name):
    """(model, start coordinates) of an invariance test; every H commutes with the observables."""
    if name.startswith("rotated"):
        return rotated_model(int(name[-1]), "diagonal")
    if name == "d8diag":
        return golden_case("d8diag")[:2]
    # the d6k3 golden model with an H that is dense inside the 2-dim joint block {4, 5}
    model, psi, _ = golden_case("d6k3")
    ham = np.diag([0.3, -0.2, 0.1, 0.5, 0.0, 0.7]).astype(complex)
    ham[4, 5], ham[5, 4] = 0.4 - 0.3j, 0.4 + 0.3j
    return CollapseModel(ham, model.observables, gamma=1.0), psi


class TestInvariance:
    """Changes of H that leave the block-mass law alone leave the engine's rows alone.

    A commuting H never enters the block masses, so each pair must agree bit
    for bit: outcomes, resolution steps and martingale snapshots.
    """

    CASES = ["rotated-1", "rotated-2", "rotated-3", "d8diag", "d6k3-block"]

    @pytest.mark.parametrize("name", CASES)
    def test_commuting_hamiltonian_gives_the_law_of_zero(self, name):
        model, psi = invariance_case(name)
        assert engine_path(model) == "diagonal"
        free = CollapseModel(None, model.observables, model.gamma, model.norm_mode)
        for a, b in zip(batch_law(model, psi), batch_law(free, psi)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["qubit-zero", *CASES])
    def test_shift_by_a_multiple_of_the_identity(self, name):
        if name == "qubit-zero":
            model, psi = golden_case("qubit")[:2]
        else:
            model, psi = invariance_case(name)
        shift = model.hamiltonian + 30.0 * np.eye(model.dim)
        shifted = CollapseModel(shift, model.observables, model.gamma, model.norm_mode)
        assert engine_path(shifted) == "diagonal"
        for a, b in zip(batch_law(model, psi), batch_law(shifted, psi)):
            assert np.array_equal(a, b)


def same_trajectory(a, b) -> bool:
    return (
        np.array_equal(a.times, b.times)
        and a.states.tobytes() == b.states.tobytes()
        and (a.outcome, a.resolve_time, a.seed) == (b.outcome, b.resolve_time, b.seed)
    )


class TestRecordedTrajectories:
    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("hamiltonian", ["zero", "diagonal", "dense"])
    def test_recorded_rows_equal_simulate(self, hamiltonian, every):
        model, psi0 = rotated_model(2, hamiltonian)
        psi0, record = StateVector(psi0), [7, 2, 2, 0]
        kwargs = dict(t_max=0.9, dt=1e-3, eps_collapse=1e-2)
        report = ensemble_outcomes(
            model, psi0, 10, seed=300, record=record, record_every=every, **kwargs
        )
        assert [t.seed for t in report.trajectories] == [307, 302, 302, 300]
        for i, traj in zip(record, report.trajectories):
            alone = simulate(model, psi0, seed=300 + i, record_every=every, **kwargs)
            assert same_trajectory(traj, alone)
            assert report.outcomes[i] == (-1 if traj.outcome is None else traj.outcome)

    @pytest.mark.parametrize("every", [1, 7])
    def test_martingale_rows_stop_recording_at_t_max(self, qubit_model, every):
        psi0 = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
        t_max, record = 0.5, [5, 1, 3, 0, 2, 4]
        report = ensemble_outcomes(
            qubit_model, psi0, 6, t_max=t_max, dt=1e-3, seed=8200, eps_collapse=1e-2,
            martingale_checkpoints=[3.0], record=record, record_every=every,
        )
        late = 0
        for i, traj in zip(record, report.trajectories):
            alone = simulate(qubit_model, psi0, t_max, 1e-3, 8200 + i, 1e-2, record_every=every)
            assert same_trajectory(traj, alone)
            longer = simulate(qubit_model, psi0, 3.0, 1e-3, 8200 + i, 1e-2, record_every=every)
            late += longer.resolved and longer.resolve_time > t_max
        assert 0 < late and any(t.resolved for t in report.trajectories)

    def test_recorded_rows_are_checked(self, qubit_model):
        with pytest.raises(PreconditionError, match="below n = 3"):
            ensemble_outcomes(qubit_model, plus_state(), 3, t_max=1.0, dt=1e-3, seed=1, record=[3])
        with pytest.raises(PreconditionError, match="horizon t_max must be > 0, got 0.0"):
            ensemble_outcomes(qubit_model, plus_state(), 3, t_max=0.0, dt=1e-3, seed=1, record=[0])
        with pytest.raises(PreconditionError, match="record_every"):
            simulate(qubit_model, plus_state(), t_max=1.0, dt=1e-3, seed=1, record_every=0)

    def test_overflow_names_seed_and_step_without_warning(self):
        for hamiltonian in [None, np.diag([0.5, 0.0])]:
            model = CollapseModel(hamiltonian, [np.diag([1e200, -1e200])], gamma=1.0)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(IntegrationFailureError) as err:
                    ensemble_outcomes(
                        model, plus_state(), 3, t_max=1.0, dt=1e-3, seed=1, record=[1]
                    )
            assert err.value.step == 1
            assert "seed 1: squared norm inf at step 1" in str(err.value)
            # the error reports the failed step, so numpy's overflow warning is silenced
            assert not caught


class TestMartingale:
    def test_eigenstate_constant(self, qubit_model):
        report = martingale_check(
            qubit_model, StateVector([1, 0]), 50, [0.0, 0.1, 0.5], dt=1e-3, seed=4
        )
        assert report.passed
        for row in report.rows:
            assert row.mean == row.born

    def test_balanced_state_mean_stays(self, qubit_model):
        report = martingale_check(
            qubit_model, plus_state(), 800, [0.5, 1.0, 3.0], dt=1e-3, seed=21
        )
        assert report.passed
        late = [r for r in report.rows if r.time == 3.0]
        # variance saturates near p(1-p) once trajectories are resolved
        spread = late[0].sigma_mean * np.sqrt(800)
        assert spread == pytest.approx(0.5, abs=0.1)

    def test_frozen_dynamics_zero_variance(self):
        model = CollapseModel(np.zeros((2, 2)), [np.diag([1.0, -1.0])], gamma=0.0)
        report = martingale_check(
            model, plus_state(), 40, [0.05, 0.1], dt=1e-3, seed=2
        )
        assert report.passed
        for row in report.rows:
            assert row.sigma_mean == 0.0

    @pytest.mark.parametrize(
        "gap, within", [(MARTINGALE_FLOOR / 2, True), (2 * MARTINGALE_FLOOR, False)]
    )
    def test_zero_variance_band_floor(self, gap, within):
        row = MartingaleRow(time=0.1, outcome=0, mean=0.5 + gap, born=0.5, sigma_mean=0.0)
        assert row.within_band is within


class TestRunBounds:
    def test_ensemble_rejects_state_of_other_dimension(self, qubit_model):
        with pytest.raises(DimensionMismatchError):
            ensemble_outcomes(qubit_model, StateVector([1, 0, 0]), 2, t_max=0.01, dt=1e-3, seed=1)

    def test_noise_streams_bounded_before_allocation(self):
        three = [np.diag([1.0, -1.0, 1.0, -1.0]), np.diag([1.0, 1.0, -1.0, -1.0]), np.eye(4)]
        model = CollapseModel(np.zeros((4, 4)), three, gamma=1.0)
        n = MAX_NOISE_STREAMS // 3 + 1
        with pytest.raises(PreconditionError, match="MAX_NOISE_STREAMS"):
            ensemble_outcomes(model, StateVector([1, 1, 1, 1]), n, t_max=1.0, dt=1e-3, seed=1)

    def test_trajectory_steps_bounded_before_work(self, qubit_model):
        n = MAX_NOISE_STREAMS
        t_max = (MAX_TRAJECTORY_STEPS // n + 1) * 1e-3
        with pytest.raises(PreconditionError, match="MAX_TRAJECTORY_STEPS"):
            ensemble_outcomes(qubit_model, plus_state(), n, t_max=t_max, dt=1e-3, seed=1)

    def test_recorded_values_bounded_before_work(self):
        # with gamma = 0 nothing resolves, so a recorded run would keep every one of its 10^7 steps
        model = CollapseModel(None, [np.diag([1.0, -1.0])], gamma=0.0)
        rows = 1e4 / 1e-3 + 2  # each holds t, two real and two imaginary parts and two weights
        assert rows * 7 > MAX_RECORDED_VALUES
        with pytest.raises(PreconditionError, match="recorded trajectories exceed"):
            simulate(model, plus_state(), t_max=1e4, dt=1e-3, seed=1)

    def test_missing_hamiltonian_is_zero(self, qubit_model):
        model = CollapseModel(None, qubit_model.observables, gamma=1.0)
        assert np.array_equal(model.hamiltonian, np.zeros((2, 2)))
        with pytest.raises(DimensionMismatchError):
            CollapseModel(None, [np.zeros((0, 0))], gamma=1.0)

    def test_csv_rows_match_per_value_repr(self, qubit_model, tmp_path):
        # more rows than one write chunk; the former writer formatted each value with repr
        traj = simulate(qubit_model, plus_state(), t_max=3.0, dt=1e-3, seed=42, eps_collapse=0.0)
        assert len(traj.times) > 1024
        path = tmp_path / "t.csv"
        trajectory_to_csv(traj, qubit_model, path)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == len(traj.times)
        for line, t, state in zip(lines, traj.times, traj.states):
            fields = line.split(",")
            assert fields[:5] == [repr(float(x)) for x in (t, *state.real, *state.imag)]


# Golden digests of the batch engine on models whose eigenbasis is a signed
# permutation, so no BLAS kernel choice enters a row.  Each case runs a
# martingale-style batch: the first 16 rows stop at HORIZON, the other 8 run
# on to LONG_HORIZON, and the first 12 rows are snapshotted at the checkpoints.
SEEDS = range(9100, 9124)
HORIZON, LONG_HORIZON = 1500, 2500
GOLDEN_RECORDED = (17, 5, 0)  # unsorted; row 17 runs past HORIZON


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return v / np.sqrt(np.sum(v.real**2 + v.imag**2))


def golden_case(name):
    """(model, start coordinates, eps_collapse) of one golden-digest case."""
    if name == "qubit":
        model = CollapseModel(np.zeros((2, 2)), [np.diag([1.0, -1.0])], gamma=1.0)
        return model, _unit([np.cos(0.6), np.sin(0.6) * np.exp(0.9j)]), 1e-3
    if name == "d6k3":
        model = CollapseModel(np.zeros((6, 6)), [np.diag(lab) for lab in LABELS], gamma=1.0)
        return model, _unit([0.5, 0.2 - 0.4j, 0.3j, 0.6, -0.1 + 0.2j, 0.25]), 1e-3
    # d = 8, diagonal H, two observables with 3- and 2-dim joint blocks, one zero amplitude
    labels = [[1, 1, 1, 0, 0, -1, -1, -1], [1, 1, 1, 0, 1, 1, 0, 0]]
    ham = np.diag([0.3, -0.2, 0.1, 0.5, 0.0, 0.7, -0.4, 0.2])
    model = CollapseModel(ham, [np.diag(lab) for lab in labels], gamma=1.0)
    psi = _unit([0.4, 0.1 + 0.3j, 0.0, -0.35j, 0.5, 0.2, 0.3 - 0.2j, 0.15])
    return model, psi, 2e-2


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:20]


GOLDEN = {  # name -> (batch digest, {record_every: recorded-rows digest})
    "qubit": ("f9c59d592fd9a2d5cf9a", {1: "d5db99ce13e6ddffb563", 7: "92a7b115216d7ce21831"}),
    "d6k3": ("aa6c489300a618ddd9e4", {1: "06ce193ba825880815fa", 7: "ce343da771405df813b5"}),
    "d8diag": ("9b7952d9bc0c53a272f8", {1: "4ce05d8b3d0dc894f243", 7: "c9741578b46719d96bff"}),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_batch_digest(self, name):
        model, psi, eps = golden_case(name)
        basis = model.eigenbasis
        assert np.array_equal(np.abs(basis), np.abs(basis) ** 2)  # a signed permutation
        batch = _run_batch(
            model, psi, list(SEEDS), [HORIZON] * 16 + [LONG_HORIZON] * 8, 1e-3, eps,
            checkpoints=[0, 400, HORIZON, LONG_HORIZON], snapshot_rows=12,
        )
        assert 0 < np.count_nonzero(batch.outcome >= 0) < len(SEEDS)
        snaps = [batch.snapshots[s] for s in sorted(batch.snapshots)]
        assert digest(batch.outcome, batch.resolve_step, *snaps) == GOLDEN[name][0]

    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_recorded_digest(self, name, every):
        model, psi, eps = golden_case(name)
        batch = _run_batch(
            model, psi, list(SEEDS), [HORIZON] * 16 + [LONG_HORIZON] * 8, 1e-3, eps,
            record=GOLDEN_RECORDED, record_every=every, record_until=HORIZON,
        )
        traces = [batch.traces[row] for row in sorted(GOLDEN_RECORDED)]
        parts = [a for steps, states in traces for a in (np.array(steps), states)]
        assert digest(*parts) == GOLDEN[name][1][every]

    def test_complex_division_by_a_real_is_a_float_view_product(self):
        """Pin the identity ``x / s == (x.view(float) * (1 / s)).view(complex)``.

        numpy (2.4.6) divides a complex by a real with Smith's algorithm,
        re * (1 / s) and im * (1 / s) up to the sign of a zero: a part equal
        to -0.0 can come out as +0.0.  The engine renormalizes complex rows
        through the float view, so the identity must hold bit for bit on
        entries without negative zeros, exactly-zero amplitudes included.
        """
        rng = np.random.default_rng(2024)
        x = rng.normal(size=(2000, 64)) + 1j * rng.normal(size=(2000, 64))
        x *= np.exp(rng.uniform(-30.0, 30.0, size=x.shape))
        x[::7, ::5] = 0.0
        s = np.exp(rng.uniform(-50.0, 50.0, size=(2000, 1)))
        quotient = x / s
        product = x.copy()
        product.view(float)[...] *= 1.0 / s
        assert np.array_equal(quotient.view(np.uint64), product.view(np.uint64))
