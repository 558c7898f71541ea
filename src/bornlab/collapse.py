"""Monte Carlo integrator for continuous stochastic state reduction.

The state obeys an Ito process whose drift and diffusion are built from a
commuting family of preferred observables: the diffusion operators are the
observables centred on their expectations, the drift adds the Hamiltonian
and a quadratic damping term, and the Gaussian noise carries variance
``gamma * dt`` per component.  Explicit Euler-Maruyama steps with per-step
renormalization, taken by one batch engine in the observables' joint
eigenbasis; every trajectory runs on its own seeded noise stream, so no
result depends on how trajectories are batched.

There a step multiplies each joint block's amplitudes by one real factor.
When H commutes with the observables, the engine evolves one real mass per
block, the martingales that decide the outcome (Adler, Brody, Brun &
Hughston, J. Phys. A 34, 8795, 2001), and H acts only as its exact phase
exp(-i H t) on recorded states; any other H keeps the amplitudes and its
Euler term ``-i H dt``.

Norm convention: taken literally, the quadratic drift preserves the mean
squared norm only at one special coupling value.  The default mode scales
that term by ``gamma / 2``, which preserves the mean squared norm for every
coupling (and makes the renormalized projector expectations a martingale up
to O(dt^2) per step); ``norm_mode="literal"`` keeps the unscaled reading.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    IntegrationFailureError,
    InvalidStateError,
    PreconditionError,
)
from .hilbert import StateVector, row_apply

COMMUTE_TOL = 1e-10
HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-12
MARTINGALE_FLOOR = 1e-12  # band floor of a zero-variance martingale row: summation noise
DEFAULT_COLLAPSE_EPS = 1e-6
UNRESOLVED_FLAG_FRACTION = 0.01
STEP_WARN_THRESHOLD = 0.1
EIGEN_CLUSTER_TOL = 1e-8  # eigenvalues this close share an eigenspace
MAX_STEPS = 10**7  # steps per trajectory, checked before a run allocates anything
MAX_NOISE_STREAMS = 10**5  # trajectories x observables; each holds _CHUNK_STEPS float64 draws
MAX_TRAJECTORY_STEPS = 5 * 10**9  # steps asked of one ensemble, over every trajectory
MAX_RECORDED_VALUES = 3 * 10**7  # CSV values of the recorded trajectories, over all of them
_CHUNK_STEPS = 1024


@dataclass(frozen=True)
class SpectralBlock:
    """One joint eigenspace of the observable family."""

    indices: tuple[int, ...]  # eigenbasis coordinates
    eigenvalues: tuple[float, ...]  # one eigenvalue per observable


@dataclass(frozen=True)
class CollapseModel:
    """Hamiltonian, commuting preferred observables, and coupling constant.

    ``observables`` is a list of Hermitian matrices commuting pairwise
    within tolerance (one for toy models, three for a vector observable).
    ``gamma`` is the noise coupling; it must be nonnegative, with zero
    giving frozen (or purely Hamiltonian) dynamics; a ``hamiltonian`` of
    None is the zero matrix.  Joint eigenprojectors
    of the family define the collapse outcomes, ordered by first appearance
    in the shared eigenbasis.
    """

    hamiltonian: np.ndarray
    observables: tuple[np.ndarray, ...]
    gamma: float
    norm_mode: str = "mean-preserving"
    eigenbasis: np.ndarray = field(init=False, compare=False, repr=False)
    blocks: tuple[SpectralBlock, ...] = field(init=False, compare=False, repr=False)

    def __init__(self, hamiltonian, observables, gamma, norm_mode="mean-preserving"):
        obs = tuple(np.array(a, dtype=complex) for a in observables)
        if not obs:
            raise InvalidStateError("at least one preferred observable required")
        ham = np.zeros_like(obs[0]) if hamiltonian is None else np.array(hamiltonian, dtype=complex)
        d = ham.shape[0]
        if d == 0 or ham.shape != (d, d):
            raise DimensionMismatchError("hamiltonian must be square and non-empty")
        if np.max(np.abs(ham - ham.conj().T)) > HERMITIAN_TOL:
            raise InvalidStateError("hamiltonian must be Hermitian")
        for a in obs:
            if a.shape != (d, d):
                raise DimensionMismatchError("observables must match the Hamiltonian")
            if np.max(np.abs(a - a.conj().T)) > HERMITIAN_TOL:
                raise InvalidStateError("observables must be Hermitian")
        for i in range(len(obs)):
            for j in range(i + 1, len(obs)):
                comm = obs[i] @ obs[j] - obs[j] @ obs[i]
                if np.max(np.abs(comm)) > COMMUTE_TOL:
                    raise InvalidStateError(
                        f"observables {i} and {j} do not commute within tolerance"
                    )
        gamma = float(gamma)
        if gamma < 0:
            raise InvalidStateError("gamma must be nonnegative")
        if norm_mode not in ("mean-preserving", "literal"):
            raise PreconditionError(f"unknown norm mode {norm_mode!r}")
        ham.setflags(write=False)
        for a in obs:
            a.setflags(write=False)
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "norm_mode", norm_mode)
        basis, blocks = _joint_eigenblocks(obs)
        object.__setattr__(self, "eigenbasis", basis)
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def n_observables(self) -> int:
        return len(self.observables)

    @property
    def n_outcomes(self) -> int:
        return len(self.blocks)

    @property
    def damping_coefficient(self) -> float:
        """Coefficient of the quadratic drift term (gamma/2 or literal 1)."""
        return self.gamma / 2.0 if self.norm_mode == "mean-preserving" else 1.0

    def block_weights(self, psi: np.ndarray) -> np.ndarray:
        """Expectation of each joint eigenprojector in a normalized state."""
        coeff = self.eigenbasis.conj().T @ psi
        mass = np.abs(coeff) ** 2
        return np.array([mass[list(b.indices)].sum() for b in self.blocks])


def _joint_eigenblocks(observables):
    """Shared eigenbasis plus joint-eigenvalue blocks, deterministically ordered.

    Eigenspaces are refined observable by observable; blocks are ordered by
    their first coordinate in the final basis, which for diagonal
    observables reproduces the natural cell order.
    """
    d = observables[0].shape[0]
    basis = np.eye(d, dtype=complex)
    partition: list[list[int]] = [list(range(d))]
    for a in observables:
        new_partition: list[list[int]] = []
        for group in partition:
            cols = basis[:, group]
            sub = cols.conj().T @ a @ cols
            eigvals, eigvecs = np.linalg.eigh(sub)
            basis[:, group] = cols @ eigvecs
            start = 0
            while start < len(group):
                stop = start + 1
                while (
                    stop < len(group)
                    and abs(eigvals[stop] - eigvals[start]) <= EIGEN_CLUSTER_TOL
                ):
                    stop += 1
                new_partition.append(group[start:stop])
                start = stop
        partition = new_partition
    labelled = []
    for group in partition:
        values = []
        for a in observables:
            col = basis[:, group[0]]
            values.append(float(np.real(np.vdot(col, a @ col))))
        labelled.append((tuple(values), tuple(group)))
    # outcomes ordered by joint eigenvalue, largest first
    labelled.sort(key=lambda pair: pair[0], reverse=True)
    return basis, tuple(
        SpectralBlock(indices, values) for values, indices in labelled
    )


@dataclass(frozen=True)
class Trajectory:
    """One realized stochastic history.

    ``states[i]`` is the normalized state at ``times[i]``; ``outcome`` is
    the resolved joint-eigenspace index or None when unresolved at the
    final time.
    """

    times: np.ndarray
    states: np.ndarray
    outcome: int | None
    resolve_time: float | None
    seed: int

    @property
    def resolved(self) -> bool:
        return self.outcome is not None


def _check_run(model: CollapseModel, t_max: float, dt: float, eps_collapse: float, times):
    """Reject a run that cannot be integrated; warn when steps look coarse.

    Returns the step counts of ``t_max`` and of each checkpoint in ``times``.
    """
    if not 0 <= t_max < math.inf:
        raise PreconditionError(f"horizon t_max must be finite and >= 0, got {t_max}")
    if not 0 < dt < math.inf:
        raise PreconditionError(f"step size dt must be finite and > 0, got {dt}")
    if not 0 <= eps_collapse < 1:
        raise PreconditionError(f"eps_collapse must lie in [0, 1), got {eps_collapse}")
    if not all(0 <= t < math.inf for t in times):
        raise PreconditionError(f"martingale checkpoints must be finite and >= 0, got {times}")
    steps = [round(min(t / dt, MAX_STEPS + 1)) for t in (t_max, *times)]
    if max(steps) > MAX_STEPS:
        what = "t_max" if steps[0] > MAX_STEPS else "a martingale checkpoint"
        raise PreconditionError(f"{what} / dt exceeds MAX_STEPS = {MAX_STEPS} steps")
    if dt * model.gamma > STEP_WARN_THRESHOLD:
        warnings.warn(
            f"dt * gamma = {dt * model.gamma:.3g} exceeds {STEP_WARN_THRESHOLD}; "
            "Euler steps may be too coarse",
            RuntimeWarning,
            stacklevel=3,
        )
    return steps[0], steps[1:]


# ---------------------------------------------------------------------------
# batch engine in the joint eigenbasis
# ---------------------------------------------------------------------------


def _eigen_frame(model: CollapseModel):
    """Block-ordered eigenbasis V, block eigenvalue rows, block starts and H's part.

    Each joint block is a contiguous run of columns; row ``k`` of the
    eigenvalues holds observable k's eigenvalue on each block.  H comes back
    as None when ``V^+ H V`` vanishes.  When ``V^+ H V`` is block-diagonal
    over the joint blocks, H commutes with the observables and comes back
    as the real vector h of its eigenvalues: one ``eigh`` per block that is
    not already diagonal turns V within that block.  Any other H comes back
    as the dense ``V^+ H V``.
    """
    basis = model.eigenbasis[:, [i for b in model.blocks for i in b.indices]]
    lam = np.array([b.eigenvalues for b in model.blocks]).T
    sizes = [len(b.indices) for b in model.blocks]
    starts = np.cumsum([0] + sizes[:-1])
    ham = basis.conj().T @ model.hamiltonian @ basis
    size = float(np.max(np.abs(ham)))
    if size <= NORM_TOL:
        return basis, lam, starts, None
    tol = NORM_TOL * size
    cells = np.repeat(np.arange(len(sizes)), sizes)
    if np.max(np.abs(ham[cells[:, None] != cells]), initial=0.0) > tol:
        return basis, lam, starts, ham
    h = np.real(np.diag(ham)).copy()
    for start, width in zip(starts, sizes):
        block = slice(start, start + width)
        sub = ham[block, block]
        if np.max(np.abs(sub - np.diag(np.diag(sub)))) > tol:
            h[block], turn = np.linalg.eigh(sub)
            basis[:, block] = basis[:, block] @ turn
    return basis, lam, starts, h


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum the last axis, kept as length 1, in an order set by its length (short: column adds)."""
    if a.shape[-1] > 4:
        return np.add.reduce(a, axis=-1, keepdims=True)
    total = a[..., 0:1]
    for i in range(1, a.shape[-1]):
        total = total + a[..., i : i + 1]
    return total


@dataclass(frozen=True)
class _Batch:
    outcome: np.ndarray  # per seed: joint block index, -1 while unresolved
    resolve_step: np.ndarray  # per seed: -1 while unresolved
    steps: int  # trajectory-steps integrated over all seeds
    snapshots: dict  # checkpoint step -> block masses of the snapshot rows
    traces: dict  # recorded row -> (steps, states at those steps, rotated back)


# a failed step leaves a NaN or infinite mass, which the resolution check reports
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _run_batch(
    model: CollapseModel,
    psi0: np.ndarray,
    seeds: Sequence[int],
    horizons: Sequence[int],
    dt: float,
    eps_collapse: float,
    *,
    checkpoints: Sequence[int] = (),
    snapshot_rows: int = 0,
    record: Sequence[int] = (),
    record_every: int = 1,
    record_until: int | None = None,
) -> _Batch:
    """Evolve one trajectory per seed in the joint eigenbasis.

    Row ``i`` starts at ``psi0`` and runs until it resolves or reaches
    ``horizons[i]`` steps on its own stream, drawn ``(span, K)`` per chunk.
    A step multiplies each joint block's amplitudes by the real factor
    ``f = 1 + sum_k r_k (db_k - c dt r_k)``, ``r_k = lambda_k - <lambda_k>``,
    and renormalizes.  For a commuting H a row is its block masses W, each
    multiplied by ``f**2``, and a recorded state is rebuilt as
    ``x_c(0) sqrt(W_B(t)) / sqrt(W_B(0)) exp(-i h_c t)``; a dense H keeps
    the amplitudes x and adds ``-i dt H x``.  Per-row values come from
    elementwise operations and reductions along the row, so no row depends
    on the batch it runs in.  The first ``snapshot_rows`` rows' block
    masses are kept at each checkpoint step.  Each row listed in ``record``
    has its state recorded every ``record_every`` steps and at the step
    where it stops, or at ``record_until`` if it is still running then.
    """
    basis, lam, starts, ham = _eigen_frame(model)
    n, K, m = len(seeds), model.n_observables, len(starts)
    dense = ham is not None and ham.ndim == 2
    cells = np.repeat(np.arange(m), np.diff(starts, append=model.dim))
    horizons = np.asarray(horizons, dtype=int)
    last, ends, checkpoints = int(horizons.max()), set(horizons.tolist()), set(checkpoints)
    if K == 1:
        lam = lam[0]
    # one row of eigenvalues per trajectory: a step's products then broadcast at most one operand
    lam = np.repeat(lam[None], n, axis=0)
    cdt = model.damping_coefficient * dt
    cdt_lam = cdt * lam
    scale = np.sqrt(model.gamma * dt)
    threshold = 1.0 - eps_collapse

    coeff = basis.conj().T @ psi0
    w0 = model.block_weights(psi0)  # the same masses whatever H is
    mass = np.tile(w0, (n, 1))
    norm2 = _row_sum(mass)  # a start state that is not finite fails at step 0
    if dense:
        x = np.tile(coeff, (n, 1))
        rot = -1j * dt * ham.T
    gens = [np.random.default_rng(int(s)) for s in seeds]
    ids = np.arange(n)
    outcome, resolve_step = np.full(n, -1), np.full(n, -1)
    frozen = np.empty((snapshot_rows, m))
    snapshots = {}
    # recorded rows still running and their live positions; per recording step, the step, the
    # rows it records and their rows of x (dense H) or of the masses gathered in one block
    rec = pos = np.array(sorted(set(record)), dtype=int)
    shots = []
    total = step = j = span = 0
    sel = None
    while True:
        done = None
        top = np.maximum.reduce(mass, axis=None)
        if not top <= threshold:
            if top != top:  # a zero, infinite or NaN squared norm left a NaN mass
                bad = np.flatnonzero(~((norm2 > 0.0) & (norm2 < np.inf)))[0]
                raise IntegrationFailureError(
                    f"integration failed for trajectory seed {seeds[ids[bad]]}: "
                    f"squared norm {norm2[bad, 0]} at step {step}",
                    step=step,
                    time=step * dt,
                )
            done = np.maximum.reduce(mass, axis=1) > threshold
        if step in ends:
            stop = horizons[ids] == step
            done = stop if done is None else done | stop
        if rec.size:
            cut = step == record_until
            every = cut or step % record_every == 0
            if every or done is not None:
                ended = np.full(rec.size, cut) if done is None else done[pos] | cut
                state = x if dense else mass
                if every:
                    shots.append((step, rec, state[pos]))
                elif ended.any():
                    shots.append((step, rec[ended], state[pos[ended]]))
                rec = rec[~ended]
        if done is not None:
            rows, settled = ids[done], mass[done]
            won = np.maximum.reduce(settled, axis=1) > threshold
            outcome[rows[won]] = settled[won].argmax(axis=1)
            resolve_step[rows[won]] = step
            low = rows < snapshot_rows
            frozen[rows[low]] = settled[low]
            total += step * rows.size
            # compact the live rows; the chunk's noise block stays in place
            keep = ~done
            ids, mass = ids[keep], mass[keep]
            if dense:
                x = x[keep]
            sel = np.flatnonzero(keep) if sel is None else sel[keep]
            if rec.size:
                pos = np.searchsorted(ids, rec)
        if step in checkpoints:
            snapshots[step] = snap = frozen.copy()
            live = np.searchsorted(ids, snapshot_rows)
            snap[ids[:live]] = mass[:live]
        if not ids.size:
            break
        if j == span:
            span = min(_CHUNK_STEPS, last - step)
            stream = np.empty((span, ids.size, K))
            for col, row in enumerate(ids):
                stream[:, col] = gens[row].standard_normal((span, K))
            stream *= scale
            if K > 1:
                stream = stream[..., None]
            j, sel = 0, None
        db = stream[j] if sel is None else stream[j, sel]
        j += 1
        lam_now = lam[: len(mass)]
        e = _row_sum(mass * lam_now if K == 1 else mass[:, None, :] * lam_now)
        factor = (lam_now - e) * ((db + cdt * e) - cdt_lam[: len(mass)])
        if K > 1:
            factor = np.add.reduce(factor, axis=1)
        factor += 1.0
        step += 1
        if dense:
            # numpy hands a one-row product to another BLAS kernel; two rows keep one
            wide = x if len(x) > 1 else np.vstack((x, x))
            x = x * factor[:, cells] + (wide @ rot)[: len(x)]
            w = x.view(float) ** 2
            cell_mass = w[:, 0::2] + w[:, 1::2]
            norm2 = _row_sum(cell_mass)
            # numpy divides a complex by a real as re * (1 / s), im * (1 / s)
            parts = x.view(float)
            parts *= 1.0 / np.sqrt(norm2)
            mass = np.add.reduceat(cell_mass, starts, axis=1)
        else:
            mass *= factor
            mass *= factor
            norm2 = _row_sum(mass)
        mass /= norm2
    for cp in checkpoints - snapshots.keys():
        snapshots[cp] = frozen.copy()
    traces = {}
    if shots:
        owner = np.concatenate([recorded for _, recorded, _ in shots])
        steps = np.repeat([s for s, _, _ in shots], [len(recorded) for _, recorded, _ in shots])
        states = np.concatenate([block for _, _, block in shots])
        if not dense:
            grown = np.divide(np.sqrt(states), np.sqrt(w0), out=np.zeros_like(states), where=w0 > 0)
            states = coeff * grown[:, cells]
            if ham is not None:
                states *= np.exp(-1j * np.multiply.outer(steps * dt, ham))
        order = np.argsort(owner, kind="stable")
        for idx in np.split(order, np.flatnonzero(np.diff(owner[order])) + 1):
            traces[int(owner[idx[0]])] = (steps[idx], states[idx] @ basis.T)
    return _Batch(outcome, resolve_step, total, snapshots, traces)


def simulate(
    model: CollapseModel,
    psi0: StateVector,
    t_max: float,
    dt: float,
    seed: int,
    eps_collapse: float = DEFAULT_COLLAPSE_EPS,
    *,
    record_every: int = 1,
) -> Trajectory:
    """Integrate a single trajectory until resolution or ``t_max``.

    The trajectory resolves to outcome ``k`` at the first step where the
    k-th joint-eigenprojector expectation exceeds ``1 - eps_collapse``.
    It is a batch of one: identical seeds give bit-identical trajectories,
    and ensemble member ``seed`` resolves the same way at the same step.
    States are recorded every ``record_every`` steps, at the resolution
    step and at ``t_max``.
    """
    report = ensemble_outcomes(
        model, psi0, 1, t_max=t_max, dt=dt, seed=seed, eps_collapse=eps_collapse,
        record=(0,), record_every=record_every,
    )
    return report.trajectories[0]


@dataclass(frozen=True)
class OutcomeRow:
    outcome: int
    eigenvalues: tuple[float, ...]
    count: int
    frequency: float
    born: float
    deviation: float
    band: float

    @property
    def within_band(self) -> bool:
        return self.deviation <= self.band


@dataclass(frozen=True)
class MartingaleRow:
    time: float
    outcome: int
    mean: float
    born: float
    sigma_mean: float

    @property
    def within_band(self) -> bool:
        return abs(self.mean - self.born) < max(4.0 * self.sigma_mean, MARTINGALE_FLOOR)


@dataclass(frozen=True)
class MartingaleReport:
    rows: tuple[MartingaleRow, ...]
    passed: bool
    n_trajectories: int


@dataclass(frozen=True)
class EnsembleReport:
    """Outcome frequencies of an ensemble against the state's weights.

    Frequencies are over resolved trajectories; the unresolved fraction is
    reported (and flagged above 1%) but never silently dropped.  The band
    is ``band_multiplier * 3 * sqrt(p(1-p)/N)``, with the multiplier that
    :func:`ensemble_outcomes` was given.  ``outcomes`` and ``resolve_steps``
    hold each trajectory's outcome index and resolution step (-1 while
    unresolved) in seed order, ready for frequency auditing.
    ``trajectory_steps`` counts steps integrated over the whole pass,
    martingale rows included; ``martingale`` is the fused check, if any;
    ``trajectories`` holds the recorded trajectories.
    """

    n_trajectories: int
    n_resolved: int
    rows: tuple[OutcomeRow, ...]
    unresolved_fraction: float
    unresolved_flagged: bool
    passed: bool
    outcomes: tuple[int, ...] = ()
    resolve_steps: tuple[int, ...] = ()
    dt: float = 0.0
    trajectory_steps: int = 0
    martingale: MartingaleReport | None = None
    trajectories: tuple[Trajectory, ...] = ()

    def resolve_time_quantiles(self) -> dict:
        """p50, p90 and max resolution time over resolved trajectories."""
        times = np.array([s for s in self.resolve_steps if s >= 0]) * self.dt
        if not times.size:
            return dict.fromkeys(("p50", "p90", "max"))
        return dict(zip(("p50", "p90", "max"), np.quantile(times, [0.5, 0.9, 1.0]).tolist()))


def ensemble_outcomes(
    model: CollapseModel,
    psi0: StateVector,
    n: int,
    *,
    t_max: float,
    dt: float,
    seed: int,
    eps_collapse: float = DEFAULT_COLLAPSE_EPS,
    band_multiplier: float = 1.0,
    martingale_checkpoints: Sequence[float] | None = None,
    martingale_trajectories: int | None = None,
    record: Sequence[int] = (),
    record_every: int = 1,
) -> EnsembleReport:
    """Run ``n`` trajectories with seeds ``seed + i`` and compare to weights.

    Per-outcome frequencies must sit within ``band_multiplier`` times the
    three-sigma binomial band around the state's projector weights for the
    report to pass; it is flagged when more than ``UNRESOLVED_FLAG_FRACTION``
    of the trajectories stay unresolved.  One batch runs every trajectory,
    each on its own seeded stream.  Given ``martingale_checkpoints``, the
    same pass also runs the martingale check of :func:`martingale_check`
    over the first ``martingale_trajectories`` seeds (default ``n``).
    ``record`` lists trajectories whose states the same pass records as
    :func:`simulate` does, up to ``t_max``; each comes back in
    ``trajectories`` with the outcome that the report counts.
    """
    if n < 1:
        raise PreconditionError(f"trajectory count n must be at least 1, got {n}")
    psi0.require_nonzero()
    if psi0.dim != model.dim:
        raise DimensionMismatchError("state and model dimensions differ")
    m, times = 0, []
    if martingale_checkpoints is not None:
        m = n if martingale_trajectories is None else int(martingale_trajectories)
        times = sorted(float(t) for t in martingale_checkpoints)
        if m < 1 or not times:
            raise PreconditionError("a martingale check needs a trajectory and a checkpoint")
    n_steps, cp_steps = _check_run(model, t_max, dt, eps_collapse, times)
    if max(n, m) * model.n_observables > MAX_NOISE_STREAMS:
        raise PreconditionError("n_trajectories x observables exceed MAX_NOISE_STREAMS")
    horizons = np.zeros(max(n, m), dtype=int)
    horizons[:n] = n_steps
    horizons[:m] = np.maximum(horizons[:m], max(cp_steps, default=0))
    if horizons.sum() > MAX_TRAJECTORY_STEPS:
        raise PreconditionError("n_trajectories x t_max / dt exceeds MAX_TRAJECTORY_STEPS")
    if record:
        if not t_max > 0:
            raise PreconditionError(f"horizon t_max must be > 0, got {t_max}")
        if record_every < 1:
            raise PreconditionError(f"record_every must be at least 1, got {record_every}")
        if not all(0 <= i < n for i in record):
            raise PreconditionError(f"recorded trajectories must lie below n = {n}, got {record}")
        columns = 1 + 2 * model.dim + model.n_outcomes  # a CSV row: t, re, im, block masses
        if len(record) * (t_max / dt / record_every + 2) * columns > MAX_RECORDED_VALUES:
            raise PreconditionError(f"recorded trajectories exceed {MAX_RECORDED_VALUES} values")
    seeds = [int(seed) + i for i in range(horizons.size)]
    psi = psi0.normalized().amplitudes
    run = _run_batch(
        model, psi, seeds, horizons, dt, eps_collapse, checkpoints=cp_steps, snapshot_rows=m,
        record=record, record_every=record_every, record_until=n_steps,
    )
    # martingale rows may run past t_max; a later resolution is no outcome
    late = run.resolve_step[:n] > n_steps
    outcome = np.where(late, -1, run.outcome[:n])
    resolve_step = np.where(late, -1, run.resolve_step[:n])

    born = model.block_weights(psi)
    n_resolved = int((outcome >= 0).sum())
    rows = []
    for k, block in enumerate(model.blocks):
        count = int((outcome == k).sum())
        freq = count / n_resolved if n_resolved else 0.0
        p = float(born[k])
        band = band_multiplier * 3.0 * np.sqrt(p * (1.0 - p) / n)
        rows.append(OutcomeRow(k, block.eigenvalues, count, freq, p, abs(freq - p), band))
    martingale = None
    if m:
        mart_rows = []
        for t, s in zip(times, cp_steps):
            for k in range(model.n_outcomes):
                sample = run.snapshots[s][:, k]
                sigma = float(sample.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
                mart_rows.append(
                    MartingaleRow(t, k, float(sample.mean()), float(born[k]), sigma)
                )
        passed = all(row.within_band for row in mart_rows)
        martingale = MartingaleReport(tuple(mart_rows), passed, m)
    trajectories = tuple(
        Trajectory(
            times=np.array(run.traces[i][0]) * dt,
            states=run.traces[i][1],
            outcome=int(outcome[i]) if outcome[i] >= 0 else None,
            resolve_time=int(resolve_step[i]) * dt if outcome[i] >= 0 else None,
            seed=seeds[i],
        )
        for i in record
    )
    unresolved_fraction = 1.0 - n_resolved / n
    return EnsembleReport(
        n_trajectories=n,
        n_resolved=n_resolved,
        rows=tuple(rows),
        unresolved_fraction=unresolved_fraction,
        unresolved_flagged=unresolved_fraction > UNRESOLVED_FLAG_FRACTION,
        passed=all(row.within_band for row in rows),
        outcomes=tuple(int(o) for o in outcome),
        resolve_steps=tuple(int(s) for s in resolve_step),
        dt=dt,
        trajectory_steps=run.steps,
        martingale=martingale,
        trajectories=trajectories,
    )


def martingale_check(
    model: CollapseModel,
    psi0: StateVector,
    n: int,
    checkpoints: Sequence[float],
    *,
    dt: float,
    seed: int,
    eps_collapse: float = DEFAULT_COLLAPSE_EPS,
) -> MartingaleReport:
    """Ensemble mean of each projector expectation at the checkpoints.

    The mean should stay at the initial weight for all times: the check
    passes iff every |mean - weight| < 4 sigma of the mean (zero-variance
    rows must match exactly).  It is the martingale part of an ensemble
    pass with no outcome horizon, so it equals the check that
    :func:`ensemble_outcomes` fuses into its own pass.
    """
    return ensemble_outcomes(
        model,
        psi0,
        n,
        t_max=0.0,
        dt=dt,
        seed=seed,
        eps_collapse=eps_collapse,
        martingale_checkpoints=checkpoints,
    ).martingale


def trajectory_to_csv(trajectory: Trajectory, model: CollapseModel, path) -> None:
    """Write a trajectory as CSV: time, amplitudes, block expectations."""
    d, states = model.dim, trajectory.states
    mass = np.abs(row_apply(model.eigenbasis.conj().T, states)) ** 2
    # every row rounds as block_weights does; numpy sums 8 or more terms of a 1-D array
    # pairwise, which a 2-D row sum does not reproduce
    weights = np.column_stack([
        mass[:, i].sum(axis=1) if len(i) < 8 else np.array([row.sum() for row in mass[:, i]])
        for i in (list(b.indices) for b in model.blocks)
    ])
    header = (
        ["t"] + [f"re_{i}" for i in range(d)] + [f"im_{i}" for i in range(d)]
        + [f"p_{k}" for k in range(model.n_outcomes)]
    )
    table = np.column_stack([trajectory.times, states.real, states.imag, weights])
    # the lines a csv.writer writes: repr of each float, \r\n line ends
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), _CHUNK_STEPS):  # one chunk of Python floats at a time
            fh.writelines(
                ",".join(map(repr, row)) + "\r\n"
                for row in table[start : start + _CHUNK_STEPS].tolist()
            )
