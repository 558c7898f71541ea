"""Consistency checking for projector histories.

A history is one projector per time step, drawn from a per-step resolution
of the identity, with a unitary applied before each step.  Two probability
computations are compared: the stepwise one, which reduces and renormalizes
the state at every projection, and the chained one, which applies the whole
operator string to the uncollapsed state.  For a single history the two
coincide identically (the renormalization factors telescope); genuine
disagreement appears on coarse-grained events, where the chained
computation picks up interference cross-terms while the stepwise one is
additive.  The consistency check therefore compares the two measures over
the event algebra: per history, per two-history union, and per final-time
marginal.  Both measures are built for every history in one pass, one step
at a time over all prefixes, so a prefix that histories share is evolved
and projected once.  Every pair is compared, so a ``HistorySet`` holds at
most ``DEFAULT_PAIR_CAP`` histories; a larger set fails as it is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, HistoryCountError, InvalidStateError
from .hilbert import (
    Projector,
    StateVector,
    SymmetryUnitary,
    resolves_identity,
    row_apply,
    row_dots,
)

DEFAULT_EPSILON = 1e-8
DEFAULT_PAIR_CAP = 4096  # histories of one set; the consistency check compares every pair
# the stepwise-collapse probabilities of every history sum to one within this
COLLAPSED_SUM_TOL = 1e-9
# rows of the decoherence functional reduced at once, over the columns j >= the block's first
# row, so the working set is O(64 n); at least 2, as a one-row block would go through a
# matrix-vector product, which rounds differently from the full matrix product
PAIR_BLOCK_ROWS = 64


def _as_unitary(matrix, dim: int) -> np.ndarray:
    if np.shape(matrix) != (dim, dim):
        raise DimensionMismatchError(f"unitary must be {dim}x{dim}")
    return SymmetryUnitary(matrix).matrix


@dataclass(frozen=True)
class HistoryStep:
    """One time step: a unitary followed by a resolution of the identity."""

    unitary: np.ndarray
    resolution: tuple[Projector, ...]

    def __init__(self, resolution, unitary=None):
        resolution = tuple(resolution)
        if not resolution:
            raise InvalidStateError("a step needs at least one projector")
        dim = resolution[0].dim
        if not resolves_identity(resolution, dim):
            raise InvalidStateError("step projectors must sum to the identity")
        unitary = np.eye(dim, dtype=complex) if unitary is None else _as_unitary(unitary, dim)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "unitary", unitary)

    @property
    def dim(self) -> int:
        return self.resolution[0].dim


@dataclass(frozen=True)
class HistorySet:
    """Every history over the chosen per-step resolutions."""

    steps: tuple[HistoryStep, ...]
    epsilon: float = DEFAULT_EPSILON

    def __init__(self, steps, epsilon: float = DEFAULT_EPSILON):
        steps = tuple(steps)
        if not steps:
            raise InvalidStateError("a history set needs at least one step")
        count = 1
        for step in steps:
            if step.dim != steps[0].dim:
                raise DimensionMismatchError("steps live on different spaces")
            count *= len(step.resolution)
            if count > DEFAULT_PAIR_CAP:
                raise HistoryCountError(
                    f"{count}+ histories exceed the pairwise-analysis cap of {DEFAULT_PAIR_CAP}; "
                    "coarsen the resolutions"
                )
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "epsilon", float(epsilon))

    @property
    def dim(self) -> int:
        return self.steps[0].dim

    @property
    def n_histories(self) -> int:
        return math.prod(len(step.resolution) for step in self.steps)

    def choices(self) -> list[tuple[int, ...]]:
        """Every history's choice of one projector per step, in ``itertools.product`` order."""
        return list(itertools.product(*(range(len(step.resolution)) for step in self.steps)))


def _project(proj: Projector, rows: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rows)
    for start, stop in proj.cells:
        out[:, start:stop] = rows[:, start:stop]
    return out


def _branches(history_set: HistorySet, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every history's chain vector and stepwise-collapse product, one step at a time.

    Each step evolves all prefixes and projects them onto each of its r projectors; row
    ``parent * r + k`` is child ``k``, which is ``itertools.product`` order.  Chains stay
    unnormalized; a collapsed state is renormalized unless its product is zero, which then
    stays zero.  Every row rounds as the walk of that one history would.
    """
    if history_set.dim != psi.shape[0]:
        raise DimensionMismatchError("history and state dimensions differ")
    chains, states, products = psi[None], psi[None], np.ones(1)
    for step in history_set.steps:
        r = len(step.resolution)
        evolved_chains = row_apply(step.unitary, chains)
        evolved_states = row_apply(step.unitary, states)
        chains = np.empty((len(chains) * r, psi.shape[0]), dtype=complex)
        states = np.empty_like(chains)
        products = np.repeat(products, r)
        for k, proj in enumerate(step.resolution):
            chains[k::r] = _project(proj, evolved_chains)
            projected = _project(proj, evolved_states)
            weights = row_dots(projected, projected).real
            products[k::r] *= weights
            live = products[k::r] > 0.0
            norms = np.sqrt(np.where(live, weights, 1.0))
            states[k::r] = np.where(live[:, None], projected / norms[:, None], 0.0)
    return chains, products


@dataclass(frozen=True)
class EventDiscrepancy:
    """Disagreement between the additive and chained measures on one event."""

    kind: str  # "history" | "pair" | "marginal"
    label: str
    additive: float
    chained: float

    @property
    def gap(self) -> float:
        return abs(self.additive - self.chained)


@dataclass(frozen=True)
class ConsistencyReport:
    verdict: str  # "CONSISTENT" | "INCONSISTENT"
    max_discrepancy: float
    worst: EventDiscrepancy | None
    epsilon: float
    collapsed_sum: float
    uncollapsed_sum: float
    n_histories: int
    pairs: int
    pairs_over_epsilon: int
    discrepancies: tuple[EventDiscrepancy, ...]  # history and marginal rows; pairs are reduced

    @property
    def consistent(self) -> bool:
        return self.verdict == "CONSISTENT"

    @property
    def collapsed_sum_ok(self) -> bool:
        """The stepwise-collapse probabilities sum to one within ``COLLAPSED_SUM_TOL``."""
        return abs(self.collapsed_sum - 1.0) <= COLLAPSED_SUM_TOL


def _worst_pair(choices, chains, collapsed, chained, epsilon: float):
    """Reduce the pair unions i < j through the decoherence functional D.

    The chained measure of {h_i, h_j} is |C_i psi|^2 + |C_j psi|^2 + 2 Re D(h_i, h_j), taken
    ``PAIR_BLOCK_ROWS`` rows at a time over the columns from the block's first row on, so
    only the block's diagonal square holds pairs j <= i to mask; no block starts at the last
    row, which has no pair.  Each block's D is the full-width product, sliced: a product with
    fewer columns can round differently.  Returns the pair row of the first largest gap in
    (i, j) order, as a list of at most one row, and the count of gaps over epsilon.
    """
    n = len(choices)
    best, best_gap, over = [], -np.inf, 0
    for i0 in range(0, n - 1, PAIR_BLOCK_ROWS):
        i1 = min(i0 + PAIR_BLOCK_ROWS, n)
        gram = (chains[i0:i1].conj() @ chains.T)[:, i0:]
        additive = collapsed[i0:i1, None] + collapsed[None, i0:]
        chain = chained[i0:i1, None] + chained[None, i0:] + 2.0 * np.real(gram)
        gap = np.abs(additive - chain)
        gap[:, : i1 - i0][np.tri(i1 - i0, dtype=bool)] = -np.inf  # keep j > i
        over += int(np.count_nonzero(gap > epsilon))
        r, c = divmod(int(np.argmax(gap)), n - i0)
        if gap[r, c] > best_gap:  # a later block wins only when strictly larger
            best_gap = gap[r, c]
            label = f"{choices[i0 + r]}+{choices[i0 + c]}"
            best = [EventDiscrepancy("pair", label, float(additive[r, c]), float(chain[r, c]))]
    return best, over


def consistency_check(history_set: HistorySet, psi0: StateVector) -> ConsistencyReport:
    """Compare stepwise-reduction and uncollapsed-chain probabilities.

    Checks every history, every union of two histories, and every
    final-time marginal.  On a union the chained measure is the squared
    norm of the summed chain vectors, so any interference between branches
    shows up as a discrepancy; commuting chains agree to rounding.  The
    verdict is CONSISTENT iff the largest discrepancy is at most the set's
    epsilon; the worst event is the first largest in the order histories,
    pairs in (i, j) order, marginals.  Both per-history families must sum
    to one.
    """
    n = history_set.n_histories
    psi = psi0.normalized().amplitudes
    chains, collapsed = _branches(history_set, psi)
    choices = history_set.choices()
    chained = np.real(np.einsum("nd,nd->n", chains.conj(), chains))
    rows = [
        EventDiscrepancy("history", str(c), float(p_add), float(p_chain))
        for c, p_add, p_chain in zip(choices, collapsed, chained)
    ]
    pair_rows, pairs_over = _worst_pair(choices, chains, collapsed, chained, history_set.epsilon)

    # final-time marginals: evolve without any projection, then project once
    for step in history_set.steps:
        psi = step.unitary @ psi
    marginals = []
    for k, proj in enumerate(history_set.steps[-1].resolution):
        image = proj.apply(psi)
        chain = float(np.real(np.vdot(image, image)))
        additive = float(sum(p for c, p in zip(choices, collapsed) if c[-1] == k))
        marginals.append(EventDiscrepancy("marginal", f"final={k}", additive, chain))

    worst = max(rows + pair_rows + marginals, key=lambda d: d.gap)
    verdict = "CONSISTENT" if worst.gap <= history_set.epsilon else "INCONSISTENT"
    return ConsistencyReport(
        verdict=verdict,
        max_discrepancy=worst.gap,
        worst=worst,
        epsilon=history_set.epsilon,
        collapsed_sum=float(collapsed.sum()),
        uncollapsed_sum=float(chained.sum()),
        n_histories=n,
        pairs=n * (n - 1) // 2,
        pairs_over_epsilon=pairs_over,
        discrepancies=tuple(rows + marginals),
    )
