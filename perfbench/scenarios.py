"""Seeded scenario generator for the benchmark workloads.

``generate(workload, seed)`` returns the scenario documents of one pass,
each with what its construction implies about the report (``expect``),
which the oracles in ``oracle.py`` check.  Every random choice, scenario
seeds included, flows from the workload seed.  Scenario seeds are drawn
from [1e9, 2**31 - 1e6), a range no test of the repository uses, so the
benchmark never replays an acceptance-test trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("collapse-ensembles", "exact-arithmetic", "lab-mix")
SEED_LO, SEED_HI = 10**9, 2**31 - 10**6
DT = 1e-3
BAND_MULTIPLIER = 5 / 3  # the program's 3-sigma band times 5/3 is 5 sigma


@dataclass
class Scenario:
    sid: str
    doc: dict
    expect: dict
    write_csv: bool = False
    trajectories: int = 0

    @property
    def kind(self) -> str:
        return self.doc["kind"]


def _num(z) -> list[float] | float:
    z = complex(z)
    return float(z.real) if z.imag == 0 else [float(z.real), float(z.imag)]


def _vec(v) -> list:
    return [_num(x) for x in v]


def _mat(m) -> list:
    return [_vec(row) for row in m]


def _unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


class ScenarioList:
    def __init__(self, workload: str, seed: int):
        self.rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
        self.out: list[Scenario] = []

    def seed(self) -> int:
        return int(self.rng.integers(SEED_LO, SEED_HI))

    def add(self, prefix: str, kind: str, params: dict, expect: dict, **kw) -> None:
        sid = f"{prefix}-{len(self.out):03d}"
        doc = {"schema_version": 1, "kind": kind, "seed": self.seed(), "parameters": params}
        self.out.append(Scenario(sid, doc, expect, **kw))

    # -- simulate -----------------------------------------------------------

    def simulate(self, prefix, basis, labels, psi0, n, t_max, *, hamiltonian=None,
                 extra=None, write_csv=False):
        """Ensemble over observables diagonal in ``basis`` with ``labels``.

        ``labels[k][i]`` is observable k's eigenvalue on basis column i.
        The oracle recomputes Born weights from ``basis`` and ``psi0``.
        """
        d = basis.shape[0]
        obs = [basis @ np.diag(lab) @ basis.conj().T for lab in labels]
        model = {"observables": [_mat(a) for a in obs], "gamma": 1.0}
        if hamiltonian is not None:
            model["hamiltonian"] = _mat(hamiltonian)
        params = {
            "model": model,
            "psi0": _vec(psi0),
            "t_max": float(t_max),
            "dt": DT,
            "n_trajectories": int(n),
            "band_multiplier": BAND_MULTIPLIER,
        }
        params.update(extra or {})
        self.add(
            f"sim-{prefix}",
            "simulate",
            params,
            {"basis": basis, "labels": np.array(labels, dtype=float), "psi0": psi0},
            write_csv=write_csv,
            trajectories=int(n),
        )

    def qubit(self, prefix, n, *, extra=None, write_csv=False):
        theta = self.rng.uniform(0.45, 1.1)
        phase = self.rng.uniform(0, 2 * np.pi)
        psi0 = np.array([np.cos(theta), np.sin(theta) * np.exp(1j * phase)])
        self.simulate(prefix, np.eye(2), [[1.0, -1.0]], psi0, n, 50.0,
                      extra=extra, write_csv=write_csv)

    # -- solve-measure --------------------------------------------------------

    def unique_system(self, min_grid: int, max_grid: int):
        """Criterion-3-style instance on its equal-mass grid (always unique)."""
        while True:
            n_blocks = int(self.rng.integers(2, 6))
            sizes = [int(self.rng.integers(1, 4)) for _ in range(n_blocks)]
            d = sum(sizes)
            cap = max(1, 64 // d - 1)
            counts = [int(self.rng.integers(1, cap + 1)) for _ in range(d)]
            g = math.gcd(*counts)
            cells = [c // g for c in counts]
            if min_grid <= sum(cells) <= max_grid:
                break
        grid = sum(cells)
        offsets = np.concatenate([[0], np.cumsum(cells)])
        block_edges = np.concatenate([[0], np.cumsum(sizes)])
        coarse = [int(offsets[b] - offsets[a]) for a, b in zip(block_edges, block_edges[1:])]
        quantum = str(Fraction(1, grid))
        self.add(
            "solve-unique",
            "solve-measure",
            {"masses": [quantum] * grid, "grainings": [coarse, [1] * grid], "expect": "unique"},
            {"status": "unique"},
        )

    def underdetermined_system(self):
        """One graining whose blocks fall into >= 2 mass-multiset classes."""
        while True:
            grid = int(self.rng.integers(24, 41))
            counts = [int(c) for c in self.rng.integers(1, 4, size=grid)]
            sizes = []
            while sum(sizes) < grid:
                sizes.append(int(min(self.rng.integers(1, 6), grid - sum(sizes))))
            edges = np.concatenate([[0], np.cumsum(sizes)])
            classes = {tuple(sorted(counts[a:b])) for a, b in zip(edges, edges[1:])}
            if len(classes) >= 2:
                break
        total = sum(counts)
        self.add(
            "solve-under",
            "solve-measure",
            {
                "masses": [str(Fraction(c, total)) for c in counts],
                "grainings": [sizes],
                "expect": "underdetermined",
            },
            {"status": "underdetermined", "freedom": len(classes) - 1},
        )

    # -- lln ----------------------------------------------------------------

    def tail(self, n: int):
        p = float(self.rng.uniform(0.2, 0.8))
        delta = float(self.rng.uniform(0.015, 0.02))
        self.add("lln-tail", "lln", {"op": "tail", "n": n, "delta": delta, "p": p}, {})


def _collapse_ensembles(b: ScenarioList) -> None:
    for _ in range(4):
        b.qubit("d2k1", 300, extra={
            "martingale_checkpoints": [0.5, 1.0, 2.0], "martingale_trajectories": 300})
    # three +-1 observables, one bit each of the 8 joint outcomes (2-dim blocks)
    labels16 = [[1.0 - 2.0 * ((i // 2) >> k & 1) for i in range(16)] for k in range(3)]
    for _ in range(6):
        b.simulate("d16k3", _unitary(b.rng, 16), labels16, _random_state(b.rng, 16), 20, 20.0)
    labels64 = [[2.0 * (i // 8) for i in range(64)]]  # 8 outcomes, 8-fold degenerate
    for _ in range(6):
        ham = np.diag(b.rng.normal(size=64))
        b.simulate("d64k1", np.eye(64), labels64, _random_state(b.rng, 64), 20, 30.0,
                   hamiltonian=ham)
    b.qubit("csv", 200, extra={"csv_trajectories": list(range(8))}, write_csv=True)


def _exact_arithmetic(b: ScenarioList) -> None:
    for _ in range(50):
        b.unique_system(min_grid=34, max_grid=34)
    # few cheap scenarios, so that the median latency falls among the unique solves
    for _ in range(4):
        b.underdetermined_system()
    for _ in range(3):
        n_blocks = int(b.rng.integers(2, 6))
        weights = [int(w) for w in b.rng.integers(1, 13, size=n_blocks)]
        sizes = [int(s) for s in b.rng.integers(1, 4, size=n_blocks)]
        b.add("derive-rational", "derive",
              {"construction": "rational", "weights": weights, "block_sizes": sizes},
              {"weights": weights})
    for n in (100, 400, 800, 1000, 1001, 10_000):
        b.tail(n)
    weights = [float(b.rng.uniform(0.25, 0.45))]
    weights.append(1.0 - weights[0])
    outcomes = [int(o) for o in b.rng.choice(2, size=800, p=weights)]
    b.add("lln-audit", "lln", {"op": "audit", "outcomes": outcomes, "weights": weights}, {})


def history_steps(b: ScenarioList, interfering: bool, n_steps: int = 10) -> list:
    h = 1 / math.sqrt(2)
    steps = []
    for i in range(n_steps):
        step = {"resolution": [[0], [1]]}
        if interfering and i > 0:
            step["unitary"] = [[h, h], [h, -h]]
        elif i > 0:
            a, c = b.rng.uniform(0, 2 * np.pi, size=2)
            step["unitary"] = _mat(np.diag([np.exp(1j * a), np.exp(1j * c)]))
        steps.append(step)
    return steps


def _rays(b: ScenarioList, n_bases: int) -> list[np.ndarray]:
    """Orthonormal triads in R^3 chained by shared rays (shared rays appear once)."""
    rays: list[np.ndarray] = []
    current, _ = np.linalg.qr(b.rng.normal(size=(3, 3)))
    rays.extend(current.T)
    for _ in range(n_bases - 1):
        keep = current[:, int(b.rng.integers(0, 3))]
        angle = b.rng.uniform(0.3, 1.2)
        # rotate the other two vectors of the triad about the kept ray
        others = [v for v in current.T if not np.array_equal(v, keep)]
        u, w = others
        new_u = np.cos(angle) * u + np.sin(angle) * w
        new_w = -np.sin(angle) * u + np.cos(angle) * w
        current = np.column_stack([keep, new_u, new_w])
        rays.extend([new_u, new_w])
    return rays


def _lab_mix(b: ScenarioList) -> None:
    psi = _random_state(b.rng, 2)
    for interfering, verdict in ((False, "CONSISTENT"), (True, "INCONSISTENT")):
        b.add("histories", "histories",
              {"psi0": _vec(psi), "steps": history_steps(b, interfering), "expect": verdict},
              {"verdict": verdict, "n_histories": 1024})
    for _ in range(20):
        x1, x2 = (b.rng.normal(size=2) * 10).tolist()
        slope = float(b.rng.uniform(0.1, 5.0))
        b.add("games-pivotal", "games",
              {"mode": "pivotal", "x1": x1, "x2": x2, "slope": slope, "depth": 5},
              {"value": 0.5 * slope * (x1 + x2)})
    # counts chosen so that the median latency falls inside this uniform group
    for _ in range(30):
        state = _random_state(b.rng, 4)
        modulus = abs(state[0])
        state[1] = modulus * np.exp(1j * b.rng.uniform(0, 2 * np.pi))
        b.add("games-special", "games",
              {"mode": "special-equivalence", "state": _vec(state), "p1_cells": [0],
               "p2_cells": [1], "slope": float(b.rng.uniform(0.5, 3.0)), "depth": 3}, {})
    for i in range(10):
        u = _unitary(b.rng, 3)
        assignment = {"P1": 0.0, "P2": 0.0}
        status = "consistent"
        if i % 2:
            assignment["P+"] = float(b.rng.uniform(0.2, 0.8))
            status = "contradiction"
        b.add("nogo-pm", "nogo",
              {"check": "pm", "chi1": _vec(u[:, 0]), "chi2": _vec(u[:, 1]),
               "assignment": assignment, "expect": status},
              {"status": status})
    for _ in range(10):
        chi, phi = _random_state(b.rng, 3), _random_state(b.rng, 3)
        b.add("nogo-separation", "nogo", {"check": "separation", "chi": _vec(chi), "phi": _vec(phi)},
              {"chi": chi, "phi": phi})
    for _ in range(8):
        u = _unitary(b.rng, 3)
        steps = int(b.rng.integers(1500, 3000))
        b.add("nogo-rotation", "nogo",
              {"check": "rotation", "chi": _vec(u[:, 0]), "phi": _vec(u[:, 1]), "steps": steps,
               "expect": "contradiction"},
              {"steps": steps, "angle": math.pi / 2})
    for _ in range(8):
        rays = _rays(b, int(b.rng.integers(5, 8)))
        b.add("nogo-search", "nogo", {"check": "search", "rays": [_vec(r) for r in rays]},
              {"rays": rays})
    for _ in range(20):
        sizes = [int(s) for s in b.rng.integers(1, 4, size=int(b.rng.integers(2, 6)))]
        amps = np.concatenate([_random_state(b.rng, s) for s in sizes]) / math.sqrt(len(sizes))
        b.add("derive-equiprobable", "derive",
              {"construction": "equiprobable", "amplitudes": _vec(amps), "block_sizes": sizes},
              {"n_blocks": len(sizes), "sizes": sizes})
    b.add("lln-scan", "lln",
          {"op": "scan", "p": float(b.rng.uniform(0.3, 0.7)), "delta": 0.1,
           "ns": [10, 50, 200, 2000, 10_000]}, {})
    for _ in range(10):
        b.qubit("d2k1", 40)
    for _ in range(8):
        b.unique_system(min_grid=8, max_grid=16)


_WORKLOAD_MAKERS = {
    "collapse-ensembles": _collapse_ensembles,
    "exact-arithmetic": _exact_arithmetic,
    "lab-mix": _lab_mix,
}


def generate(workload: str, seed: int) -> list[Scenario]:
    """Scenarios of one pass of ``workload``; the same seed gives the same list.

    The order is shuffled so that each kind of scenario is spread over the
    whole pass: a latency percentile then averages the machine's speed over
    the pass instead of sampling the few seconds in which one kind ran.
    """
    b = ScenarioList(workload, seed)
    _WORKLOAD_MAKERS[workload](b)
    return [b.out[i] for i in b.rng.permutation(len(b.out))]
