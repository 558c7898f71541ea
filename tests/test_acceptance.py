"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (each test prints a
PASS line when its criterion holds; a failure shows up as the test
failing).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bornlab.collapse import CollapseModel, ensemble_outcomes, simulate
from bornlab.emergence import (
    MassProfile,
    RationalState,
    born_limit,
    equal_mass_grid,
    measure_uniqueness_solve,
    rational_born_values,
)
from bornlab.games import (
    Game,
    Relabeling,
    ValueSolver,
    derive_pivotal,
    linear_payoff,
    projector_swap,
    value_solve,
    verify_soundness,
)
from bornlab.hilbert import (
    CoarseGraining,
    GrainingFamily,
    Projector,
    StateVector,
    born_weight,
)
from bornlab.histories import HistorySet, HistoryStep, consistency_check
from bornlab.lln import lln_limit_scan, lln_tail, lln_tail_exact
from bornlab.nogo import (
    FrameAssignment,
    PMSystem,
    RaySet,
    dispersion_free_search,
    propagate_pm_constraint,
    rotation_jump_demo,
)
from bornlab.cli import render_report, run_scenario


def announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def qubit_model() -> CollapseModel:
    return CollapseModel(np.zeros((2, 2)), [np.diag([1.0, -1.0])], gamma=1.0)


def test_criterion_01_born_statistics_from_collapse():
    """2-level model, N=10^4: outcome-1 frequency within 0.3 +- 0.0137."""
    model = qubit_model()
    psi0 = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
    report = ensemble_outcomes(
        model, psi0, 10_000, t_max=50.0, dt=1e-3, seed=20_260_810
    )
    row = report.rows[0]
    assert row.born == pytest.approx(0.3, abs=1e-12)
    assert abs(row.frequency - 0.3) <= 0.0137, (
        f"frequency {row.frequency} outside 0.3 +- 0.0137"
    )
    assert report.unresolved_fraction < 0.01
    announce(
        1,
        f"outcome-1 frequency {row.frequency:.4f} in 0.3 +- 0.0137, "
        f"unresolved {report.unresolved_fraction:.2%}",
    )


def test_criterion_02_eigenstate_fixed_point():
    """Eigenstates with H=0: bit-identical states for 10^4 steps, any seed."""
    model = qubit_model()
    psi0 = StateVector([0.0, 1.0])
    for seed in (0, 1, 77, 123_456):
        traj = simulate(
            model, psi0, t_max=10.0, dt=1e-3, seed=seed, eps_collapse=0.0
        )
        assert len(traj.states) == 10_001
        assert all(np.array_equal(s, psi0.amplitudes) for s in traj.states)
    report = ensemble_outcomes(
        model, psi0, 500, t_max=1.0, dt=1e-3, seed=42
    )
    assert report.rows[1].frequency == 1.0
    announce(2, "eigenstate states bit-identical across 10^4 steps; frequency 1.0")


def _random_rational_instance(rng):
    n_blocks = int(rng.integers(2, 6))
    sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
    d = sum(sizes)
    while d > 16:
        sizes = sizes[:-1]
        n_blocks -= 1
        d = sum(sizes)
    per_cell_cap = max(1, 64 // d - 1)
    counts = [int(rng.integers(1, per_cell_cap + 1)) for _ in range(d)]
    total = sum(counts)
    masses = [Fraction(c, total) for c in counts]
    return sizes, counts, masses


def test_criterion_03_rational_oracle_equivalence():
    """200 random rational states: exact rational tables; unique solves."""
    rng = np.random.default_rng(33)
    for _ in range(200):
        sizes, counts, masses = _random_rational_instance(rng)
        graining = CoarseGraining.from_sizes(sizes)
        # block weights and in-block profiles from the same cell masses
        weights = []
        profiles = []
        for start, stop in graining.blocks:
            w = sum(counts[start:stop])
            weights.append(w)
            profiles.append([Fraction(c, w) for c in counts[start:stop]])
        state = RationalState(weights, graining, profiles)
        table, _ = rational_born_values(state)
        total = sum(weights)
        psi = state.to_state()
        for k in range(graining.n_blocks):
            proj = graining.block_projector(k)
            exact = table.value(proj)
            assert exact == Fraction(weights[k], total)
            assert abs(float(exact) - born_weight(psi, proj)) < 1e-12

        grid = equal_mass_grid(MassProfile(masses))
        family = GrainingFamily(
            [grid.map_graining(graining), grid.unit_graining()]
        )
        solved = measure_uniqueness_solve(grid.profile, family)
        assert solved.unique, "expected a full-rank system"
        grand = grid.profile.total
        for key in solved.unknown_keys:
            expected = grid.profile.block_mass(*key) / grand
            got = solved.table.value(Projector.from_cells([key], grid.dim))
            assert abs(float(got) - float(expected)) < 1e-9
            assert got == expected
    announce(3, "200 rational instances: exact tables and unique weight solves")


def test_criterion_04_continuity_limit():
    """50 random irrational-mass states reach 1e-6 with monotone errors."""
    rng = np.random.default_rng(44)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        psi = StateVector(rng.normal(size=d) + 1j * rng.normal(size=d))
        cut = int(rng.integers(1, d))
        proj = Projector.from_cells([(0, cut)], d)
        result = born_limit(psi, proj, 1e-6)
        assert result.converged
        target = born_weight(psi, proj)
        assert abs(result.value - target) < 1e-6
        errors = [a.value_error for a in result.record]
        assert all(b <= a for a, b in zip(errors, errors[1:]))
    announce(4, "50 irrational states converge below 1e-6 with non-increasing errors")


def test_criterion_05_pivotal_result():
    """derive_pivotal(0,10) = 5 with a validated 4-step trace; closure solves."""
    result = derive_pivotal(0.0, 10.0, linear_payoff(1.0))
    assert result.value.value == pytest.approx(5.0, abs=1e-12)
    assert [s.rule for s in result.trace.steps[:4]] == [
        "measurement-equivalence",
        "payoff-equivalence",
        "sure-thing",
        "zero-sum",
    ]
    for step in result.trace.steps[:4]:
        assert step.payload["residual"] < 1e-10

    rng = np.random.default_rng(55)
    done = 0
    while done < 100:
        x1, x2 = (rng.normal(size=2) * 10).tolist()
        if abs(x1 - x2) < 1e-6:
            continue
        slope = float(rng.uniform(0.1, 5.0))
        expected = 0.5 * slope * (x1 + x2)
        game = Game(
            np.array([1.0, 1.0]),
            [
                (x1, Projector.from_cells([0], 2)),
                (x2, Projector.from_cells([1], 2)),
            ],
            linear_payoff(slope),
        )
        solved = value_solve([game], 4)
        assert solved.full_rank
        assert abs(solved.value_of(game) - expected) < 1e-9
        done += 1
    announce(5, "pivotal value 5.0; 100 random closures solve to half-sum")


def test_criterion_06_special_equivalence():
    """100 games with equal projector weights: solved values agree to 1e-9."""
    rng = np.random.default_rng(66)
    for _ in range(100):
        d = int(rng.integers(3, 6))
        state = (rng.normal(size=d) + 1j * rng.normal(size=d)).astype(complex)
        # force equal moduli on the first two cells
        modulus = abs(rng.normal()) + 0.3
        state[0] = modulus * np.exp(1j * rng.uniform(0, 2 * np.pi))
        state[1] = modulus * np.exp(1j * rng.uniform(0, 2 * np.pi))
        p1 = Projector.from_cells([0], d)
        p2 = Projector.from_cells([1], d)
        psi = StateVector(state)
        assert born_weight(psi, p1) == pytest.approx(born_weight(psi, p2), abs=1e-12)
        payoff = linear_payoff(float(rng.uniform(0.5, 3.0)))
        game_a = Game.projector_game(state, p1, payoff)
        game_b = Game.projector_game(state, p2, payoff)
        swap = projector_swap(state, p1, p2)
        assert swap is not None
        solved = value_solve([game_a, game_b], 2, unitaries=[swap])
        diff = solved.difference(game_a, game_b)
        assert diff is not None and abs(diff) < 1e-9
    announce(6, "100 equal-weight game pairs solve to equal values")


def test_criterion_07_soundness_suite():
    """The weight-consistent assignment satisfies 1000+ random constraints."""
    rng = np.random.default_rng(77)
    solver = ValueSolver()
    while len(solver.constraints) < 1000:
        d = int(rng.integers(2, 4))
        blocks = [(i, i + 1) for i in range(d)]
        labels = sorted(rng.normal(size=d) * 10, reverse=True)
        if min(abs(a - b) for a, b in zip(labels, labels[1:])) < 1e-6:
            continue
        state = rng.normal(size=d) + 1j * rng.normal(size=d)
        game = Game(
            state,
            [(lab, Projector.from_cells([blk], d)) for lab, blk in zip(labels, blocks)],
            linear_payoff(float(rng.uniform(0.2, 3.0))),
        )
        solver.register(game)
        solver.sure_thing(game, float(rng.normal() * 5))
        solver.zero_sum(game)
        solver.relabel(game, Relabeling.shift(float(rng.normal() * 3)))
        solver.relabel(game, Relabeling.negate())
        solver.expand_game(game)
    worst = verify_soundness(solver.constraints, solver.games.values())
    assert worst < 1e-10
    announce(
        7,
        f"{len(solver.constraints)} constraints satisfied by the weight "
        f"assignment (worst residual {worst:.2e})",
    )


def test_criterion_08_frame_function_constraints():
    """Zero pair forces the sum/difference rays; sweeps contradict; triads."""
    system = PMSystem.from_generators([1, 0, 0], [0, 1, 0])
    result = propagate_pm_constraint(system, FrameAssignment({0: 0.0, 1: 0.0}))
    assert result.consistent
    assert result.assignment.get(2) == 0.0 and result.assignment.get(3) == 0.0

    report = rotation_jump_demo([1, 0], [0, 1], 8)
    assert report.contradiction

    search = dispersion_free_search(RaySet(np.eye(3)))
    assert len(search.assignments) == 3
    announce(8, "zero propagation, sweep contradiction, and 3 triad assignments")


def test_criterion_09_history_consistency():
    """Commuting chains consistent; interference fails by >= 0.25; sums 1."""
    z_res = [Projector.from_cells([0], 2), Projector.from_cells([1], 2)]
    diag = np.diag([np.exp(0.9j), np.exp(-0.4j)])
    plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))

    commuting = HistorySet([HistoryStep(z_res, diag), HistoryStep(z_res, diag)])
    report = consistency_check(commuting, plus)
    assert report.verdict == "CONSISTENT"
    assert report.max_discrepancy < 1e-12

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    interference = HistorySet([HistoryStep(z_res), HistoryStep(z_res, hadamard)])
    report2 = consistency_check(interference, plus)
    assert report2.verdict == "INCONSISTENT"
    assert report2.max_discrepancy >= 0.25

    rng = np.random.default_rng(99)
    for _ in range(10):
        psi = StateVector(rng.normal(size=2) + 1j * rng.normal(size=2))
        rep = consistency_check(interference, psi)
        assert abs(rep.collapsed_sum - 1.0) < 1e-9
    announce(
        9,
        f"commuting chain consistent ({report.max_discrepancy:.1e}); "
        f"interference gap {report2.max_discrepancy:.2f}",
    )


def test_criterion_10_lln_exactness():
    """Exact tail value, decreasing scan below 1e-3, brute-force agreement."""
    assert lln_tail_exact(10, 0.2, 0.5) == Fraction(112, 1024)
    assert lln_tail(10, 0.2, 0.5) == 0.109375

    scan = lln_limit_scan(0.5, 0.1, (10, 100, 1000, 10_000))
    assert scan.strictly_decreasing
    assert scan.values[-1] < 1e-3

    for n in range(1, 31):
        for p, delta in ((0.5, 0.2), (0.25, 0.1), (0.3, 0.34)):
            exact = float(lln_tail_exact(n, delta, p))
            brute = 0.0
            d_f, p_f = Fraction(delta), Fraction(p)
            for k in range(n + 1):
                if abs(Fraction(k, n) - p_f) > d_f:
                    brute += math.comb(n, k) * p**k * (1 - p) ** (n - k)
            assert abs(lln_tail(n, delta, p) - brute) < 1e-14
            assert abs(exact - brute) < 1e-14
    announce(10, "tail 112/1024 exact; scan decreasing to < 1e-3; brute force matches")


def test_criterion_11_reproducibility(tmp_path):
    """Same scenario and seed: byte-identical report, any worker count."""
    base = {
        "schema_version": 1,
        "kind": "simulate",
        "seed": 8_675_309,
        "parameters": {
            "model": {"observables": [[[1, 0], [0, -1]]], "gamma": 1.0},
            "psi0": [0.5477225575051661, 0.8366600265340756],
            "t_max": 25.0,
            "dt": 0.001,
            "n_trajectories": 400,
            "martingale_checkpoints": [0.5, 2.0],
            "martingale_trajectories": 100,
        },
    }
    texts = {}
    for workers in (1, 2, 4):
        doc = json.loads(json.dumps(base))
        doc["parameters"]["workers"] = workers
        path = tmp_path / f"scenario_w{workers}.json"
        path.write_text(json.dumps(doc))
        rendered = []
        for _ in range(2):
            report, code = run_scenario(path)
            assert code == 0
            report.pop("wall_clock_s")
            rendered.append(render_report(report))
        assert rendered[0] == rendered[1], "re-run with same seed differed"
        report_wo_workers = json.loads(rendered[0])
        report_wo_workers["scenario"]["parameters"].pop("workers")
        texts[workers] = render_report(report_wo_workers)
    assert texts[1] == texts[2] == texts[4], "worker count changed the results"
    announce(11, "byte-identical reports across re-runs and worker counts")
