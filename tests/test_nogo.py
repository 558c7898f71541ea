from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab.errors import (
    DimensionMismatchError,
    GeometryError,
    InvalidStateError,
    PreconditionError,
)
from bornlab.hilbert import Projector, StateVector, born_weight
from bornlab.nogo import (
    MAX_ROTATION_STEPS,
    PM_AGREE_TOL,
    SAME_RAY_TOL,
    SOLUTION_CAP,
    FrameAssignment,
    PMSystem,
    RaySet,
    SeparationVerdict,
    dispersion_free_search,
    propagate_pm_constraint,
    rotation_jump_demo,
    separation_check,
)


def per_pair_sweep(chi, phi, steps):
    """The sweep one pair at a time: per-ray slerp, then separation_check on each pair."""
    a = np.asarray(chi, dtype=complex) / np.linalg.norm(chi)
    b = np.asarray(phi, dtype=complex) / np.linalg.norm(phi)
    overlap = np.vdot(a, b)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    angle = float(np.arccos(min(1.0, abs(overlap))))
    rays = []
    for k in range(steps + 1):
        t = k / steps
        ray = (np.sin((1 - t) * angle) * a + np.sin(t * angle) * (b / phase)) / np.sin(angle)
        rays.append(ray / np.linalg.norm(ray))
    return [separation_check(rays[k], rays[k + 1]) for k in range(steps)]


def ray_at(theta):
    """The unit ray at angle theta from e_0 in the plane."""
    return [math.cos(theta), math.sin(theta)]


# 2 sin(theta / (2 steps)) = 1/2 at steps = 3
BOUNDARY_ANGLE = 6 * math.asin(0.25)


# a gap on either side of PM_AGREE_TOL, and whether the propagation stays consistent
AGREE_SIDES = [(PM_AGREE_TOL / 2, True), (2 * PM_AGREE_TOL, False)]


@pytest.fixture
def pm_system():
    return PMSystem.from_generators([1, 0, 0], [0, 1, 0])


class TestPMPropagation:
    def test_zero_zero_forces_both(self, pm_system):
        result = propagate_pm_constraint(pm_system, FrameAssignment({0: 0.0, 1: 0.0}))
        assert result.consistent
        assert result.assignment.get(2) == 0.0
        assert result.assignment.get(3) == 0.0

    def test_sum_one_leaves_split_open(self, pm_system):
        result = propagate_pm_constraint(pm_system, FrameAssignment({0: 1.0, 1: 0.0}))
        assert result.consistent
        assert result.assignment.get(2) is None
        assert result.assignment.get(3) is None

    def test_overfull_sum_contradicts(self, pm_system):
        f = FrameAssignment({0: 0.3, 1: 0.3, 2: 0.7})
        result = propagate_pm_constraint(pm_system, f)
        assert not result.consistent
        assert "P-" in result.contradiction

    def test_pair_sums_must_agree(self, pm_system):
        f = FrameAssignment({0: 0.2, 1: 0.3, 2: 0.1, 3: 0.1})
        result = propagate_pm_constraint(pm_system, f)
        assert result.contradiction == (
            "additivity requires f(P1)+f(P2) = f(P+)+f(P-) but 0.5 != 0.2"
        )
        assert result.derived == ()

    @pytest.mark.parametrize("gap, consistent", AGREE_SIDES)
    def test_forced_value_agrees_within_tolerance(self, pm_system, gap, consistent):
        # the zero sum f(P1) + f(P2) forces f(P+) to 0, where it is known as ``gap``
        f = FrameAssignment({0: 0.0, 1: 0.0, 2: gap})
        result = propagate_pm_constraint(pm_system, f)
        assert result.consistent is consistent
        if not consistent:
            assert result.contradiction.startswith("P+ already")

    @pytest.mark.parametrize("gap, consistent", AGREE_SIDES)
    def test_pair_sums_agree_within_tolerance(self, pm_system, gap, consistent):
        f = FrameAssignment({0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25 + gap})
        result = propagate_pm_constraint(pm_system, f)
        assert result.consistent is consistent
        if not consistent:
            assert result.contradiction.startswith("additivity requires")

    def test_reverse_direction(self, pm_system):
        result = propagate_pm_constraint(pm_system, FrameAssignment({2: 0.0, 3: 0.0}))
        assert result.consistent
        assert result.assignment.get(0) == 0.0
        assert result.assignment.get(1) == 0.0

    def test_partial_sum_completion(self, pm_system):
        f = FrameAssignment({0: 0.4, 1: 0.4, 2: 0.5})
        result = propagate_pm_constraint(pm_system, f)
        assert result.consistent
        assert result.assignment.get(3) == pytest.approx(0.3)

    def test_never_shrinks_domain_and_idempotent(self, pm_system):
        f = FrameAssignment({0: 0.25, 1: 0.25})
        first = propagate_pm_constraint(pm_system, f)
        assert f.values.keys() <= first.assignment.values.keys()
        second = propagate_pm_constraint(pm_system, first.assignment)
        assert second.assignment.values == first.assignment.values
        assert second.derived == ()

    def test_geometry_validation(self):
        with pytest.raises(GeometryError):
            PMSystem.from_generators([1, 0, 0], [1, 1, 0])

    def test_born_values_always_propagate(self, pm_system):
        # any state's weight table on the four rays satisfies the constraints
        rng = np.random.default_rng(5)
        for _ in range(20):
            psi = StateVector(rng.normal(size=3) + 1j * rng.normal(size=3))
            values = {
                i: abs(np.vdot(ray, psi.amplitudes)) ** 2 / psi.norm2
                for i, ray in enumerate(pm_system.rays.rays)
            }
            result = propagate_pm_constraint(pm_system, FrameAssignment(values))
            assert result.consistent


class TestSeparation:
    def test_orthogonal_rays_allowed(self):
        result = separation_check([1, 0], [0, 1])
        assert result.verdict is SeparationVerdict.ALLOWED
        assert result.distance == pytest.approx(np.sqrt(2))

    def test_identical_rays_forbidden(self):
        assert separation_check([1, 0], [1, 0]).forbidden

    def test_close_pair_forbidden(self):
        result = separation_check([1, 0], [1, 0.1])
        assert result.forbidden
        assert result.distance == pytest.approx(0.0996274, abs=1e-6)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidStateError):
            separation_check([0, 0], [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            separation_check([1, 0], [1, 0, 0])

    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_single_vector_formula(self, seed, d):
        rng = np.random.default_rng(seed)
        chi = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi = rng.normal(size=d) + 1j * rng.normal(size=d)
        a, b = chi / np.linalg.norm(chi), phi / np.linalg.norm(phi)
        distance = float(np.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(a, b)))))
        assert separation_check(chi, phi).distance == distance

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_phase_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        chi = rng.normal(size=3) + 1j * rng.normal(size=3)
        phi = rng.normal(size=3) + 1j * rng.normal(size=3)
        base = separation_check(chi, phi)
        for phase in (1j, -1, np.exp(0.3j)):
            assert separation_check(chi * phase, phi).distance == pytest.approx(
                base.distance, abs=1e-12
            )
            assert separation_check(chi, phi * phase).distance == pytest.approx(
                base.distance, abs=1e-12
            )


class TestDispersionFreeSearch:
    def test_single_triad_has_three_solutions(self):
        result = dispersion_free_search(RaySet(np.eye(3)))
        assert result.satisfiable
        assert sorted(result.assignments) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_two_triads_sharing_a_ray(self):
        s = 1 / np.sqrt(2)
        rays = RaySet(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, s, s], [0, s, -s]]
        )
        result = dispersion_free_search(rays)
        assert result.satisfiable
        # e1 valued 1 kills both triads' other members; otherwise one choice
        # in each of the two independent pairs
        assert len(result.assignments) == 5

    def test_solutions_respect_contexts(self):
        s = 1 / np.sqrt(2)
        rays = RaySet([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, s, s], [0, s, -s]])
        result = dispersion_free_search(rays)
        for values in result.assignments:
            for ctx in result.contexts:
                if len(ctx) == 3:
                    assert sum(values[i] for i in ctx) == 1

    def test_contradictory_pinning_is_unsat(self):
        result = dispersion_free_search(
            RaySet(np.eye(3)), pinned={0: 1, 1: 1}
        )
        assert not result.satisfiable
        assert result.certificate is not None
        assert "orthogonal" in str(result.certificate)

    def test_all_zero_pinning_violates_context(self):
        result = dispersion_free_search(
            RaySet(np.eye(3)), pinned={0: 0, 1: 0, 2: 0}
        )
        assert not result.satisfiable
        assert "one must be 1" in str(result.certificate)

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            dispersion_free_search(RaySet([[1.0]]))

    def test_search_stops_at_the_solution_cap(self):
        # generic rays have no orthogonal pair, so all 2^14 assignments satisfy
        rays = RaySet(np.random.default_rng(5).normal(size=(14, 3)))
        result = dispersion_free_search(rays)
        assert {len(ctx) for ctx in result.contexts} == {1}
        assert len(result.assignments) == SOLUTION_CAP < 2**14

    def test_sat_assignments_are_additive_on_contexts(self):
        from bornlab.hilbert import CoarseGraining, MeasureTable
        from oracles import block_projectors, check_additivity

        result = dispersion_free_search(RaySet(np.eye(3)))
        graining = CoarseGraining.unit_cells(3)
        for values in result.assignments:
            table = MeasureTable()
            for i, block in enumerate(block_projectors(graining)):
                table.assign(block, float(values[i]))
            assert check_additivity(table, graining).ok

    def test_born_tables_not_dispersion_free(self):
        # a non-eigenstate assigns some ray a weight strictly inside (0,1)
        rng = np.random.default_rng(11)
        for _ in range(20):
            psi = StateVector(rng.normal(size=3) + 1j * rng.normal(size=3))
            weights = [
                born_weight(psi, Projector.from_cells([i], 3)) for i in range(3)
            ]
            if max(weights) > 1 - 1e-9:  # accidental eigenstate
                continue
            assert any(1e-9 < w < 1 - 1e-9 for w in weights)


class TestRotationJump:
    def test_eight_steps_contradiction(self):
        report = rotation_jump_demo([1, 0], [0, 1], 8)
        assert report.contradiction
        assert report.max_consecutive_distance < 0.5
        assert len(report.distances) == len(report.steps) == 8
        assert report.forbidden.all()
        with pytest.raises(ValueError):
            report.distances[0] = 1.0

    def test_subnormal_overlap_counts_as_zero(self):
        # dividing by an overlap of about 1e-320 overflowed and left every distance NaN
        report = rotation_jump_demo([1, 0], [1e-320, 1], 4)
        assert report.status == "contradiction"
        assert np.array_equal(report.distances, rotation_jump_demo([1, 0], [0, 1], 4).distances)

    @given(
        st.integers(2, 4),
        st.integers(2, 400),
        st.floats(0.5, math.pi / 2),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_pair_sweep(self, d, steps, theta, seed):
        rng = np.random.default_rng(seed)
        chi = rng.normal(size=d) + 1j * rng.normal(size=d)
        other = rng.normal(size=d) + 1j * rng.normal(size=d)
        unit = chi / np.linalg.norm(chi)
        other -= np.vdot(unit, other) * unit
        phi = math.cos(theta) * unit + math.sin(theta) * other / np.linalg.norm(other)
        phi *= rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))

        report = rotation_jump_demo(chi, phi, steps)
        pairs = per_pair_sweep(chi, phi, steps)
        want = np.array([p.distance for p in pairs])
        assert np.array_equal(report.distances, want)
        assert report.forbidden.tolist() == [p.forbidden for p in pairs]
        flips = [k for k, p in enumerate(pairs) if not p.forbidden]
        assert report.flip_allowed_at == (flips[0] if flips else None)
        assert report.status == ("inconclusive" if flips else "contradiction")
        assert report.max_consecutive_distance == want.max()
        closed_form = 2 * math.sin(theta / (2 * steps))
        assert np.abs(report.distances - closed_form).max() <= 1e-12

    @pytest.mark.parametrize(
        "theta, steps, status, flip_at",
        [
            (math.pi / 2, 3, "inconclusive", 0),
            (math.pi / 2, 4, "contradiction", None),
            (BOUNDARY_ANGLE - 2e-6, 3, "contradiction", None),
            (BOUNDARY_ANGLE + 2e-6, 3, "inconclusive", 0),
        ],
    )
    def test_verdict_boundary(self, theta, steps, status, flip_at):
        report = rotation_jump_demo(ray_at(0.0), ray_at(theta), steps)
        closed_form = 2 * math.sin(theta / (2 * steps))
        assert report.distances == pytest.approx([closed_form] * steps, abs=1e-12)
        assert report.status == status
        assert report.flip_allowed_at == flip_at
        assert report.forbidden.all() == (status == "contradiction")

    def test_two_steps_inconclusive(self):
        report = rotation_jump_demo([1, 0], [0, 1], 2)
        assert report.status == "inconclusive"
        assert report.flip_allowed_at == 0

    def test_identical_rays_degenerate(self):
        report = rotation_jump_demo([1, 0], [1, 0], 5)
        assert report.status == "degenerate"
        assert report.empty

    @pytest.mark.parametrize("scale, empty", [(1.0, True), (2.0, False)])
    def test_same_ray_tolerance(self, scale, empty):
        # 1 - cos(theta) is theta**2 / 2: SAME_RAY_TOL / 2 at scale 1, 2 SAME_RAY_TOL at scale 2
        theta = scale * math.sqrt(SAME_RAY_TOL)
        report = rotation_jump_demo([1, 0], ray_at(theta), 5)
        assert report.empty is empty

    def test_step_minimum(self):
        with pytest.raises(ValueError):
            rotation_jump_demo([1, 0], [0, 1], 1)

    @pytest.mark.parametrize("steps", [0, 1, 2.5, 3.0, "8", True, MAX_ROTATION_STEPS + 1])
    def test_steps_must_be_integer_in_range(self, steps):
        with pytest.raises(PreconditionError, match="'steps'"):
            rotation_jump_demo([1, 0], [0, 1], steps)

    def test_phase_of_endpoint_handled(self):
        report = rotation_jump_demo([1, 0], [0, 1j], 8)
        assert report.contradiction

    def test_nonorthogonal_endpoints(self):
        report = rotation_jump_demo([1, 0], [1, 1], 8)
        assert report.contradiction
