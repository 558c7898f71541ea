from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import emergence
from bornlab.emergence import (
    MAX_TOTAL_WEIGHT,
    MassProfile,
    RationalState,
    born_limit,
    equal_mass_grid,
    equiprobable_values,
    measure_uniqueness_solve,
    rational_born_values,
    table_matches_weights,
)
from bornlab.errors import (
    ConvergenceFailureError,
    InvalidGrainingError,
    InvalidStateError,
    PreconditionError,
    ResolutionError,
)
from bornlab.exactlin import solve_exact
from bornlab.hilbert import (
    CoarseGraining,
    GrainingFamily,
    MeasureTable,
    Projector,
    SeparatingSet,
    StateVector,
    born_weight,
)
from oracles import check_additivity
from test_exactlin import dense_solve_exact


def unit_separating(d):
    return SeparatingSet(np.eye(d), [Projector.from_cells([i], d) for i in range(d)])


class TestEquiprobableValues:
    def test_two_equal_amplitudes(self):
        table, trace = equiprobable_values(StateVector([1, 1]), unit_separating(2))
        for proj in unit_separating(2).projectors:
            assert table.value(proj) == Fraction(1, 2)
        rules = [s.rule for s in trace.steps]
        assert rules == ["phase-elim", "permutation", "complement", "additivity"]

    def test_single_projector_needs_three_spares(self):
        # a one-projector family has none of the eigenvector rule's three
        # spare projectors, so the construction rejects it
        graining = CoarseGraining.from_sizes([1, 1])
        sep = SeparatingSet([[1, 0]], [graining.block_projector(0)])
        with pytest.raises(PreconditionError, match="at least two projectors"):
            equiprobable_values(StateVector([1, 0]), sep)

    def test_three_phases(self):
        psi = StateVector([np.exp(0.4j), np.exp(1.9j), 1.0])
        table, trace = equiprobable_values(psi, unit_separating(3))
        assert all(v == Fraction(1, 3) for _, v in table.items())
        assert trace.steps[0].rule == "phase-elim"

    def test_unequal_moduli_rejected_with_pair(self):
        with pytest.raises(PreconditionError, match=r"c_0.*c_1"):
            equiprobable_values(StateVector([1, 2]), unit_separating(2))

    def test_tables_pass_additivity(self):
        table, _ = equiprobable_values(StateVector([1, 1, 1]), unit_separating(3))
        assert check_additivity(table, CoarseGraining.unit_cells(3)).ok

    @pytest.mark.parametrize(
        "sizes, amplitudes, witness",
        [
            ([1, 1, 2], [1, 1, 1, 0], "degeneracy axiom"),
            ([2, 1, 1], [1, 0, 1, 1], "degeneracy axiom"),
            ([2, 2, 2], [1, 0, 1, 0, 1, 0], "constructed"),
        ],
    )
    def test_permutation_witness_needs_every_rank_equal(self, sizes, amplitudes, witness):
        psi = StateVector(amplitudes)
        sep = SeparatingSet.from_graining(psi, CoarseGraining.from_sizes(sizes))
        _, trace = equiprobable_values(psi, sep)
        assert trace.steps[1].payload == {"witness": witness}

    def test_phase_conjugation_leaves_table_fixed(self):
        sep = unit_separating(3)
        psi = StateVector([1, 1, 1])
        table, _ = equiprobable_values(psi, sep)
        # the separating set's projectors are unit cells, so a diagonal
        # phase matrix multiplies each one's range by its own phase
        phases = np.diag(np.exp(-1j * np.array([0.3, 1.2, -0.7])))
        moved = StateVector(phases @ psi.amplitudes)
        table2, _ = equiprobable_values(moved, sep)
        for proj in sep.projectors:
            assert abs(float(table.value(proj)) - float(table2.value(proj))) < 1e-10


def block_subdivision(masses, m) -> int:
    """Sub-cells per cell that put the m - 1 equal-mass cuts of one block on
    sub-cell boundaries, from the block's prefix sums.

    Cut j sits in the first cell i whose prefix sum reaches the target j/m
    of the block mass, at offset (target - prefix[i]) / masses[i] into it.
    """
    prefix = [Fraction(0), *itertools.accumulate(masses)]
    denominators = []
    for j in range(1, m):
        target = prefix[-1] * j / m
        i = bisect.bisect_left(prefix, target) - 1
        denominators.append(((target - prefix[i]) / masses[i]).denominator)
    return math.lcm(*denominators)


class TestRationalBornValues:
    def test_two_one(self):
        state = RationalState([2, 1], CoarseGraining.from_sizes([1, 1]))
        table, trace = rational_born_values(state)
        graining = state.graining
        assert table.value(graining.block_projector(0)) == Fraction(2, 3)
        assert table.value(graining.block_projector(1)) == Fraction(1, 3)
        assert any(s.rule == "refinement" for s in trace.steps)

    def test_all_equal_reduces_to_equiprobable(self):
        state = RationalState([1, 1, 1], CoarseGraining.from_sizes([1, 1, 1]))
        table, _ = rational_born_values(state)
        assert all(v == Fraction(1, 3) for _, v in table.items())

    def test_three_five(self):
        state = RationalState([3, 5], CoarseGraining.from_sizes([2, 2]))
        table, _ = rational_born_values(state)
        assert table.value(state.graining.block_projector(0)) == Fraction(3, 8)
        assert table.value(state.graining.block_projector(1)) == Fraction(5, 8)

    def test_agrees_with_born_weight_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n_blocks = int(rng.integers(2, 5))
            weights = [int(rng.integers(0, 9)) for _ in range(n_blocks)]
            if not any(weights):
                weights[0] = 1
            sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
            state = RationalState(weights, CoarseGraining.from_sizes(sizes))
            table, _ = rational_born_values(state)
            psi = state.to_state()
            total = sum(weights)
            for k in range(n_blocks):
                proj = state.graining.block_projector(k)
                assert table.value(proj) == Fraction(weights[k], total)
                assert float(table.value(proj)) == pytest.approx(
                    born_weight(psi, proj), abs=1e-12
                )

    def test_tables_extend_additively(self):
        state = RationalState([2, 1, 1], CoarseGraining.from_sizes([1, 1, 1]))
        table, _ = rational_born_values(state)
        assert check_additivity(table, state.graining).ok

    def test_subdivision_is_lcm_of_block_refinements(self):
        # profiles with zero cells inside blocks, and blocks of weight zero
        rng = np.random.default_rng(11)
        for _ in range(40):
            n_blocks = int(rng.integers(1, 5))
            weights = [int(rng.integers(0, 7)) for _ in range(n_blocks)]
            if not any(weights):
                weights[-1] = 1
            sizes = [int(rng.integers(1, 5)) for _ in range(n_blocks)]
            profiles = []
            for size in sizes:
                raw = [int(rng.integers(0, 4)) for _ in range(size)]
                raw[int(rng.integers(0, size))] += 1
                profiles.append([Fraction(r, sum(raw)) for r in raw])
            graining = CoarseGraining.from_sizes(sizes)
            state = RationalState(weights, graining, profiles)
            _, trace = rational_born_values(state)
            (refine,) = (step for step in trace.steps if step.rule == "refinement")
            masses = state.cell_masses().masses
            per_block = [
                block_subdivision(masses[a:b], w)
                for (a, b), w in zip(graining.blocks, weights)
                if w
            ]
            assert refine.payload["subdivision"] == math.lcm(*per_block)

    def test_resolution_cap(self, monkeypatch):
        # cuts at 11/9 and 29/18 need 18 sub-cells per cell
        state = RationalState(
            [3], CoarseGraining.from_sizes([2]), [[Fraction(1, 7), Fraction(6, 7)]]
        )
        monkeypatch.setattr(emergence, "DEFAULT_SUBDIVISION_CAP", 18)
        _, trace = rational_born_values(state)
        assert trace.steps[0].payload["subdivision"] == 18
        monkeypatch.setattr(emergence, "DEFAULT_SUBDIVISION_CAP", 17)
        with pytest.raises(ResolutionError) as err:
            rational_born_values(state)
        assert err.value.required_subcells == 18


class TestBornLimit:
    def test_rational_state_exact_first(self):
        psi = StateVector([np.sqrt(2), 1])
        result = born_limit(psi, Projector.from_cells([0], 2), 1e-6)
        assert result.record[0].value == Fraction(2, 3)
        assert len(result.record) == 1

    def test_irrational_masses_converge(self):
        psi = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
        result = born_limit(psi, Projector.from_cells([0], 2), 1e-6)
        assert result.value == pytest.approx(0.3, abs=1e-6)
        errors = [a.value_error for a in result.record]
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_identity_projector(self):
        psi = StateVector([0.3, 0.9, 0.1])
        result = born_limit(psi, Projector.from_cells([(0, 3)], 3), 1e-9)
        assert all(a.value == 1 for a in result.record)

    def test_unreachable_tolerance_raises_with_record(self, monkeypatch):
        monkeypatch.setattr(emergence, "DEFAULT_DENOMINATOR_CAP", 100)
        psi = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
        with pytest.raises(ConvergenceFailureError) as err:
            born_limit(psi, Projector.from_cells([0], 2), 1e-20)
        assert err.value.record
        assert err.value.record[-1].denominator_cap == 100

    def test_state_errors_shrink(self):
        psi = StateVector([np.sqrt(0.137), np.sqrt(0.863)])
        result = born_limit(psi, Projector.from_cells([0], 2), 1e-8)
        assert result.record[-1].state_error < 1e-3


def random_equal_mass_instance(rng):
    """Random positive rational masses with a graining family fine enough
    to pin the weight table (all cells refined to one mass quantum)."""
    n_blocks = int(rng.integers(2, 5))
    sizes = [int(rng.integers(1, 3)) for _ in range(n_blocks)]
    d = sum(sizes)
    counts = [int(rng.integers(1, 5)) for _ in range(d)]
    total = sum(counts)
    masses = MassProfile([Fraction(c, total) for c in counts])
    grid = equal_mass_grid(masses)
    blocks = grid.map_graining(CoarseGraining.from_sizes(sizes))
    family = GrainingFamily([blocks, grid.unit_graining()])
    return grid, blocks, family


class TestMeasureUniqueness:
    def test_two_unit_cells(self):
        family = GrainingFamily([CoarseGraining.unit_cells(2)])
        result = measure_uniqueness_solve(MassProfile([1, 1]), family)
        assert result.unique
        for key in result.unknown_keys:
            assert result.table.value(Projector.from_cells([key], 2)) == Fraction(1, 2)

    def test_three_blocks_with_refinement(self):
        blocks = CoarseGraining(4, [(0, 2), (2, 3), (3, 4)])
        family = GrainingFamily([blocks, CoarseGraining.unit_cells(4)])
        profile = MassProfile([Fraction(1, 4)] * 4)
        result = measure_uniqueness_solve(profile, family)
        assert result.unique
        assert result.table.value(Projector.from_cells([(0, 2)], 4)) == Fraction(1, 2)
        assert result.table.value(Projector.from_cells([(2, 3)], 4)) == Fraction(1, 4)
        assert result.table.value(Projector.from_cells([(3, 4)], 4)) == Fraction(1, 4)

    def test_missing_refinement_underdetermined(self):
        blocks = CoarseGraining(4, [(0, 2), (2, 3), (3, 4)])
        family = GrainingFamily([blocks])
        result = measure_uniqueness_solve(MassProfile([Fraction(1, 4)] * 4), family)
        assert result.status == "underdetermined"
        assert result.freedom >= 1
        w_a, w_b = result.witnesses
        assert any(
            w_a.value(Projector.from_cells([key], 4))
            != w_b.value(Projector.from_cells([key], 4))
            for key in result.unknown_keys
        )

    def test_witnesses_satisfy_additivity(self):
        blocks = CoarseGraining(3, [(0, 1), (1, 2), (2, 3)])
        family = GrainingFamily([blocks])
        result = measure_uniqueness_solve(
            MassProfile([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]), family
        )
        for witness in result.witnesses:
            total = sum(
                witness.value(Projector.from_cells([key], 3))
                for key in result.unknown_keys
            )
            assert total == 1

    @pytest.mark.parametrize(
        "masses, grainings",
        [
            ([0, Fraction(1, 2), Fraction(1, 2)], [[1, 1, 1]]),
            ([1, 0, 0, 1], [[1, 1, 1, 1]]),
            ([0, 0, 0, 1], [[1, 2, 1]]),
            ([0, 0, 1, 1], [[2, 2], [1, 1, 1, 1]]),
        ],
    )
    def test_witnesses_on_the_edge_satisfy_every_row(self, masses, grainings):
        family = GrainingFamily(CoarseGraining.from_sizes(s) for s in grainings)
        result = measure_uniqueness_solve(MassProfile(masses), family)
        assert result.status == "underdetermined"
        dim = len(masses)
        tables = [
            {key: w.value(Projector.from_cells([key], dim)) for key in result.unknown_keys}
            for w in result.witnesses
        ]
        assert tables[0] != tables[1]
        for value in tables:
            assert all(0 <= v <= 1 for v in value.values())
            for g in family.members:
                assert sum(value[b] for b in g.blocks) == 1
                for (a, b), (c, d) in itertools.combinations(g.blocks, 2):
                    if sorted(masses[a:b]) == sorted(masses[c:d]):
                        assert value[(a, b)] == value[(c, d)]
            for coarse, fine in itertools.permutations(family.members, 2):
                if fine.refines(coarse):
                    for a, b in coarse.blocks:
                        inner = [blk for blk in fine.blocks if a <= blk[0] and blk[1] <= b]
                        assert value[(a, b)] == sum(value[blk] for blk in inner)

    def test_float_masses_convert_exactly(self):
        profile = MassProfile([0.1, 1])
        assert profile.masses == (Fraction(0.1), Fraction(1))
        assert all(type(m) is Fraction for m in profile.masses)

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidGrainingError, match="no members"):
            measure_uniqueness_solve(MassProfile([1, 1]), GrainingFamily([]))

    def test_random_instances_match_weights(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            grid, blocks, family = random_equal_mass_instance(rng)
            result = measure_uniqueness_solve(grid.profile, family)
            assert result.unique, "expected a fully pinned table"
            total = grid.profile.total
            for key in result.unknown_keys:
                expected = grid.profile.block_mass(*key) / total
                got = result.table.value(Projector.from_cells([key], grid.dim))
                assert got == expected


@st.composite
def uniqueness_inputs(draw):
    """A mass profile, zeros and repeats included, and a family of 1-4 grainings."""
    d = draw(st.integers(1, 8))
    if draw(st.booleans()):
        masses = [Fraction(1, d)] * d  # an equal-mass grid
    else:
        pool = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]
        masses = draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d))
        if not any(masses):
            masses[draw(st.integers(0, d - 1))] = Fraction(1)
    grainings = []
    for _ in range(draw(st.integers(1, 3))):
        cuts = sorted(draw(st.sets(st.integers(1, d - 1), max_size=d - 1))) if d > 1 else []
        grainings.append(CoarseGraining(d, list(zip([0, *cuts], [*cuts, d]))))
    if draw(st.booleans()):
        grainings.append(CoarseGraining.unit_cells(d))
    return masses, GrainingFamily(grainings)


def solve_recording_rows(profile, family):
    """``measure_uniqueness_solve`` and the (rows, rhs, labels) it hands the solver."""
    calls = []

    def recording(rows, rhs, labels):
        calls.append((rows, rhs, labels))
        return solve_exact(rows, rhs, labels)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(emergence, "solve_exact", recording)
        result = measure_uniqueness_solve(profile, family)
    (call,) = calls
    return result, call


class TestUniquenessRows:
    @given(uniqueness_inputs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_order_changes_no_result_and_the_dense_oracle_agrees(self, inputs, data):
        masses, family = inputs
        result, (rows, rhs, labels) = solve_recording_rows(MassProfile(masses), family)
        solved = solve_exact(rows, rhs, labels)
        assert solved == dense_solve_exact(rows, rhs, labels)
        assert solved.status in ("unique", "underdetermined")  # the Born weights solve it
        order = data.draw(st.permutations(range(len(rows))))
        shuffled = solve_exact(
            [rows[i] for i in order], [rhs[i] for i in order], [labels[i] for i in order]
        )
        fields = ("status", "rank", "n_unknowns", "solution", "nullspace")
        assert [getattr(shuffled, f) for f in fields] == [getattr(solved, f) for f in fields]

        # sparse rows first: the dense normalization rows close the system
        norms = [f"norm[g{gi}]" for gi in range(len(family.members))]
        assert labels[-len(norms):] == norms and not set(labels[: -len(norms)]) & set(norms)
        assert (result.status, result.rank, result.n_unknowns) == (
            solved.status, solved.rank, solved.n_unknowns
        )
        assert result.constraint_count == len(rows)
        assert result.nonzeros == sum(1 for row in rows for x in row if x != 0)
        if result.unique:
            dim, total = len(masses), sum(masses)
            values = [result.table.value(Projector.from_cells([key], dim))
                      for key in result.unknown_keys]
            assert values == list(solved.solution)
            born = [sum(masses[a:b]) / total for a, b in result.unknown_keys]
            assert result.matches_weights == (values == born)

    def test_born_verdict_fails_when_one_solved_value_moves(self):
        profile = MassProfile([Fraction(1, 4)] * 4)
        family = GrainingFamily(CoarseGraining.from_sizes(s) for s in ([1, 1, 1, 1], [2, 2]))
        result, _ = solve_recording_rows(profile, family)
        assert result.unique and result.matches_weights
        for k in range(result.n_unknowns):

            def perturbed(rows, rhs, labels):
                out = solve_exact(rows, rhs, labels)
                solution = list(out.solution)
                solution[k] -= Fraction(1, 10**12)
                return dataclasses.replace(out, solution=tuple(solution))

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(emergence, "solve_exact", perturbed)
                moved = measure_uniqueness_solve(profile, family)
            assert moved.unique and not moved.matches_weights

    def test_table_verdict_reads_every_projector(self):
        graining = CoarseGraining.from_sizes([1, 2, 1])
        blocks = [graining.block_projector(i) for i in range(3)]
        table, _ = rational_born_values(RationalState([3, 0, 2], graining))
        assert table_matches_weights(table, blocks, [3, 0, 2])
        assert not table_matches_weights(table, blocks, [2, 0, 3])
        for k in range(3):
            moved = MeasureTable(dict(table.items()))
            moved.assign(blocks[k], table.value(blocks[k]) + Fraction(1, 10**12))
            assert not table_matches_weights(moved, blocks, [3, 0, 2])


class TestExactBounds:
    def test_mass_profile_sign_and_total(self):
        with pytest.raises(InvalidStateError, match="nonnegative"):
            MassProfile([Fraction(-1, 10**30), 1])
        with pytest.raises(InvalidStateError, match="positive"):
            MassProfile([0, Fraction(0), 0.0])
        assert MassProfile([0, Fraction(1, 10**30)]).total == Fraction(1, 10**30)

    def test_measure_table_takes_a_fraction_only_inside_the_unit_interval(self):
        table, proj = MeasureTable(), Projector.from_cells([0], 2)
        for value in (Fraction(0), Fraction(1), Fraction(1, 3), 1 + 1e-13, -1e-13):
            table.assign(proj, value)
        for value in (Fraction(-1, 10**15), Fraction(10**15 + 1, 10**15), 1 + 1e-11, math.nan):
            with pytest.raises(PreconditionError, match="outside"):
                table.assign(proj, value)


class TestRationalWeightBound:
    def test_total_weight_bounded(self):
        graining = CoarseGraining.from_sizes([1, 1])
        RationalState([MAX_TOTAL_WEIGHT - 1, 1], graining)
        with pytest.raises(PreconditionError, match="'weights'"):
            RationalState([MAX_TOTAL_WEIGHT, 1], graining)
