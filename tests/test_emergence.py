from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bornlab import emergence
from bornlab.emergence import (
    MAX_TOTAL_WEIGHT,
    MassProfile,
    RationalState,
    born_limit,
    equal_mass_grid,
    equal_mass_refine,
    equiprobable_values,
    measure_uniqueness_solve,
    rational_born_values,
)
from bornlab.errors import (
    ConvergenceFailureError,
    InvalidGrainingError,
    PreconditionError,
    ResolutionError,
)
from bornlab.hilbert import (
    CoarseGraining,
    GrainingFamily,
    Projector,
    SeparatingSet,
    StateVector,
    born_weight,
)
from oracles import check_additivity


def unit_separating(d):
    return SeparatingSet(np.eye(d), [Projector.from_cells([i], d) for i in range(d)])


class TestEqualMassRefine:
    def test_uniform_block_quarters(self):
        graining = CoarseGraining(4, [(0, 4)])
        result = equal_mass_refine(StateVector([1, 1, 1, 1]), graining, 0, 4)
        fractions_of_block = [float(c) / 4 for c in result.cuts]
        assert fractions_of_block == pytest.approx([0.25, 0.5, 0.75])
        assert all(m == result.piece_masses[0] for m in result.piece_masses)

    def test_linear_density_half_mass_point(self):
        # piecewise-constant discretization of density ~ 2x on [0,1):
        # cell masses 2i+1; the half-mass point sits at 70 + 100/141 cells,
        # converging on sqrt(1/2) of the domain
        masses = [Fraction(2 * i + 1) for i in range(100)]
        graining = CoarseGraining(100, [(0, 100)])
        result = equal_mass_refine(MassProfile(masses), graining, 0, 2)
        assert result.cuts[0] == Fraction(70 * 141 + 100, 141)
        assert float(result.cuts[0]) / 100 == pytest.approx(math.sqrt(0.5), abs=2e-4)
        assert result.piece_masses[0] == result.piece_masses[1]

    def test_zero_mass_block_any_split(self):
        graining = CoarseGraining(4, [(0, 2), (2, 4)])
        result = equal_mass_refine(StateVector([1, 1, 0, 0]), graining, 1, 3)
        assert len(result.pieces) == 3
        assert all(m == 0 for m in result.piece_masses)

    def test_pieces_partition_the_block(self):
        graining = CoarseGraining(5, [(0, 3), (3, 5)])
        result = equal_mass_refine(
            MassProfile([Fraction(1, 7), Fraction(2, 7), Fraction(1, 7),
                         Fraction(2, 7), Fraction(1, 7)]),
            graining,
            0,
            3,
        )
        L = result.subdivision
        spans = sorted(p.cells[0] for p in result.pieces)
        assert spans[0][0] == 0
        assert spans[-1][1] == 3 * L
        for left, right in zip(spans, spans[1:]):
            assert left[1] == right[0]
        assert result.graining.refines(
            CoarseGraining(5 * L, [(0, 3 * L), (3 * L, 5 * L)])
        )

    def test_float_masses_hit_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            amps = rng.uniform(0.1, 1.0, size=6)
            psi = StateVector(amps)
            graining = CoarseGraining(6, [(0, 6)])
            m = int(rng.integers(2, 7))
            result = equal_mass_refine(psi, graining, 0, m)
            total = sum(result.piece_masses)
            mean = total / m
            assert max(abs(x - mean) for x in result.piece_masses) < 1e-9 * total

    def test_resolution_cap(self, monkeypatch):
        monkeypatch.setattr(emergence, "DEFAULT_SUBDIVISION_CAP", 10)
        graining = CoarseGraining(2, [(0, 2)])
        profile = MassProfile([Fraction(1, 997), Fraction(996, 997)])
        with pytest.raises(ResolutionError) as err:
            equal_mass_refine(profile, graining, 0, 997)
        assert err.value.required_subcells is not None

    def test_single_float_piece_needs_no_subdivision(self, monkeypatch):
        # m = 1 places no cut, so a small cap cannot be too small for it
        graining = CoarseGraining(2, [(0, 2)])
        uncapped = equal_mass_refine([0.3, 0.7], graining, 0, 1)
        monkeypatch.setattr(emergence, "DEFAULT_SUBDIVISION_CAP", 1000)
        capped = equal_mass_refine([0.3, 0.7], graining, 0, 1)
        assert capped == uncapped
        assert (capped.subdivision, capped.cuts, capped.exact) == (1, (), False)

    def test_block_is_an_index(self):
        graining = CoarseGraining(2, [(0, 1), (1, 2)])
        with pytest.raises(TypeError, match="block index"):
            equal_mass_refine([0.3, 0.7], graining, graining.block_projector(0), 2)


class TestEquiprobableValues:
    def test_two_equal_amplitudes(self):
        table, trace = equiprobable_values(StateVector([1, 1]), unit_separating(2))
        for proj in unit_separating(2).projectors:
            assert table.value(proj) == Fraction(1, 2)
        rules = [s.rule for s in trace.steps]
        assert rules == ["phase-elim", "permutation", "complement", "additivity"]

    def test_single_projector_eigenvector_rule(self):
        graining = CoarseGraining.from_sizes([1, 1, 1, 1, 2])
        sep = SeparatingSet([[1, 0, 0, 0, 0, 0]], [graining.block_projector(0)])
        table, trace = equiprobable_values(
            StateVector([1, 0, 0, 0, 0, 0]), sep, graining
        )
        assert table.value(graining.block_projector(0)) == 1
        for k in range(1, 5):
            assert table.value(graining.block_projector(k)) == 0

    def test_single_projector_needs_three_spares(self):
        graining = CoarseGraining.from_sizes([1, 1])
        sep = SeparatingSet([[1, 0]], [graining.block_projector(0)])
        with pytest.raises(PreconditionError, match="spare"):
            equiprobable_values(StateVector([1, 0]), sep, graining)

    def test_three_phases(self):
        psi = StateVector([np.exp(0.4j), np.exp(1.9j), 1.0])
        table, trace = equiprobable_values(psi, unit_separating(3))
        assert all(v == Fraction(1, 3) for _, v in table.items())
        assert trace.steps[0].rule == "phase-elim"

    def test_unequal_moduli_rejected_with_pair(self):
        with pytest.raises(PreconditionError, match=r"c_0.*c_1"):
            equiprobable_values(StateVector([1, 2]), unit_separating(2))

    def test_zero_assignments_on_orthogonal_lattice(self):
        graining = CoarseGraining.from_sizes([1, 1, 2])
        sep = SeparatingSet(
            [[1, 0, 0, 0], [0, 1, 0, 0]],
            [graining.block_projector(0), graining.block_projector(1)],
        )
        table, _ = equiprobable_values(StateVector([1, 1, 0, 0]), sep, graining)
        assert table.value(graining.block_projector(2)) == 0

    def test_tables_pass_additivity(self):
        graining = CoarseGraining.unit_cells(3)
        psi = StateVector([1, 1, 1])
        table, _ = equiprobable_values(
            psi, unit_separating(3), graining
        )
        assert check_additivity(table, graining).ok

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
            per_block = [
                equal_mass_refine(state.cell_masses(), graining, k, w).subdivision
                for k, w in enumerate(weights)
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
        result = measure_uniqueness_solve(StateVector([1, 1]), family)
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


class TestRationalWeightBound:
    def test_total_weight_bounded(self):
        graining = CoarseGraining.from_sizes([1, 1])
        RationalState([MAX_TOTAL_WEIGHT - 1, 1], graining)
        with pytest.raises(PreconditionError, match="'weights'"):
            RationalState([MAX_TOTAL_WEIGHT, 1], graining)
