from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab.errors import (
    DimensionMismatchError,
    IncompleteMeasureError,
    InvalidGrainingError,
    InvalidStateError,
    UnitarityError,
)
from bornlab.hilbert import (
    CoarseGraining,
    MeasureTable,
    Projector,
    SeparatingSet,
    StateVector,
    SymmetryUnitary,
    born_weight,
    resolves_identity,
    row_apply,
    row_dots,
)
from oracles import (
    block_projectors,
    block_union,
    cell_matrix,
    check_additivity,
    permutation_unitary,
)


def unit_separating(d: int) -> SeparatingSet:
    return SeparatingSet(
        np.eye(d), [Projector.from_cells([i], d) for i in range(d)]
    )


def random_state(rng, d: int) -> StateVector:
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    return StateVector(vec)


class TestBornWeight:
    def test_eigenstate(self):
        psi = StateVector([1, 0])
        assert born_weight(psi, Projector.from_cells([0], 2)) == 1.0

    def test_equal_amplitudes(self):
        psi = StateVector([1, 1])
        assert born_weight(psi, Projector.from_cells([0], 2)) == pytest.approx(0.5)

    def test_two_one_masses(self):
        psi = StateVector([np.sqrt(2), 1, 0])
        assert born_weight(psi, Projector.from_cells([0], 3)) == pytest.approx(2 / 3)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidStateError):
            born_weight(StateVector([0, 0]), Projector.from_cells([0], 2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.inf)])
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(InvalidStateError, match="finite"):
            StateVector([bad, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            born_weight(StateVector([1, 0]), Projector.from_cells([0], 3))

    def test_unnormalized_input_accepted(self):
        psi = StateVector([3, 4])
        assert born_weight(psi, Projector.from_cells([0], 2)) == pytest.approx(9 / 25)

    @given(st.integers(2, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_complement_sums_to_one(self, d, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(rng, d)
        proj = Projector.from_cells(
            [i for i in range(d) if rng.integers(2)], d
        )
        total = born_weight(psi, proj) + born_weight(psi, proj.complement())
        assert total == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_scale_and_phase_invariance(self, d, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(rng, d)
        proj = Projector.from_cells([0], d)
        scale = complex(rng.normal(), rng.normal())
        if abs(scale) < 1e-6:
            scale = 1j
        scaled = StateVector(psi.amplitudes * scale)
        assert born_weight(scaled, proj) == pytest.approx(
            born_weight(psi, proj), abs=1e-12
        )

class TestProjector:
    def test_rank_and_complement(self):
        proj = Projector.from_cells([0, 2], 4)
        assert proj.rank == 2
        assert proj.complement().index_set() == {1, 3}

    def test_identity_is_dim_and_cells(self):
        proj = Projector.from_cells([1, 0], 3)
        same = Projector.from_cells([(0, 2)], 3)
        assert proj == same and hash(proj) == hash(same)
        assert proj != Projector.from_cells([(0, 2)], 4)
        assert proj != Projector.from_cells([0], 3)


class TestResolvesIdentity:
    def test_partition(self):
        parts = [Projector.from_cells([0, 2], 3), Projector.from_cells([1], 3)]
        assert resolves_identity(parts, 3)

    @pytest.mark.parametrize(
        "cells",
        [
            [([0], 2)],  # gap
            [([0], 2), ([0, 1], 2)],  # overlap
            [([0], 2), ([0], 2), ([1], 2)],  # one cell twice
            [([0, 1], 2), ([], 3)],  # another dim
        ],
    )
    def test_rejects(self, cells):
        assert not resolves_identity([Projector.from_cells(c, d) for c, d in cells], 2)

    @given(st.integers(1, 5), st.lists(st.lists(st.integers(0, 4), max_size=5), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dense_sum(self, dim, groups):
        parts = [Projector.from_cells({i for i in g if i < dim}, dim) for g in groups]
        dense = sum((cell_matrix(p) for p in parts), np.zeros((dim, dim)))
        assert resolves_identity(parts, dim) == np.array_equal(dense, np.eye(dim))


class TestGraining:
    def test_rejects_empty_block(self):
        with pytest.raises(InvalidGrainingError):
            CoarseGraining(2, [(0, 0), (0, 2)])

    def test_rejects_gap(self):
        with pytest.raises(InvalidGrainingError):
            CoarseGraining(3, [(0, 1), (2, 3)])

    def test_refines(self):
        fine = CoarseGraining.unit_cells(4)
        coarse = CoarseGraining(4, [(0, 2), (2, 4)])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)


class TestSublattice:
    """The lattice of the equiprobable argument is generated by a graining's blocks."""

    def test_two_singleton_generators(self):
        blocks = block_projectors(CoarseGraining.unit_cells(2))
        assert [p.cells for p in blocks] == [((0, 1),), ((1, 2),)]

    def test_block_generators(self):
        blocks = block_projectors(CoarseGraining(3, [(0, 2), (2, 3)]))
        assert [p.index_set() for p in blocks] == [{0, 1}, {2}]


class TestPermutationUnitary:
    def test_identity(self):
        sep = unit_separating(3)
        u = permutation_unitary([0, 1, 2], sep)
        assert np.allclose(u.matrix, np.eye(3))

    def test_swap_is_antidiagonal(self):
        sep = unit_separating(2)
        u = permutation_unitary([1, 0], sep)
        assert np.allclose(u.matrix, [[0, 1], [1, 0]])

    def test_three_cycle_conjugation(self):
        sep = unit_separating(3)
        u = permutation_unitary([1, 2, 0], sep)
        for k in range(3):
            moved = u.matrix @ cell_matrix(sep.projectors[k]) @ u.matrix.conj().T
            target = cell_matrix(sep.projectors[(k + 1) % 3])
            assert np.max(np.abs(moved - target)) < 1e-10
            assert np.allclose(
                u.matrix @ sep.vectors[k].amplitudes,
                sep.vectors[(k + 1) % 3].amplitudes,
            )

    def test_multicell_blocks(self):
        graining = CoarseGraining(4, [(0, 2), (2, 4)])
        psi = StateVector([1, 2, 1, 2])
        sep = SeparatingSet.from_graining(psi, graining)
        u = permutation_unitary([1, 0], sep)
        moved = u.matrix @ cell_matrix(sep.projectors[0]) @ u.matrix.conj().T
        assert np.max(np.abs(moved - cell_matrix(sep.projectors[1]))) < 1e-10

    def test_unequal_blocks_rejected(self):
        graining = CoarseGraining(3, [(0, 2), (2, 3)])
        sep = SeparatingSet.from_graining(StateVector([1, 1, 1]), graining)
        with pytest.raises(ValueError, match="unequal dimension"):
            permutation_unitary([1, 0], sep)


class TestRowKernels:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_row_apply_bit_equal_to_matrix_vector(self, d, order):
        rng = np.random.default_rng(d)
        matrix = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        matrix = np.asarray(matrix, order=order)
        rows = rng.normal(size=(9, d)) + 1j * rng.normal(size=(9, d))
        for m in (matrix, matrix.conj().T):
            assert np.array_equal(row_apply(m, rows), np.array([m @ row for row in rows]))

    def test_row_dots_bit_equal_to_vdot(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(20, 5)) + 1j * rng.normal(size=(20, 5))
        b = rng.normal(size=(20, 5)) + 1j * rng.normal(size=(20, 5))
        assert np.array_equal(row_dots(a, b), np.array([np.vdot(x, y) for x, y in zip(a, b)]))


class TestSymmetryUnitary:
    def test_rejects_nonunitary(self):
        with pytest.raises(UnitarityError):
            SymmetryUnitary([[1, 0], [0, 2]])


class TestSeparatingSet:
    def test_rejects_non_unit_vector(self):
        with pytest.raises(InvalidStateError, match="orthonormal"):
            SeparatingSet(
                [[2, 0], [0, 1]],
                [Projector.from_cells([0], 2), Projector.from_cells([1], 2)],
            )

    def test_rejects_nonorthonormal(self):
        with pytest.raises(InvalidStateError):
            SeparatingSet(
                [[1, 0], [1, 1]],
                [Projector.from_cells([0], 2), Projector.from_cells([1], 2)],
            )

    def test_rejects_wrong_projector(self):
        with pytest.raises(InvalidStateError):
            SeparatingSet(
                np.eye(2),
                [Projector.from_cells([1], 2), Projector.from_cells([0], 2)],
            )

    def test_rejects_overlapping_cell_projectors(self):
        e = np.eye(3)
        with pytest.raises(InvalidStateError, match="orthogonal"):
            SeparatingSet(
                [e[0], e[1]],
                [Projector.from_cells([0, 2], 3), Projector.from_cells([1, 2], 3)],
            )


class TestCheckAdditivity:
    def test_born_table_is_additive(self):
        graining = CoarseGraining.unit_cells(3)
        psi = StateVector([1, 2, 3])
        unions = [
            block_union(graining, indices)
            for r in range(4)
            for indices in itertools.combinations(range(3), r)
        ]
        table = MeasureTable({proj: born_weight(psi, proj) for proj in unions})
        report = check_additivity(table, graining)
        assert report.ok

    def test_constructed_violation(self):
        graining = CoarseGraining.unit_cells(2)
        table = MeasureTable()
        table.assign(graining.block_projector(0), 0.5)
        table.assign(graining.block_projector(1), 0.5)
        table.assign(block_union(graining, [0, 1]), 0.9)
        report = check_additivity(table, graining)
        assert not report.ok
        assert len(report.violations) == 1

    def test_uniform_generator_table_extends(self):
        graining = CoarseGraining.unit_cells(4)
        table = MeasureTable()
        for block in block_projectors(graining):
            table.assign(block, 0.25)
        report = check_additivity(table, graining)
        assert report.ok

    def test_many_generators_check_singletons_and_covered_unions(self):
        # above ADDITIVITY_ENUMERATION_LIMIT blocks only pairs of blocks are
        # checked, each against its union when the table covers it
        graining = CoarseGraining.unit_cells(11)
        table = MeasureTable({block: 1 / 11 for block in block_projectors(graining)})
        assert check_additivity(table, graining).ok
        table.assign(block_union(graining, [0, 1]), 0.5)
        report = check_additivity(table, graining)
        assert [(v.left, v.right, v.union) for v in report.violations] == [((0,), (1,), (0, 1))]

    def test_incomplete_table_raises(self):
        graining = CoarseGraining.unit_cells(2)
        table = MeasureTable()
        table.assign(graining.block_projector(0), 0.5)
        with pytest.raises(IncompleteMeasureError):
            check_additivity(table, graining)


class TestBooleanSublatticeValidation:
    """A graining's own checks keep its blocks a lattice's generators."""

    def test_overlapping_generators_rejected(self):
        with pytest.raises(InvalidGrainingError):
            CoarseGraining(3, [(0, 2), (1, 3)])

    def test_partial_cover_rejected(self):
        with pytest.raises(InvalidGrainingError):
            CoarseGraining(2, [(0, 1)])


class TestSeparatingSetDimensions:
    def test_graining_must_match_state(self):
        with pytest.raises(DimensionMismatchError):
            SeparatingSet.from_graining(StateVector([1, 1]), CoarseGraining.from_sizes([1, 2]))
