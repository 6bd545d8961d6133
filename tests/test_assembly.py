"""Assembly tests.

The stiffness oracle assembles the Galerkin matrix from scratch by exact
rational gradient integration (gradients of barycentric coordinates), so the
stencil tables are confirmed rather than assumed.  All matrices here hold
dyadic rationals, so comparisons are exact.
"""

import numpy as np
import pytest

import oracle
from prewavelet_poisson import assembly, mesh


@pytest.mark.parametrize("j", (1, 2, 3))
def test_stiffness_matches_gradient_oracle(j):
    got = assembly.stiffness_matrix(j).toarray()
    assert np.array_equal(got, oracle.h1_gram(j, j))


def test_stiffness_stencil_frozen():
    assert assembly.stiffness_matrix(1).toarray().tolist() == [[4.0]]
    # solver._poisson_inverse diagonalises exactly this five-point matrix
    for level in range(1, 10):
        assert np.all(assembly.stiffness_matrix(level).diagonal() == 4.0), level
    j = 3
    d = assembly.stiffness_matrix(j)
    center = oracle.ordinal(j, 4, 4)
    row = d.getrow(center).toarray().ravel()
    assert row[center] == 4.0
    for di, dk, val in ((1, 0, -1.0), (-1, 0, -1.0), (0, 1, -1.0), (0, -1, -1.0)):
        col = oracle.ordinal(j, 4 + di, 4 + dk)
        assert row[col] == val
    # diagonal-direction couplings cancel exactly and are not stored
    for di, dk in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
        col = oracle.ordinal(j, 4 + di, 4 + dk)
        assert row[col] == 0.0
    assert d.nnz == _count_axis_pairs(j)


@pytest.mark.parametrize("j", range(1, 9))
def test_stencil_matrices_equal_the_coo_build(j):
    # built as CSR directly, bit for bit what COO then tocsr gave, and
    # marked as having sorted indices
    refine = {(di, dk): v for di, dk, v in mesh._REFINE_STENCIL}
    for got, want in (
        (assembly.stiffness_matrix(j), oracle.stencil_matrix(j, j, assembly._STIFFNESS_STENCIL)),
        (assembly.refinement_matrix(j), oracle.stencil_matrix(j, j + 1, refine)),
    ):
        assert got.shape == want.shape
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        # set when built, not found by a scan on first use
        assert vars(got).get("_has_sorted_indices") is True


def _count_axis_pairs(j: int) -> int:
    # diagonal entries + one entry per ordered axis-neighbor pair
    n = 2**j - 1
    horizontal = 2 * (n - 1) * n
    vertical = 2 * n * (n - 1)
    return n * n + horizontal + vertical


def test_refinement_row_structure():
    # always the full seven-entry mask, weights 1 and one-half, row sum 4
    for j in (1, 2, 3):
        b = assembly.refinement_matrix(j)
        assert b.shape == (mesh.n_interior(j), mesh.n_interior(j + 1))
        counts = np.diff(b.indptr)
        assert set(counts.tolist()) == {7}
        np.testing.assert_array_equal(np.asarray(b.sum(axis=1)).ravel(), 4.0)
        assert set(np.unique(b.data).tolist()) == {0.5, 1.0}


def test_refinement_reproduces_coarse_hat_pointwise():
    # the two-scale relation: a coarse hat equals its row of fine hats
    rng = np.random.default_rng(11)
    for j, i, k in ((1, 1, 1), (2, 3, 1), (2, 2, 2)):
        row = assembly.refinement_matrix(j).getrow(oracle.ordinal(j, i, k))
        assert row.nnz == 7
        fine_vertices = [oracle.vertex(j + 1, int(c)) for c in row.indices]
        for x, y in rng.uniform(0, 1, size=(100, 2)):
            coarse = oracle.hat(j, i, k, x, y)
            fine = sum(
                c * oracle.hat(j + 1, fi, fk, x, y)
                for (fi, fk), c in zip(fine_vertices, row.data)
            )
            assert coarse == pytest.approx(fine, abs=1e-13)


@pytest.mark.parametrize("j", (1, 2))
def test_cross_level_gram_matches_h1_oracle(j):
    got = assembly.cross_level_gram(j).toarray()
    assert np.array_equal(got, oracle.h1_gram(j, j + 1))


@pytest.mark.parametrize("j", (1, 2, 3, 4))
def test_cross_level_gram_equals_refinement_times_stiffness(j):
    got = assembly.cross_level_gram(j).toarray()
    product = (assembly.refinement_matrix(j) @ assembly.stiffness_matrix(j + 1)).toarray()
    assert np.array_equal(got, product)


def test_cross_level_gram_frozen_level_one():
    row = assembly.cross_level_gram(1).toarray().ravel().tolist()
    assert row == [1.0, 0.5, -1.0, 0.5, 2.0, 0.5, -1.0, 0.5, 1.0]


def test_cross_level_gram_interior_stencil_17_entries():
    j = 3
    g = assembly.cross_level_gram(j)
    row = g.getrow(oracle.ordinal(j, 4, 4))
    assert row.nnz == 17
    cols = {}
    for c, v in zip(row.indices, row.data):
        fi, fk = oracle.vertex(j + 1, int(c))
        cols[(fi - 8, fk - 8)] = v
    assert cols[(0, 0)] == 2.0
    assert cols[(1, 1)] == 1.0 and cols[(-1, -1)] == 1.0
    for off in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert cols[off] == 0.5
    for off in ((2, 0), (-2, 0), (0, 2), (0, -2), (2, 1), (1, 2), (-2, -1), (-1, -2)):
        assert cols[off] == -0.5
    assert cols[(1, -1)] == -1.0 and cols[(-1, 1)] == -1.0


def test_coarse_stiffness_from_fine():
    # D_j = B_j D_{j+1} B_j^T holds exactly
    for j in (1, 2, 3):
        b = assembly.refinement_matrix(j)
        product = (b @ assembly.stiffness_matrix(j + 1) @ b.T).toarray()
        assert np.array_equal(product, assembly.stiffness_matrix(j).toarray())
