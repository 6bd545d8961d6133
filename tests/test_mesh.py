"""Grid geometry tests.

The hat-function checks use an independent barycentric evaluator built from
raw triangle coordinates, so a bug in the closed-form formula of the test
oracle cannot hide.
"""

from fractions import Fraction

import numpy as np
import pytest

import oracle
from prewavelet_poisson import mesh


def test_interior_counts():
    assert [mesh.n_interior(j) for j in range(1, 6)] == [1, 9, 49, 225, 961]


def test_triangle_counts_and_areas():
    for j in (1, 2, 3):
        tris = oracle.triangles(j)
        assert len(tris) == 2 * 4**j
        # the signed area is positive exactly when the order is counterclockwise
        assert all(area == Fraction(1, 2 * 4**j) for _, _, area in tris)
        assert sum(area for _, _, area in tris) == Fraction(1)


def test_triangle_vertex_array_cell_order():
    for j in (1, 2, 4):
        arr = mesh.triangle_vertex_array(j)
        assert arr.shape == (2 * 4**j, 3, 2)
        # cells row-major, cx fastest; the lower triangle of each cell first
        cy, cx = np.divmod(np.arange(4**j), 2**j)
        for lower, tri in enumerate(([(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)])):
            expect = np.stack([cx, cy], axis=-1)[:, None, :] + np.array(tri)
            assert np.array_equal(arr[lower::2], expect)
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 9  # read-only


def _barycentric_hat(j, i, k, x, y):
    """Evaluate the hat independently: barycentric coordinate of vertex (i, k)
    inside whichever of its triangles contains (x, y), zero if none does."""
    for verts, coords, _ in oracle.triangles(j):
        if (i, k) not in verts:
            continue
        lams = oracle.barycentric(coords, x, y)
        if min(lams) >= -1e-12:
            return lams[verts.index((i, k))]
    return 0.0


def test_hat_value_matches_barycentric_oracle():
    rng = np.random.default_rng(7)
    for j, i, k in ((1, 1, 1), (2, 2, 3), (3, 1, 6), (3, 5, 5)):
        for _ in range(200):
            x, y = rng.uniform(0, 1, size=2)
            assert oracle.hat(j, i, k, x, y) == pytest.approx(
                _barycentric_hat(j, i, k, x, y), abs=1e-12
            )


def test_hat_cardinal_values():
    j = 2
    for i in range(1, 4):
        for k in range(1, 4):
            for ii in range(5):
                for kk in range(5):
                    expect = 1.0 if (ii, kk) == (i, k) else 0.0
                    assert oracle.hat(j, i, k, ii / 4, kk / 4) == expect
