"""Grid geometry tests.

The hat-function checks use an independent barycentric evaluator built from
raw triangle coordinates, so a bug in the closed-form formula cannot hide.
"""

from fractions import Fraction

import numpy as np
import pytest

from prewavelet_poisson import mesh


def test_interior_counts():
    assert [mesh.n_interior(j) for j in range(1, 6)] == [1, 9, 49, 225, 961]


def test_grid_index_validation():
    g = mesh.GridIndex(2, 1, 3)
    assert (g.x, g.y) == (0.25, 0.75)
    with pytest.raises(ValueError):
        mesh.GridIndex(2, 0, 1)
    with pytest.raises(ValueError):
        mesh.GridIndex(2, 4, 1)
    with pytest.raises(ValueError):
        mesh.GridIndex(0, 1, 1)


def test_linear_index_round_trip():
    j = 3
    seen = []
    for k in range(1, 2**j):
        for i in range(1, 2**j):
            g = mesh.GridIndex(j, i, k)
            m = mesh.linear_index(g)
            seen.append(m)
            assert mesh.inverse_index(j, m) == g
    # row-major: k sweeps slowest, consecutive overall
    assert seen == list(range(mesh.n_interior(j)))


def test_triangle_counts_and_areas():
    for j in (1, 2, 3):
        tris = mesh.triangles(j)
        assert len(tris) == 2 * 4**j
        assert sum(t.area_exact for t in tris) == Fraction(1)
        lower = sum(1 for t in tris if t.lower)
        assert lower == len(tris) - lower
        for t in tris:
            assert t.area_exact == Fraction(1, 2 * 4**j)
            (x0, y0), (x1, y1), (x2, y2) = t.coords
            cross = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
            assert cross > 0  # counterclockwise


def test_support_triangles_contain_vertex():
    for j, i, k in ((1, 1, 1), (2, 1, 1), (2, 3, 3), (3, 4, 1), (3, 7, 7)):
        g = mesh.GridIndex(j, i, k)
        sup = mesh.support_triangles(g)
        assert len(sup) == 6
        assert len(set(sup)) == 6
        for t in sup:
            assert (i, k) in t.verts
    # the six supports tile the hexagon: areas sum to 6 * cell-half
    g = mesh.GridIndex(2, 2, 2)
    total = sum(t.area_exact for t in mesh.support_triangles(g))
    assert total == Fraction(6, 2 * 4**2)


def _barycentric_hat(g: mesh.GridIndex, x: float, y: float) -> float:
    """Evaluate the hat independently: barycentric coordinate of g's vertex
    inside whichever triangle contains (x, y), zero if none in the support."""
    for t in mesh.support_triangles(g):
        (x0, y0), (x1, y1), (x2, y2) = t.coords
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        l1 = ((x - x0) * (y2 - y0) - (x2 - x0) * (y - y0)) / det
        l2 = ((x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)) / det
        l0 = 1.0 - l1 - l2
        lams = (l0, l1, l2)
        if min(lams) >= -1e-12:
            which = t.verts.index((g.i, g.k))
            return lams[which]
    return 0.0


def test_hat_value_matches_barycentric_oracle():
    rng = np.random.default_rng(7)
    for j, i, k in ((1, 1, 1), (2, 2, 3), (3, 1, 6), (3, 5, 5)):
        g = mesh.GridIndex(j, i, k)
        for _ in range(200):
            x, y = rng.uniform(0, 1, size=2)
            assert mesh.hat_value(g, x, y) == pytest.approx(
                _barycentric_hat(g, x, y), abs=1e-12
            )


def test_hat_cardinal_values():
    j = 2
    for i in range(1, 4):
        for k in range(1, 4):
            g = mesh.GridIndex(j, i, k)
            for ii in range(5):
                for kk in range(5):
                    expect = 1.0 if (ii, kk) == (i, k) else 0.0
                    assert mesh.hat_value(g, ii / 4, kk / 4) == expect


def test_triangle_vertex_array_matches_triangles():
    for j in (1, 2, 4):
        arr = mesh.triangle_vertex_array(j)
        tris = mesh.triangles(j)
        assert arr.shape == (len(tris), 3, 2)
        for t, row in zip(tris, arr):
            assert tuple(map(tuple, row)) == t.verts
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 9  # read-only
