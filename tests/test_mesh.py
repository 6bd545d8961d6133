"""Grid geometry tests.

The hat-function checks use an independent barycentric evaluator built from
raw triangle coordinates, so a bug in the closed-form formula of the test
oracle cannot hide.
"""

from fractions import Fraction

import numpy as np
import pytest

import oracle
from prewavelet_poisson import assembly, bench, mesh, prewavelet, quadrature


def test_interior_counts():
    assert [mesh.n_interior(j) for j in range(1, 6)] == [1, 9, 49, 225, 961]


@pytest.mark.parametrize(
    "call",
    (
        mesh.n_interior,
        mesh.triangle_vertex_array,
        lambda j: mesh.nodal(j, []),
        assembly.refinement_matrix,
        assembly.stiffness_matrix,
        assembly.cross_level_gram,
        prewavelet.wavelet_matrix,
        lambda j: prewavelet.dimension_check(j, 1),
        lambda j: quadrature.load_vector(j, lambda x, y: x),
        lambda j: bench.run_benchmark([bench.builtin_problems()["poly"]], (j, 2)),
    ),
    ids=(
        "n_interior", "triangle_vertex_array", "nodal", "refinement_matrix",
        "stiffness_matrix", "cross_level_gram", "wavelet_matrix", "dimension_check",
        "load_vector", "run_benchmark",
    ),
)
@pytest.mark.parametrize("j", (0, -1))
def test_every_level_is_checked_by_n_interior(call, j):
    # one level check for the package: a level below 1 gets its message,
    # before any other argument is looked at
    with pytest.raises(ValueError, match=f"^level must be >= 1, got {j}$"):
        call(j)


def test_nodal_checks_the_length_and_returns_floats():
    values = mesh.nodal(2, range(9))
    assert values.dtype == float and values.tolist() == list(range(9))
    for bad in (np.zeros(8), np.zeros((3, 3)), np.zeros(10)):
        with pytest.raises(ValueError, match="^expected 9 interior values for level 2, got shape"):
            mesh.nodal(2, bad)


def test_ordinal_matches_the_oracle_on_arrays():
    for j in (1, 2, 5):
        k, i = np.meshgrid(np.arange(1, 2**j), np.arange(1, 2**j), indexing="ij")
        got = mesh.ordinal(j, i, k)
        assert np.array_equal(got, oracle.ordinal(j, i, k))
        assert np.array_equal(got.ravel(), np.arange(mesh.n_interior(j)))  # row-major
        # broadcasting a row of i against a column of k gives the same grid
        assert np.array_equal(mesh.ordinal(j, i[0], k[:, :1]), got)
    assert mesh.ordinal(3, 7, 7) == oracle.ordinal(3, 7, 7) == 48


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
