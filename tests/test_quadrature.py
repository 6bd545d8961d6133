"""Quadrature tests against exact barycentric moment formulas.

The oracle is the classical identity
    int_T l1^p l2^q l3^r dA = 2A p! q! r! / (p+q+r+2)!
which pins every rule weight independently of the implementation.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracle
from prewavelet_poisson import assembly, mesh, prewavelet, quadrature


def _moment(area: Fraction, p: int, q: int, r: int) -> float:
    exact = (
        2
        * area
        * Fraction(
            math.factorial(p) * math.factorial(q) * math.factorial(r),
            math.factorial(p + q + r + 2),
        )
    )
    return float(exact)


def _bary_poly(coords, p: int, q: int, r: int):
    def f(x, y):
        l0, l1, l2 = oracle.barycentric(coords, x, y)
        return l0**p * l1**q * l2**r

    return f


@pytest.mark.parametrize("tri", oracle.triangles(1)[:4])
def test_mid3_integrates_degree_two(tri):
    _, coords, a = tri
    for p, q, r in ((2, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 2, 0)):
        got = oracle.integrate(coords, a, _bary_poly(coords, p, q, r), quadrature.MID3)
        assert got == pytest.approx(_moment(a, p, q, r), rel=1e-13)
    # and the degree-0/1 cases: area and centroid coordinate
    assert oracle.integrate(coords, a, lambda x, y: 1.0, quadrature.MID3) == pytest.approx(
        float(a), rel=1e-14
    )


@pytest.mark.parametrize("tri", oracle.triangles(1)[:4])
def test_gauss7_integrates_degree_five(tri):
    _, coords, a = tri
    for p, q, r in ((5, 0, 0), (3, 2, 0), (2, 2, 1), (1, 1, 3), (4, 0, 1)):
        got = oracle.integrate(coords, a, _bary_poly(coords, p, q, r), quadrature.GAUSS7)
        assert got == pytest.approx(_moment(a, p, q, r), rel=1e-12)


def test_integrate_linear_frozen_value():
    # int of x over the lower triangle of cell (0,0) at level 1:
    # vertices (0,0), (1/2,0), (1/2,1/2), area 1/8, centroid x = 1/3 -> 1/24
    _, coords, a = oracle.triangles(1)[0]
    assert coords == ((0.0, 0.0), (0.5, 0.0), (0.5, 0.5))
    got = oracle.integrate(coords, a, lambda x, y: x, quadrature.MID3)
    assert got == pytest.approx(1.0 / 24.0, rel=1e-14)


def test_load_vector_constant_rhs():
    # each interior hat integrates to twice a triangle area: entry 4^-j
    for j in (1, 2, 3):
        f = quadrature.load_vector(j, lambda x, y: np.ones_like(x))
        assert f.shape == (mesh.n_interior(j),)
        np.testing.assert_allclose(f, 4.0**-j, rtol=1e-13)


def test_load_vector_affine_rhs_against_moment_oracle():
    # g = x + y is affine, so on each triangle g = sum g(v) l_v and
    # int g l_i = A [ g(v_i)/6 + sum_{v != i} g(v)/12 ]; mid3 is exact here.
    j = 2
    got = quadrature.load_vector(j, lambda x, y: x + y)
    expect = np.zeros(mesh.n_interior(j))
    for verts, coords, area in oracle.triangles(j):
        gv = [float(x + y) for (x, y) in coords]
        for which, row in oracle.interior(j, verts):
            contrib = gv[which] / 6.0
            contrib += sum(gv[o] for o in range(3) if o != which) / 12.0
            expect[row] += float(area) * contrib
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-16)


def test_load_vector_rules_agree_on_smooth_rhs():
    g = lambda x, y: np.sin(x) * np.cos(y)
    f3 = quadrature.load_vector(3, g, quadrature.MID3)
    f7 = quadrature.load_vector(3, g, quadrature.GAUSS7)
    np.testing.assert_allclose(f3, f7, rtol=5e-5, atol=1e-9)


def test_detail_load_frozen():
    # family-1 wavelet at j=2, position k=1 (row 0) has stencil
    # {(1,2): 2, (1,3): 1}; with g = 1 every level-3 load entry is 1/64,
    # so its detail load is 3/64.
    c = prewavelet.wavelet_matrix(2)
    row = c.getrow(0)
    assert dict(zip(row.indices.tolist(), row.data.tolist())) == {
        oracle.ordinal(3, 1, 2): 2.0,
        oracle.ordinal(3, 1, 3): 1.0,
    }
    detail = c @ quadrature.load_vector(3, lambda x, y: np.ones_like(x))
    assert detail.shape == (c.shape[0],)
    assert detail[0] == pytest.approx(3.0 / 64.0, rel=1e-13)


def test_tabulated_function_validation():
    with pytest.raises(ValueError):
        quadrature.TabulatedFunction(np.zeros((4, 4)))  # not 2^m + 1
    with pytest.raises(ValueError):
        quadrature.TabulatedFunction(np.zeros((5, 3)))  # not square


def _smooth(x, y):
    return np.exp(x) * np.cos(3.0 * y) + x * y


def _hats_on(j, coords):
    # the interior level-j vertices whose hats do not vanish on a triangle of
    # level >= j: those positive at its centroid, at most three
    x, y = np.mean(np.asarray(coords, dtype=float), axis=0)
    ci, ck = int(x * 2**j), int(y * 2**j)
    for i, k in ((ci, ck), (ci + 1, ck), (ci, ck + 1), (ci + 1, ck + 1)):
        if 1 <= i < 2**j and 1 <= k < 2**j and oracle.hat(j, i, k, x, y) > 0:
            yield i, k


def _oracle_load(j, g, rule, level=None):
    # per-triangle quadrature of g times each interior level-j hat, over the
    # triangles of ``level`` (default j); a level-j hat is linear on each of
    # them, and on a level-j triangle it is the vertex's barycentric coordinate
    out = np.zeros(mesh.n_interior(j))
    for _, coords, area in oracle.triangles(level or j):
        for i, k in _hats_on(j, coords):
            out[oracle.ordinal(j, i, k)] += oracle.integrate(
                coords, area, lambda x, y: g(x, y) * oracle.hat(j, i, k, x, y), rule
            )
    return out


@pytest.mark.parametrize("j", (1, 2, 3, 4))
@pytest.mark.parametrize("rule", (quadrature.MID3, quadrature.GAUSS7), ids=("mid3", "gauss7"))
@pytest.mark.parametrize("kind", ("smooth", "tabulated", "scalar"))
def test_load_vector_matches_per_triangle_oracle(j, rule, kind):
    if kind == "smooth":
        g = _smooth
    elif kind == "tabulated":
        g = quadrature.TabulatedFunction(np.random.default_rng(j).uniform(-1, 1, (9, 9)))
    else:
        g = lambda x, y: 2.5  # a scalar, broadcast over every point
    got = quadrature.load_vector(j, g, rule)
    level = j
    if kind == "tabulated":
        # the P1 source is linear on the triangles of the finer triangulation
        tab, level = g, max(j, g.level)
        g = lambda x, y: oracle.p1(tab, x, y)
    expect = _oracle_load(j, g, rule, level)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15 * np.max(np.abs(expect)))


def _load_vector_before_cell_points(j, g, rule):
    # load_vector's body before the cell grid moved into _cell_points
    m = 2**j
    h = 1.0 / m
    cells = np.arange(m, dtype=float)
    pts = rule.point_array()
    coef = (0.5 / 4**j) * rule.weight_array()[:, None] * pts
    full = np.zeros((m + 1, m + 1))
    for offsets in mesh._CELL_OFFSETS:
        vals = np.empty((len(pts), m, m))
        for q, (px, py) in enumerate(pts @ offsets):
            x, y = np.meshgrid((cells + px) * h, (cells + py) * h)
            vals[q] = quadrature._evaluate(g, x, y)
        contrib = np.tensordot(coef, vals, axes=(0, 0))
        for (ox, oy), grid in zip(offsets, contrib):
            full[oy : oy + m, ox : ox + m] += grid
    return full[1:-1, 1:-1].ravel()


@pytest.mark.parametrize("j", range(1, 7))
@pytest.mark.parametrize("rule", (quadrature.MID3, quadrature.GAUSS7), ids=("mid3", "gauss7"))
def test_load_vector_bits_unchanged_by_the_shared_sampler(j, rule):
    # the sampler the error norms share changed no sample point
    got = quadrature.load_vector(j, _smooth, rule)
    assert np.array_equal(got, _load_vector_before_cell_points(j, _smooth, rule))


def test_tabulated_function_copies_its_samples():
    values = np.zeros((5, 5))
    tab = quadrature.TabulatedFunction(values)
    values[2, 2] = 1.0
    assert np.all(quadrature.load_vector(2, tab) == 0.0)
    with pytest.raises(ValueError):
        tab.values[2, 2] = 1.0


def _tab(m, seed=0):
    return quadrature.TabulatedFunction(
        np.random.default_rng([m, seed]).uniform(-1, 1, (2**m + 1, 2**m + 1))
    )


def _quadrature_load(j, tab, rule=quadrature.MID3):
    # a plain callable hides the type, so load_vector samples the P1 source
    return quadrature.load_vector(j, lambda x, y: oracle.p1(tab, x, y), rule)


def _max_rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("j", range(1, 7))
def test_exact_tabulated_load_matches_quadrature(j):
    # a grid no finer than j is P1 on the level-j mesh: both rules are exact
    for m in range(j + 1):
        tab = _tab(m, seed=j)
        got = quadrature.load_vector(j, tab)
        for rule in (quadrature.MID3, quadrature.GAUSS7):
            assert np.array_equal(quadrature.load_vector(j, tab, rule), got)
            assert _max_rel(got, _quadrature_load(j, tab, rule)) <= 1e-13


def test_exact_tabulated_load_matches_quadrature_at_level_nine():
    tab = _tab(9)
    assert _max_rel(quadrature.load_vector(9, tab), _quadrature_load(9, tab)) <= 1e-13


@pytest.mark.parametrize("j", range(1, 10))
def test_exact_load_of_one_is_the_hat_volume(j):
    for m in (0, j):
        tab = quadrature.TabulatedFunction(np.ones((2**m + 1, 2**m + 1)))
        f = quadrature.load_vector(j, tab)
        assert f.shape == (mesh.n_interior(j),)
        assert np.all(f == 4.0**-j)


@pytest.mark.parametrize("j", range(1, 5))
def test_finer_grid_load_is_exact(j):
    # the P1 source times a level-j hat is quadratic on each triangle of the
    # finer grid, so the degree-5 rule over those triangles is exact; any rule
    # passed to load_vector, even a degree-one one, gives the same bits
    centroid = quadrature.TriangleRule("centroid", ((1 / 3, 1 / 3, 1 / 3),), (1.0,))
    for m in (j + 1, j + 2):
        tab = _tab(m, seed=j)
        got = quadrature.load_vector(j, tab)
        expect = _oracle_load(j, lambda x, y: oracle.p1(tab, x, y), quadrature.GAUSS7, m)
        assert _max_rel(got, expect) <= 1e-13
        for rule in (quadrature.GAUSS7, centroid):
            assert np.array_equal(quadrature.load_vector(j, tab, rule), got)


@pytest.mark.parametrize("m, j", ((3, 3), (3, 5)))
def test_exact_load_of_huge_samples_stays_finite(m, j):
    # summing before scaling overflows, in the stencil and in the refinement
    tab = quadrature.TabulatedFunction(np.full((2**m + 1, 2**m + 1), 1e308))
    got = quadrature.load_vector(j, tab)
    ref = _quadrature_load(j, tab)
    assert np.all(np.isfinite(ref))
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, ref, rtol=1e-13)


@pytest.mark.parametrize("j", range(1, 9))
def test_exact_loads_agree_across_levels(j):
    # the level-j hats are combinations of level j+1 hats, so an exact load
    # restricts onto the coarser exact load, on any grid
    for m in sorted({0, j // 2, j, j + 1, j + 2}):
        tab = _tab(m, seed=j)
        fine = quadrature.load_vector(j + 1, tab)
        coarse = quadrature.load_vector(j, tab)
        assert _max_rel(assembly.refinement_matrix(j) @ fine, coarse) <= 1e-14


def test_finer_grid_load_builds_no_refinement_matrices():
    # a 513 x 513 grid at level 5 is restricted four times by stride-2 slices,
    # which add in the column order of the refinement matrix's rows: the same
    # bits as the matrix chain, and no matrix left in its cache
    oracle.clear_caches()
    tab = _tab(9, seed=5)
    got = quadrature.load_vector(5, tab)
    assert assembly.refinement_matrix.cache_info().currsize == 0
    chain = quadrature.load_vector(9, tab)
    for k in range(8, 4, -1):
        chain = assembly.refinement_matrix(k) @ chain
    assert np.array_equal(got, chain)
