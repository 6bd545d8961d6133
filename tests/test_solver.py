"""Solver tests: direct FEM, the multiresolution ladder, and error norms."""

import io

import numpy as np
import pytest

import oracle
from prewavelet_poisson import assembly, bench, linalg, mesh, quadrature, solver
from prewavelet_poisson.homogenize import reconstruct


def test_single_vertex_frozen_value():
    # j=1: one unknown, 4 u = 1/4, so u(1/2, 1/2) = 1/16
    c = solver.fem_solve(1, lambda x, y: np.ones_like(x))
    assert c.shape == (1,)
    assert c[0] == pytest.approx(1.0 / 16.0, rel=1e-14)


def test_fem_solves_the_galerkin_system():
    # residual of the assembled system is at solver precision
    g = bench.builtin_problems()["exp"].g
    j = 3
    c = solver.fem_solve(j, g)
    a = assembly.stiffness_matrix(j)
    f = quadrature.load_vector(j, g)
    assert np.linalg.norm(a @ c - f) / np.linalg.norm(f) <= 1e-12


@pytest.mark.parametrize("problem", ("sine", "poly", "exp"))
def test_two_level_split_reproduces_fine_solution(problem):
    # u_{j+1} = u_j + w_j after prolongation, the central decomposition
    g = bench.builtin_problems()[problem].g
    for top in (2, 3, 4):
        direct = solver.fem_solve(top, g)
        ladder = solver.multilevel_solve(top, g)
        rec = ladder.prolong()
        rel = np.max(np.abs(rec - direct)) / np.max(np.abs(direct))
        assert rel <= 1e-11


def test_multilevel_structure():
    # on both ladders a detail is the nodal W_j component at level j + 1
    g = bench.builtin_problems()["poly"].g
    for name in ("direct", "cg"):
        ml = solver.multilevel_solve(4, g, base_level=2, solver=name)
        assert ml.base_level == 2
        assert ml.top_level == 4
        assert ml.coarse.shape == (mesh.n_interior(2),)
        assert len(ml.details) == 2
        for j, d in zip((2, 3), ml.details):
            assert d.shape == (mesh.n_interior(j + 1),)


def test_prolong_to_intermediate_level():
    # the intermediate ladder value is the level-3 Galerkin solution for the
    # load restricted from the finest level, not for level-3 quadrature of g
    g = bench.builtin_problems()["sine"].g
    ml = solver.multilevel_solve(4, g)
    mid = ml.prolong(level=3)
    assert mid.shape == (mesh.n_interior(3),)
    f4 = quadrature.load_vector(4, g)
    f3 = assembly.refinement_matrix(3) @ f4
    direct = linalg.CholeskyFactor(assembly.stiffness_matrix(3)).solve(f3)
    assert np.max(np.abs(mid - direct)) / np.max(np.abs(direct)) <= 1e-11


def test_truncating_details_is_exact():
    # dropping the finest detail level reproduces the shorter ladder exactly,
    # on both ladders, because each level solves against the restricted load
    # of the next
    f4 = quadrature.load_vector(4, bench.builtin_problems()["exp"].g)
    f3 = assembly.refinement_matrix(3) @ f4
    for name in ("direct", "cg"):
        long = solver.multilevel_from_load(4, f4, solver=name)
        short = solver.multilevel_from_load(3, f3, solver=name)
        assert np.array_equal(long.coarse, short.coarse)
        for a, b in zip(long.details[:-1], short.details):
            assert np.array_equal(a, b)
        truncated = solver.MultilevelSolution(1, long.coarse, long.details[:-1])
        assert np.array_equal(truncated.prolong(), short.prolong())
        assert np.array_equal(long.prolong(3), short.prolong())


@pytest.mark.parametrize("j", (2, 3, 4, 5))
def test_ladder_keeps_the_fem_solution_of_a_finer_tabulated_source(j):
    # the level-j load is the restriction of the level j+1 load on any sample
    # grid, so one more ladder level keeps the level-j Galerkin solution
    for m in (j + 1, j + 2):
        tab = quadrature.TabulatedFunction(
            np.random.default_rng([m, j]).uniform(-1, 1, (2**m + 1, 2**m + 1))
        )
        direct = solver.fem_solve(j, tab)
        kept = solver.multilevel_solve(j + 1, tab).prolong(level=j)
        assert np.max(np.abs(kept - direct)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("j", (1, 2, 3))
def test_subspace_splitting_identity(j):
    # B^T D_c^{-1} B + C^T E^{-1} C = D_f^{-1}, the exact-splitting identity
    assert solver.verify_identity(j) <= 1e-11


def test_verify_identity_rejects_large_level():
    with pytest.raises(ValueError):
        solver.verify_identity(9)


def test_galerkin_orthogonality():
    # the FEM error is H1-orthogonal to V_j: a(u_h, v) = (g, v) for all v,
    # equivalently the coarse restriction of the fine residual vanishes
    g = bench.builtin_problems()["sine"].g
    j = 3
    c = solver.fem_solve(j + 1, g)
    coarse_residual = assembly.refinement_matrix(j) @ (
        assembly.stiffness_matrix(j + 1) @ c - quadrature.load_vector(j + 1, g)
    )
    assert np.max(np.abs(coarse_residual)) <= 1e-9


def _pl_gradient(j: int, coeffs: np.ndarray):
    """Piecewise-constant gradient of a V_j member, for the h1_error oracle."""
    nodal = {}
    n = 2**j - 1
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            nodal[(i, k)] = coeffs[oracle.ordinal(j, i, k)]

    def value(i, k):
        return nodal.get((int(i), int(k)), 0.0)

    def grad(x, y):
        s = np.clip(np.floor(np.asarray(x) * 2**j), 0, 2**j - 1).astype(int)
        t = np.clip(np.floor(np.asarray(y) * 2**j), 0, 2**j - 1).astype(int)
        fx = np.asarray(x) * 2**j - s
        fy = np.asarray(y) * 2**j - t
        lower = fx >= fy
        v00 = np.vectorize(value)(s, t)
        v10 = np.vectorize(value)(s + 1, t)
        v01 = np.vectorize(value)(s, t + 1)
        v11 = np.vectorize(value)(s + 1, t + 1)
        # lower triangle: u = v00 + (v10-v00) fx + (v11-v10) fy
        # upper triangle: u = v00 + (v11-v01) fx + (v01-v00) fy
        gx = np.where(lower, v10 - v00, v11 - v01) * 2**j
        gy = np.where(lower, v11 - v10, v01 - v00) * 2**j
        return gx, gy

    return grad


def test_h1_error_vanishes_for_space_member():
    j = 3
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(mesh.n_interior(j))
    grad = _pl_gradient(j, coeffs)
    err = solver.h1_error(
        j, coeffs, lambda x, y: grad(x, y)[0], lambda x, y: grad(x, y)[1]
    )
    assert err <= 1e-10


def test_l2_error_vanishes_for_space_member():
    # the piecewise-linear interpolant of the nodal values is the V_j member
    rng = np.random.default_rng(5)
    for j in (1, 3, 5):
        coeffs = rng.standard_normal(mesh.n_interior(j))
        tab = quadrature.TabulatedFunction(np.pad(coeffs.reshape(2**j - 1, 2**j - 1), 1))
        assert solver.l2_error(j, coeffs, lambda x, y: oracle.p1(tab, x, y)) <= 1e-12


def _nodal_on_triangles(j, coeffs):
    """Nodal values at each triangle vertex, zero on the boundary: (T, 3)."""
    verts = mesh.triangle_vertex_array(j)
    n = 2**j - 1
    ix = verts[..., 0]
    iy = verts[..., 1]
    interior = (ix >= 1) & (ix <= n) & (iy >= 1) & (iy <= n)
    lin = np.where(interior, oracle.ordinal(j, ix, iy), 0)
    return np.where(interior, coeffs[lin], 0.0)


def _gradients(j):
    """Barycentric gradients per triangle: two arrays of shape (T, 3)."""
    verts = mesh.triangle_vertex_array(j) / 2**j
    x = verts[..., 0]
    y = verts[..., 1]
    two_area = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    return gx / two_area[:, None], gy / two_area[:, None]


def _h1_error_per_triangle(j, coeffs, du_dx, du_dy, rule):
    """The H1 error norm summed triangle by triangle, as an oracle."""
    vals = _nodal_on_triangles(j, coeffs)
    gx, gy = _gradients(j)
    uhx = np.sum(vals * gx, axis=1)
    uhy = np.sum(vals * gy, axis=1)
    verts = mesh.triangle_vertex_array(j) / 2**j
    xy = np.einsum("qb,tbd->tqd", rule.point_array(), verts)
    ex = quadrature._evaluate(du_dx, xy[..., 0], xy[..., 1])
    ey = quadrature._evaluate(du_dy, xy[..., 0], xy[..., 1])
    sq = ((ex - uhx[:, None]) ** 2 + (ey - uhy[:, None]) ** 2) @ rule.weight_array()
    return float(np.sqrt(0.5 / 4**j * np.sum(sq)))


def _l2_error_per_triangle(j, coeffs, u, rule):
    """The L2 error norm summed triangle by triangle, as an oracle."""
    vals = _nodal_on_triangles(j, coeffs)
    verts = mesh.triangle_vertex_array(j) / 2**j
    pts = rule.point_array()
    xy = np.einsum("qb,tbd->tqd", pts, verts)
    exact = quadrature._evaluate(u, xy[..., 0], xy[..., 1])
    sq = (exact - vals @ pts.T) ** 2 @ rule.weight_array()
    return float(np.sqrt(0.5 / 4**j * np.sum(sq)))


@pytest.mark.parametrize("problem", ("sine", "poly", "exp"))
# the norms always use the degree-5 rule; the oracle is told so explicitly
@pytest.mark.parametrize("rule", (quadrature.GAUSS7,), ids=("gauss7",))
def test_error_norms_match_per_triangle_oracle(problem, rule):
    p = bench.builtin_problems()[problem]
    for j in range(1, 7):
        c = solver.fem_solve(j, p.g)
        h1 = solver.h1_error(j, c, p.du_dx, p.du_dy)
        l2 = solver.l2_error(j, c, p.u)
        assert h1 == pytest.approx(_h1_error_per_triangle(j, c, p.du_dx, p.du_dy, rule), rel=1e-10)
        assert l2 == pytest.approx(_l2_error_per_triangle(j, c, p.u, rule), rel=1e-10)


def test_h1_error_of_zero_is_seminorm():
    # against zero coefficients the "error" is the H1 seminorm of u itself;
    # for u = sin(2pi x) sin(2pi y): integral of ux^2 + uy^2 is 2 pi^2
    p = bench.builtin_problems()["sine"]
    val = solver.h1_error(4, np.zeros(mesh.n_interior(4)), p.du_dx, p.du_dy)
    assert val == pytest.approx(np.sqrt(2.0) * np.pi, rel=1e-3)


def test_l2_error_of_zero_is_norm():
    # ||sin(2pi x) sin(2pi y)||_L2 = 1/2
    p = bench.builtin_problems()["sine"]
    val = solver.l2_error(4, np.zeros(mesh.n_interior(4)), p.u)
    assert val == pytest.approx(0.5, rel=1e-3)


def test_h1_error_decreases_with_level():
    p = bench.builtin_problems()["poly"]
    errs = [
        solver.h1_error(j, solver.fem_solve(j, p.g), p.du_dx, p.du_dy)
        for j in (2, 3, 4)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)


def test_cg_solver_path_matches_direct():
    g = bench.builtin_problems()["sine"].g
    direct = solver.fem_solve(4, g)
    viacg = solver.fem_solve(4, g, solver="cg", tol=1e-13)
    assert np.max(np.abs(direct - viacg)) / np.max(np.abs(direct)) <= 1e-9
    with pytest.raises(ValueError):
        solver.fem_solve(2, g, solver="lu")


def test_fem_cg_converges_at_level_eight_at_the_default_tol():
    # the stiffness CG's true residual stalls near 4e-12 at level 8, so the
    # default tol has to lie above it
    g = bench.builtin_problems()["sine"].g
    tol = 1e-10  # the default
    direct = solver.fem_solve(8, g)
    viacg = solver.fem_solve(8, g, solver="cg")
    assert bench.relative_difference(viacg, direct) <= 10 * tol


def test_cg_ladder_matches_direct_fem():
    g = bench.builtin_problems()["sine"].g
    tol = 1e-10
    direct = solver.fem_solve(5, g)
    ladder = solver.multilevel_solve(5, g, solver="cg", tol=tol).prolong()
    assert np.max(np.abs(ladder - direct)) / np.max(np.abs(direct)) <= 10 * tol


def test_cg_ladder_matches_direct_fem_at_level_six():
    g = bench.builtin_problems()["sine"].g
    tol = 1e-10
    direct = solver.fem_solve(6, g)
    ladder = solver.multilevel_solve(6, g, solver="cg", tol=tol).prolong()
    assert np.max(np.abs(ladder - direct)) / np.max(np.abs(direct)) <= 10 * tol


def _recording_cg(monkeypatch):
    """Replace ``linalg.cg_solve`` by a wrapper that records, per call, the
    matrix size, the preconditioner and the report."""
    calls = []
    cg_solve = linalg.cg_solve

    def recording(a, b, precondition, tol=1e-10):
        x, report = cg_solve(a, b, precondition, tol)
        calls.append((a.shape[0], precondition, report))
        return x, report

    monkeypatch.setattr(linalg, "cg_solve", recording)
    return calls


def test_cg_ladder_gives_the_coarse_space_to_detail_solves_only(monkeypatch):
    # CG runs on stiffness matrices only: the solve at level 1, then one
    # detail correction at each of levels 2, 3, 4.  Each is preconditioned by
    # the exact inverse of its own level's stiffness matrix; the direct
    # ladder calls CG once, for its level-1 solve, and finds its details
    # from the factored detail Grams
    calls = _recording_cg(monkeypatch)
    solver.multilevel_solve(4, bench.builtin_problems()["sine"].g, solver="cg", tol=1e-8)
    assert [n for n, _, _ in calls] == [mesh.n_interior(j) for j in (1, 2, 3, 4)]
    for level, (_, precondition, _) in zip((1, 2, 3, 4), calls):
        assert precondition.func is solver._poisson_inverse
        assert precondition.args == (level,)
    assert calls[0][2].iterations == 1
    calls.clear()
    solver.multilevel_solve(4, bench.builtin_problems()["sine"].g)
    ((n, precondition, report),) = calls
    assert n == mesh.n_interior(1)
    assert precondition.func is solver._poisson_inverse
    assert precondition.args == (1,)
    assert report.iterations == 1 and report.converged


def test_cg_ladder_iterations_are_flat_in_the_level(monkeypatch):
    # the exact inverse keeps every rung at one iteration; Jacobi alone takes
    # 288 on the rung to level 7
    calls = _recording_cg(monkeypatch)
    solver.multilevel_solve(8, bench.builtin_problems()["sine"].g, solver="cg")
    iterations = [report.iterations for _, _, report in calls[2:]]
    assert len(iterations) == 6  # the rungs to levels 3..8
    assert max(iterations) - min(iterations) <= 2
    assert all(report.converged for _, _, report in calls)


def _sources():
    problems = {name: p.g for name, p in bench.builtin_problems().items()}
    values = np.random.default_rng(11).uniform(-1.0, 1.0, (2**8 + 1, 2**8 + 1))
    return {**problems, "tabulated": quadrature.TabulatedFunction(values)}


@pytest.mark.parametrize("source", ("sine", "poly", "exp", "tabulated"))
def test_cg_ladder_matches_fem_at_every_level(source):
    g = _sources()[source]
    tol = 1e-10
    for level in range(3, 9):
        load = quadrature.load_vector(level, g)
        ladder = solver.multilevel_from_load(level, load, solver="cg", tol=tol).prolong()
        fem = solver.multilevel_from_load(level, load, base_level=level).coarse
        assert bench.relative_difference(ladder, fem) <= 10 * tol, level


@pytest.mark.parametrize("source", ("sine", "tabulated"))
def test_direct_and_cg_details_are_the_same_components(source):
    # both ladders hold the W_j component of u_{j+1}: direct details are
    # H1-orthogonal to V_j to rounding, CG details to the tolerance (the
    # level-j residual of u_j plus the restricted level j+1 residual, each
    # within tol of its right-hand side, and the restriction has norm <= 4)
    tol = 1e-10
    top = 7
    loads = {top: quadrature.load_vector(top, _sources()[source])}
    for j in range(top - 1, 0, -1):
        loads[j] = assembly.refinement_matrix(j) @ loads[j + 1]
    direct = solver.multilevel_from_load(top, loads[top])
    cg = solver.multilevel_from_load(top, loads[top], solver="cg", tol=tol)
    for j, (wd, wc) in enumerate(zip(direct.details, cg.details), start=1):
        scale = np.max(np.abs(direct.prolong(j + 1)))
        assert np.max(np.abs(wd - wc)) <= 10 * tol * scale, j
        cross = assembly.cross_level_gram(j)
        f = np.linalg.norm(loads[j])
        assert np.linalg.norm(cross @ wd) <= 1e-14 * f, j
        assert np.linalg.norm(cross @ wc) <= 10 * tol * f, j


@pytest.mark.parametrize("source", ("sine", "poly", "exp", "tabulated"))
def test_cg_ladder_rungs_take_one_iteration(source, monkeypatch):
    # the preconditioner is the exact inverse, so the first CG step lands on
    # the solution to rounding on every rung to level 9
    load = quadrature.load_vector(9, _sources()[source])
    calls = _recording_cg(monkeypatch)
    solver.multilevel_from_load(9, load, solver="cg", tol=1e-10)
    assert [n for n, _, _ in calls] == [mesh.n_interior(j) for j in range(1, 10)]
    assert [report.iterations for _, _, report in calls] == [1] * 9


@pytest.mark.parametrize("source", ("sine", "exp", "tabulated"))
def test_cg_ladder_does_not_depend_on_the_tolerance(source, monkeypatch):
    # every CG call takes one iteration with the exact inverse, and that
    # iterate meets any tol from 1e-2 to 1e-10, so the answer is the same
    # bits at each; an inexact preconditioner would make tol matter again
    g = _sources()[source]
    calls = _recording_cg(monkeypatch)
    for j in range(3, 8):
        first, *rest = (
            solver.multilevel_solve(j, g, solver="cg", tol=tol).prolong()
            for tol in (1e-2, 1e-6, 1e-10)
        )
        assert all(np.array_equal(first, x) for x in rest), j
    assert len(calls) == 3 * sum(range(3, 8))
    assert all(report.iterations == 1 for _, _, report in calls)


@pytest.mark.parametrize("j", range(1, 10))
def test_direct_fem_matches_the_stiffness_factor(j, monkeypatch):
    # the direct FEM solve is CG with the transform inverse, not a factor:
    # one iteration lands on the factored solution to 1e-12 relative (about
    # 2.5e-13 at level 9)
    factor = linalg.CholeskyFactor(assembly.stiffness_matrix(j))
    calls = _recording_cg(monkeypatch)
    for name, g in _sources().items():
        calls.clear()
        got = solver.fem_solve(j, g)
        want = factor.solve(quadrature.load_vector(j, g))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
        assert [report.iterations for _, _, report in calls] == [1], name


def test_benchmark_fem_load_converges_at_its_tolerance(monkeypatch):
    # fem_direct_l9's first load (level 9, default_rng([1, 0]) samples) at
    # the benchmark's tol 1e-12: one iteration reaches about 5.2e-14, where
    # the smooth sine load stops near 9e-13 after two
    values = np.random.default_rng([1, 0]).uniform(-1.0, 1.0, (2**9 + 1, 2**9 + 1))
    calls = _recording_cg(monkeypatch)
    solver.fem_solve(9, quadrature.TabulatedFunction(values), tol=1e-12)
    ((_, _, report),) = calls
    assert report.converged
    assert report.iterations == 1
    assert report.relative_residual <= 1e-13


#: The attainable relative residual of the single-level sine solve per
#: level: rounding in one transform solve, which CG cannot push below.
_SINE_FLOORS = {5: 4.3e-15, 6: 1.5e-14, 7: 6.1e-14, 8: 2.2e-13, 9: 9.0e-13}


@pytest.mark.parametrize("j", sorted(_SINE_FLOORS))
def test_cg_floor_of_the_sine_solve(j):
    # a decade above its level's floor the solve converges; a decade below
    # it must raise, never hand back a solution that misses tol
    g = bench.builtin_problems()["sine"].g
    floor = _SINE_FLOORS[j]
    solver.fem_solve(j, g, tol=10.0 * floor)
    with pytest.raises(RuntimeError, match="cg did not reach tol"):
        solver.fem_solve(j, g, tol=floor / 10.0)


def test_poisson_inverse_is_symmetric_positive_definite():
    # CG needs an SPD preconditioner: the dense operator of the transform
    # inverse at level 4
    n = mesh.n_interior(4)
    m = np.column_stack([solver._poisson_inverse(4, e) for e in np.eye(n)])
    assert np.max(np.abs(m - m.T)) <= 1e-13
    assert np.linalg.eigvalsh(m).min() > 0.0


@pytest.mark.parametrize("j", range(1, 10))
def test_poisson_inverse_inverts_the_stiffness_matrix(j):
    # A_j^-1 (A_j x) gives x back to 1e-12 relative, and up to level 4 the
    # operator is the dense inverse
    a = assembly.stiffness_matrix(j)
    x = np.random.default_rng(200 + j).standard_normal(a.shape[0])
    got = solver._poisson_inverse(j, a @ x)
    assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)
    if j <= 4:
        m = np.column_stack([solver._poisson_inverse(j, e) for e in np.eye(a.shape[0])])
        want = np.linalg.inv(a.toarray())
        assert np.max(np.abs(m - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("j", (1, 6, 9))
def test_prolongation_is_a_view_on_the_refinement_matrix(j):
    # the cached prolongation holds no copy of R_j: its CSC arrays are R_j's
    # CSR arrays, and it multiplies to the same bits as a CSR transpose
    r = assembly.refinement_matrix(j)
    p = solver._prolongation(j)
    for mine, theirs in ((p.data, r.data), (p.indices, r.indices), (p.indptr, r.indptr)):
        assert np.shares_memory(mine, theirs)
    u = np.random.default_rng(300 + j).standard_normal(r.shape[0])
    assert np.array_equal(p @ u, r.T.tocsr() @ u)


def test_cg_ladder_checks_each_stiffness_matrix_once(monkeypatch):
    # the per-level SymmetricMatrix carries the check; a warm solve makes none
    g = bench.builtin_problems()["sine"].g
    solver.multilevel_solve(5, g, solver="cg")
    checks = []
    check = linalg._check_matrix
    monkeypatch.setattr(linalg, "_check_matrix", lambda a: checks.append(a.shape) or check(a))
    solver.multilevel_solve(5, g, solver="cg")
    solver.fem_solve(5, g, solver="cg")
    assert checks == []


def test_cg_ladder_and_cg_fem_build_no_factor(monkeypatch):
    # every stiffness system is solved by CG with the transform inverse, so
    # from cold caches no path constructs a CholeskyFactor of a stiffness
    # matrix: the CG ladder and either FEM solve factor nothing, and the
    # direct ladder to level 5 factors only the detail Grams j = 1..4
    oracle.clear_caches()
    built = []
    init = linalg.CholeskyFactor.__init__

    def recording(self, a):
        built.append(a.shape)
        init(self, a)

    monkeypatch.setattr(linalg.CholeskyFactor, "__init__", recording)
    g = bench.builtin_problems()["sine"].g
    solver.multilevel_solve(5, g, solver="cg")
    solver.fem_solve(5, g, solver="cg")
    solver.fem_solve(5, g)
    assert built == []
    solver.multilevel_solve(5, g)
    details = [mesh.n_interior(j + 1) - mesh.n_interior(j) for j in (1, 2, 3, 4)]
    assert built == [(n, n) for n in details]


@pytest.mark.parametrize("top", (2, 5))
def test_direct_ladder_refuses_a_wrong_detail_solve(monkeypatch, top):
    # the detail Gram solves take no tolerance: a factor whose solves are off
    # by one part in a million leaves a top-level residual far above 1e-10,
    # and the direct ladder says so instead of handing the answer back
    oracle.clear_caches()
    exact = solver._gram_factor

    class Perturbed:
        def __init__(self, j):
            self.factor = exact(j)

        def solve(self, b):
            return self.factor.solve(b) * (1.0 + 1e-6)

    monkeypatch.setattr(solver, "_gram_factor", Perturbed)
    load = quadrature.load_vector(top, bench.builtin_problems()["sine"].g)
    with pytest.raises(RuntimeError, match=f"direct ladder missed the level {top} system"):
        solver.multilevel_from_load(top, load)
    # the CG ladder and FEM never solve with a detail Gram factor
    solver.multilevel_from_load(top, load, solver="cg")
    solver.multilevel_from_load(top, load, base_level=top)


def test_direct_ladder_check_passes_any_tol_and_a_zero_load():
    # the bound is 1e-10 whatever tol the coarse solve takes, and a zero load,
    # whose answer is exactly zero, passes it without dividing by its norm
    g = bench.builtin_problems()["exp"].g
    for tol in (1e-2, 1e-12):
        solver.multilevel_solve(6, g, tol=tol)
    assert not solver.multilevel_from_load(4, np.zeros(mesh.n_interior(4))).prolong().any()


def test_export_solution_csv():
    j = 2
    coeffs = np.arange(9, dtype=float) / 7.0
    buf = io.StringIO()
    solver.export_solution_csv(buf, j, coeffs)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "level,i,k,x,y,value"
    assert len(lines) == 1 + mesh.n_interior(j)
    first = lines[1].split(",")
    assert first[:5] == ["2", "1", "1", "0.25", "0.25"]
    assert float(first[5]) == coeffs[0]
    # row-major: second row is (i,k) = (2,1)
    assert lines[2].split(",")[1:3] == ["2", "1"]


@pytest.mark.parametrize("j", (3, 7))
def test_export_solution_csv_is_byte_identical_to_the_row_writer(j):
    # the batched writer gives the bytes of one csv.writer row per vertex, for
    # values from 1e-300 to 1e300 of either sign, signed zeros and non-finite
    n = mesh.n_interior(j)
    rng = np.random.default_rng(400 + j)
    coeffs = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    coeffs[:5] = (0.0, -0.0, np.inf, -np.inf, np.nan)
    got, want = io.StringIO(), io.StringIO()
    solver.export_solution_csv(got, j, coeffs)
    oracle.export_solution_csv(want, j, coeffs)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("method", ("direct", "cg"))
def test_fem_solve_rejects_non_finite_load(method):
    # the source is infinite on the line x = 1/2, where MID3 samples edge midpoints
    def g(x, y):
        return 1.0 / (x - 0.5)

    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            solver.fem_solve(3, g, solver=method)
        with pytest.raises(ValueError, match="non-finite"):
            solver.multilevel_solve(3, g, solver=method)


def _zero(x, y):
    return 0.0 * x


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: solver.multilevel_from_load(2, np.ones(9), base_level=3), "base level"),
        (lambda: solver.multilevel_from_load(2, np.ones(9), base_level=0), "base level"),
        (lambda: solver.multilevel_from_load(2, np.ones(8)), "9 interior values"),
        (lambda: solver.multilevel_from_load(2, np.r_[np.nan, np.ones(8)]), "1 non-finite"),
        (lambda: solver.multilevel_from_load(2, np.ones(9), base_level=2).prolong(1), "level"),
        (lambda: solver.multilevel_from_load(2, np.ones(9)).prolong(3), "level"),
        (lambda: solver.export_solution_csv(io.StringIO(), 2, np.ones(8)), "9 interior values"),
        (lambda: reconstruct(2, np.ones(8), lambda x, y: x), "9 interior"),
        (lambda: solver.h1_error(3, np.zeros(10), _zero, _zero), "49 interior values for level 3"),
        (lambda: solver.l2_error(3, np.zeros(10), _zero), "49 interior values for level 3"),
        (lambda: solver.h1_error(0, np.zeros(10), _zero, _zero), "level must be >= 1"),
        (lambda: solver.l2_error(0, np.zeros(10), _zero), "level must be >= 1"),
        # an empty vector is not the (2^0 - 1)^2 = 0 values of a level 0
        (lambda: solver.export_solution_csv(io.StringIO(), 0, []), "level must be >= 1, got 0"),
        (lambda: solver.export_solution_csv(io.StringIO(), -1, []), "level must be >= 1, got -1"),
        (lambda: reconstruct(0, [], lambda x, y: x), "level must be >= 1, got 0"),
        (lambda: reconstruct(-1, [], lambda x, y: x), "level must be >= 1, got -1"),
    ),
    ids=(
        "base-above-top", "base-zero", "load-length", "load-non-finite",
        "prolong-below-base", "prolong-above-top", "export-length", "reconstruct-length",
        "h1-length", "l2-length", "h1-level-zero", "l2-level-zero",
        "export-level-zero", "export-level-negative", "reconstruct-level-zero",
        "reconstruct-level-negative",
    ),
)
def test_input_checks_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
