"""Linear solver tests against a hand-rolled elimination oracle."""

from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

import oracle
from prewavelet_poisson import assembly, bench, linalg, mesh, prewavelet, quadrature, solver


def _gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain Gaussian elimination with partial pivoting, no library calls."""
    a = a.astype(float).copy()
    x = b.astype(float).copy()
    n = len(x)
    for col in range(n):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if p != col:
            a[[col, p]] = a[[p, col]]
            x[[col, p]] = x[[p, col]]
        for r in range(col + 1, n):
            m = a[r, col] / a[col, col]
            a[r, col:] -= m * a[col, col:]
            x[r] -= m * x[col]
    for col in range(n - 1, -1, -1):
        x[col] = (x[col] - a[col, col + 1 :] @ x[col + 1 :]) / a[col, col]
    return x


def _random_spd(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n))
    return r @ r.T + n * np.eye(n)


def test_factor_fully_coupled_matches_oracle():
    a = _random_spd(40, seed=0)  # fully coupled: the factor fills in completely
    b = np.arange(40, dtype=float)
    x = linalg.CholeskyFactor(sp.csr_matrix(a)).solve(b)
    np.testing.assert_allclose(x, _gauss_solve(a, b), rtol=1e-10)
    assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= 1e-12


def test_factor_solves_a_matrix_that_is_symmetric_only_to_the_check():
    # the factor is of A^T, solved transposed: that solves A itself, so an
    # asymmetry the check lets through (1e-11 here) costs no accuracy; a
    # plain solve of A^T would leave a residual near 1e-11
    rng = np.random.default_rng(3)
    n = 30
    a = _random_spd(n, seed=4)
    a += 1e-11 * np.max(np.abs(a)) * np.triu(rng.uniform(0.5, 1.0, (n, n)), 1)
    b = rng.standard_normal(n)
    x = linalg.CholeskyFactor(sp.csr_matrix(a)).solve(b)
    assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= 1e-14


def test_factor_tridiagonal_matches_oracle():
    # 1D Laplacian: bandwidth 1 on 200 unknowns, a factor with no fill
    n = 200
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    a = sp.diags([off, main, off], (-1, 0, 1), format="csr")
    b = np.sin(np.linspace(0, 3, n))
    x = linalg.CholeskyFactor(a).solve(b)
    np.testing.assert_allclose(x, _gauss_solve(a.toarray(), b), rtol=1e-9)


def test_factor_matches_oracle_on_stiffness():
    a = assembly.stiffness_matrix(3)
    b = quadrature.load_vector(3, lambda x, y: np.exp(x) * y)
    x = linalg.CholeskyFactor(a).solve(b)
    np.testing.assert_allclose(x, _gauss_solve(a.toarray(), b), rtol=1e-9)


def test_not_positive_definite_raises():
    a = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.CholeskyFactor(a)


def test_indefinite_matrix_with_permuting_ordering_raises():
    # nonsingular but indefinite; shifting by 4 instead would make it singular
    a = assembly.stiffness_matrix(3) - 3.0 * sp.eye(49)
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.CholeskyFactor(a)


def test_singular_semidefinite_matrix_raises():
    # 1D Neumann Laplacian: positive semidefinite, constants in the kernel
    n = 50
    main = 2.0 * np.ones(n)
    main[[0, -1]] = 1.0
    off = -1.0 * np.ones(n - 1)
    a = sp.diags([off, main, off], (-1, 0, 1), format="csr")
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.CholeskyFactor(a)


def test_factor_solves_detail_gram():
    # the global row couples the whole top fine row, yet the factor must stay sparse
    a = prewavelet.wavelet_gram(5)
    b = np.cos(np.arange(a.shape[0], dtype=float))
    x = linalg.CholeskyFactor(a).solve(b)
    assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= 1e-10


def test_shape_and_symmetry_validation():
    with pytest.raises(ValueError, match="square"):
        linalg.CholeskyFactor(sp.csr_matrix(np.ones((2, 3))))
    with pytest.raises(ValueError, match="does not match"):
        linalg.CholeskyFactor(sp.csr_matrix(np.eye(3))).solve(np.ones(2))
    # each has positive LU pivots, so only the symmetry check stops a wrong answer;
    # the last is even positive definite (x^T A x = 4|x|^2) but not symmetric
    for asym in ([[2.0, 1.0], [0.0, 2.0]], [[4.0, 1.0], [0.0, 4.0]], [[4.0, 3.0], [-3.0, 4.0]]):
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.CholeskyFactor(sp.csr_matrix(np.array(asym)))


def test_cg_rejects_asymmetric_matrix():
    for asym in ([[4.0, 1.0], [0.0, 4.0]], [[4.0, 3.0], [-3.0, 4.0]]):
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.cg_solve(linalg.SymmetricMatrix(np.array(asym)), np.ones(2), lambda r: r)


def test_cg_matches_oracle():
    a = assembly.stiffness_matrix(3)
    b = quadrature.load_vector(3, lambda x, y: np.cos(x + y))
    x, report = linalg.cg_solve(linalg.SymmetricMatrix(a), b, oracle.jacobi(a), tol=1e-12)
    assert report.converged
    np.testing.assert_allclose(x, _gauss_solve(a.toarray(), b), rtol=1e-8)
    # reported residual is the true one
    true_rel = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    assert report.relative_residual == pytest.approx(true_rel, rel=1e-6, abs=1e-15)


def test_cg_iterations_monotone_in_tolerance():
    a = assembly.stiffness_matrix(4)
    b = quadrature.load_vector(4, lambda x, y: np.ones_like(x))
    prev = 0
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        _, report = linalg.cg_solve(linalg.SymmetricMatrix(a), b, oracle.jacobi(a), tol=tol)
        assert report.converged
        assert report.iterations >= prev
        prev = report.iterations


def test_cg_zero_rhs_short_circuits():
    a = assembly.stiffness_matrix(2)
    x, report = linalg.cg_solve(linalg.SymmetricMatrix(a), np.zeros(a.shape[0]), oracle.jacobi(a))
    assert np.array_equal(x, np.zeros(a.shape[0]))
    assert report.iterations == 0
    assert report.converged


def test_cg_non_convergence_reports_partial():
    # rounding keeps the true residual near 1e-14 here, so 1e-16 is out of reach
    a = assembly.stiffness_matrix(4)
    b = quadrature.load_vector(4, lambda x, y: np.ones_like(x))
    x, report = linalg.cg_solve(linalg.SymmetricMatrix(a), b, oracle.jacobi(a), tol=1e-16)
    assert not report.converged
    assert report.relative_residual > 1e-16
    assert 0 < report.iterations < 10 * a.shape[0]
    assert np.any(x != 0.0)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_cg_rejects_non_finite_rhs(bad):
    # without the check a NaN never meets the residual test and CG runs to its cap
    a = assembly.stiffness_matrix(3)
    b = np.ones(a.shape[0])
    b[5] = bad
    with pytest.raises(ValueError, match="not finite"):
        linalg.cg_solve(linalg.SymmetricMatrix(a), b, oracle.jacobi(a))


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_factor_rejects_non_finite_matrix(bad):
    # a NaN or inf makes the asymmetry NaN or inf - inf, which no threshold test catches
    with pytest.raises(ValueError, match="non-finite"):
        linalg.CholeskyFactor(sp.csr_matrix(np.array([[4.0, bad], [bad, 4.0]])))


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_cg_rejects_non_finite_matrix(bad):
    # without the check a NaN on the diagonal stalls CG until its cap
    a = assembly.stiffness_matrix(3).copy()
    a[5, 5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        linalg.cg_solve(linalg.SymmetricMatrix(a), np.ones(a.shape[0]), oracle.jacobi(a))


def test_cg_tolerance_validation():
    a = assembly.stiffness_matrix(2)
    checked = linalg.SymmetricMatrix(a)
    with pytest.raises(ValueError):
        linalg.cg_solve(checked, np.ones(a.shape[0]), oracle.jacobi(a), tol=0.0)
    with pytest.raises(ValueError):
        linalg.cg_solve(checked, np.ones(a.shape[0]), oracle.jacobi(a), tol=2.0)


def test_cg_preconditioned_matches_cholesky_on_detail_gram():
    # the detail Gram's diagonal is far from constant, so Jacobi changes the iterates
    a = prewavelet.wavelet_gram(5)
    d = a.diagonal()
    assert d.max() > 10.0 * d.min()
    b = np.cos(np.arange(a.shape[0], dtype=float))
    x, report = linalg.cg_solve(linalg.SymmetricMatrix(a), b, oracle.jacobi(a), tol=1e-12)
    assert report.converged
    direct = linalg.CholeskyFactor(a).solve(b)
    np.testing.assert_allclose(x, direct, rtol=1e-8)


def _detail_cg_iterations(j: int) -> int:
    g = bench.builtin_problems()["sine"].g
    a = prewavelet.wavelet_gram(j)
    b = prewavelet.wavelet_matrix(j) @ quadrature.load_vector(j + 1, g)
    _, report = linalg.cg_solve(linalg.SymmetricMatrix(a), b, oracle.jacobi(a), tol=1e-10)
    assert report.converged
    return report.iterations


def test_cg_detail_iterations_at_level_five():
    # plain CG needs about 400 iterations here; Jacobi about 360
    assert _detail_cg_iterations(5) <= 700


def test_cg_detail_iterations_at_level_six():
    # about 735: every strip row but the global one has at most four fine
    # entries, so the strip no longer dominates the Gram's conditioning
    assert _detail_cg_iterations(6) <= 800


@pytest.mark.parametrize("j", (2, 3, 4, 5))
def test_coarse_matrix_is_the_sparse_galerkin_product(j):
    # the coarse stiffness matrix is the Galerkin product R A_{j+1} R^T with
    # the cached prolongation, exactly, entry for entry
    r = assembly.refinement_matrix(j)
    galerkin = r @ assembly.stiffness_matrix(j + 1) @ solver._prolongation(j)
    assert (solver._prolongation(j) != r.T).nnz == 0
    assert (galerkin != assembly.stiffness_matrix(j)).nnz == 0


def _rung(j: int, fine_load: np.ndarray):
    """The CG ladder's rung from level ``j`` to ``j + 1``: the level-``j``
    solution of the restricted load, then the stiffness system of level
    ``j + 1`` whose solution is its ``W_j`` detail, with that level's
    exact inverse as preconditioner."""
    u = linalg.CholeskyFactor(assembly.stiffness_matrix(j)).solve(
        assembly.refinement_matrix(j) @ fine_load
    )
    pu = solver._prolongation(j) @ u
    a = assembly.stiffness_matrix(j + 1)
    return a, fine_load - a @ pu, partial(solver._poisson_inverse, j + 1)


def test_two_level_cg_matches_cholesky_on_detail_gram():
    # the detail CG finds in nodal coordinates what Cholesky on the detail
    # Gram finds in the prewavelet basis: w = Q^T E^-1 Q f
    j = 5
    f = np.cos(np.arange(mesh.n_interior(j + 1), dtype=float))
    a, r, precondition = _rung(j, f)
    w, report = linalg.cg_solve(linalg.SymmetricMatrix(a), r, precondition, tol=1e-12)
    assert report.converged
    q = prewavelet.wavelet_matrix(j)
    want = q.T @ linalg.CholeskyFactor(prewavelet.wavelet_gram(j)).solve(q @ f)
    np.testing.assert_allclose(w, want, rtol=1e-8, atol=1e-8 * np.max(np.abs(want)))
    true_rel = np.linalg.norm(a @ w - r) / np.linalg.norm(r)
    assert report.relative_residual == pytest.approx(true_rel, rel=1e-6, abs=1e-15)


@pytest.mark.parametrize("j", (4, 5, 6))
def test_two_level_cg_detail_iterations(j):
    # the nodal detail solve with the exact inverse takes 1 iteration at each
    # of these levels
    g = bench.builtin_problems()["sine"].g
    a, r, precondition = _rung(j, quadrature.load_vector(j + 1, g))
    _, report = linalg.cg_solve(linalg.SymmetricMatrix(a), r, precondition, tol=1e-10)
    assert report.converged
    assert report.iterations <= 2


def test_cg_checks_a_symmetric_matrix_once(monkeypatch):
    # a SymmetricMatrix is checked when built, not on each solve; a plain
    # matrix, sparse or dense, is refused, never solved unchecked
    a = assembly.stiffness_matrix(3)
    checked = linalg.SymmetricMatrix(a)
    calls = []
    check = linalg._check_matrix

    def counting(m):
        calls.append(m.shape)
        return check(m)

    monkeypatch.setattr(linalg, "_check_matrix", counting)
    b = np.ones(a.shape[0])
    x, report = linalg.cg_solve(checked, b, oracle.jacobi(a))
    assert report.converged
    assert calls == []
    for plain in (a, a.toarray()):
        with pytest.raises(TypeError, match="SymmetricMatrix"):
            linalg.cg_solve(plain, b, oracle.jacobi(a))
    assert calls == []
    with pytest.raises(ValueError, match="not symmetric"):
        linalg.SymmetricMatrix(sp.csr_matrix(np.array([[4.0, 1.0], [0.0, 4.0]])))


def _systems():
    """The detail Grams j = 2..5 with Jacobi and the stiffness matrices at
    levels 5, 6 and 7 with their exact inverses, each a SymmetricMatrix
    with its sine right-hand side and its preconditioner."""
    g = bench.builtin_problems()["sine"].g
    for j in range(2, 6):
        a = prewavelet.wavelet_gram(j)
        b = prewavelet.wavelet_matrix(j) @ quadrature.load_vector(j + 1, g)
        yield f"detail j{j}", linalg.SymmetricMatrix(a), b, oracle.jacobi(a)
    for level in (5, 6, 7):
        b = quadrature.load_vector(level, g)
        yield f"stiffness {level}", solver._stiffness(level), b, partial(
            solver._poisson_inverse, level
        )


@pytest.mark.parametrize("tol", (1e-10, 1e-15, 1e-16, 1e-300))
def test_cg_report_states_the_true_residual_against_tol(tol):
    # the recurrence residual keeps falling after the true one stops near
    # 1e-15..1e-12, so only the true residual may decide convergence: 1e-10
    # is reached on every one of these systems, 1e-15 on none
    for name, a, b, precondition in _systems():
        x, report = linalg.cg_solve(a, b, precondition, tol=tol)
        true_rel = np.linalg.norm(b - a.csr @ x) / np.linalg.norm(b)
        assert report.converged == (report.relative_residual <= tol), name
        assert report.relative_residual == pytest.approx(true_rel, rel=1e-6), name
        assert report.converged == (tol == 1e-10), name


def test_cg_underflow_ends_the_solve_without_an_exception():
    # r^T z underflows to zero in this solve; dividing by it once raised
    # ZeroDivisionError
    g = bench.builtin_problems()["sine"].g
    load = quadrature.load_vector(5, g)
    for j in (4, 3):
        load = assembly.refinement_matrix(j) @ load
    b = prewavelet.wavelet_matrix(2) @ load
    a = prewavelet.wavelet_gram(2)
    x, report = linalg.cg_solve(linalg.SymmetricMatrix(a), b, oracle.jacobi(a), tol=1e-300)
    assert not report.converged
    assert np.all(np.isfinite(x))
    assert report.relative_residual <= 1e-13


def test_cg_near_miss_converges_a_step_or_two_later():
    # a tol just under a residual CG reaches is met one or two iterations on,
    # not given up on as out of reach
    for name, a, b, precondition in _systems():
        _, reached = linalg.cg_solve(a, b, precondition, tol=1e-10)
        tol = 0.99999 * reached.relative_residual
        _, report = linalg.cg_solve(a, b, precondition, tol=tol)
        assert report.converged, name
        assert reached.iterations < report.iterations <= reached.iterations + 2, name
