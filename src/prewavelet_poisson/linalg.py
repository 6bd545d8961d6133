"""Direct and iterative solvers for the symmetric positive definite systems.

Both Galerkin systems solved in this package are SPD: the hat-basis
stiffness matrix (five-point pattern) and the detail Gram matrix (sparse
apart from one globally supported row, which gives it a bandwidth of nearly
its size).  ``CholeskyFactor`` is the one direct path and factors either
one the same way: a sparse symmetric ``P A P^T = L D L^T`` factorization
(SuperLU with a minimum-degree ordering of ``A + A^T`` and diagonal pivots
only), whose fill follows the sparsity rather than the bandwidth.
``cg_solve`` is conjugate gradients from a zero start, always preconditioned
with the inverse diagonal (Jacobi), which evens out the spread of the detail
Gram's diagonal (from 8 up to ``2^{j+2} - 2`` on the global row); it stops
on the unpreconditioned relative residual.  Both reject a matrix that is not
square and symmetric with ValueError, so neither hands back the solution of
a system that cannot be SPD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class NotPositiveDefiniteError(Exception):
    """Cholesky pivot failure: the matrix is not positive definite."""


@dataclass
class SolverReport:
    """Outcome of one conjugate-gradient solve.

    relative_residual is the true ``||b - A x|| / ||b||`` of the returned
    solution.  converged records whether the stopping criterion was met.
    """

    iterations: int
    relative_residual: float
    converged: bool


def _as_csr(a) -> sp.csr_matrix:
    if sp.issparse(a):
        return a.tocsr()
    return sp.csr_matrix(np.asarray(a, dtype=float))


def _check_matrix(a: sp.csr_matrix) -> None:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = np.max(np.abs(a.data)) if a.nnz else 0.0
    skew = a - a.T
    asym = np.max(np.abs(skew.data)) if skew.nnz else 0.0
    if asym > 1e-10 * max(scale, 1.0):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3g})")


class CholeskyFactor:
    """Reusable sparse symmetric factorization ``P A P^T = L D L^T``.

    SuperLU factors ``A`` in symmetric mode: one fill-reducing
    minimum-degree ordering of ``A + A^T`` applied to rows and columns alike,
    and the diagonal entry always taken as pivot.  ``U`` is then ``D L^T``,
    so ``A`` is positive definite exactly when the row and column orders
    agree and every diagonal entry of ``U`` is positive; anything else
    raises NotPositiveDefiniteError, as does an exactly singular factor.  A
    matrix that is not square and symmetric raises ValueError first.
    """

    def __init__(self, a) -> None:
        a = _as_csr(a)
        _check_matrix(a)
        self.n = a.shape[0]
        try:
            self._lu = spla.splu(
                a.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NotPositiveDefiniteError(str(exc)) from exc
        if not np.array_equal(self._lu.perm_r, self._lu.perm_c):
            raise NotPositiveDefiniteError("a zero diagonal pivot forced a row interchange")
        pivots = self._lu.U.diagonal()
        if not np.all(pivots > 0.0):
            worst = float(np.min(pivots))
            raise NotPositiveDefiniteError(f"non-positive pivot {worst:.3g} in L D L^T")

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"right-hand side length {b.shape} does not match size {self.n}")
        return self._lu.solve(b)


def cg_solve(
    a,
    b,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Jacobi-preconditioned conjugate gradients from a zero start.

    The preconditioner is the inverse of the diagonal of ``a``; a
    non-positive diagonal entry proves ``a`` is not positive definite and
    raises NotPositiveDefiniteError.  Iteration stops once the
    unpreconditioned recurrence residual satisfies ``||r|| <= tol * ||b||``
    or after ``max_iter`` iterations (default ``10 n``).  A right-hand side
    whose norm is not finite raises ValueError before any iteration; a
    NaN in it would otherwise stall every residual test.  Non-convergence
    is signalled through ``report.converged``; the partial iterate is still
    returned.  The report carries the true final residual.
    """
    a = _as_csr(a)
    b = np.asarray(b, dtype=float)
    _check_matrix(a)
    if b.shape != (a.shape[0],):
        raise ValueError(
            f"right-hand side length {b.shape} does not match matrix of size {a.shape[0]}"
        )
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    n = a.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    x = np.zeros(n)
    bnorm = float(np.linalg.norm(b))
    if not np.isfinite(bnorm):
        raise ValueError(f"right-hand side norm is {bnorm}, not finite")
    if bnorm == 0.0:
        return x, SolverReport(0, 0.0, True)
    d = a.diagonal()
    if np.any(d <= 0):
        raise NotPositiveDefiniteError("diagonal has non-positive entries")
    inv_diag = 1.0 / d
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if float(np.linalg.norm(r)) <= tol * bnorm:
            converged = True
            break
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    res = float(np.linalg.norm(b - a @ x)) / bnorm
    return x, SolverReport(iterations, res, converged)
