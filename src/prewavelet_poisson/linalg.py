"""Direct and iterative solvers for the symmetric positive definite systems.

Both Galerkin systems solved in this package are SPD: the hat-basis
stiffness matrix (five-point pattern) and the detail Gram matrix (sparse
apart from one globally supported row, which gives it a bandwidth of nearly
its size).  ``CholeskyFactor`` is the one direct path and factors either
one the same way: a sparse symmetric ``P A P^T = L D L^T`` factorization
(SuperLU with a minimum-degree ordering of ``A + A^T`` and diagonal pivots
only), whose fill follows the sparsity rather than the bandwidth.
``cg_solve`` is conjugate gradients from a zero start, preconditioned with
the inverse diagonal (Jacobi), which evens out the spread of the detail
Gram's diagonal (from 8 up to ``2^{j+2} - 2`` on the global row).  Given a
``CoarseSpace`` it adds a coarse correction, ``M = D^-1 + Z E^-1 Z^T`` with
``Z`` a sparse basis of the coarse space (for the detail Grams, signed
aggregates that cover the near-kernel and the boundary strip) and
``E = Z^T A Z`` kept sparse and factored by ``CholeskyFactor``: a
two-level preconditioner that removes the smooth error modes Jacobi leaves
behind.  Either way it stops on the unpreconditioned relative residual,
and its inner products and norms bypass BLAS.  Both reject a matrix that
is not square and symmetric, or has non-finite entries, with ValueError,
so neither hands back the solution of a system that cannot be SPD.
"""

from __future__ import annotations

import math
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
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
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
    matrix that is not square and symmetric, or has non-finite entries,
    raises ValueError first.
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


@dataclass(frozen=True)
class CoarseSpace:
    """Coarse space for :func:`cg_solve`.

    basis is the sparse ``n x nc`` matrix ``Z`` whose columns span the
    coarse space; factor is the :class:`CholeskyFactor` of the Galerkin
    matrix ``E = Z^T A Z``.
    """

    basis: sp.csr_matrix
    factor: CholeskyFactor


def coarse_space(a, basis) -> CoarseSpace:
    """The Galerkin coarse space of ``a`` spanned by the columns of ``basis``.

    ``E = Z^T A Z`` is SPD when ``a`` is and ``Z`` has full column rank;
    it is kept sparse and factored by :class:`CholeskyFactor`, which proves
    it SPD.  For the detail Gram at ``j = 6`` and its 587-column signed
    aggregation basis the factor holds about 18k entries.
    """
    z = sp.csr_matrix(basis, dtype=float)
    return CoarseSpace(z, CholeskyFactor(z.T @ _as_csr(a) @ z))


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """``u . v`` summed by NumPy's own loops: OpenBLAS threads ``ddot`` on
    long vectors, and the first threaded call in a fresh process can stall
    for about a second."""
    return float(np.einsum("i,i->", u, v))


def cg_solve(
    a,
    b,
    tol: float = 1e-10,
    max_iter: int | None = None,
    coarse: CoarseSpace | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Preconditioned conjugate gradients from a zero start.

    The preconditioner is the inverse of the diagonal of ``a`` (Jacobi); a
    non-positive diagonal entry proves ``a`` is not positive definite and
    raises NotPositiveDefiniteError.  With a ``coarse`` space it is the
    two-level ``D^-1 + Z E^-1 Z^T``, still SPD, whose coarse part costs a
    product with ``Z^T``, one solve with the sparse factor of ``E`` and a
    product with ``Z`` per iteration; a coarse basis without one row per
    row of ``a``, or with another number of columns than its factor has
    unknowns, raises ValueError.  Iteration stops once the unpreconditioned
    recurrence residual satisfies ``||r|| <= tol * ||b||``, after
    ``max_iter`` iterations (default ``10 n``; below 1 raises ValueError),
    or when ``p^T A p`` is not positive, so that no step can make progress
    (the search direction has underflowed).  A right-hand side whose norm is
    not finite raises ValueError before any iteration; a NaN in it would
    otherwise stall every residual test.  Non-convergence
    is signalled through ``report.converged``; the partial iterate is still
    returned.  The report carries the true final residual.  Inner products
    and norms go through :func:`_dot`, not BLAS.
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
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if coarse is not None:
        nc = coarse.factor.n
        if coarse.basis.shape[0] != n:
            raise ValueError(
                f"coarse basis of shape {coarse.basis.shape} does not fit a matrix of size {n}"
            )
        if coarse.basis.shape[1] != nc:
            raise ValueError(
                f"coarse basis has {coarse.basis.shape[1]} columns but its factor "
                f"has {nc} unknowns"
            )
        zt = coarse.basis.T
    x = np.zeros(n)
    bnorm = math.sqrt(_dot(b, b))
    if not np.isfinite(bnorm):
        raise ValueError(f"right-hand side norm is {bnorm}, not finite")
    if bnorm == 0.0:
        return x, SolverReport(0, 0.0, True)
    d = a.diagonal()
    if np.any(d <= 0):
        raise NotPositiveDefiniteError("diagonal has non-positive entries")
    inv_diag = 1.0 / d

    def precondition(r: np.ndarray) -> np.ndarray:
        z = inv_diag * r
        if coarse is not None:
            z += coarse.basis @ coarse.factor.solve(zt @ r)
        return z

    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = _dot(r, z)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ap = a @ p
        pap = _dot(p, ap)
        if pap <= 0.0:
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if math.sqrt(_dot(r, r)) <= tol * bnorm:
            converged = True
            break
        z = precondition(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    r = b - a @ x
    res = math.sqrt(_dot(r, r)) / bnorm
    return x, SolverReport(iterations, res, converged)
