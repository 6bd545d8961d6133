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
``Z`` a 0/1 aggregation of the leading rows and ``E = Z^T A Z`` factored
by ``CholeskyFactor`` and held as its dense inverse: a two-level
preconditioner that removes the smooth, sign-constant error modes Jacobi
leaves behind.  Either way it stops on the unpreconditioned relative
residual.  Both reject a matrix that is not square and symmetric, or has
non-finite entries, with ValueError, so neither hands back the solution of
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
    """Aggregation coarse space for :func:`cg_solve`.

    Row ``r < len(labels)`` of the matrix lies in aggregate ``labels[r]``;
    the rows after those lie in none.  With ``Z`` the 0/1 matrix of that map,
    inverse is the dense ``E^-1`` of ``E = Z^T A Z``, one row and column per
    aggregate.
    """

    labels: np.ndarray
    inverse: np.ndarray


def _galerkin(a: sp.csr_matrix, labels: np.ndarray) -> np.ndarray:
    """Dense ``E = Z^T A Z`` for the aggregates ``labels`` of the leading
    rows of ``a``, gathered from the CSR entries of those rows with one
    ``bincount``, without copying the matrix."""
    m = len(labels)
    nl = int(labels.max()) + 1 if m else 0
    # entries in columns past the labels land in an extra column, nl, dropped below
    col = np.full(a.shape[0], nl)
    col[:m] = labels
    end = a.indptr[m]
    key = np.repeat(labels * (nl + 1), np.diff(a.indptr[: m + 1]))
    key += col[a.indices[:end]]
    e = np.bincount(key, weights=a.data[:end], minlength=nl * (nl + 1))
    return e.reshape(nl, nl + 1)[:, :nl]


def coarse_space(a, labels) -> CoarseSpace:
    """The Galerkin coarse space of ``a`` for aggregates ``labels``.

    labels numbers the aggregates ``0..nl-1`` with every number used, so
    ``E = Z^T A Z`` is SPD when ``a`` is.  ``E`` is factored by
    :class:`CholeskyFactor`, which proves it SPD, and kept as its
    symmetrized dense inverse: ``nl^2`` doubles, where SuperLU's workspace
    for the factor holds several times that.
    """
    labels = np.asarray(labels)
    factor = CholeskyFactor(_galerkin(_as_csr(a), labels))
    # one unit vector at a time: SuperLU's many-right-hand-side solve runs
    # threaded BLAS, about 20x slower on two threads than on one at nl = 208
    inverse = np.array([factor.solve(unit) for unit in np.eye(factor.n)])
    inverse = inverse.reshape(factor.n, factor.n)
    inverse += inverse.T
    inverse *= 0.5
    return CoarseSpace(labels, inverse)


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
    two-level ``D^-1 + Z E^-1 Z^T``, still SPD, whose coarse part costs one
    sum over each aggregate, one product with the dense ``E^-1`` and one
    scatter per iteration; a coarse space whose labels run past the matrix
    or past the size of its inverse raises ValueError.  Iteration stops
    once the unpreconditioned recurrence residual satisfies
    ``||r|| <= tol * ||b||`` or after ``max_iter`` iterations (default
    ``10 n``; below 1 raises ValueError).  A right-hand side whose norm is
    not finite raises ValueError before any iteration; a NaN in it would
    otherwise stall every residual test.  Non-convergence
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
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if coarse is not None:
        labels = coarse.labels
        if labels.ndim != 1 or len(labels) > n:
            raise ValueError(
                f"coarse labels of shape {labels.shape} do not fit a matrix of size {n}"
            )
        nl = len(coarse.inverse)
        if len(labels) and not (0 <= labels.min() and labels.max() < nl):
            raise ValueError(
                f"coarse labels must lie in 0..{nl - 1}, the coarse unknowns, "
                f"got {labels.min()}..{labels.max()}"
            )
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

    def precondition(r: np.ndarray) -> np.ndarray:
        z = inv_diag * r
        if coarse is not None:
            m = len(coarse.labels)
            zc = np.bincount(coarse.labels, weights=r[:m], minlength=len(coarse.inverse))
            z[:m] += (coarse.inverse @ zc)[coarse.labels]
        return z

    r = b.copy()
    z = precondition(r)
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
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    res = float(np.linalg.norm(b - a @ x)) / bnorm
    return x, SolverReport(iterations, res, converged)
