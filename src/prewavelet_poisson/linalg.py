"""Direct and iterative solvers for the symmetric positive definite systems.

Both Galerkin systems solved in this package are SPD: the hat-basis
stiffness matrix (five-point pattern) and the detail Gram matrix (sparse
apart from one globally supported row, which gives it a bandwidth of nearly
its size).  ``CholeskyFactor`` is the one direct path, and the package
factors only detail Grams with it: a sparse symmetric ``P A P^T = L D L^T``
factorization (SuperLU with a minimum-degree ordering of ``A + A^T`` and
diagonal pivots only), whose fill follows the sparsity rather than the
bandwidth, and whose pivots are checked.  ``cg_solve`` is conjugate
gradients from a zero start with the caller's preconditioner, any SPD map
``r -> z``; the solver passes the sine-transform inverse of the stiffness
matrix, which is exact, and solves every stiffness system this way.  It
has one stopping rule: it reports converged only when the true relative
residual of the returned solution meets the tolerance, and it reports
that residual.  Its inner products and norms bypass BLAS.  Both reject a
matrix that is not square and symmetric, or has non-finite entries, with
ValueError, so neither hands back the solution of a system that cannot be
SPD.  ``CholeskyFactor`` checks once per factor; ``cg_solve`` takes only a
``SymmetricMatrix``, which was checked once when it was built, and refuses
any other matrix with TypeError.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
    solution, and converged is exactly ``relative_residual <= tol``.
    """

    iterations: int
    relative_residual: float
    converged: bool


def _check_matrix(a) -> sp.csr_matrix:
    """``a`` as a CSR matrix, once it is known to be square, finite and
    symmetric to ``1e-10`` of its largest entry; ValueError otherwise."""
    a = a.tocsr() if sp.issparse(a) else sp.csr_matrix(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = np.max(np.abs(a.data)) if a.nnz else 0.0
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    skew = a - a.T
    asym = np.max(np.abs(skew.data)) if skew.nnz else 0.0
    if asym > 1e-10 * max(scale, 1.0):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3g})")
    return a


class CholeskyFactor:
    """Reusable sparse symmetric factorization ``P A P^T = L D L^T``.

    SuperLU factors ``A^T``, the CSC matrix on the arrays of the checked
    CSR ``A``, so no copy is made, and solves with ``trans="T"``: that
    solves ``A`` itself, also where ``A`` is symmetric only to the checked
    bound.  It factors in symmetric mode: one fill-reducing
    minimum-degree ordering of ``A + A^T`` applied to rows and columns alike,
    and the diagonal entry always taken as pivot.  ``U`` is then ``D L^T``,
    so ``A`` is positive definite exactly when the row and column orders
    agree and every diagonal entry of ``U`` is positive; anything else
    raises NotPositiveDefiniteError, as does an exactly singular factor.
    Reading the pivots makes SuperLU keep CSC copies of ``L`` and ``U``
    beside its factor.  A matrix that is not square and symmetric, or has
    non-finite entries, raises ValueError first.
    """

    def __init__(self, a) -> None:
        a = _check_matrix(a)
        self.n = a.shape[0]
        try:
            self._lu = spla.splu(
                a.T,  # CSC with the arrays of ``a``: no copy
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NotPositiveDefiniteError(str(exc)) from exc
        if not np.array_equal(self._lu.perm_r, self._lu.perm_c):
            raise NotPositiveDefiniteError("a zero diagonal pivot forced a row interchange")
        pivots = self._lu.U.diagonal()  # SuperLU keeps CSC copies of L and U from here on
        if not np.all(pivots > 0.0):
            worst = float(np.min(pivots))
            raise NotPositiveDefiniteError(f"non-positive pivot {worst:.3g} in L D L^T")

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"right-hand side length {b.shape} does not match size {self.n}")
        return self._lu.solve(b, trans="T")


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """``u . v`` summed by NumPy's own loops: OpenBLAS threads ``ddot`` on
    long vectors, and the first threaded call in a fresh process can stall
    for about a second."""
    return float(np.einsum("i,i->", u, v))


class SymmetricMatrix:
    """A matrix checked once, when built, for repeated :func:`cg_solve`
    calls: ``csr`` is the checked CSR matrix and ``shape`` its shape.  A
    matrix that is not square and symmetric, or has non-finite entries,
    raises ValueError."""

    def __init__(self, a) -> None:
        self.csr = _check_matrix(a)
        self.shape = self.csr.shape


def cg_solve(
    a, b, precondition: Callable[[np.ndarray], np.ndarray], tol: float = 1e-10
) -> tuple[np.ndarray, SolverReport]:
    """Preconditioned conjugate gradients from a zero start.

    ``a`` is a :class:`SymmetricMatrix`, checked when it was built; any
    other matrix raises TypeError.  ``precondition`` maps a residual ``r``
    to ``z = M r`` for an SPD ``M`` approximating the inverse of ``a``; it
    is called once per iteration.  A right-hand side whose norm is not finite raises
    ValueError before any iteration.

    One stopping rule.  CG iterates on its recurrence residual ``r``, which
    keeps falling after the true residual ``b - A x`` has stopped at the
    level rounding allows.  From the first iteration at which
    ``||r|| <= tol ||b||``, it also forms the true residual each iteration
    (without replacing ``r`` by it) and stops as converged once that meets
    ``tol``; otherwise it stops, not converged, at twice the iteration at
    which ``r`` first met ``tol``.  It also stops, not converged, after
    ``10 n`` iterations, when ``p^T A p`` is not positive, or when ``r^T z``
    is below the smallest normal float: no step can be taken, or none
    computed to working precision (the recurrence then only grows rounding
    noise, until the cap).  The report carries the true relative residual
    of the returned ``x``, and ``report.converged ==
    (report.relative_residual <= tol)`` always holds; the partial iterate
    is returned either way.  Inner products and norms go through
    :func:`_dot`, not BLAS.
    """
    if not isinstance(a, SymmetricMatrix):
        raise TypeError(f"cg_solve takes a SymmetricMatrix, got {type(a).__name__}")
    a = a.csr
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side length {b.shape} does not match matrix of size {n}")
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    x = np.zeros(n)
    bnorm = math.sqrt(_dot(b, b))
    if not np.isfinite(bnorm):
        raise ValueError(f"right-hand side norm is {bnorm}, not finite")
    if bnorm == 0.0:
        return x, SolverReport(0, 0.0, True)

    def true_residual() -> float:
        res = b - a @ x
        return math.sqrt(_dot(res, res)) / bnorm

    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = _dot(r, z)
    stop = 10 * n
    confirming = False  # whether r has met tol, so each x is checked
    tiny = np.finfo(float).tiny  # below it r^T z is subnormal, or zero
    iterations = 0
    while iterations < stop and rz >= tiny:
        ap = a @ p
        pap = _dot(p, ap)
        if pap <= 0.0:
            break
        alpha = rz / pap
        x += alpha * p
        ap *= alpha
        r -= ap
        iterations += 1
        if not confirming and math.sqrt(_dot(r, r)) <= tol * bnorm:
            confirming = True
            stop = min(stop, 2 * iterations)
        if confirming:
            rel = true_residual()
            if rel <= tol:
                break
        z = precondition(r)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    if not confirming:
        rel = true_residual()
    return x, SolverReport(iterations, rel, rel <= tol)
