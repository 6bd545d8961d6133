"""Poisson solves in the hat basis and the multiresolution ladder.

``multilevel_from_load`` is the one solve path: a coarse solve plus one
detail solve per level.  With loads restricted downward from the finest
level (the coarse load is exactly the refinement matrix applied to the fine
load), the prolonged ladder coefficients reproduce the direct fine-level
solution to solver precision, which is the central equivalence this package
exists to demonstrate.  ``fem_solve``, the single-level Galerkin solve, is
the ladder with no detail levels (``base_level == top_level``).  Every
stiffness system, the coarse solve of either ladder included, has one
solve path: the stiffness matrix is the five-point matrix on a uniform
grid, which the sine transform diagonalises, so CG preconditioned with its
exact inverse (:func:`_poisson_inverse`) solves it in one iteration, and
CG still decides convergence on the true residual.  No stiffness matrix is
factored.  The ladders differ only in how they find each detail.  The
direct ladder is the paper's method in the prewavelet basis: it factors
each detail Gram once per level and caches the factors, not the Grams.
The CG ladder forms no detail Gram and no factor: each rung keeps the
level-``j`` solution ``u_j`` and finds the same ``W_j`` component in nodal
coordinates, as the correction ``w`` to ``R_j^T u_j`` that solves the
level ``j + 1`` stiffness system.  A non-finite load is
rejected before any solve.  Error norms are measured with the degree-5 rule
whatever the assembly rule, on the same cell grid as the load vector: the nodal values
at each triangle vertex are shifted slices of one zero-bordered node
array, and the discrete gradient comes from the barycentric gradients of
the two reference triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp

from . import assembly, linalg, mesh, prewavelet, quadrature


@lru_cache(maxsize=None)
def _gram_factor(j: int) -> linalg.CholeskyFactor:
    """The factor of the level-``j`` detail Gram, for the direct ladder."""
    return linalg.CholeskyFactor(prewavelet.wavelet_gram(j))


@lru_cache(maxsize=None)
def _stiffness(j: int) -> linalg.SymmetricMatrix:
    """The level-``j`` stiffness matrix, checked once for every CG solve."""
    return linalg.SymmetricMatrix(assembly.stiffness_matrix(j))


@lru_cache(maxsize=None)
def _prolongation(j: int) -> sp.csc_matrix:
    """``refinement_matrix(j).T``, the CSC view on the refinement matrix's
    arrays: level-``j`` nodal coefficients to level ``j + 1``."""
    return assembly.refinement_matrix(j).T


def _poisson_inverse(j: int, r: np.ndarray) -> np.ndarray:
    """``A_j^-1 r`` for the level-``j`` stiffness matrix ``A_j``.

    ``A_j = T (x) I + I (x) T`` with ``T = tridiag(-1, 2, -1)`` of order
    ``m = 2^j - 1``, so the sine transform diagonalises it (Buzbee, Golub &
    Nielson, SIAM J. Numer. Anal. 7, 1970): with ``S_pk = sin(p k pi /
    (m + 1))``, symmetric and ``S S = (m + 1) / 2 I``, transform ``S r S``,
    divide by the eigenvalues ``d_p + d_q`` with ``d_p = 4 sin^2(p pi /
    2^(j+1))`` (this form avoids the cancellation of ``2 - 2 cos``) and
    transform back.  Each sweep gives ``-y^T S``, the sine sums of the rows
    of ``y`` read off the imaginary part of a real FFT of length
    ``2 (m + 1)``; two sweeps give ``S y S``.  The FFT is NumPy's, which
    costs no import: ``scipy.fft`` loads ``scipy.special`` with it.  As a CG
    preconditioner it is exact, so a solve takes one iteration.
    """
    m = 2**j - 1
    d = 4.0 * np.sin(np.arange(1, m + 1) * (np.pi / 2 ** (j + 1))) ** 2
    rows = np.zeros((m, m + 1))  # a leading zero, then the m values of a row

    def sweep(y: np.ndarray) -> np.ndarray:
        rows[:, 1:] = y.T
        return np.fft.rfft(rows, n=2 * (m + 1)).imag[:, 1 : m + 1]

    y = sweep(sweep(r.reshape(m, m)))
    y /= (d[:, None] + d) * ((m + 1) / 2) ** 2
    return sweep(sweep(y)).ravel()


def _solve(j: int, rhs: np.ndarray, tol: float) -> np.ndarray:
    """Solve ``stiffness_matrix(j) x = rhs`` by CG preconditioned with
    :func:`_poisson_inverse`; RuntimeError unless the true relative
    residual meets ``tol``."""
    x, report = linalg.cg_solve(_stiffness(j), rhs, partial(_poisson_inverse, j), tol)
    if not report.converged:
        raise RuntimeError(
            f"cg did not reach tol {tol:.3g}: relative residual "
            f"{report.relative_residual:.3g} after {report.iterations} iterations"
        )
    return x


def fem_solve(j: int, g, solver: str = "direct", tol: float = 1e-10) -> np.ndarray:
    """Galerkin coefficients of the level-``j`` approximation to -lap(u) = g.

    Returns the nodal values at the interior vertices (the hat basis is
    nodal).  Either ``solver`` solves by conjugate gradients preconditioned
    with the exact sine-transform inverse of the stiffness matrix, which
    factors nothing, and raises RuntimeError unless the true relative
    residual meets ``tol``.  This is the ladder with no detail levels,
    loaded with the ``mid3`` rule: ``multilevel_solve(j, g, rule,
    base_level=j)`` takes another rule.
    """
    return multilevel_solve(j, g, base_level=j, solver=solver, tol=tol).coarse


@dataclass(frozen=True)
class MultilevelSolution:
    """Coarse coefficients plus one detail vector per refinement step.

    ``details[j - base_level]`` is the nodal ``W_j`` component of the
    level ``j + 1`` solution, ``u_{j+1} - R_j^T u_j`` with ``R_j =
    refinement_matrix(j)``, of length ``n_interior(j + 1)``: on the direct
    ladder ``wavelet_matrix(j).T`` times the prewavelet coefficients, on
    the CG ladder the correction CG found.
    """

    base_level: int
    coarse: np.ndarray
    details: tuple[np.ndarray, ...]

    @property
    def top_level(self) -> int:
        return self.base_level + len(self.details)

    def prolong(self, level: int | None = None) -> np.ndarray:
        """Nodal coefficients of the accumulated solution at ``level``.

        Defaults to the top level.  Truncating at a lower level uses only
        the detail vectors below it, leaving them untouched.
        """
        if level is None:
            level = self.top_level
        if not (self.base_level <= level <= self.top_level):
            raise ValueError(
                f"level must lie in {self.base_level}..{self.top_level}, got {level}"
            )
        c = self.coarse
        for j in range(self.base_level, level):
            c = _prolongation(j) @ c + self.details[j - self.base_level]
        return c


def multilevel_from_load(
    top_level: int,
    fine_load: np.ndarray,
    base_level: int = 1,
    solver: str = "direct",
    tol: float = 1e-10,
) -> MultilevelSolution:
    """Multiresolution ladder driven by a given finest-level load vector.

    Coarser loads are restrictions of ``fine_load`` through the refinement
    matrices, so the ladder is exactly consistent: prolonging the result
    reproduces the direct solve against ``fine_load`` to solver precision,
    and truncating a deeper ladder reproduces a shallower one exactly.  A
    load with NaN or infinite entries raises ValueError.  Each detail is
    the nodal ``W_j`` component of :class:`MultilevelSolution`: on the
    direct ladder from the factored detail Gram, on the CG ladder from the
    correction ``w`` with ``A_{j+1} (R_j^T u_j + w) = f_{j+1}`` to ``tol``.
    Either ladder solves its coarse system to ``tol`` by :func:`_solve`.
    """
    if solver not in ("direct", "cg"):
        raise ValueError(f"solver must be 'direct' or 'cg', got {solver!r}")
    if not (1 <= base_level <= top_level):
        raise ValueError(f"need 1 <= base level <= top level, got {base_level}..{top_level}")
    fine_load = np.asarray(fine_load, dtype=float)
    expected = mesh.n_interior(top_level)
    if fine_load.shape != (expected,):
        raise ValueError(
            f"load for level {top_level} must have length {expected}, got {fine_load.shape}"
        )
    bad = expected - int(np.count_nonzero(np.isfinite(fine_load)))
    if bad:
        raise ValueError(f"load for level {top_level} has {bad} non-finite entries")
    loads = {top_level: fine_load}
    for j in range(top_level - 1, base_level - 1, -1):
        loads[j] = assembly.refinement_matrix(j) @ loads[j + 1]
    coarse = _solve(base_level, loads[base_level], tol)
    details = []
    u = coarse
    for j in range(base_level, top_level):
        if solver == "direct":
            q = prewavelet.wavelet_matrix(j)
            w = q.T @ _gram_factor(j).solve(q @ loads[j + 1])
        else:
            pu = _prolongation(j) @ u
            w = _solve(j + 1, loads[j + 1] - _stiffness(j + 1).csr @ pu, tol)
            u = pu + w
        details.append(w)
    return MultilevelSolution(base_level, coarse, tuple(details))


def multilevel_solve(
    top_level: int,
    g,
    rule: quadrature.TriangleRule = quadrature.MID3,
    base_level: int = 1,
    solver: str = "direct",
    tol: float = 1e-10,
) -> MultilevelSolution:
    """Coarse solve plus detail corrections up to ``top_level`` for source g.

    The load vector is assembled once at the top level and restricted
    downward, sharing quadrature with the direct fine-level solve so the
    two agree to solver precision.
    """
    return multilevel_from_load(
        top_level, quadrature.load_vector(top_level, g, rule), base_level, solver, tol
    )


def verify_identity(j: int) -> float:
    """Max-abs residual of the two-level decomposition identity.

    Checks, densely, that restriction through the coarse solve plus
    restriction through the detail solve reassemble the inverse of the fine
    stiffness matrix:  P' Dc^-1 P + Q' E^-1 Q = Df^-1 with P, Q the
    refinement and wavelet matrices.  Dense inversions: keep j <= 4.
    """
    if not (1 <= j <= 4):
        raise ValueError(f"dense identity check supports levels 1..4, got {j}")
    p = assembly.refinement_matrix(j).toarray()
    q = prewavelet.wavelet_matrix(j).toarray()
    dc = assembly.stiffness_matrix(j).toarray()
    e = prewavelet.wavelet_gram(j).toarray()
    df = assembly.stiffness_matrix(j + 1).toarray()
    lhs = p.T @ np.linalg.solve(dc, p) + q.T @ np.linalg.solve(e, q)
    return float(np.max(np.abs(lhs - np.linalg.inv(df))))


def _cell_vertices(j: int, coeffs: np.ndarray, rule: quadrature.TriangleRule):
    """Per orientation of :func:`quadrature._cell_points`: its vertex offsets,
    the nodal values at its three vertices in every cell (three
    ``(2^j, 2^j)`` slices of the zero-bordered node array) and its points."""
    m = 2**j
    nodes = np.zeros((m + 1, m + 1))
    nodes[1:-1, 1:-1] = np.asarray(coeffs, dtype=float).reshape(m - 1, m - 1)
    for offsets, points in quadrature._cell_points(j, rule):
        yield offsets, [nodes[oy : oy + m, ox : ox + m] for ox, oy in offsets], points


def h1_error(j: int, coeffs: np.ndarray, du_dx, du_dy) -> float:
    """H1 seminorm distance between exact gradients and the nodal solution.

    The discrete gradient is constant per triangle; the exact gradient is
    sampled with the degree-5 rule.
    """
    rule = quadrature.GAUSS7
    total = 0.0
    for offsets, vertex, points in _cell_vertices(j, coeffs, rule):
        # barycentric gradients of the orientation's triangle, rows d/dx, d/dy
        grad = np.linalg.inv(np.column_stack([np.ones(3), offsets]))[1:] * 2**j
        uhx, uhy = (sum(c * v for c, v in zip(row, vertex)) for row in grad)
        for (x, y), w in zip(points, rule.weights):
            ex = quadrature._evaluate(du_dx, x, y) - uhx
            ey = quadrature._evaluate(du_dy, x, y) - uhy
            total += w * np.sum(ex * ex + ey * ey)
    return float(np.sqrt(0.5 / 4**j * total))


def l2_error(j: int, coeffs: np.ndarray, u) -> float:
    """L2 distance between an exact solution and the nodal solution, with
    the degree-5 rule."""
    rule = quadrature.GAUSS7
    total = 0.0
    for _, vertex, points in _cell_vertices(j, coeffs, rule):
        for (x, y), bary, w in zip(points, rule.points, rule.weights):
            err = quadrature._evaluate(u, x, y) - sum(b * v for b, v in zip(bary, vertex))
            total += w * np.sum(err * err)
    return float(np.sqrt(0.5 / 4**j * total))


def export_solution_csv(f, j: int, coeffs: np.ndarray) -> None:
    """Write nodal coefficients to the text stream ``f`` as CSV.

    One row ``level,i,k,x,y,value`` per interior vertex.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = 2**j - 1
    if coeffs.shape != (n * n,):
        raise ValueError(f"expected {n * n} values for level {j}, got shape {coeffs.shape}")
    # the bytes of csv.writer's default dialect, written in one call
    axis = [(i, repr(i / 2**j)) for i in range(1, n + 1)]
    vertices = ((i, x, k, y) for k, y in axis for i, x in axis)  # row-major
    f.write("level,i,k,x,y,value\r\n")
    f.writelines(
        f"{j},{i},{k},{x},{y},{v}\r\n"
        for (i, x, k, y), v in zip(vertices, map(repr, coeffs.tolist()))
    )
