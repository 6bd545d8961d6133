"""Per-triangle reference computations shared by the tests.

Everything here starts from ``mesh.triangle_vertex_array(j)``: integer
vertices in grid units, scaled by ``Fraction(1, 2**j)`` so that coordinates,
areas and barycentric gradients are exact rationals.  The interior vertex
``(i, k)`` has the row-major ordinal ``(k - 1)(2^j - 1) + (i - 1)``, and its
hat function has the closed form of :func:`hat`, which ``test_mesh`` pins
against the barycentric evaluator.  :func:`p1` evaluates the P1 source a
``TabulatedFunction`` stands for.  :func:`clear_caches` resets the
package's per-level caches, for tests that swap a module function.
:func:`stencil_matrix` and :func:`export_solution_csv` are the earlier
COO-built stencil matrix and the earlier row-by-row CSV writer, references
for the CSR build and the batched writer.
"""

import csv
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from prewavelet_poisson import assembly, linalg, mesh, prewavelet, quadrature, solver


def ordinal(j, i, k):
    """Row-major ordinal of the interior vertex ``(i, k)``; arrays work too."""
    return (k - 1) * (2**j - 1) + (i - 1)


def vertex(j, m):
    """The interior vertex ``(i, k)`` with row-major ordinal ``m``."""
    k, i = divmod(m, 2**j - 1)
    return i + 1, k + 1


@lru_cache(maxsize=None)
def triangles(j):
    """``(verts, coords, area)`` per level-``j`` triangle, in array order.

    ``verts`` are the integer ``(i, k)`` pairs, ``coords`` their exact
    coordinates and ``area`` the exact signed area (positive when the
    vertices run counterclockwise).
    """
    h = Fraction(1, 2**j)
    out = []
    for tri in mesh.triangle_vertex_array(j).tolist():
        verts = tuple(map(tuple, tri))
        coords = tuple((h * i, h * k) for i, k in verts)
        (x0, y0), (x1, y1), (x2, y2) = coords
        out.append((verts, coords, ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2))
    return tuple(out)


def interior(j, verts):
    """``(position, ordinal)`` of each interior vertex among ``verts``."""
    n = 2**j - 1
    return [(a, ordinal(j, i, k)) for a, (i, k) in enumerate(verts) if 1 <= i <= n and 1 <= k <= n]


def hat(j, i, k, x, y):
    """Hat of vertex ``(i, k)`` at level ``j``: ``max(0, 1 - max(|s|, |t|, |s - t|))``
    with ``s = 2^j x - i`` and ``t = 2^j y - k``.  Accepts scalars or arrays."""
    s = np.asarray(x, dtype=float) * 2**j - i
    t = np.asarray(y, dtype=float) * 2**j - k
    return np.maximum(0.0, 1.0 - np.maximum(np.maximum(np.abs(s), np.abs(t)), np.abs(s - t)))


def p1(tab, x, y):
    """The piecewise-linear interpolant of ``tab.values`` at ``(x, y)``.

    Points are clipped to the unit square.  All four corners of the point's
    cell are gathered, then the lower (``fx >= fy``) or the upper triangle's
    interpolant is taken.  Accepts scalars or arrays.
    """
    m = 2**tab.level
    s = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) * m
    t = np.clip(np.asarray(y, dtype=float), 0.0, 1.0) * m
    cx = np.minimum(np.floor(s).astype(int), m - 1)
    cy = np.minimum(np.floor(t).astype(int), m - 1)
    fx = s - cx
    fy = t - cy
    v = tab.values
    v00 = v[cy, cx]
    v10 = v[cy, cx + 1]
    v01 = v[cy + 1, cx]
    v11 = v[cy + 1, cx + 1]
    lower = v00 * (1.0 - fx) + v10 * (fx - fy) + v11 * fy
    upper = v00 * (1.0 - fy) + v01 * (fy - fx) + v11 * fx
    return np.where(fx >= fy, lower, upper)


def barycentric(coords, x, y):
    """The three barycentric coordinates of ``(x, y)`` in a triangle."""
    (x0, y0), (x1, y1), (x2, y2) = np.asarray(coords, dtype=float)
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    l1 = ((x - x0) * (y2 - y0) - (x2 - x0) * (y - y0)) / det
    l2 = ((x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)) / det
    return 1.0 - l1 - l2, l1, l2


def integrate(coords, area, f, rule):
    """Quadrature of ``f`` over one triangle with ``rule``."""
    pts = rule.point_array() @ np.asarray(coords, dtype=float)
    vals = quadrature._evaluate(f, pts[:, 0], pts[:, 1])
    return float(area) * float(rule.weight_array() @ vals)


def grad_lambda(coords, area):
    """Exact barycentric gradients: ``grad l_a = perp(c - b) / (2A)``."""
    out = []
    for a in range(3):
        (bx, by), (cx, cy) = coords[(a + 1) % 3], coords[(a + 2) % 3]
        out.append(((by - cy) / (2 * area), (cx - bx) / (2 * area)))
    return out


def h1_gram(jr, j):
    """Exact H1 products of the level-``jr`` hats (rows) with the level-``j``
    hats (columns), ``jr <= j``, summed over the level-``j`` triangles.

    A level-``jr`` hat is affine on each of them, with gradient
    ``sum_v u_v grad l_v`` from its values ``u_v`` at the vertices; at
    ``jr == j`` those values are 0 and 1 and this is the stiffness matrix.
    """
    n_rows = mesh.n_interior(jr)
    out = [[Fraction(0)] * mesh.n_interior(j) for _ in range(n_rows)]
    for verts, coords, area in triangles(j):
        grads = grad_lambda(coords, area)
        cols = interior(j, verts)
        for row in range(n_rows):
            i, k = vertex(jr, row)
            vals = [Fraction(hat(jr, i, k, x, y)) for x, y in coords]
            if not any(vals):
                continue
            gx = sum(v * g[0] for v, g in zip(vals, grads))
            gy = sum(v * g[1] for v, g in zip(vals, grads))
            for b, col in cols:
                out[row][col] += area * (gx * grads[b][0] + gy * grads[b][1])
    return np.array([[float(v) for v in row] for row in out])


def clear_caches():
    """Empty every ``lru_cache`` of the package's modules."""
    for module in (assembly, linalg, mesh, prewavelet, quadrature, solver):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()


def jacobi(a):
    """The Jacobi preconditioner of ``a`` for ``linalg.cg_solve``:
    ``r -> r / diag(a)``."""
    d = a.diagonal()
    return lambda r: r / d


def stencil_matrix(j_row, j_col, stencil):
    """``assembly._stencil_matrix`` built through COO: one stencil row per
    level ``j_row`` interior vertex, columns on level ``j_col``, entries
    outside the column interior dropped."""
    n_r = 2**j_row - 1
    n_c = 2**j_col - 1
    mult = 2 ** (j_col - j_row)
    m = np.arange(n_r * n_r)
    kc = m // n_r + 1
    ic = m % n_r + 1
    rows, cols, vals = [], [], []
    for (di, dk), v in stencil.items():
        fi = mult * ic + di
        fk = mult * kc + dk
        keep = (fi >= 1) & (fi <= n_c) & (fk >= 1) & (fk <= n_c)
        rows.append(m[keep])
        cols.append((fk[keep] - 1) * n_c + (fi[keep] - 1))
        vals.append(np.full(int(keep.sum()), v))
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_r * n_r, n_c * n_c),
    ).tocsr()
    mat.sort_indices()
    return mat


def export_solution_csv(f, j, coeffs):
    """``solver.export_solution_csv`` as one ``csv.writer`` row per vertex:
    ``level,i,k,x,y,value`` with ``repr`` coordinates and values."""
    n = 2**j - 1
    writer = csv.writer(f)
    writer.writerow(["level", "i", "k", "x", "y", "value"])
    for m in range(n * n):
        k, i = divmod(m, n)
        i += 1
        k += 1
        writer.writerow([j, i, k, repr(i / 2**j), repr(k / 2**j), repr(float(coeffs[m]))])
