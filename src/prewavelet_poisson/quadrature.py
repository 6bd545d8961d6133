"""Triangle quadrature rules and load-vector assembly.

Rules are stored in barycentric coordinates with weights summing to one, so
``integral ~ area * sum(w_q * f(x_q))``.  The default rule (``mid3``) samples
the three edge midpoints and is exact for quadratic integrands; ``gauss7`` is
the classic 7-point degree-5 rule used for error measurement.

A hat function restricted to one triangle of its support equals the
barycentric coordinate of the supporting vertex, which is why load vectors
below need nothing beyond the rule's barycentric point table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh, prewavelet


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature rule on a triangle, in barycentric form.

    points has shape (Q, 3) with rows summing to 1; weights has shape (Q,)
    and sums to 1; degree is the highest polynomial degree integrated
    exactly.
    """

    name: str
    degree: int
    points: tuple[tuple[float, float, float], ...]
    weights: tuple[float, ...]

    def point_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


MID3 = TriangleRule(
    name="mid3",
    degree=2,
    points=((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)),
    weights=(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
)

# Dunavant's degree-5 rule: centroid plus two symmetric orbits.
_A1 = 0.059715871789770
_B1 = 0.470142064105115
_W1 = 0.132394152788506
_A2 = 0.797426985353087
_B2 = 0.101286507323456
_W2 = 0.125939180544827

GAUSS7 = TriangleRule(
    name="gauss7",
    degree=5,
    points=(
        (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        (_A1, _B1, _B1),
        (_B1, _A1, _B1),
        (_B1, _B1, _A1),
        (_A2, _B2, _B2),
        (_B2, _A2, _B2),
        (_B2, _B2, _A2),
    ),
    weights=(0.225, _W1, _W1, _W1, _W2, _W2, _W2),
)

RULES = {MID3.name: MID3, GAUSS7.name: GAUSS7}


def _evaluate(f, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized callable, broadcasting scalar results."""
    vals = np.asarray(f(x, y), dtype=float)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape)
    return vals


def integrate(tri: mesh.Triangle, f, rule: TriangleRule = MID3) -> float:
    """Quadrature approximation of the integral of ``f`` over one triangle."""
    coords = np.asarray(tri.coords)
    pts = rule.point_array() @ coords
    vals = _evaluate(f, pts[:, 0], pts[:, 1])
    return float(tri.area * (rule.weight_array() @ vals))


def load_vector(j: int, g, rule: TriangleRule = MID3) -> np.ndarray:
    """Assemble the level-``j`` load vector of inner products with the hats.

    Entry ``m`` approximates the integral of ``g`` times the hat function of
    the interior vertex with ordinal ``m``: the six support triangles each
    contribute ``area * sum_q w_q g(x_q) lambda(x_q)`` with ``lambda`` the
    barycentric coordinate of the vertex.  ``g`` must accept numpy arrays.

    For ``g == 1`` every entry is ``4^-j`` (the volume of a hat).
    """
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    verts = mesh.triangle_vertex_array(j)  # (T, 3, 2)
    h = 1.0 / 2**j
    pts = rule.point_array()  # (Q, 3)
    wts = rule.weight_array()
    # quadrature points of every triangle: (T, Q, 2)
    xy = np.einsum("qb,tbd->tqd", pts, verts * h)
    vals = _evaluate(g, xy[..., 0], xy[..., 1])  # (T, Q)
    area = 0.5 / 4**j
    # contribution of each triangle to each of its three vertices
    contrib = area * (vals @ (wts[:, None] * pts))  # (T, 3)

    n = 2**j - 1
    ix = verts[..., 0]
    iy = verts[..., 1]
    interior = (ix >= 1) & (ix <= n) & (iy >= 1) & (iy <= n)
    lin = (iy - 1) * n + (ix - 1)
    out = np.zeros(n * n)
    np.add.at(out, lin[interior], contrib[interior])
    return out


def wavelet_load(j: int, fine_load: np.ndarray) -> np.ndarray:
    """Detail load vector: wavelet stencils applied to the fine load.

    ``fine_load`` must be the level ``j+1`` load vector; the result has one
    entry per level-``j`` wavelet, in wavelet-matrix row order.
    """
    fine_load = np.asarray(fine_load, dtype=float)
    expected = mesh.n_interior(j + 1)
    if fine_load.shape != (expected,):
        raise ValueError(
            f"fine load for level {j} details must have length {expected}, "
            f"got shape {fine_load.shape}"
        )
    return prewavelet.wavelet_matrix(j) @ fine_load


class TabulatedFunction:
    """Piecewise-linear interpolant of nodal samples on a dyadic grid.

    values[iy, ix] holds the sample at (ix/2^m, iy/2^m) for a square array
    of side 2^m + 1 (boundary samples included), all of them finite.
    Evaluation interpolates linearly on the Type-1 triangulation of the
    sample grid and accepts scalars or arrays; points are clipped to the
    unit square.
    """

    def __init__(self, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"values must be a square 2-d array, got {values.shape}")
        side = values.shape[0] - 1
        if side < 1 or side & (side - 1):
            raise ValueError(f"grid side must be a power of two, got {side} cells")
        bad = int(np.sum(~np.isfinite(values)))
        if bad:
            raise ValueError(f"values must be finite; {bad} samples are not")
        self.level = side.bit_length() - 1
        self.values = values

    def __call__(self, x, y):
        m = 2**self.level
        s = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) * m
        t = np.clip(np.asarray(y, dtype=float), 0.0, 1.0) * m
        cx = np.minimum(np.floor(s).astype(int), m - 1)
        cy = np.minimum(np.floor(t).astype(int), m - 1)
        fx = s - cx
        fy = t - cy
        v = self.values
        v00 = v[cy, cx]
        v10 = v[cy, cx + 1]
        v01 = v[cy + 1, cx]
        v11 = v[cy + 1, cx + 1]
        lower = v00 * (1.0 - fx) + v10 * (fx - fy) + v11 * fy
        upper = v00 * (1.0 - fy) + v01 * (fy - fx) + v11 * fx
        return np.where(fx >= fy, lower, upper)
