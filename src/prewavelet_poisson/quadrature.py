"""Triangle quadrature rules and load-vector assembly.

Rules are stored in barycentric coordinates with weights summing to one, so
``integral ~ area * sum(w_q * f(x_q))``.  The default rule (``mid3``) samples
the three edge midpoints and is exact for quadratic integrands; ``gauss7`` is
the classic 7-point degree-5 rule used for error measurement.

``load_vector`` has two paths, chosen by the type of the source alone:

- A :class:`TabulatedFunction` is P1 data, so its Galerkin load is exact
  without quadrature and the rule does not matter.  At the level
  ``m = max(j, grid level)`` the samples (interpolated up to ``j`` by Type-1
  midpoint refinement where the grid is coarser) are nodal values of a P1
  function, and the P1 mass stencil applied with shifted slices gives the
  level-``m`` load exactly.  A level-``k`` hat is a combination of level
  ``k+1`` hats, so the refinement stencil, applied with stride-2 shifted
  slices, restricts that load down to ``j`` exactly and builds no matrix.
- Any other source is sampled by quadrature.  A hat function restricted to
  one triangle of its support equals the barycentric coordinate of the
  supporting vertex, which is why this path needs nothing beyond the rule's
  barycentric point table.  Because the level-``j`` triangulation is a
  uniform grid of congruent cells, every rule point of the lower (or upper)
  triangle sits at the same offset inside its cell.  ``_cell_points``
  yields, per orientation and rule point, the ``2^j x 2^j`` grid of such
  points; the source is sampled once on each, the samples are weighted into
  one grid of contributions per triangle vertex, and each grid is added into
  the node array with one shifted slice.  The error norms of :mod:`solver`
  sweep the same grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature rule on a triangle, in barycentric form.

    points has shape (Q, 3) with rows summing to 1; weights has shape (Q,)
    and sums to 1.
    """

    name: str
    points: tuple[tuple[float, float, float], ...]
    weights: tuple[float, ...]

    def point_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


MID3 = TriangleRule(
    name="mid3",
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


def _cell_points(j: int, rule: TriangleRule):
    """The points of ``rule`` in every cell of level ``j``, as coordinate grids.

    Yields one ``(offsets, points)`` pair per triangle orientation of
    :data:`mesh._CELL_OFFSETS`: its ``(3, 2)`` vertex offsets and a generator
    over the rule points, in rule order, of the two ``(2^j, 2^j)`` arrays
    ``x[cy, cx] = (cx + px) 2^-j`` and ``y[cy, cx] = (cy + py) 2^-j``, with
    ``(px, py)`` the point's offset inside the cell.
    """
    m = 2**j
    h = 1.0 / m
    cells = np.arange(m, dtype=float)
    for offsets in mesh._CELL_OFFSETS:
        yield offsets, (
            np.meshgrid((cells + px) * h, (cells + py) * h)
            for px, py in rule.point_array() @ offsets
        )


def _refine_nodal(v: np.ndarray) -> np.ndarray:
    """Nodal values of a P1 function on the next finer Type-1 grid.

    Each new node is the midpoint of a horizontal, vertical or
    ``(+1, +1)``-diagonal edge and takes half of each endpoint (halved
    before adding, so finite samples stay finite).
    """
    n = v.shape[0] - 1
    half = 0.5 * v
    fine = np.empty((2 * n + 1, 2 * n + 1))
    fine[::2, ::2] = v
    np.add(half[:, :-1], half[:, 1:], out=fine[::2, 1::2])
    np.add(half[:-1, :], half[1:, :], out=fine[1::2, ::2])
    np.add(half[:-1, :-1], half[1:, 1:], out=fine[1::2, 1::2])
    return fine


def _mass_load(j: int, tab: TabulatedFunction) -> np.ndarray:
    """Exact level-``j`` load of a tabulated source.

    At level ``m = max(j, tab.level)`` the source is P1 on the level-``m``
    triangulation: a coarser grid is refined up to ``j`` first.  Its level-``m``
    load is the mass matrix applied to its level-``m`` nodal values:
    ``1/(12 4^m)`` times 6 on the vertex and 1 on each of its six edge
    neighbours ``(+-1, 0)``, ``(0, +-1)`` and ``+-(1, 1)``.  Samples are scaled
    before they are summed, and the neighbours are added in opposite pairs, so
    a constant source gives exactly ``4^-m``.  Then each step from ``m`` down
    to ``j`` restricts the load with one stride-2 slice of its zero-bordered
    node array per :data:`mesh._REFINE_STENCIL` entry, building no matrix.
    Added from zero in that order, the sums are the refinement matrix's bits.
    """
    v = tab.values
    for _ in range(tab.level, j):
        v = _refine_nodal(v)
    m = max(j, tab.level)
    n = v.shape[0]
    w = v * (1.0 / (12 * 4**m))

    def shifted(dx: int, dy: int) -> np.ndarray:
        return w[1 + dy : n - 1 + dy, 1 + dx : n - 1 + dx]

    out = shifted(1, 0) + shifted(-1, 0)
    pair = shifted(0, 1) + shifted(0, -1)
    out += pair
    out += np.add(shifted(1, 1), shifted(-1, -1), out=pair)
    out += np.multiply(v[1:-1, 1:-1], 0.5 / 4**m, out=pair)  # 6 / 12 on the vertex
    for _ in range(j, m):
        nodes = np.pad(out, 1)
        side = nodes.shape[0] - 1
        out = np.zeros((side // 2 - 1, side // 2 - 1))
        for di, dk, c in mesh._REFINE_STENCIL:
            out += c * nodes[2 + dk : side - 1 + dk : 2, 2 + di : side - 1 + di : 2]
    return out.ravel()


def load_vector(j: int, g, rule: TriangleRule = MID3) -> np.ndarray:
    """Assemble the level-``j`` load vector of inner products with the hats.

    Entry ``m`` is, exactly or by quadrature, the integral of ``g`` times the
    hat function of the interior vertex with ordinal ``m``; the interior of
    the ``(2^j + 1)^2`` node array, row-major, is the result.  For ``g == 1`` every entry is
    ``4^-j`` (the volume of a hat).

    If ``g`` is a :class:`TabulatedFunction`, the load is exact on any grid
    and ``rule`` is not used: the P1 mass matrix at the finer of the two
    levels, restricted down to ``j``.  So the level-``j`` load is the
    restriction of the level ``j+1`` load, as the ladder needs.

    Otherwise it is quadrature: the six support triangles each contribute
    ``area * sum_q w_q g(x_q) lambda(x_q)`` with ``lambda`` the barycentric
    coordinate of the vertex.  The sum runs over cells rather than
    triangles.  For each triangle orientation of :data:`mesh._CELL_OFFSETS`
    and each rule point, ``g`` is called once with two ``(2^j, 2^j)`` arrays
    holding that point in every cell, ``x[cy, cx] = (cx + px) 2^-j`` and
    ``y[cy, cx] = (cy + py) 2^-j``; it may return an array of that shape or
    anything that broadcasts to it, such as a scalar.  The weighted samples
    form one contribution grid per triangle vertex, which lands on the node
    array shifted by that vertex's offset.
    """
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    if isinstance(g, TabulatedFunction):
        return _mass_load(j, g)
    m = 2**j
    pts = rule.point_array()  # (Q, 3)
    # weight of point q's sample in the contribution to triangle vertex v
    coef = (0.5 / 4**j) * rule.weight_array()[:, None] * pts  # (Q, 3)
    full = np.zeros((m + 1, m + 1))
    for offsets, points in _cell_points(j, rule):
        vals = np.empty((len(pts), m, m))
        for q, (x, y) in enumerate(points):
            vals[q] = _evaluate(g, x, y)
        contrib = np.tensordot(coef, vals, axes=(0, 0))  # (3, m, m)
        for (ox, oy), grid in zip(offsets, contrib):
            full[oy : oy + m, ox : ox + m] += grid
    return full[1:-1, 1:-1].ravel()


class TabulatedFunction:
    """A piecewise-linear source given by its nodal samples on a dyadic grid.

    values[iy, ix] holds the sample at (ix/2^m, iy/2^m) for a square array
    of side 2^m + 1 (boundary samples included), all of them finite; the
    source is their P1 interpolant on the Type-1 triangulation of that grid,
    and :func:`load_vector` loads it exactly.  The samples are copied once;
    ``values`` is that copy, read-only.
    """

    def __init__(self, values) -> None:
        values = np.array(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"values must be a square 2-d array, got {values.shape}")
        side = values.shape[0] - 1
        if side < 1 or side & (side - 1):
            raise ValueError(f"grid side must be a power of two, got {side} cells")
        bad = int(np.sum(~np.isfinite(values)))
        if bad:
            raise ValueError(f"values must be finite; {bad} samples are not")
        self.level = side.bit_length() - 1
        values.setflags(write=False)
        self.values = values
