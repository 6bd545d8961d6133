"""Dyadic grids and Type-1 triangulations of the unit square.

Level ``j`` splits ``[0,1]^2`` into ``2^j x 2^j`` congruent square cells and
cuts each cell along its lower-left to upper-right diagonal::

        (cx, cy+1) ___ (cx+1, cy+1)
                  |  /|
                  | / |     upper triangle above the diagonal,
                  |/__|     lower triangle below it
        (cx, cy)       (cx+1, cy)

This yields ``2 * 4^j`` triangles.  Interior vertices sit at
``(i/2^j, k/2^j)`` with ``1 <= i, k <= 2^j - 1``; the nodal hat function of
each interior vertex is supported on the six triangles surrounding it.

Vertices are stored as integer multiples of ``2^-j`` (grid units), so every
coordinate and every triangle area below is exact.  Load vectors and error
norms sweep the cells, one triangle orientation of :data:`_CELL_OFFSETS` at
a time; the per-triangle objects and arrays here serve as references.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np


def n_interior(j: int) -> int:
    """Number of interior vertices ``(2^j - 1)^2`` at level ``j``."""
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    return (2**j - 1) ** 2


@dataclass(frozen=True)
class GridIndex:
    """An interior vertex ``(i/2^j, k/2^j)`` of the level-``j`` grid."""

    level: int
    i: int
    k: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        n = 2**self.level - 1
        if not (1 <= self.i <= n and 1 <= self.k <= n):
            raise ValueError(
                f"interior index out of range at level {self.level}: "
                f"({self.i}, {self.k}) not in 1..{n}"
            )

    @property
    def x(self) -> float:
        return self.i / 2**self.level

    @property
    def y(self) -> float:
        return self.k / 2**self.level


def linear_index(g: GridIndex) -> int:
    """Row-major ordinal of an interior vertex: k sweeps rows, i columns.

    The first interior vertex (i=1, k=1) maps to 0.
    """
    n = 2**g.level - 1
    return (g.k - 1) * n + (g.i - 1)


def inverse_index(j: int, m: int) -> GridIndex:
    """Interior vertex with row-major ordinal ``m`` at level ``j``."""
    n = 2**j - 1
    if not (0 <= m < n * n):
        raise ValueError(f"ordinal out of range at level {j}: {m} not in 0..{n * n - 1}")
    k, i = divmod(m, n)
    return GridIndex(j, i + 1, k + 1)


@dataclass(frozen=True)
class Triangle:
    """One triangle of the level-``j`` triangulation.

    ``verts`` holds three (ix, iy) pairs in grid units (multiples of
    ``2^-level``).  ``lower`` is True for the triangle below the cell
    diagonal.  Vertex order is fixed: lower triangles are
    ((cx,cy), (cx+1,cy), (cx+1,cy+1)), upper triangles are
    ((cx,cy), (cx+1,cy+1), (cx,cy+1)), both counterclockwise.
    """

    level: int
    verts: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    lower: bool

    @property
    def coords(self) -> tuple[tuple[float, float], ...]:
        """Vertex coordinates in the unit square."""
        h = 1.0 / 2**self.level
        return tuple((ix * h, iy * h) for ix, iy in self.verts)

    @property
    def area(self) -> float:
        return 0.5 / 4**self.level

    @property
    def area_exact(self) -> Fraction:
        return Fraction(1, 2 * 4**self.level)


def _cell_triangles(j: int, cx: int, cy: int) -> tuple[Triangle, Triangle]:
    lo = Triangle(j, ((cx, cy), (cx + 1, cy), (cx + 1, cy + 1)), lower=True)
    up = Triangle(j, ((cx, cy), (cx + 1, cy + 1), (cx, cy + 1)), lower=False)
    return lo, up


#: Vertex offsets from the lower-left cell corner of the lower and the upper
#: triangle of a cell, in the vertex order of :func:`_cell_triangles`.
_CELL_OFFSETS = np.array(
    [[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]], dtype=np.int64
)


@lru_cache(maxsize=None)
def triangles(j: int) -> tuple[Triangle, ...]:
    """All ``2 * 4^j`` triangles of level ``j``, cells row-major, lower first."""
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    out: list[Triangle] = []
    for cy in range(2**j):
        for cx in range(2**j):
            out.extend(_cell_triangles(j, cx, cy))
    return tuple(out)


def support_triangles(g: GridIndex) -> tuple[Triangle, ...]:
    """The six triangles forming the hexagonal support of the hat at ``g``.

    Of the eight triangles in the four cells around the vertex, the far
    corner triangle of the lower-right cell and of the upper-left cell do
    not touch the vertex and are excluded.
    """
    i, k, j = g.i, g.k, g.level
    ll = _cell_triangles(j, i - 1, k - 1)
    lr = _cell_triangles(j, i, k - 1)
    ul = _cell_triangles(j, i - 1, k)
    ur = _cell_triangles(j, i, k)
    return (ll[0], ll[1], lr[1], ul[0], ur[0], ur[1])


@lru_cache(maxsize=None)
def triangle_vertex_array(j: int) -> np.ndarray:
    """Vertices of ``triangles(j)`` as an int array of shape (T, 3, 2).

    Bulk companion of :func:`triangles`, same triangle order, built from the
    cell indices without creating the :class:`Triangle` objects.  The
    package's own sweeps run over cells (see ``quadrature._cell_points``);
    this array is kept for the tests and the benchmark tracer.
    """
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    cy, cx = np.divmod(np.arange(4**j, dtype=np.int64), 2**j)
    corners = np.stack([cx, cy], axis=-1)  # (C, 2), cells row-major
    arr = (corners[:, None, None, :] + _CELL_OFFSETS).reshape(-1, 3, 2)
    arr.setflags(write=False)
    return arr


def hat_value(g: GridIndex, x, y):
    """Evaluate the nodal hat function of vertex ``g`` at points (x, y).

    On each triangle of its support the hat is the barycentric coordinate
    of the center vertex; globally it is
    ``max(0, 1 - max(|s|, |t|, |s - t|))`` in the scaled local coordinates
    ``s = 2^j x - i``, ``t = 2^j y - k``.  Accepts scalars or arrays.
    """
    s = np.asarray(x, dtype=float) * 2**g.level - g.i
    t = np.asarray(y, dtype=float) * 2**g.level - g.k
    return np.maximum(0.0, 1.0 - np.maximum(np.maximum(np.abs(s), np.abs(t)), np.abs(s - t)))
