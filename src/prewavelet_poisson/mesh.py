"""Dyadic grids and Type-1 triangulations of the unit square.

Level ``j`` splits ``[0,1]^2`` into ``2^j x 2^j`` congruent square cells and
cuts each cell along its lower-left to upper-right diagonal::

        (cx, cy+1) ___ (cx+1, cy+1)
                  |  /|
                  | / |     upper triangle above the diagonal,
                  |/__|     lower triangle below it
        (cx, cy)       (cx+1, cy)

This yields ``2 * 4^j`` triangles.  The unknowns sit on the interior
vertices ``(i/2^j, k/2^j)`` with ``1 <= i, k <= 2^j - 1``, numbered row by
row: vertex ``(i, k)`` has :func:`ordinal` ``(k - 1)(2^j - 1) + (i - 1)``.
The hat function of an interior vertex is supported on the six triangles
around it.

This module holds the level-``j`` grid contract for the whole package:
:func:`n_interior` is the one level check, :func:`nodal` the one check that
a vector holds a level's interior values, and :func:`ordinal` the one
vertex numbering.

The mesh is held as index arithmetic on this grid, never as objects.  Load
vectors and error norms sweep the cells, one triangle orientation of
:data:`_CELL_OFFSETS` at a time; :func:`triangle_vertex_array` lists every
triangle's vertices in grid units (integer multiples of ``2^-j``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def n_interior(j: int) -> int:
    """Number of interior vertices ``(2^j - 1)^2`` at level ``j``; ValueError
    below level 1."""
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    return (2**j - 1) ** 2


def nodal(j: int, values) -> np.ndarray:
    """``values`` as a float vector of the level-``j`` interior values, in
    :func:`ordinal` order; ValueError for a level below 1 or another shape."""
    n = n_interior(j)
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"expected {n} interior values for level {j}, got shape {values.shape}")
    return values


def ordinal(j: int, i, k):
    """Row-major ordinal ``(k - 1)(2^j - 1) + (i - 1)`` of the level-``j``
    vertex ``(i, k)``; ``i`` and ``k`` may be broadcasting arrays."""
    return (k - 1) * (2**j - 1) + (i - 1)


#: Vertex offsets from the lower-left cell corner of the lower and the upper
#: triangle of a cell.  Lower is ((cx,cy), (cx+1,cy), (cx+1,cy+1)), upper is
#: ((cx,cy), (cx+1,cy+1), (cx,cy+1)), both counterclockwise.
_CELL_OFFSETS = np.array(
    [[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]], dtype=np.int64
)

#: A level-``j`` hat as level ``j + 1`` hats: ``(di, dk, weight)`` offsets from
#: the fine image ``(2i, 2k)`` of its vertex, which are the vertex and its six
#: edge neighbours, in the column order of a row of ``assembly.refinement_matrix``.
_REFINE_STENCIL = (
    (-1, -1, 0.5), (0, -1, 0.5), (-1, 0, 0.5), (0, 0, 1.0), (1, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5)
)


@lru_cache(maxsize=None)
def triangle_vertex_array(j: int) -> np.ndarray:
    """Vertices of all ``2 * 4^j`` level-``j`` triangles, shape (T, 3, 2).

    Entries are integer ``(i, k)`` grid units.  Cells run row-major (``cx``
    fastest), the lower triangle of each cell before the upper one, with
    vertices in :data:`_CELL_OFFSETS` order.  The array is read-only.  The
    package's own sweeps run over cells (see ``quadrature._cell_points``);
    this array is the per-triangle view for the tests and the benchmark
    tracer.
    """
    n_interior(j)  # the level check
    cy, cx = np.divmod(np.arange(4**j, dtype=np.int64), 2**j)
    corners = np.stack([cx, cy], axis=-1)  # (C, 2), cells row-major
    arr = (corners[:, None, None, :] + _CELL_OFFSETS).reshape(-1, 3, 2)
    arr.setflags(write=False)
    return arr
