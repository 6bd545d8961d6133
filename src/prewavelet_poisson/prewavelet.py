"""Prewavelet bases for the detail spaces between consecutive hat levels.

The detail space at level ``j`` consists of the level ``j+1`` functions that
are H1-orthogonal to every level-``j`` hat; its dimension is
``N_{j+1} - N_j = 3*4^j - 2^{j+1}``.  A function ``sum b_p phi_p`` lies in it
iff ``M b = 0`` where ``M`` is the cross-level Gram matrix, so every basis
row below is an exact nullspace vector of that constraint matrix.

Most of the space is covered by five closed-form stencil families (two edge
families, three interior families), each with at most four nonzeros.  The
remaining ``2^{j+3} - 8`` functions live on the two outermost fine
rows/columns (the boundary strip) and are closed-form too: the 180-degree
images of the closed-form rows next to the left and bottom edges, a
level-independent table of five rows at the top-left corner and their images
at the bottom-right corner, and last one global row supported along the
whole top fine row.  Every coefficient is dyadic, so orthogonality to the
coarse level is exact.
The basis is built and held in one form, the rows of :func:`wavelet_matrix`:
every group of rows, strip rows included, comes from its table as index and
value arrays.  :func:`strip_wavelets` reads the strip rows back off that
matrix as stencils.  Only the direct ladder solves in this basis; the CG
ladder finds the same detail components in nodal coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import assembly, mesh


@dataclass(frozen=True)
class WaveletSpec:
    """One boundary-strip basis function, expanded in fine-level hats:
    stencil maps fine ``(i, k)`` pairs to coefficients (a view of one row
    of :func:`wavelet_matrix`)."""

    stencil: dict[tuple[int, int], float]


#: Fine-grid stencils of the five families as (di, dk, value) offsets from
#: the fine image ``(2i, 2k)`` of the coarse position; the edge families sit
#: at ``i == 0`` (family 1) and ``k == 0`` (family 2).
_FAMILY_STENCILS = {
    1: ((1, 0, 2.0), (1, 1, 1.0)),
    2: ((0, 1, 2.0), (1, 1, 1.0)),
    3: ((0, 0, -1.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)),
    4: ((-1, -1, 1.0), (0, -1, 1.0), (-1, 0, 1.0), (0, 0, -1.0)),
    5: ((-1, 0, 1.0), (0, 1, 1.0), (0, -1, -1.0), (1, 0, -1.0)),
}


def _family_positions(j: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(family, i, k) position arrays of every closed-form wavelet at level
    ``j``: families in order, positions row-major (k outer, i inner)."""
    top = 2**j - 2
    edge = np.arange(1, top + 1)
    k, i = np.divmod(np.arange(top * top), top)
    out = [(1, np.zeros_like(edge), edge), (2, edge, np.zeros_like(edge))]
    return out + [(family, i + 1, k + 1) for family in (3, 4, 5)]


#: The five top-left corner rows as ``(i, k - n, value)`` on the fine patch
#: ``i <= 3, k >= n - 2`` (``n = 2^{j+1} - 1``), where the orthogonality
#: constraints are the same 4x9 block at every level and which holds no
#: closed-form row or 180-degree image.  They span the integer nullspace of that
#: block in echelon form: each row's last entry is its seed, the one of the
#: five free vertices ``(2..3, n-1)``, ``(1..3, n)`` on which it is nonzero.
_CORNER_STENCILS = (
    ((1, -2, -1.0), (2, -2, -1.0), (1, -1, -1.0), (2, -1, 1.0)),
    ((2, -2, 1.0), (1, -1, -2.0), (3, -1, 1.0)),
    ((1, -1, 2.0), (1, 0, 1.0)),
    ((1, -1, -1.0), (2, 0, 1.0)),
    ((1, -2, -1.0), (2, -2, -2.0), (1, -1, 2.0), (3, 0, 1.0)),
)


def _place(
    j: int, stencil: tuple[tuple[int, int, float], ...], i: np.ndarray | int, k: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray]:
    """Fine ordinals and values of ``stencil``, a tuple of ``(di, dk, value)``
    offsets, placed at the fine positions ``(i, k)``: one row per position."""
    di, dk, v = (np.array(c) for c in zip(*stencil))
    cols = mesh.ordinal(j + 1, np.reshape(i, (-1, 1)) + di, np.reshape(k, (-1, 1)) + dk)
    return cols, np.broadcast_to(v, cols.shape)


@lru_cache(maxsize=None)
def wavelet_matrix(j: int) -> sp.csr_matrix:
    """Stencil matrix of the detail basis, one wavelet per row.

    Shape is ``(N_{j+1} - N_j, N_{j+1})``.  The mesh and ``V_j`` are
    invariant under ``(x, y) -> (1-x, 1-y)``, which maps fine ``(i, k)`` to
    ``(n+1-i, n+1-k)`` (``n = 2^{j+1} - 1``) and so reverses the row-major
    fine ordinal, ``p -> n^2 - 1 - p``.  The rows are, in order:

    * family 1, family 2, families 3-5 row-major, at
      :func:`_family_positions`;
    * the boundary strip: the 180-degree images of the closed-form rows
      that touch fine index 1 or 2 (``min(i, k) <= 1``), the five
      :data:`_CORNER_STENCILS` rows at the top-left corner, then their
      images at the bottom-right corner;
    * last, the one global row: 1 at ``(i, n)`` for even ``4 <= i < n``,
      -1/2 at ``(n, n)`` and 1 at its seed ``(1, n-1)``.

    At ``j == 1`` there are no closed-form rows, and both corner patches are
    the whole 3x3 grid; only the images of corner rows 3 and 4 are
    independent of the rest there.  Every group is built as index and value
    arrays straight from its table; every entry is dyadic, so each row is
    exactly orthogonal to ``V_j``.
    """
    mesh.n_interior(j)  # the level check
    n = 2 ** (j + 1) - 1
    closed, images = [], []
    for family, i, k in _family_positions(j):
        cols, vals = _place(j, _FAMILY_STENCILS[family], 2 * i, 2 * k)
        closed.append((cols, vals))
        edge = np.minimum(i, k) <= 1
        images.append((n * n - 1 - cols[edge], vals[edge]))
    corners = [_place(j, rows, 0, n) for rows in _CORNER_STENCILS]
    mirrored = [(n * n - 1 - cols, vals) for cols, vals in (corners if j > 1 else corners[2:4])]
    top = ((1, -1, 1.0), *((i, 0, 1.0) for i in range(4, n, 2)), (n, 0, -0.5))
    blocks = closed + images + corners + mirrored + [_place(j, top, 0, n)]
    counts = np.repeat([c.shape[1] for c, _ in blocks], [len(c) for c, _ in blocks])
    mat = sp.csr_matrix(
        (
            np.concatenate([v.ravel() for _, v in blocks]),
            np.concatenate([c.ravel() for c, _ in blocks]),
            np.concatenate(([0], np.cumsum(counts))),
        ),
        shape=(len(counts), n * n),
    )
    mat.sort_indices()
    return mat


def strip_wavelets(j: int) -> list[WaveletSpec]:
    """The boundary-strip rows of :func:`wavelet_matrix` as stencils.

    These are its last ``2^{j+3} - 8`` rows, in order: the 180-degree
    images, the corner rows and their images, and last the global row.
    """
    strip = wavelet_matrix(j)[-(2 ** (j + 3) - 8) :]
    n = 2 ** (j + 1) - 1
    cuts = strip.indptr[1:-1]
    return [
        WaveletSpec({(p % n + 1, p // n + 1): v for p, v in zip(cols.tolist(), vals.tolist())})
        for cols, vals in zip(np.split(strip.indices, cuts), np.split(strip.data, cuts))
    ]


def wavelet_gram(j: int) -> sp.csr_matrix:
    """H1 Gram matrix of the detail basis (the detail system matrix)."""
    c = wavelet_matrix(j)
    return (c @ assembly.stiffness_matrix(j + 1) @ c.T).tocsr()


def verify_orthogonality(j: int) -> float:
    """Largest inner product between a coarse hat and a detail function.

    Exactly zero for the basis rows, whose coefficients are all dyadic.
    """
    r = assembly.cross_level_gram(j) @ wavelet_matrix(j).T
    return float(np.max(np.abs(r.data))) if r.nnz else 0.0


def dimension_check(j: int, n: int) -> tuple[int, int]:
    """(expected, actual) dimension of the closed-form span on a subgrid.

    Counts the families restricted to positions below ``n``: families 1-2
    up to ``k <= n-1``, families 3-5 up to ``i, k <= n-1``.  The expected
    dimension is ``3n^2 - 4n + 1``; the actual value is the rank of the
    corresponding rows of :func:`wavelet_matrix`, which refuses a level
    below 1 before ``n`` is checked.
    """
    basis = wavelet_matrix(j)
    if not (1 <= n <= 2**j - 1):
        raise ValueError(f"subgrid size must be in 1..{2**j - 1}, got {n}")
    expected = 3 * n * n - 4 * n + 1
    # the closed-form rows lead the matrix in _family_positions order
    within = np.concatenate([np.maximum(i, k) <= n - 1 for _, i, k in _family_positions(j)])
    rows = basis[np.flatnonzero(within)].toarray()
    return expected, int(np.linalg.matrix_rank(rows)) if len(rows) else 0
