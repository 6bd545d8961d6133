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
The basis is held in one form, the rows of :func:`wavelet_matrix`;
:func:`strip_wavelets` also hands the strip rows out as stencils.  Only the
direct ladder solves in this basis; the CG ladder finds the same detail
components in nodal coordinates.
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
    stencil maps fine ``(i, k)`` pairs to coefficients."""

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


def _family_stencil(family: int, i: int, k: int) -> dict[tuple[int, int], float]:
    return {(2 * i + di, 2 * k + dk): v for di, dk, v in _FAMILY_STENCILS[family]}


def _family_positions(j: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(family, i, k) position arrays of every closed-form wavelet at level
    ``j``: families in order, positions row-major (k outer, i inner)."""
    top = 2**j - 2
    edge = np.arange(1, top + 1)
    k, i = np.divmod(np.arange(top * top), top)
    out = [(1, np.zeros_like(edge), edge), (2, edge, np.zeros_like(edge))]
    return out + [(family, i + 1, k + 1) for family in (3, 4, 5)]


def _fine_linear(j: int, i: np.ndarray | int, k: np.ndarray | int):
    n = 2 ** (j + 1) - 1
    return (np.asarray(k) - 1) * n + (np.asarray(i) - 1)


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


def strip_wavelets(j: int) -> list[WaveletSpec]:
    """Boundary-strip completion of the closed-form families, in closed form.

    The mesh and ``V_j`` are invariant under ``(x, y) -> (1-x, 1-y)``, which
    maps fine ``(i, k)`` to ``(n+1-i, n+1-k)``.  The strip rows are, in
    order:

    * the 180-degree images of the closed-form rows that touch fine index 1
      or 2 (families 1-2, families 3-5 at ``i == 1`` or ``k == 1``);
    * the five :data:`_CORNER_STENCILS` rows at the top-left corner, then
      their images at the bottom-right corner;
    * last, the one global row: 1 at ``(i, n)`` for even ``4 <= i < n``,
      -1/2 at ``(n, n)`` and 1 at its seed ``(1, n-1)``.

    At ``j == 1`` both corner patches are the whole 3x3 grid; only the
    images of corner rows 3 and 4 are independent of the rest there.
    Every entry is dyadic, so each row is exactly orthogonal to ``V_j``.
    Returns ``2^{j+3} - 8`` functions.
    """
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    n = 2 ** (j + 1) - 1

    def mirrored(stencil: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
        return {(n + 1 - i, n + 1 - k): v for (i, k), v in stencil.items()}

    stencils = []
    for family, ii, kk in _family_positions(j):
        touch = np.minimum(ii, kk) <= 1
        stencils += [
            mirrored(_family_stencil(family, i, k))
            for i, k in zip(ii[touch].tolist(), kk[touch].tolist())
        ]
    corners = [{(i, n + dk): v for i, dk, v in rows} for rows in _CORNER_STENCILS]
    stencils += corners
    stencils += [mirrored(c) for c in (corners if j > 1 else corners[2:4])]
    glob = {(i, n): 1.0 for i in range(4, n, 2)}
    glob[(n, n)] = -0.5
    glob[(1, n - 1)] = 1.0
    stencils.append(glob)
    return [WaveletSpec(s) for s in stencils]


@lru_cache(maxsize=None)
def wavelet_matrix(j: int) -> sp.csr_matrix:
    """Stencil matrix of the detail basis, one wavelet per row.

    Shape is ``(N_{j+1} - N_j, N_{j+1})`` with rows ordered family 1,
    family 2, families 3-5 row-major, then the strip rows of
    :func:`strip_wavelets`.  The closed-form rows come straight from the
    family offset table, one array per stencil entry; only the
    ``O(2^j)`` strip rows pass through :class:`WaveletSpec` stencils.
    """
    rows, cols, vals = [], [], []
    start = 0
    for family, i, k in _family_positions(j):
        ordinal = start + np.arange(len(i))
        for di, dk, v in _FAMILY_STENCILS[family]:
            rows.append(ordinal)
            cols.append(_fine_linear(j, 2 * i + di, 2 * k + dk))
            vals.append(np.full(len(i), v))
        start += len(i)
    strips = strip_wavelets(j)
    for r, w in enumerate(strips, start):
        pairs = np.array(list(w.stencil), dtype=np.int64)
        rows.append(np.full(len(pairs), r))
        cols.append(_fine_linear(j, pairs[:, 0], pairs[:, 1]))
        vals.append(np.fromiter(w.stencil.values(), dtype=float, count=len(pairs)))
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(start + len(strips), mesh.n_interior(j + 1)),
    ).tocsr()
    mat.sort_indices()
    return mat


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
    corresponding rows of :func:`wavelet_matrix`.
    """
    if not (1 <= n <= 2**j - 1):
        raise ValueError(f"subgrid size must be in 1..{2**j - 1}, got {n}")
    expected = 3 * n * n - 4 * n + 1
    # the closed-form rows lead the matrix in _family_positions order
    within = np.concatenate([np.maximum(i, k) <= n - 1 for _, i, k in _family_positions(j)])
    rows = wavelet_matrix(j)[np.flatnonzero(within)].toarray()
    return expected, int(np.linalg.matrix_rank(rows)) if len(rows) else 0
