"""Refinement and Galerkin matrices for the nested hat-function spaces.

Rows and columns number the interior vertices ``(i, k)`` of a level row by
row, ``i`` fastest: ``(i, k)`` has ordinal ``(k - 1)(2^j - 1) + (i - 1)``.
Inner products are the H1 seminorm (integral of grad.grad).  Every entry is
a multiple of 1/2, so the floating-point values are exact and the
identities between these matrices hold exactly, not just to rounding.

Stencils (offsets are relative to the coarse vertex, fine offsets relative
to its fine-grid image ``(2i, 2k)``):

* refinement (:data:`mesh._REFINE_STENCIL`): a coarse hat is the fine hat
  at (2i, 2k) plus half the six fine hats at offsets (+-1, 0), (0, +-1),
  (-1, -1), (+1, +1).
* stiffness: 4 on the diagonal, -1 toward the four axis neighbors; the
  diagonal-direction neighbors (+-1, +-1 along the cell diagonal) integrate
  to exactly zero and are not stored.
* cross-level Gram (coarse row against fine column): not tabulated but
  formed as refinement times fine stiffness, a 17-entry stencil.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import mesh

_STIFFNESS_STENCIL = {
    (0, 0): 4.0,
    (-1, 0): -1.0,
    (1, 0): -1.0,
    (0, -1): -1.0,
    (0, 1): -1.0,
}


def _stencil_matrix(j_row: int, j_col: int, stencil: dict[tuple[int, int], float]) -> sp.csr_matrix:
    """Matrix with one stencil row per level ``j_row`` interior vertex.

    Column indices live on level ``j_col``; offsets are applied to the
    row vertex mapped onto the column grid, and entries falling outside
    the column interior are dropped.  Built as CSR directly: with the
    offsets sorted by ``(dk, di)`` the columns of every row ascend, so each
    row takes its in-range offsets in that order.
    """
    n_r = 2**j_row - 1
    n_c = 2**j_col - 1
    idx = np.int32 if n_c * n_c <= np.iinfo(np.int32).max else np.int64
    line = 2 ** (j_col - j_row) * np.arange(1, n_r + 1)  # row vertices on the column grid
    offsets = sorted(stencil, key=lambda o: (o[1], o[0]))
    # axis 0 is k, axis 1 is i, axis 2 the offset: rows in ordinal order
    cols = np.empty((n_r, n_r, len(offsets)), dtype=idx)
    keep = np.empty(cols.shape, dtype=bool)
    for m, (di, dk) in enumerate(offsets):
        fi = line + di
        fk = line + dk
        keep[:, :, m] = ((fk >= 1) & (fk <= n_c))[:, None] & ((fi >= 1) & (fi <= n_c))
        cols[:, :, m] = ((fk - 1) * n_c)[:, None] + (fi - 1)
    keep = keep.reshape(n_r * n_r, len(offsets))
    indptr = np.zeros(n_r * n_r + 1, dtype=idx)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    vals = np.broadcast_to(np.array([stencil[o] for o in offsets]), keep.shape)
    mat = sp.csr_matrix(
        (vals[keep], cols.reshape(keep.shape)[keep], indptr), shape=(n_r * n_r, n_c * n_c)
    )
    mat.has_canonical_format = True  # sorted, no duplicates
    return mat


@lru_cache(maxsize=None)
def refinement_matrix(j: int) -> sp.csr_matrix:
    """Rows are level-``j`` hats expanded in the level ``j+1`` basis."""
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    return _stencil_matrix(j, j + 1, {(di, dk): v for di, dk, v in mesh._REFINE_STENCIL})


def stiffness_matrix(j: int) -> sp.csr_matrix:
    """H1-seminorm Gram matrix of the level-``j`` hats (size ``(2^j-1)^2``).

    The stencil is level independent; along the cell diagonals the gradient
    inner products cancel exactly, leaving the five-point pattern.  Formed
    on each call: the solver keeps the checked matrix that a later solve
    reads again.
    """
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    return _stencil_matrix(j, j, _STIFFNESS_STENCIL)


def cross_level_gram(j: int) -> sp.csr_matrix:
    """Inner products of level-``j`` hats against level ``j+1`` hats.

    Row m, column p holds the H1 seminorm product of coarse hat m with fine
    hat p.  It is ``refinement_matrix(j) @ stiffness_matrix(j+1)``, exact
    because every entry is a multiple of 1/2; the zeros that cancel along
    the cell diagonals are not stored.  Rows of this matrix are the
    orthogonality constraints the detail space must satisfy.
    """
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    gram = (refinement_matrix(j) @ stiffness_matrix(j + 1)).tocsr()
    gram.eliminate_zeros()
    gram.sort_indices()
    return gram
