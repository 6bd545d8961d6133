"""Prewavelet bases for the detail spaces between consecutive hat levels.

The detail space at level ``j`` consists of the level ``j+1`` functions that
are H1-orthogonal to every level-``j`` hat; its dimension is
``N_{j+1} - N_j = 3*4^j - 2^{j+1}``.  A function ``sum b_p phi_p`` lies in it
iff ``M b = 0`` where ``M`` is the cross-level Gram matrix, so everything
below is nullspace algebra on that constraint matrix.

Most of the space is covered by five closed-form stencil families (two edge
families, three interior families), each with at most four nonzeros.  The
remainder lives on the two outermost fine rows/columns (the boundary strip);
it is completed numerically: reduce the constraint matrix to reduced row
echelon form over a fixed descending (k, i) column order, walk the resulting
nullspace basis vectors in that same deterministic order, and keep each one
that enlarges the span beyond the closed-form stencils.  Exactly one kept
function is supported along the whole strip rather than on a patch of it;
it is tagged ``global``, all other kept functions are tagged ``strip``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import assembly, mesh

FAMILY_NAMES = {1: "v-edge", 2: "h-edge", 3: "interior-1", 4: "interior-2", 5: "interior-3"}

#: Pivot threshold for the echelon elimination; constraint entries are
#: multiples of 1/2 and partial pivoting keeps growth mild, so anything
#: below this is treated as a cancelled entry.
_PIVOT_TOL = 1e-8

#: Entries of computed strip stencils below this are dropped as elimination
#: round-off.
_PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class WaveletSpec:
    """One detail-space basis function, expanded in fine-level hats.

    level is the coarse level ``j`` (the function lives in level ``j+1``);
    position is the defining coarse position: ``(0, k)``/``(i, 0)`` for the
    edge families, ``(i, k)`` for the interior families, and the seeding
    fine vertex for strip/global functions.  stencil maps fine ``(i, k)``
    pairs to coefficients.
    """

    level: int
    family: str
    position: tuple[int, int]
    stencil: dict[tuple[int, int], float]

    def bounding_box(self) -> tuple[int, int, int, int]:
        """(min_i, max_i, min_k, max_k) over the stencil support."""
        ii = [p[0] for p in self.stencil]
        kk = [p[1] for p in self.stencil]
        return min(ii), max(ii), min(kk), max(kk)


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
    if family not in _FAMILY_STENCILS:
        raise ValueError(f"family must be 1..5, got {family}")
    return {(2 * i + di, 2 * k + dk): v for di, dk, v in _FAMILY_STENCILS[family]}


def interior_wavelet(family: int, j: int, i: int, k: int) -> WaveletSpec:
    """Closed-form wavelet of one of the five families at a coarse position.

    Families 1 and 2 run along the left and bottom edge: family 1 takes
    ``i == 0`` and position ``1 <= k <= 2^j - 2``, family 2 takes ``k == 0``
    and position ``1 <= i <= 2^j - 2``.  Families 3-5 take interior
    positions ``1 <= i, k <= 2^j - 2``.
    """
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    top = 2**j - 2
    if family == 1:
        if i != 0:
            raise ValueError(f"family 1 sits on the vertical edge; expected i == 0, got {i}")
        if not (1 <= k <= top):
            raise ValueError(f"family 1 position out of range at level {j}: k={k} not in 1..{top}")
    elif family == 2:
        if k != 0:
            raise ValueError(f"family 2 sits on the horizontal edge; expected k == 0, got {k}")
        if not (1 <= i <= top):
            raise ValueError(f"family 2 position out of range at level {j}: i={i} not in 1..{top}")
    elif family in (3, 4, 5):
        if not (1 <= i <= top and 1 <= k <= top):
            raise ValueError(
                f"family {family} position out of range at level {j}: "
                f"({i}, {k}) not in 1..{top}"
            )
    else:
        raise ValueError(f"family must be 1..5, got {family}")
    return WaveletSpec(j, FAMILY_NAMES[family], (i, k), _family_stencil(family, i, k))


def _family_positions(j: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(family, i, k) position arrays of every closed-form wavelet at level
    ``j``: families in order, positions row-major (k outer, i inner)."""
    top = 2**j - 2
    edge = np.arange(1, top + 1)
    k, i = np.divmod(np.arange(top * top), top)
    out = [(1, np.zeros_like(edge), edge), (2, edge, np.zeros_like(edge))]
    return out + [(family, i + 1, k + 1) for family in (3, 4, 5)]


def closed_form_wavelets(j: int) -> list[WaveletSpec]:
    """All admissible family-1..5 wavelets, families in order, positions row-major."""
    return [
        interior_wavelet(family, j, int(i), int(k))
        for family, ii, kk in _family_positions(j)
        for i, k in zip(ii, kk)
    ]


def _fine_linear(j: int, i: np.ndarray | int, k: np.ndarray | int):
    n = 2 ** (j + 1) - 1
    return (np.asarray(k) - 1) * n + (np.asarray(i) - 1)


def _descending_columns(j: int, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return sorted(pairs, key=lambda p: (p[1], p[0]), reverse=True)


def _rref(a: np.ndarray) -> list[tuple[int, int]]:
    """In-place reduced row echelon form with partial pivoting.

    Returns the pivot list as (row, column) pairs in elimination order.
    Columns are scanned left to right, so the caller controls the pivot
    preference through its column ordering.
    """
    m, n = a.shape
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        p = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[p, c]) <= _PIVOT_TOL:
            continue
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] /= a[r, c]
        # rows with a zero in column c would only subtract zeros
        hit = np.nonzero(a[:, c])[0]
        hit = hit[hit != r]
        a[hit] -= np.outer(a[hit, c], a[r])
        pivots.append((r, c))
        r += 1
    return pivots


def _strip_candidates(j: int) -> tuple[list[tuple[int, int]], list[np.ndarray], list[tuple[int, int]]]:
    """Nullspace basis of the orthogonality constraints, restricted near the strip.

    Returns (column pairs, one dense candidate per free column in scan
    order, free column pairs).  Elimination is restricted to the fine band
    i >= 2^{j+1}-4 or k >= 2^{j+1}-4 together with the coarse rows that
    touch it; every other constraint row has no support on the band, so
    band-supported nullspace vectors satisfy it automatically.
    """
    con = assembly.cross_level_gram(j)
    n_fine = 2 ** (j + 1) - 1
    lo = 2 ** (j + 1) - 4
    pairs = [
        (i, k)
        for k in range(1, n_fine + 1)
        for i in range(1, n_fine + 1)
        if i >= lo or k >= lo
    ]
    cols = _fine_linear(j, np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    touch = np.asarray((con[:, cols] != 0).sum(axis=1)).ravel() > 0
    rows = np.nonzero(touch)[0]
    pairs = _descending_columns(j, pairs)
    cols = _fine_linear(j, np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    a = np.asarray(con[rows][:, cols].todense(), dtype=float)
    pivots = _rref(a)
    pivot_rows = np.array([r for r, _ in pivots], dtype=int)
    pivot_cols = np.array([c for _, c in pivots], dtype=int)
    candidates: list[np.ndarray] = []
    free_pairs: list[tuple[int, int]] = []
    for f in np.setdiff1d(np.arange(len(pairs)), pivot_cols):
        v = np.zeros(len(pairs))
        v[f] = 1.0
        coef = a[pivot_rows, f]
        nz = coef != 0.0
        v[pivot_cols[nz]] = -coef[nz]
        candidates.append(v)
        free_pairs.append(pairs[f])
    return pairs, candidates, free_pairs


def strip_wavelets(j: int) -> list[WaveletSpec]:
    """Boundary-strip completion of the closed-form families.

    Walks the deterministic nullspace basis and keeps each vector whose
    projection onto the strip columns (fine i or k >= 2^{j+1} - 2) enlarges
    the span collected so far; the closed-form stencils never reach the
    strip, so this is exactly the rank-extension test against everything
    already collected.  Returns ``2^{j+3} - 8`` functions; raises if the
    construction comes up short, which would mean an assembly bug.
    """
    if j < 1:
        raise ValueError(f"level must be >= 1, got {j}")
    target = 2 ** (j + 3) - 8
    n_fine = 2 ** (j + 1) - 1
    strip_lo = 2 ** (j + 1) - 2
    pairs, candidates, free_pairs = _strip_candidates(j)
    strip_pos = {p: s for s, p in enumerate(_descending_columns(
        j, [(i, k) for k in range(1, n_fine + 1) for i in range(1, n_fine + 1)
            if i >= strip_lo or k >= strip_lo]))}
    proj_cols = np.array([strip_pos.get(p, -1) for p in pairs])

    kept: list[WaveletSpec] = []
    ech = np.zeros((target, len(strip_pos)))
    piv_idx = np.zeros(target, dtype=int)
    rank = 0
    for v, seed in zip(candidates, free_pairs):
        proj = np.zeros(len(strip_pos))
        on_strip = proj_cols >= 0
        proj[proj_cols[on_strip]] = v[on_strip]
        if rank:
            proj -= ech[:rank].T @ proj[piv_idx[:rank]]
        p = int(np.argmax(np.abs(proj)))
        if abs(proj[p]) <= _PIVOT_TOL:
            continue
        ech[rank] = proj / proj[p]
        piv_idx[rank] = p
        # keep earlier rows reduced so the update above stays a single product
        hit = np.nonzero(ech[:rank, p])[0]
        ech[hit] -= np.outer(ech[hit, p], ech[rank])
        rank += 1
        stencil = {
            pairs[c]: float(v[c]) for c in np.nonzero(np.abs(v) > _PRUNE_TOL)[0]
        }
        kept.append(WaveletSpec(j, "strip", seed, stencil))
        if rank == target:
            break
    if len(kept) != target:
        raise RuntimeError(
            f"strip completion at level {j} found {len(kept)} functions, "
            f"expected {target}; the orthogonality constraints are rank deficient"
        )
    return _tag_global(j, kept)


def _tag_global(j: int, kept: list[WaveletSpec]) -> list[WaveletSpec]:
    """Re-tag the single full-strip function as global.

    The completion produces patch-supported functions except for one whose
    support, restricted to the two top boundary rows, runs the whole width
    of the domain and touches both rows; that one gets the ``global`` tag.
    """
    n_fine = 2 ** (j + 1) - 1
    band_lo = n_fine - 1
    full = []
    for idx, w in enumerate(kept):
        band = [(i, k) for (i, k) in w.stencil if k >= band_lo]
        if not band:
            continue
        ii = [p[0] for p in band]
        kk = [p[1] for p in band]
        if min(ii) == 1 and max(ii) == n_fine and min(kk) == band_lo and max(kk) == n_fine:
            full.append(idx)
    if len(full) != 1:
        raise RuntimeError(
            f"expected exactly one globally supported strip function at level {j}, "
            f"found {len(full)}"
        )
    out = list(kept)
    idx = full[0]
    w = out[idx]
    out[idx] = WaveletSpec(w.level, "global", w.position, w.stencil)
    return out


@lru_cache(maxsize=None)
def _basis(j: int) -> tuple[WaveletSpec, ...]:
    return tuple(closed_form_wavelets(j) + strip_wavelets(j))


def wavelet_basis(j: int) -> tuple[WaveletSpec, ...]:
    """The full detail basis: closed-form families then strip completion."""
    return _basis(j)


@lru_cache(maxsize=None)
def wavelet_matrix(j: int) -> sp.csr_matrix:
    """Stencil matrix of the detail basis, one wavelet per row.

    Shape is ``(N_{j+1} - N_j, N_{j+1})`` with rows ordered family 1,
    family 2, families 3-5 row-major, then the strip completion.  The
    closed-form rows come straight from the family offset table, one
    array per stencil entry; only the strip rows pass through
    :class:`WaveletSpec` stencils.
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


@lru_cache(maxsize=None)
def wavelet_gram(j: int) -> sp.csr_matrix:
    """H1 Gram matrix of the detail basis (the detail system matrix)."""
    c = wavelet_matrix(j)
    return (c @ assembly.stiffness_matrix(j + 1) @ c.T).tocsr()


def verify_orthogonality(j: int, q: sp.csr_matrix | None = None) -> float:
    """Largest inner product between a coarse hat and a detail function.

    Exactly zero for the closed-form rows (their arithmetic is dyadic);
    bounded by elimination round-off, well under 1e-12, for the strip rows.
    ``q`` replaces ``wavelet_matrix(j)`` as the detail rows to check.
    """
    if q is None:
        q = wavelet_matrix(j)
    r = assembly.cross_level_gram(j) @ q.T
    return float(np.max(np.abs(r.toarray()))) if r.nnz else 0.0


def dimension_check(j: int, n: int) -> tuple[int, int]:
    """(expected, actual) dimension of the closed-form span on a subgrid.

    Counts the families restricted to positions below ``n``: families 1-2
    up to ``k <= n-1``, families 3-5 up to ``i, k <= n-1``.  The expected
    dimension is ``3n^2 - 4n + 1``; the actual value is the rank of the
    corresponding stencil rows.
    """
    if not (1 <= n <= 2**j - 1):
        raise ValueError(f"subgrid size must be in 1..{2**j - 1}, got {n}")
    expected = 3 * n * n - 4 * n + 1
    specs = [w for w in closed_form_wavelets(j) if _within(w, n)]
    if not specs:
        return expected, 0
    n_fine = mesh.n_interior(j + 1)
    a = np.zeros((len(specs), n_fine))
    for r, w in enumerate(specs):
        for (i, k), v in w.stencil.items():
            a[r, _fine_linear(j, i, k)] = v
    return expected, int(np.linalg.matrix_rank(a))


def _within(w: WaveletSpec, n: int) -> bool:
    i, k = w.position
    if w.family == FAMILY_NAMES[1]:
        return k <= n - 1
    if w.family == FAMILY_NAMES[2]:
        return i <= n - 1
    return i <= n - 1 and k <= n - 1


def dump_wavelet_matrix(j: int, f) -> None:
    """Write the detail stencil matrix as text: 'rows cols nnz' then triples.

    One 'row col value' line per stored entry with 1-based indices and 17
    significant digits, row-major.  ``f`` is a path or a writable text file.
    """
    mat = wavelet_matrix(j).tocoo()
    own = isinstance(f, (str, bytes)) or hasattr(f, "__fspath__")
    out = open(f, "w", encoding="utf-8") if own else f
    try:
        out.write(f"{mat.shape[0]} {mat.shape[1]} {mat.nnz}\n")
        order = np.lexsort((mat.col, mat.row))
        for t in order:
            out.write(f"{mat.row[t] + 1} {mat.col[t] + 1} {mat.data[t]:.17g}\n")
    finally:
        if own:
            out.close()


def read_wavelet_dump(f) -> sp.csr_matrix:
    """Parse the textual dump format back into a sparse matrix."""
    own = isinstance(f, (str, bytes)) or hasattr(f, "__fspath__")
    src = open(f, "r", encoding="utf-8") if own else f
    try:
        header = src.readline().split()
        rows, cols, nnz = (int(t) for t in header)
        r = np.empty(nnz, dtype=int)
        c = np.empty(nnz, dtype=int)
        v = np.empty(nnz)
        for t in range(nnz):
            a, b, val = src.readline().split()
            r[t], c[t], v[t] = int(a) - 1, int(b) - 1, float(val)
    finally:
        if own:
            src.close()
    return sp.coo_matrix((v, (r, c)), shape=(rows, cols)).tocsr()
