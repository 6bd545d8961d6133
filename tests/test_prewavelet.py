"""Prewavelet basis tests.

Frozen stencils pin the five closed-form families; the orthogonality and
rank checks then certify them against the assembled Gram matrix, which has
its own independent oracle in test_assembly.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import oracle
from prewavelet_poisson import assembly, linalg, mesh, prewavelet


def _closed_form_positions(j):
    """(family, i, k) of the closed-form rows of wavelet_matrix(j), in row
    order: family 1 at (0, k), family 2 at (i, 0), then families 3-5, each
    over the interior positions row-major (k outer, i inner)."""
    edge = range(1, 2**j - 1)
    inner = [(i, k) for k in edge for i in edge]
    return (
        [(1, 0, k) for k in edge]
        + [(2, i, 0) for i in edge]
        + [(f, i, k) for f in (3, 4, 5) for i, k in inner]
    )


def _row(j, family, i, k):
    return _closed_form_positions(j).index((family, i, k))


def _stencil(j, r):
    """Row ``r`` of wavelet_matrix(j) as a {(fine i, fine k): value} dict."""
    row = prewavelet.wavelet_matrix(j).getrow(r)
    n = 2 ** (j + 1) - 1
    return {(int(c) % n + 1, int(c) // n + 1): float(v) for c, v in zip(row.indices, row.data)}


def test_family_stencils_frozen():
    # v-edge and h-edge pairs (weights 2, 1 along the left and bottom edges)
    assert _stencil(2, _row(2, 1, 0, 1)) == {
        (1, 2): 2.0,
        (1, 3): 1.0,
    }
    assert _stencil(2, _row(2, 1, 0, 2)) == {
        (1, 4): 2.0,
        (1, 5): 1.0,
    }
    assert _stencil(2, _row(2, 2, 1, 0)) == {
        (2, 1): 2.0,
        (3, 1): 1.0,
    }
    assert _stencil(2, _row(2, 2, 2, 0)) == {
        (4, 1): 2.0,
        (5, 1): 1.0,
    }
    # the three interior quartets at (i,k) = (1,1)
    assert _stencil(2, _row(2, 3, 1, 1)) == {
        (2, 2): -1.0,
        (3, 2): 1.0,
        (2, 3): 1.0,
        (3, 3): 1.0,
    }
    assert _stencil(2, _row(2, 4, 1, 1)) == {
        (1, 1): 1.0,
        (2, 1): 1.0,
        (1, 2): 1.0,
        (2, 2): -1.0,
    }
    assert _stencil(2, _row(2, 5, 1, 1)) == {
        (1, 2): 1.0,
        (2, 3): 1.0,
        (2, 1): -1.0,
        (3, 2): -1.0,
    }
    # shifted interior instances at (2,1), (1,2), (2,2)
    assert _stencil(2, _row(2, 3, 2, 1)) == {
        (4, 2): -1.0,
        (5, 2): 1.0,
        (4, 3): 1.0,
        (5, 3): 1.0,
    }
    assert _stencil(2, _row(2, 4, 1, 2)) == {
        (1, 3): 1.0,
        (2, 3): 1.0,
        (1, 4): 1.0,
        (2, 4): -1.0,
    }
    assert _stencil(2, _row(2, 5, 2, 2)) == {
        (3, 4): 1.0,
        (4, 5): 1.0,
        (4, 3): -1.0,
        (5, 4): -1.0,
    }


def _n_closed_form(j):
    """Number of closed-form rows: everything before the strip rows."""
    return prewavelet.wavelet_matrix(j).shape[0] - len(prewavelet.strip_wavelets(j))


def test_closed_form_counts_and_small_support():
    for j in (1, 2, 3, 4):
        n = 2**j - 1
        count = _n_closed_form(j)
        assert count == 3 * n * n - 4 * n + 1
        indptr = prewavelet.wavelet_matrix(j).indptr
        assert np.all(np.diff(indptr[: count + 1]) <= 4)


def test_every_closed_form_is_exactly_orthogonal():
    # M v = 0 with no rounding: the defining property, checked entrywise
    for j in (1, 2, 3):
        m = assembly.cross_level_gram(j).toarray()
        rows = prewavelet.wavelet_matrix(j)[: _n_closed_form(j)].toarray()
        assert not np.any(m @ rows.T)


@pytest.mark.parametrize("j", (1, 2, 3, 4, 5))
def test_strip_counts(j):
    strips = prewavelet.strip_wavelets(j)
    assert len(strips) == 2 ** (j + 3) - 8


@pytest.mark.parametrize("j", (1, 2, 3, 4, 5))
def test_exactly_one_global_function(j):
    n_fine = 2 ** (j + 1) - 1

    def spans_top_band(w):
        # full width, both band rows
        band = [(i, k) for (i, k) in w.stencil if k >= n_fine - 1]
        return bool(band) and (
            min(p[0] for p in band) == 1
            and max(p[0] for p in band) == n_fine
            and {p[1] for p in band} >= {n_fine - 1, n_fine}
        )

    strips = prewavelet.strip_wavelets(j)
    # the global row closes the strip rows; at j = 1 the band is three
    # vertices wide, so corner rows span it too
    assert spans_top_band(strips[-1])
    if j > 1:
        assert [w for w in strips if spans_top_band(w)] == [strips[-1]]


def _image(j, stencil):
    """The 180-degree image (i, k) -> (n+1-i, n+1-k) of a fine stencil."""
    m = 2 ** (j + 1)
    return {(m - i, m - k): v for (i, k), v in stencil.items()}


def _key(stencil):
    return frozenset(stencil.items())


#: The five top-left corner rows as (i, k - n, value), n = 2^{j+1} - 1.
_CORNER_TABLE = (
    ((1, -2, -1.0), (2, -2, -1.0), (1, -1, -1.0), (2, -1, 1.0)),
    ((2, -2, 1.0), (1, -1, -2.0), (3, -1, 1.0)),
    ((1, -1, 2.0), (1, 0, 1.0)),
    ((1, -1, -1.0), (2, 0, 1.0)),
    ((1, -2, -1.0), (2, -2, -2.0), (1, -1, 2.0), (3, 0, 1.0)),
)


def _global_row(j):
    n = 2 ** (j + 1) - 1
    row = {(i, n): 1.0 for i in range(4, n, 2)}
    row[(n, n)] = -0.5
    row[(1, n - 1)] = 1.0
    return row


def test_global_row_frozen():
    # pinned bit for bit: the strip construction may change, this row may not
    w = prewavelet.strip_wavelets(2)[-1]
    assert w.stencil == {(1, 6): 1.0, (4, 7): 1.0, (6, 7): 1.0, (7, 7): -0.5}


@pytest.mark.parametrize("j", (1, 2, 3, 4, 5))
def test_every_strip_row_is_an_image_a_corner_row_or_the_global_row(j):
    n = 2 ** (j + 1) - 1
    images = {_key(_image(j, _stencil(j, r))) for r in range(_n_closed_form(j))}
    # the images that reach the strip (fine i or k >= n - 1) are all used
    reaching = {s for s in images if any(max(p) >= n - 1 for p, _ in s)}
    corners = [{(i, n + dk): v for i, dk, v in rows} for rows in _CORNER_TABLE]
    corner_keys = {_key(c) for c in corners} | {_key(_image(j, c)) for c in corners}
    used_images, used_corners = set(), set()
    *strips, last = prewavelet.strip_wavelets(j)
    assert last.stencil == _global_row(j)
    for w in strips:
        key = _key(w.stencil)
        if key in images:
            used_images.add(key)
        else:
            assert key in corner_keys
            used_corners.add(key)
    assert used_images == reaching
    assert len(used_images) == max(2 ** (j + 3) - 19, 0)
    assert len(used_corners) == (10 if j > 1 else 7)


def test_corner_stencils_level_independent():
    # rows supported on the 3x3 fine patch at either corner, relative to n
    def corner_rows(j):
        n = 2 ** (j + 1) - 1
        top_left, bottom_right = set(), set()
        for w in prewavelet.strip_wavelets(j):
            if all(i <= 3 and k >= n - 2 for i, k in w.stencil):
                top_left.add(frozenset((i, k - n, v) for (i, k), v in w.stencil.items()))
            if all(i >= n - 2 and k <= 3 for i, k in w.stencil):
                bottom_right.add(frozenset((i - n, k, v) for (i, k), v in w.stencil.items()))
        return top_left, bottom_right

    top_left, bottom_right = corner_rows(2)
    assert top_left == {frozenset(rows) for rows in _CORNER_TABLE}
    assert len(bottom_right) == 5
    for j in (3, 4, 5, 6):
        assert corner_rows(j) == (top_left, bottom_right)


@pytest.mark.parametrize("j", (5, 6))
def test_detail_gram_factors_beyond_dense_checks(j):
    # a positive L D L^T factor means full rank where matrix_rank is too slow
    linalg.CholeskyFactor(prewavelet.wavelet_gram(j))


@pytest.mark.parametrize("j", range(1, 8))
def test_basis_size_and_exact_orthogonality(j):
    # every coefficient is dyadic, so M C^T has no rounding at all
    rows = prewavelet.wavelet_matrix(j).shape[0]
    assert rows == mesh.n_interior(j + 1) - mesh.n_interior(j)
    assert prewavelet.verify_orthogonality(j) == 0.0


def test_orthogonality_check_stays_sparse(monkeypatch):
    # one changed coefficient c[0, col] += 1/2 leaves M C^T = 1/2 M[:, col] e_0^T,
    # and the check must find its max without the dense 3969 x 12160 product
    j = 6
    c = prewavelet.wavelet_matrix(j).copy()
    col = c.indices[0]
    c.data[0] += 0.5
    expected = 0.5 * np.max(np.abs(assembly.cross_level_gram(j)[:, [col]].toarray()))
    assert expected > 0.0
    monkeypatch.setattr(prewavelet, "wavelet_matrix", lambda level: c)
    tracemalloc.start()
    try:
        worst = prewavelet.verify_orthogonality(j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst == expected
    assert peak < 64 * 2**20


@pytest.mark.parametrize("j", (1, 2, 3, 4))
def test_basis_rank_complete(j):
    c = prewavelet.wavelet_matrix(j).toarray()
    assert c.shape == (
        mesh.n_interior(j + 1) - mesh.n_interior(j),
        mesh.n_interior(j + 1),
    )
    assert np.linalg.matrix_rank(c) == c.shape[0]


def test_dimension_table_frozen():
    expected = {2: 5, 3: 16, 4: 33, 5: 56, 6: 85, 7: 120}
    for n, want in expected.items():
        formula, rank = prewavelet.dimension_check(3, n)
        assert formula == 3 * n * n - 4 * n + 1 == want
        assert rank == want
    formula, rank = prewavelet.dimension_check(3, 1)
    assert formula == rank == 0


def test_stacked_change_of_basis_invertible():
    # [B; C] maps fine coefficients onto coarse-plus-detail exactly once
    for j in (1, 2, 3):
        b = assembly.refinement_matrix(j).toarray()
        c = prewavelet.wavelet_matrix(j).toarray()
        s = np.vstack([b, c])
        assert s.shape[0] == s.shape[1]
        assert np.linalg.matrix_rank(s) == s.shape[0]


def test_wavelet_gram_family1_diagonal():
    # a(psi, psi) for a v-edge pair: 4*4 + 1*4 + 2*2*(-1) = 16
    for j in (2, 3):
        e = prewavelet.wavelet_gram(j).toarray()
        v_edge = [r for r, (f, _, _) in enumerate(_closed_form_positions(j)) if f == 1]
        assert v_edge
        for r in v_edge:
            assert e[r, r] == 16.0


def test_wavelet_gram_against_dense_product():
    for j in (1, 2, 3):
        c = prewavelet.wavelet_matrix(j).toarray()
        d = assembly.stiffness_matrix(j + 1).toarray()
        expect = c @ d @ c.T
        got = prewavelet.wavelet_gram(j).toarray()
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("j", (1, 2, 3, 4))
def test_wavelet_gram_positive_definite(j):
    e = prewavelet.wavelet_gram(j).toarray()
    assert np.array_equal(e, e.T)
    np.linalg.cholesky(e)  # raises LinAlgError if not SPD


def test_deterministic_construction():
    a = prewavelet.strip_wavelets(2)
    b = prewavelet.strip_wavelets(2)
    assert [w.stencil for w in a] == [w.stencil for w in b]


#: The five families as {(di, dk): value} offsets from the fine image
#: (2i, 2k) of their coarse position, read off the frozen stencils above.
_FAMILY_PATTERNS = {
    1: {(1, 0): 2.0, (1, 1): 1.0},
    2: {(0, 1): 2.0, (1, 1): 1.0},
    3: {(0, 0): -1.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0},
    4: {(-1, -1): 1.0, (0, -1): 1.0, (-1, 0): 1.0, (0, 0): -1.0},
    5: {(-1, 0): 1.0, (0, 1): 1.0, (0, -1): -1.0, (1, 0): -1.0},
}


def test_closed_form_ordering():
    # rows run family 1, family 2, then families 3-5, each row-major
    positions = _closed_form_positions(2)
    assert [f for f, _, _ in positions] == [1] * 2 + [2] * 2 + [3] * 4 + [4] * 4 + [5] * 4
    for r, (f, i, k) in enumerate(positions):
        want = {(2 * i + di, 2 * k + dk): v for (di, dk), v in _FAMILY_PATTERNS[f].items()}
        assert _stencil(2, r) == want


def _digest(mat) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mat.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(mat.indices, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(mat.data, dtype=np.float64).tobytes())
    return h.hexdigest()


#: SHA-256 of (indptr, indices, data) as int64/int64/float64, frozen from
#: the closed-form strip construction: 180-degree images of the closed-form
#: rows, the corner table and its images, then the global row.
_WAVELET_MATRIX_SHA256 = {
    1: "b347495c6461104c55a36096826ef8df95a8b6518cd7b3c9a0f9399df441f03a",
    2: "5479a6bfc9f310a2983a234e94657d916c00b3392be06d7a255dcabb1051daf4",
    3: "edda63ef2267abf3725b46433aa03a75136b68e25dc0c6314eb6f1f9dbcc9b17",
    4: "a5dfdf0ce285f9ccd2606075b15d2b2538c8b821cf0de35715a6c91585c71266",
    5: "7ece37a08d74668b6fd81be1e4ffc4d8ac8e674577b28ba3cd3bece705a69651",
    6: "52fdb616e2f6ede8fc4f6dfe602986c810ecebd020f94759e2c0c175dcb1d94e",
    7: "1266c1073000e799788fc33428d38ee4c0bbee93747d05c605eaa9c142e6767b",
}


@pytest.mark.parametrize("j", sorted(_WAVELET_MATRIX_SHA256))
def test_wavelet_matrix_bits_frozen(j):
    assert _digest(prewavelet.wavelet_matrix(j)) == _WAVELET_MATRIX_SHA256[j]


@pytest.mark.parametrize("j", (0, -1))
def test_wavelet_matrix_rejects_a_level_below_one(j):
    # level 0 has no detail space to build: refused before any row is made
    with pytest.raises(ValueError, match="level must be >= 1"):
        prewavelet.wavelet_matrix(j)
    with pytest.raises(ValueError, match="level must be >= 1"):
        prewavelet.strip_wavelets(j)


@pytest.mark.parametrize("j", (1, 2, 3, 4))
def test_wavelet_matrix_rows_are_the_basis_stencils(j):
    # the strip rows close the matrix, in strip_wavelets order
    strips = prewavelet.strip_wavelets(j)
    ref = np.zeros((len(strips), mesh.n_interior(j + 1)))
    for r, w in enumerate(strips):
        for (fi, fk), v in w.stencil.items():
            ref[r, oracle.ordinal(j + 1, fi, fk)] = v
    assert np.array_equal(prewavelet.wavelet_matrix(j).toarray()[-len(strips) :], ref)


@pytest.mark.parametrize("j", (2, 3, 4, 5, 6))
def test_mirrored_strip_rows_join_the_aggregate_of_their_image(j):
    # the 180-degree image of a family-3 row is +family 4 at the image
    # position, of family 4 +family 3, of family 5 -family 5; each strip
    # row is that signed image, in the order of the rows they mirror, and
    # the translate of the closed-form row of the image family at the image
    # position clipped to the last one
    image_of = {3: (4, 1.0), 4: (3, 1.0), 5: (5, -1.0)}
    n_closed = _n_closed_form(j)
    strips = prewavelet.strip_wavelets(j)
    last = 2**j - 2
    # the strip rows open with the images of the rows touching fine index 1 or 2
    touching = [(f, i, k) for f, i, k in _closed_form_positions(j) if min(i, k) <= 1]
    checked = 0
    for r, (family, i, k) in enumerate(touching):
        if family in (1, 2):
            continue
        image_family, image_sign = image_of[family]
        pi, pk = 2**j - i, 2**j - k
        want = {
            (2 * pi + di, 2 * pk + dk): image_sign * v
            for (di, dk), v in _FAMILY_PATTERNS[image_family].items()
        }
        assert strips[r].stencil == want
        assert _stencil(j, n_closed + r) == want
        si, sk = 2 * (pi - min(pi, last)), 2 * (pk - min(pk, last))
        ref = _stencil(j, _row(j, image_family, min(pi, last), min(pk, last)))
        assert want == {(fi + si, fk + sk): image_sign * v for (fi, fk), v in ref.items()}
        checked += 1
    assert checked == 3 * (2 * (2**j - 2) - 1)
