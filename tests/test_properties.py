"""Property tests over random tabulated right-hand sides and corner data.

Each example draws nodal samples on a dyadic grid, interpolated by
``TabulatedFunction``, and checks one of the package's exactness claims:
the direct ladder reproduces the Galerkin solution, truncating a ladder
reproduces the shorter one bit for bit, and reconstruction adds exactly the
bilinear lift of the corner data.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prewavelet_poisson import assembly, quadrature, solver
from prewavelet_poisson.homogenize import bilinear_lift, reconstruct

#: Sample values are multiples of 2^-20 in [-1, 1], so no example drives the
#: solves into subnormal numbers.
_UNIT = 2**20


@st.composite
def tabulated_rhs(draw):
    """A TabulatedFunction on a grid of 2^m + 1 samples a side, m in 1..4."""
    side = 2 ** draw(st.integers(1, 4)) + 1
    samples = draw(hnp.arrays(np.int64, (side, side), elements=st.integers(-_UNIT, _UNIT)))
    return quadrature.TabulatedFunction(samples / _UNIT)


levels = st.integers(2, 4)
corner = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_settings = settings(max_examples=25, deadline=None)


@_settings
@given(j=levels, g=tabulated_rhs())
def test_direct_ladder_equals_fem(j, g):
    direct = solver.fem_solve(j, g)
    ladder = solver.multilevel_solve(j, g).prolong()
    scale = float(np.max(np.abs(direct)))
    assert float(np.max(np.abs(ladder - direct))) <= 1e-9 * scale


@_settings
@given(top=levels, data=st.data(), g=tabulated_rhs())
def test_truncated_ladder_equals_shallower_ladder(top, data, g):
    k = data.draw(st.integers(1, top - 1), label="k")
    deep = solver.multilevel_solve(top, g)
    # the shallower ladder runs on the load restricted from the top level
    coarse = quadrature.load_vector(top, g)
    for j in range(top - 1, k - 1, -1):
        coarse = assembly.refinement_matrix(j) @ coarse
    shallow = solver.multilevel_from_load(k, coarse)
    assert np.array_equal(deep.prolong(level=k), shallow.prolong())


@_settings
@given(j=levels, g=tabulated_rhs(), corners=st.tuples(corner, corner, corner, corner))
def test_reconstruct_adds_the_bilinear_lift(j, g, corners):
    a1, a2, a3, a4 = corners
    w = solver.fem_solve(j, g)
    u = reconstruct(j, w, bilinear_lift(a1, a2, a3, a4))
    # the lift in its tensor-product form, at the interior vertices row-major
    nodes = np.arange(1, 2**j) / 2**j
    x, y = np.meshgrid(nodes, nodes)
    lift = (1 - x) * (1 - y) * a1 + (1 - x) * y * a2 + x * y * a3 + x * (1 - y) * a4
    assert np.max(np.abs((u - w) - lift.ravel())) <= 1e-12 * max(1.0, *map(abs, corners))
