"""Boundary lifting tests.

The sign of the modified right-hand side is the part a transcription slip
would silently break, so it gets two independent checks: a closed-form
harmonic solution and a finite-difference Laplacian of the lift.
"""

import numpy as np
import pytest

from prewavelet_poisson import solver
from prewavelet_poisson.homogenize import (
    DirichletProblem,
    bilinear_lift,
    corner_values,
    homogenize,
    reconstruct,
)


def _zero(t, *rest):
    return np.zeros_like(np.asarray(t, dtype=float))


def test_bilinear_lift_corners_and_interior():
    h = bilinear_lift(1.0, 2.0, 4.0, 3.0)
    assert h(0.0, 0.0) == 1.0
    assert h(0.0, 1.0) == 2.0
    assert h(1.0, 1.0) == 4.0
    assert h(1.0, 0.0) == 3.0
    # bilinear: h = 1 + 2x + y at these corners
    assert h(0.5, 0.5) == pytest.approx(2.5)


def test_corner_values_compatible_and_not():
    p = DirichletProblem(
        g=_zero,
        bottom=lambda t: t,
        top=lambda t: 1.0 + t,
        left=lambda t: t,
        right=lambda t: 1.0 + t,
        bottom_dd=_zero,
        top_dd=_zero,
        left_dd=_zero,
        right_dd=_zero,
    )
    assert corner_values(p) == pytest.approx((0.0, 1.0, 2.0, 1.0))
    bad = DirichletProblem(
        g=_zero,
        bottom=lambda t: t,
        top=lambda t: 1.0 + t,
        left=lambda t: t + 0.5,  # disagrees with bottom at (0,0)
        right=lambda t: 1.0 + t,
        bottom_dd=_zero,
        top_dd=_zero,
        left_dd=_zero,
        right_dd=_zero,
    )
    with pytest.raises(ValueError):
        corner_values(bad)


@pytest.mark.parametrize(
    "left, bottom",
    [
        (lambda t: np.where(t == 0.0, np.nan, t), lambda t: t),  # one trace NaN at (0,0)
        (lambda t: t * np.nan, lambda t: t * np.nan),  # both NaN: no difference to compare
        (lambda t: t + np.inf, lambda t: t + np.inf),  # both infinite: inf - inf is NaN
    ],
    ids=["one-nan", "both-nan", "both-inf"],
)
def test_corner_values_reject_non_finite_traces(left, bottom):
    p = DirichletProblem(
        g=_zero,
        bottom=bottom,
        top=lambda t: 1.0 + t,
        left=left,
        right=lambda t: 1.0 + t,
        bottom_dd=_zero,
        top_dd=_zero,
        left_dd=_zero,
        right_dd=_zero,
    )
    with pytest.raises(ValueError, match="non-finite corner data at"):
        corner_values(p)


def test_modified_rhs_sign_frozen():
    # u = sin(pi x) sinh(pi (1-y)) / sinh(pi) is harmonic (g = 0) with
    # bottom trace sin(pi x); the lifted problem must carry
    # g1(x, y) = -pi^2 (1 - y) sin(pi x), with the minus sign.
    pi = np.pi
    p = DirichletProblem(
        g=_zero,
        bottom=lambda t: np.sin(pi * t),
        top=_zero,
        left=_zero,
        right=_zero,
        bottom_dd=lambda t: -(pi**2) * np.sin(pi * t),
        top_dd=_zero,
        left_dd=_zero,
        right_dd=_zero,
    )
    g1, lift = homogenize(p)
    xs = np.linspace(0.0, 1.0, 33)
    X, Y = np.meshgrid(xs, xs)
    np.testing.assert_allclose(
        g1(X, Y), -(pi**2) * (1.0 - Y) * np.sin(pi * X), rtol=0, atol=1e-12
    )
    # the lift interpolates the traces on the whole boundary
    np.testing.assert_allclose(lift(xs, np.zeros_like(xs)), np.sin(pi * xs), atol=1e-12)
    np.testing.assert_allclose(lift(xs, np.ones_like(xs)), 0.0, atol=1e-12)
    np.testing.assert_allclose(lift(np.zeros_like(xs), xs), 0.0, atol=1e-12)
    np.testing.assert_allclose(lift(np.ones_like(xs), xs), 0.0, atol=1e-12)


def test_modified_rhs_against_fd_laplacian_of_lift():
    # independent oracle: g1 - g must equal the Laplacian of the lift,
    # measured here by a 5-point finite-difference stencil
    p = DirichletProblem(
        g=lambda x, y: np.ones_like(x),
        bottom=lambda t: t**3,
        top=lambda t: np.cos(t),
        left=lambda t: np.asarray(t, dtype=float),
        right=lambda t: 1.0 + t * (np.cos(1.0) - 1.0),
        bottom_dd=lambda t: 6.0 * t,
        top_dd=lambda t: -np.cos(t),
        left_dd=_zero,
        right_dd=_zero,
    )
    g1, lift = homogenize(p)
    h = 1e-4
    rng = np.random.default_rng(5)
    for x, y in rng.uniform(0.2, 0.8, size=(20, 2)):
        lap = (
            lift(x + h, y) + lift(x - h, y) + lift(x, y + h) + lift(x, y - h)
            - 4.0 * lift(x, y)
        ) / h**2
        assert g1(x, y) - p.g(x, y) == pytest.approx(lap, abs=5e-5)


def test_involution_bilinear_solution():
    # u = xy has bilinear traces; the lift reproduces it exactly and the
    # remaining zero-boundary problem is identically zero
    p = DirichletProblem(
        g=_zero,
        bottom=_zero,
        top=lambda t: np.asarray(t, dtype=float),
        left=_zero,
        right=lambda t: np.asarray(t, dtype=float),
        bottom_dd=_zero,
        top_dd=_zero,
        left_dd=_zero,
        right_dd=_zero,
    )
    g1, lift = homogenize(p)
    xs = np.linspace(0, 1, 17)
    X, Y = np.meshgrid(xs, xs)
    assert np.max(np.abs(g1(X, Y))) == 0.0
    np.testing.assert_allclose(lift(X, Y), X * Y, atol=1e-14)
    j = 3
    w = solver.fem_solve(j, g1)
    values = reconstruct(j, w, lift)
    n = 2**j - 1
    vx = np.arange(1, n + 1) / 2**j
    vxx, vyy = np.meshgrid(vx, vx)
    np.testing.assert_allclose(values, (vxx * vyy).ravel(), atol=1e-14)


def test_involution_quadratic_traces():
    # u = x^2 - y^2 + 3 is harmonic with degree-2 traces; g1 vanishes, so
    # the round trip is exact at every grid point
    p = DirichletProblem(
        g=_zero,
        bottom=lambda t: t**2 + 3.0,
        top=lambda t: t**2 + 2.0,
        left=lambda t: 3.0 - t**2,
        right=lambda t: 4.0 - t**2,
        bottom_dd=lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
        top_dd=lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
        left_dd=lambda t: -2.0 * np.ones_like(np.asarray(t, dtype=float)),
        right_dd=lambda t: -2.0 * np.ones_like(np.asarray(t, dtype=float)),
    )
    g1, lift = homogenize(p)
    xs = np.linspace(0, 1, 9)
    X, Y = np.meshgrid(xs, xs)
    np.testing.assert_allclose(g1(X, Y), 0.0, atol=1e-12)
    j = 3
    w = solver.fem_solve(j, g1)
    values = reconstruct(j, w, lift)
    n = 2**j - 1
    vx = np.arange(1, n + 1) / 2**j
    vxx, vyy = np.meshgrid(vx, vx)
    exact = (vxx**2 - vyy**2 + 3.0).ravel()
    np.testing.assert_allclose(values, exact, rtol=1e-13)


def test_problem_without_trace_second_derivatives_is_rejected():
    # all four *_dd are required: a missing one fails when the problem is built
    with pytest.raises(TypeError):
        DirichletProblem(g=_zero, bottom=_zero, top=_zero, left=_zero, right=_zero)
    with pytest.raises(TypeError):
        DirichletProblem(
            g=_zero, bottom=_zero, top=_zero, left=_zero, right=_zero,
            bottom_dd=_zero, top_dd=_zero, left_dd=_zero,
        )


def test_reconstruct_ordering():
    # w = 0: reconstruction is the lift sampled row-major over (k, i)
    lift = bilinear_lift(0.0, 0.0, 1.0, 0.0)  # = xy
    j = 2
    values = reconstruct(j, np.zeros(9), lift)
    expect = []
    for k in range(1, 4):
        for i in range(1, 4):
            expect.append((i / 4) * (k / 4))
    np.testing.assert_allclose(values, expect, atol=1e-15)
