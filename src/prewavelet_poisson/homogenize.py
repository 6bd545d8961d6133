"""Reduction of inhomogeneous Dirichlet data to the zero-trace problem.

Given -laplace(u) = g with boundary traces bottom/top/left/right, subtract
an explicit lift L carrying the boundary data: L is the bilinear interpolant
of the corner values plus the four edge corrections, linear in the direction
transverse to each edge.  Then w = u - L has zero trace and solves
-laplace(w) = g1 with

    g1 = g + laplace(L)
       = g + x right''(y) + (1-x) left''(y) + y top''(x) + (1-y) bottom''(x),

since the bilinear part and the transverse-linear weights drop out of the
second derivatives.  Trace second derivatives are supplied by the caller;
a central finite-difference fallback (step ``FD_STEP``) can be enabled
instead, at the cost of roughly eight digits of accuracy in g1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Trace = Callable[[np.ndarray], np.ndarray]

#: Step of the central second differences that stand in for missing trace
#: second derivatives when ``homogenize`` is asked to fall back on them.
FD_STEP = 1e-5


@dataclass(frozen=True)
class DirichletProblem:
    """Poisson problem with inhomogeneous Dirichlet data on the unit square.

    g is the source term g(x, y).  The traces are functions of the running
    coordinate: bottom(x) on y=0, top(x) on y=1, left(y) on x=0,
    right(y) on x=1.  The optional ``*_dd`` entries are their second
    derivatives; leave them None to use the finite-difference fallback of
    :func:`homogenize`.  All callables must accept numpy arrays.
    """

    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bottom: Trace
    top: Trace
    left: Trace
    right: Trace
    bottom_dd: Trace | None = None
    top_dd: Trace | None = None
    left_dd: Trace | None = None
    right_dd: Trace | None = None


def bilinear_lift(a1: float, a2: float, a3: float, a4: float):
    """Bilinear interpolant of corner values.

    Corners are ordered a1 = (0,0), a2 = (0,1), a3 = (1,1), a4 = (1,0):

        h(x, y) = a1 + (a4 - a1) x + (a2 - a1) y + (a3 + a1 - a4 - a2) x y
    """

    def h(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return a1 + (a4 - a1) * x + (a2 - a1) * y + (a3 + a1 - a4 - a2) * x * y

    return h


def corner_values(problem: DirichletProblem, tol: float = 1e-9) -> tuple[float, float, float, float]:
    """Corner values (a1..a4) with a trace-compatibility check.

    The two traces meeting at each corner must agree there to within
    ``tol``; mismatches raise ValueError since no continuous solution can
    match incompatible data.
    """
    pairs = (
        ("(0,0)", float(problem.bottom(0.0)), float(problem.left(0.0))),
        ("(0,1)", float(problem.left(1.0)), float(problem.top(0.0))),
        ("(1,1)", float(problem.top(1.0)), float(problem.right(1.0))),
        ("(1,0)", float(problem.right(0.0)), float(problem.bottom(1.0))),
    )
    values = []
    for name, first, second in pairs:
        if abs(first - second) > tol:
            raise ValueError(
                f"incompatible corner data at {name}: traces give {first!r} and {second!r}"
            )
        values.append(first)
    return tuple(values)


def _fd_second(f: Trace) -> Trace:
    """Clamped central second difference; O(FD_STEP) near 0 and 1, O(FD_STEP^2) inside."""

    def dd(t):
        tc = np.clip(np.asarray(t, dtype=float), FD_STEP, 1.0 - FD_STEP)
        return (np.asarray(f(tc - FD_STEP), dtype=float) - 2.0 * np.asarray(f(tc), dtype=float)
                + np.asarray(f(tc + FD_STEP), dtype=float)) / FD_STEP**2

    return dd


def homogenize(problem: DirichletProblem, fd_fallback: bool = False):
    """Split an inhomogeneous problem into (g1, L).

    Returns the homogenized source g1 and the lift L; the zero-trace
    solution w of -laplace(w) = g1 reconstructs u = w + L.  Missing trace
    second derivatives raise ValueError unless ``fd_fallback`` is set, in
    which case central differences with step ``FD_STEP`` stand in.
    """
    a1, a2, a3, a4 = corner_values(problem)

    dds = []
    for name in ("bottom_dd", "top_dd", "left_dd", "right_dd"):
        dd = getattr(problem, name)
        if dd is None:
            if not fd_fallback:
                raise ValueError(
                    f"problem has no {name}; supply it or pass fd_fallback=True"
                )
            dd = _fd_second(getattr(problem, name[:-3]))
        dds.append(dd)
    bottom_dd, top_dd, left_dd, right_dd = dds

    bottom, top, left, right = problem.bottom, problem.top, problem.left, problem.right

    def lift(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        # bilinear part plus edge corrections; the edge restrictions of the
        # bilinear part are subtracted so corners are not counted twice
        h = a1 + (a4 - a1) * x + (a2 - a1) * y + (a3 + a1 - a4 - a2) * x * y
        return (
            h
            + x * (np.asarray(right(y), dtype=float) - (a4 + (a3 - a4) * y))
            + (1.0 - x) * (np.asarray(left(y), dtype=float) - (a1 + (a2 - a1) * y))
            + y * (np.asarray(top(x), dtype=float) - (a2 + (a3 - a2) * x))
            + (1.0 - y) * (np.asarray(bottom(x), dtype=float) - (a1 + (a4 - a1) * x))
        )

    g = problem.g

    def g1(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (
            np.asarray(g(x, y), dtype=float)
            + x * np.asarray(right_dd(y), dtype=float)
            + (1.0 - x) * np.asarray(left_dd(y), dtype=float)
            + y * np.asarray(top_dd(x), dtype=float)
            + (1.0 - y) * np.asarray(bottom_dd(x), dtype=float)
        )

    return g1, lift


def reconstruct(j: int, w_values: np.ndarray, lift) -> np.ndarray:
    """Add the lift back onto zero-trace nodal values at the level-j vertices.

    ``w_values`` is a vector over the interior vertices in row-major order;
    the result is u = w + L at those same vertices.
    """
    w_values = np.asarray(w_values, dtype=float)
    n = 2**j - 1
    if w_values.shape != (n * n,):
        raise ValueError(
            f"expected {n * n} interior values for level {j}, got shape {w_values.shape}"
        )
    coords = np.arange(1, n + 1) / 2**j
    x, y = np.meshgrid(coords, coords, indexing="xy")
    return w_values + np.asarray(lift(x.ravel(), y.ravel()), dtype=float)
