"""Reduction of inhomogeneous Dirichlet data to the zero-trace problem.

Given -laplace(u) = g with boundary traces bottom/top/left/right, subtract
an explicit lift L carrying the boundary data: L is the bilinear interpolant
of the corner values plus the four edge corrections, linear in the direction
transverse to each edge.  Then w = u - L has zero trace and solves
-laplace(w) = g1 with

    g1 = g + laplace(L)
       = g + x right''(y) + (1-x) left''(y) + y top''(x) + (1-y) bottom''(x),

since the bilinear part and the transverse-linear weights drop out of the
second derivatives.  All four trace second derivatives are supplied by the
caller; a problem without them cannot be built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Trace = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DirichletProblem:
    """Poisson problem with inhomogeneous Dirichlet data on the unit square.

    g is the source term g(x, y).  The traces are functions of the running
    coordinate: bottom(x) on y=0, top(x) on y=1, left(y) on x=0,
    right(y) on x=1.  The ``*_dd`` entries are their second derivatives,
    all four required.  All callables must accept numpy arrays.
    """

    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bottom: Trace
    top: Trace
    left: Trace
    right: Trace
    bottom_dd: Trace
    top_dd: Trace
    left_dd: Trace
    right_dd: Trace


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


def corner_values(problem: DirichletProblem) -> tuple[float, float, float, float]:
    """Corner values (a1..a4) with a trace-compatibility check.

    The two traces meeting at each corner must agree there to within
    1e-9; mismatches raise ValueError since no continuous solution can
    match incompatible data, and so does a trace that is not finite there.
    """
    pairs = (
        ("(0,0)", float(problem.bottom(0.0)), float(problem.left(0.0))),
        ("(0,1)", float(problem.left(1.0)), float(problem.top(0.0))),
        ("(1,1)", float(problem.top(1.0)), float(problem.right(1.0))),
        ("(1,0)", float(problem.right(0.0)), float(problem.bottom(1.0))),
    )
    values = []
    for name, first, second in pairs:
        if not (np.isfinite(first) and np.isfinite(second)):
            raise ValueError(f"non-finite corner data at {name}: {first!r} and {second!r}")
        if abs(first - second) > 1e-9:
            raise ValueError(
                f"incompatible corner data at {name}: traces give {first!r} and {second!r}"
            )
        values.append(first)
    return tuple(values)


def homogenize(problem: DirichletProblem):
    """Split an inhomogeneous problem into (g1, L).

    Returns the homogenized source g1 and the lift L; the zero-trace
    solution w of -laplace(w) = g1 reconstructs u = w + L.
    """
    a1, a2, a3, a4 = corner_values(problem)
    h = bilinear_lift(a1, a2, a3, a4)

    def lift(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        # bilinear part plus edge corrections; the edge restrictions of the
        # bilinear part are subtracted so corners are not counted twice
        return (
            h(x, y)
            + x * (np.asarray(problem.right(y), dtype=float) - (a4 + (a3 - a4) * y))
            + (1.0 - x) * (np.asarray(problem.left(y), dtype=float) - (a1 + (a2 - a1) * y))
            + y * (np.asarray(problem.top(x), dtype=float) - (a2 + (a3 - a2) * x))
            + (1.0 - y) * (np.asarray(problem.bottom(x), dtype=float) - (a1 + (a4 - a1) * x))
        )

    def g1(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (
            np.asarray(problem.g(x, y), dtype=float)
            + x * np.asarray(problem.right_dd(y), dtype=float)
            + (1.0 - x) * np.asarray(problem.left_dd(y), dtype=float)
            + y * np.asarray(problem.top_dd(x), dtype=float)
            + (1.0 - y) * np.asarray(problem.bottom_dd(x), dtype=float)
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
