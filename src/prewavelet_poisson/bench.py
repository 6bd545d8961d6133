"""Built-in test problems and the accuracy table.

Per problem and level, the load is assembled once and the prewavelet ladder
(direct or CG) is solved on it from level 1, every stiffness system to the
library's default tolerance.  The table records the H1 and L2 errors of the
prolonged ladder (degree-5 rule), their observed rates against the previous
level of the run, and ``ladder_vs_fem``: the max-norm relative difference
from single-level FEM (``fem_solve``) on the same load.  A failed solve is
recorded with NaN fields rather than aborting the sweep.
Speed is measured by ``perfbench``, not here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields
from typing import Callable

import numpy as np

from . import mesh, quadrature, solver


@dataclass(frozen=True)
class TestProblem:
    """Manufactured problem with known solution and derivatives."""

    name: str
    u: Callable
    du_dx: Callable
    du_dy: Callable
    g: Callable


def _sine() -> TestProblem:
    two_pi = 2.0 * np.pi
    return TestProblem(
        name="sine",
        u=lambda x, y: np.sin(two_pi * x) * np.sin(two_pi * y),
        du_dx=lambda x, y: two_pi * np.cos(two_pi * x) * np.sin(two_pi * y),
        du_dy=lambda x, y: two_pi * np.sin(two_pi * x) * np.cos(two_pi * y),
        g=lambda x, y: 8.0 * np.pi**2 * np.sin(two_pi * x) * np.sin(two_pi * y),
    )


def _poly() -> TestProblem:
    return TestProblem(
        name="poly",
        u=lambda x, y: x * (1.0 - x) * y * (1.0 - y),
        du_dx=lambda x, y: (1.0 - 2.0 * x) * y * (1.0 - y),
        du_dy=lambda x, y: x * (1.0 - x) * (1.0 - 2.0 * y),
        g=lambda x, y: 2.0 * x * (1.0 - x) + 2.0 * y * (1.0 - y),
    )


def _exp() -> TestProblem:
    def u(x, y):
        return x * y * (1.0 - x) * (1.0 - y) * np.exp(8.0 * x * y)

    def du_dx(x, y):
        p = x * (1.0 - x) * y * (1.0 - y)
        px = (1.0 - 2.0 * x) * y * (1.0 - y)
        return (px + 8.0 * y * p) * np.exp(8.0 * x * y)

    def du_dy(x, y):
        p = x * (1.0 - x) * y * (1.0 - y)
        py = x * (1.0 - x) * (1.0 - 2.0 * y)
        return (py + 8.0 * x * p) * np.exp(8.0 * x * y)

    def g(x, y):
        p = x * (1.0 - x) * y * (1.0 - y)
        px = (1.0 - 2.0 * x) * y * (1.0 - y)
        py = x * (1.0 - x) * (1.0 - 2.0 * y)
        pxx = -2.0 * y * (1.0 - y)
        pyy = -2.0 * x * (1.0 - x)
        return -np.exp(8.0 * x * y) * (
            pxx + pyy + 16.0 * y * px + 16.0 * x * py + 64.0 * (x**2 + y**2) * p
        )

    return TestProblem(name="exp", u=u, du_dx=du_dx, du_dy=du_dy, g=g)


def builtin_problems() -> dict[str, TestProblem]:
    """The three manufactured problems: sine, poly, exp."""
    problems = (_sine(), _poly(), _exp())
    return {p.name: p for p in problems}


@dataclass
class BenchRecord:
    """One row of the accuracy table of the ``solver`` ladder.

    The rates are ``log2(e_prev / e) / (level - prev_level)`` against the
    previous level of the run, NaN on its first level.
    """

    problem: str
    solver: str
    level: int
    unknowns: int
    h1_error: float
    l2_error: float
    h1_rate: float
    l2_rate: float
    ladder_vs_fem: float


def write_csv(records: list[BenchRecord], f) -> None:
    """Write records to the text stream ``f`` as CSV.

    The header is the :class:`BenchRecord` field names; floats are written
    via repr, so ``float`` reads them back exactly.
    """
    writer = csv.writer(f)
    writer.writerow(fd.name for fd in fields(BenchRecord))
    writer.writerows(astuple(r) for r in records)


def relative_difference(x: np.ndarray, ref: np.ndarray) -> float:
    """Max-norm difference of ``x`` from ``ref``, relative to ``ref``'s max
    norm; the absolute difference when ``ref`` is zero."""
    diff = float(np.max(np.abs(x - ref)))
    scale = float(np.max(np.abs(ref)))
    return diff / scale if scale else diff


def _accuracy(problem, level, solver_name, rule):
    """``(h1_error, l2_error, ladder_vs_fem)`` of the ladder from level 1;
    all three NaN when a solve fails."""
    load = quadrature.load_vector(level, problem.g, rule)
    try:
        ladder = solver.multilevel_from_load(level, load, solver=solver_name).prolong()
        fem = solver.multilevel_from_load(level, load, base_level=level).coarse
    except RuntimeError:
        return (math.nan,) * 3
    return (
        solver.h1_error(level, ladder, problem.du_dx, problem.du_dy),
        solver.l2_error(level, ladder, problem.u),
        relative_difference(ladder, fem),
    )


def run_benchmark(
    problems: list[TestProblem],
    levels: tuple[int, ...],
    solver_name: str = "direct",
    rule: quadrature.TriangleRule = quadrature.MID3,
) -> list[BenchRecord]:
    """The accuracy table of the ``solver_name`` ladder ("direct": factored
    detail Grams, "cg": CG corrections): one record per problem and level,
    with levels ascending.  The levels must be distinct and at least 1; the
    lowest is solved first, so a level below 1 fails its load before any solve.
    """
    levels = sorted(levels)
    if len(set(levels)) < len(levels):
        raise ValueError(f"levels must be distinct, got {levels}")
    records = []
    for p in problems:
        prev = None
        for level in levels:
            h1, l2, agreement = _accuracy(p, level, solver_name, rule)
            rates = (math.nan, math.nan) if prev is None else (
                math.log2(prev.h1_error / h1) / (level - prev.level),
                math.log2(prev.l2_error / l2) / (level - prev.level),
            )
            prev = BenchRecord(
                p.name, solver_name, level, mesh.n_interior(level), h1, l2, *rates, agreement
            )
            records.append(prev)
    return records
