"""Built-in test problems and the timing harness.

Timed passes rebuild everything from scratch (caches cleared), separate
assembly from solve time, and take medians over repetitions after one
discarded warm-up pass.  The prewavelet method is timed cumulatively over
its whole ladder, construction included, because that is how the
multiresolution sweep is used.  FEM is the same ladder with no detail
levels, so for both methods the solve phase is the library's own
``solver.multilevel_from_load`` and prolongation.  Errors are measured
afterwards, outside the timed region, with the degree-5 rule.  A failed
solve is recorded with NaN in the timing and error fields rather than
aborting the sweep.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import astuple, dataclass, fields
from typing import Callable

import numpy as np

from . import assembly, linalg, mesh, prewavelet, quadrature, solver


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
    """One benchmark combination; tolerance is None for direct solves."""

    problem: str
    method: str
    solver: str
    level: int
    tolerance: float | None
    unknowns: int
    assemble_s: float
    solve_s: float
    total_s: float
    h1_error: float
    l2_error: float


def write_csv(records: list[BenchRecord], f) -> None:
    """Write records to the text stream ``f`` as CSV.

    The header is the :class:`BenchRecord` field names; floats are written
    via repr (so ``float`` reads them back exactly) and a None tolerance as
    an empty field.
    """
    writer = csv.writer(f)
    writer.writerow(fd.name for fd in fields(BenchRecord))
    writer.writerows(astuple(r) for r in records)


def _clear_caches() -> None:
    """Empty every ``lru_cache`` of the modules a pass runs."""
    for module in (assembly, linalg, mesh, prewavelet, quadrature, solver):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()


_METHODS = ("fem", "prewavelet")


def _pass(problem, level, method, solver_name, tol, rule):
    """One cold pass: (assemble seconds, solve seconds, nodal coefficients).

    FEM is the ladder with no detail levels, so both methods time the
    library's ``multilevel_from_load`` and prolongation.
    """
    base = level if method == "fem" else 1
    _clear_caches()
    t0 = time.perf_counter()
    rhs = quadrature.load_vector(level, problem.g, rule)
    # build the cached matrices here, so the solve phase is the ladder alone
    assembly.stiffness_matrix(base)
    for j in range(base, level):
        assembly.refinement_matrix(j)
        prewavelet.wavelet_matrix(j)
        prewavelet.wavelet_gram(j)
    t1 = time.perf_counter()
    coeffs = solver.multilevel_from_load(
        level, rhs, base_level=base, solver=solver_name, tol=tol
    ).prolong()
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, coeffs


def _run_combo(problem, level, method, solver_name, tol, rule, repetitions):
    """One record; a failed solve gives NaN timings and errors."""
    try:
        _pass(problem, level, method, solver_name, tol, rule)  # warm-up, discarded
        assemble, solve_t, total = [], [], []
        coeffs = None
        for _ in range(repetitions):
            a_s, s_s, coeffs = _pass(problem, level, method, solver_name, tol, rule)
            assemble.append(a_s)
            solve_t.append(s_s)
            total.append(a_s + s_s)
        measured = (
            statistics.median(assemble),
            statistics.median(solve_t),
            statistics.median(total),
            solver.h1_error(level, coeffs, problem.du_dx, problem.du_dy),
            solver.l2_error(level, coeffs, problem.u),
        )
    except (linalg.NotPositiveDefiniteError, RuntimeError):
        measured = (float("nan"),) * 5
    return BenchRecord(
        problem.name,
        method,
        solver_name,
        level,
        None if solver_name == "direct" else tol,
        mesh.n_interior(level),
        *measured,
    )


def run_benchmark(
    problems: list[TestProblem] | None = None,
    levels: tuple[int, ...] = (4, 5, 6),
    methods: tuple[str, ...] = _METHODS,
    solvers: tuple[str, ...] = ("direct",),
    tolerances: tuple[float, ...] = (),
    repetitions: int = 3,
    rule: quadrature.TriangleRule = quadrature.MID3,
) -> list[BenchRecord]:
    """Time every combination, one after another, and return one record each.

    Combinations are problems x levels x methods x solver settings, where
    direct contributes one setting and cg one per tolerance.
    """
    if problems is None:
        problems = list(builtin_problems().values())
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    settings = []
    for s in solvers:
        if s == "direct":
            settings.append(("direct", None))
        elif s == "cg":
            if not tolerances:
                raise ValueError("cg benchmarking needs at least one tolerance")
            settings.extend(("cg", t) for t in tolerances)
        else:
            raise ValueError(f"solver must be 'direct' or 'cg', got {s!r}")
    combos = [
        (p, level, m, s, t)
        for p in problems
        for level in levels
        for m in methods
        for (s, t) in settings
    ]
    for _, level, m, _, _ in combos:
        if m not in _METHODS:
            raise ValueError(f"method must be one of {sorted(_METHODS)}, got {m!r}")
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
    records = [
        _run_combo(p, level, m, s, t, rule, repetitions)
        for (p, level, m, s, t) in combos
    ]
    _clear_caches()
    return records


def speedup_summary(records: list[BenchRecord]) -> list[str]:
    """Direct-FEM vs cumulative-prewavelet total time per problem and level."""
    lines = []
    by_key = {}
    for r in records:
        by_key[(r.problem, r.level, r.method, r.solver, r.tolerance)] = r
    seen = sorted({(r.problem, r.level, r.solver, r.tolerance) for r in records})
    for problem, level, solver_name, tol in seen:
        fem = by_key.get((problem, level, "fem", solver_name, tol))
        pre = by_key.get((problem, level, "prewavelet", solver_name, tol))
        if fem is None or pre is None:
            continue
        ratio = fem.total_s / pre.total_s if pre.total_s else math.inf
        lines.append(
            f"{problem} level {level} ({solver_name}): "
            f"fem {fem.total_s:.6f}s / prewavelet {pre.total_s:.6f}s = {ratio:.3f}"
        )
    return lines
