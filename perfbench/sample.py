"""One cold sample of a workload, in its own process.

Run by ``run.py``; prints one JSON object on its last output line.  The
clock starts after the imports, so the package's caches are empty and set-up
pays for mesh, assembly, basis build, Gram, factor and the first solve.  Then
the sample solves fresh seeded right-hand sides until its deadline.  Every
solution is checked outside the timed region; an exception or a failed check
counts as a failed solve.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

assembly, homogenize, prewavelet, quadrature, solver = spans.modules(
    "assembly", "homogenize", "prewavelet", "quadrature", "solver"
)

#: Warm solves a sample makes even when set-up ran past its deadline.
MIN_WARM = 1
#: Relative max difference allowed between a direct ladder and fem_solve.
LADDER_DIRECT_BOUND = 1e-9
#: Relative max difference allowed for a CG ladder, in units of its tol
#: (about 0.5 is observed at tol 1e-10).
LADDER_CG_BOUND_PER_TOL = 10.0
#: True relative residual allowed for a FEM solution.
FEM_RESIDUAL_BOUND = 1e-9
#: Largest coarse-hat/detail inner product allowed in a built basis.
ORTHOGONALITY_BOUND = 1e-12


def inputs(w: Workload, seed: int, index: int):
    """Seeded right-hand sides: nodal samples on the (2^L+1)^2 grid and the
    four corner values (0,0), (0,1), (1,1), (1,0) of the boundary data."""
    rng = np.random.default_rng([seed, index])
    side = 2**w.level + 1
    while True:
        yield rng.uniform(-1.0, 1.0, (side, side)), rng.uniform(-1.0, 1.0, 4)


def solve(w: Workload, values: np.ndarray, corners: np.ndarray):
    """The timed call: zero-trace solution w and reconstructed u = w + lift."""
    g = quadrature.TabulatedFunction(values)
    lift = homogenize.bilinear_lift(*corners)
    if w.method == "fem":
        zero_trace = solver.fem_solve(w.level, g, solver=w.solver, tol=w.tol)
    else:
        ladder = solver.multilevel_solve(w.level, g, solver=w.solver, tol=w.tol)
        zero_trace = ladder.prolong()
    return zero_trace, homogenize.reconstruct(w.level, zero_trace, lift)


def check(w: Workload, values, corners, zero_trace, u) -> str | None:
    """None if the solution is right, else what is wrong with it."""
    if not (np.all(np.isfinite(zero_trace)) and np.all(np.isfinite(u))):
        return "non-finite solution"
    g = quadrature.TabulatedFunction(values)
    if w.method == "fem":
        load = quadrature.load_vector(w.level, g)
        res = np.linalg.norm(load - assembly.stiffness_matrix(w.level) @ zero_trace)
        rel = res / np.linalg.norm(load)
        if not rel <= FEM_RESIDUAL_BOUND:
            return f"relative residual {rel:.3g} > {FEM_RESIDUAL_BOUND:g}"
    else:
        ref = solver.fem_solve(w.level, g)
        rel = np.max(np.abs(zero_trace - ref)) / np.max(np.abs(ref))
        bound = LADDER_DIRECT_BOUND if w.solver == "direct" else LADDER_CG_BOUND_PER_TOL * w.tol
        if not rel <= bound:
            return f"ladder differs from fem_solve by {rel:.3g} > {bound:g}"
    # the bilinear lift at the interior vertices, row-major, computed here
    a1, a2, a3, a4 = corners
    n = 2**w.level - 1
    x, y = np.meshgrid(np.arange(1, n + 1) / 2**w.level, np.arange(1, n + 1) / 2**w.level)
    lift = (a1 + (a4 - a1) * x + (a2 - a1) * y + (a3 + a1 - a4 - a2) * x * y).ravel()
    off = np.max(np.abs(u - zero_trace - lift))
    if not off <= 1e-12:
        return f"reconstruction off the lift by {off:.3g}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--deadline", type=float, required=True, help="time.time() to stop at")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="JSON-lines file for the spans of a traced sample")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    stream = inputs(w, args.seed, args.index)
    errors: list[str] = []

    def checked(values, corners, result) -> None:
        if tracer is not None:
            tracer.phase = "check"
        problem = check(w, values, corners, *result)
        if problem is not None:
            errors.append(problem)

    values, corners = next(stream)
    start = time.perf_counter()
    first = solve(w, values, corners)
    setup_s = time.perf_counter() - start
    checked(values, corners, first)
    if w.method == "ladder":
        for j in range(1, w.level):
            ortho = prewavelet.verify_orthogonality(j)
            if not ortho <= ORTHOGONALITY_BOUND:
                errors.append(f"orthogonality {ortho:.3g} at level {j}")
    # the gate must reject a wrong answer, or no result of this run means anything
    wrong = (first[0] * (1 + 1e-6), first[1] * (1 + 1e-6))
    if check(w, values, corners, *wrong) is None:
        print("correctness check accepted a perturbed solution", file=sys.stderr)
        return 1

    latencies: list[float] = []
    attempted = 1
    while time.time() < args.deadline or len(latencies) < MIN_WARM:
        values, corners = next(stream)
        if tracer is not None:
            tracer.phase = f"solve:{len(latencies)}"
        attempted += 1
        start = time.perf_counter()
        try:
            result = solve(w, values, corners)
        except Exception as exc:  # a failed solve is counted, and the sample goes on
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - start)
        checked(values, corners, result)

    report = {
        "setup_s": setup_s,
        "solve_s": latencies,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        report["trace"] = spans.summarize(tracer.spans, setup_s, latencies)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
