"""Command-line interface: solve, verify, and bench subcommands.

``verify`` checks the detail basis and the two-level identity; ``bench``
writes the accuracy table and is the check that the ladder reproduces FEM.
Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.  The maximum admissible level is capped by the
PREWAVELET_MAX_LEVEL environment variable (default 7).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import bench, linalg, mesh, prewavelet, quadrature, solver
from .homogenize import bilinear_lift, reconstruct

OK, VERIFY_FAILED, CONFIG_ERROR, NUMERICAL_FAILURE = 0, 1, 2, 3

_HARD_MAX_LEVEL = 12


class _ConfigError(Exception):
    pass


def _max_level() -> int:
    raw = os.environ.get("PREWAVELET_MAX_LEVEL", "7")
    try:
        cap = int(raw)
    except ValueError as exc:
        raise _ConfigError(f"PREWAVELET_MAX_LEVEL must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise _ConfigError(f"PREWAVELET_MAX_LEVEL must be >= 1, got {cap}")
    return min(cap, _HARD_MAX_LEVEL)


def _check_level(level: int) -> int:
    cap = _max_level()
    if not (1 <= level <= cap):
        raise _ConfigError(
            f"level must lie in 1..{cap} (cap from PREWAVELET_MAX_LEVEL), got {level}"
        )
    return level


def _check_tol(tol: float) -> float:
    if not (0.0 < tol < 1.0):
        raise _ConfigError(f"tolerance must lie in (0, 1), got {tol}")
    return tol


def _builtin(name: str) -> bench.TestProblem:
    """The builtin problem ``name``; any other name is a configuration error."""
    builtins = bench.builtin_problems()
    if name not in builtins:
        raise _ConfigError(
            f"unknown problem {name!r}: the builtin problems are {', '.join(sorted(builtins))}"
        )
    return builtins[name]


def _is_finite_number(value) -> bool:
    """Whether a parsed JSON value is a number that is a finite float.

    Booleans and numeric strings are not numbers, and an integer beyond the
    float range is not finite.
    """
    if type(value) is int:
        return abs(value) <= sys.float_info.max
    return type(value) is float and math.isfinite(value)


def _corner_values(corners) -> tuple[float, ...]:
    """The ``corners`` entry of a problem file as four finite floats."""
    if isinstance(corners, list) and len(corners) == 4 and all(map(_is_finite_number, corners)):
        return tuple(float(c) for c in corners)
    raise _ConfigError(f"corners must be four finite numbers [a1, a2, a3, a4], got {corners!r}")


def _load_problem_file(path: str):
    """Problem file: JSON with name, optional corner values, and a rhs.

    The rhs is either the name of a builtin right-hand side or an object
    {"values": [[...]]} of nodal samples on a (2^m + 1)^2 grid, interpolated
    piecewise-linearly; a grid level m above the level cap is a
    configuration error, as a level above it is.  Corner values [a1, a2,
    a3, a4] order the corners (0,0), (0,1), (1,1), (1,0); the boundary
    condition is their bilinear interpolant.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise _ConfigError(f"cannot read problem file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"problem file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _ConfigError(f"problem file {path} must hold a JSON object")
    name = doc.get("name", os.path.basename(path))
    a1, a2, a3, a4 = _corner_values(doc.get("corners", [0.0, 0.0, 0.0, 0.0]))
    rhs = doc.get("rhs")
    if isinstance(rhs, str):
        g = _builtin(rhs).g
    elif isinstance(rhs, dict) and "values" in rhs:
        values = rhs["values"]
        if not (
            isinstance(values, list)
            and all(isinstance(row, list) and all(map(_is_finite_number, row)) for row in values)
        ):
            raise _ConfigError(f"rhs values in {path} must be rows of finite numbers")
        try:
            g = quadrature.TabulatedFunction(values)
        except ValueError as exc:
            raise _ConfigError(f"bad tabulated rhs in {path}: {exc}") from exc
        cap = _max_level()
        if g.level > cap:
            raise _ConfigError(
                f"tabulated rhs in {path} is sampled at grid level {g.level}, above the "
                f"level cap {cap} (cap from PREWAVELET_MAX_LEVEL)"
            )
    else:
        raise _ConfigError(
            "rhs must be a builtin name or an object with nodal 'values'"
        )
    lift = bilinear_lift(a1, a2, a3, a4)
    return name, g, lift


def _write_out(path: str, write) -> None:
    """Open ``path`` for writing and hand the stream to ``write``; a path
    that cannot be written is a configuration error."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            write(f)
    except OSError as exc:
        raise _ConfigError(f"cannot write {path}: {exc}") from exc


def _cmd_solve(args: argparse.Namespace) -> int:
    level = _check_level(args.level)
    tol = _check_tol(args.tol)
    # a builtin name wins over a file of the same name
    if args.problem not in bench.builtin_problems() and (
        args.problem.endswith(".json") or os.path.exists(args.problem)
    ):
        exact = None
        name, g, lift = _load_problem_file(args.problem)
    else:
        exact = _builtin(args.problem)
        name, g, lift = exact.name, exact.g, None

    start = time.perf_counter()
    try:
        # FEM is the ladder with no detail levels
        coeffs = solver.multilevel_solve(
            level,
            g,
            quadrature.RULES[args.quad],
            base_level=level if args.method == "fem" else 1,
            solver=args.solver,
            tol=tol,
        ).prolong()
    # ValueError: the load came out non-finite (the flags are checked above)
    except (linalg.NotPositiveDefiniteError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_FAILURE
    seconds = time.perf_counter() - start

    if lift is not None:
        coeffs = reconstruct(level, coeffs, lift)
    if not np.all(np.isfinite(coeffs)):
        print("numerical failure: the solution has non-finite values", file=sys.stderr)
        return NUMERICAL_FAILURE
    _write_out(args.out, lambda f: solver.export_solution_csv(f, level, coeffs))

    summary = (
        f"problem {name}: method {args.method}, solver {args.solver}, level {level}, "
        f"{mesh.n_interior(level)} unknowns, {seconds:.3f}s -> {args.out}"
    )
    if exact is not None:
        h1 = solver.h1_error(level, coeffs, exact.du_dx, exact.du_dy)
        l2 = solver.l2_error(level, coeffs, exact.u)
        summary += f", h1 error {h1:.6e}, l2 error {l2:.6e}"
    print(summary)
    return OK


def _print_check(name: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return passed


_CHECKS = ("orthogonality", "rank", "dimensions", "identity")


def _cmd_verify(args: argparse.Namespace) -> int:
    level = _check_level(args.level)
    wanted = _CHECKS if args.check == "all" else (args.check,)
    ok = True
    if "orthogonality" in wanted:
        for j in range(1, min(level, 6) + 1):
            worst = prewavelet.verify_orthogonality(j)
            ok &= _print_check(
                f"orthogonality j={j}", worst <= 1e-12, f"max inner product {worst:.3e}"
            )
    if "rank" in wanted:
        for j in range(1, min(level, 4) + 1):
            mat = prewavelet.wavelet_matrix(j)
            expected = mesh.n_interior(j + 1) - mesh.n_interior(j)
            actual = int(np.linalg.matrix_rank(mat.toarray()))
            ok &= _print_check(
                f"rank j={j}",
                actual == expected and mat.shape[0] == expected,
                f"rank {actual}, expected {expected}",
            )
    if "dimensions" in wanted:
        j = min(level, 4)
        for n in range(1, 2**j):
            expected, actual = prewavelet.dimension_check(j, n)
            ok &= _print_check(
                f"dimensions j={j} n={n}", expected == actual, f"{actual} vs 3n^2-4n+1={expected}"
            )
    if "identity" in wanted:
        for j in range(1, min(level, 3) + 1):
            resid = solver.verify_identity(j)
            ok &= _print_check(f"identity j={j}", resid <= 1e-11, f"residual {resid:.3e}")
    return OK if ok else VERIFY_FAILED


def _parse_list(flag: str, raw: str, convert) -> tuple:
    """A comma-separated flag value, each item through ``convert``."""
    try:
        return tuple(convert(t) for t in raw.split(","))
    except ValueError as exc:
        raise _ConfigError(f"{flag} must be a comma-separated list, got {raw!r}: {exc}") from exc


def _cmd_bench(args: argparse.Namespace) -> int:
    levels = _parse_list("--levels", args.levels, int)
    for level in levels:
        _check_level(level)
    if len(set(levels)) < len(levels):
        raise _ConfigError(f"--levels must not repeat a level, got {args.levels!r}")
    problems = [_builtin(t.strip()) for t in args.problems.split(",")]
    tolerances = (None,)
    if args.solver == "cg":
        raw = "1e-8" if args.tolerances is None else args.tolerances
        tolerances = tuple(_check_tol(t) for t in _parse_list("--tolerances", raw, float))
    elif args.tolerances is not None:
        raise _ConfigError(f"--tolerances needs --solver cg, got --solver {args.solver}")
    records = bench.run_benchmark(
        problems, levels, tolerances=tolerances, rule=quadrature.RULES[args.quad]
    )
    if args.out:
        _write_out(args.out, lambda f: bench.write_csv(records, f))
        print(f"wrote {len(records)} records -> {args.out}")
    else:
        bench.write_csv(records, sys.stdout)
    if any(math.isnan(r.ladder_vs_fem) for r in records):
        print("some combinations failed (NaN rows)", file=sys.stderr)
        return NUMERICAL_FAILURE
    # the bounds perfbench checks: 1e-9 for direct solves, 10 tol for CG
    apart = [
        r for r in records
        if r.ladder_vs_fem > (1e-9 if r.tolerance is None else 10.0 * r.tolerance)
    ]
    for r in apart:
        print(
            f"ladder differs from FEM: {r.problem} level {r.level} ({r.solver}), "
            f"ladder_vs_fem {r.ladder_vs_fem:.3e}",
            file=sys.stderr,
        )
    return VERIFY_FAILED if apart else OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prewavelet-poisson",
        description="Poisson solver on the unit square with a prewavelet multiresolution ladder",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem and write the solution CSV")
    p_solve.add_argument("--level", type=int, required=True, help="refinement level")
    p_solve.add_argument(
        "--problem",
        default="sine",
        help="builtin problem name (sine, poly, exp) or a JSON problem file",
    )
    p_solve.add_argument("--method", choices=("fem", "prewavelet"), default="prewavelet")
    p_solve.add_argument("--solver", choices=("direct", "cg"), default="direct")
    p_solve.add_argument(
        "--tol",
        type=float,
        default=1e-10,
        help="relative tolerance of every stiffness solve and CG rung",
    )
    p_solve.add_argument("--quad", choices=tuple(quadrature.RULES), default="mid3")
    p_solve.add_argument("--out", default="solution.csv", help="output CSV path")
    p_solve.set_defaults(fn=_cmd_solve)

    p_verify = sub.add_parser("verify", help="run the detail-basis and two-level identity checks")
    p_verify.add_argument("--level", type=int, default=3, help="largest level to check")
    p_verify.add_argument("--check", choices=("all", *_CHECKS), default="all")
    p_verify.set_defaults(fn=_cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="write the accuracy table: errors, rates and ladder vs FEM per level"
    )
    p_bench.add_argument("--levels", default="4,5,6", help="comma-separated levels")
    p_bench.add_argument("--problems", default="sine,poly,exp", help="comma-separated names")
    p_bench.add_argument("--solver", choices=("direct", "cg"), default="direct")
    p_bench.add_argument(
        "--tolerances",
        default=None,
        help="comma-separated cg tolerances (needs --solver cg; default 1e-8)",
    )
    p_bench.add_argument("--quad", choices=tuple(quadrature.RULES), default="mid3")
    p_bench.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
