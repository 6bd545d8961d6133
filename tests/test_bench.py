"""Built-in problem and benchmark harness tests."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from prewavelet_poisson import assembly, bench, mesh, prewavelet, quadrature, solver


def test_builtin_problem_names():
    problems = bench.builtin_problems()
    assert sorted(problems) == ["exp", "poly", "sine"]
    for name, p in problems.items():
        assert p.name == name


def test_sine_frozen_values():
    p = bench.builtin_problems()["sine"]
    assert p.u(0.25, 0.25) == pytest.approx(1.0, rel=1e-14)
    assert p.u(0.5, 0.5) == pytest.approx(0.0, abs=1e-14)
    assert p.g(0.25, 0.25) == pytest.approx(8.0 * math.pi**2, rel=1e-13)


def test_poly_frozen_values():
    p = bench.builtin_problems()["poly"]
    assert p.g(0.5, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert p.u(0.5, 0.5) == pytest.approx(1.0 / 16.0, rel=1e-14)
    assert p.du_dx(0.5, 0.25) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("name", ("sine", "poly", "exp"))
def test_problem_consistency_by_finite_differences(name):
    # derivatives and rhs must match u: checked with central differences,
    # so a typo in any closed form cannot survive
    p = bench.builtin_problems()[name]
    rng = np.random.default_rng(13)
    h = 1e-5
    for x, y in rng.uniform(0.1, 0.9, size=(12, 2)):
        scale = max(1.0, abs(p.u(x, y)))
        dx = (p.u(x + h, y) - p.u(x - h, y)) / (2 * h)
        dy = (p.u(x, y + h) - p.u(x, y - h)) / (2 * h)
        assert dx == pytest.approx(p.du_dx(x, y), rel=1e-5, abs=1e-6 * scale)
        assert dy == pytest.approx(p.du_dy(x, y), rel=1e-5, abs=1e-6 * scale)
    h = 1e-4
    for x, y in rng.uniform(0.1, 0.9, size=(12, 2)):
        lap = (
            p.u(x + h, y) + p.u(x - h, y) + p.u(x, y + h) + p.u(x, y - h)
            - 4.0 * p.u(x, y)
        ) / h**2
        scale = max(1.0, abs(lap))
        assert -lap == pytest.approx(p.g(x, y), rel=1e-4, abs=1e-4 * scale)


def test_zero_boundary_traces():
    for p in bench.builtin_problems().values():
        ts = np.linspace(0, 1, 17)
        for edge in (
            p.u(ts, np.zeros_like(ts)),
            p.u(ts, np.ones_like(ts)),
            p.u(np.zeros_like(ts), ts),
            p.u(np.ones_like(ts), ts),
        ):
            np.testing.assert_allclose(edge, 0.0, atol=1e-12)


def test_csv_round_trip():
    records = [
        bench.BenchRecord("sine", "fem", "direct", 3, None, 49, 0.1, 0.2, 0.3, 1.5, 0.05),
        bench.BenchRecord("exp", "prewavelet", "cg", 4, 1e-9, 225, 0.4, 0.5, 0.9, 0.7, 0.01),
    ]
    buf = io.StringIO()
    bench.write_csv(records, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    # the header is the record's field names
    assert rows[0] == [fd.name for fd in dataclasses.fields(bench.BenchRecord)]
    assert len(rows) == 1 + len(records)
    # None tolerance serializes as an empty field
    assert rows[1][4] == ""
    for row, record in zip(rows[1:], records):
        for text, value in zip(row, dataclasses.astuple(record)):
            if isinstance(value, float):
                # repr-written floats read back exactly
                assert float(text) == value
            elif value is not None:
                assert text == str(value)


def test_run_benchmark_structure():
    problems = [bench.builtin_problems()["sine"]]
    records = bench.run_benchmark(
        problems=problems, levels=(2, 3), methods=("fem", "prewavelet"),
        solvers=("direct",), repetitions=1,
    )
    assert len(records) == 4
    for r in records:
        assert r.problem == "sine"
        assert r.unknowns == mesh.n_interior(r.level)
        assert r.total_s > 0.0
        assert r.tolerance is None
        assert math.isfinite(r.h1_error)
    # both methods solve the same discrete problem, so errors agree
    by_key = {(r.method, r.level): r for r in records}
    for level in (2, 3):
        fem = by_key[("fem", level)]
        pre = by_key[("prewavelet", level)]
        assert fem.h1_error == pytest.approx(pre.h1_error, rel=1e-9)


def test_run_benchmark_cg_needs_tolerances():
    with pytest.raises(ValueError):
        bench.run_benchmark(
            problems=[bench.builtin_problems()["poly"]],
            levels=(2,), methods=("fem",), solvers=("cg",), tolerances=(),
            repetitions=1,
        )


def test_run_benchmark_cg_records_tolerance():
    records = bench.run_benchmark(
        problems=[bench.builtin_problems()["poly"]],
        levels=(2,), methods=("fem",), solvers=("cg",),
        tolerances=(1e-8, 1e-10), repetitions=1,
    )
    assert [r.tolerance for r in records] == [1e-8, 1e-10]


@pytest.mark.parametrize("solver_name, tol", [("direct", None), ("cg", 1e-10)])
def test_fem_pass_times_the_library_solve(solver_name, tol):
    # the timed FEM pass is the library's fem_solve, bit for bit
    sine = bench.builtin_problems()["sine"]
    _, _, coeffs = bench._pass(sine, 5, "fem", solver_name, tol, quadrature.MID3)
    kwargs = {} if tol is None else {"solver": solver_name, "tol": tol}
    expected = solver.fem_solve(5, sine.g, **kwargs)
    assert np.array_equal(coeffs, expected)


def test_speedup_summary_pairs_methods():
    records = [
        bench.BenchRecord("sine", "fem", "direct", 3, None, 49, 0.1, 0.2, 0.3, 1.0, 0.1),
        bench.BenchRecord("sine", "prewavelet", "direct", 3, None, 49, 0.1, 0.05, 0.15, 1.0, 0.1),
    ]
    lines = bench.speedup_summary(records)
    assert len(lines) == 1
    assert "sine" in lines[0] and "2.0" in lines[0]


def test_clear_caches_empties_every_cache():
    # a cold pass must rebuild everything, the CG coarse spaces included
    g = bench.builtin_problems()["sine"].g
    for name in ("direct", "cg"):
        solver.multilevel_solve(3, g, solver=name, tol=1e-8)
    prewavelet.verify_orthogonality(2)
    caches = [
        f for m in (assembly, prewavelet, solver) for f in vars(m).values()
        if hasattr(f, "cache_info")
    ]
    assert solver._coarse in caches
    assert all(c.cache_info().currsize for c in caches)
    bench._clear_caches()
    assert [c for c in caches if c.cache_info().currsize] == []
