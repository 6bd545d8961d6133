"""Built-in problem and benchmark harness tests."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

import oracle
from prewavelet_poisson import assembly, bench, linalg, mesh, prewavelet, solver


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
    nan = float("nan")
    records = [
        bench.BenchRecord("sine", "direct", 3, 49, 1.5, 0.05, nan, nan, 1e-15),
        bench.BenchRecord("exp", "cg", 4, 225, 0.7, 0.01, 0.98, 1.97, 3e-10),
    ]
    buf = io.StringIO()
    bench.write_csv(records, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    # the header is the record's field names
    assert rows[0] == [fd.name for fd in dataclasses.fields(bench.BenchRecord)]
    assert len(rows) == 1 + len(records)
    for row, record in zip(rows[1:], records):
        for text, value in zip(row, dataclasses.astuple(record)):
            if isinstance(value, float):
                # repr-written floats read back exactly, NaN as NaN
                assert float(text) == value or (math.isnan(value) and math.isnan(float(text)))
            else:
                assert text == str(value)


def test_run_benchmark_structure():
    problems = [bench.builtin_problems()["sine"]]
    records = bench.run_benchmark(problems=problems, levels=(3, 2))
    # one record per level, levels ascending
    assert [r.level for r in records] == [2, 3]
    for r in records:
        assert r.problem == "sine"
        assert r.solver == "direct"
        assert r.unknowns == mesh.n_interior(r.level)
        assert math.isfinite(r.h1_error) and math.isfinite(r.l2_error)
        assert r.ladder_vs_fem <= 1e-9
    # rates are against the previous level of the run, none on the first
    assert math.isnan(records[0].h1_rate) and math.isnan(records[0].l2_rate)
    assert records[1].h1_rate == math.log2(records[0].h1_error / records[1].h1_error)
    assert records[1].l2_rate == math.log2(records[0].l2_error / records[1].l2_error)


def test_run_benchmark_rejects_a_repeated_level():
    with pytest.raises(ValueError, match="distinct"):
        bench.run_benchmark(problems=[bench.builtin_problems()["poly"]], levels=(3, 2, 3))


def test_run_benchmark_cg_records_the_cg_ladder():
    records = bench.run_benchmark(
        problems=[bench.builtin_problems()["poly"]], levels=(2, 3), solver_name="cg"
    )
    assert [r.solver for r in records] == ["cg", "cg"]
    # the bound of every row, as for the direct ladder
    assert all(r.ladder_vs_fem <= 1e-9 for r in records)


@pytest.mark.parametrize("solver_name", ("direct", "cg"))
def test_fem_reference_is_the_library_solve(solver_name):
    # the table's ladder is the library's multilevel_solve at its default tol
    # and its FEM reference is fem_solve (direct whatever the ladder's
    # solver), bit for bit
    sine = bench.builtin_problems()["sine"]
    (record,) = bench.run_benchmark(problems=[sine], levels=(5,), solver_name=solver_name)
    assert record.solver == solver_name
    ladder = solver.multilevel_solve(5, sine.g, solver=solver_name).prolong()
    fem = solver.fem_solve(5, sine.g)
    assert record.ladder_vs_fem == np.max(np.abs(ladder - fem)) / np.max(np.abs(fem))
    assert record.h1_error == solver.h1_error(5, ladder, sine.du_dx, sine.du_dy)
    assert record.l2_error == solver.l2_error(5, ladder, sine.u)


def test_a_failed_detail_factor_gives_a_nan_row(monkeypatch):
    # a Gram that is not positive definite is a numerical failure like a
    # stalled CG: the row holds NaN instead of ending the sweep
    oracle.clear_caches()

    def failing(j):
        raise linalg.NotPositiveDefiniteError(f"non-positive pivot at level {j}")

    monkeypatch.setattr(solver, "_gram_factor", failing)
    (record,) = bench.run_benchmark(problems=[bench.builtin_problems()["sine"]], levels=(3,))
    assert (record.solver, record.level) == ("direct", 3)
    for value in (record.h1_error, record.l2_error, record.h1_rate, record.l2_rate,
                  record.ladder_vs_fem):
        assert math.isnan(value)


@pytest.fixture(scope="module")
def sine_table():
    """The direct accuracy table of the sine problem, levels 3..7."""
    return bench.run_benchmark(problems=[bench.builtin_problems()["sine"]], levels=range(3, 8))


def test_sine_table_shows_the_paper_rates(sine_table):
    # O(h) in H1 and O(h^2) in L2, and the ladder equal to FEM at every level
    for r in sine_table[1:]:
        assert 0.9 <= r.h1_rate <= 1.1, r
        assert 1.8 <= r.l2_rate <= 2.2, r
    assert all(r.ladder_vs_fem <= 1e-9 for r in sine_table)


def test_rates_divide_by_the_level_gap(sine_table):
    # over a gap of two levels the rate is the mean of the two one-level
    # rates, not their sum
    by_level = {r.level: r for r in sine_table}
    records = bench.run_benchmark(problems=[bench.builtin_problems()["sine"]], levels=(3, 5, 7))
    for r in records:
        assert (r.h1_error, r.l2_error) == (by_level[r.level].h1_error, by_level[r.level].l2_error)
    for r in records[1:]:
        one_level = [by_level[j] for j in (r.level - 1, r.level)]
        assert r.h1_rate == pytest.approx(sum(x.h1_rate for x in one_level) / 2, rel=1e-12)
        assert r.l2_rate == pytest.approx(sum(x.l2_rate for x in one_level) / 2, rel=1e-12)
        assert 0.9 <= r.h1_rate <= 1.1 and 1.8 <= r.l2_rate <= 2.2


def test_clear_caches_empties_every_cache():
    # a test that swaps a module function must rebuild everything, the CG
    # ladder's per-level matrices included
    g = bench.builtin_problems()["sine"].g
    for name in ("direct", "cg"):
        solver.multilevel_solve(3, g, solver=name, tol=1e-8)
    prewavelet.verify_orthogonality(2)
    caches = [
        f for m in (assembly, prewavelet, solver) for f in vars(m).values()
        if hasattr(f, "cache_info")
    ]
    assert all(c.cache_info().currsize for c in caches)
    oracle.clear_caches()
    assert [c for c in caches if c.cache_info().currsize] == []


def test_relative_difference_falls_back_to_absolute_on_a_zero_reference():
    # the formula of ladder_vs_fem
    assert bench.relative_difference(np.array([1.0, 0.5]), np.array([2.0, 1.0])) == 0.5
    assert bench.relative_difference(np.array([0.0, -1e-3]), np.zeros(2)) == 1e-3
