"""Command-line interface tests, run in-process through main()."""

import csv
import json

import numpy as np
import pytest

import oracle
from prewavelet_poisson import bench, cli, linalg, mesh, prewavelet, solver


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("solve", "verify", "bench"):
        assert sub in out


def test_solve_writes_csv(tmp_path, capsys):
    out = tmp_path / "solution.csv"
    code = cli.main(
        ["solve", "--level", "4", "--problem", "sine", "--method", "prewavelet",
         "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["level", "i", "k", "x", "y", "value"]
    assert len(rows) == 1 + mesh.n_interior(4)
    assert "h1 error" in capsys.readouterr().out


def test_solve_methods_agree(tmp_path):
    outs = {}
    for method in ("fem", "prewavelet"):
        path = tmp_path / f"{method}.csv"
        assert cli.main(
            ["solve", "--level", "3", "--problem", "poly", "--method", method,
             "--out", str(path)]
        ) == 0
        rows = list(csv.reader(path.read_text().splitlines()))[1:]
        outs[method] = np.array([float(r[5]) for r in rows])
    np.testing.assert_allclose(outs["fem"], outs["prewavelet"], rtol=1e-9)


def test_solve_rejects_bad_level(tmp_path, capsys):
    code = cli.main(["solve", "--level", "40", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_solve_rejects_unwritable_out(tmp_path, capsys):
    code = cli.main(["solve", "--level", "3", "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_solve_honors_level_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PREWAVELET_MAX_LEVEL", "3")
    code = cli.main(["solve", "--level", "4", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("cap", ("0", "-3"))
def test_solve_rejects_a_level_cap_below_one(tmp_path, monkeypatch, capsys, cap):
    monkeypatch.setenv("PREWAVELET_MAX_LEVEL", cap)
    code = cli.main(["solve", "--level", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"PREWAVELET_MAX_LEVEL must be >= 1, got {cap}" in capsys.readouterr().err


def test_solve_rejects_unknown_problem(tmp_path, capsys):
    code = cli.main(
        ["solve", "--level", "2", "--problem", "nope", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "unknown problem" in capsys.readouterr().err


@pytest.mark.parametrize("method", ("direct", "cg"))
def test_solve_fem_writes_the_values_of_fem_solve(method, tmp_path):
    out = tmp_path / "fem.csv"
    assert cli.main(["solve", "--level", "4", "--problem", "exp", "--method", "fem",
                     "--solver", method, "--out", str(out)]) == 0
    got = np.array([float(r["value"]) for r in csv.DictReader(out.read_text().splitlines())])
    want = solver.fem_solve(4, bench.builtin_problems()["exp"].g, solver=method, tol=1e-10)
    assert np.array_equal(got, want)


def test_every_unknown_problem_name_gets_the_same_message(tmp_path, capsys):
    # solve --problem, a problem file's "rhs" and bench --problems
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"rhs": "zzz"}))
    errors = []
    for problem in ("zzz", str(path)):
        assert cli.main(["solve", "--level", "2", "--problem", problem,
                         "--out", str(tmp_path / "x.csv")]) == 2
        errors.append(capsys.readouterr().err)
    assert cli.main(["bench", "--levels", "2", "--problems", "sine,zzz"]) == 2
    errors.append(capsys.readouterr().err)
    assert errors == [
        "configuration error: unknown problem 'zzz': the builtin problems are exp, poly, sine\n"
    ] * 3


def test_solve_problem_file_with_corners(tmp_path):
    # constant corner values shift the reconstructed solution by exactly one
    doc = {"name": "shifted", "corners": [1.0, 1.0, 1.0, 1.0], "rhs": "poly"}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "shifted.csv"
    assert cli.main(["solve", "--level", "3", "--problem", str(path),
                     "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    got = np.array([float(r[5]) for r in rows])
    g = bench.builtin_problems()["poly"].g
    plain = solver.fem_solve(3, g)
    np.testing.assert_allclose(got, plain + 1.0, rtol=1e-12)


def test_solve_problem_file_with_tabulated_rhs(tmp_path):
    # nodal samples of g = 1 on a 5x5 grid reproduce the constant-rhs solve
    doc = {"name": "tab", "rhs": {"values": [[1.0] * 5 for _ in range(5)]}}
    path = tmp_path / "tab.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "tab.csv"
    assert cli.main(["solve", "--level", "2", "--problem", str(path),
                     "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    got = np.array([float(r[5]) for r in rows])
    plain = solver.fem_solve(2, lambda x, y: np.ones_like(x))
    np.testing.assert_allclose(got, plain, rtol=1e-12)


def test_solve_problem_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "--level", "2", "--problem", str(bad),
                     "--out", str(tmp_path / "x.csv")]) == 2
    bad.write_text(json.dumps({"name": "x", "rhs": "nosuch"}))
    assert cli.main(["solve", "--level", "2", "--problem", str(bad),
                     "--out", str(tmp_path / "x.csv")]) == 2
    bad.write_text(json.dumps({"name": "x", "corners": [1, 2], "rhs": "sine"}))
    assert cli.main(["solve", "--level", "2", "--problem", str(bad),
                     "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


def _solve_file(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    code = cli.main(["solve", "--level", "2", "--problem", str(path), "--out", str(out)])
    return code, out


def test_solve_rejects_non_finite_tabulated_rhs(tmp_path, capsys):
    values = [[1.0] * 5 for _ in range(5)]
    values[2][3] = float("nan")
    code, out = _solve_file(tmp_path, {"name": "nan", "rhs": {"values": values}})
    assert code == 2
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


def test_solve_rejects_a_tabulated_grid_above_the_level_cap(tmp_path, monkeypatch, capsys):
    # a 17 x 17 grid is level 4: under a cap of 3 it is refused before any
    # load is built, as --level 4 would be; at the cap it solves
    monkeypatch.setenv("PREWAVELET_MAX_LEVEL", "3")
    values = [[1.0] * 17 for _ in range(17)]
    code, out = _solve_file(tmp_path, {"name": "fine", "rhs": {"values": values}})
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and "grid level 4" in err
    assert "Traceback" not in err
    monkeypatch.setenv("PREWAVELET_MAX_LEVEL", "4")
    code, out = _solve_file(tmp_path, {"name": "fine", "rhs": {"values": values}})
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "values",
    (
        [[True, False, True], [0, 1, 0], ["1", "2", "3"]],
        [[True, False, True], [0, 1, 0], [0, 1, 0]],
        [[0, 1, 0], ["1", "2", "3"], [0, 1, 0]],
        [[0, 1, 0], [0, 10**400, 0], [0, 1, 0]],
        [1.0, 2.0, 3.0],
    ),
)
def test_solve_rejects_tabulated_rhs_that_is_not_json_numbers(tmp_path, capsys, values):
    code, out = _solve_file(tmp_path, {"name": "v", "rhs": {"values": values}})
    assert code == 2
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corners",
    (
        "1.0", {"a1": 1.0}, 3.0, [1.0, "x", 0.0, 0.0], [1.0, None, 0.0, 0.0],
        [True, 0, 0, 0], [float("inf"), 0, 0, 0], [10**400, 0, 0, 0],
    ),
)
def test_solve_rejects_malformed_corners(tmp_path, capsys, corners):
    code, out = _solve_file(tmp_path, {"name": "c", "corners": corners, "rhs": "poly"})
    assert code == 2
    assert not out.exists()
    assert "corners" in capsys.readouterr().err


def test_solve_reports_non_finite_solution(tmp_path, capsys):
    # finite corner data whose bilinear lift overflows to inf - inf
    corners = [1e308, -1e308, 1e308, -1e308]
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = _solve_file(tmp_path, {"name": "big", "corners": corners, "rhs": "poly"})
    assert code == 3
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


def test_solve_loads_a_huge_checkerboard_to_zero(tmp_path):
    # finite samples of +-1e308 finer than the level: the exact load scales
    # before it sums, and the checkerboard cancels against every coarse hat
    side = 2**4 + 1
    values = [[1e308 * (-1.0) ** (i + k) for i in range(side)] for k in range(side)]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"name": "big", "rhs": {"values": values}}))
    out = tmp_path / "out.csv"
    code = cli.main(["solve", "--level", "2", "--problem", str(path), "--method", "fem",
                     "--solver", "cg", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == mesh.n_interior(2)
    assert all(float(r["value"]) == 0.0 for r in rows)


def test_solve_reports_non_finite_load_at_once(monkeypatch, tmp_path, capsys):
    # a pole on the vertical edges at x = 1/2, where mid3 samples at level 2:
    # the load is non-finite, so CG must not be started on it
    def cg_solve(*args, **kwargs):
        raise AssertionError("cg_solve was called on a non-finite load")

    unused = lambda x, y: 0.0
    pole = bench.TestProblem("pole", unused, unused, unused, lambda x, y: 1.0 / (x - 0.5))
    monkeypatch.setattr(bench, "builtin_problems", lambda: {"pole": pole})
    monkeypatch.setattr(linalg, "cg_solve", cg_solve)
    out = tmp_path / "out.csv"
    with np.errstate(divide="ignore", invalid="ignore"):
        code = cli.main(["solve", "--level", "2", "--problem", "pole", "--method", "fem",
                         "--solver", "cg", "--out", str(out)])
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "numerical failure" in err and "non-finite" in err


@pytest.mark.parametrize(("level", "tol"), (("5", "1e-300"), ("6", "1e-16")))
def test_solve_with_an_unreachable_cg_tolerance_exits_three(level, tol, tmp_path, capsys):
    # rounding stops every rung's true residual near 2e-16..4e-16;
    # at 1e-300 r^T z also underflows to zero, which once ended in a traceback
    out = tmp_path / "out.csv"
    code = cli.main(["solve", "--level", level, "--problem", "sine", "--method", "prewavelet",
                     "--solver", "cg", "--tol", tol, "--out", str(out)])
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "numerical failure" in err and "did not reach tol" in err
    assert "Traceback" not in err


def test_verify_passes(capsys):
    assert cli.main(["verify", "--level", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_rejects_the_equivalence_check(capsys):
    # agreement with FEM is bench's gate
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--check", "equivalence"])
    assert exc.value.code == 2
    assert "invalid choice: 'equivalence'" in capsys.readouterr().err


def test_verify_single_check(capsys):
    assert cli.main(["verify", "--level", "2", "--check", "orthogonality"]) == 0
    out = capsys.readouterr().out
    assert "orthogonality" in out
    assert "identity" not in out


def _corrupt_wavelet_matrix(monkeypatch):
    """One corrupted stencil entry per level, seen by every later call."""
    original = prewavelet.wavelet_matrix

    def broken(j):
        q = original(j).tolil()
        q[0, 0] += 1.0
        return q.tocsr()

    oracle.clear_caches()
    monkeypatch.setattr(prewavelet, "wavelet_matrix", broken)


def test_verify_perturbation_is_caught(monkeypatch, capsys):
    # one corrupted stencil entry per level must fail every check that reads
    # the detail basis, through the library path each check really uses
    _corrupt_wavelet_matrix(monkeypatch)
    try:
        assert cli.main(["verify", "--level", "3"]) == 1
    finally:
        oracle.clear_caches()
    out = capsys.readouterr().out
    for check in ("orthogonality", "identity"):
        assert f"FAIL {check} j=" in out


def test_bench_refuses_a_corrupted_detail_basis(monkeypatch, capsys):
    # a corrupted detail basis still gives an SPD Gram, so every factor
    # succeeds; the direct ladder's residual check refuses its answer, and the
    # row is a failed solve
    _corrupt_wavelet_matrix(monkeypatch)
    try:
        assert cli.main(["bench", "--levels", "3", "--problems", "sine"]) == 3
    finally:
        oracle.clear_caches()
    captured = capsys.readouterr()
    (record,) = list(csv.DictReader(captured.out.splitlines()))
    assert np.isnan(float(record["ladder_vs_fem"]))
    assert "some combinations failed" in captured.err


def test_bench_exits_one_when_the_ladder_leaves_fem(monkeypatch, capsys):
    # the agreement with FEM is the gate behind the ladder's own residual
    # check: with that check switched off, a corrupted detail basis gives an
    # answer, and only the agreement with FEM can catch it
    _corrupt_wavelet_matrix(monkeypatch)
    monkeypatch.setattr(solver, "_DIRECT_RESIDUAL", np.inf)
    try:
        assert cli.main(["bench", "--levels", "3", "--problems", "sine"]) == 1
    finally:
        oracle.clear_caches()
    captured = capsys.readouterr()
    (record,) = list(csv.DictReader(captured.out.splitlines()))
    assert float(record["ladder_vs_fem"]) > 1e-9
    assert "ladder differs from FEM: sine level 3" in captured.err


def test_bench_stdout_and_file(tmp_path, capsys):
    flags = ["bench", "--levels", "2,3", "--problems", "sine"]
    assert cli.main(flags) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "bench.csv"
    assert cli.main([*flags, "--out", str(out)]) == 0
    assert "wrote 2 records" in capsys.readouterr().out
    text = out.read_text()
    # the same table either way, under the accuracy header
    assert text.splitlines() == stdout.splitlines()
    assert text.splitlines()[0] == (
        "problem,solver,level,unknowns,h1_error,l2_error,h1_rate,l2_rate,ladder_vs_fem"
    )
    records = list(csv.DictReader(text.splitlines()))
    assert [int(r["level"]) for r in records] == [2, 3]
    assert float(records[1]["ladder_vs_fem"]) <= 1e-9


def test_bench_rejects_unknown_problem(capsys):
    assert cli.main(["bench", "--levels", "2", "--problems", "zzz"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["--levels", "3,2,3"],
        ["--levels", "2,x"],
        ["--levels", "2,0"],
        ["--out", "{missing}/x.csv"],
    ],
)
def test_bench_rejects_bad_flags(flags, tmp_path, capsys):
    flags = [f.format(missing=tmp_path / "missing") for f in flags]
    assert cli.main(["bench", "--levels", "2", "--problems", "sine", *flags]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_bench_has_no_tolerance_option(capsys):
    # every row solves at the library's default tol, which the exact
    # preconditioner makes no setting at all
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--levels", "2", "--problems", "sine", "--tolerances", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerances" in capsys.readouterr().err


def test_bench_records_a_failed_solve_and_exits_three(monkeypatch, tmp_path, capsys):
    # a stiffness solve that fails is recorded with NaN fields instead of
    # ending the sweep
    def stalled(j, rhs, tol):
        raise RuntimeError(f"cg did not reach tol {tol:.3g}")

    monkeypatch.setattr(solver, "_solve", stalled)
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", "--levels", "3", "--problems", "sine", "--solver", "cg",
                     "--out", str(out)])
    assert code == 3
    assert "some combinations failed" in capsys.readouterr().err
    with out.open(newline="") as f:
        (record,) = list(csv.DictReader(f))
    assert (record["solver"], record["level"]) == ("cg", "3")
    for field in ("h1_error", "l2_error", "h1_rate", "l2_rate", "ladder_vs_fem"):
        assert np.isnan(float(record[field]))
