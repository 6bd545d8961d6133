"""The package's public surface: its modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_module_import_gives_the_module():
    # the package re-exports nothing, so no function shadows its module
    from prewavelet_poisson import homogenize

    assert homogenize is sys.modules["prewavelet_poisson.homogenize"]
    assert callable(homogenize.DirichletProblem)
    assert callable(homogenize.homogenize)


def test_importing_solver_does_not_load_bench():
    code = (
        "import json, sys; import prewavelet_poisson.solver as s; "
        "print(json.dumps([s.__file__, sorted(sys.modules)]))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    path, loaded = json.loads(out)
    assert Path(path).resolve().parent == SRC / "prewavelet_poisson"
    assert "prewavelet_poisson.bench" not in loaded
