"""The benchmark's workloads and the memory each one needs.

Plain Python with no third-party imports, so the driver (``run.py``) can
check a workload against the machine's free memory before any sample
process is started.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration.

    method is ``ladder`` (``solver.multilevel_solve`` then ``prolong``) or
    ``fem`` (``solver.fem_solve``); solver and tol are passed through to it.
    samples is the number of cold sample processes a run splits its time
    into: each one pays the full set-up once, so a workload with a long
    set-up gets fewer of them.  Why each workload is there is recorded in
    ``BENCHMARK.json``.
    """

    name: str
    level: int
    method: str
    solver: str
    tol: float
    samples: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder_direct_l7", 7, "ladder", "direct", 1e-12, 2),
        Workload("ladder_cg_l7", 7, "ladder", "cg", 1e-10, 4),
        Workload("fem_direct_l9", 9, "fem", "direct", 1e-12, 2),
    )
}


def detail_dim(j: int) -> int:
    """Size of the level-``j`` detail Gram: ``N_{j+1} - N_j``."""
    return 3 * 4**j - 2 ** (j + 1)


def stiffness_dim(j: int) -> int:
    return (2**j - 1) ** 2


def _banded_bytes(j: int) -> int:
    # band array plus its factor: (half bandwidth + 1) rows of length n each
    return 2 * 8 * 2**j * stiffness_dim(j)


def factor_bytes_estimate(w: Workload) -> int:
    """Computed peak bytes of the factors a sample of ``w`` holds.

    Every workload factors the stiffness matrix of its level in banded form:
    the FEM workload to solve, the ladders to check their answers against
    the direct solution.  The direct ladder
    adds one factor per detail Gram, taken as dense (the globally supported
    strip function gives every detail Gram a bandwidth of nearly its size),
    all of them kept, plus a transient dense copy of the largest.
    """
    total = _banded_bytes(w.level)
    if w.method == "ladder" and w.solver == "direct":
        dims = [detail_dim(j) for j in range(1, w.level)]
        total += sum(8 * n * n for n in dims) + 8 * dims[-1] ** 2
    return total


def system_label(n: int) -> str:
    """Name of the linear system of size ``n``: ``j6`` for a detail Gram,
    ``stiffness.j9`` for a stiffness matrix (detail sizes are even, stiffness
    sizes odd, so the two never collide)."""
    for j in range(1, 16):
        if n == detail_dim(j):
            return f"j{j}"
        if n == stiffness_dim(j):
            return f"stiffness.j{j}"
    return f"n{n}"
