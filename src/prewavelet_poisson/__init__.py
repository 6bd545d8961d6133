"""Multilevel prewavelet solver for the Dirichlet Poisson problem.

The package solves -laplace(u) = g on the unit square with piecewise-linear
finite elements on nested Type-1 triangulations, either directly at one
level or as a coarse solve plus a ladder of H1-orthogonal detail (prewavelet)
corrections whose sum reproduces the fine-level solution.
"""

from .assembly import cross_level_gram, refinement_matrix, stiffness_matrix
from .bench import BenchRecord, TestProblem, builtin_problems, run_benchmark
from .homogenize import DirichletProblem, bilinear_lift, homogenize, reconstruct
from .linalg import CholeskyFactor, NotPositiveDefiniteError, SolverReport, cg_solve
from .mesh import n_interior
from .prewavelet import (
    WaveletSpec,
    dimension_check,
    strip_wavelets,
    verify_orthogonality,
    wavelet_gram,
    wavelet_matrix,
)
from .quadrature import GAUSS7, MID3, TabulatedFunction, TriangleRule, load_vector
from .solver import (
    MultilevelSolution,
    export_solution_csv,
    fem_solve,
    h1_error,
    l2_error,
    multilevel_solve,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "CholeskyFactor",
    "DirichletProblem",
    "GAUSS7",
    "MID3",
    "MultilevelSolution",
    "NotPositiveDefiniteError",
    "SolverReport",
    "TabulatedFunction",
    "TestProblem",
    "TriangleRule",
    "WaveletSpec",
    "bilinear_lift",
    "builtin_problems",
    "cg_solve",
    "cross_level_gram",
    "dimension_check",
    "export_solution_csv",
    "fem_solve",
    "h1_error",
    "homogenize",
    "l2_error",
    "load_vector",
    "multilevel_solve",
    "n_interior",
    "reconstruct",
    "refinement_matrix",
    "run_benchmark",
    "stiffness_matrix",
    "strip_wavelets",
    "verify_identity",
    "verify_orthogonality",
    "wavelet_gram",
    "wavelet_matrix",
]
