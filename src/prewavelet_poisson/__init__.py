"""Multilevel prewavelet solver for the Dirichlet Poisson problem.

The package solves -laplace(u) = g on the unit square with piecewise-linear
finite elements on nested Type-1 triangulations, either directly at one
level or as a coarse solve plus a ladder of H1-orthogonal detail (prewavelet)
corrections whose sum reproduces the fine-level solution.

The modules are the API (``from prewavelet_poisson import homogenize,
solver``); the package itself imports none of them.
"""

__version__ = "0.1.0"
