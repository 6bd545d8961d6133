"""Per-layer spans for the traced benchmark run.

``install`` replaces public attributes of the package's modules with
wrappers that record one span per call: name, level label, start, end, the
enclosing span and the phase of the sample (``setup``, ``solve:<k>`` or
``check``).  The package looks these names up at call time, so its own
internal calls pass through the wrappers too.  Spans stay in memory and are
written out as JSON lines when the sample ends.

A layer's self time is its span's duration minus the time of the spans it
encloses.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

from workloads import system_label


class Tracer:
    """Spans of one sample process, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "setup"
        self._open: list[int] = []

    def wrap(self, name, fn, label=None, counts=None):
        """``fn`` recording a span per call; ``label(args)`` names the level
        and ``counts(args, result)`` adds exact counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "phase": self.phase,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if label is not None:
                span["label"] = label(args)
            if counts is not None:
                span.update(counts(args, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _nbytes(obj) -> int:
    """Bytes held by a factor's arrays (computed from sizes, not measured)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    if sp.issparse(obj):
        return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))
    if hasattr(obj, "perm_c") and hasattr(obj, "nnz"):  # scipy SuperLU: value + index
        return 12 * int(obj.nnz)
    return 0


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for o in obj:
            yield from _arrays(o)


def _factor_counts(args, _result) -> dict:
    """Storage path and computed bytes of a freshly built factor: ``dense``
    for an n x n array, ``banded`` for (bands, n) storage, else ``sparse``."""
    factor = args[0]
    path = "sparse"
    for name, value in vars(factor).items():
        for a in _arrays(value):
            if a.ndim == 2 and a.shape[1] == factor.n:
                banded = "band" in name or a.shape[0] < factor.n
                path = "banded" if banded else "dense"
    return {"path": path, "bytes": _nbytes(list(vars(factor).values()))}


def modules(*names: str):
    """The package's modules by name.  Attribute access on the package will
    not do: ``prewavelet_poisson.homogenize`` is the function of that name."""
    return [importlib.import_module(f"prewavelet_poisson.{n}") for n in names]


def install(tracer: Tracer) -> None:
    """Route the package's layer boundaries through ``tracer``."""
    assembly, homogenize, linalg, mesh, prewavelet, quadrature, solver = modules(
        "assembly", "homogenize", "linalg", "mesh", "prewavelet", "quadrature", "solver"
    )

    def level(args):
        return f"j{args[0]}"

    def matrix(args):
        return system_label(args[1].shape[0])

    targets = [
        (mesh, "triangle_vertex_array", "mesh.triangle_vertex_array", level, None),
        (assembly, "stiffness_matrix", "assembly.stiffness_matrix", level, None),
        (assembly, "refinement_matrix", "assembly.refinement_matrix", level, None),
        (assembly, "cross_level_gram", "assembly.cross_level_gram", level, None),
        (prewavelet, "strip_wavelets", "prewavelet.strip_wavelets", level,
         lambda a, r: {"max_support": max(len(w.stencil) for w in r)}),
        (prewavelet, "wavelet_matrix", "prewavelet.wavelet_matrix", level, None),
        (prewavelet, "wavelet_gram", "prewavelet.wavelet_gram", level,
         lambda a, r: {"nnz": int(r.nnz)}),
        (quadrature, "load_vector", "quadrature.load_vector", level, None),
        (linalg.CholeskyFactor, "__init__", "linalg.factor", matrix, _factor_counts),
        (linalg.CholeskyFactor, "solve", "linalg.factor_solve",
         lambda a: system_label(a[0].n), None),
        (linalg, "cg_solve", "linalg.cg", lambda a: system_label(a[0].shape[0]),
         lambda a, r: {"iterations": int(r[1].iterations)}),
        (solver, "multilevel_from_load", "solver.multilevel_from_load", level, None),
        (solver, "fem_solve", "solver.fem_solve", level, None),
        (solver.MultilevelSolution, "prolong", "solver.prolong", None, None),
        (homogenize, "reconstruct", "homogenize.reconstruct", level, None),
    ]
    for owner, attr, name, label, counts in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), label, counts))


def summarize(spans: list[dict], setup_s: float, solve_s: list[float]) -> dict:
    """Self times per layer and phase, span coverage, and exact counts."""
    enclosed: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            enclosed[s["parent"]] += s["end"] - s["start"]

    setup_self: dict[str, float] = defaultdict(float)
    solve_self: list[dict[str, float]] = [defaultdict(float) for _ in solve_s]
    setup_root = 0.0
    solve_root = [0.0] * len(solve_s)
    counts: dict[str, dict] = defaultdict(dict)
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - enclosed[s["id"]]
        phase = s["phase"]
        if phase == "setup":
            setup_self[s["name"]] += own
            if "label" in s:
                setup_self[f"{s['name']}.{s['label']}"] += own
            if s["parent"] is None:
                setup_root += dur
            for key in ("max_support", "nnz", "path", "bytes", "iterations"):
                if key in s:
                    counts[s["label"]][f"{s['name']}.{key}"] = s[key]
        elif phase.startswith("solve:") and int(phase[6:]) < len(solve_s):
            k = int(phase[6:])
            solve_self[k][s["name"]] += own
            if s["parent"] is None:
                solve_root[k] += dur
    return {
        "setup_self_s": dict(setup_self),
        "solve_self_s": [dict(d) for d in solve_self],
        "coverage_setup": setup_root / setup_s,
        "coverage_solve": [r / t for r, t in zip(solve_root, solve_s)],
        "counts": {k: counts[k] for k in sorted(counts)},
    }
