"""Benchmark of the prewavelet ladder against the direct FEM yardstick.

    python3 perfbench/run.py --workload ladder_direct_l7 --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout and drives the package in ``src/`` only
through its public module functions.  One closed-loop client: a run is split
into ``samples`` cold processes, run one after another, each with the same
share of ``--seconds``.  Each process times set-up from cold (after import)
to its first checked solution, then times warm solves of new seeded
right-hand sides until its share is used up (``sample.py``).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median cold set-up, one per process;
* ``solve_s``: median warm solve latency over every warm solve of the run;
* ``solves_per_s``: warm solves completed per second of warm solving;
* ``peak_rss_mb``: median over processes of their peak resident memory.

``--trace 1`` runs the processes alternately with and without spans
(``spans.py``) and reports per-layer self times, exact counts taken on the
first traced process (factor path and bytes, detail-Gram nnz, strip support,
CG iterations, per level), span coverage of set-up and warm solves, and the
tracing overhead against the untraced processes of the same run.

Every line but the last is for people; the last is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
including percentiles, sample counts, per-level counts and the versions, go
to ``.bench_out/``, as do the spans of each traced process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, factor_bytes_estimate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: Whole-run limit in seconds; a sample still running then is killed.
RUN_LIMIT_S = 170.0

SETUP_METRICS = {  # per-layer metric -> span name, set-up self time
    "linalg.factor_s": "linalg.factor",
    "linalg.factor_s.j5": "linalg.factor.j5",
    "linalg.factor_s.j6": "linalg.factor.j6",
    "prewavelet.strip_wavelets_s": "prewavelet.strip_wavelets",
    "prewavelet.wavelet_matrix_s": "prewavelet.wavelet_matrix",
    "prewavelet.wavelet_gram_s": "prewavelet.wavelet_gram",
    "mesh.triangle_vertex_array_s": "mesh.triangle_vertex_array",
    "assembly.stiffness_matrix_s": "assembly.stiffness_matrix",
    "assembly.refinement_matrix_s": "assembly.refinement_matrix",
    "assembly.cross_level_gram_s": "assembly.cross_level_gram",
}
SOLVE_METRICS = {  # per-layer metric -> span name, self time per warm solve
    "linalg.factor_solve_s": "linalg.factor_solve",
    "linalg.cg_s": "linalg.cg",
    "quadrature.load_vector_s": "quadrature.load_vector",
    "solver.multilevel_from_load_s": "solver.multilevel_from_load",
    "solver.prolong_s": "solver.prolong",
    "solver.fem_solve_s": "solver.fem_solve",
    "homogenize.reconstruct_s": "homogenize.reconstruct",
}


def mem_available_bytes() -> int:
    with open("/proc/meminfo", encoding="ascii") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no MemAvailable in /proc/meminfo")


def spread(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    out = {"n": len(s), "median": statistics.median(s)}
    if len(s) >= 11:
        k = len(s) - 11
        out[f"p{100 * (k + 1) // len(s)}"] = s[k]
    return out


def run_sample(w: Workload, args, index: int, traced: bool, start: float, env) -> dict:
    deadline = time.time() + (start + args.seconds * (index + 1) / w.samples - time.perf_counter())
    cmd = [
        sys.executable, str(HERE / "sample.py"),
        "--workload", w.name, "--seed", str(args.seed), "--index", str(index),
        "--deadline", repr(deadline), "--trace", str(int(traced)),
        "--spans", str(OUT / f"spans-{w.name}-seed{args.seed}-{index}.jsonl"),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - start)))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"sample {index} of {w.name} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    summaries = [r["trace"] for r in traced]
    solves = [d for s in summaries for d in s["solve_self_s"]]
    m = {k: statistics.median(s["setup_self_s"].get(v, 0.0) for s in summaries)
         for k, v in SETUP_METRICS.items()}
    m.update({k: statistics.median(d.get(v, 0.0) for d in solves)
              for k, v in SOLVE_METRICS.items()})
    counts = summaries[0]["counts"]
    factors = [c for c in counts.values() if "linalg.factor.path" in c]
    m["linalg.factor_bytes"] = sum(c["linalg.factor.bytes"] for c in factors)
    m["linalg.dense_factors"] = sum(c["linalg.factor.path"] == "dense" for c in factors)
    m["linalg.cg_iterations"] = sum(c.get("linalg.cg.iterations", 0) for c in counts.values())
    for j in ("j5", "j6"):
        m[f"linalg.cg_iterations.{j}"] = counts.get(j, {}).get("linalg.cg.iterations", 0)
    m["prewavelet.gram_nnz"] = sum(
        c.get("prewavelet.wavelet_gram.nnz", 0) for c in counts.values())
    m["prewavelet.strip_max_support"] = max(
        [c.get("prewavelet.strip_wavelets.max_support", 0) for c in counts.values()])
    setup_traced = statistics.median(r["setup_s"] for r in traced)
    solve_traced = statistics.median(t for r in traced for t in r["solve_s"])
    m["trace.setup_s"] = setup_traced
    m["trace.solve_s"] = solve_traced
    m["trace.overhead_setup_s"] = setup_traced - statistics.median(r["setup_s"] for r in untraced)
    m["trace.overhead_solve_s"] = solve_traced - statistics.median(
        t for r in untraced for t in r["solve_s"])
    m["trace.coverage_setup"] = statistics.median(s["coverage_setup"] for s in summaries)
    m["trace.coverage_solve"] = statistics.median(
        c for s in summaries for c in s["coverage_solve"])
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    if not (ROOT / "src" / "prewavelet_poisson" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    need, available = factor_bytes_estimate(w), mem_available_bytes()
    if need > available:
        print(f"refusing {w.name}: its factors need {need / 2**20:.0f} MiB (computed), "
              f"only {available / 2**20:.0f} MiB is available", file=sys.stderr)
        return 3
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    OUT.mkdir(exist_ok=True)

    start = time.perf_counter()
    reports = []
    for index in range(w.samples):
        traced = bool(args.trace) and index % 2 == 0
        reports.append((traced, run_sample(w, args, index, traced, start, env)))
    wall_s = time.perf_counter() - start
    plain = [r for t, r in reports if not t]
    traced = [r for t, r in reports if t]
    attempted = sum(r["attempted"] for _, r in reports)
    failed = sum(r["failed"] for _, r in reports)

    if args.trace:
        metrics = layer_metrics(traced, plain)
    else:
        latencies = [t for r in plain for t in r["solve_s"]]
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "solve_s": statistics.median(latencies),
            "solves_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    result = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": wall_s,
        "client": "one closed-loop client, cold samples run one after another",
        "env": {"nproc": nproc, "blas_threads": nproc, "platform": platform.platform(),
                **reports[0][1]["versions"]},
        "guard": {"factor_bytes_computed": need, "mem_available_bytes": available},
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "errors": [e for _, r in reports for e in r["errors"]],
        "samples": [
            {"traced": t, "setup_s": r["setup_s"], "peak_rss_mb": r["peak_rss_mb"],
             "solve_s": spread(r["solve_s"])}
            for t, r in reports
        ],
        "setup_s": spread([r["setup_s"] for r in plain]),
        "solve_s": spread([t for r in plain for t in r["solve_s"]]),
        "metrics": metrics, "units": units,
    }
    if args.trace:
        result["per_level_counts"] = traced[0]["trace"]["counts"]
        result["setup_self_s"] = traced[0]["trace"]["setup_self_s"]
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    print(f"{w.name} seed {args.seed}: {attempted} solves, {failed} failed "
          f"(failed_frac {failed / attempted:g}), {len(reports)} cold samples in {wall_s:.1f} s")
    print(f"  env: {result['env']}")
    print(f"  guard: {result['guard']}")
    for error in result["errors"]:
        print(f"  failed: {error}")
    for key in ("setup_s", "solve_s"):
        print(f"  {key} untraced samples: {result[key]}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
