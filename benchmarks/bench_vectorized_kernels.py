#!/usr/bin/env python
"""Vectorized (access-plan) kernels vs the scalar reference path.

Measures, for each of the three DSL apps, the measured wall-clock of the
``kernel="scalar"`` reference implementation against the default
``kernel="vectorized"`` batched implementation (both with MMAT enabled,
serial backend), checks they produce numerically equivalent results, and
reports the speed-up.  A micro-benchmark of the scalar-fallback hot path
(``Env.read_from``) is included so regressions of the non-plan path show
up here too.

The headline regression gates:

* the vectorized 2-D Jacobi sweep must be at least 10x faster than the
  scalar sweep (the access-plan compilation tentpole's acceptance
  criterion); ``--smoke`` uses a smaller grid and a 2x gate for CI;
* the *fused* 2-D Jacobi sweep (plan x fn codegen, ``repro.kernels``)
  must be at least 3x faster than the vectorized sweep in steady state
  (the plan-fusion tentpole's criterion); ``--smoke`` relaxes to 1.5x.

The fused comparison measures the *marginal per-step* cost — best
wall-clock at two loop counts, divided by the loop delta — because the
whole-run elapsed is dominated by the one-time warm-up plan compilation
that both paths share.  Bit-identity between the fused and vectorized
results is asserted.

Usage::

    PYTHONPATH=src python benchmarks/bench_vectorized_kernels.py
    PYTHONPATH=src python benchmarks/bench_vectorized_kernels.py --smoke
    PYTHONPATH=src python benchmarks/bench_vectorized_kernels.py --json BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.annotation import Platform  # noqa: E402
from repro.bench.harness import (  # noqa: E402
    Workload,
    format_table,
    particle_workload,
    run_platform,
    sgrid_workload,
    usgrid_workload,
)


def _timed_run(work: Workload, *, kernel: str, repeats: int):
    """Best-of-``repeats`` platform run of ``work`` with the given kernel."""
    best = None
    last = None
    for _ in range(max(repeats, 1)):
        run = run_platform(work.with_config(kernel=kernel), mmat=True)
        if best is None or run.elapsed < best:
            best = run.elapsed
        last = run
    return best, last


def measure_kernels(workloads, *, repeats: int = 3) -> list:
    rows = []
    for work in workloads:
        scalar_s, scalar_run = _timed_run(work, kernel="scalar", repeats=repeats)
        vector_s, vector_run = _timed_run(work, kernel="vectorized", repeats=repeats)
        a = np.asarray(scalar_run.result, dtype=np.float64)
        b = np.asarray(vector_run.result, dtype=np.float64)
        equivalent = a.shape == b.shape and bool(
            np.allclose(np.nan_to_num(a, nan=-1.0), np.nan_to_num(b, nan=-1.0), atol=1e-10)
        )
        stats = vector_run.mmat_stats
        rows.append(
            {
                "workload": work.name,
                "scalar_s": scalar_s,
                "vectorized_s": vector_s,
                "speedup": scalar_s / vector_s if vector_s else float("nan"),
                "equivalent": equivalent,
                "plans": stats.get("plans", 0),
                "plan_sites": stats.get("plan_sites", 0),
                "vectorized_fraction": stats.get("vectorized_fraction", 0.0),
            }
        )
    return rows


def _best_elapsed(work: Workload, *, repeats: int, **config):
    """Best-of-``repeats`` whole-run wall-clock with config overrides."""
    best = None
    last = None
    for _ in range(max(repeats, 1)):
        run = run_platform(work.with_config(**config), mmat=True)
        if best is None or run.elapsed < best:
            best = run.elapsed
        last = run
    return best, last


def measure_fused(work: Workload, *, lo: int, hi: int, repeats: int = 1) -> list:
    """Fused (plan x fn codegen) vs plain vectorized, marginal per step.

    Runs each path at ``lo`` and ``hi`` loop counts and reports
    ``(best(hi) - best(lo)) / (hi - lo)`` — the steady-state cost of one
    extra sweep, with the shared one-time plan-compilation warm-up
    subtracted out.
    """

    def per_step(**config):
        lo_s, _ = _best_elapsed(work, repeats=repeats, loops=lo, **config)
        hi_s, run = _best_elapsed(work, repeats=repeats, loops=hi, **config)
        return max(hi_s - lo_s, 0.0) / (hi - lo), run

    vec_step, vec_run = per_step(kernel="vectorized", fuse=False)
    fused_step, fused_run = per_step(kernel="vectorized")
    a = np.asarray(vec_run.result, dtype=np.float64)
    b = np.asarray(fused_run.result, dtype=np.float64)
    identical = a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))
    return [
        {
            "workload": work.name,
            "vectorized_step_s": vec_step,
            "fused_step_s": fused_step,
            "fused_speedup": vec_step / fused_step if fused_step else float("nan"),
            "bit_identical": identical,
            "fused_kernels": fused_run.mmat_stats.get("fused_kernels", 0),
            "fused_calls": sum(
                c.kernel_fused_calls for c in fused_run.counters.values()
            ),
        }
    ]


def measure_read_from(*, reads: int = 20000) -> dict:
    """Micro-benchmark of the scalar fallback hot path (Env.read_from)."""
    run = Platform(mmat=True).run(
        sgrid_workload(16, loops=1).app_cls,
        config=dict(region=16, block_size=8, page_elements=32, loops=1, kernel="scalar"),
    )
    env = run.app.env
    block = env.data_blocks()[0]
    x0, y0 = block.origin
    start = time.perf_counter()
    for r in range(reads):
        env.read_from(block, (x0 + r % 8, y0 + (r // 8) % 8), assume_inside=False)
    elapsed = time.perf_counter() - start
    return {"reads": reads, "elapsed_s": elapsed, "ns_per_read": elapsed / reads * 1e9}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--region", type=int, default=96, help="Jacobi grid edge length")
    parser.add_argument("--loops", type=int, default=8, help="time steps per run")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per configuration (best wall-clock kept)")
    parser.add_argument("--smoke", action="store_true",
                        help="small problems, 1 repeat, relaxed 2x gate (CI)")
    parser.add_argument("--json", metavar="PATH",
                        help="emit the rows as JSON (perf trajectory for future PRs)")
    args = parser.parse_args(argv)

    if args.smoke:
        workloads = [
            sgrid_workload(24, loops=3, block_size=8),
            usgrid_workload(16, loops=2, block_cells=64),
            particle_workload(64, loops=2),
        ]
        repeats, gate = 1, 2.0
        # Small enough for CI (~1s), big enough for per-step costs to
        # dominate Python dispatch overhead.
        fused_work = sgrid_workload(128, loops=5, block_size=64)
        fused_lo, fused_hi, fused_repeats, fused_gate = 5, 35, 3, 1.5
    else:
        workloads = [
            sgrid_workload(args.region, loops=args.loops, block_size=16),
            usgrid_workload(64, loops=args.loops, block_cells=256),
            usgrid_workload(64, case="R", loops=args.loops, block_cells=256),
            particle_workload(512, loops=2),
        ]
        repeats, gate = args.repeats, 10.0
        fused_work = sgrid_workload(384, loops=4, block_size=128)
        fused_lo, fused_hi, fused_repeats, fused_gate = 4, 20, 2, 3.0

    rows = measure_kernels(workloads, repeats=repeats)
    fused_rows = measure_fused(
        fused_work, lo=fused_lo, hi=fused_hi, repeats=fused_repeats
    )
    micro = measure_read_from()
    print(format_table(rows, title="Vectorized (access-plan) kernels vs scalar reference"))
    print()
    print(format_table(
        fused_rows,
        title="Fused (plan x fn codegen) vs vectorized, marginal s/step",
    ))
    print(
        f"\nEnv.read_from micro-bench: {micro['reads']} scalar reads in "
        f"{micro['elapsed_s']:.4f}s ({micro['ns_per_read']:.0f} ns/read)"
    )

    if args.json:
        doc = {
            "mode": "smoke" if args.smoke else "full",
            "kernels": rows,
            "fused": fused_rows,
            "read_from": micro,
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")

    ok = all(row["equivalent"] for row in rows)
    if not ok:
        print("FAILED: vectorized results diverge from the scalar reference")
        return 1
    if not all(row["bit_identical"] for row in fused_rows):
        print("FAILED: fused results are not bit-identical to the vectorized path")
        return 1
    # The acceptance gates apply to the 2-D Jacobi structured-grid sweep.
    jacobi = rows[0]
    if jacobi["speedup"] < gate:
        print(
            f"FAILED: vectorized Jacobi speedup {jacobi['speedup']:.1f}x "
            f"below the {gate:.0f}x gate"
        )
        return 1
    print(f"OK: vectorized Jacobi sweep {jacobi['speedup']:.1f}x faster (gate {gate:.0f}x)")
    fused = fused_rows[0]
    if fused["fused_speedup"] < fused_gate:
        print(
            f"FAILED: fused Jacobi speedup {fused['fused_speedup']:.1f}x "
            f"below the {fused_gate:.1f}x gate"
        )
        return 1
    print(
        f"OK: fused Jacobi sweep {fused['fused_speedup']:.1f}x faster per step "
        f"(gate {fused_gate:.1f}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
