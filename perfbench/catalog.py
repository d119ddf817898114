"""Names, units and predictions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root is generated from this module
and the workload list (:func:`benchmark_spec`); ``run.py --smoke`` fails
when the two disagree.

Per-layer metrics come from the traced samples only.  Each is reported
for every rank (``<name>.r0``, ``<name>.r1``) and as the maximum over
ranks (``<name>.max``); the four traffic counts are also reported as the
run total from ``PlatformRun.network`` (``<name>.total``).  The
prediction table says which end-to-end metric each layer metric should
move and on which workloads it is material (``on``) or about zero
(``zero_on``), so a change claiming a layer gain says in advance where
it must show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "RANKS",
    "TOTAL_COUNTS",
    "EXACT_COUNTS",
    "RUN_SECONDS",
    "benchmark_spec",
    "per_layer_names",
]

#: Ranks of every workload's world (``nproc`` of the 2-core reference host).
RANKS = 2
#: Seconds one run measures.
RUN_SECONDS = 30


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    bound: float


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    timed: str
    moves: str
    on: str
    zero_on: str = ""


#: Bounds follow the run-to-run spread (IQR / median over ten seeds) seen
#: on a shared 2-core virtual machine, with the metrics taken over the
#: samples the hypervisor stole least from (see README.md).  setup_s gets
#: the largest.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("time_to_result_s", "s", 0.2),
    EndToEnd("setup_s", "s", 0.25),
    EndToEnd("step_ms", "ms", 0.2),
    EndToEnd("step_ms_p90", "ms", 0.24),
    EndToEnd("peak_rss_mb", "MB", 0.1),
)

PER_LAYER: Tuple[Layer, ...] = (
    Layer("annotation.weave_s", "s", "lower", "Platform construction + Platform.build",
          "setup_s", "all (about 0 today)"),
    Layer("runtime.launch_s", "s", "lower", "ExecutionWorld.run_spmd entry to rank body start",
          "setup_s", "all"),
    Layer("dsl.initialize_s", "s", "lower", "DslTarget.initialize", "setup_s", "all"),
    Layer("annotation.warm_up_s", "s", "lower", "TargetApplication.warm_up", "setup_s",
          "usgrid, sgrid; on particle it is the app's own warm-up pass, about one step"),
    Layer("memory.plan_compile_s", "s", "lower", "compile_offsets_plan, compile_address_plan",
          "setup_s", "usgrid (about 75%), sgrid (about 20%)", "particle"),
    Layer("memory.plans_compiled", "count", "lower",
          "calls of compile_offsets_plan and compile_address_plan", "setup_s",
          "usgrid, sgrid", "particle"),
    Layer("memory.find_block_s", "s", "lower", "Env.find_block", "setup_s", "usgrid, sgrid",
          "particle"),
    Layer("memory.find_block_calls", "count", "lower", "calls of Env.find_block", "setup_s",
          "usgrid, sgrid", "particle"),
    Layer("runtime.fetch_bulk_s", "s", "lower", "blocking fetch_pages_bulk (warm-up, repair)",
          "setup_s", "usgrid; 0 on every workload when the benchmark was added, because "
          "warm-up fetches go through the per-page path inside memory.refresh_s"),
    Layer("kernels.fuse_s", "s", "lower", "fused_kernel_for", "time_to_result_s", "sgrid",
          "usgrid, particle"),
    Layer("kernels.fused", "count", "higher", "MMAT.stats()['fused_kernels'] at rank body end",
          "time_to_result_s", "sgrid", "usgrid, particle"),
    Layer("dsl.sweep_s", "s", "lower", "BlockKernel.sweep / sweep_segment", "step_ms", "sgrid"),
    Layer("dsl.gather_s", "s", "lower", "BlockKernel.gather / gather_global", "step_ms",
          "usgrid, particle"),
    Layer("dsl.scatter_s", "s", "lower", "BlockKernel.scatter", "step_ms", "usgrid, particle"),
    Layer("apps.kernel_s", "s", "lower",
          "TargetApplication.run time under no timed platform call", "step_ms",
          "particle, sgrid"),
    Layer("memory.refresh_s", "s", "lower", "the woven Env.refresh (with its advice)",
          "step_ms", "all"),
    Layer("runtime.allreduce_s", "s", "lower", "ExecutionWorld.allreduce_and",
          "step_ms, step_ms_p90", "sgrid (about 57% of step), particle"),
    Layer("runtime.allreduce_calls", "count", "lower", "calls of allreduce_and",
          "step_ms, step_ms_p90", "all"),
    Layer("runtime.barrier_s", "s", "lower", "ProcessWorld.barrier", "step_ms",
          "sgrid, usgrid, particle"),
    Layer("runtime.barrier_calls", "count", "lower", "calls of barrier", "step_ms", "all"),
    Layer("runtime.halo_issue_s", "s", "lower", "fetch_pages_bulk_async", "step_ms",
          "sgrid, usgrid"),
    Layer("runtime.halo_wait_s", "s", "lower", "CommHandle.wait", "step_ms",
          "sgrid, usgrid, particle"),
    Layer("runtime.messages", "count", "lower",
          "rank: 2 per page exchange it made (TaskCounters); total: PlatformRun.network",
          "step_ms", "sgrid, usgrid"),
    Layer("runtime.bytes_moved", "bytes", "lower",
          "rank: page bytes it fetched (TaskCounters); total: PlatformRun.network",
          "step_ms", "sgrid, usgrid"),
    Layer("runtime.page_fetches", "count", "lower",
          "rank: pages it fetched (TaskCounters); total: PlatformRun.network",
          "step_ms", "sgrid, usgrid"),
    Layer("runtime.shm_bytes", "bytes", "lower",
          "rank: page bytes it read from shared memory; total: PlatformRun.network",
          "step_ms", "sgrid, usgrid"),
    Layer("runtime.gating_rank_share", "fraction", "lower",
          "share of steps in which this rank entered allreduce_and last", "step_ms_p90",
          "sgrid"),
    Layer("annotation.teardown_s", "s", "lower",
          "end of the rank's last step to Platform.run returning (rank 0) or the rank "
          "body returning (forked ranks)", "time_to_result_s", "all"),
    Layer("bench.unattributed_s", "s", "lower", "rank wall time under no timed call",
          "-", "all"),
    Layer("bench.trace_overhead_frac", "fraction", "lower",
          "traced / untraced rank wall time - 1 (rank 0: time_to_result_s)", "-", "all"),
)

#: Per-layer counts that must repeat exactly across traced samples of a seed.
EXACT_COUNTS: Tuple[str, ...] = (
    "memory.plans_compiled",
    "memory.find_block_calls",
    "kernels.fused",
    "runtime.allreduce_calls",
    "runtime.barrier_calls",
    "runtime.messages",
    "runtime.bytes_moved",
    "runtime.page_fetches",
    "runtime.shm_bytes",
)

#: Traffic counts also reported as the run total of ``PlatformRun.network``
#: (per-layer name -> ``network`` key).
TOTAL_COUNTS: Dict[str, str] = {
    "runtime.messages": "messages",
    "runtime.bytes_moved": "bytes_moved",
    "runtime.page_fetches": "page_fetches",
    "runtime.shm_bytes": "shm_bytes",
}


def per_layer_names() -> List[Tuple[str, str, str]]:
    """Every reported per-layer metric as ``(name, unit, better)``."""
    out = []
    for layer in PER_LAYER:
        suffixes = [f"r{rank}" for rank in range(RANKS)] + ["max"]
        if layer.name in TOTAL_COUNTS:
            suffixes.append("total")
        out.extend((f"{layer.name}.{s}", layer.unit, layer.better) for s in suffixes)
    return out


def benchmark_spec(workloads) -> dict:
    """The ``BENCHMARK.json`` contents for ``workloads`` (name -> Workload)."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": "lower", "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_names()
        ],
    }
