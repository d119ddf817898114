"""End-to-end benchmark of the platform, with a per-layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sgrid-jacobi-p2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process drives each run.  It builds the workload's inputs from
``--seed``, computes the reference result, then takes samples for
``--seconds`` seconds.  A sample constructs
``Platform.preset("mpi", ranks=2, backend="process", mmat=True,
tracing=False)`` and runs the workload's app once; its rank-0 result is
checked against the reference.

* ``--trace 0``: untraced samples only; reports the end-to-end metrics,
  over the samples during which the host stole the least CPU time
  (:func:`quietest`).
* ``--trace 1``: untraced and traced samples alternate; reports the
  per-layer metrics of the traced ones (see ``probes.py``) and the
  tracing overhead against the untraced ones.

The platform's own span tracer stays off (``REPRO_TRACE`` is ignored).
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--smoke`` runs tiny sizes of every workload and checks the benchmark
itself (metric names, that a perturbed reference fails, BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import platform as pyplatform
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("REPRO_TRACE", None)

import numpy as np  # noqa: E402

from repro import Platform  # noqa: E402

from catalog import (  # noqa: E402
    END_TO_END,
    EXACT_COUNTS,
    PER_LAYER,
    RANKS,
    RUN_SECONDS,
    TOTAL_COUNTS,
    benchmark_spec,
    per_layer_names,
)
from probes import Recorder, RankRecord  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, Workload  # noqa: E402

_now = time.perf_counter_ns
#: A sample that has not finished after this long counts as failed.
SAMPLE_TIMEOUT_S = 60
#: Untraced runs pool at least this many steps, so that ``step_ms_p90``
#: has at least ten steps beyond it even on a slow host.
MIN_POOLED_STEPS = 100
#: Traced runs take at least two traced samples, so exact counts are compared.
MIN_TRACED = 2

#: Unit of every reported metric.
UNITS = {m.name: m.unit for m in END_TO_END}
UNITS.update((name, unit) for name, unit, _better in per_layer_names())
#: (per-layer name, TaskCounters field) of the per-rank traffic counts.
RANK_TRAFFIC = (
    ("runtime.messages", "messages"),
    ("runtime.bytes_moved", "bytes_fetched"),
    ("runtime.page_fetches", "pages_fetched"),
    ("runtime.shm_bytes", "shm_bytes"),
)
#: (per-layer name, span whose call count it is)
CALL_COUNTS = (
    ("memory.plans_compiled", "memory.plan_compile_s"),
    ("memory.find_block_calls", "memory.find_block_s"),
    ("runtime.allreduce_calls", "runtime.allreduce_s"),
    ("runtime.barrier_calls", "runtime.barrier_s"),
)


@dataclass
class Sample:
    """The measurements of one platform run."""

    traced: bool
    #: the first sample of a run: checked, but not timed (cold caches)
    warmup: bool = False
    ok: bool = False
    error: Optional[str] = None
    result: Any = None
    time_to_result_s: float = 0.0
    setup_s: float = 0.0
    steps_ms: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: rank -> wall time of the rank (rank 0: time to result)
    rank_wall_s: Dict[int, float] = field(default_factory=dict)
    #: flat per-layer metric name -> value (traced samples only)
    layers: Dict[str, float] = field(default_factory=dict)
    page_transport: str = "?"
    #: the host's steal share of CPU time during the sample (None: unknown)
    steal_frac: Optional[float] = None


class SampleTimeout(Exception):
    pass


@contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise SampleTimeout(f"sample did not finish within {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _cpu_jiffies() -> Optional[Tuple[int, int]]:
    """(steal, total) CPU time of the host so far, from ``/proc/stat``.

    Steal is the time a virtual machine's CPUs were ready to run but the
    hypervisor ran something else; it lengthens samples without any
    change in the program.  ``None`` where the kernel does not report it.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    return fields[7], sum(fields)


# ----------------------------------------------------------------------
# one sample
# ----------------------------------------------------------------------
def run_sample(workload: Workload, config: dict, reference, recorder: Recorder,
               *, traced: bool, keep_result: bool = False) -> Sample:
    """Run the workload once on a fresh 2-rank platform and check the result."""
    sample = Sample(traced=traced)
    gc.collect()
    recorder.begin_sample()
    jiffies = _cpu_jiffies()
    try:
        with _deadline(SAMPLE_TIMEOUT_S), recorder.installed(layers=traced):
            t0 = _now()
            platform = Platform.preset(
                "mpi", ranks=RANKS, backend="process", mmat=True, tracing=False
            )
            run = platform.run(workload.app, config=dict(config))
            t1 = _now()
    except Exception as exc:  # noqa: BLE001 - a failed sample is counted, not fatal
        sample.error = f"{type(exc).__name__}: {exc}"
        return sample
    finally:
        recorder.end_sample()
    after = _cpu_jiffies()
    if jiffies and after and after[1] > jiffies[1]:
        sample.steal_frac = (after[0] - jiffies[0]) / (after[1] - jiffies[1])

    ranks = recorder.ranks
    missing = [r for r in range(RANKS) if r not in ranks or not ranks[r].steps]
    if missing:
        sample.error = f"no probe records from rank(s) {missing}"
        return sample
    spmd_entry = recorder.spmd_entry_ns
    rank0 = ranks[0]
    if keep_result:
        sample.result = run.result
    sample.time_to_result_s = (t1 - t0) / 1e9
    sample.setup_s = (rank0.steps[0][0] - t0) / 1e9
    sample.steps_ms = [(end - start) / 1e6 for start, end in rank0.steps]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += sum(ranks[r].marks["maxrss_kb"] for r in range(1, RANKS))
    sample.peak_rss_mb = rss_kb / 1024.0
    windows = {0: (t0, t1)}
    windows.update({r: (spmd_entry, ranks[r].marks["body_end_ns"]) for r in range(1, RANKS)})
    sample.rank_wall_s = {r: (end - start) / 1e9 for r, (start, end) in windows.items()}
    sample.page_transport = "shm" if run.network.get("shm_fetches", 0) > 0 else "pipe"
    if traced:
        sample.layers = layer_metrics(ranks, spmd_entry, windows, run)
    sample.ok = bool(workload.check(run.result, reference))
    if not sample.ok:
        sample.error = "result differs from the reference"
    return sample


# ----------------------------------------------------------------------
# per-layer metrics of one traced sample
# ----------------------------------------------------------------------
def _covered(intervals: Sequence[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(ranks: Dict[int, RankRecord], spmd_entry: int,
                  windows: Dict[int, Tuple[int, int]], run) -> Dict[str, float]:
    """Flat ``<metric>.r<rank>`` / ``.max`` / ``.total`` values of one sample.

    ``bench.trace_overhead_frac`` needs the untraced samples too, so
    :func:`summarize` adds it.
    """
    values: Dict[str, Dict[int, float]] = {
        layer.name: {rank: 0.0 for rank in ranks}
        for layer in PER_LAYER
        if layer.name != "bench.trace_overhead_frac"
    }
    for (rank, _thread), counters in run.counters.items():
        for name, attr in RANK_TRAFFIC:
            values[name][rank] += getattr(counters, attr)

    for rank, record in ranks.items():
        for name, self_ns in record.self_ns.items():
            values[name][rank] = self_ns / 1e9
        for name, span in CALL_COUNTS:
            values[name][rank] = record.calls.get(span, 0)
        values["kernels.fused"][rank] = record.marks.get("fused_kernels", 0)
        lo, hi = windows[rank]
        launch = (spmd_entry, record.marks["body_start_ns"])
        teardown = (record.steps[-1][1], hi)
        values["runtime.launch_s"][rank] = (launch[1] - launch[0]) / 1e9
        values["annotation.teardown_s"][rank] = (
            teardown[1] - teardown[0] - _covered(record.tops, *teardown)
        ) / 1e9
        attributed = _covered(list(record.tops) + [launch, teardown], lo, hi)
        values["bench.unattributed_s"][rank] = (hi - lo - attributed) / 1e9

    # Every step ends in allreduce_and on every rank, so the k-th in-step
    # entries of all ranks belong to the same step.
    entries = [ranks[r].allreduce_entries for r in range(RANKS)]
    steps = min(len(e) for e in entries)
    gated = [0] * RANKS
    for k in range(steps):
        gated[max(range(RANKS), key=lambda r: entries[r][k])] += 1
    for rank in range(RANKS):
        values["runtime.gating_rank_share"][rank] = gated[rank] / max(steps, 1)

    flat: Dict[str, float] = {}
    for name, by_rank in values.items():
        for rank, value in by_rank.items():
            flat[f"{name}.r{rank}"] = value
        flat[f"{name}.max"] = max(by_rank.values())
    for name, key in TOTAL_COUNTS.items():
        flat[f"{name}.total"] = run.network.get(key, 0)
    return flat


def exact_counts(sample: Sample) -> Dict[str, float]:
    return {
        name: value
        for name, value in sample.layers.items()
        if name.rsplit(".", 1)[0] in EXACT_COUNTS
    }


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quietest(samples: Sequence[Sample]) -> List[Sample]:
    """The samples taken while the host stole the least CPU time.

    At least half of the samples, and enough of them to pool
    ``MIN_POOLED_STEPS`` steps.  Steal comes in bursts longer than a
    sample and lengthens the collective-bound steps several times over,
    so without this the end-to-end metrics follow the neighbours' load.
    All samples are kept where the kernel does not report steal.
    """
    if any(s.steal_frac is None for s in samples):
        return list(samples)
    chosen: List[Sample] = []
    for sample in sorted(samples, key=lambda s: s.steal_frac):
        steps = sum(len(s.steps_ms) for s in chosen)
        if 2 * len(chosen) >= len(samples) and steps >= MIN_POOLED_STEPS:
            break
        chosen.append(sample)
    return chosen


def end_to_end(samples: Sequence[Sample]) -> Dict[str, float]:
    pool = [ms for s in samples for ms in s.steps_ms]
    return {
        "time_to_result_s": _median([s.time_to_result_s for s in samples]),
        "setup_s": _median([s.setup_s for s in samples]),
        "step_ms": _median(pool),
        "step_ms_p90": float(np.percentile(pool, 90)),
        "peak_rss_mb": _median([s.peak_rss_mb for s in samples]),
    }


def summarize(samples: List[Sample], *, traced: bool) -> Tuple[Dict[str, float], List[str]]:
    """Reported metrics of one run, and the problems found."""
    problems: List[str] = []
    good = [s for s in samples if s.ok and not s.warmup]
    plain = [s for s in good if not s.traced]
    if not plain:
        problems.append("no untraced sample passed")
        return {}, problems
    metrics = end_to_end(quietest(plain))
    if not traced:
        return metrics, problems

    tracedsamples = [s for s in good if s.traced]
    if not tracedsamples:
        problems.append("no traced sample passed")
        return metrics, problems
    names = tracedsamples[0].layers.keys()
    for name in names:
        metrics[name] = _median([s.layers[name] for s in tracedsamples])
    overhead = {
        rank: _median([s.rank_wall_s[rank] for s in tracedsamples])
        / _median([s.rank_wall_s[rank] for s in plain])
        - 1.0
        for rank in range(RANKS)
    }
    for rank, value in overhead.items():
        metrics[f"bench.trace_overhead_frac.r{rank}"] = value
    metrics["bench.trace_overhead_frac.max"] = max(overhead.values())

    first = exact_counts(tracedsamples[0])
    for other in tracedsamples[1:]:
        counts = exact_counts(other)
        changed = sorted(k for k in first if counts.get(k) != first[k])
        if changed:
            problems.append(
                "exact counts differ between traced samples: "
                + ", ".join(f"{k} {first[k]} vs {counts.get(k)}" for k in changed)
            )
            break
    return metrics, problems


# ----------------------------------------------------------------------
# host stamp
# ----------------------------------------------------------------------
def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return pyplatform.processor() or "unknown"


def host_stamp(samples: List[Sample]) -> dict:
    transports = sorted({s.page_transport for s in samples if s.ok})
    steal = [s.steal_frac for s in samples if s.steal_frac is not None]
    return {
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": pyplatform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "mp_start_method": multiprocessing.get_start_method(),
        "rank_start_method": "fork",
        "page_transport": ",".join(transports) or "?",
        "steal_frac_median": round(_median(steal), 4) if steal else None,
        "steal_frac_max": round(max(steal), 4) if steal else None,
    }


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def measure(workload: Workload, config: dict, reference, *, seconds: float,
            traced: bool, keep_results: bool = False) -> List[Sample]:
    """Take samples for ``seconds``; traced runs alternate untraced/traced.

    A first, untimed warm-up sample fills the process's lazy imports and
    caches; it is still checked and counted as attempted.  Sampling goes
    on past ``seconds`` until an untraced run has pooled
    ``MIN_POOLED_STEPS`` steps (a traced run: ``MIN_TRACED`` traced
    samples), but stops ``max(seconds, 60)`` seconds later regardless.
    """
    recorder = Recorder()
    samples: List[Sample] = []
    deadline = give_up = 0.0
    while True:
        timed = samples[1:]
        n_traced = sum(s.traced for s in timed)
        n_plain = len(timed) - n_traced
        pooled = sum(len(s.steps_ms) for s in timed if s.ok and not s.traced)
        if traced:
            enough = n_plain >= 1 and n_traced >= MIN_TRACED
        else:
            enough = pooled >= MIN_POOLED_STEPS
        now = time.monotonic()
        if samples and ((enough and now >= deadline) or now >= give_up):
            break
        want_traced = traced and n_traced < n_plain
        sample = run_sample(workload, config, reference, recorder, traced=want_traced,
                            keep_result=keep_results)
        if not samples:
            sample.warmup = True
            deadline = time.monotonic() + seconds
            give_up = deadline + max(seconds, 60.0)
        if sample.error:
            print(f"sample {len(samples)} failed: {sample.error}", file=sys.stderr)
        samples.append(sample)
    return samples


def report(workload: Workload, seed: int, seconds: float, traced: bool,
           samples: List[Sample]) -> int:
    metrics, problems = summarize(samples, traced=traced)
    attempted = len(samples)
    failed = sum(not s.ok for s in samples)
    plain = [s for s in samples if s.ok and not s.traced and not s.warmup]
    quiet = quietest(plain)
    print(f"== perfbench {workload.name} seed={seed} seconds={seconds:g} trace={int(traced)}")
    print("host " + json.dumps(host_stamp(samples), sort_keys=True))
    print(
        f"samples attempted={attempted} failed={failed} failed_frac={failed / attempted:.4f} "
        f"warmup=1 untraced={len(plain)} quietest={len(quiet)} "
        f"traced={sum(s.traced and s.ok for s in samples)} "
        f"pooled_steps={sum(len(s.steps_ms) for s in quiet)}"
    )
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    if plain:
        print("over all untraced samples: " + " ".join(
            f"{name}={value:.6g}" for name, value in end_to_end(plain).items()))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    wanted = (
        [name for name, _u, _b in per_layer_names()]
        if traced
        else [m.name for m in END_TO_END]
    )
    absent = [name for name in wanted if name not in metrics]
    if absent:
        print(f"missing metrics: {', '.join(absent)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# smoke mode: the benchmark's own checks
# ----------------------------------------------------------------------
def smoke() -> int:
    problems: List[str] = []
    spec_path = ROOT / "BENCHMARK.json"
    expected = benchmark_spec(WORKLOADS)
    if json.loads(spec_path.read_text()) != expected:
        problems.append("BENCHMARK.json differs from catalog.benchmark_spec(WORKLOADS)")
    for layer in PER_LAYER:
        if not (layer.timed and layer.moves and layer.on):
            problems.append(f"prediction table row {layer.name} is incomplete")

    layer_names = [name for name, _u, _b in per_layer_names()]
    for workload in WORKLOADS.values():
        config = workload.config(DEFAULT_SEED, True)
        reference = workload.reference(config)
        samples = measure(workload, config, reference, seconds=0, traced=True,
                          keep_results=True)
        metrics, found = summarize(samples, traced=True)
        problems += [f"{workload.name}: {p}" for p in found]
        problems += [f"{workload.name}: sample failed: {s.error}" for s in samples if not s.ok]
        for name in [m.name for m in END_TO_END] + layer_names:
            value = metrics.get(name)
            if value is None or not math.isfinite(value):
                problems.append(f"{workload.name}: metric {name} missing or not finite")
        for sample in (s for s in samples if s.ok and s.traced):
            for rank, wall in sample.rank_wall_s.items():
                parts = sum(
                    sample.layers[f"{layer.name}.r{rank}"]
                    for layer in PER_LAYER
                    if layer.unit == "s"
                )
                if abs(parts - wall) > 1e-6 * wall:
                    problems.append(
                        f"{workload.name}: rank {rank} layer times add up to "
                        f"{parts:.6f}s, not its wall time {wall:.6f}s"
                    )
        perturbed = np.array(reference, dtype=np.float64, copy=True)
        perturbed[..., 1:] += 1e-6
        if any(workload.check(s.result, perturbed) for s in samples if s.ok):
            problems.append(f"{workload.name}: a perturbed reference was not detected")
        print(f"smoke {workload.name}: {len(samples)} samples, "
              f"{sum(s.ok for s in samples)} passed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is "
                             "held back for checking claims)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run tiny sizes once and check the benchmark itself")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed, False)
    reference = workload.reference(config)
    samples = measure(workload, config, reference, seconds=args.seconds,
                      traced=bool(args.trace))
    return report(workload, args.seed, args.seconds, bool(args.trace), samples)


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process the shm page transport started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)
