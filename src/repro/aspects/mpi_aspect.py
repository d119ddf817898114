"""Distributed-memory aspect module (the paper's "aspect of MPI").

This module weaves the distributed-memory layer into an application:

* **AspectType I — control of the runtime and tasks.**  Around the
  program entry point it creates the simulated MPI world, runs the
  whole program once per rank (SPMD) and finalises the runtime — the
  direct analogue of "the initialization runtime and finalization
  runtime Advices are performed before and after the entry point
  (main of C++ programs)".
* **AspectType II — assigning Blocks to tasks.**  Around
  ``Env.get_blocks`` it restricts the returned Blocks to those whose
  data-manage task belongs to the caller's rank.  (As in the paper's
  prototype, the actual Z-order assignment is computed by the DSL layer
  when it builds each rank's Env; the advice enforces/documents the
  ownership split.)
* **AspectType III — communication of data between tasks.**  Around
  ``Env.refresh`` it implements the collective step protocol: agree
  whether every rank's step succeeded, fetch the pages recorded as
  non-existent from their owners when it did not, and — via the
  **Dry-run** record — prefetch, after every successful refresh, the
  pages this rank is known to need so later steps do not fail at all.
  Every page moves through one transport operation,
  :meth:`ExecutionWorld.fetch_pages_bulk` (one request/reply message
  pair per owning rank).  When MMAT warm-up has compiled access plans,
  the steady-state halo is statically known and the prefetch is
  compiled into a :class:`CommPlan` executed as **one aggregated
  message pair per neighbor rank**; without plans — and for the repair
  fetch of a failed step — each page is its own one-page manifest,
  which keeps the paper's one-message-pair-per-page model.  The planned
  exchange is always issued *nonblocking*
  (:meth:`ExecutionWorld.fetch_pages_bulk_async`) right after the step
  barrier as a :class:`PendingHalo`.  In the default **overlapped**
  mode (``overlap=True``) it is parked on the Env; the next sweep
  computes its interior segment while the pages travel and completes
  the exchange only when it first touches halo data — hiding the
  communication round-trip behind computation, with numerically
  identical results.  With ``overlap=False`` it is completed at once.

The module also registers every rank's Env and Blocks in the world's
:class:`~repro.runtime.simmpi.BlockDirectory` (after ``Initialize``),
which is what lets page fetches name remote Blocks by logical key.

Pointcuts are declared in the textual pointcut language
(``"tagged('platform.entry')"``), matching the annotation tags of
:mod:`repro.aop.registry` — the Python analogue of AspectC++'s string
match expressions.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from ..aop.advice import after_returning, around, before
from ..memory.block import BufferOnlyBlock, DataBlock
from ..memory.page import PageKey
from ..obs.metrics import record as metric_record
from ..obs.spans import global_tracer
from ..runtime.backends import DEFAULT_BACKEND, get_backend
from ..runtime.backends.base import BulkFetchResult, CommHandle, ExecutionWorld
from ..runtime.errors import NetworkError, PageFetchError
from ..runtime.shm import validate_page_transport
from ..runtime.task import current_task
from ..runtime.tracing import global_trace
from .base import LayerAspect

__all__ = ["CommPlan", "DistributedMemoryAspect", "PendingHalo"]


@dataclass
class CommPlan:
    """A compiled communication schedule for one rank's steady-state halo.

    Once MMAT warm-up has compiled access plans, the rank's full remote
    page set is statically known (``Env.plan_page_requirements`` united
    with the Dry-run record).  A CommPlan freezes that set into a
    transport manifest — ``(local PageKey, logical block key, page
    index)`` per page — so every subsequent refresh can hand the whole
    halo to :meth:`ExecutionWorld.fetch_pages_bulk_async` in one call
    and the world moves **one aggregated message pair per neighbor
    rank** instead of one pair per page.  The plan is a pure cache keyed
    by its page set: when the requirement set changes (MMAT reset, new
    plans compiled, dry-run growth) the aspect transparently recompiles
    it.
    """

    #: The halo page set this plan covers (cache key).
    keys: frozenset
    #: Transport manifest, sorted by local page key.
    requests: List[Tuple[PageKey, Any, int]]

    def __post_init__(self) -> None:
        self._index: Dict[Tuple[Any, int], PageKey] = {
            (lk, page): key for key, lk, page in self.requests
        }

    def key_for(self, logical_key: Any, page_index: int) -> PageKey:
        """Map a transport result back to the local page it fills."""
        return self._index[(logical_key, page_index)]


@contextmanager
def _page_fetch_errors(what: str):
    """Re-raise transport failures as :class:`PageFetchError` naming ``what``."""
    try:
        yield
    except PageFetchError:
        raise
    except NetworkError as exc:
        raise PageFetchError(f"{what}: {exc}") from exc


def _install(env, plan: CommPlan, result: BulkFetchResult, trace, *, fallback: bool) -> None:
    """Install an exchange's pages on the Env and account its traffic.

    ``fallback`` marks the one-page exchanges of the per-page protocol
    (no plan, or a failed step's repair); the others are comm-plan
    exchanges.  Either way each exchange is one message pair.
    """
    env.page_install_many(
        (plan.key_for(lk, page), data) for lk, page, data in result.pages
    )
    pages = len(result.pages)
    trace.pages_fetched += pages
    trace.bytes_fetched += result.nbytes
    trace.messages += 2 * result.exchanges
    if fallback:
        trace.comm_plan_fallback_pages += pages
    else:
        trace.comm_plan_exchanges += result.exchanges
        trace.comm_plan_pages += pages


class PendingHalo:
    """One rank's planned halo exchange, issued but not yet installed.

    Created by the refresh advice right after the step barrier (the
    ``breq`` manifests are already on the wire / the background fetches
    running).  In overlapped mode it is attached to the rank's Env via
    :meth:`~repro.memory.env.Env.set_pending_halo`, and the first reader
    that needs halo data — the boundary phase of
    :meth:`~repro.dsl.base.BlockKernel.sweep_segment`, a boundary plan
    segment, a scalar Buffer-only access, or the next refresh — calls
    :meth:`complete`, which waits the :class:`CommHandle`, bulk-installs
    the pages through the CommPlan's manifest and accounts the traffic
    plus the ``overlap_*`` timing counters.  Everything between issue
    and completion is computation the exchange latency hid behind.  In
    blocking mode (``overlapped=False``) the advice completes it at
    once and no ``overlap_*`` counter moves.
    """

    __slots__ = ("plan", "handle", "trace", "issued_ns", "span_token", "overlapped")

    def __init__(
        self, plan: CommPlan, handle: CommHandle, trace, span_token=None, *, overlapped=True
    ) -> None:
        self.plan = plan
        self.handle = handle
        self.trace = trace
        self.issued_ns = time.perf_counter_ns()
        #: Async span token of the issue→complete flight (None untraced).
        self.span_token = span_token
        self.overlapped = overlapped

    def complete(self, env, *, drained: bool = False) -> None:
        """Wait for the exchange, install its pages, account the traffic.

        ``drained=True`` marks a completion at a synchronisation point
        (refresh entry, finalize, re-issue) where no interior compute
        ran in between — counted separately so the overlap-efficiency
        report distinguishes hidden from merely deferred latency.
        """
        trace = self.trace
        tracer = global_tracer()
        mode = "overlapped halo exchange" if self.overlapped else "halo exchange"
        wait_start = time.perf_counter_ns()
        failed = True
        try:
            with tracer.span("halo.wait", drained=drained), _page_fetch_errors(
                f"{mode} of {len(self.plan.requests)} pages failed"
            ):
                result = self.handle.wait()
            failed = False
        finally:
            # A failed wait still closes the flight, keeping the trace's
            # async begin/end events paired.
            tracer.async_end(self.span_token, drained=drained, failed=failed)
        completed = time.perf_counter_ns()
        _install(env, self.plan, result, trace, fallback=False)
        metric_record("exchange.pages", len(result.pages))
        if not self.overlapped:
            return
        # The overlap_* counters add the async dimension.
        trace.overlap_exchanges += result.exchanges
        trace.overlap_pages += len(result.pages)
        if drained:
            # Drained latency was deferred, not hidden: keep it out of
            # the wait/flight sums so overlap efficiency only measures
            # exchanges a sweep actually computed behind.
            trace.overlap_drained += 1
        else:
            trace.overlap_wait_ns += completed - wait_start
            trace.overlap_flight_ns += completed - self.issued_ns
            metric_record("halo.wait_ns", completed - wait_start)
            metric_record("halo.flight_ns", completed - self.issued_ns)


class DistributedMemoryAspect(LayerAspect):
    """Aspect module managing the distributed-memory (MPI-like) layer.

    The runtime itself is pluggable: ``backend`` selects an execution
    backend from :mod:`repro.runtime.backends` (``serial`` | ``threads``
    | ``process`` | any registered custom backend).  When left unset the
    aspect falls back to the Platform's configured backend and finally
    to the default ``threads`` simulation.
    """

    layer = "mpi"
    #: Precedence: *inside* the shared-memory aspect (see aspects/__init__),
    #: so that in hybrid runs only each rank's master thread executes the
    #: collective refresh protocol.
    order = 20

    def __init__(
        self,
        processes: int = 1,
        *,
        timeout: float | None = None,
        backend: str | None = None,
        page_transport: str | None = None,
        comm_plans: bool = True,
        overlap: bool = True,
    ) -> None:
        super().__init__(parallelism=processes)
        #: Communication timeout override; ``None`` defers to the
        #: Platform's ``comm_timeout`` and finally to 60 seconds.
        self.timeout = timeout
        self.backend_name = backend
        #: Bulk page-fetch data plane override (``"auto"``/``"shm"``/
        #: ``"pipe"``); ``None`` defers to the Platform's
        #: ``page_transport`` and finally to ``"auto"``.  Only the
        #: process backend distinguishes them.
        self.page_transport = (
            validate_page_transport(page_transport) if page_transport is not None else None
        )
        #: Whether to compile CommPlans (aggregated per-neighbor halo
        #: exchange) from warmed-up access plans; False keeps the
        #: paper's one-message-pair-per-page protocol everywhere.
        self.comm_plans = bool(comm_plans)
        #: Whether the planned halo refresh runs *overlapped*: issued
        #: nonblocking right after the step barrier and completed only
        #: when the next sweep first touches halo data, hiding the
        #: communication latency behind the interior computation.
        #: False completes the same exchange right at issue time; either
        #: way the per-page protocol remains the fallback when no plans
        #: exist.
        self.overlap = bool(overlap)
        self.world: ExecutionWorld | None = None
        #: Dry-run record: rank -> set of local PageKeys that had to be
        #: fetched at least once; prefetched after every successful refresh.
        self._dry_run: Dict[int, Set[PageKey]] = {}
        #: Compiled communication schedules: rank -> CommPlan (a cache —
        #: invalidated whenever the rank's halo requirement set changes).
        self._comm_plans: Dict[int, CommPlan] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def resolve_backend_name(self) -> str:
        """The backend this aspect will use: own setting, Platform's, default."""
        if self.backend_name:
            return self.backend_name
        platform_backend = getattr(self.platform, "backend", None)
        return platform_backend or DEFAULT_BACKEND

    def resolve_timeout(self) -> float:
        """The communication timeout: own setting, Platform's ``comm_timeout``, 60s."""
        if self.timeout is not None:
            return self.timeout
        platform_timeout = getattr(self.platform, "comm_timeout", None)
        return float(platform_timeout) if platform_timeout is not None else 60.0

    def resolve_page_transport(self) -> str:
        """The page data plane: own setting, Platform's ``page_transport``, auto."""
        if self.page_transport is not None:
            return self.page_transport
        platform_transport = getattr(self.platform, "page_transport", None)
        return platform_transport or "auto"

    # ------------------------------------------------------------------
    # AspectType I — control of the runtime and tasks
    # ------------------------------------------------------------------
    @around("tagged('platform.entry')", order=0)
    def manage_runtime(self, jp):
        """Initialise the distributed runtime, run the program per rank, finalise."""
        platform = self.platform
        backend = get_backend(self.resolve_backend_name())
        omp_threads = platform.parallelism_of("omp") if platform is not None else 1
        entry = jp.continuation()

        # With a resilience policy configured, the recovery manager owns
        # the world lifecycle: it re-creates (shrunken) worlds after
        # diagnosed rank deaths and re-runs the program from the last
        # complete checkpoint epoch.
        manager = getattr(platform, "resilience", None) if platform is not None else None
        if manager is not None:
            return manager.execute(
                backend,
                self,
                entry,
                omp_threads=omp_threads,
                timeout=self.resolve_timeout(),
                page_transport=self.resolve_page_transport(),
            )

        world = backend.create_world(
            self.parallelism,
            timeout=self.resolve_timeout(),
            page_transport=self.resolve_page_transport(),
        )
        self.world = world
        self._dry_run = {rank: set() for rank in range(world.size)}
        self._comm_plans = {}
        if platform is not None:
            platform.context["mpi_world"] = world

        try:
            results = world.run_spmd(lambda _ctx: entry(), omp_threads=omp_threads)
        finally:
            # Finalise on failure too: an un-finalised world would keep
            # every rank's Env replica alive until the next run.
            world.finalize()
        # The "result" of the program is rank 0's application instance,
        # mirroring how the paper's benchmarks report from process 0.
        return results[0].value

    # ------------------------------------------------------------------
    # Env / Block registration (runs after the DSL built each rank's Env)
    # ------------------------------------------------------------------
    @after_returning("tagged('platform.initialize')", order=0)
    def register_env(self, jp):
        """Register the rank's Env replica and its Blocks with the world."""
        world = self.world
        if world is None:
            return
        app = jp.target
        env = getattr(app, "env", None)
        if env is None:
            return
        rank = current_task().mpi_rank
        world.register_env(rank, env)
        omp_threads = current_task().omp_threads
        for block in env.data_blocks(include_buffer_only=True):
            logical_key = getattr(block, "logical_key", None)
            if logical_key is None:
                continue
            owns = isinstance(block, DataBlock) and not isinstance(block, BufferOnlyBlock)
            owns = owns and block.dm_tid == rank * omp_threads
            world.register_block(logical_key, rank, block.block_id, owner=owns)
        # Every rank must finish registering before any rank starts
        # computing (a fetch may target any rank from the first step);
        # backends without a shared directory also exchange entries here.
        world.commit_registration()

    # ------------------------------------------------------------------
    # AspectType II — assigning Blocks to tasks
    # ------------------------------------------------------------------
    @around("tagged('memory.get_blocks')", order=0)
    def assign_blocks(self, jp):
        """Restrict the Block list to those managed by the caller's rank."""
        blocks = jp.proceed()
        if self.world is None:
            return blocks
        task = current_task()
        master_tid = task.mpi_rank * task.omp_threads
        return [b for b in blocks if b.dm_tid == master_tid]

    # ------------------------------------------------------------------
    # AspectType III — communication of data between tasks
    # ------------------------------------------------------------------
    @around("tagged('memory.refresh')", order=0)
    def exchange_data(self, jp):
        """Collective refresh: agree on success, move pages, prefetch dry-run pages."""
        world = self.world
        if world is None:
            return jp.proceed()
        env = jp.target
        task = current_task()
        rank = task.mpi_rank
        trace = global_trace().for_task()

        # Finish any overlapped exchange still in flight (e.g. the sweep
        # never touched halo data this step) before agreeing on the step
        # outcome: its pages count as delivered, not missing.
        env.complete_pending_halo(drained=True)

        tracer = global_tracer()
        local_ok = not env.missing_pages
        with tracer.span("step.allreduce"):
            global_ok = world.allreduce_and(local_ok)
        trace.collectives += 1

        if not global_ok:
            # At least one rank accessed data it does not have: nobody may
            # swap; ranks that failed fetch the missing pages and the step
            # is re-executed (§III-B9).
            if local_ok:
                needed: Set[PageKey] = set()
                result = False
            else:
                result = jp.proceed()  # records last_failed_pages, no swap
                needed = set(env.last_failed_pages)
            with self._lock:
                self._dry_run.setdefault(rank, set()).update(needed)
            with tracer.span("halo.repair", pages=len(needed)):
                self._fetch_per_page(env, rank, needed, trace)
            with tracer.span("step.barrier"):
                world.barrier()
            trace.collectives += 1
            return False

        # Every rank can finish the step: swap buffers (unless warm-up) …
        result = jp.proceed()
        with tracer.span("step.barrier"):
            world.barrier()
        trace.collectives += 1
        # … then prefetch, with the owners' new data, every page this rank
        # is known to need for the next step: the Dry-run record (pages
        # that were observed missing) united with the halo pages of every
        # compiled access plan.  Once access plans exist the full halo is
        # statically known, so it moves through a compiled CommPlan — one
        # aggregated message pair per neighbor rank; without plans (MMAT
        # off, plan invalidated, scalar kernels) the per-page protocol is
        # used transparently.
        env.invalidate_buffer_only()
        with self._lock:
            prefetch = set(self._dry_run.get(rank, ()))
        plan_pages = env.plan_page_requirements()
        prefetch |= plan_pages
        if self.comm_plans and plan_pages:
            if self.overlap:
                env.set_pending_halo(self._exchange_planned_async(env, rank, prefetch, trace))
            else:
                # Blocking mode: the same exchange, waited at issue time.
                with tracer.span("halo.exchange", pages=len(prefetch)):
                    self._exchange_planned_async(
                        env, rank, prefetch, trace, overlapped=False
                    ).complete(env)
        else:
            with tracer.span("halo.perpage", pages=len(prefetch)):
                self._fetch_per_page(env, rank, prefetch, trace)
        return result

    # ------------------------------------------------------------------
    @before("tagged('platform.finalize')", order=0)
    def drain_overlap(self, jp):
        """Complete a halo exchange still in flight when the program ends.

        The last step's refresh issues an exchange no sweep will ever
        consume; draining it here keeps the traffic accounting identical
        to the blocking path and leaves no reply in flight when the
        world tears down.
        """
        env = getattr(jp.target, "env", None)
        if env is not None:
            env.complete_pending_halo(drained=True)

    # ------------------------------------------------------------------
    def _comm_plan_for(self, env, rank: int, keys: Set[PageKey], trace) -> CommPlan:
        """Return the rank's cached CommPlan, recompiling if the halo changed."""
        frozen = frozenset(keys)
        with self._lock:
            plan = self._comm_plans.get(rank)
        if plan is not None and plan.keys == frozen:
            return plan
        with global_tracer().span("plan.comm_compile", pages=len(keys)):
            plan = CommPlan(keys=frozen, requests=self._manifest(env, rank, keys))
        with self._lock:
            self._comm_plans[rank] = plan
        trace.comm_plan_compiles += 1
        return plan

    @staticmethod
    def _manifest(env, rank: int, keys: Set[PageKey]) -> List[Tuple[PageKey, Any, int]]:
        """``(local PageKey, logical block key, page index)`` per page, sorted."""
        requests: List[Tuple[PageKey, Any, int]] = []
        for key in sorted(keys):
            block = env.block(key.block_id)
            logical_key = getattr(block, "logical_key", None)
            if logical_key is None:
                raise PageFetchError(
                    f"rank {rank} cannot plan a fetch for page {key}: block "
                    f"{block.name!r} has no logical key, so its owning rank "
                    "is unresolvable"
                )
            requests.append((key, logical_key, key.page_index))
        return requests

    def _exchange_planned_async(
        self, env, rank: int, keys: Set[PageKey], trace, *, overlapped: bool = True
    ) -> PendingHalo:
        """Issue the planned halo refresh nonblocking; return its PendingHalo.

        The aggregated per-neighbor requests leave immediately
        (:meth:`ExecutionWorld.fetch_pages_bulk_async`); in overlapped
        mode the caller parks the :class:`PendingHalo` on the Env, where
        the first halo reader of the next sweep completes it —
        everything computed until then overlaps the exchange.
        Owner-resolution failures surface here, at issue time.
        """
        world = self.world
        assert world is not None
        plan = self._comm_plan_for(env, rank, keys, trace)
        with _page_fetch_errors(
            f"rank {rank} failed to issue the halo exchange of {len(plan.requests)} pages"
        ):
            handle = world.fetch_pages_bulk_async(
                rank, [(lk, page) for _, lk, page in plan.requests]
            )
        token = None
        if overlapped:
            trace.overlap_issues += 1
            # The flight span is closed by whichever reader completes the
            # PendingHalo — Perfetto draws the b/e pair as an arrow across
            # everything computed in between.
            token = global_tracer().async_begin("halo.flight", pages=len(plan.requests))
        return PendingHalo(plan, handle, trace, span_token=token, overlapped=overlapped)

    def _fetch_per_page(self, env, rank: int, keys: Set[PageKey], trace) -> None:
        """Pull each page in ``keys`` from its owner as a one-page bulk exchange.

        The per-page protocol of the paper's prototype (one message pair
        per page), used when no CommPlan applies and for the repair
        fetch of a failed step.
        """
        world = self.world
        assert world is not None
        for request in self._manifest(env, rank, keys):
            key, logical_key, page_index = request
            with _page_fetch_errors(
                f"rank {rank} failed to fetch page {page_index} of block {logical_key!r}"
            ):
                result = world.fetch_pages_bulk(rank, [(logical_key, page_index)])
            plan = CommPlan(keys=frozenset((key,)), requests=[request])
            _install(env, plan, result, trace, fallback=True)

    # ------------------------------------------------------------------
    def on_detach(self, platform) -> None:
        """Drop the world and every cached plan when unwoven from a platform."""
        super().on_detach(platform)
        self.world = None
        self._dry_run = {}
        self._comm_plans = {}
