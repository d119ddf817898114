"""Abstract interface of the execution-backend subsystem.

The distributed-memory aspect module does not construct a runtime
directly; it asks the backend registry (:mod:`repro.runtime.backends`)
for an :class:`ExecutionBackend` and lets it create an
:class:`ExecutionWorld`.  A world bundles the four capabilities the
aspect module needs:

* **SPMD launch** — run the whole end-user program once per rank
  (:meth:`ExecutionWorld.run_spmd`), each rank with its own Env replica;
* **collectives** — :meth:`ExecutionWorld.barrier` /
  :meth:`ExecutionWorld.allreduce` between the ranks of the world;
* **block registration** — a cross-rank directory mapping logical block
  keys to owning ranks (:meth:`ExecutionWorld.register_block` +
  :meth:`ExecutionWorld.commit_registration`);
* **page transport** — :meth:`ExecutionWorld.fetch_pages_bulk` moves a
  manifest of page snapshots from their owning ranks to the requester,
  one request/reply message pair per owner.  It is the one transport
  operation a backend must implement: the paper's per-page protocol is
  a one-page manifest, and the nonblocking
  :meth:`ExecutionWorld.fetch_pages_bulk_async` defaults to it.

Implementations shipped with the platform: ``serial`` (inline, world of
one), ``threads`` (one OS thread per rank — the original simulated
runtime), ``process`` (one real ``multiprocessing`` process per rank).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CollectiveError, InjectedFault, NetworkError
from ..task import TaskContext

__all__ = [
    "BackendError",
    "BulkFetchResult",
    "CommHandle",
    "CompletedCommHandle",
    "ExecutionBackend",
    "ExecutionWorld",
    "RankResult",
    "SpmdFailure",
    "group_requests_by_owner",
    "raise_spmd_failures",
    "serve_bulk_locally",
]


class BackendError(RuntimeError):
    """An execution backend is unknown, unavailable or misconfigured."""


class SpmdFailure(RuntimeError):
    """One or more ranks of an SPMD run failed.

    Subclasses :class:`RuntimeError` so existing callers that catch the
    generic failure keep working; carries the per-rank
    :class:`RankResult` list so the resilience layer can diagnose
    *which* ranks died (injected faults, dead pipes) versus which merely
    saw their peers' collectives fail.
    """

    def __init__(self, message: str, results: Optional[List["RankResult"]] = None) -> None:
        super().__init__(message)
        self.results: List["RankResult"] = list(results or [])


@dataclass
class RankResult:
    """Outcome of one rank's SPMD execution."""

    rank: int
    value: Any = None
    error: Optional[BaseException] = None


def raise_spmd_failures(results: List[RankResult], *, note: Optional[str] = None) -> None:
    """Raise a RuntimeError summarising failed ranks (no-op when all passed).

    When both root-cause errors and secondary collective timeouts are
    present (a dead rank makes its peers' collectives fail too), the
    chained cause prefers the root cause so tracebacks point at the
    actual bug.  ``note`` appends backend-level context (e.g. the first
    transport send failure) that no single rank's error captures.
    """
    errors = [r for r in results if r.error is not None]
    if not errors:
        return
    primary = next(
        (r for r in errors if not isinstance(r.error, (CollectiveError, NetworkError))),
        errors[0],
    )
    message = f"{len(errors)} rank(s) failed; first failure on rank {primary.rank}"
    if note:
        message = f"{message} ({note})"
    raise SpmdFailure(message, results) from primary.error


@dataclass
class BulkFetchResult:
    """Outcome of one batched page exchange (:meth:`ExecutionWorld.fetch_pages_bulk`).

    ``pages`` holds ``(logical_key, page_index, data)`` triples in
    request order per owner; ``exchanges`` is the number of aggregated
    request/reply pairs the batch cost (one per distinct owning rank)
    and ``nbytes`` the page payload volume moved.
    """

    pages: List[Tuple[Any, int, Any]] = field(default_factory=list)
    exchanges: int = 0
    nbytes: int = 0


def group_requests_by_owner(
    directory: Any, requests: Sequence[Tuple[Any, int]]
) -> Dict[int, List[Tuple[Any, int, int]]]:
    """Resolve page requests against a block directory, grouped by owner.

    ``requests`` is a sequence of ``(logical_key, page_index)`` pairs;
    the result maps each owning rank to ``(logical_key, page_index,
    owner-local block id)`` triples, preserving request order within
    each owner.  Raises :class:`~repro.runtime.errors.NetworkError` when
    a key has no registered owner.
    """
    grouped: Dict[int, List[Tuple[Any, int, int]]] = {}
    block_ids: Dict[Any, Tuple[int, int]] = {}
    for logical_key, page_index in requests:
        resolved = block_ids.get(logical_key)
        if resolved is None:
            owner = directory.owner_of(logical_key)
            resolved = (owner, directory.block_id_on(logical_key, owner))
            block_ids[logical_key] = resolved
        owner, block_id = resolved
        grouped.setdefault(owner, []).append((logical_key, page_index, block_id))
    return grouped


def serve_bulk_locally(
    world: "ExecutionWorld", requester: int, requests: Sequence[Tuple[Any, int]]
) -> BulkFetchResult:
    """Serve a bulk fetch out of Envs living in this process.

    Used by worlds whose page owners are all local (the ``serial``
    world, a single-rank ``process`` world); ``world`` provides
    ``directory``, ``env_of`` and ``stats``.  Every owner still costs
    one accounted request/reply pair in ``world.stats``, so the traffic
    counters have the same shape as on a real exchange.
    """
    from ...memory.page import PageKey  # local import to avoid a cycle

    stats = world.stats
    result = BulkFetchResult()
    for owner, items in sorted(group_requests_by_owner(world.directory, requests).items()):
        env = world.env_of(owner)
        datas = [env.page_snapshot(PageKey(block_id, page)) for _, page, block_id in items]
        payload_bytes = sum(int(d.nbytes) for d in datas)
        manifest_bytes = 32 + 16 * len(items)
        stats.page_fetches += len(items)
        stats.bulk_fetches += 1
        stats.bulk_pages += len(items)
        stats.messages += 2
        stats.bytes_moved += payload_bytes + manifest_bytes
        stats.record_neighbor(requester, owner, 1, manifest_bytes)
        stats.record_neighbor(owner, requester, 1, payload_bytes)
        result.pages.extend(
            (logical_key, page, data) for (logical_key, page, _), data in zip(items, datas)
        )
        result.exchanges += 1
        result.nbytes += payload_bytes
    return result


class CommHandle(abc.ABC):
    """A nonblocking bulk page fetch in flight (overlapped halo exchange).

    Returned by :meth:`ExecutionWorld.fetch_pages_bulk_async`.  The
    requester issues the handle, computes its interior sweep while the
    pages travel, then calls :meth:`wait` to obtain the
    :class:`BulkFetchResult` before touching halo data.

    ``wait()`` is **idempotent**: the first call blocks until every
    in-flight exchange completed and memoizes the result (or the
    failure); every later call returns the same result object (or
    re-raises the same error) without blocking and — critically for
    :class:`~repro.runtime.network.NetworkStats` — without accounting
    the traffic a second time.  Backends implement :meth:`_wait` only.
    """

    __slots__ = ("_result", "_error", "_done")

    def __init__(self) -> None:
        self._result: Optional[BulkFetchResult] = None
        self._error: Optional[BaseException] = None
        self._done = False

    @abc.abstractmethod
    def _wait(self) -> BulkFetchResult:
        """Block until completion; called at most once."""

    def wait(self) -> BulkFetchResult:
        """Block until the fetch completed; safe to call repeatedly."""
        if not self._done:
            try:
                self._result = self._wait()
            except BaseException as exc:
                self._error = exc
                raise
            finally:
                self._done = True
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    @property
    def done(self) -> bool:
        """Whether :meth:`wait` already ran (successfully or not)."""
        return self._done


class CompletedCommHandle(CommHandle):
    """An already-completed handle (serial backend / synchronous fallback)."""

    __slots__ = ()

    def __init__(self, result: BulkFetchResult) -> None:
        super().__init__()
        self._result = result
        self._done = True

    def _wait(self) -> BulkFetchResult:  # pragma: no cover - never reached
        raise AssertionError("CompletedCommHandle is constructed completed")


class ExecutionWorld(abc.ABC):
    """One SPMD world: ranks, collectives, block directory, page transport."""

    #: Registry name of the backend that created this world.
    backend_name: str = "?"
    #: Number of ranks.
    size: int
    #: Installed fault plan (``None`` when no faults are injected).  The
    #: plan is duck-typed (see :class:`repro.resilience.FaultPlan`) so
    #: the runtime substrate never imports the resilience package.
    fault_plan: Any = None

    # -- failure injection ---------------------------------------------
    def install_fault_plan(self, plan: Any) -> None:
        """Install a seeded fault plan honored by this world's fault points.

        Must be called **before** :meth:`run_spmd` — the process backend
        ships the plan to child ranks over ``fork`` at launch, so a plan
        installed later is invisible to them.
        """
        self.fault_plan = plan

    def fault_point(self, rank: int, phase: str, epoch: Optional[int] = None) -> None:
        """Fire any fault the installed plan schedules at this point.

        Called by backends (``commit_registration``) and by the
        resilience aspect (refresh entry / post-refresh).  ``phase`` is
        one of ``"register"`` / ``"refresh"`` / ``"epoch"``; ``epoch``
        is the rank's count of completed (non-warm-up) refresh rounds.
        A ``kill`` fault terminates the rank via :meth:`_execute_kill`;
        reply faults are consumed by the transport layers instead.
        """
        plan = self.fault_plan
        if plan is None:
            return
        fault = plan.take_kill(rank, phase, epoch)
        if fault is not None:
            self._execute_kill(fault, rank)

    def _execute_kill(self, fault: Any, rank: int) -> None:
        """Kill ``rank``.  Default: raise :class:`InjectedFault` in-stack.

        The process backend overrides this to ``os._exit`` forked child
        ranks, exercising real child-death detection (dead pipes,
        nonzero exit codes) in peers and in the parent collector.
        """
        raise InjectedFault(rank, str(fault))

    # -- SPMD launch ----------------------------------------------------
    @abc.abstractmethod
    def run_spmd(
        self, body: Callable[[TaskContext], Any], *, omp_threads: int = 1
    ) -> List[RankResult]:
        """Execute ``body`` once per rank; raise if any rank failed."""

    @abc.abstractmethod
    def finalize(self) -> None:
        """Release per-run resources (Env replicas, endpoints); idempotent."""

    # -- Env / block registration --------------------------------------
    @abc.abstractmethod
    def register_env(self, rank: int, env: Any) -> None:
        """Attach a rank's Env replica as its page-serving endpoint."""

    @abc.abstractmethod
    def env_of(self, rank: int) -> Any:
        """Return the Env registered by ``rank`` (NetworkError if absent)."""

    @abc.abstractmethod
    def register_block(self, logical_key: Any, rank: int, block_id: int, *, owner: bool) -> None:
        """Record that ``rank`` materialised ``logical_key`` as ``block_id``."""

    @abc.abstractmethod
    def commit_registration(self) -> None:
        """Collective close of the registration phase.

        After every rank returns from this call, each rank's directory
        can resolve the owner (and the owner-local block id) of every
        logical key registered by any rank.  Doubles as a barrier.
        """

    # -- collectives ----------------------------------------------------
    @abc.abstractmethod
    def barrier(self) -> None:
        """Synchronise all ranks of the world."""

    @abc.abstractmethod
    def allreduce(self, value: Any, op: Callable[[List[Any]], Any]) -> Any:
        """Every rank contributes ``value``; all receive ``op(values)``.

        The ``serial`` and ``process`` backends deliver ``values``
        ordered by contributing rank; the ``threads`` backend delivers
        them in arrival order — ``op`` must therefore be commutative
        (and/or/sum/min/max and friends), as real MPI reductions are.
        """

    def allreduce_and(self, flag: bool) -> bool:
        """Logical-AND allreduce (used to agree on refresh success)."""
        return bool(self.allreduce(bool(flag), lambda values: all(values)))

    def allreduce_sum(self, value: float) -> float:
        """Sum allreduce (used by examples for residual norms)."""
        return float(self.allreduce(float(value), lambda values: sum(values)))

    # -- page transport -------------------------------------------------
    @abc.abstractmethod
    def fetch_pages_bulk(
        self, requester: int, requests: Sequence[Tuple[Any, int]]
    ) -> BulkFetchResult:
        """Fetch many pages at once, aggregated per owning rank.

        ``requests`` is a sequence of ``(logical_key, page_index)``
        pairs.  Every owner costs **one request/reply message pair** (a
        page-key manifest out, the pages back), so a one-page manifest
        is the per-page protocol of the paper's prototype.  Raises
        :class:`~repro.runtime.errors.NetworkError` when a key has no
        registered owner or the owner cannot serve.
        """

    def fetch_pages_bulk_async(
        self, requester: int, requests: Sequence[Tuple[Any, int]]
    ) -> CommHandle:
        """Start fetching many pages without blocking; returns a :class:`CommHandle`.

        The overlapped-refresh protocol issues this right after the step
        barrier and waits the handle only once the interior sweep is
        done, hiding the halo round-trip behind computation.  Owner
        resolution failures surface at *issue* time (same exceptions as
        :meth:`fetch_pages_bulk`).  This default implementation — used
        by the ``serial`` backend and any custom backend that does not
        override it — performs the exchange synchronously and returns an
        immediate-completion handle.
        """
        return CompletedCommHandle(self.fetch_pages_bulk(requester, requests))

    # -- accounting -----------------------------------------------------
    @abc.abstractmethod
    def traffic_summary(self) -> dict:
        """Aggregate traffic counters with :class:`~repro.runtime.network.NetworkStats` keys."""


class ExecutionBackend(abc.ABC):
    """Factory for :class:`ExecutionWorld` instances of one execution strategy."""

    #: Registry name (``Platform.builder().backend(name)`` selects it).
    name: str = "?"

    @abc.abstractmethod
    def create_world(
        self, size: int, *, timeout: float = 60.0, page_transport: str = "auto"
    ) -> ExecutionWorld:
        """Create a world of ``size`` ranks.

        ``page_transport`` selects the bulk page-fetch data plane
        (``"auto"``/``"shm"``/``"pipe"``).  Only the process backend moves
        pages between address spaces, so the other backends accept and
        ignore the knob — a platform configured with
        ``page_transport="shm"`` keeps working when the backend is swapped
        for ``threads`` or ``serial``.
        """

    def available(self) -> bool:
        """Whether this backend can run on the current interpreter/OS."""
        return True
