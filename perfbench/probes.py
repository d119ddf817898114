"""Timing probes the benchmark installs around the platform's public calls.

The platform is measured from the outside: nothing in ``src/`` knows the
benchmark exists.  A :class:`Recorder` replaces attributes on the
platform's classes and modules for the duration of one sample and puts
the originals back afterwards (:meth:`Recorder.installed`).

Two probe sets exist:

* **markers** — always installed.  They time rank 0's steady-state
  steps (``TargetApplication.run``) and mark the launch of the SPMD
  world, so untraced samples can report set-up and step time.
* **layers** — installed only in traced samples.  One span per public
  layer call (see :data:`METHOD_SPANS` and :data:`FUNCTION_SPANS`);
  a span's *self* time is its duration minus the spans nested in it.

Probes go in before the world forks, so forked ranks inherit them.  Each
rank's records ride back to the parent inside the rank body's return
value (the process backend already ships rank results over its result
pipe); the parent unpacks them before the platform sees the value.
Only the thread that runs the rank body is timed: page-serving receiver
threads run concurrently and would double-count wall time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import resource
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import Platform, TargetApplication
from repro.dsl.base import BlockKernel, DslTarget
from repro.memory.env import Env
from repro.runtime.backends.base import CommHandle, ExecutionWorld
from repro.runtime.backends.process import ProcessWorld

__all__ = ["Recorder", "RankRecord"]

_now = time.perf_counter_ns

#: Span of ``TargetApplication.run``; its self time is the app's own
#: step work (``apps.kernel_s``).
STEP_SPAN = "apps.kernel_s"
WEAVE_SPAN = "annotation.weave_s"
REFRESH_SPAN = "memory.refresh_s"
ALLREDUCE_SPAN = "runtime.allreduce_s"

#: (span name, class, method) timed in traced samples.  Platform
#: construction is also a weave span, see :meth:`Recorder._wrap_init`.
METHOD_SPANS: Tuple[Tuple[str, type, str], ...] = (
    (WEAVE_SPAN, Platform, "build"),
    ("dsl.initialize_s", DslTarget, "initialize"),
    ("annotation.warm_up_s", TargetApplication, "warm_up"),
    ("memory.find_block_s", Env, "find_block"),
    ("runtime.fetch_bulk_s", ProcessWorld, "fetch_pages_bulk"),
    ("runtime.halo_issue_s", ProcessWorld, "fetch_pages_bulk_async"),
    ("runtime.halo_wait_s", CommHandle, "wait"),
    ("runtime.barrier_s", ProcessWorld, "barrier"),
    (ALLREDUCE_SPAN, ExecutionWorld, "allreduce_and"),
    ("dsl.sweep_s", BlockKernel, "sweep"),
    ("dsl.sweep_s", BlockKernel, "sweep_segment"),
    ("dsl.gather_s", BlockKernel, "gather"),
    ("dsl.gather_s", BlockKernel, "gather_global"),
    ("dsl.scatter_s", BlockKernel, "scatter"),
)

#: (span name, defining module, function) timed in traced samples.  The
#: function is replaced in every ``repro`` module that imported it.
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("memory.plan_compile_s", "repro.memory.mmat", "compile_offsets_plan"),
    ("memory.plan_compile_s", "repro.memory.mmat", "compile_address_plan"),
    ("kernels.fuse_s", "repro.kernels.fused", "fused_kernel_for"),
)

#: Key marking a rank body's return value as carrying probe records.
_SHIPMENT = "__perfbench_rank_record__"


class RankRecord:
    """What one rank measured during one sample (plain, picklable data)."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        #: span name -> self time (ns) / completed calls
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: outermost timed intervals (start_ns, end_ns), for attribution
        self.tops: List[Tuple[int, int]] = []
        #: steady-state steps (start_ns, end_ns)
        self.steps: List[Tuple[int, int]] = []
        #: entry instants of allreduce_and calls made inside a step
        self.allreduce_entries: List[int] = []
        #: body_start_ns / body_end_ns / maxrss_kb / fused_kernels
        self.marks: Dict[str, int] = {}

    def export(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_export(cls, state: dict) -> "RankRecord":
        record = cls(state["rank"])
        record.__dict__.update(state)
        return record


class Recorder:
    """Installs probes and collects every rank's :class:`RankRecord`."""

    def __init__(self) -> None:
        self.ranks: Dict[int, RankRecord] = {}
        self.spmd_entry_ns: Optional[int] = None
        self._current: Optional[RankRecord] = None
        self._stack: List[int] = []
        self._timed_thread = threading.get_ident()
        self._in_step = False
        self._parent_pid = os.getpid()

    # ------------------------------------------------------------------
    # sample lifecycle
    # ------------------------------------------------------------------
    def begin_sample(self) -> None:
        """Forget the previous sample; rank 0 records from now on."""
        self.ranks = {0: RankRecord(0)}
        self.spmd_entry_ns = None
        self._current = self.ranks[0]
        self._stack = []
        self._in_step = False
        self._timed_thread = threading.get_ident()
        self._parent_pid = os.getpid()

    def end_sample(self) -> None:
        self._current = None

    @contextlib.contextmanager
    def installed(self, *, layers: bool) -> Iterator["Recorder"]:
        """Install the marker probes, plus the layer probes if ``layers``."""
        undo: List[Callable[[], None]] = []
        try:
            self._patch_method(undo, ProcessWorld, "run_spmd", self._wrap_spmd)
            self._patch_method(undo, TargetApplication, "run", self._wrap_step)
            if layers:
                self._patch_method(undo, Platform, "__init__", self._wrap_init)
                for name, cls, attr in METHOD_SPANS:
                    enter = self._allreduce_enter if name == ALLREDUCE_SPAN else None
                    self._patch_method(
                        undo, cls, attr, functools.partial(self._span, name, on_enter=enter)
                    )
                for name, module, attr in FUNCTION_SPANS:
                    self._patch_function(undo, module, attr, functools.partial(self._span, name))
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    @staticmethod
    def _patch_method(undo, cls: type, attr: str, make) -> None:
        """Wrap ``cls.attr`` (own or inherited); ``undo`` puts it back."""
        original = getattr(cls, attr)
        had_own = attr in cls.__dict__
        setattr(cls, attr, make(original))

        def restore() -> None:
            if had_own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)

        undo.append(restore)

    @staticmethod
    def _patch_function(undo, module: str, attr: str, make) -> None:
        original = getattr(sys.modules[module], attr)
        wrapped = make(original)
        holders = [
            mod
            for name, mod in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and getattr(mod, attr, None) is original
        ]
        for mod in holders:
            setattr(mod, attr, wrapped)

        def restore() -> None:
            for mod in holders:
                setattr(mod, attr, original)

        undo.append(restore)

    # ------------------------------------------------------------------
    # span accounting
    # ------------------------------------------------------------------
    def _span(self, name: str, fn: Callable, *, on_enter=None, on_exit=None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            record = recorder._current
            if record is None or threading.get_ident() != recorder._timed_thread:
                return fn(*args, **kwargs)
            stack = recorder._stack
            stack.append(0)
            start = _now()
            if on_enter is not None:
                on_enter(record, start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                duration = end - start
                nested = stack.pop()
                record.self_ns[name] = record.self_ns.get(name, 0) + duration - nested
                record.calls[name] = record.calls.get(name, 0) + 1
                if stack:
                    stack[-1] += duration
                else:
                    record.tops.append((start, end))
                if on_exit is not None:
                    on_exit(record, start, end)

        return timed

    def _wrap_step(self, fn: Callable) -> Callable:
        recorder = self

        def enter(record: RankRecord, start: int) -> None:
            recorder._in_step = True

        def leave(record: RankRecord, start: int, end: int) -> None:
            recorder._in_step = False
            record.steps.append((start, end))

        return self._span(STEP_SPAN, fn, on_enter=enter, on_exit=leave)

    def _allreduce_enter(self, record: RankRecord, start: int) -> None:
        if self._in_step:
            record.allreduce_entries.append(start)

    def _wrap_init(self, fn: Callable) -> Callable:
        """Platform construction is weave time; it also weaves ``Env``.

        The woven ``Env`` subclass is created inside the constructor, so
        its ``refresh`` — the one carrying the layer advice — can only be
        wrapped once the constructor returns.
        """
        timed_init = self._span(WEAVE_SPAN, fn)
        recorder = self

        @functools.wraps(fn)
        def init(platform, *args: Any, **kwargs: Any) -> None:
            timed_init(platform, *args, **kwargs)
            env_class = platform.env_class
            if env_class is not Env and "refresh" in env_class.__dict__:
                env_class.refresh = recorder._span(REFRESH_SPAN, env_class.__dict__["refresh"])

        return init

    # ------------------------------------------------------------------
    # SPMD launch: rank bodies, fork, shipping records back
    # ------------------------------------------------------------------
    def _wrap_spmd(self, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def run_spmd(world, body, *args: Any, **kwargs: Any):
            recorder.spmd_entry_ns = _now()
            results = fn(world, recorder._wrap_body(body), *args, **kwargs)
            for result in results:
                value = result.value
                if isinstance(value, dict) and _SHIPMENT in value:
                    state = value[_SHIPMENT]
                    recorder.ranks[state["rank"]] = RankRecord.from_export(state)
                    result.value = value["value"]
            return results

        return run_spmd

    def _wrap_body(self, body: Callable) -> Callable:
        recorder = self

        def timed_body(context) -> Any:
            rank = context.mpi_rank
            forked = os.getpid() != recorder._parent_pid
            if forked:
                # The fork copied rank 0's records; start this rank afresh.
                recorder.ranks = {}
                recorder._current = RankRecord(rank)
                recorder._stack = []
                recorder._in_step = False
                recorder._timed_thread = threading.get_ident()
            record = recorder._current
            if record is None:
                return body(context)
            record.marks["body_start_ns"] = _now()
            value = body(context)
            record.marks["body_end_ns"] = _now()
            record.marks["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            env = getattr(value, "env", None)
            if env is not None:
                record.marks["fused_kernels"] = int(env.mmat.stats()["fused_kernels"])
            if not forked:
                return value
            try:
                pickle.dumps(value)
            except Exception:  # noqa: BLE001 - same degradation as the backend's
                value = None
            return {_SHIPMENT: record.export(), "value": value}

        return timed_body
