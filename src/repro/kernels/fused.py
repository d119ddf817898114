"""Plan fusion: compile an AccessPlan + elementwise fn into one kernel.

A :class:`FusedKernel` wires a compiled offsets plan
(:func:`~repro.memory.mmat.compile_offsets_plan`) and the user's
elementwise sweep ``fn`` into a generated function (see
:mod:`repro.kernels.numpy_src`) that performs gather + apply + scatter
against a single padded scratch field, instead of materialising the
``(n_offsets, n_elem)`` gather tensor and re-indexing it per offset:

* the block's own read buffer is *copied once* into the interior of a
  padded field ``P``;
* only the out-of-block plan sites — the boundary "ring": mirror
  boundaries, neighbour blocks, halo pages, compile-time constants —
  are filled through precomputed (deduplicated) gather tables;
* ``fn`` is applied to one shifted **view** of ``P`` per offset, and
  the result is scattered straight into the write-buffer pages.

The kernel has three paths: the plain fused sweep; the overlapped
sweep of ``BlockKernel.sweep_segment`` (interior first, halo wait,
boundary rim) when a halo exchange is in flight; and, for plans it
cannot fuse, no kernel at all — :func:`fused_kernel_for` returns None
and the caller runs ``sweep_segment``.

Fused kernels are cached on the :class:`~repro.memory.mmat.MMAT`
keyed ``(plan version, fn identity, dtype)``; ``MMAT.reset()`` clears
them together with the plans, and a recompiled plan's fresh version
implicitly invalidates its old fusions.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..obs.spans import global_tracer
from .numpy_src import compile_sweep

__all__ = ["CodegenError", "FusedKernel", "UNFUSABLE", "fused_kernel_for"]


class CodegenError(RuntimeError):
    """The given plan cannot be fused into a generated kernel."""


#: Cache sentinel: this (plan, fn, dtype) combination cannot be fused —
#: stored so the dispatch does not retry the fusion every sweep.
UNFUSABLE = "unfusable"


def _as_field(res, shape, dtype) -> np.ndarray:
    """Normalise an ``fn`` result to a writable, contiguous block field."""
    arr = np.asarray(res)
    if arr.shape != shape:
        if arr.size == int(np.prod(shape)):
            arr = arr.reshape(shape)
        else:
            arr = np.broadcast_to(arr, shape)
    if not (arr.flags.c_contiguous and arr.flags.writeable):
        arr = np.array(arr, dtype=dtype)
    return arr


class _HaloGroup:
    """Ring-fill table against one Buffer-only (halo) source block."""

    __slots__ = ("block", "src", "pos", "entry_pages", "check_pages", "_objs")

    def __init__(self, block, src: np.ndarray, pos: np.ndarray) -> None:
        self.block = block
        self.src = src
        self.pos = pos
        self.entry_pages = src // block.page_elements
        self.check_pages = np.unique(self.entry_pages)
        self._objs = None

    def invalid_pages(self) -> list:
        """Not-yet-valid halo pages this group reads (lazy page objects)."""
        objs = self._objs
        if objs is None:
            pages = self.block.buffer.read_buffer.pages
            objs = [(int(p), pages[p]) for p in self.check_pages]
            self._objs = objs
        return [index for index, page in objs if not page.valid]


class FusedKernel:
    """One plan + fn fused into generated gather/apply/scatter code."""

    def __init__(self, block, plan) -> None:
        if plan.kind != "offsets" or plan.offsets is None:
            raise CodegenError(
                f"only offsets plans can be fused (got {plan.kind!r})"
            )
        if plan.components != 1:
            raise CodegenError(
                f"fusion supports single-component blocks "
                f"(got components={plan.components})"
            )
        self.block = block
        self.plan = plan
        shape = plan.shape
        nd = len(shape)
        self.shape = shape
        self.n_elem = n_elem = int(np.prod(shape))
        self.dtype = plan.dtype
        off_arr = np.asarray(plan.offsets, dtype=np.int64)
        if off_arr.ndim != 2 or off_arr.shape[1] != nd:
            raise CodegenError(f"malformed offsets {plan.offsets!r}")
        self._off_arr = off_arr
        pad_lo = tuple(int(max(0, -int(off_arr[:, d].min()))) for d in range(nd))
        pad_hi = tuple(int(max(0, int(off_arr[:, d].max()))) for d in range(nd))
        self.pad_lo = pad_lo
        self.pshape = tuple(shape[d] + pad_lo[d] + pad_hi[d] for d in range(nd))

        # -- ring-fill tables (out-of-block plan sites only) -----------
        interior_segs, boundary_segs = plan.split()
        self.data_groups: List[tuple] = []
        for seg in interior_segs:
            pos, src = self._ring_entries(seg.dst_idx, seg.src_idx)
            if pos.size:
                self.data_groups.append((seg.block, src, pos))
        self.halo_groups: List[_HaloGroup] = []
        for seg in boundary_segs:
            pos, src = self._ring_entries(seg.dst_idx, seg.src_idx)
            if pos.size:
                self.halo_groups.append(_HaloGroup(seg.block, src, pos))
        if plan.const_dst is not None:
            pos, first = self._ring_positions(plan.const_dst)
            self.const_pos = pos
            self.const_vals = np.ascontiguousarray(
                plan.const_vals[first, 0], dtype=self.dtype
            )
        else:
            self.const_pos = None
            self.const_vals = None

        # -- generated code --------------------------------------------
        module = compile_sweep(self._signature())
        self._fill_interior = module["fill_interior"]
        self._fill_boundary = module["fill_boundary"]
        self._compute = module["compute"]
        self._store = module["store"]
        self._fused_sweep = module["fused_sweep"]

        #: Padded-field pool (list pop/append is GIL-atomic, so hybrid
        #: threads sweeping concurrently never alias one field).
        self._pool: List[np.ndarray] = []
        #: Per-write-buffer store plans: trimmed 1-D page views + pages.
        #: Pages are only ever refilled in place (never replaced), so the
        #: views stay valid for the lifetime of the buffer generation.
        self._store_plans: List[tuple] = []
        #: Per-offset padded-flat indices of the halo-touching elements
        #: (the overlap rim), resolved lazily.
        self._boundary_pidx = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _site_coords(self, dst: np.ndarray):
        """Padded-field coordinates + geometric-inside mask of plan sites."""
        shape = self.shape
        nd = len(shape)
        oi = dst // self.n_elem
        e = dst - oi * self.n_elem
        ec = np.unravel_index(e, shape)
        coords = []
        inside = np.ones(dst.shape, dtype=bool)
        for d in range(nd):
            c = ec[d] + self._off_arr[oi, d]
            inside &= (c >= 0) & (c < shape[d])
            coords.append(c + self.pad_lo[d])
        return coords, inside

    def _ring_entries(self, dst: np.ndarray, src: np.ndarray):
        """Deduplicated ``(padded positions, source indices)`` ring table.

        Sites that fall geometrically inside the block are covered by the
        interior copy (they are exactly the in-block bulk gathers) and
        are dropped; duplicate padded positions (several sites reading
        one global address) resolve to one entry — the value at a padded
        cell is pure in the global address it mirrors.
        """
        coords, inside = self._site_coords(dst)
        keep = ~inside
        if not keep.any():
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        pos = np.ravel_multi_index(
            tuple(c[keep] for c in coords), self.pshape
        ).astype(np.intp)
        uniq, first = np.unique(pos, return_index=True)
        return uniq.astype(np.intp), np.ascontiguousarray(src[keep][first])

    def _ring_positions(self, dst: np.ndarray):
        """Deduplicated padded positions of constant sites (always ring)."""
        coords, _ = self._site_coords(dst)
        pos = np.ravel_multi_index(tuple(coords), self.pshape).astype(np.intp)
        uniq, first = np.unique(pos, return_index=True)
        return uniq.astype(np.intp), first

    def _signature(self):
        return (
            self.shape,
            self.pad_lo,
            self.pshape,
            self.plan.offsets,
            int(self.block.page_elements),
        )

    # ------------------------------------------------------------------
    # scratch management (called from the generated code)
    # ------------------------------------------------------------------
    def alloc(self) -> np.ndarray:
        """Pop (or create) a padded scratch field, constants pre-filled."""
        try:
            return self._pool.pop()
        except IndexError:
            P = np.zeros(self.pshape, dtype=self.dtype)
            if self.const_pos is not None:
                P.reshape(-1)[self.const_pos] = self.const_vals
            return P

    def release(self, P: np.ndarray) -> None:
        """Return a padded field to the pool (constants stay in place)."""
        self._pool.append(P)

    def store_plan(self, env) -> tuple:
        """Trimmed 1-D views over the current write buffer's pages.

        Runs of pages whose pool chunks are byte-adjacent in the same
        arena are merged into one view over the arena (the usual case —
        a buffer's pages are allocated back to back), so the generated
        ``store`` pays one slice-assignment per contiguous *run*, not
        per page.  Cached per buffer (double buffering alternates
        between a fixed set of :class:`BlockBuffer` objects).
        """
        buf = self.block.buffer.write_buffer
        for plan in self._store_plans:
            if plan[0] is buf:
                return plan[1], plan[2]
        itemsize = np.dtype(self.dtype).itemsize
        views: List[np.ndarray] = []
        run = None  # (pool, start_byte, end_byte)
        lo = 0
        for page in buf.pages:
            n = min(page.elements, self.n_elem - lo)
            if n <= 0:
                break
            lo += n
            chunk = page.chunk
            nbytes = n * itemsize
            if run is not None and run[0] is chunk.pool and run[2] == chunk.offset:
                run = (run[0], run[1], chunk.offset + nbytes)
                continue
            if run is not None:
                views.append(run[0]._backing[run[1]:run[2]].view(self.dtype))
            run = (chunk.pool, chunk.offset, chunk.offset + nbytes)
        if run is not None:
            views.append(run[0]._backing[run[1]:run[2]].view(self.dtype))
        plan = (buf, views, list(buf.pages))
        self._store_plans.append(plan)
        return views, plan[2]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def __call__(self, env, fn, trace, work: int) -> None:
        """One fused whole-block sweep with full legacy side effects."""
        plan = self.plan
        tracer = global_tracer()
        if plan.has_halo and env.has_pending_halo():
            missing = self._overlap_step(env, fn, tracer)
        else:
            # No halo dependence (or no exchange in flight): leave any
            # pending exchange alone — another block's boundary sweep is
            # the one meant to hide behind it.
            with tracer.span("sweep"):
                missing = self._fused_sweep(self, env, fn)
        plan.account(env, missing)
        env.mmat.note_execution(plan)
        trace.plan_gathers += 1
        trace.plan_sites += plan.n_sites
        trace.kernel_fused_calls += 1
        trace.updates += work * self.n_elem

    # ------------------------------------------------------------------
    # overlapped sweep (interior-first / halo-wait / boundary-rim)
    # ------------------------------------------------------------------
    def _boundary_indices(self):
        bp = self._boundary_pidx
        if bp is None:
            _, boundary = self.plan.element_partition()
            bp = (boundary, self._pidx_for(boundary))
            self._boundary_pidx = bp
        return bp

    def _pidx_for(self, elems: np.ndarray) -> List[np.ndarray]:
        """Per-offset padded-flat read indices for an element subset."""
        shape = self.shape
        nd = len(shape)
        ec = np.unravel_index(elems, shape)
        out = []
        for oi in range(self._off_arr.shape[0]):
            coords = tuple(
                ec[d] + int(self._off_arr[oi, d]) + self.pad_lo[d]
                for d in range(nd)
            )
            out.append(np.ravel_multi_index(coords, self.pshape).astype(np.intp))
        return out

    def _apply_at(self, fn, F: np.ndarray, pidx: List[np.ndarray], count: int):
        """Apply ``fn`` to per-offset 1-D gathers of an element subset."""
        vals = np.asarray(fn(*[F[p] for p in pidx]))
        if vals.shape != (count,):
            vals = np.broadcast_to(vals, (count,))
        return vals

    def _overlap_step(self, env, fn, tracer) -> int:
        """Fused equivalent of ``sweep_segment``'s overlapped path."""
        boundary_elems, bpidx = self._boundary_indices()
        interior = self.n_elem - int(boundary_elems.size)
        with tracer.span("sweep.interior", sites=interior):
            P, F = self._fill_interior(self, env)
            # Full-field compute while the halo is in flight: rim values
            # read unfilled ring cells and are recomputed below.
            res = _as_field(self._compute(P, fn), self.shape, self.dtype)
        env.complete_pending_halo()
        with tracer.span("sweep.boundary", sites=int(boundary_elems.size)):
            missing = self._fill_boundary(self, env, F)
            if boundary_elems.size:
                res.reshape(-1)[boundary_elems] = self._apply_at(
                    fn, F, bpidx, int(boundary_elems.size)
                )
        self._store(self, env, res)
        self.release(P)
        return missing


def fused_kernel_for(
    env,
    block,
    plan,
    fn,
    *,
    trace=None,
) -> Optional[FusedKernel]:
    """Cached-or-compiled fused kernel for ``(plan, fn)``, or None.

    Returns None when the combination cannot be fused (address plans,
    multi-component blocks, malformed offsets) — the caller falls back to
    the gather/apply/scatter path.  Failures are cached as
    :data:`UNFUSABLE` under the same key, so the fallback costs one dict
    lookup per sweep.  The key includes ``plan.version``: a plan
    recompiled after ``MMAT.reset`` can never resurrect a stale kernel.
    """
    mmat = env.mmat
    fn_id = getattr(fn, "__code__", None) or fn
    key = (plan.version, fn_id, str(plan.dtype))
    kern = mmat.fused_lookup(key)
    if kern is not None:
        return None if kern is UNFUSABLE else kern
    try:
        with global_tracer().span("kernel.fuse", sites=plan.n_sites):
            kern = FusedKernel(block, plan)
    except CodegenError:
        mmat.fused_store(key, UNFUSABLE)
        return None
    mmat.fused_store(key, kern)
    if trace is not None:
        trace.kernel_fuse += 1
    return kern
