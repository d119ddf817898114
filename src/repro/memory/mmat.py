"""MMAT — Memorization of Memory Access Type — and compiled access plans.

"The platform has a function called Memorization of memory access type
(MMAT) that automates to omit Env searches […] by memorizing for each
access, whether in- or out-of Block access, it is possible to omit Env
search overheads." (§III-B6)

The memo is keyed by ``(start block id, relative coordinates of the
requested address with respect to that block's origin)`` — i.e. one
entry per *access site as seen from a block*.  Because Assumption II
says the memory-access pattern is static across iterations, the second
and later iterations resolve almost every access from the memo instead
of searching the Env tree.

Access plans push the same assumption one step further: once every site
of a whole-block sweep has been resolved, the per-site memo can be
*compiled* into a handful of NumPy index arrays (one gather per source
Block plus a precomputed constant table for Arithmetic/Static boundary
sites), and the whole sweep executes as bulk array operations instead
of ``size_x * size_y`` scalar ``get`` calls.  Plans are cached on the
:class:`MMAT` instance, so :meth:`MMAT.reset` — called by the warm-up
macro, or by end users when the access pattern changes — invalidates
the compiled plans together with the scalar memo.

MMAT does **not** detect access-pattern changes; end users must call
:meth:`MMAT.reset` when the pattern changes (the annotation library's
warm-up macro does this automatically, matching the paper's
"previously collected information at MMAT is cleared when the warm-up
macro is called").
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .address import GlobalAddress
from .block import BufferOnlyBlock, DataBlock, ReferenceBlock
from .errors import AddressError
from .page import PageKey

__all__ = [
    "MMAT",
    "AccessPlan",
    "PlanSegment",
    "compile_offsets_plan",
    "compile_address_plan",
]


class PlanSegment:
    """Gather instructions against one source Block of an :class:`AccessPlan`.

    ``src_idx`` are flat element indices into the source Block's dense
    read buffer; ``dst_idx`` are the matching flat site indices of the
    plan output.  For Buffer-only sources the segment also keeps the
    page indices it touches so the executor can do one bulk validity
    check per iteration instead of one per element.
    """

    __slots__ = ("block", "src_idx", "dst_idx", "src_pages", "check_pages", "_check_objs")

    def __init__(self, block: DataBlock, src_idx, dst_idx) -> None:
        self.block = block
        self.src_idx = np.ascontiguousarray(src_idx, dtype=np.intp)
        self.dst_idx = np.ascontiguousarray(dst_idx, dtype=np.intp)
        if isinstance(block, BufferOnlyBlock):
            self.src_pages = self.src_idx // block.page_elements
            self.check_pages = np.unique(self.src_pages)
        else:
            self.src_pages = None
            self.check_pages = None
        self._check_objs = None

    def invalid_pages(self) -> list:
        """Indices of this segment's halo pages that are not valid yet.

        Buffer-only Blocks never swap buffers, so the page objects can be
        resolved once and the per-call validity check reduces to reading
        one flag per touched page (the hot-path version of the old
        ``pages[p].valid`` indexing loop).
        """
        objs = self._check_objs
        if objs is None:
            pages = self.block.buffer.read_buffer.pages
            objs = [(int(p), pages[p]) for p in self.check_pages]
            self._check_objs = objs
        return [index for index, page in objs if not page.valid]

    @property
    def nbytes(self) -> int:
        total = self.src_idx.nbytes + self.dst_idx.nbytes
        if self.src_pages is not None:
            total += self.src_pages.nbytes + self.check_pages.nbytes
        return total


#: Monotonic version numbers handed to every compiled plan: a recompiled
#: plan (after ``MMAT.reset``) gets a new version, so caches keyed by the
#: version (the fused-kernel cache) can never confuse it with its
#: predecessor even if the plan object's id is reused.
_PLAN_VERSIONS = itertools.count(1)


class AccessPlan:
    """A compiled whole-block access pattern, executable as bulk NumPy ops."""

    __slots__ = (
        "shape",
        "n_sites",
        "components",
        "dtype",
        "segments",
        "const_dst",
        "const_vals",
        "in_block_sites",
        "resolved_sites",
        "out_of_block_sites",
        "kind",
        "version",
        "offsets",
        "_split",
        "_halo_sites",
        "_elem_partition",
        "_scratch",
    )

    def __init__(
        self,
        *,
        shape: Tuple[int, ...],
        n_sites: int,
        components: int,
        dtype,
        segments: List[PlanSegment],
        const_dst: Optional[np.ndarray],
        const_vals: Optional[np.ndarray],
        in_block_sites: int,
        resolved_sites: int,
        out_of_block_sites: int,
        kind: str = "offsets",
        offsets: Optional[Tuple[Tuple[int, ...], ...]] = None,
    ) -> None:
        self.shape = tuple(shape)
        self.n_sites = int(n_sites)
        self.components = int(components)
        self.dtype = np.dtype(dtype)
        self.segments = segments
        self.const_dst = const_dst
        self.const_vals = const_vals
        #: Sites served by the start Block itself (the scalar path's
        #: "surely inside" / in-block reads).
        self.in_block_sites = int(in_block_sites)
        #: Sites that required an Env resolution at compile time — the
        #: sites the scalar path would serve from the MMAT memo.
        self.resolved_sites = int(resolved_sites)
        self.out_of_block_sites = int(out_of_block_sites)
        #: How the plan was compiled: ``"offsets"`` (site order is
        #: offset-major over the block's elements) or ``"addresses"``
        #: (arbitrary site order from an indirect address table).
        self.kind = str(kind)
        #: Monotonic compile version; caches keyed by it (fused kernels)
        #: are implicitly invalidated when the plan is recompiled.
        self.version = next(_PLAN_VERSIONS)
        #: The normalized stencil offsets of an offsets plan (None for
        #: address plans); the fusion pass needs them to lay out its
        #: padded scratch field.
        self.offsets = offsets
        self._split: Optional[Tuple[List[PlanSegment], List[PlanSegment]]] = None
        self._halo_sites: Optional[np.ndarray] = None
        self._elem_partition: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: One-element scratch pool for :meth:`execute` (list ``pop``/
        #: ``append`` is atomic under the GIL, so concurrent hybrid
        #: threads executing the same plan never alias one buffer — the
        #: loser of the pop simply allocates a fresh array).
        self._scratch: List[np.ndarray] = []

    # ------------------------------------------------------------------
    def split(self) -> Tuple[List[PlanSegment], List[PlanSegment]]:
        """Partition the segments into ``(interior, boundary)`` sub-plans.

        The *interior* sub-plan gathers only from locally-owned sources
        (Data Blocks plus the compile-time constants), so it can run
        before a halo exchange completed; the *boundary* sub-plan's
        segments read Buffer-only (halo) pages and must wait for them.
        The partition is what lets the overlapped refresh hide the halo
        round-trip behind the interior computation.
        """
        if self._split is None:
            interior = [seg for seg in self.segments if seg.check_pages is None]
            boundary = [seg for seg in self.segments if seg.check_pages is not None]
            self._split = (interior, boundary)
        return self._split

    @property
    def has_halo(self) -> bool:
        """Whether any segment gathers from a Buffer-only (halo) source."""
        return bool(self.split()[1])

    def halo_sites(self) -> np.ndarray:
        """Flat output sites served by the boundary (halo) segments, sorted."""
        if self._halo_sites is None:
            boundary = self.split()[1]
            if boundary:
                self._halo_sites = np.unique(
                    np.concatenate([seg.dst_idx for seg in boundary])
                )
            else:
                self._halo_sites = np.empty(0, dtype=np.intp)
        return self._halo_sites

    def element_partition(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(interior, boundary)`` output *elements* of an offsets plan.

        Valid for plans whose site order is offset-major over the block's
        elements (``compile_offsets_plan``): a boundary element is one
        whose stencil reaches halo data at any offset.  Cached — the
        partition is pure in the plan, and the overlapped sweep needs it
        every step.

        Address plans (``gather_global``) have no element-major site
        order, so the modulo arithmetic below would silently produce a
        meaningless partition — they raise instead.
        """
        if self.kind != "offsets":
            raise AddressError(
                f"element_partition is only defined for offsets plans "
                f"(offset-major site order); this plan was compiled as "
                f"{self.kind!r}"
            )
        if self._elem_partition is None:
            n_elem = int(np.prod(self.shape))
            boundary = np.unique(self.halo_sites() % n_elem)
            interior = np.setdiff1d(np.arange(n_elem), boundary, assume_unique=True)
            self._elem_partition = (interior, boundary)
        return self._elem_partition

    # ------------------------------------------------------------------
    def execute(self, env) -> np.ndarray:
        """Run the plan against the Env's current read buffers.

        Returns a ``(n_sites, components)`` array in plan site order.
        Buffer-only sites whose pages have not arrived yet are recorded
        in ``env.missing_pages`` (the following refresh fails and the
        step is re-executed, exactly as on the scalar path) and filled
        with placeholder zeros.

        The interior segments always run first; when an overlapped halo
        exchange is still in flight (``env.has_pending_halo()``), it is
        completed right before the first boundary segment reads halo
        data — so every batched gather transparently overlaps the
        exchange with at least its interior gather work.

        The returned array is recycled: the *next* ``execute`` of this
        plan reuses it as scratch, so callers must consume (or copy) the
        result before re-executing the plan — true for every batched
        kernel, which gathers, applies and scatters within one step.
        """
        try:
            out = self._scratch.pop()
        except IndexError:
            out = np.empty((self.n_sites, self.components), dtype=self.dtype)
        if self.const_dst is not None:
            out[self.const_dst] = self.const_vals
        interior, boundary = self.split()
        missing = self.gather_segments(env, interior, out)
        if boundary:
            if env.has_pending_halo():
                env.complete_pending_halo()
            missing += self.gather_segments(env, boundary, out)
        self.account(env, missing)
        self._scratch.append(out)
        return out

    def gather_segments(self, env, segments: List[PlanSegment], out: np.ndarray) -> int:
        """Gather ``segments`` into ``out``; returns missing-page count."""
        missing = 0
        for seg in segments:
            block = seg.block
            vals = env.dense_read(block)[seg.src_idx]
            if seg.check_pages is not None and not block.is_valid:
                bad = seg.invalid_pages()
                if bad:
                    block_id = block.block_id
                    for p in bad:
                        env.missing_pages.add(PageKey(block_id, p))
                    missing += len(bad)
                    vals[np.isin(seg.src_pages, bad)] = 0.0
            out[seg.dst_idx] = vals
        return missing

    def account(self, env, missing: int) -> None:
        """Credit one full execution of this plan to the Env's counters."""
        stats = env.stats
        stats.reads += self.n_sites
        stats.in_block_reads += self.in_block_sites
        stats.mmat_hits += self.resolved_sites
        stats.missing_recorded += missing

    # ------------------------------------------------------------------
    def remote_pages(self) -> List[PageKey]:
        """Page keys of every Buffer-only page this plan reads (halo set)."""
        keys: List[PageKey] = []
        for seg in self.segments:
            if seg.check_pages is not None:
                block_id = seg.block.block_id
                keys.extend(PageKey(block_id, int(p)) for p in seg.check_pages)
        return keys

    @property
    def nbytes(self) -> int:
        """Memory held by the plan's index/constant arrays (Fig. 12 bench)."""
        total = sum(seg.nbytes for seg in self.segments)
        if self.const_dst is not None:
            total += self.const_dst.nbytes + self.const_vals.nbytes
        return total


# ----------------------------------------------------------------------
# plan compilation
# ----------------------------------------------------------------------

def _classify(env, targets: list, addrs: list, depth: int = 0) -> list:
    """Classify sites landing in boundary-kind Blocks: a gather or a constant.

    ``targets[i]`` is the Block holding global address ``addrs[i]``.
    Reference blocks are followed through their (static) address mapping
    so mirror/Neumann boundaries compile down to gathers on the mapped
    interior Block; a mapped address outside the reference's own target
    resolves through the block directory, counted as one Env search as
    on the scalar path.  Arithmetic and Static blocks are evaluated once
    at compile time (their value is a pure function of the address —
    Assumption II makes the result valid for every later iteration).
    Returns one ``(data block, element index)`` or ``(None, value)`` per
    site.
    """
    out: list = [None] * len(targets)
    chased = []  # (site, reference, next block or None, mapped address)
    for i, (target, addr) in enumerate(zip(targets, addrs)):
        if isinstance(target, DataBlock):
            out[i] = (target, target.element_index(addr))
        elif isinstance(target, ReferenceBlock):
            if depth >= 4:
                raise AddressError(
                    f"reference chain at {addr} too deep to compile into an access plan"
                )
            mapped = tuple(target.mapper(GlobalAddress(addr)))
            nxt = target.target
            if nxt is not None and not nxt.contains(mapped):
                nxt = None
            chased.append((i, target, nxt, mapped))
        else:
            out[i] = (None, np.asarray(target.read(addr), dtype=np.float64).reshape(-1))
    if not chased:
        return out
    nexts = [entry[2] for entry in chased]
    search = [k for k, nxt in enumerate(nexts) if nxt is None]
    if search:
        env.stats.searches += len(search)
        try:
            blocks, index = env.resolve_many([chased[k][3] for k in search])
        except AddressError as err:
            names = sorted({chased[k][1].name for k in search})
            raise AddressError(
                f"reference block(s) {', '.join(names)} map to an unresolvable address: {err}"
            ) from None
        for k, j in zip(search, index.tolist()):
            nexts[k] = blocks[j]
    resolved = _classify(env, nexts, [entry[3] for entry in chased], depth + 1)
    for entry, result in zip(chased, resolved):
        out[entry[0]] = result
    return out


class _Sources:
    """The Blocks a plan under compilation reads, each at a fixed position."""

    def __init__(self, blocks) -> None:
        self.blocks = list(blocks)
        self._position = {b.block_id: j for j, b in enumerate(self.blocks)}

    def position(self, block) -> int:
        j = self._position.get(block.block_id)
        if j is None:
            j = self._position[block.block_id] = len(self.blocks)
            self.blocks.append(block)
        return j


def _resolve_out_of_block(env, start: DataBlock, addrs: np.ndarray):
    """Resolve ``start``'s out-of-block sites the way the scalar path would.

    Each row of ``addrs`` is one scalar lookup.  Distinct addresses the
    MMAT memo already holds keep their memorized Block; the rest resolve
    through the Env's block directory — one Env search each, as on the
    scalar path — and enter the memo in one bulk insert.  Returns
    ``(sources, index)``: row ``i`` lies in ``sources.blocks[index[i]]``.
    """
    mmat = env.mmat
    uniq, inverse = np.unique(addrs, axis=0, return_inverse=True)
    relatives = [
        tuple(r) for r in (uniq - np.asarray(start.origin, dtype=np.int64)).tolist()
    ]
    known = mmat.lookup_many(start.block_id, relatives, lookups=addrs.shape[0])
    miss = [u for u, target in enumerate(known) if target is None]
    env.stats.searches += len(miss) if mmat.enabled else addrs.shape[0]
    blocks, index = env.resolve_many(uniq[miss])
    mmat.remember_many(
        start.block_id, [relatives[u] for u in miss], [blocks[j] for j in index.tolist()]
    )
    sources = _Sources(blocks)
    uniq_index = np.empty(uniq.shape[0], dtype=np.intp)
    uniq_index[miss] = index
    for u, target in enumerate(known):
        if target is not None:
            uniq_index[u] = sources.position(target)
    return sources, uniq_index[inverse.reshape(-1)]


def _compile(env, block: DataBlock, addrs: np.ndarray, *, kind: str, inverse=None,
             offsets=None) -> AccessPlan:
    """Compile plan sites at global ``addrs`` into gather segments and constants.

    Each row of ``addrs`` is one scalar lookup.  Without ``inverse`` row
    ``s`` is plan site ``s``; with it the rows are distinct addresses
    and site ``s`` reads ``addrs[inverse[s]]``.  Sites inside ``block``
    gather from it directly, the rest resolve in bulk
    (:func:`_resolve_out_of_block`); only sites landing in boundary-kind
    Blocks, which hold user callables, are classified one by one.
    """
    origin = np.asarray(block.origin, dtype=np.int64)
    inside = np.all((addrs >= origin) & (addrs < origin + block.shape), axis=1)
    outside = np.flatnonzero(~inside)
    sources, index = _resolve_out_of_block(env, block, addrs[outside])
    blocks = sources.blocks

    # src[row]: position of the row's gather source (-1: a constant);
    # elem[row]: element index into that source (or into ``values``).
    src = np.empty(addrs.shape[0], dtype=np.intp)
    elem = np.empty(addrs.shape[0], dtype=np.intp)
    self_src = sources.position(block)
    src[inside] = self_src
    elem[inside] = np.ravel_multi_index(tuple((addrs[inside] - origin).T), block.shape)

    is_data = np.array([isinstance(b, DataBlock) for b in blocks], dtype=bool)
    to_data = is_data[index] if index.size else np.zeros(0, dtype=bool)
    rows, targets = outside[to_data], index[to_data]
    if rows.size:
        # Row-major element index inside each row's own source Block.
        local = addrs[rows] - np.array([b.origin for b in blocks], dtype=np.int64)[targets]
        extent = np.array([b.shape for b in blocks], dtype=np.int64)[targets]
        flat = local[:, 0]
        for d in range(1, local.shape[1]):
            flat = flat * extent[:, d] + local[:, d]
        src[rows] = targets
        elem[rows] = flat

    values: List[np.ndarray] = []
    rows = outside[~to_data]
    if rows.size:
        classified = _classify(
            env, [blocks[j] for j in index[~to_data].tolist()],
            [tuple(a) for a in addrs[rows].tolist()],
        )
        for row, (target, payload) in zip(rows.tolist(), classified):
            if target is None:
                src[row] = -1
                elem[row] = len(values)
                values.append(payload)
            else:
                src[row] = sources.position(target)
                elem[row] = payload

    if inverse is not None:
        src = src[inverse]
        elem = elem[inverse]
    # One stable sort groups the sites by source; each run keeps its
    # sites (the segment's dst_idx) in ascending order.
    order = np.argsort(src, kind="stable")
    cuts = np.flatnonzero(np.diff(src[order])) + 1
    segments: List[PlanSegment] = []
    const_dst = const_vals = None
    components = getattr(block, "components", 1)
    dtype = block.buffer.read_buffer.dtype
    for run in np.split(order, cuts) if order.size else ():
        j = src[run[0]]
        if j < 0:
            const_dst = run
            table = np.vstack([np.broadcast_to(v, (components,)) for v in values])
            const_vals = table.astype(dtype)[elem[run]]
        else:
            segments.append(PlanSegment(blocks[j], elem[run], run))
    in_block = int(np.count_nonzero(src == self_src))
    n_const = 0 if const_dst is None else const_dst.size
    return AccessPlan(
        shape=block.shape,
        n_sites=src.size,
        components=components,
        dtype=dtype,
        segments=segments,
        const_dst=const_dst,
        const_vals=const_vals,
        in_block_sites=in_block,
        # Indirect accesses carry no static "inside" hint, so the scalar
        # path would resolve *every* site through the memo.
        resolved_sites=src.size if inverse is not None else outside.size,
        out_of_block_sites=src.size - in_block - n_const,
        kind=kind,
        offsets=offsets,
    )


def compile_offsets_plan(env, block: DataBlock, offsets: Sequence[Tuple[int, ...]]) -> AccessPlan:
    """Compile a stencil sweep: every element of ``block``, per offset.

    Site order is offset-major (``site = offset_index * element_count +
    linear_element_index``), with elements in the block's row-major
    order, so the executed output reshapes directly to
    ``(len(offsets),) + block.shape``.
    """
    shape = block.shape
    nd = len(shape)
    for off in offsets:
        if len(off) != nd:
            raise AddressError(
                f"offset {tuple(off)} does not match block dimensionality {nd}"
            )
    norm_offsets = tuple(tuple(int(c) for c in off) for off in offsets)
    coords = np.indices(shape, dtype=np.int64).reshape(nd, -1).T + np.asarray(
        block.origin, dtype=np.int64
    )
    off_arr = np.asarray(norm_offsets, dtype=np.int64).reshape(-1, 1, nd)
    addrs = (coords[None, :, :] + off_arr).reshape(-1, nd)
    return _compile(env, block, addrs, kind="offsets", offsets=norm_offsets)


def compile_address_plan(env, block: DataBlock, addresses) -> AccessPlan:
    """Compile an indirect sweep: arbitrary global addresses per site.

    ``addresses`` is an integer array; for 1-D address spaces any shape
    is accepted (sites are taken in row-major order), for N-D blocks the
    last axis must hold the address coordinates.  Duplicate addresses
    are resolved once (``np.unique``) and fanned back out through the
    inverse index; resolution itself is bulk array work, so compilation
    cost scales with the number of *distinct* addresses, not sites.
    """
    nd = block.ndim
    addr_arr = np.asarray(addresses, dtype=np.int64)
    if nd == 1:
        flat = addr_arr.reshape(-1, 1)
    else:
        if addr_arr.shape[-1] != nd:
            raise AddressError(
                f"address array last axis {addr_arr.shape[-1]} does not match "
                f"block dimensionality {nd}"
            )
        flat = addr_arr.reshape(-1, nd)
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    return _compile(env, block, uniq, kind="addresses", inverse=inverse.reshape(-1))


# ----------------------------------------------------------------------
# the memo itself
# ----------------------------------------------------------------------

class MMAT:
    """Per-Env memo of memory-access resolutions plus compiled plans."""

    __slots__ = (
        "enabled",
        "_memo",
        "_plans",
        "_fused",
        "hits",
        "misses",
        "resets",
        "plan_compiles",
        "plan_compiles_uncached",
        "plan_executions",
        "plan_exec_sites",
        "fallback_sites",
    )

    def __init__(self, enabled: bool = False) -> None:
        #: MMAT is opt-in: "end-users can use this function by explicitly
        #: enabling it".
        self.enabled = bool(enabled)
        self._memo: Dict[Tuple[int, Tuple[int, ...]], object] = {}
        #: Compiled access plans, keyed by ``(block_id, kind, signature)``.
        self._plans: Dict[tuple, AccessPlan] = {}
        #: Fused kernels (plan + elementwise fn compiled into one
        #: generated function), keyed by ``(plan version, fn identity,
        #: dtype)``; cleared together with the plans.
        self._fused: Dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self.resets = 0
        self.plan_compiles = 0
        #: Plans compiled for uncached ``gather_global`` calls (no
        #: ``key=``): recompiled every call by design, so they are
        #: counted separately and excluded from plan-coverage numbers.
        self.plan_compiles_uncached = 0
        self.plan_executions = 0
        self.plan_exec_sites = 0
        self.fallback_sites = 0

    # ------------------------------------------------------------------
    def key(self, start_block_id: int, relative: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        """The memo key of one access site: ``(origin block, relative offset)``."""
        return (start_block_id, relative)

    def lookup(self, start_block_id: int, relative: Tuple[int, ...]):
        """Return the memorized target block, or None on a miss."""
        if not self.enabled:
            return None
        block = self._memo.get((start_block_id, relative))
        if block is None:
            self.misses += 1
        else:
            self.hits += 1
        return block

    def remember(self, start_block_id: int, relative: Tuple[int, ...], block) -> None:
        """Memorize that accesses at this site resolve to ``block``."""
        if self.enabled:
            self._memo[(start_block_id, relative)] = block

    def lookup_many(self, start_block_id: int, relatives: list, lookups: int) -> list:
        """Bulk :meth:`lookup` of distinct ``relatives`` (None where unknown).

        Accounts the ``lookups`` scalar lookups that would visit these
        sites in order: each unknown relative misses once, every other
        lookup hits (a scalar miss is remembered before the next visit).
        """
        if not self.enabled:
            return [None] * len(relatives)
        memo = self._memo
        known = [memo.get((start_block_id, relative)) for relative in relatives]
        misses = known.count(None)
        self.misses += misses
        self.hits += lookups - misses
        return known

    def remember_many(self, start_block_id: int, relatives: list, blocks: list) -> None:
        """Bulk :meth:`remember`: ``relatives[i]`` resolves to ``blocks[i]``."""
        if self.enabled:
            self._memo.update(
                zip([(start_block_id, relative) for relative in relatives], blocks)
            )

    # ------------------------------------------------------------------
    # compiled plans
    # ------------------------------------------------------------------
    def plan_lookup(self, key: tuple) -> Optional[AccessPlan]:
        """Return the compiled plan for ``key``, or None (compile needed)."""
        if not self.enabled:
            return None
        return self._plans.get(key)

    def plan_store(self, key: tuple, plan: AccessPlan) -> None:
        """Cache a freshly compiled plan (no-op while MMAT is disabled)."""
        if self.enabled:
            self._plans[key] = plan
            self.plan_compiles += 1

    def note_execution(self, plan: AccessPlan) -> None:
        """Account one vectorized plan execution."""
        self.plan_executions += 1
        self.plan_exec_sites += plan.n_sites

    def note_uncached_compile(self) -> None:
        """Account one per-call (uncached) plan compile.

        ``gather_global`` without ``key=`` recompiles every call by
        design; those compiles are tracked here instead of
        ``plan_compiles`` so plan-coverage numbers stay meaningful.
        """
        self.plan_compiles_uncached += 1

    # ------------------------------------------------------------------
    # fused kernels (plan + fn compiled into one generated function)
    # ------------------------------------------------------------------
    def fused_lookup(self, key: tuple):
        """Return the cached fused kernel for ``key``, or None."""
        if not self.enabled:
            return None
        return self._fused.get(key)

    def fused_store(self, key: tuple, kernel) -> None:
        """Cache a fused kernel (no-op while MMAT is disabled)."""
        if self.enabled:
            self._fused[key] = kernel

    def note_fallback(self, sites: int) -> None:
        """Account ``sites`` element accesses served by the scalar fallback."""
        self.fallback_sites += int(sites)

    @property
    def plans(self) -> Dict[tuple, AccessPlan]:
        """Read-only view of the compiled plans (used by prefetch advice)."""
        return self._plans

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget every memorized resolution *and* every compiled plan
        (the access pattern changed)."""
        self._memo.clear()
        self._plans.clear()
        # Fused kernels bake a specific plan's gather tables into
        # generated code, so they die with the plans they wrap.
        self._fused.clear()
        self.resets += 1

    def __len__(self) -> int:
        return len(self._memo)

    def memory_bytes(self) -> int:
        """Rough footprint of the memo table and the compiled plan arrays
        (reported in the Fig. 12 bench)."""
        # Key: 2 small ints + tuple overhead; value: pointer.  A compact
        # estimate is sufficient for the memory-usage decomposition.
        total = 120 * len(self._memo)
        total += sum(plan.nbytes for plan in self._plans.values())
        return total

    def stats(self) -> dict:
        """Memo and plan statistics (hit-rate, compiled plans, vectorized %)."""
        lookups = self.hits + self.misses
        plan_sites = sum(plan.n_sites for plan in self._plans.values())
        vector_total = self.plan_exec_sites + self.fallback_sites
        return {
            "enabled": self.enabled,
            "entries": len(self._memo),
            "hits": self.hits,
            "misses": self.misses,
            "resets": self.resets,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "plans": len(self._plans),
            "plan_sites": plan_sites,
            "plan_compiles": self.plan_compiles,
            "plan_compiles_uncached": self.plan_compiles_uncached,
            "fused_kernels": sum(
                1 for k in self._fused.values() if k is not None and k != "unfusable"
            ),
            "plan_executions": self.plan_executions,
            "plan_exec_sites": self.plan_exec_sites,
            "fallback_sites": self.fallback_sites,
            #: Fraction of batched accesses actually served by compiled
            #: plans (1.0 = fully vectorized, 0.0 = all scalar fallback).
            "vectorized_fraction": (
                self.plan_exec_sites / vector_total if vector_total else 0.0
            ),
        }
