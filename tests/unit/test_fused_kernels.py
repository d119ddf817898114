"""Unit tests for the kernels subsystem and the overlap-sweep bugfixes.

Covers the satellite fixes that ride with the plan-fusion tentpole:

* broadcastable / constant ``fn`` returns no longer crash the
  overlapped ``sweep_segment`` apply (or ``scatter``) on any rank count;
* ``element_partition`` refuses address plans with a clear error
  instead of silently producing a meaningless partition;
* key-less ``gather_global`` compiles are counted separately
  (``plan_compiles_uncached``) so coverage numbers stay honest;
* ``AccessPlan.execute`` reuses a per-plan scratch array instead of
  allocating a fresh output every call;
* fused kernels are cached on the MMAT, invalidated by ``reset()``,
  and surfaced through stats, counters and the run summary;
* unfusable plans are refused once and cached as ``UNFUSABLE``; the
  plain and the overlapped fused sweep both reproduce the access-plan
  gather exactly; scratch fields, store views and generated code are
  shared where the kernel promises it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels
from repro.annotation import Platform, PlatformBuilder
from repro.apps import JacobiSGrid, JacobiUSGrid
from repro.apps.jacobi_sgrid import STENCIL
from repro.aspects import mpi_aspects
from repro.kernels import CodegenError, FusedKernel, UNFUSABLE, fused_kernel_for
from repro.kernels.numpy_src import compile_sweep
from repro.memory import (
    DataBlock,
    Env,
    MemoryPool,
    PoolGroup,
    compile_address_plan,
    compile_offsets_plan,
)
from repro.memory.errors import AddressError
from repro.obs.spans import global_tracer
from repro.runtime.tracing import TaskCounters


def _init(x, y):
    return 0.03 * x - 0.05 * y + 2.0


CONFIG = dict(region=16, block_size=4, page_elements=8, loops=3, init=_init)


def _plan_env(components=1):
    pool = PoolGroup([MemoryPool(4 * 1024 * 1024, name="fused-pool")])
    env = Env(allocator=pool, name="fused-env", mmat_enabled=True)
    block = DataBlock((0, 0), (4, 4), components=components, page_elements=4,
                      allocator=pool)
    env.add_data_block(block)
    values = np.arange(block.element_count * components, dtype=np.float64)
    for buf in block.buffer.buffers:
        buf.load_dense(values.reshape(-1, components))
        buf.clear_dirty()
    return env, block


# ----------------------------------------------------------------------
# satellite 1: broadcastable / constant fn returns
# ----------------------------------------------------------------------
class ConstantSweepJacobi(JacobiSGrid):
    """Sweep whose fn returns a scalar — legal, must broadcast everywhere."""

    def kernel_vectorized(self, warmup: bool) -> bool:
        for _block, k in self.block_kernels(warmup):
            k.sweep(lambda e, e_n, e_w, e_e, e_s: np.float64(0.5), STENCIL)
        return self.refresh(warmup)


class TestBroadcastableSweepReturns:
    @pytest.mark.parametrize("ranks", [1, 4])
    @pytest.mark.parametrize("fuse", [True, False])
    def test_constant_fn_sweeps_on_all_ranks(self, ranks, fuse):
        """Regression: the overlapped apply() reshaped scalar returns and
        crashed; it must broadcast, on the fused and the legacy path."""
        aspects = mpi_aspects(ranks, backend="threads")
        run = Platform(aspects=aspects, mmat=True).run(
            ConstantSweepJacobi,
            config=dict(CONFIG, kernel="vectorized", fuse=fuse),
        )
        field = np.asarray(run.result)
        assert np.array_equal(field[~np.isnan(field)],
                              np.full(np.count_nonzero(~np.isnan(field)), 0.5))

    def test_scatter_broadcasts_constants(self):
        run = Platform(mmat=True).run(
            JacobiSGrid, config=dict(CONFIG, kernel="vectorized")
        )
        k = next(iter(run.app.block_kernels()))[1]
        k.scatter(1.25)  # scalar: must broadcast, not reshape-crash
        k.scatter(np.full(16, 2.5))  # flat block-sized array


# ----------------------------------------------------------------------
# satellite 2: element_partition on address plans
# ----------------------------------------------------------------------
class TestElementPartitionKinds:
    def test_offsets_plan_partitions(self):
        env, block = _plan_env()
        plan = compile_offsets_plan(env, block, ((0, 0),))
        interior, boundary = plan.element_partition()
        assert interior.size + boundary.size == block.element_count
        assert plan.kind == "offsets"

    def test_address_plan_refuses_partition(self):
        env, block = _plan_env()
        addresses = np.arange(block.element_count, dtype=np.int64).reshape(-1, 1)
        addresses = np.concatenate([addresses % 4, addresses // 4], axis=1)
        plan = compile_address_plan(env, block, addresses)
        assert plan.kind == "addresses"
        with pytest.raises(AddressError, match="offsets plans"):
            plan.element_partition()


# ----------------------------------------------------------------------
# satellite 3: key-less gather_global accounting
# ----------------------------------------------------------------------
class UncachedGatherUSGrid(JacobiUSGrid):
    """Indirect gather without a plan key: per-call compiles by design."""

    def kernel_vectorized(self, warmup: bool) -> bool:
        alpha, beta = self.alpha, self.beta
        for _block, k in self.block_kernels(warmup):
            e = k.gather([(0,)])[0]
            neigh = k.gather_global(k.static_field("neighbors"))  # no key=
            ans = alpha * e + beta * (neigh[:, 1] + neigh[:, 0]
                                      + neigh[:, 3] + neigh[:, 2])
            k.scatter(ans)
        return self.refresh(warmup)


class TestUncachedCompileAccounting:
    def test_keyless_compiles_counted_separately(self):
        cfg = dict(region=16, block_cells=32, page_elements=8, loops=3,
                   init=_init, kernel="vectorized")
        keyed = Platform(mmat=True).run(JacobiUSGrid, config=dict(cfg))
        keyless = Platform(mmat=True).run(UncachedGatherUSGrid, config=dict(cfg))
        assert np.allclose(np.asarray(keyed.result), np.asarray(keyless.result))

        k_counters = list(keyed.counters.values())
        u_counters = list(keyless.counters.values())
        # Keyed tables compile once per block and hit the cache after.
        assert sum(c.plan_compiles_uncached for c in k_counters) == 0
        # Key-less tables recompile every call — but as *uncached*
        # compiles, not plan_compiles (the cache-coverage numerator).
        uncached = sum(c.plan_compiles_uncached for c in u_counters)
        assert uncached > sum(c.plan_compiles for c in u_counters)
        assert keyless.mmat_stats["plan_compiles_uncached"] == uncached
        assert "dyn=" in keyless.summary()
        assert "dyn=" not in keyed.summary()


# ----------------------------------------------------------------------
# satellite 4: execute() scratch reuse
# ----------------------------------------------------------------------
class TestExecuteScratchReuse:
    def test_same_output_array_is_reused(self):
        env, block = _plan_env()
        plan = compile_offsets_plan(env, block, ((0, 0),))
        out1 = plan.execute(env)
        first = out1.copy()
        out2 = plan.execute(env)
        assert out1 is out2  # per-plan scratch, not a fresh alloc
        assert np.array_equal(first, out2)


# ----------------------------------------------------------------------
# fused-kernel cache, counters, the one fused path
# ----------------------------------------------------------------------
class TestFusedCacheAndCounters:
    def test_fused_kernels_cached_and_reset_invalidates(self):
        run = Platform(mmat=True).run(
            JacobiSGrid, config=dict(CONFIG, kernel="vectorized")
        )
        mmat = run.app.env.mmat
        assert run.mmat_stats["fused_kernels"] == 16  # one per block
        counters = list(run.counters.values())
        assert sum(c.kernel_fuse for c in counters) == 16
        # 16 blocks x 3 loops fused calls (warm-up never fuses).
        assert sum(c.kernel_fused_calls for c in counters) == 48
        assert "fused=48calls/16kern" in run.summary()
        mmat.reset()
        assert mmat.stats()["fused_kernels"] == 0

    def test_fuse_opt_out(self):
        run = Platform(mmat=True).run(
            JacobiSGrid, config=dict(CONFIG, kernel="vectorized", fuse=False)
        )
        assert sum(c.kernel_fused_calls for c in run.counters.values()) == 0
        assert run.mmat_stats["fused_kernels"] == 0
        assert "fused=" not in run.summary()

    def test_no_fusion_without_mmat(self):
        run = Platform(mmat=False).run(
            JacobiSGrid, config=dict(CONFIG, kernel="vectorized")
        )
        assert sum(c.kernel_fused_calls for c in run.counters.values()) == 0


class TestOneFusedKernelPath:
    def test_temporal_block_and_codegen_registry_are_gone(self):
        with pytest.raises(TypeError):
            Platform(temporal_block=2)
        with pytest.raises(TypeError):
            Platform.preset("serial", temporal_block=2)
        assert not hasattr(PlatformBuilder, "temporal_block")
        for name in ("register_codegen", "resolve_codegen"):
            assert not hasattr(repro.kernels, name)
            assert name not in repro.kernels.__all__


# ----------------------------------------------------------------------
# unfusable plans, the plain and overlapped fused sweeps, sharing
# ----------------------------------------------------------------------
def _weighted(*vals):
    """Elementwise and order-sensitive: a swapped offset changes the sum."""
    return sum((i + 1) * 0.1 * v for i, v in enumerate(vals))


def _fused_kernels(ranks=1):
    """Rank 0's fused kernels after a finished Jacobi run."""
    aspects = mpi_aspects(ranks, backend="threads") if ranks > 1 else []
    run = Platform(aspects=aspects, mmat=True).run(
        JacobiSGrid, config=dict(CONFIG, kernel="vectorized")
    )
    env = run.app.env
    kerns = [k for k in env.mmat._fused.values() if k is not UNFUSABLE]
    assert kerns
    return env, kerns


def _plan_reference(env, kern, fn):
    """``fn`` applied to the access plan's own per-offset gather."""
    g = kern.plan.execute(env)
    n = kern.n_elem
    return fn(*[g[i * n:(i + 1) * n, 0] for i in range(len(kern.plan.offsets))])


def _written(kern) -> np.ndarray:
    return kern.block.buffer.write_buffer.dense()[:, 0].copy()


class TestUnfusablePlans:
    def test_address_plan_refused_and_cached(self):
        env, block = _plan_env()
        addresses = np.arange(block.element_count, dtype=np.int64)
        addresses = np.stack([addresses % 4, addresses // 4], axis=1)
        plan = compile_address_plan(env, block, addresses)
        with pytest.raises(CodegenError, match="offsets plans"):
            FusedKernel(block, plan)
        trace = TaskCounters()
        assert fused_kernel_for(env, block, plan, _weighted, trace=trace) is None
        key = (plan.version, _weighted.__code__, str(plan.dtype))
        assert env.mmat.fused_lookup(key) is UNFUSABLE
        # The cached refusal answers the next sweep without a new attempt.
        assert fused_kernel_for(env, block, plan, _weighted, trace=trace) is None
        assert trace.kernel_fuse == 0

    def test_multi_component_plan_refused(self):
        env, block = _plan_env(components=2)
        plan = compile_offsets_plan(env, block, ((0, 0),))
        with pytest.raises(CodegenError, match="single-component"):
            FusedKernel(block, plan)
        assert fused_kernel_for(env, block, plan, _weighted) is None


class TestFusedKernelCacheKey:
    def test_one_kernel_per_plan_and_fn(self):
        env, block = _plan_env()
        plan = compile_offsets_plan(env, block, ((0, 0),))
        trace = TaskCounters()
        first = fused_kernel_for(env, block, plan, _weighted, trace=trace)
        assert isinstance(first, FusedKernel)
        assert fused_kernel_for(env, block, plan, _weighted, trace=trace) is first
        assert trace.kernel_fuse == 1
        other = fused_kernel_for(env, block, plan, lambda v: 2.0 * v, trace=trace)
        assert other is not first
        assert trace.kernel_fuse == 2

    def test_recompiled_plan_gets_a_fresh_kernel(self):
        env, block = _plan_env()
        plan = compile_offsets_plan(env, block, ((0, 0),))
        stale = fused_kernel_for(env, block, plan, _weighted)
        env.mmat.reset()
        fresh_plan = compile_offsets_plan(env, block, ((0, 0),))
        assert fresh_plan.version != plan.version
        fresh = fused_kernel_for(env, block, fresh_plan, _weighted)
        assert fresh is not stale
        assert fresh.plan is fresh_plan


class TestFusedSweepPaths:
    @pytest.mark.parametrize("ranks", [1, 2])
    def test_plain_sweep_matches_plan_gather(self, ranks):
        env, kerns = _fused_kernels(ranks)
        for kern in kerns:
            ref = _plan_reference(env, kern, _weighted)
            assert kern._fused_sweep(kern, env, _weighted) == 0
            assert np.array_equal(_written(kern), ref)

    def test_overlapped_sweep_matches_plan_gather(self):
        env, kerns = _fused_kernels(ranks=2)
        rims = 0
        for kern in kerns:
            ref = _plan_reference(env, kern, _weighted)
            assert kern._overlap_step(env, _weighted, global_tracer()) == 0
            assert np.array_equal(_written(kern), ref)
            rims += int(kern._boundary_indices()[0].size)
        # Some blocks border the other rank: their rim is recomputed.
        assert rims > 0


class TestFusedKernelSharing:
    def test_scratch_field_pooled_with_constants_kept(self):
        _env, kerns = _fused_kernels()
        kern = next(k for k in kerns if k.const_pos is not None)
        field = kern.alloc()
        assert np.array_equal(field.reshape(-1)[kern.const_pos], kern.const_vals)
        kern.release(field)
        assert kern.alloc() is field

    def test_store_views_merge_adjacent_pages_and_are_cached(self):
        env, kerns = _fused_kernels()
        kern = kerns[0]
        views, pages = kern.store_plan(env)
        assert len(pages) == kern.block.buffer.write_buffer.page_count > 1
        assert len(views) < len(pages)  # back-to-back pages, one view
        assert sum(v.shape[0] for v in views) == kern.n_elem
        again, _ = kern.store_plan(env)
        assert again is views

    def test_generated_code_shared_per_signature(self):
        _env, kerns = _fused_kernels()
        assert len({k._fused_sweep.__code__ for k in kerns}) == 1
        a = compile_sweep(kerns[0]._signature())
        b = compile_sweep(kerns[0]._signature())
        assert a is not b  # fresh namespace ...
        assert a["fused_sweep"].__code__ is b["fused_sweep"].__code__  # ... one code
