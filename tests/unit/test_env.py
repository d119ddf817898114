"""Unit tests for the Env tree, its search, refresh and MMAT behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory import (
    AddressError,
    ArithmeticBlock,
    BufferOnlyBlock,
    DataBlock,
    Env,
    EnvError,
    MMAT,
    PageKey,
    StaticDataBlock,
)


def add_block(env, origin, shape=(4, 4), *, buffer_only=False, owner=None):
    cls = BufferOnlyBlock if buffer_only else DataBlock
    kwargs = dict(components=1, page_elements=4, allocator=env.allocator)
    if buffer_only:
        kwargs["owner_tid"] = owner
    block = cls(origin, shape, **kwargs)
    env.add_data_block(block)
    return block


class TestEnvConstruction:
    def test_default_tree_shape(self, env):
        # Root has the data joint; boundary blocks attach under the root.
        assert env.data_joint.parent is env.root
        assert env.data_blocks() == []

    def test_add_data_block_and_lookup(self, env):
        block = add_block(env, (0, 0))
        assert env.block(block.block_id) is block
        assert env.data_blocks() == [block]

    def test_unknown_block_id(self, env):
        with pytest.raises(EnvError):
            env.block(999999)

    def test_boundary_must_be_virtual(self, env):
        block = DataBlock((0, 0), (2, 2), components=1, page_elements=4,
                          allocator=env.allocator)
        with pytest.raises(EnvError):
            env.add_boundary_block(block)

    def test_add_data_block_type_check(self, env):
        with pytest.raises(EnvError):
            env.add_data_block(ArithmeticBlock((0, 0), (2, 2), lambda a: 0.0))

    def test_extra_joint(self, env):
        joint = env.add_joint(name="locality-joint")
        block = DataBlock((0, 0), (2, 2), components=1, page_elements=4,
                          allocator=env.allocator)
        env.add_data_block(block, parent=joint)
        assert block.parent is joint
        assert block in env.data_blocks()

    def test_owned_blocks_filter(self, env):
        a = add_block(env, (0, 0))
        b = add_block(env, (4, 0))
        a.ch_tid, b.ch_tid = 0, 1
        assert env.owned_blocks(0) == [a]
        assert env.owned_blocks(1) == [b]

    def test_buffer_only_excluded_by_default(self, env):
        add_block(env, (0, 0))
        add_block(env, (4, 0), buffer_only=True)
        assert len(env.data_blocks()) == 1
        assert len(env.data_blocks(include_buffer_only=True)) == 2


class TestEnvSearch:
    def test_finds_sibling_block(self, env):
        a = add_block(env, (0, 0))
        b = add_block(env, (4, 0))
        found = env.find_block((5, 1), start=a)
        assert found is b

    def test_boundary_found_last(self, env):
        a = add_block(env, (0, 0))
        boundary = ArithmeticBlock((-1, -1), (8, 8), lambda addr: 1.0)
        env.add_boundary_block(boundary)
        assert env.find_block((-1, -1), start=a) is boundary

    def test_search_miss_returns_none(self, env):
        a = add_block(env, (0, 0))
        assert env.find_block((100, 100), start=a) is None

    def test_search_counts_steps(self, env):
        a = add_block(env, (0, 0))
        add_block(env, (4, 0))
        env.find_block((5, 0), start=a)
        assert env.stats.searches == 1
        assert env.stats.search_steps >= 2


class TestBlockDirectory:
    def test_data_blocks_win_over_overlapping_boundary(self, env):
        a = add_block(env, (0, 0))
        b = add_block(env, (4, 0), buffer_only=True)
        ring = ArithmeticBlock((-1, -1), (10, 6), lambda addr: 1.0)
        env.add_boundary_block(ring)
        blocks, index = env.resolve_many([(1, 1), (5, 3), (-1, 0), (8, 4)])
        assert [blocks[j] for j in index] == [a, b, ring, ring]

    def test_boundary_blocks_in_insertion_order(self, env):
        add_block(env, (0, 0))
        first = StaticDataBlock((4, 0), (2, 4), 1.0)
        second = StaticDataBlock((4, 0), (4, 4), 2.0)
        env.add_boundary_block(first)
        env.add_boundary_block(second)
        blocks, index = env.resolve_many([(5, 0), (7, 0)])
        assert [blocks[j] for j in index] == [first, second]

    def test_one_dimensional_addresses(self, env):
        a = add_block(env, (0,), shape=(8,))
        b = add_block(env, (8,), shape=(8,))
        blocks, index = env.resolve_many(np.array([15, 0, 8, 7]))
        assert [blocks[j] for j in index] == [b, a, b, a]

    def test_unresolved_address_raises_scalar_message(self, env):
        add_block(env, (0, 0))
        with pytest.raises(AddressError, match=r"contains address \(9, -3\)"):
            env.resolve_many([(1, 1), (9, -3)])

    def test_no_search_counters(self, env):
        add_block(env, (0, 0))
        env.resolve_many([(1, 1)])
        assert env.stats.searches == 0 and env.stats.search_steps == 0

    @pytest.mark.parametrize("mutation", ["data", "boundary", "joint"])
    def test_tree_mutation_invalidates_directory(self, env, mutation):
        add_block(env, (0, 0))
        with pytest.raises(AddressError):
            env.resolve_many([(5, 1)])
        if mutation == "data":
            added = add_block(env, (4, 0))
        elif mutation == "boundary":
            added = env.add_boundary_block(StaticDataBlock((4, 0), (4, 4), 0.5))
        else:
            joint = env.add_joint(name="locality-joint")
            added = DataBlock((4, 0), (4, 4), components=1, page_elements=4,
                              allocator=env.allocator)
            joint.add_child(added)  # attached behind the Env's back ...
            env.add_joint(parent=joint)  # ... the next registration rebuilds
        blocks, index = env.resolve_many([(5, 1)])
        assert blocks[index[0]] is added
        assert env.find_block((5, 1)) is added


class TestEnvReadWrite:
    def test_read_inside_block(self, env):
        a = add_block(env, (0, 0))
        a.write((1, 1), 3.0)
        env.refresh()
        assert env.read_from(a, (1, 1)) == 3.0
        assert env.stats.in_block_reads >= 1

    def test_read_with_inside_hint_skips_search(self, env):
        a = add_block(env, (0, 0))
        a.write((0, 0), 1.0)
        env.refresh()
        env.read_from(a, (0, 0), assume_inside=True)
        assert env.stats.searches == 0

    def test_read_across_blocks(self, env):
        a = add_block(env, (0, 0))
        b = add_block(env, (4, 0))
        b.write((4, 0), 8.0)
        env.refresh()
        assert env.read_from(a, (4, 0)) == 8.0
        assert env.stats.out_of_block_reads == 1

    def test_read_boundary_value(self, env):
        a = add_block(env, (0, 0))
        env.add_boundary_block(ArithmeticBlock((-1, -1), (8, 8), lambda addr: -2.5))
        assert env.read_from(a, (-1, 0)) == -2.5

    def test_read_unmapped_address_raises(self, env):
        a = add_block(env, (0, 0))
        with pytest.raises(AddressError):
            env.read_from(a, (50, 50))

    def test_write_from_other_block(self, env):
        a = add_block(env, (0, 0))
        b = add_block(env, (4, 0))
        env.write_from(a, (4, 1), 6.0)
        env.refresh()
        assert b.read((4, 1)) == 6.0

    def test_write_unmapped_raises(self, env):
        a = add_block(env, (0, 0))
        with pytest.raises(AddressError):
            env.write_from(a, (99, 99), 1.0)

    def test_root_read(self, env):
        a = add_block(env, (0, 0))
        a.write((2, 2), 4.0)
        env.refresh()
        assert env.read((2, 2)) == 4.0


class TestMissingPagesAndRefresh:
    def test_reading_invalid_buffer_only_records_missing(self, env):
        a = add_block(env, (0, 0))
        remote = add_block(env, (4, 0), buffer_only=True, owner=1)
        remote.invalidate()
        value = env.read_from(a, (5, 0))
        assert value == 0.0
        assert len(env.missing_pages) == 1
        assert env.stats.missing_recorded == 1

    def test_refresh_fails_and_records_failed_pages(self, env):
        a = add_block(env, (0, 0))
        remote = add_block(env, (4, 0), buffer_only=True, owner=1)
        remote.invalidate()
        env.read_from(a, (5, 0))
        assert env.refresh() is False
        assert env.missing_pages == set()
        assert len(env.last_failed_pages) == 1
        assert env.stats.failed_refreshes == 1

    def test_refresh_success_swaps_buffers(self, env):
        a = add_block(env, (0, 0))
        a.write((0, 0), 9.0)
        assert env.refresh() is True
        assert a.read((0, 0)) == 9.0
        assert env.step == 1

    def test_warmup_refresh_does_not_swap(self, env):
        a = add_block(env, (0, 0))
        a.write((0, 0), 9.0)
        assert env.refresh(warmup=True) is True
        assert a.read((0, 0)) != 9.0
        assert env.step == 0

    def test_page_snapshot_and_install(self, env):
        a = add_block(env, (0, 0))
        a.write((0, 0), 1.5)
        env.refresh()
        key = PageKey(a.block_id, 0)
        data = env.page_snapshot(key)
        data = data + 1
        env.page_install(key, data)
        assert a.read((0, 0)) == 2.5

    def test_page_ops_reject_virtual_blocks(self, env):
        boundary = ArithmeticBlock((-1, -1), (4, 4), lambda a: 0.0)
        env.add_boundary_block(boundary)
        with pytest.raises(EnvError):
            env.page_snapshot(PageKey(boundary.block_id, 0))

    def test_invalidate_buffer_only(self, env):
        remote = add_block(env, (4, 0), buffer_only=True, owner=1)
        remote.page_fill(0, np.ones((4, 1)))
        env.invalidate_buffer_only()
        a = add_block(env, (0, 0))
        env.read_from(a, (4, 0))
        assert env.missing_pages


class TestEnvMMAT:
    def test_mmat_disabled_by_default(self, env):
        assert not env.mmat.enabled

    def test_mmat_caches_out_of_block_resolution(self, mmat_env):
        env = mmat_env
        a = add_block(env, (0, 0))
        b = add_block(env, (4, 0))
        b.write((4, 0), 1.0)
        env.refresh()
        env.read_from(a, (4, 0))
        searches_after_first = env.stats.searches
        env.read_from(a, (4, 0))
        assert env.stats.searches == searches_after_first  # no new search
        assert env.stats.mmat_hits == 1

    def test_mmat_reset_forces_search_again(self, mmat_env):
        env = mmat_env
        a = add_block(env, (0, 0))
        add_block(env, (4, 0))
        env.read_from(a, (4, 0))
        env.mmat.reset()
        env.read_from(a, (4, 0))
        assert env.stats.searches == 2

    def test_mmat_stats(self):
        memo = MMAT(enabled=True)
        memo.remember(1, (0, 1), "block")
        assert memo.lookup(1, (0, 1)) == "block"
        assert memo.lookup(1, (9, 9)) is None
        stats = memo.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["entries"] == 1
        assert memo.memory_bytes() > 0

    def test_mmat_disabled_lookup_is_noop(self):
        memo = MMAT(enabled=False)
        memo.remember(1, (0, 0), "x")
        assert memo.lookup(1, (0, 0)) is None
        assert len(memo) == 0


class TestEnvAccounting:
    def test_memory_report_shape(self, env):
        add_block(env, (0, 0))
        report = env.memory_report()
        assert report["pool_used"] > 0
        assert report["pool_unused"] > 0
        assert report["pool_capacity"] == report["pool_used"] + report["pool_unused"]
        assert report["env_structure"] > 0

    def test_stats_merge(self, env):
        env.stats.reads = 3
        other = Env(pool_bytes=1 << 16)
        other.stats.reads = 4
        assert env.stats.merged_with(other.stats).reads == 7

    def test_data_bytes(self, env):
        block = add_block(env, (0, 0))
        assert env.data_bytes() == block.nbytes
