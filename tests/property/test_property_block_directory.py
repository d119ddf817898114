"""Property: the Env's block directory resolves exactly like ``find_block``.

``Env.resolve_many`` is the bulk lookup the access-plan compiler uses
instead of one Env tree walk per site.  For every rank's Env of every
sample DSL (SGrid with Dirichlet and Neumann rings, USGrid case C and
case R, Particle; 1 and 2 ranks) and for random addresses inside the
domain, on the boundary ring and outside every block, the directory
must return the Block ``find_block`` returns — and raise the scalar
path's ``AddressError`` where ``find_block`` finds nothing.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.memory import AddressError
from repro.runtime.task import TaskContext, task_scope

APPS = {
    "sgrid-dirichlet": (JacobiSGrid, dict(region=16, block_size=4, page_elements=8)),
    "sgrid-neumann": (
        JacobiSGrid, dict(region=16, block_size=4, page_elements=8, boundary="neumann"),
    ),
    "usgrid-c": (JacobiUSGrid, dict(region=16, case="C", block_cells=32, page_elements=8)),
    "usgrid-r": (
        JacobiUSGrid, dict(region=16, case="R", block_cells=32, page_elements=8, layout_seed=3),
    ),
    "particle": (ParticleSimulation, dict(particles=64, block_buckets=2, page_elements=4)),
}


@functools.lru_cache(maxsize=None)
def rank_env(name: str, ranks: int, rank: int):
    """The Env rank ``rank`` of a ``ranks``-rank run of ``name`` builds."""
    app_class, config = APPS[name]
    app = app_class(dict(config))
    with task_scope(TaskContext(mpi_rank=rank, mpi_size=ranks)):
        return app.build_env()


ENVS = [
    (name, ranks, rank)
    for name in APPS
    for ranks in (1, 2)
    for rank in range(ranks)
]


def probe_addresses(env, seed: int, count: int) -> np.ndarray:
    """Random addresses around the readable blocks' bounding box.

    Half the probes fall inside the box (interior and boundary ring), a
    quarter sit exactly on or just beyond its edges, and the rest are
    drawn from the box grown by 2 in every direction.
    """
    readable = [b for b in env.blocks_by_id.values() if b.holds_data]
    lo = np.min([b.origin for b in readable], axis=0)
    hi = np.max([np.add(b.origin, b.shape) for b in readable], axis=0)
    rng = np.random.default_rng(seed)
    addrs = rng.integers(lo - 2, hi + 2, size=(count, lo.size))
    addrs[: count // 2] = rng.integers(lo, hi, size=(count // 2, lo.size))
    edges = rng.integers(0, 4, size=(count // 4, lo.size))
    addrs[count // 2 : count // 2 + count // 4] = np.choose(edges, [lo - 1, lo, hi - 1, hi])
    return addrs


@pytest.mark.parametrize("name,ranks,rank", ENVS)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_directory_matches_find_block(name, ranks, rank, seed):
    env = rank_env(name, ranks, rank)
    starts = env.data_blocks(include_buffer_only=True)
    addrs = probe_addresses(env, seed, 64)
    expected = [
        env.find_block(tuple(addr), start=starts[i % len(starts)])
        for i, addr in enumerate(addrs.tolist())
    ]
    found = [i for i, block in enumerate(expected) if block is not None]
    assert found, "probe set resolved nothing"
    blocks, index = env.resolve_many(addrs[found])
    assert [blocks[j] for j in index] == [expected[i] for i in found]
    for i, block in enumerate(expected):
        if block is None:
            message = f"no block of Env {env.name!r} contains address {tuple(addrs[i].tolist())}"
            with pytest.raises(AddressError) as err:
                env.resolve_many(addrs[i : i + 1])
            assert str(err.value) == message
