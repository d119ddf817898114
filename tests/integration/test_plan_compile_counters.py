"""Counter contract of the bulk warm-up plan compile.

Access plans resolve their out-of-block sites through the Env's block
directory instead of one ``Env.find_block`` tree walk per site.  The
accounting must not notice: every resolved site still enters the MMAT
memo, each distinct resolved address still counts one Env search, and
repeat visits still count as memo hits.  The expected values below are
those of the per-site compiler this one replaced, on the same runs.
"""

from __future__ import annotations

import threading

import pytest

import repro.dsl.base as dsl_base
from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.memory import Env

CASES = {
    "sgrid-dirichlet": (JacobiSGrid, dict(
        region=32, block_size=8, page_elements=16, loops=2,
        init=lambda x, y: float(x + 2 * y))),
    "sgrid-neumann": (JacobiSGrid, dict(
        region=32, block_size=8, page_elements=16, loops=2, boundary="neumann",
        init=lambda x, y: float(x * y))),
    "usgrid-c": (JacobiUSGrid, dict(
        region=32, case="C", block_cells=128, page_elements=16, loops=2,
        init=lambda x, y: float(x - y))),
    "usgrid-r": (JacobiUSGrid, dict(
        region=32, case="R", block_cells=128, page_elements=16, loops=2, layout_seed=7,
        init=lambda x, y: float(x - y))),
    "particle": (ParticleSimulation, dict(particles=128, block_buckets=4, loops=2)),
}

PLATFORMS = {
    "serial": lambda: Platform(mmat=True),
    "mpi2": lambda: Platform.preset("mpi", ranks=2, mmat=True),
}

#: (entries, misses, hits, searches) of rank 0's Env after the run.
EXPECTED = {
    ("sgrid-dirichlet", "serial"): (512, 512, 0, 512),
    ("sgrid-dirichlet", "mpi2"): (256, 256, 0, 256),
    ("sgrid-neumann", "serial"): (512, 512, 0, 640),
    ("sgrid-neumann", "mpi2"): (256, 256, 0, 320),
    ("usgrid-c", "serial"): (576, 576, 0, 576),
    ("usgrid-c", "mpi2"): (288, 288, 0, 288),
    ("usgrid-r", "serial"): (3027, 3027, 0, 3027),
    ("usgrid-r", "mpi2"): (1518, 1518, 0, 1518),
    ("particle", "serial"): (20, 20, 24, 20),
    ("particle", "mpi2"): (20, 20, 24, 20),
}


@pytest.fixture
def find_block_calls(monkeypatch):
    """Count ``Env.find_block`` calls, in total and inside plan compiles."""
    counts = {"total": 0, "compile": 0}
    local = threading.local()
    lock = threading.Lock()
    real_find = Env.find_block

    def counting_find(self, *args, **kwargs):
        with lock:
            counts["total"] += 1
            if getattr(local, "compiling", False):
                counts["compile"] += 1
        return real_find(self, *args, **kwargs)

    def flagged(compile_fn):
        def run(*args, **kwargs):
            local.compiling = True
            try:
                return compile_fn(*args, **kwargs)
            finally:
                local.compiling = False
        return run

    monkeypatch.setattr(Env, "find_block", counting_find)
    for name in ("compile_offsets_plan", "compile_address_plan"):
        monkeypatch.setattr(dsl_base, name, flagged(getattr(dsl_base, name)))
    return counts


@pytest.mark.parametrize("case,platform", sorted(EXPECTED))
def test_compile_counters_match_per_site_compiler(case, platform, find_block_calls):
    app, config = CASES[case]
    run = PLATFORMS[platform]().run(app, config=dict(config))
    mmat = run.mmat_stats
    assert mmat["plan_compiles"] > 0
    got = (mmat["entries"], mmat["misses"], mmat["hits"], run.env_stats.searches)
    assert got == EXPECTED[(case, platform)]
    assert find_block_calls["compile"] == 0
    # The counter reaches the (possibly woven) Env class the run used.
    before = find_block_calls["total"]
    run.app.env.find_block((0,) * run.app.env.data_blocks()[0].ndim)
    assert find_block_calls["total"] == before + 1
