"""Counter contract of the single page-exchange path.

Every page moves through ``fetch_pages_bulk``: the per-page protocol
(no comm plan, MMAT off, the §III-B9 repair) is one one-page manifest
per page, and blocking mode (``overlap=False``) is the overlapped issue
waited at once.  The traffic the aspect accounts must not notice.  The
expected values below are those of the separate per-page wire protocol
and blocking planned exchange this path replaced, on the same runs.

The one intended difference is on the transport side: a per-page fetch
is now a bulk exchange, so it counts in ``bulk_fetches``/``bulk_pages``
and its request carries a 16-byte manifest entry.  On the ``process``
backend the request tuple's byte estimate also counts the manifest
list (32 bytes more than the old per-page request tuple), and with the
shared-memory data plane the page itself travels as a descriptor
(``shm_*`` counters).
"""

from __future__ import annotations

import pytest

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.aspects import mpi_aspects
from repro.runtime import get_backend
from repro.runtime.shm import shm_available


def _init(x, y):
    return 0.04 * x - 0.03 * y + 1.5


APPS = {
    "sgrid": (JacobiSGrid, dict(region=16, block_size=4, page_elements=8, loops=3, init=_init)),
    "usgrid-c": (JacobiUSGrid, dict(
        region=16, case="C", block_cells=32, page_elements=8, loops=3, init=_init)),
    "particle": (ParticleSimulation, dict(particles=256, block_buckets=4, page_elements=4, loops=2)),
}

#: name -> (overlap, comm_plans, mmat)
CONFIGS = {
    "overlapped": (True, True, True),
    "blocking": (False, True, True),
    "perpage": (True, False, True),
    "nommat": (True, True, False),
}

#: name -> (backend, page_transport)
TRANSPORTS = {
    "threads": ("threads", None),
    "process-pipe": ("process", "pipe"),
    "process-shm": ("process", "shm"),
}

TASK_FIELDS = (
    "messages", "pages_fetched", "bytes_fetched", "productive_messages",
    "productive_bytes", "collectives", "comm_plan_compiles", "comm_plan_exchanges",
    "comm_plan_pages", "comm_plan_fallback_pages", "overlap_issues",
    "overlap_exchanges", "overlap_pages", "overlap_drained",
)

#: (app, config) -> TASK_FIELDS summed over both ranks (every transport).
TASK_EXPECTED = {
    ("sgrid", "overlapped"): (16, 64, 4096, 12, 3072, 16, 2, 8, 64, 0, 8, 8, 64, 2),
    ("sgrid", "blocking"): (16, 64, 4096, 12, 3072, 16, 2, 8, 64, 0, 0, 0, 0, 0),
    ("sgrid", "perpage"): (128, 64, 4096, 96, 3072, 16, 0, 0, 0, 64, 0, 0, 0, 0),
    ("sgrid", "nommat"): (128, 64, 4096, 96, 3072, 20, 0, 0, 0, 64, 0, 0, 0, 0),
    ("usgrid-c", "overlapped"): (16, 16, 1024, 12, 768, 16, 2, 8, 16, 0, 8, 8, 16, 2),
    ("usgrid-c", "blocking"): (16, 16, 1024, 12, 768, 16, 2, 8, 16, 0, 0, 0, 0, 0),
    ("usgrid-c", "perpage"): (32, 16, 1024, 24, 768, 16, 0, 0, 0, 16, 0, 0, 0, 0),
    ("usgrid-c", "nommat"): (32, 16, 1024, 24, 768, 20, 0, 0, 0, 16, 0, 0, 0, 0),
    ("particle", "overlapped"): (12, 48, 247296, 8, 164864, 12, 2, 6, 48, 0, 6, 6, 48, 2),
    ("particle", "blocking"): (12, 48, 247296, 8, 164864, 12, 2, 6, 48, 0, 0, 0, 0, 0),
    ("particle", "perpage"): (96, 48, 247296, 64, 164864, 12, 0, 0, 0, 48, 0, 0, 0, 0),
    ("particle", "nommat"): (96, 48, 247296, 64, 164864, 16, 0, 0, 0, 48, 0, 0, 0, 0),
}

NET_FIELDS = ("messages", "page_fetches", "bytes_moved", "bulk_fetches", "bulk_pages")

#: (app, backend, config) -> NET_FIELDS of the per-page protocol this
#: path replaced (identical for the pipe and shm data planes).
NET_BEFORE = {
    ("sgrid", "threads", "overlapped"): (32, 64, 5376, 8, 64),
    ("sgrid", "threads", "blocking"): (32, 64, 5376, 8, 64),
    ("sgrid", "threads", "perpage"): (144, 64, 6144, 0, 0),
    ("sgrid", "threads", "nommat"): (148, 64, 6144, 0, 0),
    ("sgrid", "process", "overlapped"): (36, 64, 15824, 8, 64),
    ("sgrid", "process", "blocking"): (36, 64, 15824, 8, 64),
    ("sgrid", "process", "perpage"): (148, 64, 20368, 0, 0),
    ("sgrid", "process", "nommat"): (152, 64, 21008, 0, 0),
    ("usgrid-c", "threads", "overlapped"): (32, 16, 1536, 8, 16),
    ("usgrid-c", "threads", "blocking"): (32, 16, 1536, 8, 16),
    ("usgrid-c", "threads", "perpage"): (48, 16, 1536, 0, 0),
    ("usgrid-c", "threads", "nommat"): (52, 16, 1536, 0, 0),
    ("usgrid-c", "process", "overlapped"): (36, 16, 9168, 8, 16),
    ("usgrid-c", "process", "blocking"): (36, 16, 9168, 8, 16),
    ("usgrid-c", "process", "perpage"): (52, 16, 9488, 0, 0),
    ("usgrid-c", "process", "nommat"): (56, 16, 10128, 0, 0),
    ("particle", "threads", "overlapped"): (24, 48, 248256, 6, 48),
    ("particle", "threads", "blocking"): (24, 48, 248256, 6, 48),
    ("particle", "threads", "perpage"): (108, 48, 248832, 0, 0),
    ("particle", "threads", "nommat"): (112, 48, 248832, 0, 0),
    ("particle", "process", "overlapped"): (28, 48, 254080, 6, 48),
    ("particle", "process", "blocking"): (28, 48, 254080, 6, 48),
    ("particle", "process", "perpage"): (112, 48, 257488, 0, 0),
    ("particle", "process", "nommat"): (116, 48, 258128, 0, 0),
}

#: Extra ``bytes_moved`` per per-page fetch now that it is a bulk
#: exchange: the 16-byte manifest entry, plus (process backend) the
#: 32 bytes by which the ``breq`` tuple's estimate exceeds the old
#: per-page request tuple's.
EXTRA_BYTES_PER_FALLBACK_PAGE = {"threads": 16, "process": 48}


def _run(app, transport, config):
    app_cls, app_config = APPS[app]
    backend, page_transport = TRANSPORTS[transport]
    overlap, comm_plans, mmat = CONFIGS[config]
    platform = Platform(
        aspects=mpi_aspects(
            2, backend=backend, page_transport=page_transport,
            comm_plans=comm_plans, overlap=overlap,
        ),
        mmat=mmat,
    )
    return platform.run(app_cls, config=dict(app_config))


def _available(transport):
    backend, page_transport = TRANSPORTS[transport]
    if not get_backend(backend).available():
        return False
    return page_transport != "shm" or shm_available()


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("transport", list(TRANSPORTS))
@pytest.mark.parametrize("app", list(APPS))
def test_exchange_counters_are_pinned(app, transport, config):
    if not _available(transport):
        pytest.skip(f"{transport} unavailable")
    run = _run(app, transport, config)
    counters = list(run.counters.values())
    totals = tuple(sum(getattr(c, name) for c in counters) for name in TASK_FIELDS)
    assert dict(zip(TASK_FIELDS, totals)) == dict(zip(TASK_FIELDS, TASK_EXPECTED[app, config]))

    backend = TRANSPORTS[transport][0]
    fallback = sum(c.comm_plan_fallback_pages for c in counters)
    messages, page_fetches, bytes_moved, bulk_fetches, bulk_pages = NET_BEFORE[
        app, backend, config
    ]
    expected_net = {
        "messages": messages,
        "page_fetches": page_fetches,
        "bytes_moved": bytes_moved + EXTRA_BYTES_PER_FALLBACK_PAGE[backend] * fallback,
        "bulk_fetches": bulk_fetches + fallback,
        "bulk_pages": bulk_pages + fallback,
    }
    assert {name: run.network[name] for name in NET_FIELDS} == expected_net
    # Every fetched page is now a bulk page.
    assert run.network["bulk_pages"] == run.network["page_fetches"]

    # The shm data plane carries every page, the one-page manifests too.
    shm = transport == "process-shm"
    pages = sum(c.pages_fetched for c in counters)
    nbytes = sum(c.bytes_fetched for c in counters)
    assert sum(c.shm_fetches for c in counters) == (pages if shm else 0)
    assert sum(c.shm_bytes for c in counters) == (nbytes if shm else 0)
    assert (run.network["shm_fetches"], run.network["shm_bytes"]) == (
        (pages, nbytes) if shm else (0, 0)
    )
