"""The benchmark's workloads: inputs made from a seed, references, checks.

Every workload runs one DSL application on
``Platform.preset("mpi", ranks=2, backend="process", mmat=True,
tracing=False)`` with every other knob at its default.  The seed sets
the inputs:

* ``sgrid-jacobi-p2`` — the coefficients of the smooth initial field;
* ``usgrid-caser-p2`` — the CaseR ``layout_seed`` and the initial field;
* ``particle-p2`` — nothing: particle placement is an unseeded lattice
  (the DSL places particles deterministically), so every seed gives the
  same particles.

References are computed once per process, outside any timed region.
SGrid uses the vectorized five-point Jacobi below (the per-element
``HandwrittenSGrid`` takes about a minute at this size); USGrid and
Particle use the handwritten serial apps.  A sample passes when rank 0's
owned part of the result equals the reference within ``ATOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict

import numpy as np

from repro.apps import (
    HandwrittenParticle,
    HandwrittenUSGrid,
    JacobiSGrid,
    JacobiUSGrid,
    ParticleSimulation,
)

__all__ = ["ATOL", "DEFAULT_SEED", "HELD_OUT_SEED", "WORKLOADS", "Workload", "smooth_init"]

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed kept back for checking a claimed gain on inputs it was not tuned on.
HELD_OUT_SEED = 2
#: Absolute tolerance of the correctness check (as the parallel
#: correctness integration tests use).
ATOL = 1e-10

#: Jacobi coefficients (the apps' defaults).
ALPHA = 0.2
BETA = 0.2


def smooth_init(seed: int, region: int) -> Callable[[int, int], float]:
    """A seeded smooth field ``(x, y) -> float`` on a ``region``² grid.

    Two separable sine modes with seeded amplitudes and wave numbers.
    The mode values are tabulated once, so one call costs two list
    lookups per mode (the DSLs call it once per grid point).
    """
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.5, 1.5, size=2)
    waves = rng.integers(1, 4, size=(2, 2))
    coords = np.arange(region) + 1.0
    scale = math.pi / (region + 1)
    tables = [
        (
            (amps[m] * np.sin(waves[m, 0] * scale * coords)).tolist(),
            np.sin(waves[m, 1] * scale * coords).tolist(),
        )
        for m in range(2)
    ]
    (ax, ay), (bx, by) = tables

    def init(x: int, y: int) -> float:
        return ax[x] * ay[y] + bx[x] * by[y]

    return init


def _field(init: Callable[[int, int], float], region: int) -> np.ndarray:
    return np.array([[init(x, y) for y in range(region)] for x in range(region)])


def jacobi_sgrid_reference(initial: np.ndarray, steps: int) -> np.ndarray:
    """Five-point Jacobi on ``field[x, y]`` with a zero Dirichlet ring.

    Same update as ``JacobiSGrid``: ``alpha*e + beta*(e_e + e_w + e_s + e_n)``
    with north ``(x, y-1)``, west ``(x-1, y)``, east ``(x+1, y)`` and south
    ``(x, y+1)``.
    """
    padded = np.zeros((initial.shape[0] + 2, initial.shape[1] + 2))
    padded[1:-1, 1:-1] = initial
    for _ in range(steps):
        e = padded[1:-1, 1:-1]
        e_n = padded[1:-1, :-2]
        e_w = padded[:-2, 1:-1]
        e_e = padded[2:, 1:-1]
        e_s = padded[1:-1, 2:]
        padded[1:-1, 1:-1] = ALPHA * e + BETA * (e_e + e_w + e_s + e_n)
    return padded[1:-1, 1:-1].copy()


def grid_matches(result: Any, reference: np.ndarray) -> bool:
    """Rank 0's NaN-masked owned region equals the reference."""
    result = np.asarray(result, dtype=np.float64)
    if result.shape != reference.shape:
        return False
    mask = ~np.isnan(result)
    if not mask.any():
        return False
    return bool(np.allclose(result[mask], reference[mask], rtol=0.0, atol=ATOL))


def particles_match(result: Any, reference: np.ndarray) -> bool:
    """Rank 0's particles (matched by id) equal the reference rows."""
    result = np.asarray(result, dtype=np.float64)
    if result.ndim != 2 or result.shape[1] != 7 or len(result) == 0:
        return False
    rows = {row[0]: row for row in reference}
    if any(row[0] not in rows for row in result):
        return False
    expected = np.array([rows[row[0]] for row in result])
    return bool(np.allclose(result, expected, rtol=0.0, atol=ATOL))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an app, its sizes and its check."""

    name: str
    why: str
    app: type
    #: (seed, smoke) -> app config
    config: Callable[[int, bool], Dict[str, Any]]
    #: app config -> reference result
    reference: Callable[[Dict[str, Any]], np.ndarray]
    #: (rank 0 result, reference) -> passed
    check: Callable[[Any, np.ndarray], bool]


def _sgrid_config(seed: int, smoke: bool) -> Dict[str, Any]:
    region, block, page, loops = (64, 16, 64, 12) if smoke else (512, 64, 256, 100)
    return dict(
        region=region,
        block_size=block,
        page_elements=page,
        loops=loops,
        init=smooth_init(seed, region),
    )


def _sgrid_reference(config: Dict[str, Any]) -> np.ndarray:
    return jacobi_sgrid_reference(_field(config["init"], config["region"]), config["loops"])


def _usgrid_config(seed: int, smoke: bool) -> Dict[str, Any]:
    region, cells, page, loops = (32, 128, 16, 12) if smoke else (128, 1024, 64, 20)
    return dict(
        case="R",
        region=region,
        block_cells=cells,
        page_elements=page,
        loops=loops,
        layout_seed=seed,
        init=smooth_init(seed, region),
    )


def _usgrid_reference(config: Dict[str, Any]) -> np.ndarray:
    return HandwrittenUSGrid(
        config["region"],
        case=config["case"],
        loops=config["loops"],
        layout_seed=config["layout_seed"],
        init=config["init"],
        alpha=ALPHA,
        beta=BETA,
    ).run()


def _particle_config(seed: int, smoke: bool) -> Dict[str, Any]:
    if smoke:
        return dict(particles=256, block_buckets=4, page_elements=4, loops=12, dt=1e-3)
    return dict(particles=4096, loops=10, dt=1e-3)


def _particle_reference(config: Dict[str, Any]) -> np.ndarray:
    return HandwrittenParticle(
        config["particles"],
        block_buckets=config.get("block_buckets", 8),
        loops=config["loops"],
        dt=config["dt"],
    ).run()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sgrid-jacobi-p2",
            "SGrid Jacobi 512x512, 100 steps: steady state dominated by the runtime layer "
            "(allreduce, barrier, halo wait) beside the fused sweep; offsets-plan compile in set-up",
            JacobiSGrid,
            _sgrid_config,
            _sgrid_reference,
            grid_matches,
        ),
        Workload(
            "usgrid-caser-p2",
            "USGrid CaseR 128x128, 20 steps: set-up is mostly address-plan compile; steps run "
            "the unfused gather_global path and move scattered remote pages",
            JacobiUSGrid,
            _usgrid_config,
            _usgrid_reference,
            grid_matches,
        ),
        Workload(
            "particle-p2",
            "Particle 4096 particles, 10 steps: control where the app's NumPy pair "
            "interaction dominates each step; compile and comm changes should not move it",
            ParticleSimulation,
            _particle_config,
            _particle_reference,
            particles_match,
        ),
    )
}
