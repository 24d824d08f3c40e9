"""Closed-loop benchmark driver (the FIO experiment, Section IV-B3).

``nthreads`` workers each keep exactly one request outstanding: a new
request is generated the moment the previous one completes, bounding
the queue to the thread count.  Block popularity is Zipfian
(alpha = 1.0001 in the paper) over a working set larger than the cache,
with a configurable read rate (0-100 %).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..engine import SimEngine, TimingReport
from ..errors import ConfigError, SimulationError, raises
from ..traces.synthetic import _zipf_cdf


@dataclass(frozen=True)
class FioConfig:
    """FIO-like synthetic workload parameters (paper defaults)."""

    total_requests: int = 20_000
    working_set_pages: int = 400_000  # 1.6 GB of 4 KiB pages
    zipf_alpha: float = 1.0001
    read_rate: float = 0.0
    nthreads: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_rate <= 1.0:
            raise ConfigError("read_rate must be in [0, 1]")
        if self.nthreads < 1 or self.total_requests < 1:
            raise ConfigError("nthreads and total_requests must be >= 1")
        if self.working_set_pages < 1:
            raise ConfigError("working_set_pages must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@raises(SimulationError)
def run_closed_loop(system: SimEngine, config: FioConfig) -> TimingReport:
    """Drive ``system`` with ``nthreads`` back-to-back request streams."""
    rng = np.random.default_rng(config.seed)
    cdf = _zipf_cdf(config.working_set_pages, config.zipf_alpha)
    page_of_rank = rng.permutation(config.working_set_pages)

    # Pre-draw the request stream (rank -> scattered page, read/write mix).
    ranks = np.searchsorted(cdf, rng.random(config.total_requests), side="left")
    pages = page_of_rank[ranks]
    is_read = rng.random(config.total_requests) < config.read_rate

    # Each thread issues its next request when its previous one completes.
    # This driver is a workload *source* over the engine: it owns the
    # thread-availability heap (ties break by thread id, part of the
    # pinned numerics) and submits in global arrival order; the engine
    # owns all device timing.
    threads = [(0.0, tid) for tid in range(config.nthreads)]
    heapq.heapify(threads)
    end_time = 0.0
    for i in range(config.total_requests):
        available, tid = heapq.heappop(threads)
        completion = system.submit(int(pages[i]), 1, bool(is_read[i]), available)
        end_time = max(end_time, completion)
        heapq.heappush(threads, (completion, tid))
    system.policy.finish()
    return system.report(
        workload=f"fio-zipf-r{int(config.read_rate * 100)}",
        duration=max(end_time, 1e-9),
    )
