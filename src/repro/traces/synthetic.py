"""Synthetic workload generators.

Two families:

* Simple generators (:func:`uniform_workload`, :func:`sequential_workload`,
  :func:`zipf_workload`) used by unit tests and the FIO-style closed-loop
  benchmark (Section IV-B3 of the paper: Zipfian writes, alpha = 1.0001).

* A calibrated generator (:func:`footprint_workload`) that produces a trace
  matching target *footprint* statistics — unique read pages, unique write
  pages, their overlap, request counts and read ratio — which
  :mod:`repro.traces.workloads` uses to build stand-ins for the paper's
  Fin1/Fin2/Hm0/Web0 traces (Table I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .record import empty_records
from .trace import Trace


def _zipf_cdf(n: int, alpha: float) -> np.ndarray:
    """Cumulative Zipf(alpha) distribution over ranks 1..n."""
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def zipf_ranks(rng: np.random.Generator, n_samples: int, universe: int, alpha: float) -> np.ndarray:
    """Sample ``n_samples`` ranks in ``[0, universe)`` with Zipf(alpha) popularity."""
    if universe <= 0:
        raise ConfigError("universe must be positive")
    if alpha < 0:
        raise ConfigError("zipf alpha must be >= 0")
    if alpha == 0.0:
        return rng.integers(0, universe, size=n_samples)
    cdf = _zipf_cdf(universe, alpha)
    return np.searchsorted(cdf, rng.random(n_samples), side="left").astype(np.int64)


def _arrival_times(rng: np.random.Generator, n: int, iops: float) -> np.ndarray:
    """Poisson arrival process at the given mean request rate."""
    if iops <= 0:
        raise ConfigError("iops must be positive")
    gaps = rng.exponential(1.0 / iops, size=n)
    return np.cumsum(gaps)


def uniform_workload(
    n_requests: int,
    universe_pages: int,
    read_ratio: float = 0.5,
    iops: float = 1000.0,
    seed: int = 0,
    name: str = "uniform",
) -> Trace:
    """Uniformly random single-page accesses over ``universe_pages``."""
    if n_requests < 1:
        raise ConfigError(f"n_requests must be >= 1, got {n_requests}")
    if universe_pages < 1:
        raise ConfigError(f"universe_pages must be >= 1, got {universe_pages}")
    rng = np.random.default_rng(seed)
    rec = empty_records(n_requests)
    rec["time"] = _arrival_times(rng, n_requests, iops)
    rec["lba"] = rng.integers(0, universe_pages, size=n_requests).astype(np.uint64)
    rec["npages"] = 1
    rec["is_read"] = rng.random(n_requests) < read_ratio
    return Trace(rec, name=name)


def sequential_workload(
    n_requests: int,
    start_page: int = 0,
    npages_per_request: int = 8,
    read_ratio: float = 0.0,
    iops: float = 1000.0,
    seed: int = 0,
    name: str = "sequential",
) -> Trace:
    """A sequential scan, the classic full-stripe-write friendly pattern."""
    rng = np.random.default_rng(seed)
    rec = empty_records(n_requests)
    rec["time"] = _arrival_times(rng, n_requests, iops)
    rec["lba"] = (
        start_page + np.arange(n_requests, dtype=np.uint64) * npages_per_request
    )
    rec["npages"] = npages_per_request
    rec["is_read"] = rng.random(n_requests) < read_ratio
    return Trace(rec, name=name)


def zipf_workload(
    n_requests: int,
    universe_pages: int,
    alpha: float = 1.0001,
    read_ratio: float = 0.0,
    iops: float = 5000.0,
    seed: int = 0,
    name: str = "zipf",
) -> Trace:
    """FIO-style Zipfian workload (Section IV-B3).

    The paper's closed-loop benchmark writes a 1.6 GB working set out of a
    4 GB file with ``zipf`` distribution, alpha = 1.0001, 4 KB blocks, and
    read rates of 0/25/50/75 %.  Page popularity ranks are scattered over
    the address space so hot pages are not physically adjacent.
    """
    rng = np.random.default_rng(seed)
    ranks = zipf_ranks(rng, n_requests, universe_pages, alpha)
    page_of_rank = rng.permutation(universe_pages).astype(np.uint64)
    rec = empty_records(n_requests)
    rec["time"] = _arrival_times(rng, n_requests, iops)
    rec["lba"] = page_of_rank[ranks]
    rec["npages"] = 1
    rec["is_read"] = rng.random(n_requests) < read_ratio
    return Trace(rec, name=name)


@dataclass(frozen=True)
class FootprintSpec:
    """Target characteristics for a calibrated synthetic trace.

    Counts are in pages/requests (not thousands).  ``read_only_pages`` +
    ``shared_pages`` is the unique read footprint; ``write_only_pages`` +
    ``shared_pages`` is the unique write footprint (cf. Table I).
    """

    name: str
    read_only_pages: int
    write_only_pages: int
    shared_pages: int
    read_requests: int
    write_requests: int
    read_alpha: float = 0.9
    write_alpha: float = 0.9
    run_length: int = 16
    iops: float = 3000.0

    def __post_init__(self) -> None:
        if min(self.read_only_pages, self.write_only_pages, self.shared_pages) < 0:
            raise ConfigError("footprint page counts must be non-negative")
        if self.read_requests < self.unique_read_pages:
            raise ConfigError(
                f"{self.name}: read requests ({self.read_requests}) cannot cover "
                f"the read footprint ({self.unique_read_pages})"
            )
        if self.write_requests < self.unique_write_pages:
            raise ConfigError(
                f"{self.name}: write requests ({self.write_requests}) cannot cover "
                f"the write footprint ({self.unique_write_pages})"
            )

    @property
    def unique_read_pages(self) -> int:
        return self.read_only_pages + self.shared_pages

    @property
    def unique_write_pages(self) -> int:
        return self.write_only_pages + self.shared_pages

    @property
    def unique_pages(self) -> int:
        return self.read_only_pages + self.shared_pages + self.write_only_pages

    def scaled(self, factor: float) -> "FootprintSpec":
        """Uniformly scale footprint and request counts (for fast runs)."""
        if not 0 < factor < math.inf:
            raise ConfigError(
                f"scale factor must be positive and finite, got {factor}")

        def s(x: int) -> int:
            return max(1, int(round(x * factor)))

        return FootprintSpec(
            name=self.name,
            read_only_pages=s(self.read_only_pages),
            write_only_pages=s(self.write_only_pages),
            shared_pages=s(self.shared_pages),
            read_requests=s(self.read_requests),
            write_requests=s(self.write_requests),
            read_alpha=self.read_alpha,
            write_alpha=self.write_alpha,
            run_length=self.run_length,
            iops=self.iops,
        )


def _clustered_layout(
    rng: np.random.Generator, n_pages: int, run_length: int
) -> np.ndarray:
    """Map footprint indices 0..n-1 to LBAs laid out in contiguous runs.

    Runs of ``run_length`` pages are placed in a shuffled order with random
    gaps, giving the trace stripe-level spatial locality (consecutive
    footprint indices usually share a RAID stripe) without making the whole
    footprint one sequential extent.
    """
    n_runs = -(-n_pages // run_length)
    # Each run occupies run_length pages plus a random gap of 0..3 runs.
    gaps = rng.integers(0, 4, size=n_runs)
    run_starts = np.cumsum((gaps + 1) * run_length) - run_length
    order = rng.permutation(n_runs)
    lbas = np.empty(n_pages, dtype=np.uint64)
    for i in range(n_runs):
        start = i * run_length
        stop = min(start + run_length, n_pages)
        base = run_starts[order[i]]
        lbas[start:stop] = base + np.arange(stop - start, dtype=np.uint64)
    return lbas


def _cover_missing(
    rng: np.random.Generator, samples: np.ndarray, universe: int
) -> np.ndarray:
    """Force every value in [0, universe) to appear at least once.

    Pages the Zipf sampler never hit are written over uniformly random
    positions, preserving the overall mixing of the stream while meeting
    the unique-page target exactly.
    """
    counts = np.bincount(samples, minlength=universe)
    missing = np.flatnonzero(counts == 0)
    if missing.size == 0:
        return samples
    if missing.size > samples.size - np.count_nonzero(counts):
        raise ConfigError("not enough requests to cover the footprint")
    samples = samples.copy()
    # Overwrite positions holding the most-duplicated pages first so no
    # page's count ever drops to zero (which would reopen a gap).
    order = np.argsort(-counts[samples], kind="stable")
    pos_iter = iter(order)
    for page in rng.permutation(missing):
        for pos in pos_iter:
            victim = samples[pos]
            if counts[victim] >= 2:
                counts[victim] -= 1
                counts[page] += 1
                samples[pos] = page
                break
        else:  # pragma: no cover - guarded by the size check above
            raise ConfigError("not enough requests to cover the footprint")
    return samples


def footprint_workload(spec: FootprintSpec, seed: int = 0) -> Trace:
    """Generate a trace matching ``spec`` exactly on footprint statistics.

    Reads draw Zipf(``read_alpha``) over the read footprint, writes draw
    Zipf(``write_alpha``) over the write footprint; the two footprints
    overlap in ``shared_pages`` pages.  Every footprint page is touched at
    least once, so :meth:`Trace.stats` reproduces the spec's Table I row.
    """
    rng = np.random.default_rng(seed)

    layout = _clustered_layout(rng, spec.unique_pages, spec.run_length)
    # Footprint index space: [0, shared) shared, then read-only, then write-only.
    shared = np.arange(spec.shared_pages, dtype=np.int64)
    read_idx = np.concatenate(
        [shared, spec.shared_pages + np.arange(spec.read_only_pages, dtype=np.int64)]
    )
    wo_base = spec.shared_pages + spec.read_only_pages
    write_idx = np.concatenate(
        [shared, wo_base + np.arange(spec.write_only_pages, dtype=np.int64)]
    )
    # Popularity rank -> footprint member, independently shuffled per op
    # so read-hot and write-hot sets differ (as in real mixed workloads).
    read_members = rng.permutation(read_idx)
    write_members = rng.permutation(write_idx)

    def _op_pages(n_req: int, members: np.ndarray, alpha: float) -> np.ndarray:
        if n_req == 0 or len(members) == 0:
            return np.empty(0, dtype=np.uint64)
        ranks = zipf_ranks(rng, n_req, len(members), alpha)
        ranks = _cover_missing(rng, ranks, len(members))
        return layout[members[ranks]]

    r_pages = _op_pages(spec.read_requests, read_members, spec.read_alpha)
    w_pages = _op_pages(spec.write_requests, write_members, spec.write_alpha)

    n = spec.read_requests + spec.write_requests
    is_read = np.zeros(n, dtype=bool)
    is_read[rng.choice(n, size=spec.read_requests, replace=False)] = True

    rec = empty_records(n)
    rec["time"] = _arrival_times(rng, n, spec.iops)
    rec["npages"] = 1
    rec["is_read"] = is_read
    lba = np.empty(n, dtype=np.uint64)
    lba[is_read] = r_pages
    lba[~is_read] = w_pages
    rec["lba"] = lba
    return Trace(rec, name=spec.name)
