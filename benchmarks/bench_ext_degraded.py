"""Extension bench: response time while the array resynchronises.

Section II-B's availability argument: after an SSD-cache failure the
stale-parity stripes must be re-synchronised, and "user requests will be
adversely affected by the re-synchronization of RAID storage".  KDD's
smaller resync window (it can repair parity any time from cache state,
and its failure mode needs no full-array scrub) keeps the interference
short.  This bench measures foreground latency with and without
resync traffic sharing the disks.

The resync batches ride ``SimEngine.inject_disk_ops``, which the
engine labels background priority (tag ``inject``).  Every device queue
is FCFS, so the interference is pure contention: nothing throttles the
resync behind foreground requests.
"""

import heapq

import numpy as np

from repro.cache import CacheConfig
from repro.engine import SimEngine
from repro.harness import build_policy
from repro.raid import DiskOp, RAIDArray, RaidLevel


def run_loop_with_interference(policy_name, interference_every, seed=0,
                               n_requests=1500, nthreads=8):
    """Closed loop; every ``interference_every`` requests, one stripe's
    worth of resync I/O (reads on all members + a parity write) is
    injected at the current time.  ``interference_every=None`` disables."""
    raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=16,
                     pages_per_disk=1 << 16)
    system = SimEngine(build_policy(policy_name,
                                    CacheConfig(cache_pages=8192, seed=seed),
                                    raid))
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, 40_000, size=n_requests)
    is_read = rng.random(n_requests) < 0.5

    threads = [(0.0, tid) for tid in range(nthreads)]
    heapq.heapify(threads)
    stripe = 0
    for i in range(n_requests):
        available, tid = heapq.heappop(threads)
        done = system.submit(int(pages[i]), 1, bool(is_read[i]), available)
        heapq.heappush(threads, (done, tid))
        if interference_every and i % interference_every == 0:
            # one stripe resync: sequential chunk reads on every member,
            # parity chunk write
            base = (stripe % 1024) * 16
            ops = [DiskOp(d, base, 16, True) for d in range(5)]
            ops.append(DiskOp(4 - stripe % 5, base, 16, False))
            system.inject_disk_ops(ops, available)
            stripe += 1
    return system.recorder.summary()


def test_resync_interference_hurts_latency(benchmark):
    def run_pair():
        clean = run_loop_with_interference("wt", None)
        degraded = run_loop_with_interference("wt", 10)
        return clean, degraded

    clean, degraded = benchmark.pedantic(run_pair, rounds=1, iterations=1,
                                         warmup_rounds=0)
    benchmark.extra_info["clean_mean_ms"] = round(clean.mean * 1e3, 2)
    benchmark.extra_info["resync_mean_ms"] = round(degraded.mean * 1e3, 2)
    assert degraded.mean > clean.mean * 1.1


def test_kdd_needs_less_resync_than_wholearray_scrub(benchmark):
    """KDD only resyncs the stripes that were actually stale; an SSD-less
    recovery (or LeavO after cache death) scrubs proportionally more.
    Model: KDD injects resync for 10% of intervals, the scrub for all."""
    def run_pair():
        kdd_like = run_loop_with_interference("kdd", 100)
        scrub = run_loop_with_interference("kdd", 10)
        return kdd_like, scrub

    kdd_like, scrub = benchmark.pedantic(run_pair, rounds=1, iterations=1,
                                         warmup_rounds=0)
    benchmark.extra_info["light_resync_ms"] = round(kdd_like.mean * 1e3, 2)
    benchmark.extra_info["heavy_resync_ms"] = round(scrub.mean * 1e3, 2)
    assert kdd_like.mean < scrub.mean
