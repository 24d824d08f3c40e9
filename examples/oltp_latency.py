#!/usr/bin/env python
"""OLTP latency scenario: what does KDD buy a transaction system?

Models the paper's prototype experiment (Section IV-B) at laptop scale:
a 5-disk RAID-5 with an SSD cache serving an OLTP-style workload
(calibrated to the Fin1 trace), replayed open-loop near the array's
saturation point.  Prints per-policy mean/percentile response times —
the paper's Figure 9.

Run:  python examples/oltp_latency.py
"""

from repro.cache import CacheConfig
from repro.engine import SimEngine
from repro.harness import build_policy, make_raid_for_trace, render_table
from repro.sim import replay_trace
from repro.traces import make_workload, workload_spec

SCALE = 0.003
TARGET_IOPS = 120.0  # keep the 5-disk array busy but not collapsing


def main() -> None:
    trace = make_workload("Fin1", scale=SCALE)
    spec = workload_spec("Fin1", SCALE)
    time_scale = spec.iops / TARGET_IOPS
    cache_pages = int(trace.stats().unique_pages * 0.10)
    print(
        f"replaying {len(trace):,} requests at ~{TARGET_IOPS:.0f} IOPS "
        f"against RAID-5 (5 disks) + {cache_pages:,}-page SSD cache\n"
    )

    rows = []
    baseline_ms = None
    for policy in ("nossd", "wa", "wt", "leavo", "kdd"):
        raid = make_raid_for_trace(trace)
        config = CacheConfig(cache_pages=cache_pages, mean_compression=0.25, seed=1)
        system = SimEngine(build_policy(policy, config, raid))
        rep = replay_trace(system, trace, max_requests=10_000, time_scale=time_scale)
        if policy == "nossd":
            baseline_ms = rep.mean_response_ms
        rows.append(
            {
                "policy": policy,
                "mean_ms": f"{rep.mean_response_ms:.2f}",
                "p95_ms": f"{rep.latency.p95 * 1e3:.2f}",
                "p99_ms": f"{rep.latency.p99 * 1e3:.2f}",
                "vs_nossd": f"{100 * (1 - rep.mean_response_ms / baseline_ms):+.1f}%",
            }
        )
    print(render_table(rows))
    print(
        "\nKDD serves write hits with a single member write (no parity"
        "\nread-modify-write on the critical path), which is where the"
        "\nlatency reduction over Nossd/WT/WA comes from."
    )


if __name__ == "__main__":
    main()
