#!/usr/bin/env python
"""Op-level instrumentation: what is each device actually doing?

Installs :class:`repro.engine.InstrumentationHook` on a fault-injected
timed system and replays a synthetic workload.  The hook observes every
device operation the engine schedules — foreground member reads,
read-modify-write phases, background fills, degraded reconstruction and
repair traffic — and derives:

* a per-op JSONL trace (``op-trace.jsonl``): device, kind, request
  phase tag, submitted/start/finish timestamps, queue delay, residual
  fault and retry count per line;
* per-device queue-delay statistics and queue-depth histograms;
* a per-device utilisation timeline (busy fraction per time slice,
  fault stalls included).

Run:  python examples/op_trace.py
"""

from repro.cache import CacheConfig
from repro.engine import FaultPipelineHook, InstrumentationHook, SimEngine
from repro.faults import FaultConfig
from repro.harness import build_policy, render_table
from repro.raid import RAIDArray, RaidLevel
from repro.sim import replay_trace
from repro.traces import uniform_workload

OUT = "op-trace.jsonl"


def main() -> None:
    raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=4,
                     pages_per_disk=4096)
    policy = build_policy(
        "kdd", CacheConfig(cache_pages=256, mean_compression=0.25, seed=1),
        raid,
    )
    system = SimEngine(policy)
    system.add_hook(FaultPipelineHook(
        FaultConfig(seed=7, ure_rate=0.005, timeout_rate=0.01),
        retry="backoff",
    ))
    instrument = InstrumentationHook()
    system.add_hook(instrument)

    rep = replay_trace(system, uniform_workload(500, 4096, read_ratio=0.6,
                                                seed=7))
    nops = instrument.write_jsonl(OUT)
    print(f"{rep.requests} requests -> {nops} device ops "
          f"(mean response {rep.mean_response_ms:.2f} ms); trace in {OUT}\n")

    rows = []
    depth = instrument.queue_depth_histogram()
    for device, stats in instrument.queue_delay_stats().items():
        rows.append({
            "device": device,
            "ops": int(stats["ops"]),
            "mean_queue_ms": f"{stats['mean_queue_delay'] * 1e3:.3f}",
            "max_queue_ms": f"{stats['max_queue_delay'] * 1e3:.3f}",
            "max_depth_seen": max(depth[device], default=0),
        })
    print(render_table(rows))

    print("\nutilisation timeline (busy fraction per tenth of the run):")
    for device, frac in instrument.utilisation_timeline(rep.duration,
                                                        bins=10).items():
        bar = " ".join(f"{f:.2f}" for f in frac)
        print(f"  {device:6s} {bar}")
    print(
        "\nQueue delay separates device speed from contention: an op that"
        "\nwaited is queued behind earlier traffic (including rebuild or"
        "\nrepair I/O), not slow media.  Fault stalls count as busy time."
    )


if __name__ == "__main__":
    main()
