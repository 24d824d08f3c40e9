"""Multi-stream request driver with bounded online metrics.

:class:`ServeDriver` pulls epoch batches from a
:class:`~repro.serve.composer.WorkloadComposer` and routes each request
to its tenant's cache policy inside a
:class:`~repro.cache.partition.PartitionedCache` (or runs metrics-only
when no cache is attached — the composition/metrics scaling path).

All online state is O(1) in the number of requests: per-tenant counters
are fixed arrays, throughput and inter-arrival quantiles are streaming
estimators, and :class:`ServeMetrics` freezes its byte footprint at
construction and asserts it never grows.
"""

from __future__ import annotations

import numpy as np

from ..cache.base import counter_sinks
from ..cache.partition import PartitionedCache
from ..contracts import columnar
from ..errors import ConfigError, SimulationError, raises
from ..stats.streaming import StreamingQuantiles, WindowedThroughput
from .composer import ComposedBatch, WorkloadComposer

__all__ = ["ServeDriver", "ServeMetrics", "ServeReport", "jain_fairness"]


def jain_fairness(values) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one winner."""
    vals = list(values)
    if not vals:
        return 1.0
    total = sum(vals)
    squares = sum(v * v for v in vals)
    if squares <= 0.0:
        return 1.0
    return total * total / (len(vals) * squares)


class ServeMetrics:
    """Fixed-footprint online metrics over the composed stream.

    The byte budget is frozen at construction; :meth:`assert_bounded`
    re-measures and raises if any component grew, which is what lets a
    million-request run *prove* its metric state stayed O(1).
    """

    def __init__(
        self,
        n_tenants: int,
        window_s: float = 60.0,
        gap_stride: int = 64,
    ) -> None:
        if n_tenants < 1:
            raise ConfigError(
                f"ServeMetrics.n_tenants must be >= 1, got {n_tenants}"
            )
        if gap_stride < 1:
            raise ConfigError(
                f"ServeMetrics.gap_stride must be >= 1, got {gap_stride}"
            )
        self.accesses = np.zeros(n_tenants, dtype=np.int64)
        self.reads = np.zeros(n_tenants, dtype=np.int64)
        self.throughput = WindowedThroughput(window_s)
        # P² updates are scalar; a deterministic stride subsample of the
        # inter-arrival gaps keeps million-request batches array-at-a-time
        # while the estimate tracks the same distribution.
        self.gap_quantiles = StreamingQuantiles((0.5, 0.95, 0.99))
        self._gap_stride = gap_stride
        self._last_time = 0.0
        self._seen_any = False
        self.budget_bytes = self.state_bytes()

    def state_bytes(self) -> int:
        return (
            int(self.accesses.nbytes)
            + int(self.reads.nbytes)
            + self.throughput.state_bytes()
            + self.gap_quantiles.state_bytes()
            + 4 * 8
        )

    @raises(SimulationError)
    @columnar(dtypes={"gaps": "float64"})
    def observe_batch(self, batch: ComposedBatch) -> None:
        n = len(self.accesses)
        self.accesses += np.bincount(batch.tenant, minlength=n)
        self.reads += np.bincount(
            batch.tenant[batch.is_read], minlength=n
        )
        self.throughput.observe_batch(batch.times)
        times = batch.times
        if self._seen_any:
            gaps = np.diff(times, prepend=self._last_time)
        else:
            gaps = np.diff(times)
        self.gap_quantiles.add_many(gaps[:: self._gap_stride])
        if len(times):
            self._last_time = float(times[-1])
            self._seen_any = True

    @raises(SimulationError)
    def assert_bounded(self) -> None:
        now = self.state_bytes()
        if now > self.budget_bytes:
            raise SimulationError(
                f"online metric state grew: {now} bytes exceeds the frozen "
                f"budget of {self.budget_bytes}"
            )

    def summary(self) -> dict[str, float]:
        thr = self.throughput.summary()
        gaps = self.gap_quantiles.summary()
        return {
            "requests": int(self.accesses.sum()),
            "throughput_mean_per_s": round(thr["mean_per_s"], 3),
            "throughput_peak_per_s": round(thr["peak_per_s"], 3),
            "gap_p50_ms": round(gaps["p50"] * 1e3, 4),
            "gap_p95_ms": round(gaps["p95"] * 1e3, 4),
            "gap_p99_ms": round(gaps["p99"] * 1e3, 4),
            "state_bytes": self.state_bytes(),
        }


class ServeReport:
    """Outcome of one serve run: aggregate + per-tenant views."""

    def __init__(
        self,
        label: str,
        metrics: ServeMetrics,
        cache: PartitionedCache | None,
        tenant_ids: tuple[str, ...],
    ) -> None:
        self.label = label
        self.metrics = metrics
        self.cache = cache
        self.tenant_ids = tenant_ids

    def tenant_rows(self) -> list[dict]:
        """Per-tenant fairness/endurance columns, one row per tenant."""
        rows = []
        for i, tenant_id in enumerate(self.tenant_ids):
            row: dict = {
                "tenant": tenant_id,
                "accesses": int(self.metrics.accesses[i]),
                "reads": int(self.metrics.reads[i]),
            }
            if self.cache is not None:
                policy = self.cache.policies[i]
                quota = self.cache.quotas[i]
                row["quota_pages"] = quota
                row["hit_ratio"] = round(policy.stats.hit_ratio, 4)
                row["hit_density"] = round(
                    policy.stats.hits / quota if quota else 0.0, 4
                )
                row["ssd_writes"] = policy.stats.ssd_writes
                if policy.ssd is not None:
                    row["waf"] = round(policy.ssd.write_amplification, 3)
            rows.append(row)
        return rows

    def row(self) -> dict:
        """Flat aggregate row (JSON-normalizable, sweep/bench shape)."""
        out: dict = {"label": self.label, "tenants": len(self.tenant_ids)}
        out.update(self.metrics.summary())
        if self.cache is not None:
            stats = self.cache.combined_stats()
            out["hit_ratio"] = round(stats.hit_ratio, 4)
            out["ssd_writes"] = stats.ssd_writes
            hit_ratios = [
                p.stats.hit_ratio
                for p in self.cache.policies
                if p.stats.accesses
            ]
            out["fairness_jain"] = round(jain_fairness(hit_ratios), 4)
            out["min_tenant_hit_ratio"] = round(
                min(hit_ratios, default=0.0), 4
            )
            out["max_tenant_hit_ratio"] = round(
                max(hit_ratios, default=0.0), 4
            )
            wafs = [
                p.ssd.write_amplification
                for p in self.cache.policies
                if p.ssd is not None
            ]
            if wafs:
                out["waf_mean"] = round(sum(wafs) / len(wafs), 3)
            out.update(self.cache.realloc.row())
        return out


class ServeDriver:
    """Runs a composed workload against a partitioned cache."""

    def __init__(
        self,
        composer: WorkloadComposer,
        cache: PartitionedCache | None = None,
        label: str = "serve",
        window_s: float = 60.0,
        gap_stride: int = 64,
    ) -> None:
        if cache is not None and len(cache.policies) != composer.n_tenants:
            raise ConfigError(
                f"ServeDriver: composer has {composer.n_tenants} tenants "
                f"but the cache is partitioned {len(cache.policies)} ways"
            )
        self.composer = composer
        self.cache = cache
        self.label = label
        self.metrics = ServeMetrics(
            composer.n_tenants, window_s=window_s, gap_stride=gap_stride
        )

    @raises(SimulationError)
    def run(
        self,
        duration_s: float | None = None,
        max_requests: int | None = None,
    ) -> ServeReport:
        """Drive the stream to completion and return the report.

        Requests are routed strictly in composed arrival order (no
        per-tenant batching): dynamic reallocation boundaries fall at
        exact global access counts, keeping runs reproducible across
        epoch and batch sizing.  The report holds counter totals only,
        so tenants' RAID data I/O runs under
        :func:`~repro.cache.base.counter_sinks`.
        """
        cache = self.cache
        metrics = self.metrics
        with counter_sinks(cache.policies if cache is not None else ()):
            for batch in self.composer.compose(
                duration_s=duration_s, max_requests=max_requests
            ):
                metrics.observe_batch(batch)
                metrics.assert_bounded()
                if cache is not None:
                    access = cache.access
                    tenants = batch.tenant.tolist()
                    lbas = batch.lba.tolist()
                    reads = batch.is_read.tolist()
                    for i in range(len(lbas)):
                        access(tenants[i], lbas[i], reads[i])
            if cache is not None:
                cache.finish()
        metrics.assert_bounded()
        return ServeReport(
            label=self.label,
            metrics=metrics,
            cache=cache,
            tenant_ids=tuple(s.tenant_id for s in self.composer.tenants),
        )
