"""Multi-tenant serving layer: composition, isolation, partitioning.

The load-bearing properties:

* composition is deterministic and order-free — every (tenant, epoch)
  cell re-derives its sha256 substream, so composing twice is
  byte-identical and a tenant's subsequence is independent of who else
  rides along;
* static partitioning gives *exact* isolation — a tenant behaves as if
  it ran its own trace alone on a cache of its quota size;
* dynamic reallocation beats the static split under diurnal churn;
* serve sweep rows are byte-identical for any jobs count;
* a million-request, thousand-tenant run keeps online metric state
  within the byte budget frozen at construction.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, PartitionPlan, PartitionedCache
from repro.errors import ConfigError
from repro.harness.runner import build_policy
from repro.harness.servesweep import _make_raid, run_serve_cell, serve_cell
from repro.harness.sweep import SweepEngine
from repro.serve import (
    ServeDriver,
    TenantSpec,
    WorkloadComposer,
    jain_fairness,
    make_tenant_fleet,
    substream_seed,
)


def small_fleet(n=3, universe=512, **kwargs):
    kwargs.setdefault("base_iops", 20.0)
    return make_tenant_fleet(n, universe_pages=universe, **kwargs)


def collect(composer, **bounds):
    batches = list(composer.compose(**bounds))
    if not batches:
        return (np.empty(0), np.empty(0, np.int32),
                np.empty(0, np.uint64), np.empty(0, bool))
    return (np.concatenate([b.times for b in batches]),
            np.concatenate([b.tenant for b in batches]),
            np.concatenate([b.lba for b in batches]),
            np.concatenate([b.is_read for b in batches]))


class TestTenantSpecValidation:
    def test_zipf_alpha_must_be_positive(self):
        with pytest.raises(ConfigError, match="zipf_alpha"):
            TenantSpec(tenant_id="t0", universe_pages=64, zipf_alpha=0.0)

    def test_read_ratio_range(self):
        with pytest.raises(ConfigError, match="read_ratio"):
            TenantSpec(tenant_id="t0", universe_pages=64, read_ratio=1.5)

    def test_amplitude_range(self):
        with pytest.raises(ConfigError, match="diurnal_amplitude"):
            TenantSpec(tenant_id="t0", universe_pages=64,
                       diurnal_amplitude=1.0)

    def test_burst_factor_floor(self):
        with pytest.raises(ConfigError, match="burst_factor"):
            TenantSpec(tenant_id="t0", universe_pages=64, burst_factor=0.5)

    def test_universe_must_be_positive(self):
        with pytest.raises(ConfigError, match="universe_pages"):
            TenantSpec(tenant_id="t0", universe_pages=0)


class TestComposerValidation:
    def test_zero_tenants_rejected(self):
        with pytest.raises(ConfigError, match="tenant"):
            WorkloadComposer([], seed=0)

    def test_duplicate_tenant_ids_rejected(self):
        spec = TenantSpec(tenant_id="dup", universe_pages=64)
        with pytest.raises(ConfigError, match="dup"):
            WorkloadComposer([spec, spec], seed=0)

    def test_compose_needs_a_bound(self):
        composer = WorkloadComposer(small_fleet(), seed=0)
        with pytest.raises(ConfigError,
                           match="duration_s / max_requests"):
            list(composer.compose())

    def test_tenant_trace_duration_validated(self):
        composer = WorkloadComposer(small_fleet(), seed=0)
        with pytest.raises(ConfigError, match="duration_s"):
            composer.tenant_trace("t0000", 0.0)
        with pytest.raises(ConfigError,
                           match="positive and finite, got inf"):
            composer.tenant_trace("t0000", float("inf"))


class TestSubstreamSeeds:
    def test_distinct_per_tenant_and_composer_seed(self):
        seeds = {substream_seed(s, f"t{i:04d}")
                 for s in range(4) for i in range(64)}
        assert len(seeds) == 4 * 64

    def test_stable_value(self):
        assert substream_seed(0, "t0000") == substream_seed(0, "t0000")


class TestCompositionDeterminism:
    def test_compose_twice_is_byte_identical(self):
        fleet = small_fleet(diurnal_amplitude=0.5, diurnal_period_s=600.0,
                            burst_prob=0.1, burst_factor=3.0)
        a = collect(WorkloadComposer(fleet, seed=7), duration_s=300.0)
        b = collect(WorkloadComposer(fleet, seed=7), duration_s=300.0)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_batches_are_time_ordered(self):
        composer = WorkloadComposer(small_fleet(), seed=3)
        times, _, _, _ = collect(composer, duration_s=300.0)
        assert np.all(np.diff(times) >= 0.0)

    def test_max_requests_truncates_exactly(self):
        composer = WorkloadComposer(small_fleet(), seed=3)
        times, _, _, _ = collect(composer, max_requests=500)
        assert len(times) == 500

    def test_tenant_regions_disjoint_and_aligned(self):
        fleet = small_fleet(n=4, universe=100)
        composer = WorkloadComposer(fleet, seed=0)
        bases = [composer.tenant_base(s.tenant_id) for s in fleet]
        assert all(b % 64 == 0 for b in bases)
        _, tenants, lbas, _ = collect(composer, duration_s=120.0)
        for i in range(4):
            mine = lbas[tenants == i]
            assert np.all(mine >= bases[i])
            assert np.all(mine < bases[i] + 100)

    def test_tenant_trace_matches_composed_share(self):
        """A tenant's standalone trace is exactly its composed subset —
        the replayable-substream guarantee behind isolation."""
        fleet = small_fleet(diurnal_amplitude=0.4, diurnal_period_s=300.0)
        composer = WorkloadComposer(fleet, seed=11)
        times, tenants, lbas, reads = collect(composer, duration_s=240.0)
        for idx, spec in enumerate(fleet):
            trace = composer.tenant_trace(spec.tenant_id, 240.0)
            mask = tenants == idx
            assert np.array_equal(trace.records["time"], times[mask])
            assert np.array_equal(trace.records["lba"], lbas[mask])
            assert np.array_equal(trace.records["is_read"], reads[mask])

    def test_composition_is_order_free(self):
        """Dropping a tenant from the fleet leaves the others'
        subsequences untouched."""
        fleet = small_fleet(n=3)
        full = WorkloadComposer(fleet, seed=5)
        times, tenants, lbas, _ = collect(full, duration_s=180.0)
        solo = WorkloadComposer([fleet[1]], seed=5)
        st_, _, sl, _ = collect(solo, duration_s=180.0)
        mask = tenants == 1
        assert np.array_equal(st_, times[mask])
        # addresses differ only by the region base
        tid = fleet[1].tenant_id
        assert np.array_equal(
            sl - solo.tenant_base(tid), lbas[mask] - full.tenant_base(tid))


def run_partitioned(fleet, seed, cache_pages, duration_s, dynamic=False,
                    **plan_kwargs):
    composer = WorkloadComposer(fleet, seed=seed)
    plan = PartitionPlan.equal(len(fleet), dynamic=dynamic, **plan_kwargs)
    raid = _make_raid(composer.total_pages)
    policies = [
        build_policy("wt", CacheConfig(cache_pages=q, ways=16, seed=seed),
                     raid)
        for q in plan.quotas(cache_pages)
    ]
    cache = PartitionedCache(policies, plan, total_pages=cache_pages)
    driver = ServeDriver(composer, cache)
    return composer, cache, driver.run(duration_s=duration_s)


class TestStaticIsolation:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16 - 1), n_tenants=st.integers(2, 4))
    def test_partitioned_tenant_equals_solo_run(self, seed, n_tenants):
        """Static partitioning is exact isolation: per-tenant hit ratio
        and SSD writes equal a solo run of that tenant's trace on a
        quota-sized cache."""
        fleet = small_fleet(n=n_tenants, base_iops=10.0,
                            diurnal_amplitude=0.3, diurnal_period_s=300.0)
        composer, cache, _ = run_partitioned(
            fleet, seed, cache_pages=256, duration_s=120.0)
        for idx, spec in enumerate(fleet):
            solo_raid = _make_raid(composer.total_pages)
            solo = build_policy(
                "wt",
                CacheConfig(cache_pages=cache.quotas[idx], ways=16,
                            seed=seed),
                solo_raid)
            solo.process_trace(
                composer.tenant_trace(spec.tenant_id, 120.0))
            part = cache.policies[idx].stats
            assert part.hit_ratio == solo.stats.hit_ratio
            assert part.ssd_writes == solo.stats.ssd_writes
            assert part.accesses == solo.stats.accesses


class TestDynamicPartitioning:
    def test_dynamic_beats_static_under_churn(self):
        """The churn acceptance criterion, at the bench drive shape."""
        rows = {}
        for dynamic in (False, True):
            cell = serve_cell(
                policy="wt", cache_pages=2048, n_tenants=32, dynamic=dynamic,
                seed=0, universe_pages=1024, base_iops=50.0,
                diurnal_amplitude=0.9, diurnal_period_s=600.0,
                max_requests=100_000, realloc_period=4000, min_fraction=0.01,
                ways=16)
            rows[dynamic] = run_serve_cell(cell)
        assert rows[True]["hit_ratio"] > rows[False]["hit_ratio"]
        assert rows[True]["realloc_passes"] > 0
        assert rows[False]["realloc_passes"] == 0
        # both plans saw the identical composed workload
        assert rows[True]["requests"] == rows[False]["requests"]

    def test_report_has_fairness_and_endurance_columns(self):
        fleet = small_fleet(n=2)
        _, _, report = run_partitioned(fleet, 0, cache_pages=256,
                                       duration_s=60.0)
        row = report.row()
        for key in ("fairness_jain", "min_tenant_hit_ratio",
                    "max_tenant_hit_ratio", "ssd_writes", "hit_ratio"):
            assert key in row
        assert 0.0 < row["fairness_jain"] <= 1.0
        per = report.tenant_rows()
        assert len(per) == 2
        assert all("ssd_writes" in r and "quota_pages" in r for r in per)


class TestJainFairness:
    def test_even_is_one(self):
        assert jain_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_winner_is_one_over_n(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_zero_are_neutral(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0


class TestServeSweep:
    def _cells(self):
        return [
            serve_cell(policy="wt", cache_pages=512, n_tenants=4,
                       dynamic=dynamic, seed=0, universe_pages=512,
                       base_iops=20.0, max_requests=8000,
                       realloc_period=2000, min_fraction=0.05, ways=16,
                       label=f"{'dyn' if dynamic else 'stat'}")
            for dynamic in (False, True)
        ]

    def test_rows_byte_identical_across_jobs(self):
        serial = SweepEngine(jobs=1).run(self._cells())
        parallel = SweepEngine(jobs=2).run(self._cells())
        assert json.dumps(serial.rows, sort_keys=True) == \
            json.dumps(parallel.rows, sort_keys=True)

    def test_per_tenant_rows_ride_the_cell(self):
        cell = serve_cell(policy="wt", cache_pages=512, n_tenants=4,
                          seed=0, universe_pages=512, base_iops=20.0,
                          max_requests=4000, ways=16, tenant_rows=True)
        row = run_serve_cell(cell)
        assert len(row["per_tenant"]) == 4

    def test_dynamic_flash_tenants_stay_inside_their_devices(self, monkeypatch):
        """A tenant's flash device is sized for its first quota, so
        reallocation may not grow its directory past what the device
        exports."""
        built = []

        def record(*args, **kwargs):
            built.append(build_policy(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("repro.harness.servesweep.build_policy", record)
        cell = serve_cell(policy="wt", cache_pages=16384, n_tenants=2,
                          dynamic=True, seed=0, universe_pages=16384,
                          base_iops=200.0, max_requests=20000,
                          realloc_period=2000, min_fraction=0.05,
                          diurnal_amplitude=0.9, diurnal_period_s=120.0,
                          flash_model=True)
        row = run_serve_cell(cell)
        assert row["resizes"] > 0
        assert len(built) == 2
        for policy in built:
            assert (policy.sets.capacity_pages + policy.meta_pages
                    <= policy.ssd.capacity_pages)


class TestBoundedMetricState:
    def test_million_requests_thousand_tenants(self):
        """The scaling acceptance: 1M composed requests over 1000
        tenants, metrics-only, with the byte budget frozen up front."""
        fleet = make_tenant_fleet(1000, universe_pages=256, base_iops=2.0,
                                  diurnal_amplitude=0.8,
                                  diurnal_period_s=3600.0)
        composer = WorkloadComposer(fleet, seed=1)
        driver = ServeDriver(composer)  # no cache: composition + metrics
        report = driver.run(max_requests=1_000_000)
        metrics = driver.metrics
        assert int(metrics.accesses.sum()) == 1_000_000
        assert metrics.state_bytes() == metrics.budget_bytes
        assert metrics.state_bytes() < 32_768
        row = report.row()
        assert row["requests"] == 1_000_000
        assert row["state_bytes"] == metrics.budget_bytes
