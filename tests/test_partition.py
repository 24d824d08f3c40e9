"""Per-tenant cache partitioning: plans, routing, dynamic reallocation.

Partition quotas split one cache across tenant directories; dynamic
mode moves quota through the public ``alloc`` surface only, so the
cache invariants (each residency-index entry is its set's line) must
hold across every resize, and the endurance cost of migration shows up
in ``ssd_writes``.
"""

import pytest

from repro.cache import CacheConfig, PartitionPlan, PartitionedCache
from repro.errors import ConfigError
from repro.harness.runner import build_policy
from repro.raid.array import RAIDArray


def make_raid(pages_per_disk=512):
    return RAIDArray(ndisks=5, chunk_pages=16,
                     pages_per_disk=pages_per_disk)


def make_partition(n_tenants=2, cache_pages=128, policy="wt",
                   dynamic=False, **plan_kwargs):
    plan = PartitionPlan.equal(n_tenants, dynamic=dynamic, **plan_kwargs)
    raid = make_raid()
    policies = [
        build_policy(policy, CacheConfig(cache_pages=quota, ways=16, seed=0),
                     raid)
        for quota in plan.quotas(cache_pages)
    ]
    return PartitionedCache(policies, plan, total_pages=cache_pages)


class TestPartitionPlanValidation:
    def test_zero_tenant_plan_rejected(self):
        with pytest.raises(ConfigError, match="zero-tenant"):
            PartitionPlan(fractions=())

    def test_nonpositive_fraction_names_the_index(self):
        with pytest.raises(ConfigError, match=r"fractions\[1\]"):
            PartitionPlan(fractions=(0.5, 0.0))

    def test_fractions_over_one_rejected(self):
        with pytest.raises(ConfigError, match="sum to <= 1"):
            PartitionPlan(fractions=(0.7, 0.7))

    def test_bad_realloc_period(self):
        with pytest.raises(ConfigError, match="realloc_period"):
            PartitionPlan.equal(2, realloc_period=0)

    def test_bad_min_fraction(self):
        with pytest.raises(ConfigError, match="min_fraction"):
            PartitionPlan.equal(4, min_fraction=0.5)

    def test_bad_ewma_alpha(self):
        with pytest.raises(ConfigError, match="ewma_alpha"):
            PartitionPlan.equal(2, ewma_alpha=1.5)

    def test_equal_requires_a_tenant(self):
        with pytest.raises(ConfigError, match="n_tenants"):
            PartitionPlan.equal(0)

    def test_quotas_floor_at_one_page(self):
        plan = PartitionPlan.equal(3)
        assert plan.quotas(3) == (1, 1, 1)
        with pytest.raises(ConfigError, match="total_pages"):
            plan.quotas(2)


class TestPartitionedCacheConstruction:
    def test_policy_count_must_match_plan(self):
        plan = PartitionPlan.equal(3)
        raid = make_raid()
        policies = [
            build_policy("wt", CacheConfig(cache_pages=16, seed=0), raid)
            for _ in range(2)
        ]
        with pytest.raises(ConfigError, match="3 tenants"):
            PartitionedCache(policies, plan, total_pages=64)

    def test_directories_cannot_exceed_total(self):
        plan = PartitionPlan.equal(2)
        raid = make_raid()
        policies = [
            build_policy("wt", CacheConfig(cache_pages=64, seed=0), raid)
            for _ in range(2)
        ]
        with pytest.raises(ConfigError, match="exceeding total_pages"):
            PartitionedCache(policies, plan, total_pages=64 + 16)

    def test_dynamic_requires_clean_line_policy(self):
        plan = PartitionPlan.equal(2, dynamic=True)
        raid = make_raid()
        policies = [
            build_policy("wb", CacheConfig(cache_pages=32, seed=0), raid)
            for _ in range(2)
        ]
        with pytest.raises(ConfigError, match="clean-line"):
            PartitionedCache(policies, plan, total_pages=128)

    def test_non_set_assoc_policy_rejected(self):
        plan = PartitionPlan.equal(1)
        raid = make_raid()
        policies = [build_policy("nossd", CacheConfig(cache_pages=32, seed=0),
                                 raid)]
        with pytest.raises(ConfigError, match="set-associative"):
            PartitionedCache(policies, plan, total_pages=64)


class TestRoutingAndStats:
    def test_routing_isolates_tenants(self):
        cache = make_partition(n_tenants=2, cache_pages=128)
        for lba in range(16):
            cache.access(0, lba, True)
        assert cache.policies[0].stats.accesses == 16
        assert cache.policies[1].stats.accesses == 0

    def test_combined_stats_sum_tenants(self):
        cache = make_partition(n_tenants=2, cache_pages=128)
        for lba in range(8):
            cache.access(0, lba, True)
            cache.access(1, 100 + lba, False)
        cache.finish()
        combined = cache.combined_stats()
        per = [p.stats for p in cache.policies]
        assert combined.accesses == sum(s.accesses for s in per)
        assert combined.ssd_writes == sum(s.ssd_writes for s in per)
        cache.check_invariants()


class TestDynamicReallocation:
    def _churn(self, cache, rounds=6):
        """Tenant 0 hot, reusing 8 pages spread across set groups;
        tenant 1 cold-scans fresh pages every round."""
        for r in range(rounds):
            for i in range(48):
                cache.access(0, (i % 8) * 64, True)
                cache.access(1, 1024 + r * 48 + i, True)

    def test_quota_moves_toward_hit_density(self):
        cache = make_partition(n_tenants=2, cache_pages=128, dynamic=True,
                               realloc_period=64, min_fraction=0.1)
        before = cache.quotas
        self._churn(cache)
        cache.finish()
        assert cache.realloc.passes > 0
        assert cache.realloc.resizes > 0
        after = cache.quotas
        assert after[0] > before[0]  # the hot tenant gained quota
        assert sum(after) <= cache.total_pages
        assert cache.realloc.final_quotas == list(after)

    def test_invariants_hold_across_resizes(self):
        cache = make_partition(n_tenants=2, cache_pages=128, dynamic=True,
                               realloc_period=64, min_fraction=0.1)
        self._churn(cache)
        cache.check_invariants()
        for policy, quota in zip(cache.policies, cache.quotas):
            assert policy.sets.capacity_pages == quota

    def test_migration_charges_fill_writes(self):
        cache = make_partition(n_tenants=2, cache_pages=128, dynamic=True,
                               realloc_period=64, min_fraction=0.1)
        self._churn(cache)
        stats = cache.realloc
        assert stats.migrated_lines > 0
        # every migrated line cost one counted SSD fill write
        fills = sum(p.stats.fill_writes for p in cache.policies)
        assert fills >= stats.migrated_lines

    def test_static_plan_never_reallocates(self):
        cache = make_partition(n_tenants=2, cache_pages=128, dynamic=False)
        self._churn(cache)
        cache.finish()
        assert cache.realloc.passes == 0
        assert cache.quotas == tuple(
            PartitionPlan.equal(2).quotas(128))
