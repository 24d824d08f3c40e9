"""Property tests: the counter-only RAID sink is result-identical.

``process_trace`` sends a policy's RAID data I/O to the array's
counter-only sink (:class:`repro.raid.array.FastAccounting`) whenever
the array is healthy.  It must produce exactly the counters, RAID
accounting, stale stripes, policy extras, errors and eviction sequence
of the same accesses sent to the array one by one through
``policy.access`` — for every registered policy, every RAID level and
every configuration.  The serve drive takes the same sinks through the
same helper (``counter_sinks``), so its rows, per-tenant rows and RAID
accounting must equal those of the drive with the sink unavailable.
Guards pin that the sink is really taken on a healthy array (else the
equivalence would be vacuous) and really avoided when the array is
degraded, has media errors or stores data.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.base import CacheConfig, counter_sinks
from repro.cache.common import SetAssocPolicy
from repro.cache.partition import PartitionedCache, PartitionPlan
from repro.errors import ConfigError, RaidError
from repro.harness.runner import POLICIES, make_raid_for_trace
from repro.harness.servesweep import _make_raid
from repro.raid.array import FastAccounting, RAIDArray
from repro.raid.layout import RaidLevel
from repro.serve import ServeDriver, WorkloadComposer, make_tenant_fleet
from repro.traces import Trace, empty_records
from repro.traces.workloads import make_workload

#: (level, member count) pairs covering both small-write strategies:
#: RAID-5 on 3 disks reconstruct-writes, on 5 read-modify-writes.
LAYOUTS = (
    (RaidLevel.RAID0, 4),
    (RaidLevel.RAID1, 2),
    (RaidLevel.RAID5, 3),
    (RaidLevel.RAID5, 5),
    (RaidLevel.RAID6, 6),
)


def make_trace(rows):
    """rows: list of (lba, npages, is_read); arrival time = index."""
    rec = empty_records(len(rows))
    for i, (lba, n, r) in enumerate(rows):
        rec[i] = (float(i), lba, n, r)
    return Trace(rec, name="prop")


def _record(cls):
    """``cls`` that logs its accesses, and its evictions and SSD frees
    in the order they happen."""

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.accesses = 0
            self.evictions: list[tuple[str, int]] = []

        def access(self, lba, is_read):
            self.accesses += 1
            return super().access(lba, is_read)

        def _ssd_trim(self, lpn):
            self.evictions.append(("trim", lpn))
            super()._ssd_trim(lpn)

        if hasattr(cls, "_drop_line"):
            def _drop_line(self, line):
                self.evictions.append(("drop", line.lba))
                super()._drop_line(line)

    return Recording


def observe(policy, raid, error):
    """Everything externally observable about a finished (or failed) run."""
    scalars = {
        k: v for k, v in vars(policy).items()
        if isinstance(v, (int, float)) and k not in ("accesses",)
    }
    if policy.ssd is not None:
        scalars["write_amplification"] = policy.ssd.write_amplification
        scalars["nand_erases"] = policy.ssd.ftl.wear.total_erases
    return {
        "error": None if error is None else (type(error), str(error)),
        "accesses": policy.accesses,
        "stats": policy.stats,
        "raid": raid.counters,
        "stale_stripes": sorted(raid.stale_stripes),
        "extras": scalars,
        "evictions": policy.evictions,
    }


def run(name, trace, config_kwargs, via_sink, raid=None, layout=None):
    """One run through ``process_trace`` (sink) or per-page ``access``."""
    if raid is None:
        level, ndisks = layout or (RaidLevel.RAID5, 5)
        raid = make_raid_for_trace(trace, level=level, ndisks=ndisks)
    config = CacheConfig(**config_kwargs)
    policy = _record(POLICIES[name])(config, raid)
    error = None
    try:
        if via_sink:
            policy.process_trace(trace)
        else:
            pages, is_read = trace.page_accesses()
            for lba, read in zip(pages.tolist(), is_read.tolist()):
                policy.access(lba, read)
            policy.finish()
    except (ConfigError, RaidError) as exc:
        error = exc
    else:
        policy.check_invariants()
    return observe(policy, raid, error)


requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=199),   # lba
        st.integers(min_value=1, max_value=4),     # npages
        st.booleans(),                             # is_read
    ),
    min_size=0,
    max_size=200,
)


@settings(max_examples=100, deadline=None)
@given(
    rows=requests,
    policy=st.sampled_from(sorted(POLICIES)),
    layout=st.sampled_from(LAYOUTS),
    cache_pages=st.sampled_from((64, 128)),
    admission=st.sampled_from(("always", "larc", "count")),
    flash_model=st.booleans(),
    seed=st.integers(min_value=0, max_value=3),
)
def test_sink_matches_array(rows, policy, layout, cache_pages, admission,
                            flash_model, seed):
    trace = make_trace(rows)
    kwargs = dict(cache_pages=cache_pages, admission=admission,
                  flash_model=flash_model, seed=seed)
    assert run(policy, trace, kwargs, True, layout=layout) == \
        run(policy, trace, kwargs, False, layout=layout)


@settings(max_examples=20, deadline=None)
@given(
    rows=requests,
    policy=st.sampled_from(("leavo", "kdd")),
    watermark=st.sampled_from(((0.3, 0.5), (0.1, 0.9))),
)
def test_sink_matches_array_under_cleaning_pressure(rows, policy, watermark):
    """Delayed-parity policies with tight dirty thresholds clean often;
    the cleaning/staging machinery must stay equivalent too."""
    low, dirty = watermark
    kwargs = dict(cache_pages=64, low_watermark=low, dirty_threshold=dirty)
    trace = make_trace(rows)
    assert run(policy, trace, kwargs, True) == run(policy, trace, kwargs, False)


@pytest.mark.parametrize("name, hit_ratio, raid_reads", [
    ("owb", 0.5262, 24568),
    ("jwb", 0.5263, 35562),
    ("wec-wt", 0.5559, 48276),
])
def test_inheriting_policies_pinned_on_fin1(name, hit_ratio, raid_reads):
    """Policies that override ``write`` over a WT/WB base take the sink
    with their own write logic (Fin1, scale 0.004, 10% cache)."""
    trace = make_workload("Fin1", 0.004)
    kwargs = dict(cache_pages=397, seed=0)
    via_sink = run(name, trace, kwargs, True)
    assert via_sink == run(name, trace, kwargs, False)
    assert via_sink["error"] is None
    assert round(via_sink["stats"].hit_ratio, 4) == hit_ratio
    assert via_sink["raid"].reads == raid_reads


def _forbid_array_io(monkeypatch):
    for method in ("read", "write", "write_without_parity_update"):
        def forbidden(self, *args, _method=method, **kwargs):
            raise AssertionError(f"RAIDArray.{_method} called on the sink path")

        monkeypatch.setattr(RAIDArray, method, forbidden)


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_healthy_process_trace_takes_the_sink(name, monkeypatch):
    """Guard against the equivalence going vacuous: on a healthy array
    ``process_trace`` never calls the array's data I/O methods, while
    the per-access drive does."""
    rng = np.random.default_rng(0)
    trace = make_trace([
        (int(rng.integers(0, 200)), 1, bool(rng.integers(0, 2)))
        for _ in range(400)
    ])
    kwargs = dict(cache_pages=64)
    array_run = run(name, trace, kwargs, False)
    assert array_run["raid"].total > 0
    _forbid_array_io(monkeypatch)
    assert run(name, trace, kwargs, True) == array_run


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_out_of_range_lba_fails_at_the_same_access(name):
    trace = make_trace([(i % 40, 1, i % 3 == 0) for i in range(150)]
                       + [(10_000, 1, i % 2 == 0) for i in range(2)])
    kwargs = dict(cache_pages=64)
    sink, array = (
        run(name, trace, kwargs, via_sink,
            raid=RAIDArray(RaidLevel.RAID5, ndisks=5, pages_per_disk=256))
        for via_sink in (True, False)
    )
    assert sink["error"][0] is ConfigError
    assert "out of range" in sink["error"][1]
    assert sink["accesses"] == 151
    assert sink == array


@pytest.mark.parametrize("name", ["leavo", "kdd"])
@pytest.mark.parametrize("layout", [(RaidLevel.RAID0, 4), (RaidLevel.RAID1, 2)])
def test_delayed_parity_write_hit_needs_a_parity_level(name, layout):
    trace = make_trace([(5, 1, False), (5, 1, False)])
    sink, array = (run(name, trace, dict(cache_pages=64), via_sink,
                       layout=layout) for via_sink in (True, False))
    assert sink["error"] == (RaidError,
                             "delayed parity requires a parity RAID level")
    assert sink["accesses"] == 2
    assert sink == array


@pytest.mark.parametrize("name", ["wt", "kdd"])
@pytest.mark.parametrize("state", ["degraded", "media_error", "store_data"])
def test_unhealthy_array_keeps_the_array_path(name, state, monkeypatch):
    """Degraded members, media errors and stored payloads change the
    member I/O, so ``process_trace`` must send it to the array."""
    rng = np.random.default_rng(1)
    trace = make_trace([
        (int(rng.integers(0, 120)), 1, bool(rng.integers(0, 2)))
        for _ in range(300)
    ])

    def array():
        raid = make_raid_for_trace(trace, store_data=state == "store_data")
        if state == "degraded":
            raid.fail_disk(1)
        elif state == "media_error":
            raid.mark_media_error(0, 50)  # a stripe the trace never reads
        return raid

    calls = []
    original = RAIDArray.read

    def counting_read(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RAIDArray, "read", counting_read)
    kwargs = dict(cache_pages=64)
    via_trace = run(name, trace, kwargs, True, raid=array())
    assert calls, "process_trace bypassed an unhealthy array"
    assert via_trace["error"] is None
    assert via_trace == run(name, trace, kwargs, False, raid=array())


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from(LAYOUTS),
    ops=st.lists(
        st.tuples(st.sampled_from(("read", "write", "delayed")),
                  st.integers(min_value=-2, max_value=300),
                  st.integers(min_value=-2, max_value=40)),
        max_size=40,
    ),
)
def test_sink_ops_match_array_ops(layout, ops):
    """Op by op, multi-page writes included: same counters, stale
    stripes and errors as the array (a non-positive length raises on
    both)."""
    level, ndisks = layout
    array, other = (RAIDArray(level, ndisks=ndisks, chunk_pages=4,
                              pages_per_disk=64) for _ in range(2))
    sink = other.fast_account()
    for kind, lpage, npages in ops:
        outcomes = []
        for target in (array, sink):
            try:
                if kind == "read":
                    target.read(lpage, npages)
                elif kind == "write":
                    target.write(lpage, npages)
                else:
                    target.write_without_parity_update(lpage)
                outcomes.append(None)
            except (ConfigError, RaidError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        assert array.counters == other.counters
        assert array.stale_stripes == other.stale_stripes


# -- the serve drive -------------------------------------------------------

#: Policies a PartitionedCache accepts (those with a CacheSets directory).
PARTITIONABLE = sorted(
    name for name, cls in POLICIES.items() if issubclass(cls, SetAssocPolicy)
)

#: Static plans for every partitionable policy, dynamic plans for the
#: policies that may be resized.
SERVE_PLANS = [(name, False) for name in PARTITIONABLE] + [
    ("wa", True), ("wt", True)]


def serve_driver(name, dynamic, seed, n_tenants, raid=None):
    """A tiny serve drive over ``raid`` (default: sized for the fleet)."""
    fleet = make_tenant_fleet(n_tenants, universe_pages=256, base_iops=20.0,
                              diurnal_amplitude=0.9, diurnal_period_s=120.0)
    composer = WorkloadComposer(fleet, seed=seed)
    plan = PartitionPlan.equal(n_tenants, dynamic=dynamic,
                               realloc_period=300, min_fraction=0.05)
    if raid is None:
        raid = _make_raid(composer.total_pages)
    policies = [
        POLICIES[name](CacheConfig(cache_pages=quota, ways=16, seed=seed),
                       raid)
        for quota in plan.quotas(256)
    ]
    cache = PartitionedCache(policies, plan, total_pages=256)
    return ServeDriver(composer, cache), raid


def serve_drive(name, dynamic, seed, n_tenants):
    """One tiny serve drive; everything its report and array show."""
    driver, raid = serve_driver(name, dynamic, seed, n_tenants)
    report = driver.run(max_requests=1500)
    policies = driver.cache.policies
    assert all(policy.io is raid for policy in policies)
    return {
        "row": report.row(),
        "tenant_rows": report.tenant_rows(),
        "tenant_stats": [policy.stats for policy in policies],
        "raid": raid.counters,
        "stale_stripes": sorted(raid.stale_stripes),
    }


@pytest.mark.parametrize("name, dynamic", SERVE_PLANS)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16 - 1),
       n_tenants=st.integers(min_value=2, max_value=4))
def test_serve_drive_sink_matches_array(name, dynamic, seed, n_tenants):
    """A healthy serve drive never calls the array's data I/O methods,
    and reports exactly what the drive with the sink unavailable does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RAIDArray, "fast_account", lambda self: None)
        via_array = serve_drive(name, dynamic, seed, n_tenants)
    assert via_array["raid"].total > 0
    if dynamic:
        assert via_array["row"]["realloc_passes"] > 0
    with pytest.MonkeyPatch.context() as mp:
        _forbid_array_io(mp)
        assert serve_drive(name, dynamic, seed, n_tenants) == via_array


@pytest.mark.parametrize("name", ["wt", "kdd"])
def test_serve_drive_restores_the_array_when_an_access_raises(name):
    """An array too small for the tenants' regions fails mid-drive; every
    tenant's ``io`` is its array again afterwards."""
    small = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=16,
                      pages_per_disk=64)
    driver, _ = serve_driver(name, False, 0, 4, raid=small)
    with pytest.raises(ConfigError, match="out of range"):
        driver.run(max_requests=1500)
    assert small.counters.total > 0
    assert all(policy.io is small for policy in driver.cache.policies)


def test_counter_sinks_pick_the_sink_by_array_health():
    """Policies over a healthy array get the counter-only sink; over an
    unhealthy array they keep the array; leaving the drive restores
    every policy's array."""
    healthy = RAIDArray(RaidLevel.RAID5, ndisks=5, pages_per_disk=256)
    faulty = RAIDArray(RaidLevel.RAID5, ndisks=5, pages_per_disk=256)
    faulty.mark_media_error(0, 10)
    policies = [POLICIES["wt"](CacheConfig(cache_pages=64), raid)
                for raid in (healthy, healthy, faulty)]
    with counter_sinks(policies):
        sinks = [policy.io for policy in policies]
        assert all(isinstance(sink, FastAccounting) for sink in sinks[:2])
        assert sinks[2] is faulty
    assert all(policy.io is policy.raid for policy in policies)
