"""Tests for the page-mapped FTL: mapping, GC, write amplification."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, FlashError
from repro.flash import FREE, FlashGeometry, PageMappedFTL


def small_ftl(op=0.25, ppb=8, bpp=8) -> PageMappedFTL:
    geo = FlashGeometry(
        channels=2,
        dies_per_channel=1,
        planes_per_die=1,
        blocks_per_plane=bpp,
        pages_per_block=ppb,
    )
    return PageMappedFTL(geo, over_provisioning=op)


def test_write_then_read_maps_consistently():
    ftl = small_ftl()
    ppn = ftl.write(3)
    assert ftl.physical_of(3) == ppn
    assert ftl.read(3) == ppn
    assert ftl.host_writes == 1 and ftl.host_reads == 1


def test_read_unmapped_raises():
    ftl = small_ftl()
    with pytest.raises(FlashError):
        ftl.read(0)


def test_out_of_range_lpn_rejected():
    ftl = small_ftl()
    with pytest.raises(CapacityError):
        ftl.write(ftl.exported_pages)
    with pytest.raises(CapacityError):
        ftl.read(-1)


def test_overwrite_moves_physical_page():
    ftl = small_ftl()
    p1 = ftl.write(0)
    p2 = ftl.write(0)
    assert p1 != p2
    assert ftl.physical_of(0) == p2


def test_trim_unmaps():
    ftl = small_ftl()
    ftl.write(5)
    ftl.trim(5)
    assert not ftl.is_mapped(5)
    ftl.trim(5)  # idempotent


def test_writes_spread_across_planes():
    ftl = small_ftl()
    p0 = ftl.write(0)
    p1 = ftl.write(1)
    geo = ftl.geometry
    assert geo.plane_of_block(p0 // geo.pages_per_block) != geo.plane_of_block(
        p1 // geo.pages_per_block
    )


def test_gc_reclaims_overwritten_space():
    ftl = small_ftl(op=0.25)
    # Hammer a small working set; without GC this exhausts the 128-page device.
    for i in range(1000):
        ftl.write(i % 4)
    assert ftl.gc_runs > 0
    assert ftl.host_writes == 1000
    assert ftl.nand_writes >= ftl.host_writes
    ftl.check_invariants()


def test_write_amplification_at_least_one():
    ftl = small_ftl()
    for i in range(500):
        ftl.write(i % 8)
    assert ftl.write_amplification >= 1.0


def test_sequential_overwrite_low_waf():
    """Whole-device sequential overwrite invalidates whole blocks: WAF ~ 1."""
    ftl = small_ftl(op=0.25)
    n = ftl.exported_pages
    for _sweep in range(6):
        for lpn in range(n):
            ftl.write(lpn)
    assert ftl.write_amplification < 1.6
    ftl.check_invariants()


def test_device_full_of_valid_data_raises():
    ftl = small_ftl(op=0.0, ppb=4, bpp=4)
    with pytest.raises(CapacityError):
        for lpn in range(ftl.exported_pages):
            ftl.write(lpn)
        # all pages valid, GC can free nothing, next write must fail
        ftl.write(0) if ftl.free_block_count else None
        for lpn in range(ftl.exported_pages):
            ftl.write(lpn)


def test_erases_are_counted_by_wear_tracker():
    ftl = small_ftl()
    for i in range(1000):
        ftl.write(i % 4)
    assert ftl.wear.total_erases == ftl.gc_runs


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["w", "t"]), st.integers(0, 15)),
        min_size=1,
        max_size=300,
    )
)
def test_ftl_invariants_under_random_ops(ops):
    """Property: l2p/p2l stay mutually consistent under any op sequence."""
    ftl = small_ftl()
    mapped = set()
    for kind, lpn in ops:
        if kind == "w":
            ftl.write(lpn)
            mapped.add(lpn)
        else:
            ftl.trim(lpn)
            mapped.discard(lpn)
    ftl.check_invariants()
    for lpn in range(16):
        assert ftl.is_mapped(lpn) == (lpn in mapped)


def skewed_ops(ftl: PageMappedFTL, n: int, rng: np.random.Generator,
               trims: float = 0.1) -> None:
    """80/20 skew over the exported pages, a ``trims`` share of ops trims."""
    hot = ftl.exported_pages // 5
    for _ in range(n):
        lpn = int(rng.integers(0, hot if rng.random() < 0.8
                               else ftl.exported_pages))
        if rng.random() < trims:
            ftl.trim(lpn)
        else:
            ftl.write(lpn)


def test_skewed_writes_preserve_mapping_invariants():
    ftl = small_ftl(bpp=16)
    skewed_ops(ftl, 3000, np.random.default_rng(0), trims=0.0)
    ftl.check_invariants()
    assert ftl.gc_runs > 0
    assert ftl.write_amplification >= 1.0


def test_free_block_count_tracks_the_pools():
    """The running free-block count equals the pools' total after every
    write, trim and GC pass."""
    ftl = small_ftl(bpp=16)
    rng = np.random.default_rng(7)
    for _ in range(3000):
        skewed_ops(ftl, 1, rng)
        assert ftl.free_block_count == sum(len(q) for q in ftl._free_blocks)
    assert ftl.gc_runs > 0
    ftl.check_invariants()
    ftl._free_count += 1
    with pytest.raises(FlashError, match="free-block count"):
        ftl.check_invariants()


@pytest.mark.parametrize(
    "planes, bpp, ppb, op, seed, n, gc_runs, relocations, digest",
    [
        (2, 16, 8, 0.25, 0, 6000, 1144, 4009,
         "1101ab4d0855973ef6fa35ff5b857de10df619153605f626cadd38f013882a01"),
        (4, 12, 4, 0.1, 1, 5000, 2242, 4666,
         "19e7785f8f8dbeb7cdd3d5301f10027176b82ca1f78c6de4b9ce39f75c52c72d"),
        (2, 24, 16, 0.3, 2, 8000, 624, 3486,
         "44e79fd1beb98efb67cd65948306655220ac60093019f4924171112cc921a715"),
    ],
)
def test_greedy_gc_is_pinned_where_it_relocates(
    planes, bpp, ppb, op, seed, n, gc_runs, relocations, digest
):
    """Greedy GC's victim order, pinned on small devices where GC moves
    valid pages: the counters and a digest of the mapping, valid counts,
    write pointers and per-block erase counts."""
    geo = FlashGeometry(
        channels=planes,
        dies_per_channel=1,
        planes_per_die=1,
        blocks_per_plane=bpp,
        pages_per_block=ppb,
    )
    ftl = PageMappedFTL(geo, over_provisioning=op)
    skewed_ops(ftl, n, np.random.default_rng(seed))
    assert (ftl.gc_runs, ftl.gc_relocations, ftl.wear.total_erases) == (
        gc_runs, relocations, gc_runs
    )
    h = hashlib.sha256()
    for arr in (ftl._l2p, ftl._p2l, ftl._valid_in_block,
                ftl._writeptr_in_block, ftl.wear._erases):
        h.update(arr.tobytes())
    assert h.hexdigest() == digest
    ftl.check_invariants()
