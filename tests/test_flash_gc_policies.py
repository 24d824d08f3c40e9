"""Tests for the FTL's GC victim policy.

The FTL has one victim rule, greedy (fewest valid pages), so "every policy"
below is that rule on the geometry the other GC rules were once checked on.
"""

from repro.flash import FlashGeometry, PageMappedFTL


def make_ftl(bpp=16, ppb=8, op=0.25):
    geo = FlashGeometry(
        channels=2,
        dies_per_channel=1,
        planes_per_die=1,
        blocks_per_plane=bpp,
        pages_per_block=ppb,
    )
    return PageMappedFTL(geo, over_provisioning=op)


def test_sequential_waf_one_for_all_policies():
    ftl = make_ftl()
    for _sweep in range(4):
        for lpn in range(ftl.exported_pages):
            ftl.write(lpn)
    assert ftl.write_amplification < 1.6
    assert ftl.gc_runs > 0
    ftl.check_invariants()
