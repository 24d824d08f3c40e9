"""Rebuild under load: a member rebuild contending with foreground traffic.

The classic degraded-mode experiment of every RAID paper (and of the
rebuild-under-load analyses in Thomasian, arXiv 2306.08763): one
failed member is reconstructed batch by batch while a foreground trace
keeps arriving, so rebuild and foreground I/O contend for the
surviving disks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..engine import SimEngine
from ..errors import ConfigError, RaidError, SimulationError, raises
from ..raid.rebuild import RebuildReport, finish_rebuild, iter_rebuild_ops
from ..traces.record import IORequest


@raises(RaidError, SimulationError)
def rebuild_under_load(
    system: SimEngine,
    disk: int,
    requests: Iterable[IORequest] | Iterator[IORequest],
    batch_stripes: int = 4,
) -> tuple[RebuildReport, float]:
    """Rebuild failed member ``disk`` while serving foreground requests.

    Between every foreground request the rebuilder injects up to
    ``batch_stripes`` chunks' worth of reconstruction batches, so rebuild
    and foreground traffic contend for the member disks.  Foreground
    reads of not-yet-rebuilt pages are served degraded by the array
    automatically (the member is failed until
    :func:`~repro.raid.rebuild.finish_rebuild`).

    This driver is a workload *source*: it interleaves foreground
    submissions with :meth:`SimEngine.inject_disk_ops` batches; all
    device timing is the engine's.

    Returns the rebuild report (count-only) and the time the rebuild
    finished.
    """
    if batch_stripes < 1:
        raise ConfigError("batch_stripes must be >= 1")
    array = system.policy.raid
    if disk not in array.failed_disks:
        array.fail_disk(disk)
    report = RebuildReport()
    batches = iter_rebuild_ops(array, disk)
    pages_per_batch = batch_stripes * array.layout.chunk_pages
    clock = 0.0
    rebuild_done = 0.0
    exhausted = False
    for req in requests:
        clock = max(clock, req.time)
        system.submit_request(req)
        if exhausted:
            continue
        for _ in range(pages_per_batch):
            try:
                _dpage, ops = next(batches)
            except StopIteration:
                exhausted = True
                break
            array.counters.account(ops)
            report.add_ops(ops)
            report.pages_rebuilt += 1
            rebuild_done = system.inject_disk_ops(ops, clock)
    # drain whatever the trace did not overlap
    for _dpage, ops in batches:
        array.counters.account(ops)
        report.add_ops(ops)
        report.pages_rebuilt += 1
        rebuild_done = system.inject_disk_ops(ops, max(clock, rebuild_done))
    finish_rebuild(array, disk)
    return report, rebuild_done
