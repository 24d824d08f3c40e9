"""Generate the pinned RAID member-op sequences (tests/test_raid_goldens.py).

One seeded script of array calls per layout, run through the public
:class:`repro.raid.array.RAIDArray` API: reads, multi-page writes that
cross stripe boundaries, ``write_without_parity_update``,
``parity_update``, ``mark_media_error``, ``repair_page`` and
``fail_disk``.  Every layout runs once counting ops and once with
``store_data=True``.  Each step records the call, every field of every
:class:`~repro.raid.array.DiskOp` it returned in order, the counters,
the stale stripes, and the error type and message when the call raised;
a payload-storing array also records every page's ``read_data`` (or its
error).  The golden is the SHA-256 of those records, one per array.

The timing goldens only cover healthy 5-disk RAID-5 writes and the
fault cells; these scripts reach the reconstruct-write, RAID-0/1/6,
degraded, over-tolerance and payload branches as well.

Usage::

    PYTHONPATH=src python tests/goldens/generate_raid_goldens.py

Regenerate only when a change is meant to move member I/O, and say
which arrays moved and why in the change that does it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("raid_goldens.json")

#: (level number, member count) of every scripted layout.
LAYOUTS = ((0, 3), (1, 2), (1, 3), (5, 3), (5, 5), (5, 6), (6, 4), (6, 6))
CHUNK_PAGES = 4
STRIPES = 6
PAGE_SIZE = 8
STEPS = 120
#: Steps at which a member disk fails; the second one exceeds RAID-0/5
#: tolerance, and the array keeps serving calls afterwards.
FAIL_STEPS = (75, 100)
#: Media errors and repairs start here, once healthy paths have run.
MEDIA_FROM = 45


def arrays() -> list[tuple[str, int, int, bool]]:
    """(name, level, ndisks, store_data) of every scripted array."""
    return [
        (f"raid{level}-{ndisks}{'-data' if store else ''}", level, ndisks,
         store)
        for level, ndisks in LAYOUTS
        for store in (False, True)
    ]


def _payload(rng: random.Random) -> bytes:
    """One page of data; shorter pages are zero-padded, and rarely one
    is too long."""
    size = PAGE_SIZE + 1 if rng.random() < 0.01 else rng.randint(1, PAGE_SIZE)
    return rng.randbytes(size)


def _extent(rng: random.Random, cap: int, max_pages: int) -> tuple[int, int]:
    """(lpage, npages): in range but for one call in twenty."""
    npages = rng.randint(1, max_pages)
    if rng.random() < 0.05:
        return rng.choice((-1, cap - npages + 1)), npages
    return rng.randrange(cap - npages + 1), npages


def _next_call(rng: random.Random, array, step: int, store: bool):
    """(method name, args) of one scripted step."""
    cap = array.capacity_pages
    layout = array.layout
    nstripes = cap // layout.stripe_data_pages
    if step in FAIL_STEPS:
        return "fail_disk", (rng.randrange(array.ndisks),)
    kinds = ["read", "write", "write", "delayed", "parity"]
    if step >= MEDIA_FROM:
        kinds += ["media", "repair"]
    kind = rng.choice(kinds)
    # multi-page calls reach across up to three stripes
    max_pages = 2 * layout.stripe_data_pages
    if kind == "read":
        return "read", _extent(rng, cap, max_pages)
    if kind == "write":
        lpage, npages = _extent(rng, cap, max_pages)
        if not store or rng.random() < 0.2:
            return "write", (lpage, npages)
        count = npages + 1 if rng.random() < 0.03 else npages
        return "write", (lpage, npages, [_payload(rng) for _ in range(count)])
    if kind == "delayed":
        lpage, _ = _extent(rng, cap, 1)
        payload = _payload(rng) if store and rng.random() < 0.8 else None
        return "write_without_parity_update", (lpage, payload)
    if kind == "parity":
        stale = sorted(array.stale_stripes)
        stripe = (rng.choice(stale) if stale and rng.random() < 0.8
                  else rng.randrange(nstripes))
        pages = list(layout.stripe_pages(stripe))
        deltas = None
        if rng.random() < 0.6:
            touched = rng.sample(pages, rng.randint(1, 3))
            if rng.random() < 0.2:  # a page of another stripe is ignored
                touched.append((pages[-1] + 1) % cap)
            deltas = {lp: rng.randbytes(PAGE_SIZE) for lp in touched}
        cached = pages if rng.random() < 0.3 else rng.sample(pages, 2)
        mode = rng.choice((None, None, "rcw", "rmw"))
        return "parity_update", (stripe, deltas, cached, mode)
    if kind == "media":
        return "mark_media_error", (rng.randrange(array.ndisks),
                                    rng.randrange(-1, layout.pages_per_disk))
    errors = sorted(array.media_errors)
    if errors and rng.random() < 0.9:
        return "repair_page", rng.choice(errors)
    return "repair_page", (rng.randrange(array.ndisks),
                           rng.randrange(layout.pages_per_disk))


def _jsonable(value):
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return sorted([k, _jsonable(v)] for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _error(exc: Exception) -> list[str]:
    return [type(exc).__name__, str(exc)]


def script_records(name: str, level: int, ndisks: int, store: bool):
    """Yield one JSON-able record per scripted step on a fresh array."""
    from repro.errors import ReproError
    from repro.raid import RAIDArray, RaidLevel

    array = RAIDArray(RaidLevel(level), ndisks=ndisks,
                      chunk_pages=CHUNK_PAGES,
                      pages_per_disk=CHUNK_PAGES * STRIPES,
                      page_size=PAGE_SIZE, store_data=store)
    rng = random.Random(name)
    for step in range(STEPS):
        method, args = _next_call(rng, array, step, store)
        ops, error = [], None
        try:
            ops = getattr(array, method)(*args) or []
        except ReproError as exc:
            error = _error(exc)
        c = array.counters
        record = {
            "call": [method, _jsonable(args)],
            "ops": [[op.disk, op.disk_page, op.npages, op.is_read,
                     op.kind.value] for op in ops],
            "error": error,
            "counters": [c.data_reads, c.data_writes, c.parity_reads,
                         c.parity_writes],
            "stale": sorted(array.stale_stripes),
        }
        if store:
            pages = []
            for lpage in range(array.capacity_pages):
                try:
                    pages.append(array.read_data(lpage).tobytes().hex())
                except ReproError as exc:
                    pages.append(_error(exc))
            record["pages"] = pages
        yield record


def digest(name: str, level: int, ndisks: int, store: bool) -> str:
    h = hashlib.sha256()
    for record in script_records(name, level, ndisks, store):
        h.update(json.dumps(record, sort_keys=True).encode())
        h.update(b"\n")
    return "sha256:" + h.hexdigest()


def collect() -> dict[str, str]:
    """Array name -> digest of its script, run on this tree."""
    return {spec[0]: digest(*spec) for spec in arrays()}


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(collect(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
