"""Generate the pinned crash-boundary sequences (tests/test_crash_goldens.py).

Each workload runs the capture pass of
:func:`repro.faults.crash.run_crash_matrix` — the small ``_build_kdd``
stack, a capture-mode shim, every access of ``crash_workload``, then
``finish()`` — and records the ordered ``(kind, phase, context)`` of
every persistence boundary the production code announced.  The golden
is the SHA-256 of that list, plus its length for readable diffs.

The crash matrix proves RPO=0 at whatever boundaries exist, and its
report row gives only their count and per-kind totals; this golden
also pins *where* each boundary falls, so a refactor of the
journaling, staging or cleaning paths that moves a persistence point
fails ``pytest``.  The first workload is the matrix's own capture, so
the golden fixes the boundaries behind that row's counts too.

Usage::

    PYTHONPATH=src python tests/goldens/generate_crash_goldens.py

Regenerate only when a change is meant to move persistence boundaries
(for example batched journaling), and say which ones moved and why in
the change that does it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("crash_goldens.json")

#: (name, accesses, seed) of every pinned capture pass; the first is the
#: crash matrix's own fixed workload.
WORKLOADS = (
    ("seed0-160", 160, 0),
    ("seed1-400", 400, 1),
    ("seed2-400", 400, 2),
)


def boundaries(accesses: int, seed: int) -> list[list]:
    """Ordered ``[kind, phase, context]`` of one capture pass."""
    from repro.faults.crash import (
        _build_kdd,
        attach_crash_shim,
        crash_workload,
        detach_crash_shim,
    )

    kdd = _build_kdd(seed)
    shim = attach_crash_shim(kdd, mode="capture")
    for lba, is_read in crash_workload(accesses, seed):
        shim.in_flight = lba
        kdd.access(lba, is_read)
    shim.in_flight = None
    kdd.finish()
    detach_crash_shim(kdd)
    return [[b.kind, b.phase, [list(kv) for kv in b.context]]
            for b in shim.boundaries]


def digest(accesses: int, seed: int) -> dict[str, object]:
    seq = boundaries(accesses, seed)
    h = hashlib.sha256(json.dumps(seq).encode())
    return {"boundaries": len(seq), "sha256": h.hexdigest()}


def collect() -> dict[str, dict[str, object]]:
    """Workload name -> digest of its boundary sequence, run on this tree."""
    return {name: digest(accesses, seed) for name, accesses, seed in WORKLOADS}


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(collect(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
