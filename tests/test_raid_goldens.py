"""Pinned RAID member-op sequences for every array layout.

``tests/goldens/raid_goldens.json`` holds, per layout and payload mode,
the SHA-256 of a seeded script's step records through the public
``RAIDArray`` API (see ``tests/goldens/generate_raid_goldens.py``):
every returned ``DiskOp``, the counters, the stale stripes, raised
errors and, when payloads are stored, every page's data.  Any change to
which member ops a call emits, in what order, or with what side
effects fails here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "goldens"
sys.path.insert(0, str(GOLDEN_DIR))

from generate_raid_goldens import GOLDEN_PATH, arrays, digest  # noqa: E402


def test_goldens_cover_every_scripted_array():
    assert list(json.loads(GOLDEN_PATH.read_text())) == [a[0] for a in arrays()]


@pytest.mark.parametrize("spec", arrays(), ids=[a[0] for a in arrays()])
def test_member_op_sequence_is_pinned(spec):
    assert digest(*spec) == json.loads(GOLDEN_PATH.read_text())[spec[0]]
