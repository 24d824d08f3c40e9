"""Pinned row checksums for every figure driver and the paths they miss.

``tests/goldens/row_goldens.json`` holds the SHA-256 of the canonical
rows of every ``kdd-repro run`` driver at a small shape (the full row
of each cell it submits, plus the rows and notes it prints), of one
tiny cell per path no driver reaches (serve drive, flash model,
no-cache baseline, reliability point), of the serve composer's
metrics summary and of the fault demo's op trace and event log; see
``tests/goldens/generate_row_goldens.py``.  They
need no timing, so numeric drift on any of these paths fails tier-1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.harness.figures import ALL_FIGURES

GOLDEN_DIR = Path(__file__).parent / "goldens"
sys.path.insert(0, str(GOLDEN_DIR))

from generate_row_goldens import (  # noqa: E402
    FIGURE_SHAPES,
    GOLDEN_PATH,
    checksum,
    collect,
    names,
)


@pytest.fixture(scope="module")
def fresh():
    return collect()


def test_goldens_cover_every_pinned_cell():
    assert list(json.loads(GOLDEN_PATH.read_text())) == names()


def test_every_figure_driver_is_pinned():
    assert list(FIGURE_SHAPES) == list(ALL_FIGURES)


def test_checksum_is_order_sensitive_and_stable():
    rows = [{"policy": "wt", "hit_ratio": 0.5}, {"policy": "kdd"}]
    assert checksum(rows) == checksum([dict(r) for r in rows])
    assert checksum(rows) != checksum(rows[::-1])


@pytest.mark.parametrize("name", names())
def test_row_checksum_is_pinned(name, fresh):
    assert fresh[name] == json.loads(GOLDEN_PATH.read_text())[name]
