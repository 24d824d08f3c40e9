"""Pinned row checksums for the serve, flash-model and trace-figure paths.

``tests/goldens/row_goldens.json`` holds the SHA-256 of the canonical
rows of one tiny cell per path and of tiny fig4-fig8 bench grids (see
``tests/goldens/generate_row_goldens.py``).  They need no timing, so
numeric drift on these paths fails tier-1 instead of surfacing later in
the ``kdd-repro bench --check`` job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "goldens"
sys.path.insert(0, str(GOLDEN_DIR))

from generate_row_goldens import GOLDEN_PATH, collect, names  # noqa: E402


@pytest.fixture(scope="module")
def fresh():
    return collect()


def test_goldens_cover_every_pinned_cell():
    assert list(json.loads(GOLDEN_PATH.read_text())) == names()


@pytest.mark.parametrize("name", names())
def test_row_checksum_is_pinned(name, fresh):
    assert fresh[name] == json.loads(GOLDEN_PATH.read_text())[name]
