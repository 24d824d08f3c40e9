"""Pinned crash-boundary sequences of the KDD persistence protocol.

``tests/goldens/crash_goldens.json`` holds, per workload, the length and
SHA-256 of the ordered ``(kind, phase, context)`` boundary list that the
crash matrix's capture pass records (see
``tests/goldens/generate_crash_goldens.py``).  The matrix proves RPO=0
at every boundary that exists; this pins that none was added, dropped,
reordered or moved to another page, stripe or log sequence number.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "goldens"
sys.path.insert(0, str(GOLDEN_DIR))

from generate_crash_goldens import GOLDEN_PATH, WORKLOADS, digest  # noqa: E402


def test_goldens_cover_every_workload():
    assert list(json.loads(GOLDEN_PATH.read_text())) == [w[0] for w in WORKLOADS]


def test_crash_matrix_workload_has_404_boundaries():
    assert json.loads(GOLDEN_PATH.read_text())["seed0-160"]["boundaries"] == 404


@pytest.mark.parametrize("spec", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_boundary_sequence_is_pinned(spec):
    name, accesses, seed = spec
    assert digest(accesses, seed) == json.loads(GOLDEN_PATH.read_text())[name]
