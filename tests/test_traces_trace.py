"""Tests for the Trace container and its statistics."""

import numpy as np
import pytest

from repro.errors import ConfigError, TraceFormatError
from repro.traces import IO_DTYPE, IORequest, Trace, empty_records


def make_trace(rows):
    """rows: list of (time, lba, npages, is_read)."""
    rec = empty_records(len(rows))
    for i, (t, lba, n, r) in enumerate(rows):
        rec[i] = (t, lba, n, r)
    return Trace(rec, name="t")


def test_len_and_getitem():
    tr = make_trace([(0.0, 10, 1, True), (1.0, 20, 2, False)])
    assert len(tr) == 2
    req = tr[1]
    assert req == IORequest(time=1.0, lba=20, npages=2, is_read=False)
    assert req.is_write


def test_iteration_yields_requests_in_time_order():
    tr = make_trace([(2.0, 1, 1, True), (0.5, 2, 1, False)])
    times = [r.time for r in tr]
    assert times == sorted(times)


def test_rejects_wrong_dtype():
    with pytest.raises(TraceFormatError):
        Trace(np.zeros(3, dtype=np.float64))


def test_rejects_zero_length_requests():
    rec = empty_records(1)
    rec[0] = (0.0, 0, 0, True)
    with pytest.raises(TraceFormatError):
        Trace(rec)


def test_max_page_accounts_for_request_length():
    tr = make_trace([(0.0, 10, 4, True)])
    assert tr.max_page == 14


def test_duration():
    tr = make_trace([(1.0, 0, 1, True), (5.5, 0, 1, True)])
    assert tr.duration == pytest.approx(4.5)


def test_page_accesses_expands_multi_page_requests():
    tr = make_trace([(0.0, 10, 3, True), (1.0, 100, 1, False)])
    pages, is_read = tr.page_accesses()
    assert pages.tolist() == [10, 11, 12, 100]
    assert is_read.tolist() == [True, True, True, False]


def test_stats_unique_and_request_counts():
    tr = make_trace(
        [
            (0.0, 10, 2, True),   # reads pages 10, 11
            (1.0, 11, 1, False),  # writes page 11
            (2.0, 10, 1, True),   # rereads page 10
        ]
    )
    s = tr.stats()
    assert s.unique_pages == 2
    assert s.unique_read_pages == 2
    assert s.unique_write_pages == 1
    assert s.read_requests == 3  # page accesses: 2 + 1
    assert s.write_requests == 1
    assert s.read_ratio == pytest.approx(0.75)


def test_head_truncates():
    tr = make_trace([(0.0, 1, 1, True), (1.0, 2, 1, True), (2.0, 3, 1, True)])
    assert len(tr.head(2)) == 2


def test_scaled_time():
    tr = make_trace([(0.0, 1, 1, True), (4.0, 2, 1, True)])
    assert tr.scaled_time(0.5).duration == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        tr.scaled_time(0.0)


@pytest.mark.parametrize("factor", [float("nan"), float("inf")])
def test_scaled_time_rejects_non_finite_factors(factor):
    tr = make_trace([(0.0, 1, 1, True), (4.0, 2, 1, True)])
    with pytest.raises(ConfigError, match=f"positive and finite, got {factor}"):
        tr.scaled_time(factor)


@pytest.mark.parametrize("times, bad", [
    ([0.0, float("nan"), 1.0], "record 1 has a non-finite arrival time nan"),
    ([float("inf"), 0.5], "record 0 has a non-finite arrival time inf"),
    ([0.0, float("-inf")], "record 1 has a non-finite arrival time -inf"),
])
def test_rejects_non_finite_arrival_times(times, bad):
    with pytest.raises(TraceFormatError, match=bad):
        make_trace([(t, i, 1, True) for i, t in enumerate(times)])


def test_records_view_is_readonly():
    tr = make_trace([(0.0, 1, 1, True)])
    with pytest.raises(ValueError):
        tr.records["lba"][0] = 99


def test_empty_trace():
    tr = Trace(empty_records(0))
    assert len(tr) == 0
    assert tr.duration == 0.0
    assert tr.max_page == 0
    s = tr.stats()
    assert s.unique_pages == 0 and s.read_ratio == 0.0
