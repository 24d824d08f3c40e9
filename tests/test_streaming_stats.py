"""Streaming statistics: P² quantiles, windowed throughput, recorder.

The P² estimator backs the serving layer's O(1) metrics, so its
accuracy contract is property-tested against ``np.percentile`` on
adversarial distributions (heavy tails, duplicates, sorted and
reverse-sorted feeds).  :class:`LatencyRecorder` buffers every sample
and summarises them exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.stats import (
    LatencyRecorder,
    P2Quantile,
    StreamingQuantiles,
    WindowedThroughput,
)


def _p2_estimate(values, p):
    est = P2Quantile(p)
    for v in values:
        est.add(float(v))
    return est.value()


# Adversarial sample factories, keyed by a hypothesis-drawn shape.
def _samples(shape, seed, n):
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        return rng.random(n)
    if shape == "lognormal":  # heavy tail
        return rng.lognormal(0.0, 2.0, n)
    if shape == "bimodal":
        return np.where(rng.random(n) < 0.5, rng.normal(0.0, 0.1, n),
                        rng.normal(100.0, 5.0, n))
    # duplicates: few distinct values, shuffled arrival order
    return rng.permutation(np.repeat(rng.random(max(1, n // 16)), 16)[:n])


class TestP2Quantile:
    def test_exact_below_five_samples(self):
        for values in ([0.3], [0.9, 0.1], [5.0, 1.0, 3.0],
                       [2.0, 4.0, 1.0, 3.0]):
            est = P2Quantile(0.5)
            for v in values:
                est.add(v)
            assert est.value() == pytest.approx(
                float(np.percentile(values, 50.0)))

    def test_invalid_p_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="p"):
            P2Quantile(0.0)
        with pytest.raises(ConfigError, match="p"):
            P2Quantile(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(["uniform", "lognormal", "bimodal",
                               "duplicates"]),
        seed=st.integers(0, 2**16 - 1),
        n=st.integers(200, 2000),
        p=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    )
    def test_tracks_numpy_percentile(self, shape, seed, n, p):
        """P² stays within a small quantile-rank band of the exact
        answer: in empirical-CDF terms the estimate's rank must sit
        near ``p`` (rank space handles atoms, where value-space bands
        degenerate on step distributions)."""
        values = _samples(shape, seed, n)
        got = _p2_estimate(values, p)
        # One atom of probability mass is the resolution limit when the
        # distribution has heavy duplicates.
        atom = np.max(np.unique(values, return_counts=True)[1]) / n
        band = 0.07 + atom
        below = np.count_nonzero(values < got) / n
        at_or_below = np.count_nonzero(values <= got) / n
        assert below <= p + band + 1e-9
        assert at_or_below >= p - band - 1e-9
        # And the estimate never leaves the observed value range.
        assert values.min() <= got <= values.max()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16 - 1), n=st.integers(200, 1000),
           reverse=st.booleans())
    def test_monotone_feed_order_median(self, seed, n, reverse):
        """Monotone arrival order is P²'s documented worst case; the
        median must still land within a loose rank band (high quantiles
        under reverse-sorted feeds are out of contract)."""
        values = np.sort(np.random.default_rng(seed).random(n))
        if reverse:
            values = values[::-1]
        got = _p2_estimate(values, 0.5)
        lo = float(np.percentile(values, 38.0))
        hi = float(np.percentile(values, 62.0))
        assert lo <= got <= hi

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16 - 1), n=st.integers(5, 500))
    def test_state_is_constant_size(self, seed, n):
        est = P2Quantile(0.95)
        before = est.state_bytes()
        for v in np.random.default_rng(seed).random(n):
            est.add(float(v))
        assert est.state_bytes() == before

    def test_empty_estimator_reports_zero(self):
        assert P2Quantile(0.5).value() == pytest.approx(0.0)


class TestStreamingQuantiles:
    def test_summary_labels(self):
        sq = StreamingQuantiles((0.5, 0.95, 0.99))
        sq.add_many(np.arange(100, dtype=float))
        summary = sq.summary()
        assert set(summary) == {"p50", "p95", "p99"}
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_add_many_matches_scalar_adds(self):
        values = np.random.default_rng(7).lognormal(0.0, 1.0, 400)
        a = StreamingQuantiles((0.5, 0.99))
        b = StreamingQuantiles((0.5, 0.99))
        a.add_many(values)
        for v in values:
            b.add(float(v))
        assert a.summary() == b.summary()


class TestWindowedThroughput:
    def test_mean_and_peak(self):
        thr = WindowedThroughput(window_s=1.0)
        # 3 requests in [0,1), 1 in [1,2), 2 in [2,3)
        thr.observe_batch(np.array([0.1, 0.2, 0.9, 1.5, 2.1, 2.2]))
        s = thr.summary()
        assert s["windows"] == 3
        assert s["peak_per_s"] == pytest.approx(3.0)
        assert s["mean_per_s"] == pytest.approx(2.0)

    def test_backwards_time_rejected(self):
        thr = WindowedThroughput(window_s=1.0)
        thr.observe_batch(np.array([5.0]))
        with pytest.raises(SimulationError):
            thr.observe_batch(np.array([1.0]))

    def test_state_constant_across_many_windows(self):
        thr = WindowedThroughput(window_s=1.0)
        before = thr.state_bytes()
        thr.observe_batch(np.linspace(0.0, 5000.0, 20_000))
        assert thr.state_bytes() == before


class TestLatencyRecorderStreaming:
    def test_buffered_summary_unchanged(self):
        """The exact path is the golden-file contract: unchanged."""
        rec = LatencyRecorder()
        for v in (1.0, 2.0, 3.0, 4.0):
            rec.record(v)
        s = rec.summary()
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
