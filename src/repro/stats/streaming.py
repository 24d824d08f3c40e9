"""Bounded-memory online metrics for multi-tenant serving.

Everything in this module keeps O(1) state in the number of observations:
quantiles use the P² (piecewise-parabolic) algorithm of Jain & Chlamtac
(CACM 1985) with five markers per target, and throughput uses a rolling
per-window counter.  Each estimator reports its resident state via
``state_bytes()`` so callers (the serve driver) can assert a fixed
byte budget over million-request runs.
"""

from __future__ import annotations

import numpy as np

from ..contracts import columnar
from ..errors import ConfigError, SimulationError

__all__ = ["P2Quantile", "StreamingQuantiles", "WindowedThroughput"]

#: Python-object overhead charged per estimator on top of its ndarray
#: payload; a fixed constant so budgets stay deterministic across runs.
_OBJECT_OVERHEAD = 64


def _percentile_sorted(values: list[float], p: float) -> float:
    """``np.percentile``-style linear interpolation over a sorted list."""
    n = len(values)
    if n == 1:
        return values[0]
    rank = p * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return values[lo] * (1.0 - frac) + values[hi] * frac


class P2Quantile:
    """Streaming quantile estimate with five markers of fixed state.

    Until five samples arrive the estimate is exact (sorted-list
    interpolation); afterwards the markers track the ``p``-quantile with
    parabolic height adjustment.  All state lives in two length-5 arrays,
    so ``state_bytes()`` is constant for the life of the estimator.
    """

    __slots__ = ("_p", "_heights", "_pos", "_count")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ConfigError(f"P2Quantile.p must be in (0, 1), got {p}")
        self._p = p
        self._heights = np.empty(5, dtype=np.float64)
        self._pos = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        self._count = 0

    @property
    def p(self) -> float:
        return self._p

    @property
    def count(self) -> int:
        return self._count

    def state_bytes(self) -> int:
        return int(self._heights.nbytes + self._pos.nbytes) + _OBJECT_OVERHEAD

    def add(self, x: float) -> None:
        h = self._heights
        if self._count < 5:
            h[self._count] = x
            self._count += 1
            if self._count == 5:
                h.sort()
            return
        self._count += 1
        # Locate the marker cell containing x, stretching the extremes.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            if x > h[4]:
                h[4] = x
            k = 3
        else:
            k = int(np.searchsorted(h, x, side="right")) - 1
            k = min(k, 3)
        pos = self._pos
        pos[k + 1:] += 1
        p = self._p
        want = (
            1.0,
            1.0 + (self._count - 1) * p / 2.0,
            1.0 + (self._count - 1) * p,
            1.0 + (self._count - 1) * (1.0 + p) / 2.0,
            float(self._count),
        )
        for i in (1, 2, 3):
            d = want[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1
            ):
                step = 1 if d >= 1.0 else -1
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    # Parabolic estimate left the bracket; fall back to
                    # linear interpolation toward the neighbour.
                    h[i] = h[i] + step * (h[i + step] - h[i]) / (
                        pos[i + step] - pos[i]
                    )
                pos[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        h = self._heights
        pos = self._pos
        n_prev = int(pos[i - 1])
        n_cur = int(pos[i])
        n_next = int(pos[i + 1])
        left = (n_cur - n_prev + step) * (h[i + 1] - h[i]) / (n_next - n_cur)
        right = (n_next - n_cur - step) * (h[i] - h[i - 1]) / (n_cur - n_prev)
        return float(h[i] + step * (left + right) / (n_next - n_prev))

    def value(self) -> float:
        if self._count == 0:
            return 0.0
        if self._count < 5:
            return _percentile_sorted(
                sorted(self._heights[: self._count].tolist()), self._p
            )
        return float(self._heights[2])


class StreamingQuantiles:
    """A fixed bank of :class:`P2Quantile` estimators over one stream."""

    __slots__ = ("_estimators",)

    def __init__(self, targets: tuple[float, ...] = (0.5, 0.95, 0.99)) -> None:
        if not targets:
            raise ConfigError("StreamingQuantiles.targets must not be empty")
        self._estimators = tuple((p, P2Quantile(p)) for p in targets)

    @property
    def count(self) -> int:
        return self._estimators[0][1].count

    def add(self, x: float) -> None:
        for _, est in self._estimators:
            est.add(x)

    @columnar(dtypes={"values": "float64"}, shapes={"values": "(n,)"})
    def add_many(self, values: np.ndarray) -> None:
        for x in values.tolist():
            for _, est in self._estimators:
                est.add(x)

    def state_bytes(self) -> int:
        return (
            sum(est.state_bytes() for _, est in self._estimators)
            + _OBJECT_OVERHEAD
        )

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for p, est in self._estimators:
            label = f"p{p * 100:g}".replace(".", "_")
            out[label] = est.value()
        return out


class WindowedThroughput:
    """Per-window request counting with O(1) state.

    Observations must be fed in non-decreasing time order (the composer
    emits a time-ordered stream, so this holds by construction).  Only
    the current window's counter is kept; completed windows fold into
    running aggregates (count, peak), never a per-window list.
    """

    __slots__ = ("_window_s", "_window", "_count", "_completed", "_total",
                 "_peak")

    def __init__(self, window_s: float = 60.0) -> None:
        if window_s <= 0:
            raise ConfigError(
                f"WindowedThroughput.window_s must be positive, got {window_s}"
            )
        self._window_s = window_s
        self._window = -1
        self._count = 0
        self._completed = 0
        self._total = 0
        self._peak = 0

    @property
    def total(self) -> int:
        return self._total

    def state_bytes(self) -> int:
        return 6 * 8 + _OBJECT_OVERHEAD

    @columnar(dtypes={"times": "float64"})
    def observe_batch(self, times: np.ndarray) -> None:
        if times.size == 0:
            return
        idx = np.floor_divide(times, self._window_s).astype(np.int64)
        uniq, counts = np.unique(idx, return_counts=True)
        for window, count in zip(uniq.tolist(), counts.tolist()):
            self._roll_to(window)
            self._count += count
            self._total += count

    def _roll_to(self, window: int) -> None:
        if self._window < 0:
            self._window = window
            return
        if window < self._window:
            raise SimulationError(
                f"throughput observation moved backwards: window {window} "
                f"after {self._window}"
            )
        if window > self._window:
            self._peak = max(self._peak, self._count)
            # Empty windows between the last observation and this one
            # still count toward the mean denominator.
            self._completed += window - self._window
            self._count = 0
            self._window = window

    def summary(self) -> dict[str, float]:
        windows = self._completed + (1 if self._window >= 0 else 0)
        peak = max(self._peak, self._count)
        mean = self._total / windows / self._window_s if windows else 0.0
        return {
            "windows": windows,
            "mean_per_s": mean,
            "peak_per_s": peak / self._window_s,
        }
