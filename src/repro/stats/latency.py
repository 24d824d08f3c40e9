"""Response-time statistics for the timing simulator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError


class LatencyRecorder:
    """Accumulates per-request response times.

    Samples live in an amortized-growth float64 buffer (capacity doubles
    when full), so :meth:`record` is O(1) amortized and :meth:`summary`
    reduces a zero-copy view instead of re-materializing the whole
    history into a fresh ndarray on every call.
    """

    __slots__ = ("_buf", "_n")

    def __init__(self) -> None:
        self._n = 0
        self._buf = np.empty(64, dtype=np.float64)

    def record(self, response_time: float) -> None:
        # A negative response time is a simulator fault (completion before
        # arrival), not a configuration mistake.
        if response_time < 0:
            raise SimulationError(f"negative response time {response_time}")
        if self._n == self._buf.shape[0]:
            grown = np.empty(2 * self._buf.shape[0], dtype=np.float64)
            grown[: self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = response_time
        self._n += 1

    def __len__(self) -> int:
        return self._n

    def summary(self) -> "LatencySummary":
        if not self._n:
            return LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0,
                                  maximum=0.0)
        arr = self._buf[: self._n]
        return LatencySummary(
            count=self._n,
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
            maximum=float(arr.max()),
        )


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate response-time figures (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @property
    def mean_ms(self) -> float:
        return self.mean * 1e3

    def row(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": round(self.mean * 1e3, 3),
            "p50_ms": round(self.p50 * 1e3, 3),
            "p95_ms": round(self.p95 * 1e3, 3),
            "p99_ms": round(self.p99 * 1e3, 3),
            "max_ms": round(self.maximum * 1e3, 3),
        }
