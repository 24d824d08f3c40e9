"""Statistical model of delta compression ratios.

The content locality of a workload is application specific and the raw
traces carry no data payloads, so — exactly like the paper's own
simulator (Section IV-A2) — delta compression ratios are drawn from a
Gaussian distribution whose mean characterises the locality level:

* mean 0.50 → low content locality   (KDD-50%)
* mean 0.25 → medium content locality (KDD-25%)
* mean 0.12 → high content locality  (KDD-12%)
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

#: The three locality levels evaluated in the paper.
LOCALITY_LEVELS = {"low": 0.50, "medium": 0.25, "high": 0.12}


class GaussianDeltaModel:
    """Draw per-write delta sizes from a clipped Gaussian."""

    def __init__(
        self,
        mean: float = 0.25,
        sigma: float | None = None,
        page_size: int = 4096,
        seed: int = 0,
        min_ratio: float = 0.02,
    ) -> None:
        if not 0.0 < mean <= 1.0:
            raise ConfigError("mean compression ratio must be in (0, 1]")
        if sigma is None:
            sigma = mean / 4.0
        if sigma < 0:
            raise ConfigError("sigma must be >= 0")
        if not 0.0 <= min_ratio <= 1.0:
            raise ConfigError("need 0 <= min_ratio <= 1")
        self.mean = mean
        self.sigma = sigma
        self.page_size = page_size
        self.min_ratio = min_ratio
        self._rng = np.random.default_rng(seed)
        # Draws are buffered in blocks: Generator.normal(m, s, size=N)
        # consumes the bit stream exactly like N scalar calls, so the
        # sequence of ratios is unchanged — only the per-call overhead is
        # amortized (the KDD write hit path samples once per hit).
        self._buf = np.empty(0)
        self._buf_pos = 0

    #: Draws buffered per RNG call.
    BLOCK = 256

    @classmethod
    def for_locality(cls, level: str, **kwargs) -> "GaussianDeltaModel":
        """Model for a named locality level ('low' / 'medium' / 'high')."""
        try:
            mean = LOCALITY_LEVELS[level]
        except KeyError:
            raise ConfigError(
                f"unknown locality {level!r}; choose from {sorted(LOCALITY_LEVELS)}"
            ) from None
        return cls(mean=mean, **kwargs)

    def sample_ratio(self) -> float:
        """One compression ratio draw, clipped to the configured range."""
        if self._buf_pos >= len(self._buf):
            self._buf = self._rng.normal(self.mean, self.sigma, size=self.BLOCK)
            self._buf_pos = 0
        r = self._buf[self._buf_pos]
        self._buf_pos += 1
        return float(min(1.0, max(self.min_ratio, r)))

    def sample_size(self) -> int:
        """One delta size in bytes (at least 1)."""
        return max(1, int(round(self.sample_ratio() * self.page_size)))
