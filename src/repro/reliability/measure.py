"""Measure vulnerability-window exposure from a real KDD run.

The reliability models need two empirical rates — how often the array
*enters* a vulnerability window (some stripe's parity goes stale) and
how fast the cleaner/scrubber *clears* it.  Rather than positing them,
this module measures them: a small KDD stack runs a seeded workload,
the stale-stripe count is sampled after every access, and an optional
scrubber sweeps stripes on a fixed period.  The sample series reduces
to the shared :class:`~repro.stats.exposure.VulnerabilityExposure`
shape, and :func:`derive_params` converts it — via an IOPS figure that
maps accesses to wall time — into the per-hour rates the Markov and
Monte-Carlo models consume.

The knobs mirror the sweep axes of the reliability cell: *cleaner
aggressiveness* (``dirty_threshold``/``low_watermark``), *scrub period*
and *rebuild priority* (the latter passes straight through to the
models; it does not affect the exposure measurement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..cache.base import CacheConfig
from ..core.kdd import KDD
from ..errors import ConfigError
from ..faults.scrubber import Scrubber, ScrubReport
from ..raid.array import RAIDArray, RaidLevel
from ..stats.exposure import VulnerabilityExposure
from .mttdl import ReliabilityParams


@dataclass(frozen=True)
class ExposureRunConfig:
    """One measured operating point of the cleaner/scrubber policy."""

    accesses: int = 2000
    universe_pages: int = 256
    read_ratio: float = 0.3
    cache_pages: int = 64
    seed: int = 0
    #: cleaner aggressiveness (CacheConfig watermarks)
    dirty_threshold: float = 0.50
    low_watermark: float = 0.25
    #: scrub every N accesses (0 disables scrubbing)
    scrub_period: int = 0
    #: stripes per scrub step
    scrub_stripes: int = 4

    def __post_init__(self) -> None:
        if self.accesses < 1:
            raise ConfigError("accesses must be >= 1")
        if self.universe_pages < 1:
            raise ConfigError(
                f"universe_pages must be >= 1, got {self.universe_pages}")
        if self.scrub_period < 0:
            raise ConfigError("scrub_period must be >= 0")


def measure_exposure(
    cfg: ExposureRunConfig,
) -> tuple[VulnerabilityExposure, ScrubReport, np.ndarray]:
    """Run the workload; returns (exposure, scrub tallies, raw samples).

    The samples array holds the stale-stripe count after every access —
    the empirical distribution the Monte-Carlo estimator draws failure
    instants from.  The scrub report is empty when scrubbing is off —
    callers report it in the same JSON block either way so the shapes
    stay comparable.
    """
    # Size the array to the working set (one chunk column per stripe of
    # the universe): the scrubber's wrap-around sweep then spends its
    # whole period on stripes the workload can actually make stale.
    chunk_pages = 4
    ndisks = 5
    data_per_stripe = chunk_pages * (ndisks - 1)
    stripes = -(-cfg.universe_pages // data_per_stripe)
    raid = RAIDArray(
        RaidLevel.RAID5, ndisks=ndisks, chunk_pages=chunk_pages,
        pages_per_disk=stripes * chunk_pages,
    )
    kdd = KDD(
        CacheConfig(
            cache_pages=cfg.cache_pages,
            ways=16,
            group_pages=16,
            dirty_threshold=cfg.dirty_threshold,
            low_watermark=cfg.low_watermark,
            seed=cfg.seed,
        ),
        raid,
    )
    scrubber = (
        Scrubber(raid, charge_verify_reads=False) if cfg.scrub_period else None
    )
    scrub_report = ScrubReport()

    rng = np.random.default_rng(cfg.seed)
    lbas = rng.integers(0, cfg.universe_pages, size=cfg.accesses)
    reads = rng.random(cfg.accesses) < cfg.read_ratio

    samples: list[int] = []
    for i in range(cfg.accesses):
        kdd.access(int(lbas[i]), bool(reads[i]))
        if scrubber is not None and (i + 1) % cfg.scrub_period == 0:
            step_report, _ops = scrubber.step(cfg.scrub_stripes)
            scrub_report.merge(step_report)
        samples.append(len(raid.stale_stripes))
    series = np.asarray(samples, dtype=np.int64)
    return VulnerabilityExposure.from_samples(samples), scrub_report, series


def derive_params(
    exposure: VulnerabilityExposure,
    iops: float,
    ndisks: int = 5,
    disk_mttf_h: float = 5.0e4,
    rebuild_h: float = 240.0,
    rebuild_priority: float = 1.0,
    horizon_h: float = 5.0e3,
) -> ReliabilityParams:
    """Convert a measured exposure into model rates.

    ``iops`` maps the access-based units to hours.  The clear rate is
    the reciprocal mean window; the entry rate is chosen so the chain's
    stationary exposure equals the measured fraction (``alpha/(alpha +
    omega) = f``).  A run that was stale throughout (no window ever
    closed, no clean access seen) is indistinguishable from permanent
    vulnerability; its fraction is capped just below 1 so the rates
    stay finite — the resulting MTTDL is ~``1/(n*lam)`` either way.
    """
    if not (iops > 0 and math.isfinite(iops)):
        raise ConfigError(f"iops must be > 0 and finite, got {iops}")
    hours_per_access = 1.0 / (iops * 3600.0)
    if exposure.stale_span == 0:
        alpha = omega = 0.0
    else:
        mean_window_h = exposure.mean_window * hours_per_access
        omega = 1.0 / mean_window_h
        fraction = min(exposure.exposure_fraction, 0.9999)
        alpha = omega * fraction / (1.0 - fraction)
    return ReliabilityParams(
        ndisks=ndisks,
        disk_mttf_h=disk_mttf_h,
        rebuild_h=rebuild_h,
        rebuild_priority=rebuild_priority,
        vuln_entry_per_h=alpha,
        vuln_clear_per_h=omega,
        horizon_h=horizon_h,
    )


@dataclass(frozen=True)
class ReliabilityReport:
    """One reliability grid point: measurement, both models, agreement."""

    exposure: VulnerabilityExposure
    scrub: ScrubReport
    params: ReliabilityParams
    markov: "Any"  # MarkovResult
    monte_carlo: "Any"  # MonteCarloResult
    #: |p_mc - p_markov| must not exceed this (4 sigma + 2% + floor)
    tolerance: float
    agrees: bool

    def row(self) -> dict[str, Any]:
        mc = self.monte_carlo
        exposure = self.exposure
        # Analytic severity: mean stale stripes given at least one.
        analytic_severity = (
            exposure.mean_stale_stripes / exposure.exposure_fraction
            if exposure.exposure_fraction
            else 0.0
        )
        return {
            "exposure": exposure.row(),
            "scrub": self.scrub.row(),
            "params": self.params.row(),
            "markov": self.markov.row(),
            "monte_carlo": mc.row(),
            "p_loss_delta": abs(mc.p_loss - self.markov.p_loss),
            "tolerance": self.tolerance,
            "agrees": self.agrees,
            "stripes_per_loss_analytic": round(analytic_severity, 4),
            "mttdl_ratio": (
                mc.mttdl_h / self.markov.mttdl_h
                if mc.losses and self.markov.mttdl_h > 0
                else None
            ),
        }


#: Cross-check tolerance: statistical half-width in binomial sigmas ...
TOLERANCE_SIGMA = 4.0
#: ... plus a relative model allowance (quasi-static vs exact chain) ...
TOLERANCE_REL = 0.02
#: ... plus an absolute floor for near-zero loss probabilities.
TOLERANCE_ABS = 0.002


def run_reliability_point(
    cfg: ExposureRunConfig,
    iops: float = 2.0e4,
    ndisks: int = 5,
    disk_mttf_h: float = 5.0e4,
    rebuild_h: float = 240.0,
    rebuild_priority: float = 1.0,
    horizon_h: float = 5.0e3,
    trials: int = 4000,
    model_seed: int = 0,
) -> ReliabilityReport:
    """Measure, model, cross-check: the full pipeline for one point."""
    from .montecarlo import monte_carlo_loss
    from .mttdl import markov_mttdl

    exposure, scrub, samples = measure_exposure(cfg)
    params = derive_params(
        exposure,
        iops=iops,
        ndisks=ndisks,
        disk_mttf_h=disk_mttf_h,
        rebuild_h=rebuild_h,
        rebuild_priority=rebuild_priority,
        horizon_h=horizon_h,
    )
    markov = markov_mttdl(params)
    mc = monte_carlo_loss(
        params, trials=trials, seed=model_seed, stale_samples=samples
    )
    tolerance = (
        TOLERANCE_SIGMA * mc.p_loss_sigma
        + TOLERANCE_REL * markov.p_loss
        + TOLERANCE_ABS
    )
    agrees = abs(mc.p_loss - markov.p_loss) <= tolerance
    return ReliabilityReport(
        exposure=exposure,
        scrub=scrub,
        params=params,
        markov=markov,
        monte_carlo=mc,
        tolerance=tolerance,
        agrees=agrees,
    )
