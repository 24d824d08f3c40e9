"""Analytic Markov MTTDL model for RAID-5 behind a delayed-parity cache.

The classic RAID-5 Markov chain (healthy -> degraded -> data loss) gets
one extra state for KDD's delayed parity: *vulnerable* — all members
healthy but at least one stripe's parity stale.  A member failure from
that state loses the stale stripes' data directly: there is nothing to
reconstruct them from.  (A failure from the *degraded* state never
re-enters the vulnerable state because KDD switches to immediate parity
updates while the array is degraded, Section III-E.)

::

            alpha                 n*lam
      S0  <------>  S0v     S0v --------> DL
            omega
       |  n*lam          mu          (n-1)*lam
      S0 --------> S1;  S1 --> S0;  S1 ----------> DL

The chain is *stiff* by construction — vulnerability windows last
milliseconds to seconds, disk lifetimes are years — which is exactly
why the analytic solve matters: the expected-absorption-time system is
a well-conditioned 3x3 linear solve regardless of the rate separation,
where naive transient simulation would need ~``omega/lam`` events.

:func:`markov_mttdl` returns the exact MTTDL of the chain plus the
survival-based loss probability ``1 - exp(-T/MTTDL)`` — accurate
whenever the horizon exceeds the chain's (fast) mixing time, the regime
every physically sensible parameterisation is in.  The Monte-Carlo
estimator (:mod:`repro.reliability.montecarlo`) cross-checks it from
independent draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class ReliabilityParams:
    """Rates (per hour) feeding both the Markov and Monte-Carlo models."""

    #: array width (data + parity members)
    ndisks: int
    #: mean time to failure of one member, hours
    disk_mttf_h: float
    #: mean rebuild time at priority 1.0, hours
    rebuild_h: float
    #: scales the rebuild rate (2.0 = twice as fast)
    rebuild_priority: float
    #: rate of entering a vulnerability window (all-clean -> stale), 1/h
    vuln_entry_per_h: float
    #: rate of clearing it (cleaner + scrubber), 1/h
    vuln_clear_per_h: float
    #: mission time for the loss-probability figure, hours
    horizon_h: float

    def __post_init__(self) -> None:
        if self.ndisks < 2:
            raise ConfigError("need at least 2 members for a parity level")
        for name in ("disk_mttf_h", "rebuild_h", "rebuild_priority",
                     "horizon_h"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(
                    f"{name} must be > 0 and finite, got {value}")
        for name in ("vuln_entry_per_h", "vuln_clear_per_h"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ConfigError(
                    f"{name} must be >= 0 and finite, got {value}")

    @property
    def lam(self) -> float:
        """Per-member failure rate, 1/h."""
        return 1.0 / self.disk_mttf_h

    @property
    def mu(self) -> float:
        """Effective rebuild rate, 1/h."""
        return self.rebuild_priority / self.rebuild_h

    @property
    def exposure_fraction(self) -> float:
        """Stationary fraction of healthy time spent vulnerable."""
        total = self.vuln_entry_per_h + self.vuln_clear_per_h
        return self.vuln_entry_per_h / total if total else 0.0

    def row(self) -> dict[str, Any]:
        return {
            "ndisks": self.ndisks,
            "disk_mttf_h": self.disk_mttf_h,
            "rebuild_h": self.rebuild_h,
            "rebuild_priority": self.rebuild_priority,
            "vuln_entry_per_h": round(self.vuln_entry_per_h, 6),
            "vuln_clear_per_h": round(self.vuln_clear_per_h, 6),
            "horizon_h": self.horizon_h,
        }


@dataclass(frozen=True)
class MarkovResult:
    """Closed-form reliability figures for one parameter point."""

    mttdl_h: float
    p_loss: float
    exposure_fraction: float

    def row(self) -> dict[str, Any]:
        return {
            "mttdl_h": self.mttdl_h,
            "p_loss": self.p_loss,
            "exposure_fraction": round(self.exposure_fraction, 6),
        }


def markov_mttdl(params: ReliabilityParams) -> MarkovResult:
    """Solve the chain for the expected time to data loss from S0.

    With ``T_i`` the expected absorption time from state ``i`` and
    ``R_i`` its total exit rate, each transient state satisfies
    ``T_i = 1/R_i + sum_j (r_ij / R_i) T_j`` — three equations, solved
    exactly.  Zero vulnerability rates degenerate gracefully: with
    ``alpha = 0`` the chain is the textbook RAID-5 model.
    """
    n = params.ndisks
    lam, mu = params.lam, params.mu
    alpha, omega = params.vuln_entry_per_h, params.vuln_clear_per_h

    # Exit rates of S0, S0v, S1.
    r0 = alpha + n * lam
    rv = omega + n * lam
    r1 = mu + (n - 1) * lam
    # T = b + M T  =>  (I - M) T = b, row order (S0, S0v, S1).
    m = np.array(
        [
            [0.0, alpha / r0, n * lam / r0],
            [omega / rv, 0.0, 0.0],
            [mu / r1, 0.0, 0.0],
        ]
    )
    b = np.array([1.0 / r0, 1.0 / rv, 1.0 / r1])
    times = np.linalg.solve(np.eye(3) - m, b)
    mttdl = float(times[0])
    p_loss = 1.0 - math.exp(-params.horizon_h / mttdl)
    return MarkovResult(
        mttdl_h=mttdl,
        p_loss=p_loss,
        exposure_fraction=params.exposure_fraction,
    )
