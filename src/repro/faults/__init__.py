"""Deterministic fault injection for the storage stack (beyond III-E).

The paper's failure analysis (Section III-E) covers clean, whole-device
failures only: power loss, SSD-cache loss, HDD loss.  Real arrays also
see *partial* faults (latent sector errors — an unrecoverable read error
on one page) and *transient* faults (device timeouts), and those are
exactly where KDD's delayed-parity protocol matters: a stripe whose
parity is stale cannot reconstruct a lost page until the cleaner repairs
the parity.  This package makes that window executable:

* :class:`FaultSchedule` — seeded, per-device RNG streams (the same
  hash-derivation discipline as the sweep engine's per-cell seeds), so a
  fault sweep is byte-identical across ``--jobs`` counts;
* :class:`RetryPolicy` — bounded retries with deterministic exponential
  backoff, modelled as added latency, then escalation;
* :class:`Scrubber` — background stripe verification and repair via the
  ``parity_update`` / rewrite interfaces;
* :func:`demo_event_log` — the scripted vulnerability-window narrative;
* :func:`run_crash_matrix` — every persistence boundary, crashed and
  recovered.

The timed fault pipeline — fault streams on every device, degraded-mode
reconstruction reads, the event log — is an engine hook,
:class:`repro.engine.FaultPipelineHook`, installed on a
:class:`repro.engine.SimEngine`; a rebuild under load is the workload
source :func:`repro.sim.rebuild_under_load`.  This package imports
neither: the engine imports the schedule and retry policies from here.
The sweep drivers (``kdd-repro faults``: fault rate x retry policy ->
degraded-mode response time) live in :mod:`repro.harness.faultsweep` —
the layering contract keeps simulation code from importing the harness.
"""

from .crash import (
    CRASH_POINT_KINDS,
    CrashMatrixReport,
    CrashPointShim,
    attach_crash_shim,
    run_crash_matrix,
)
from .demo import demo_event_log
from .retry import RETRY_POLICIES, RetryPolicy, retry_policy
from .schedule import (
    DeviceFaultStream,
    FaultConfig,
    FaultCounters,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from .scrubber import Scrubber, ScrubReport

__all__ = [
    "CRASH_POINT_KINDS",
    "RETRY_POLICIES",
    "CrashMatrixReport",
    "CrashPointShim",
    "DeviceFaultStream",
    "FaultConfig",
    "FaultCounters",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "RetryPolicy",
    "ScrubReport",
    "Scrubber",
    "attach_crash_shim",
    "demo_event_log",
    "retry_policy",
    "run_crash_matrix",
]
