"""Deterministic multi-tenant workload composition.

:class:`WorkloadComposer` multiplexes N tenant streams into one
time-ordered request stream without ever materializing a mega-trace:
composition proceeds in fixed wall-clock *epochs*, and each epoch's
requests are generated per tenant, merged by arrival time, and yielded
as one columnar :class:`ComposedBatch`.  Memory is O(epoch), not
O(trace).

Determinism is total and order-free: every (tenant, epoch) cell draws
from its own RNG stream whose seed is sha256-derived from the composer
seed and the tenant id (:func:`substream_seed`), so

* composing twice yields byte-identical streams,
* a tenant's subsequence is independent of which other tenants ride
  along — :meth:`WorkloadComposer.tenant_trace` replays exactly the
  requests the composed stream contains for that tenant, which is what
  the partition-isolation property tests against, and
* sweep workers can re-derive any cell without shared state.

Tenant address spaces are disjoint: tenant *i* owns
``[base_i, base_i + universe_pages_i)`` with bases aligned to
:data:`ALIGN_PAGES` (one RAID stripe group), so per-tenant page
populations never share a parity stripe.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..contracts import columnar
from ..errors import ConfigError, TraceFormatError, raises
from ..traces.record import empty_records
from ..traces.synthetic import _zipf_cdf
from ..traces.trace import Trace
from .tenants import TenantSpec

__all__ = ["ComposedBatch", "WorkloadComposer", "substream_seed"]

#: Most epochs one ``duration_s`` may span.  A longer plan comes from a
#: mistyped duration or epoch (120 s of 1e-7 s epochs is 1.2 billion
#: epochs), so it is refused rather than run for hours.
MAX_EPOCHS = 1_000_000

#: Tenant base alignment in pages: one RAID stripe group.
ALIGN_PAGES = 64


def substream_seed(composer_seed: int, tenant_id: str) -> int:
    """Derive a tenant's RNG substream seed from the composer seed.

    sha256 keyed by the composer seed and the tenant id, so substreams
    are independent, reproducible, and free of accidental overlap
    between tenants or with other subsystem streams (the fault
    scheduler uses the same construction).  RPR111 statically enforces
    that every serve-layer RNG stream is seeded through here.
    """
    digest = hashlib.sha256(
        f"serve:{composer_seed}:{tenant_id}".encode()
    ).hexdigest()
    return int(digest[:16], 16)


@dataclass(frozen=True)
class ComposedBatch:
    """One epoch of the composed stream, columnar and time-ordered."""

    #: Arrival time of each request (seconds).
    times: np.ndarray
    #: Tenant index (into the composer's tenant tuple) per request.
    tenant: np.ndarray
    #: Absolute page address per request (single-page requests).
    lba: np.ndarray
    #: Read flag per request.
    is_read: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


class WorkloadComposer:
    """Multiplexes tenant streams into one time-ordered batch iterator."""

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        seed: int = 0,
        epoch_s: float = 60.0,
    ) -> None:
        if not tenants:
            raise ConfigError(
                "WorkloadComposer.tenants: a zero-tenant composition is not "
                "allowed"
            )
        ids = [spec.tenant_id for spec in tenants]
        if len(set(ids)) != len(ids):
            dupes = sorted({t for t in ids if ids.count(t) > 1})
            raise ConfigError(
                f"WorkloadComposer.tenants: duplicate tenant ids {dupes}"
            )
        if not (epoch_s > 0.0 and math.isfinite(epoch_s)):
            raise ConfigError(
                f"WorkloadComposer.epoch_s must be positive and finite, "
                f"got {epoch_s}"
            )
        self.tenants = tuple(tenants)
        self.seed = seed
        self.epoch_s = float(epoch_s)
        self._index = {spec.tenant_id: i for i, spec in enumerate(self.tenants)}
        bases = []
        base = 0
        for spec in self.tenants:
            bases.append(base)
            base += -(-spec.universe_pages // ALIGN_PAGES) * ALIGN_PAGES
        self._bases = tuple(bases)
        self._total_pages = base
        # Zipf CDFs are shared across tenants with the same (universe,
        # alpha); a plain instance dict, deliberately not lru_cache
        # (module-level caches reachable from sweep workers are a
        # cross-cell leak, RPR206).
        self._cdf_cache: dict[tuple[int, float], np.ndarray] = {}
        self._scatter_cache: dict[int, tuple[int, int]] = {}

    @property
    def n_tenants(self) -> int:
        return len(self.tenants)

    @property
    def total_pages(self) -> int:
        """Size of the composed address space (all tenant regions)."""
        return self._total_pages

    def tenant_base(self, tenant_id: str) -> int:
        """Start of a tenant's address region."""
        return self._bases[self._tenant_index(tenant_id)]

    def _tenant_index(self, tenant_id: str) -> int:
        idx = self._index.get(tenant_id)
        if idx is None:
            raise ConfigError(
                f"WorkloadComposer: unknown tenant_id {tenant_id!r}"
            )
        return idx

    # -- per-tenant generation ----------------------------------------------

    def _cdf(self, universe: int, alpha: float) -> np.ndarray:
        key = (universe, alpha)
        cdf = self._cdf_cache.get(key)
        if cdf is None:
            cdf = _zipf_cdf(universe, alpha)
            self._cdf_cache[key] = cdf
        return cdf

    def _scatter(self, idx: int) -> tuple[int, int]:
        """Tenant's rank->page affine bijection ``(mult, offset)``.

        Scatters popularity ranks over the tenant's region (hot pages
        are not physically adjacent) in O(1) memory — a permutation
        table per tenant would be O(universe) per tenant, which a
        1000-tenant fleet cannot afford.  Substream 0 of the tenant's
        seed is reserved for this; epochs use substreams 1+.
        """
        cached = self._scatter_cache.get(idx)
        if cached is not None:
            return cached
        spec = self.tenants[idx]
        universe = spec.universe_pages
        if universe == 1:
            mult, offset = 1, 0
        else:
            rng = np.random.default_rng(
                (substream_seed(self.seed, spec.tenant_id), 0)
            )
            offset = int(rng.integers(0, universe))
            mult = int(rng.integers(1, universe))
            while math.gcd(mult, universe) != 1:
                mult = mult % (universe - 1) + 1
        self._scatter_cache[idx] = (mult, offset)
        return mult, offset

    def _epoch_count(self, caller: str, duration_s: float) -> int:
        """Epochs covering ``duration_s``; ``caller`` names the method in
        the :class:`ConfigError` for a bad duration or too many epochs."""
        if not (duration_s > 0.0 and math.isfinite(duration_s)):
            raise ConfigError(
                f"WorkloadComposer.{caller}: duration_s must be positive and "
                f"finite, got {duration_s}"
            )
        epochs = duration_s / self.epoch_s
        if epochs > MAX_EPOCHS:
            raise ConfigError(
                f"WorkloadComposer.{caller}: duration_s={duration_s} at "
                f"epoch_s={self.epoch_s} spans {epochs:.3g} epochs, more "
                f"than the cap of {MAX_EPOCHS}"
            )
        return max(1, math.ceil(epochs))

    @columnar(dtypes={"return": "(float64, uint64, bool)"})
    def _tenant_epoch(
        self, idx: int, epoch: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Generate tenant ``idx``'s requests for one epoch.

        Pure in (composer config, idx, epoch): the RNG stream is
        re-derived per call, so generation order — across tenants,
        across epochs, across compose()/tenant_trace() — cannot change
        the output.
        """
        spec = self.tenants[idx]
        t0 = epoch * self.epoch_s
        mid = t0 + self.epoch_s / 2.0
        rate = spec.base_iops * (
            1.0
            + spec.diurnal_amplitude
            * math.sin(
                2.0 * math.pi * (mid / spec.diurnal_period_s + spec.phase)
            )
        )
        rng = np.random.default_rng(
            (substream_seed(self.seed, spec.tenant_id), epoch + 1)
        )
        if spec.burst_prob > 0.0:
            if rng.random() < spec.burst_prob:
                rate *= spec.burst_factor
        count = int(rng.poisson(max(rate, 0.0) * self.epoch_s))
        if count == 0:
            return None
        # Uniform order statistics give the arrival times of a Poisson
        # process conditioned on its per-epoch count.
        times = t0 + self.epoch_s * np.sort(rng.random(count))
        cdf = self._cdf(spec.universe_pages, spec.zipf_alpha)
        ranks = np.searchsorted(cdf, rng.random(count), side="left").astype(
            np.int64
        )
        mult, offset = self._scatter(idx)
        pages = (ranks * mult + offset) % spec.universe_pages
        pages = (pages + self._bases[idx]).astype(np.uint64)
        is_read = rng.random(count) < spec.read_ratio
        return times, pages, is_read

    # -- composition --------------------------------------------------------

    @columnar(
        dtypes={
            "times": "float64",
            "tenant": "int32",
            "lba": "uint64",
            "is_read": "bool",
        }
    )
    def epoch_batch(self, epoch: int) -> ComposedBatch | None:
        """All tenants' requests for one epoch, merged by arrival time."""
        times_parts: list[np.ndarray] = []
        tenant_parts: list[np.ndarray] = []
        lba_parts: list[np.ndarray] = []
        read_parts: list[np.ndarray] = []
        for idx in range(len(self.tenants)):
            cell = self._tenant_epoch(idx, epoch)
            if cell is None:
                continue
            times, pages, is_read = cell
            times_parts.append(times)
            tenant_parts.append(np.full(len(times), idx, dtype=np.int32))
            lba_parts.append(pages)
            read_parts.append(is_read)
        if not times_parts:
            return None
        times = np.concatenate(times_parts)
        # Stable sort: simultaneous arrivals keep tenant-index order.
        order = np.argsort(times, kind="stable")
        return ComposedBatch(
            times=times[order],
            tenant=np.concatenate(tenant_parts)[order],
            lba=np.concatenate(lba_parts)[order],
            is_read=np.concatenate(read_parts)[order],
        )

    @columnar()
    def compose(
        self,
        duration_s: float | None = None,
        max_requests: int | None = None,
    ) -> Iterator[ComposedBatch]:
        """Yield the composed stream, one epoch batch at a time."""
        if duration_s is None and max_requests is None:
            raise ConfigError(
                "WorkloadComposer.compose: one of duration_s / max_requests "
                "is required"
            )
        n_epochs = (
            None if duration_s is None
            else self._epoch_count("compose", duration_s)
        )
        if max_requests is not None and max_requests < 1:
            raise ConfigError(
                f"WorkloadComposer.compose: max_requests must be >= 1, "
                f"got {max_requests}"
            )
        emitted = 0
        epoch = 0
        while n_epochs is None or epoch < n_epochs:
            batch = self.epoch_batch(epoch)
            epoch += 1
            if batch is None:
                continue
            if max_requests is not None and emitted + len(batch) > max_requests:
                keep = max_requests - emitted
                batch = ComposedBatch(
                    times=batch.times[:keep],
                    tenant=batch.tenant[:keep],
                    lba=batch.lba[:keep],
                    is_read=batch.is_read[:keep],
                )
            emitted += len(batch)
            if len(batch):
                yield batch
            if max_requests is not None and emitted >= max_requests:
                return

    @raises(TraceFormatError)
    def tenant_trace(self, tenant_id: str, duration_s: float) -> Trace:
        """Materialize one tenant's subsequence as a standalone trace.

        Byte-identical to that tenant's share of the composed stream
        over the same duration — the basis of the isolation property:
        a statically partitioned tenant must behave exactly as if it
        ran this trace alone on a cache of its quota size.
        """
        idx = self._tenant_index(tenant_id)
        n_epochs = self._epoch_count("tenant_trace", duration_s)
        times_parts: list[np.ndarray] = []
        lba_parts: list[np.ndarray] = []
        read_parts: list[np.ndarray] = []
        for epoch in range(n_epochs):
            cell = self._tenant_epoch(idx, epoch)
            if cell is None:
                continue
            times, pages, is_read = cell
            times_parts.append(times)
            lba_parts.append(pages)
            read_parts.append(is_read)
        n = sum(len(part) for part in times_parts)
        rec = empty_records(n)
        if n:
            rec["time"] = np.concatenate(times_parts)
            rec["lba"] = np.concatenate(lba_parts)
            rec["npages"] = 1
            rec["is_read"] = np.concatenate(read_parts)
        return Trace(rec, name=tenant_id)
