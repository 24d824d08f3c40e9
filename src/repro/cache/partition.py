"""Per-tenant partitioning of the SSD cache (ECI-Cache-style).

The shared cache is split into per-tenant *directories*: each tenant
gets its own :class:`~repro.cache.sets.CacheSets` sized to its quota, in
front of the shared RAID array.  A :class:`PartitionPlan` fixes the
static quota fractions and optionally enables dynamic reallocation,
where quotas follow an EWMA of per-tenant hit density (hits per
allocated page — ECI-Cache's efficiency signal, arXiv 1805.00976).

Reallocation rebuilds a tenant's directory at the new size strictly via
the public ``alloc`` surface, so the new directory's residency index
and set entries are built by the same code as any fill, and
``check_invariants`` holds across every resize.  Lines that survive a
resize are re-filled (one counted SSD write each) and lines that no
longer fit are dropped — the honest endurance cost of moving quota
around, visible in the per-tenant ``ssd_writes`` columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..errors import CacheError, ConfigError
from ..nvram.metabuffer import PageState
from .base import TrafficCounters
from .common import SetAssocPolicy
from .sets import CacheSets

#: Policies whose cached lines are always CLEAN.  Only these may be
#: dynamically resized: a resize rebuilds the directory from its clean
#: lines, which would silently discard dirty/old/delta state (KDD's DEZ
#: pages, LeavO's latest versions) for any other policy.
RESIZABLE_POLICIES = frozenset({"wt", "wa"})

#: A tenant's quota only moves when the target differs from the current
#: allocation by more than 1/16th — migration traffic is real SSD wear,
#: so one-page drifts must not rebuild directories every window.
_RESIZE_DEADBAND = 16


@dataclass(frozen=True)
class PartitionPlan:
    """Quota fractions for splitting one cache across tenants.

    ``fractions[i]`` is tenant *i*'s share of the total cache pages.
    With ``dynamic=True`` the fractions are only the starting point:
    every ``realloc_period`` routed accesses the partitioner re-divides
    the budget proportionally to the EWMA hit-density scores, flooring
    each tenant at ``min_fraction`` of the budget.
    """

    fractions: tuple[float, ...]
    dynamic: bool = False
    #: Routed accesses between reallocation passes (dynamic mode).
    realloc_period: int = 50_000
    #: Approximate per-tenant floor, as a fraction of the whole cache.
    min_fraction: float = 0.02
    #: Smoothing for the hit-density score (1.0 = last window only).
    ewma_alpha: float = 0.5

    def __post_init__(self) -> None:
        if not self.fractions:
            raise ConfigError(
                "PartitionPlan.fractions: a zero-tenant plan is not allowed"
            )
        for i, frac in enumerate(self.fractions):
            if not frac > 0.0:
                raise ConfigError(
                    f"PartitionPlan.fractions[{i}] must be positive, got {frac}"
                )
        total = sum(self.fractions)
        if total > 1.0 + 1e-9:
            raise ConfigError(
                f"PartitionPlan.fractions: quota fractions must sum to <= 1, "
                f"got {total:.6f}"
            )
        if self.realloc_period < 1:
            raise ConfigError(
                f"PartitionPlan.realloc_period must be >= 1, "
                f"got {self.realloc_period}"
            )
        if not 0.0 < self.min_fraction <= 1.0 / len(self.fractions):
            raise ConfigError(
                f"PartitionPlan.min_fraction must be in (0, 1/n_tenants], "
                f"got {self.min_fraction} for {len(self.fractions)} tenants"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError(
                f"PartitionPlan.ewma_alpha must be in (0, 1], "
                f"got {self.ewma_alpha}"
            )

    @property
    def n_tenants(self) -> int:
        return len(self.fractions)

    @classmethod
    def equal(cls, n_tenants: int, **kwargs) -> "PartitionPlan":
        """An even split across ``n_tenants`` tenants."""
        if n_tenants < 1:
            raise ConfigError(
                f"PartitionPlan.n_tenants must be >= 1, got {n_tenants}"
            )
        return cls(fractions=(1.0 / n_tenants,) * n_tenants, **kwargs)

    def quotas(self, total_pages: int) -> tuple[int, ...]:
        """Static page quotas for a cache of ``total_pages`` pages."""
        if total_pages < self.n_tenants:
            raise ConfigError(
                f"PartitionPlan: total_pages={total_pages} cannot give "
                f"{self.n_tenants} tenants a page each"
            )
        return tuple(
            max(1, int(total_pages * frac)) for frac in self.fractions
        )


@dataclass
class ReallocationStats:
    """What dynamic repartitioning did over a run."""

    passes: int = 0
    resizes: int = 0
    migrated_lines: int = 0
    dropped_lines: int = 0
    #: Final quota per tenant, recorded at :meth:`PartitionedCache.finish`.
    final_quotas: list[int] = field(default_factory=list)

    def row(self) -> dict[str, int]:
        return {
            "realloc_passes": self.passes,
            "resizes": self.resizes,
            "migrated_lines": self.migrated_lines,
            "dropped_lines": self.dropped_lines,
        }


class PartitionedCache:
    """N per-tenant cache directories over one shared array.

    Routes each access to its tenant's policy instance; the policies
    were built by the caller with per-tenant quota-sized configs (the
    harness does this from ``plan.quotas``).  Per-tenant
    :class:`TrafficCounters` — and per-tenant flash models, when
    attached — come for free from the per-policy split.
    """

    def __init__(
        self,
        policies: Sequence[SetAssocPolicy],
        plan: PartitionPlan,
        total_pages: int,
    ) -> None:
        if len(policies) != plan.n_tenants:
            raise ConfigError(
                f"PartitionedCache: plan has {plan.n_tenants} tenants but "
                f"{len(policies)} policies were supplied"
            )
        for i, policy in enumerate(policies):
            if not isinstance(policy, SetAssocPolicy):
                raise ConfigError(
                    f"PartitionedCache: tenant {i} policy {policy.name!r} "
                    f"has no set-associative directory to partition"
                )
        capacity = sum(p.sets.capacity_pages for p in policies)
        if capacity > total_pages:
            raise ConfigError(
                f"PartitionedCache: per-tenant directories hold {capacity} "
                f"pages, exceeding total_pages={total_pages}"
            )
        if plan.dynamic:
            for i, policy in enumerate(policies):
                if policy.name not in RESIZABLE_POLICIES:
                    raise ConfigError(
                        f"PartitionedCache: dynamic reallocation requires a "
                        f"clean-line policy ({sorted(RESIZABLE_POLICIES)}), "
                        f"tenant {i} uses {policy.name!r}"
                    )
        self.policies = tuple(policies)
        self.plan = plan
        self.total_pages = total_pages
        self.realloc = ReallocationStats()
        self._quotas = [p.sets.capacity_pages for p in policies]
        self._scores = [0.0 for _ in policies]
        self._hits_mark = [p.stats.hits for p in policies]
        self._since_realloc = 0

    @property
    def quotas(self) -> tuple[int, ...]:
        """Current per-tenant quota in pages."""
        return tuple(self._quotas)

    def access(self, tenant: int, lba: int, is_read: bool) -> None:
        """Route one page access to its tenant's policy."""
        self.policies[tenant].access(lba, is_read)
        if self.plan.dynamic:
            self._since_realloc += 1
            if self._since_realloc >= self.plan.realloc_period:
                self.reallocate()

    def finish(self) -> None:
        for policy in self.policies:
            policy.finish()
        self.realloc.final_quotas = list(self._quotas)

    def combined_stats(self) -> TrafficCounters:
        """Aggregate counters across all tenants."""
        total = TrafficCounters()
        for policy in self.policies:
            s = policy.stats
            total.read_hits += s.read_hits
            total.read_misses += s.read_misses
            total.write_hits += s.write_hits
            total.write_misses += s.write_misses
            total.fill_writes += s.fill_writes
            total.data_writes += s.data_writes
            total.delta_writes += s.delta_writes
            total.meta_writes += s.meta_writes
            total.ssd_reads += s.ssd_reads
            total.bypasses += s.bypasses
        return total

    # -- dynamic reallocation ------------------------------------------------

    def reallocate(self) -> None:
        """One repartitioning pass: refresh scores, move quota, rebuild."""
        self._since_realloc = 0
        alpha = self.plan.ewma_alpha
        for i, policy in enumerate(self.policies):
            hits = policy.stats.hits
            density = (hits - self._hits_mark[i]) / max(1, self._quotas[i])
            self._hits_mark[i] = hits
            self._scores[i] = (1.0 - alpha) * self._scores[i] + alpha * density
        self.realloc.passes += 1
        for i, target in enumerate(self._target_quotas()):
            policy = self.policies[i]
            if policy.ssd is not None:
                # the tenant's flash device keeps the size it was built with
                target = min(target, policy.ssd.capacity_pages - policy.meta_pages)
            current = self._quotas[i]
            if abs(target - current) <= current // _RESIZE_DEADBAND:
                continue
            self._resize_tenant(i, target)

    def _target_quotas(self) -> list[int]:
        total_score = sum(self._scores)
        if total_score <= 0.0:
            return list(self._quotas)
        budget = sum(self.plan.fractions)
        floor = self.plan.min_fraction
        fracs = [
            max(floor, budget * score / total_score) for score in self._scores
        ]
        scale = budget / sum(fracs)
        return [
            max(1, int(self.total_pages * frac * scale)) for frac in fracs
        ]

    def _resize_tenant(self, idx: int, new_pages: int) -> None:
        """Rebuild one tenant's directory at ``new_pages``.

        Surviving lines re-enter the new directory in deterministic
        recency order (per old set, LRU first) through the public
        ``alloc`` path; each migrated line costs one counted fill write
        and each old slot is trimmed on the flash model, so dynamic
        partitioning pays its endurance bill in the same ledger as
        normal cache traffic.
        """
        policy = self.policies[idx]
        old = policy.sets
        lines = [
            line
            for set_idx in range(old.n_sets)
            for line in old.lines_in_set(set_idx)
        ]
        for line in lines:
            if line.state is not PageState.CLEAN:
                raise CacheError(
                    f"tenant {idx}: cannot resize a directory holding a "
                    f"{line.state.name} line (page {line.lba})"
                )
            policy._ssd_trim(policy._data_lpn(line))
        config = policy.config
        policy.sets = CacheSets(
            new_pages, ways=config.ways, group_pages=config.group_pages
        )
        for line in lines:
            placed = policy.sets.alloc(line.lba, PageState.CLEAN, line.aux)
            if placed is None:
                self.realloc.dropped_lines += 1
                continue
            policy._ssd_write(policy._data_lpn(placed), "fill")
            self.realloc.migrated_lines += 1
        # The directory rounds down to whole sets; book the realized
        # capacity so quota accounting and hit-density denominators
        # describe pages that actually exist.
        self._quotas[idx] = policy.sets.capacity_pages
        self.realloc.resizes += 1

    def check_invariants(self) -> None:
        for policy in self.policies:
            policy.check_invariants()
