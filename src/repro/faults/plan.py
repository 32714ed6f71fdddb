"""Deterministic, seed-driven fault injection.

The paper's out-of-core joins (Section 6, Table 6) exist because real
GPU runs die at the memory cliff; production deployments additionally
lose devices and links.  A :class:`FaultPlan` describes a reproducible
fault workload — transient kernel faults, shrunk device-memory capacity
(OOM pressure), cluster link failures and stragglers, whole-device
failures — and hands out per-site :class:`FaultInjector` streams.

Design invariants, asserted by ``tests/faults/``:

* **Determinism** — every injection decision is a pure function of
  ``(plan.seed, site, draw index)``.  Each site gets its own
  ``numpy`` generator seeded from the plan seed and a stable hash of
  the site name, so adding an injection point at one site never
  perturbs the draws of another.
* **Isolation from the data path** — injectors never touch the
  workload RNGs (e.g. ``GPUContext.rng``) and never mutate relational
  data.  Faults only add *simulated recovery time* and *recovery
  traffic*; every recovery path reproduces the fault-free relational
  output bit for bit.
* **Bounded recovery** — faults are transient: a retry, retransmit or
  replay eventually succeeds.  ``max_retries`` bounds the number of
  *charged* failed attempts per event, mirroring the bounded-retry
  loops of MapReduce-style GPU join systems.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from ..errors import FaultPlanError

#: Canonical session counter names incremented by the injection points
#: (via ``TraceSession.count``) so fault/recovery totals surface in the
#: :class:`~repro.obs.metrics.MetricsRegistry`, the counters CSV and the
#: recovery-overhead report section.
FAULT_COUNTERS = (
    "faults_injected_kernel",
    "faults_injected_oom",
    "faults_injected_link",
    "faults_injected_device",
    "faults_injected_straggler",
    "fault_kernel_retries",
    "fault_retry_seconds",
    "fault_retransmit_bytes",
    "fault_retransmit_seconds",
    "fault_replays",
    "fault_replay_seconds",
    "fault_straggler_seconds",
    "degraded_operators",
    "degraded_extra_passes",
)


def site_seed(seed: int, site: str) -> int:
    """Stable (platform-independent) seed for one injection site."""
    return (int(seed) & 0xFFFFFFFF) ^ zlib.crc32(site.encode("utf-8"))


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault workload, applied via per-site injectors.

    All rates are per-event Bernoulli probabilities in ``[0, 1)``.
    The default plan injects nothing — every layer treats
    ``fault_plan=None`` and ``FaultPlan()`` identically on the happy
    path: at a fixed executor seed both give the same columns, row
    order and simulated seconds.  At ``seed=None`` two runs may differ
    in row order and seconds with *or* without a plan, because PHJ-UM's
    bucket-chain partitioner breaks ties with the unseeded context RNG.

    Attributes
    ----------
    seed:
        Base seed; together with the site name it fully determines
        every injection decision.
    kernel_fault_rate:
        Probability that one submitted kernel transiently faults and is
        retried with simulated backoff (idempotent re-execution).
    capacity_frac:
        When set, shrink every fault-planned device's
        :class:`~repro.gpusim.memory.DeviceMemory` to this fraction of
        its physical capacity *and* enforce it — the OOM-pressure
        injection that drives the planners' graceful degradation.
    link_failure_rate:
        Probability that one shuffle transfer (a directed link's bucket)
        fails and must be retransmitted.
    straggler_rate / straggler_slowdown:
        Probability that a device (compute step) or link (shuffle step)
        runs ``straggler_slowdown`` times slower than modeled.
    device_failure_rate:
        Probability that a device fails during one cluster compute
        superstep; its shard is replayed from the superstep checkpoint.
    max_retries:
        Bound on charged failed attempts per fault event.
    backoff_base_s:
        Simulated backoff before retry attempt ``k`` is
        ``backoff_base_s * 2**k`` (exponential).

    >>> plan = FaultPlan(seed=7, kernel_fault_rate=0.5)
    >>> a = plan.injector("gpu0")
    >>> b = plan.injector("gpu0")
    >>> [a.kernel_faults("probe") for _ in range(6)] == [
    ...     b.kernel_faults("probe") for _ in range(6)]
    True
    """

    seed: int = 0
    kernel_fault_rate: float = 0.0
    capacity_frac: Optional[float] = None
    link_failure_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_slowdown: float = 4.0
    device_failure_rate: float = 0.0
    max_retries: int = 3
    backoff_base_s: float = 50e-6

    def __post_init__(self):
        for name in (
            "kernel_fault_rate",
            "link_failure_rate",
            "straggler_rate",
            "device_failure_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise FaultPlanError(f"{name} must be in [0, 1), got {rate}")
        if self.capacity_frac is not None and not 0.0 < self.capacity_frac <= 1.0:
            raise FaultPlanError(
                f"capacity_frac must be in (0, 1], got {self.capacity_frac}"
            )
        if self.straggler_slowdown < 1.0:
            raise FaultPlanError("straggler_slowdown must be >= 1")
        if self.max_retries < 1:
            raise FaultPlanError("max_retries must be >= 1")
        if self.backoff_base_s < 0:
            raise FaultPlanError("backoff_base_s must be >= 0")

    @property
    def injects_anything(self) -> bool:
        """True when any injection point can fire."""
        return bool(
            self.kernel_fault_rate
            or self.capacity_frac is not None
            or self.link_failure_rate
            or self.straggler_rate
            or self.device_failure_rate
        )

    def injector(self, site: str) -> "FaultInjector":
        """A fresh deterministic injector stream for one site."""
        return FaultInjector(self, site)

    def capacity_bytes(self, device) -> Optional[int]:
        """Injected capacity for a device, or ``None`` (no pressure)."""
        if self.capacity_frac is None:
            return None
        return max(1, int(device.global_mem_bytes * self.capacity_frac))

    def backoff_seconds(self, attempt: int) -> float:
        """Simulated backoff before retry ``attempt`` (0-based)."""
        return self.backoff_base_s * (2.0 ** attempt)

    def without_capacity(self) -> "FaultPlan":
        """This plan minus the OOM pressure.

        Used by recovery paths that already degraded around the memory
        cliff (out-of-core chunks, cluster shards): transient faults
        keep injecting, but the degraded execution itself is not
        re-broken by the very pressure it is escaping.
        """
        if self.capacity_frac is None:
            return self
        return replace(self, capacity_frac=None)


@dataclass
class FaultEvent:
    """One injected fault, as recorded by the injector that drew it."""

    kind: str  #: "kernel" | "link" | "device" | "straggler" | "oom"
    site: str
    detail: str
    attempts: int = 1


class FaultInjector:
    """A deterministic per-site stream of injection decisions.

    One injector per injection site (one simulated device context, one
    cluster fabric, ...).  Decisions are drawn from a private generator
    seeded by ``(plan.seed, site)``; the draw *order* at a site is the
    site's own event order, which is deterministic for a fixed
    workload.  Injectors record every fired fault in :attr:`events` so
    tests and reports can audit injection without an active trace.
    """

    def __init__(self, plan: FaultPlan, site: str):
        self.plan = plan
        self.site = site
        self._rng = np.random.default_rng(site_seed(plan.seed, site))
        self.events: List[FaultEvent] = []
        self.counts: Dict[str, int] = {}

    def _note(self, kind: str, detail: str, attempts: int = 1) -> None:
        self.events.append(
            FaultEvent(kind=kind, site=self.site, detail=detail, attempts=attempts)
        )
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def _consecutive_failures(self, rate: float) -> int:
        """Failed Bernoulli(rate) draws before success, capped.

        Faults are transient by definition, so recovery always succeeds
        within ``max_retries`` charged attempts (the cap models the point
        where a real system escalates rather than spins).
        """
        if rate <= 0.0:
            return 0
        failures = 0
        while failures < self.plan.max_retries and self._rng.random() < rate:
            failures += 1
        return failures

    # -- injection points --------------------------------------------------

    def kernel_faults(self, kernel_name: str) -> int:
        """Failed attempts to charge before one kernel succeeds (>= 0)."""
        failures = self._consecutive_failures(self.plan.kernel_fault_rate)
        if failures:
            self._note("kernel", kernel_name, attempts=failures + 1)
        return failures

    def link_failures(self, src: int, dst: int) -> int:
        """Retransmissions one directed link's bucket needs (>= 0)."""
        failures = self._consecutive_failures(self.plan.link_failure_rate)
        if failures:
            self._note("link", f"{src}->{dst}", attempts=failures + 1)
        return failures

    def device_replays(self, step: str, device: int) -> int:
        """Lost executions of one device's superstep shard (>= 0)."""
        failures = self._consecutive_failures(self.plan.device_failure_rate)
        if failures:
            self._note("device", f"{step}@gpu{device}", attempts=failures + 1)
        return failures

    def straggler_factor(self, detail: str) -> float:
        """Slowdown multiplier for one device/link (1.0 = healthy)."""
        if self.plan.straggler_rate and self._rng.random() < self.plan.straggler_rate:
            self._note("straggler", detail)
            return self.plan.straggler_slowdown
        return 1.0

    def note_oom(self, detail: str) -> None:
        """Record that injected memory pressure triggered an OOM."""
        self._note("oom", detail)
