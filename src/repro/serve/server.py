"""The multi-tenant query server: admission, caching, stream scheduling.

:class:`QueryServer` turns the one-query-at-a-time executor into a
simulated serving system.  The design keeps the repo's central
invariant — **scheduling never touches data** — by splitting every
query into two halves:

* **correctness** runs through the unchanged
  :class:`~repro.query.executor.QueryExecutor` at admission time, under
  a private :class:`~repro.obs.session.TraceSession` that captures each
  kernel's *solo* duration.  The output is therefore bit-identical to a
  direct ``execute()`` of the same plan, for every path: cached,
  uncached, sharded, fault-degraded.
* **timing** replays those kernel durations on the shared
  :class:`~repro.serve.streams.StreamScheduler`, where concurrent
  queries contend for bandwidth and individual kernels stretch.

Admission control reserves each query's estimated device footprint
against a :class:`~repro.gpusim.memory.DeviceMemory` before it may
start (bytes-only reservations — same OOM arithmetic as real
allocations, no backing arrays), holds a bounded priority queue in
front of the streams, and rejects with a typed
:class:`~repro.errors.AdmissionError` when the queue overflows, a query
cannot ever fit, or the server is closed.

Queries over *registered* relations flow through two caches (see
:mod:`repro.serve.cache`): hits on the plan cache skip planner work by
pinning resolved algorithms; hits on the result cache skip execution
entirely and cost one cache-lookup work item on the device.  Updating a
registered relation invalidates every dependent entry, so a stale read
is impossible by construction.  Fault-injected queries bypass both
caches (degraded recovery may permute row order) but still complete —
faults degrade the one query, never the server.

The reliability layer on top (this PR's subject):

* **Deadlines** — a per-query simulated deadline propagates as a
  :class:`~repro.cancel.CancellationToken` through the correctness half
  (checked at kernel/superstep/operator boundaries) and as a
  stream-scheduler deadline through the timing half.  Expiry anywhere
  produces a typed ``"cancelled"`` outcome and frees every reservation.
* **Tenant quotas** — :class:`~repro.serve.quota.TenantQuota` caps one
  tenant's concurrency, reserved bytes and queue depth; capped tenants
  are skipped at admission, not allowed to block others.
* **Retry budget** — :class:`~repro.serve.quota.RetryBudget` bounds the
  simulated time spent recovering injected faults server-wide.
* **Brownout** — a hysteretic
  :class:`~repro.serve.brownout.BrownoutController` degrades service
  under pressure (fusion off, cache population suspended) and sheds
  low-priority queued work at the highest level.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cancel import CancellationToken
from ..errors import (
    AdmissionError,
    DeviceOutOfMemoryError,
    GracefulDegradationError,
    QueryCancelledError,
    ReproError,
    ServeConfigError,
)
from ..gpusim.device import A100, DeviceSpec
from ..gpusim.memory import DeviceMemory, MemoryReservation
from ..joins.base import JoinConfig
from ..obs.metrics import MetricsRegistry
from ..obs.session import TraceSession
from ..query.executor import QueryExecutor
from ..query.plan import (
    Join,
    PlanNode,
    QueryResult,
    Scan,
    plan_relations,
    validate_plan,
)
from ..relational.relation import Relation
from .brownout import LEVEL_NAMES, BrownoutController, BrownoutPolicy
from .cache import (
    PinnedPlan,
    PlanCache,
    ResultCache,
    output_nbytes,
    pin_plan,
    plan_signature,
)
from .quota import RetryBudget, TenantQuota, TenantState
from .streams import QueryCompletion, StreamScheduler, WorkItem

#: Fallback simulated seconds for one result-cache hit when the device
#: declares no launch overhead (a lookup plus a pointer hand-off).
FALLBACK_CACHE_HIT_COST_S = 5e-6

#: Device-bytes reserved per byte of scanned input: inputs resident plus
#: roughly 2x working state (partitions/tables/output), the high-water
#: shape of the paper's operators.
DEFAULT_MEM_OVERHEAD = 3.0


@dataclass
class QueryRequest:
    """One submitted query, waiting for or undergoing service."""

    query_id: int
    plan: PlanNode
    arrival_s: float
    priority: int = 0
    optimize: bool = True
    fault_plan: Optional[object] = None
    tag: str = ""
    #: Absolute simulated deadline (serving clock), or None.
    deadline_s: Optional[float] = None
    tenant: str = "default"


@dataclass
class QueryOutcome:
    """The server's record of one finished (or rejected) query.

    ``status`` is one of:

    * ``"completed"`` — output is bit-identical to a direct
      ``execute()`` (``deadline_missed`` may still be set if it
      finished late);
    * ``"rejected"`` — turned away at admission; ``error`` is a typed
      :class:`~repro.errors.AdmissionError`;
    * ``"cancelled"`` — cooperatively cancelled (deadline while queued,
      executing, or replaying on a stream); ``error`` is a typed
      :class:`~repro.errors.QueryCancelledError`;
    * ``"failed"`` — a typed runtime failure (e.g. every degradation
      level of a fault-recovery ladder exceeded memory); the server
      survives, the query carries the error.
    """

    query_id: int
    tag: str
    status: str  #: "completed" | "rejected" | "cancelled" | "failed"
    arrival_s: float
    output: object = None
    result: Optional[QueryResult] = None
    admitted_s: float = 0.0
    finish_s: float = 0.0
    stream: int = -1
    solo_seconds: float = 0.0
    reserved_bytes: int = 0
    plan_cache_hit: bool = False
    result_cache_hit: bool = False
    subresult_hits: int = 0
    degraded: bool = False
    error: Optional[ReproError] = None
    tenant: str = "default"
    deadline_s: Optional[float] = None
    #: Completed, but past its deadline (contention stretched it).
    deadline_missed: bool = False
    #: Served while the brownout controller was degraded (fusion off,
    #: cache population suspended); the output is still bit-identical.
    brownout_degraded: bool = False

    @property
    def queue_wait_s(self) -> float:
        return self.admitted_s - self.arrival_s

    @property
    def service_s(self) -> float:
        return self.finish_s - self.admitted_s

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def stretch(self) -> float:
        """Service time over solo time (1.0 = ran as if alone)."""
        if self.solo_seconds <= 0:
            return 1.0
        return self.service_s / self.solo_seconds


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _bit_identical(a, b) -> bool:
    """Exact (ordered, byte-for-byte) equality of two query outputs."""
    if isinstance(a, Relation) and isinstance(b, Relation):
        cols_a, cols_b = a.columns(), b.columns()
        if list(cols_a) != list(cols_b):
            return False
        return all(np.array_equal(cols_a[n], cols_b[n]) for n in cols_a)
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return False
        return all(
            np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a
        )
    return type(a) is type(b) and bool(a == b)


@dataclass
class ServeReport:
    """Aggregate serving statistics over one server run."""

    submitted: int
    completed: int
    rejected: int
    cancelled: int
    failed: int
    makespan_s: float
    throughput_qps: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    mean_queue_wait_s: float
    mean_stretch: float
    peak_concurrency: int
    solo_seconds_total: float
    counters: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"queries: {self.submitted} submitted, {self.completed} "
            f"completed, {self.rejected} rejected, "
            f"{self.cancelled} cancelled, {self.failed} failed",
            f"makespan: {self.makespan_s * 1e3:.3f} ms simulated "
            f"(serial solo time {self.solo_seconds_total * 1e3:.3f} ms)",
            f"throughput: {self.throughput_qps:.1f} queries/s simulated",
            f"latency: p50 {self.latency_p50_s * 1e3:.3f} ms, "
            f"p95 {self.latency_p95_s * 1e3:.3f} ms, "
            f"p99 {self.latency_p99_s * 1e3:.3f} ms",
            f"queueing: mean wait {self.mean_queue_wait_s * 1e3:.3f} ms, "
            f"mean stretch {self.mean_stretch:.3f}, "
            f"peak concurrency {self.peak_concurrency}",
        ]
        for name in sorted(self.counters):
            lines.append(f"counter: {name} = {self.counters[name]:g}")
        return "\n".join(lines)


@dataclass
class _InFlight:
    """Book-keeping for one admitted query in service."""

    request: QueryRequest
    result: QueryResult
    reservation: MemoryReservation
    admitted_s: float
    solo_seconds: float
    plan_cache_hit: bool
    result_cache_hit: bool
    subresult_hits: int
    degraded: bool
    #: Typed error from the correctness half (cancellation or runtime
    #: failure); the partial kernels still occupy a stream while they
    #: drain, and the outcome carries this error.
    error: Optional[ReproError] = None
    #: Simulated seconds this query spent in fault-retry recovery
    #: (spent against the server's RetryBudget).
    retry_seconds: float = 0.0
    brownout_degraded: bool = False


class QueryServer:
    """A simulated multi-tenant serving layer over the query executor.

    Parameters mirror :class:`~repro.query.executor.QueryExecutor`
    (``device``/``config``/``seed``/``shards``/``interconnect`` pass
    straight through) plus the serving knobs:

    streams:
        Logical concurrent streams (the closed-loop concurrency cap).
    interference:
        Bandwidth contention fraction of the occupancy model; see
        :class:`~repro.serve.streams.StreamScheduler`.
    queue_depth:
        Admission-queue bound; arrivals beyond it are rejected with
        ``AdmissionError(reason="queue-full")`` (backpressure).
    mem_overhead:
        Reserved device bytes per scanned input byte.
    session:
        Optional :class:`~repro.obs.session.TraceSession`: the server
        mirrors its counters into it and opens one ``serve`` span per
        finished query (args carry the serving-clock interval).
    tenants:
        Optional ``{tenant: TenantQuota}`` map; tenants not in the map
        (including the implicit ``"default"``) are unlimited.  Quotas
        can also be set later via :meth:`set_quota`.
    retry_budget:
        Server-wide :class:`~repro.serve.quota.RetryBudget` for
        fault-retry recovery time (a float is shorthand for
        ``RetryBudget(initial_s=value)``).  ``None`` disables the cap.
    brownout:
        Overload response: ``True`` for a default
        :class:`~repro.serve.brownout.BrownoutController`, a
        :class:`~repro.serve.brownout.BrownoutPolicy` or controller for
        custom thresholds, ``None`` (default) to disable.
    default_deadline_s:
        Relative deadline (simulated seconds after arrival) applied to
        submissions that do not pass their own; ``None`` means no
        implicit deadline.
    verify_cache_inserts:
        Debug oracle: before populating the result cache, re-execute
        the plan on a clean executor and assert the output is
        bit-identical (the cache-poisoning guard).  Defaults to the
        ``REPRO_SERVE_VERIFY_CACHE`` environment variable.  With
        tiering, the reference executor runs on a cold fork of the
        runtime — the placement-independence oracle.
    tiering:
        ``True`` attaches a :class:`~repro.tier.TieredRuntime` sharing
        this server's device memory (segments compete with admission
        reservations); a pre-built runtime is used as-is.  Submissions
        feed the placement policy's popularity stats, admission demotes
        cache segments before blocking on memory, and brownout
        escalation demotes the cache before shedding queued work.

    >>> import numpy as np
    >>> from repro.query.plan import Scan, Join
    >>> from repro.relational.relation import Relation
    >>> r = Relation.from_key_payloads(
    ...     np.arange(64, dtype=np.int32),
    ...     [np.arange(64, dtype=np.int32)], payload_prefix="r")
    >>> s = Relation.from_key_payloads(
    ...     np.arange(64, dtype=np.int32).repeat(2),
    ...     [np.arange(128, dtype=np.int32)], payload_prefix="s")
    >>> server = QueryServer(streams=2, seed=0)
    >>> _ = server.register("r", r); _ = server.register("s", s)
    >>> plan = Join(Scan(r), Scan(s), algorithm="PHJ-OM")
    >>> first = server.query(plan)
    >>> second = server.query(plan)       # served from the result cache
    >>> second.result_cache_hit and first.output.equals_unordered(second.output)
    True
    """

    def __init__(
        self,
        streams: int = 4,
        interference: float = 0.6,
        device: DeviceSpec = A100,
        config: Optional[JoinConfig] = None,
        seed: Optional[int] = None,
        shards: int = 1,
        interconnect="nvlink-mesh",
        queue_depth: int = 64,
        mem_overhead: float = DEFAULT_MEM_OVERHEAD,
        plan_cache_entries: int = 256,
        result_cache_bytes: int = 64 << 20,
        enable_plan_cache: bool = True,
        enable_result_cache: bool = True,
        cache_hit_cost_s: Optional[float] = None,
        session: Optional[TraceSession] = None,
        tenants: Optional[Dict[str, TenantQuota]] = None,
        retry_budget=None,
        brownout=None,
        default_deadline_s: Optional[float] = None,
        verify_cache_inserts: Optional[bool] = None,
        tiering=None,
    ):
        if queue_depth < 0:
            raise ServeConfigError(f"queue_depth must be >= 0, got {queue_depth}")
        if tiering is not None and tiering is not False and shards > 1:
            raise ServeConfigError(
                f"tiering is incompatible with shards > 1 (got shards={shards})"
            )
        if mem_overhead < 1.0:
            raise ServeConfigError(
                f"mem_overhead must be >= 1 (inputs are resident), "
                f"got {mem_overhead}"
            )
        self.device = device
        self.config = config
        self.seed = seed
        self.shards = shards
        self.interconnect = interconnect
        self.queue_depth = queue_depth
        self.mem_overhead = mem_overhead
        # A hit costs one kernel launch on this device (so it scales with
        # scaled-down device geometry like everything else).
        self.cache_hit_cost_s = (
            cache_hit_cost_s
            if cache_hit_cost_s is not None
            else (device.kernel_launch_overhead_s or FALLBACK_CACHE_HIT_COST_S)
        )
        self.scheduler = StreamScheduler(streams, interference=interference)
        self.memory = DeviceMemory(capacity_bytes=device.global_mem_bytes)
        # ``tiering=True`` builds a TieredRuntime over the server's own
        # DeviceMemory, so segment residency competes with admission
        # reservations for the same simulated bytes; a pre-built
        # TieredRuntime is used as-is (it may own a private memory).
        if tiering is True:
            from ..tier import TieredRuntime

            tiering = TieredRuntime(device=device, memory=self.memory)
        self.tiering = tiering or None
        self.plan_cache = PlanCache(max_entries=plan_cache_entries)
        self.result_cache = ResultCache(max_bytes=result_cache_bytes)
        self.enable_plan_cache = enable_plan_cache
        self.enable_result_cache = enable_result_cache
        self.metrics = MetricsRegistry()
        self.session = session
        self.quotas: Dict[str, TenantQuota] = dict(tenants or {})
        self.tenants: Dict[str, TenantState] = {}
        if isinstance(retry_budget, (int, float)):
            retry_budget = RetryBudget(initial_s=float(retry_budget))
        self.retry_budget: Optional[RetryBudget] = retry_budget
        if brownout is True:
            brownout = BrownoutController()
        elif isinstance(brownout, BrownoutPolicy):
            brownout = BrownoutController(brownout)
        self.brownout: Optional[BrownoutController] = brownout or None
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ServeConfigError(
                f"default_deadline_s must be positive, got {default_deadline_s}"
            )
        self.default_deadline_s = default_deadline_s
        if verify_cache_inserts is None:
            verify_cache_inserts = bool(
                os.environ.get("REPRO_SERVE_VERIFY_CACHE", "")
            )
        self.verify_cache_inserts = verify_cache_inserts
        self.outcomes: List[QueryOutcome] = []
        self._catalog: Dict[str, Relation] = {}
        self._names_by_id: Dict[int, str] = {}
        #: id(relation) -> (relation, fingerprint); the strong reference
        #: keeps ids from being recycled under the memo.
        self._fp_memo: Dict[int, Tuple[Relation, str]] = {}
        self._arrivals: List[Tuple[float, int, QueryRequest]] = []
        self._queue: List[Tuple[int, float, int, QueryRequest]] = []
        self._inflight: Dict[int, _InFlight] = {}
        self._next_id = 0
        self._closed = False

    # -- the catalog -------------------------------------------------------

    def register(self, name: str, relation: Relation) -> Relation:
        """Register *relation* under *name* for cache dependency tracking.

        Queries may scan unregistered relations too — caching still works
        (keys are content fingerprints) but only registered relations can
        be :meth:`update`-d, and only updates trigger invalidation.
        """
        if name in self._catalog:
            raise ServeConfigError(
                f"relation {name!r} already registered; use update()"
            )
        self._catalog[name] = relation
        self._names_by_id[id(relation)] = name
        self._fingerprint(relation)
        if self.tiering is not None:
            # Segment eagerly under the catalog name so tier counters,
            # popularity and placement spans read in catalog terms.
            self.tiering.register(relation, name=name)
        return relation

    def update(self, name: str, relation: Relation) -> int:
        """Replace a registered relation, evicting every dependent cache
        entry; returns the number of entries invalidated."""
        if name not in self._catalog:
            raise ServeConfigError(f"relation {name!r} is not registered")
        old = self._catalog[name]
        self._names_by_id.pop(id(old), None)
        # Drop the fingerprint memo too: it holds a strong reference to
        # the replaced relation, which would pin every superseded
        # version in host memory across a long update-heavy run.
        self._fp_memo.pop(id(old), None)
        self._catalog[name] = relation
        self._names_by_id[id(relation)] = name
        self._fingerprint(relation)
        invalidated = self.plan_cache.invalidate(name)
        invalidated += self.result_cache.invalidate(name)
        if self.tiering is not None:
            # Resident segments of the replaced relation are stale copies;
            # evict them and drop the old version's placement history.
            freed = self.tiering.invalidate_relation(old)
            if freed:
                self._count("serve.tier_invalidated_bytes", freed)
            self.tiering.register(relation, name=name)
        self._count("serve.invalidated_entries", invalidated)
        return invalidated

    def relation(self, name: str) -> Relation:
        if name not in self._catalog:
            raise ServeConfigError(f"relation {name!r} is not registered")
        return self._catalog[name]

    def _fingerprint(self, relation: Relation) -> str:
        from .cache import relation_fingerprint

        memo = self._fp_memo.get(id(relation))
        if memo is not None:
            return memo[1]
        fingerprint = relation_fingerprint(relation)
        self._fp_memo[id(relation)] = (relation, fingerprint)
        return fingerprint

    # -- tenants -----------------------------------------------------------

    def set_quota(self, tenant: str, quota: Optional[TenantQuota]) -> None:
        """Install (or clear, with ``None``) a quota for *tenant*."""
        if quota is None:
            self.quotas.pop(tenant, None)
        else:
            self.quotas[tenant] = quota

    def _tenant_state(self, tenant: str) -> TenantState:
        state = self.tenants.get(tenant)
        if state is None:
            state = self.tenants[tenant] = TenantState()
        return state

    def _tenant_capped(self, request: QueryRequest, estimate: int) -> bool:
        """True when admitting *request* now would exceed its tenant's quota."""
        quota = self.quotas.get(request.tenant)
        if quota is None:
            return False
        state = self._tenant_state(request.tenant)
        if (
            quota.max_concurrent is not None
            and state.inflight >= quota.max_concurrent
        ):
            return True
        if (
            quota.max_reserved_bytes is not None
            and state.reserved_bytes + estimate > quota.max_reserved_bytes
        ):
            return True
        return False

    def _plan_deps(self, plan: PlanNode) -> List[str]:
        """Registered names the plan reads (for invalidation tracking)."""
        names = []
        for relation in plan_relations(plan):
            name = self._names_by_id.get(id(relation))
            if name is not None and name not in names:
                names.append(name)
        return names

    # -- metrics -----------------------------------------------------------

    def _count(self, name: str, value: float = 1.0) -> None:
        self.metrics.increment(name, value)
        if self.session is not None:
            self.session.count(name, value)

    def _gauge(self, name: str, value: float) -> None:
        self.metrics.record_max(name, value)
        if self.session is not None:
            self.session.metrics.record_max(name, value)

    # -- submission --------------------------------------------------------

    @property
    def clock_s(self) -> float:
        """The serving clock (simulated seconds)."""
        return self.scheduler.clock_s

    def estimate_bytes(self, plan: PlanNode) -> int:
        """Admission-control footprint estimate for *plan*."""
        scanned = sum(rel.total_bytes for rel in plan_relations(plan))
        return int(scanned * self.mem_overhead)

    def submit(
        self,
        plan: PlanNode,
        at_s: Optional[float] = None,
        priority: int = 0,
        optimize: bool = True,
        fault_plan=None,
        tag: str = "",
        deadline_s: Optional[float] = None,
        tenant: str = "default",
    ) -> int:
        """Enqueue a query arriving at ``at_s`` (default: now).

        ``deadline_s`` is *relative*: the query's absolute deadline is
        ``arrival + deadline_s`` on the serving clock (falling back to
        the server's ``default_deadline_s``).  Expiry while queued,
        executing, or replaying on a stream yields a typed
        ``"cancelled"`` outcome.  ``tenant`` attributes the query for
        quota accounting.

        Raises :class:`~repro.errors.AdmissionError` immediately for
        queries that can never run (``reason="oversized"``: the footprint
        estimate exceeds device capacity even on an idle server) or when
        the server is :meth:`close`-d (``reason="closed"``).  Queue
        overflow, quota and budget decisions happen at arrival time and
        surface as rejected :class:`QueryOutcome`\\ s carrying the error.
        """
        if self._closed:
            raise AdmissionError("server is closed", reason="closed")
        validate_plan(plan)
        arrival = self.clock_s if at_s is None else float(at_s)
        if arrival < self.clock_s:
            raise ServeConfigError(
                f"arrival {arrival} precedes the serving clock {self.clock_s}"
            )
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        if deadline_s is not None and deadline_s <= 0:
            raise ServeConfigError(
                f"deadline_s must be positive, got {deadline_s}"
            )
        estimate = self.estimate_bytes(plan)
        capacity = self.memory.capacity_bytes
        if capacity is not None and estimate > capacity:
            self._count("serve.rejected_oversized")
            raise AdmissionError(
                f"query needs ~{estimate} reserved bytes; device capacity "
                f"is {capacity}",
                reason="oversized",
            )
        request = QueryRequest(
            query_id=self._next_id,
            plan=plan,
            arrival_s=arrival,
            priority=priority,
            optimize=optimize,
            fault_plan=fault_plan,
            tag=tag,
            deadline_s=None if deadline_s is None else arrival + deadline_s,
            tenant=tenant,
        )
        self._next_id += 1
        self._tenant_state(tenant).submitted += 1
        heapq.heappush(self._arrivals, (arrival, request.query_id, request))
        self._count("serve.submitted")
        if self.tiering is not None:
            # Popularity feed: the placement policy sees the workload's
            # template mix (the driver's Zipf skew) at submission time,
            # before any of the query's segments are accessed.
            self.tiering.note_plan(plan)
        return request.query_id

    def close(self, cancel_queued: bool = False) -> None:
        """Stop accepting submissions.

        By default already-submitted work (queued and future arrivals)
        still runs.  With ``cancel_queued=True``, pending arrivals and
        queued requests are cancelled immediately with typed
        ``"cancelled"`` outcomes (``reason="server-closed"``); in-flight
        queries always drain — their reservations are freed at
        completion either way.
        """
        self._closed = True
        if not cancel_queued:
            return
        pending = [request for _, _, request in self._arrivals]
        self._arrivals.clear()
        queued = [entry[3] for entry in sorted(self._queue)]
        self._queue.clear()
        for request in queued:
            self._tenant_state(request.tenant).queued -= 1
        for request in queued + pending:
            self._cancel_unstarted(request, "server-closed")

    # -- the event loop ----------------------------------------------------

    def run(self, until_s: Optional[float] = None) -> List[QueryOutcome]:
        """Serve until all submitted work drains (or ``until_s``).

        Deterministic event order at equal timestamps: completions are
        processed before arrivals, streams in index order, queued
        queries in (priority desc, arrival, id) order.  Returns the full
        outcome list (completed and rejected), in finish order.
        """
        limit = float("inf") if until_s is None else float(until_s)
        while True:
            next_arrival = self._arrivals[0][0] if self._arrivals else float("inf")
            if (
                not self.scheduler.busy
                and not self._queue
                and next_arrival == float("inf")
            ):
                break
            horizon = min(next_arrival, limit)
            completion = self.scheduler.advance_to(horizon)
            if completion is not None:
                self._complete(completion)
                self._brownout_tick()
                self._admit_from_queue()
                continue
            # The clock reached the horizon without a query finishing.
            if next_arrival > limit:
                break
            while self._arrivals and self._arrivals[0][0] <= self.clock_s:
                _, _, request = heapq.heappop(self._arrivals)
                self._arrive(request)
            self._brownout_tick()
            self._admit_from_queue()
        return self.outcomes

    def query(
        self,
        plan: PlanNode,
        priority: int = 0,
        optimize: bool = True,
        fault_plan=None,
        tag: str = "",
        deadline_s: Optional[float] = None,
        tenant: str = "default",
    ) -> QueryOutcome:
        """Submit one query now, serve until it finishes, return its outcome.

        Raises the outcome's typed error if the query did not complete
        (rejected, cancelled, or failed), so interactive callers see
        backpressure and deadline expiry as exceptions rather than a
        status field.
        """
        query_id = self.submit(
            plan, priority=priority, optimize=optimize,
            fault_plan=fault_plan, tag=tag,
            deadline_s=deadline_s, tenant=tenant,
        )
        self.run()
        outcome = next(o for o in self.outcomes if o.query_id == query_id)
        if outcome.error is not None:
            raise outcome.error
        return outcome

    def report(self) -> ServeReport:
        """Aggregate statistics over everything served so far."""
        done = [o for o in self.outcomes if o.status == "completed"]
        rejected = [o for o in self.outcomes if o.status == "rejected"]
        cancelled = [o for o in self.outcomes if o.status == "cancelled"]
        failed = [o for o in self.outcomes if o.status == "failed"]
        latencies = [o.latency_s for o in done]
        makespan = max((o.finish_s for o in done), default=0.0)
        return ServeReport(
            submitted=len(self.outcomes),
            completed=len(done),
            rejected=len(rejected),
            cancelled=len(cancelled),
            failed=len(failed),
            makespan_s=makespan,
            throughput_qps=len(done) / makespan if makespan > 0 else 0.0,
            latency_p50_s=_percentile(latencies, 50),
            latency_p95_s=_percentile(latencies, 95),
            latency_p99_s=_percentile(latencies, 99),
            mean_queue_wait_s=(
                sum(o.queue_wait_s for o in done) / len(done) if done else 0.0
            ),
            mean_stretch=(
                sum(o.stretch for o in done) / len(done) if done else 0.0
            ),
            peak_concurrency=self.scheduler.peak_concurrency,
            solo_seconds_total=sum(o.solo_seconds for o in done),
            counters=self.metrics.as_dict(derived=False),
        )

    # -- admission ---------------------------------------------------------

    def _arrive(self, request: QueryRequest) -> None:
        if request.deadline_s is not None and self.clock_s >= request.deadline_s:
            # Dead on arrival (e.g. the run() horizon only reached it
            # past its deadline): never queue it.
            self._cancel_unstarted(request, "deadline-queued")
            return
        if (
            self.brownout is not None
            and self.brownout.shedding
            and request.priority <= self.brownout.policy.shed_priority_max
        ):
            self._reject(request, "brownout-shed")
            return
        if (
            self.retry_budget is not None
            and request.fault_plan is not None
            and getattr(request.fault_plan, "injects_anything", True)
            and self.retry_budget.exhausted(self.clock_s)
        ):
            self.retry_budget.rejections += 1
            self._reject(request, "retry-budget")
            return
        quota = self.quotas.get(request.tenant)
        state = self._tenant_state(request.tenant)
        if (
            quota is not None
            and quota.max_queue_depth is not None
            and state.queued >= quota.max_queue_depth
        ):
            self._reject(request, "tenant-queue-full")
            return
        if len(self._queue) >= self.queue_depth + self._admissible_now():
            # The queue bound covers *waiting* queries; anything the
            # streams can absorb immediately never occupies a slot.
            self._reject(request, "queue-full")
            return
        heapq.heappush(
            self._queue,
            (-request.priority, request.arrival_s, request.query_id, request),
        )
        state.queued += 1
        self._gauge("serve.queue_depth_peak", len(self._queue))

    def _admissible_now(self) -> int:
        return self.scheduler.free_streams()

    def _reject(self, request: QueryRequest, reason: str) -> None:
        error = AdmissionError(
            f"query {request.query_id} rejected at admission: {reason} "
            f"(queue depth {self.queue_depth}, "
            f"{self.scheduler.free_streams()} free streams)",
            reason=reason,
        )
        self._count(f"serve.rejected_{reason.replace('-', '_')}")
        self._tenant_state(request.tenant).rejected += 1
        self.outcomes.append(
            QueryOutcome(
                query_id=request.query_id,
                tag=request.tag,
                status="rejected",
                arrival_s=request.arrival_s,
                finish_s=self.clock_s,
                error=error,
                tenant=request.tenant,
                deadline_s=request.deadline_s,
            )
        )

    def _cancel_unstarted(self, request: QueryRequest, reason: str) -> None:
        """Record a cancelled outcome for a query that never started.

        Covers deadlines expiring while queued and server close with
        ``cancel_queued=True``; no reservation was ever taken, so there
        is nothing to free.
        """
        error = QueryCancelledError(
            f"query {request.query_id} cancelled before admission ({reason})",
            reason=reason,
            site="queue",
            deadline_s=request.deadline_s,
        )
        self._count("serve.cancelled_queued")
        self._tenant_state(request.tenant).cancelled += 1
        self.outcomes.append(
            QueryOutcome(
                query_id=request.query_id,
                tag=request.tag,
                status="cancelled",
                arrival_s=request.arrival_s,
                finish_s=self.clock_s,
                error=error,
                tenant=request.tenant,
                deadline_s=request.deadline_s,
            )
        )

    def _drop_queue_entries(self, entries) -> None:
        for entry in entries:
            self._queue.remove(entry)
            self._tenant_state(entry[3].tenant).queued -= 1
        heapq.heapify(self._queue)

    def _sweep_expired_queued(self) -> None:
        """Cancel queued queries whose deadline has already passed.

        They are never started: starting doomed work would only steal
        streams and memory from queries that can still make it.
        """
        expired = [
            entry
            for entry in self._queue
            if entry[3].deadline_s is not None
            and self.clock_s >= entry[3].deadline_s
        ]
        if not expired:
            return
        self._drop_queue_entries(expired)
        for entry in sorted(expired):
            self._cancel_unstarted(entry[3], "deadline-queued")

    def _admit_from_queue(self) -> None:
        """Admit queued queries in priority order until service blocks.

        Two deliberately different blocking behaviours:

        * a *memory*-blocked candidate stops admission entirely (no
          lower-priority query may jump the reservation queue — that
          would starve large queries forever);
        * a *quota*-capped tenant's candidates are skipped (its own
          order preserved) so one tenant at its cap cannot block the
          rest of the queue.
        """
        self._sweep_expired_queued()
        while self._queue and self.scheduler.free_streams() > 0:
            admitted = False
            for entry in sorted(self._queue):
                request = entry[3]
                estimate = self.estimate_bytes(request.plan)
                if self._tenant_capped(request, estimate):
                    self._tenant_state(request.tenant).quota_deferrals += 1
                    self._count("serve.quota_deferrals")
                    continue
                try:
                    reservation = self._reserve_demoting(request, estimate)
                except DeviceOutOfMemoryError:
                    if not self.scheduler.busy:
                        # Nothing holds memory yet the head still cannot
                        # fit: unservable under the current catalog, so
                        # reject rather than deadlock the queue.
                        self._drop_queue_entries([entry])
                        self._reject(request, "oversized")
                        admitted = True  # re-scan: the queue changed
                        break
                    return  # blocked behind running queries' reservations
                self._drop_queue_entries([entry])
                self._start(request, reservation)
                admitted = True
                break
            if not admitted:
                return  # every candidate is quota-capped

    def _reserve_demoting(
        self, request: QueryRequest, estimate: int
    ) -> MemoryReservation:
        """Reserve admission bytes, demoting tier-cache segments first.

        With tiering sharing the server's device memory, resident
        segments are *discretionary* bytes: before an admission
        reservation blocks (or an idle-server candidate is rejected as
        oversized), the cache gives bytes back — queries beat cached
        segments, which merely fall to the CPU tier.
        """
        try:
            return self.memory.reserve(estimate, label=f"query-{request.query_id}")
        except DeviceOutOfMemoryError:
            if self.tiering is None or self.tiering.cache.memory is not self.memory:
                raise
            cache = self.tiering.cache
            capacity = self.memory.capacity_bytes or 0
            shortfall = estimate - max(0, capacity - self.memory.current_bytes)
            if shortfall <= 0 or cache.resident_bytes == 0:
                raise
            freed = cache.demote_bytes(shortfall, policy=self.tiering.policy)
            if freed:
                self._count("serve.tier_admission_demoted_bytes", freed)
            return self.memory.reserve(estimate, label=f"query-{request.query_id}")

    # -- brownout ----------------------------------------------------------

    def _brownout_tick(self) -> None:
        """Feed the controller the current pressure; shed when at SHED."""
        ctl = self.brownout
        if ctl is None:
            return
        queue_frac = (
            len(self._queue) / self.queue_depth
            if self.queue_depth > 0
            else (1.0 if self._queue else 0.0)
        )
        occupancy = self.scheduler.active_count / self.scheduler.num_streams
        capacity = self.memory.capacity_bytes
        memory_frac = (
            self.memory.current_bytes / capacity if capacity else 0.0
        )
        before = ctl.level
        level = ctl.update(self.clock_s, queue_frac, occupancy, memory_frac)
        if level != before:
            self._count("serve.brownout_transitions")
            self._count(f"serve.brownout_to_{LEVEL_NAMES[level]}")
            if level > before and self.tiering is not None:
                # Escalation gives back cache bytes before any queued
                # work is shed — demoted segments just run on the CPU
                # tier, which beats rejecting queries outright.
                cache = self.tiering.cache
                target = int(
                    cache.resident_bytes * ctl.policy.cache_demote_fraction
                )
                if target > 0:
                    freed = cache.demote_bytes(
                        target, policy=self.tiering.policy
                    )
                    if freed:
                        self._count("serve.brownout_cache_demoted_bytes", freed)
            if self.session is not None:
                with self.session.span(
                    f"brownout:{LEVEL_NAMES[before]}->{LEVEL_NAMES[level]}",
                    category="brownout",
                    clock_s=self.clock_s,
                    pressure=ctl.pressure,
                ):
                    pass
        self._gauge("serve.brownout_level_peak", level)
        if ctl.shedding and self._queue:
            self._shed_queued(ctl.policy.shed_fraction)

    def _shed_queued(self, fraction: float) -> None:
        """Drop the lowest-priority, newest queued requests."""
        count = max(1, int(len(self._queue) * fraction))
        victims = sorted(
            self._queue, key=lambda e: (-e[0], -e[1], -e[2])
        )[:count]
        self._drop_queue_entries(victims)
        for entry in victims:
            self._count("serve.brownout_shed_queued")
            self._reject(entry[3], "brownout-shed")

    # -- execution ---------------------------------------------------------

    def _start(self, request: QueryRequest, reservation: MemoryReservation) -> None:
        try:
            flight = self._execute(request, reservation)
        except BaseException:
            # The correctness half raised something _execute does not
            # convert to an outcome (a config bug, a failed verify
            # assertion): never leak the admission reservation.
            reservation.free()
            raise
        if flight.retry_seconds > 0 and self.retry_budget is not None:
            self.retry_budget.spend(flight.retry_seconds)
            self._count("serve.retry_budget_spent_s", flight.retry_seconds)
        items = self._work_items(flight)
        # A query already cancelled or failed in the correctness half
        # only drains its partial kernels — no further deadline monitoring.
        deadline = request.deadline_s if flight.error is None else None
        stream = self.scheduler.start(
            request.query_id, items, at_s=self.clock_s, deadline_s=deadline
        )
        state = self._tenant_state(request.tenant)
        state.inflight += 1
        state.reserved_bytes += reservation.nbytes
        self._inflight[request.query_id] = flight
        self._count("serve.admitted")
        self._gauge("serve.concurrency_peak", self.scheduler.active_count)
        self._gauge("serve.reserved_bytes_peak", self.memory.current_bytes)
        del stream  # recorded by the scheduler; completion carries it

    def _execute(
        self, request: QueryRequest, reservation: MemoryReservation
    ) -> _InFlight:
        """Run the query's correctness half; timing replays later.

        Cache population happens here (admission order), which is
        deterministic for a fixed submission schedule.  With a deadline,
        a :class:`~repro.cancel.CancellationToken` is active for the
        whole half — kernel, superstep and operator boundaries check it
        — and expiry converts to a ``"cancelled"`` in-flight record
        whose partial kernels still drain on a stream.  Typed runtime
        failures (recovery ladder exhausted, simulated OOM) likewise
        become ``"failed"`` records instead of crashing the server.
        """
        fault_plan = request.fault_plan
        injects = fault_plan is not None and getattr(
            fault_plan, "injects_anything", True
        )
        degrade = self.brownout is not None and self.brownout.degraded
        # Degraded recovery and sharded shuffles may permute row order;
        # caching those outputs would break bit-identity with execute().
        lookup_ok = not injects and self.shards == 1
        # Brownout suspends cache *population* only (hits still serve):
        # pinning and verification are optional work the server stops
        # paying under pressure.
        populate_ok = lookup_ok and not degrade
        cache_key = ("opt" if request.optimize else "raw",
                     plan_signature(request.plan, self._fingerprint))
        deps = self._plan_deps(request.plan)

        if lookup_ok and self.enable_result_cache:
            entry = self.result_cache.get(cache_key)
            if entry is not None:
                self._count("serve.result_cache_hits")
                result = QueryResult(output=entry.value, trace=[])
                return _InFlight(
                    request=request,
                    result=result,
                    reservation=reservation,
                    admitted_s=self.clock_s,
                    solo_seconds=self.cache_hit_cost_s,
                    plan_cache_hit=False,
                    result_cache_hit=True,
                    subresult_hits=0,
                    degraded=False,
                    brownout_degraded=degrade,
                )
            self._count("serve.result_cache_misses")

        plan = request.plan
        plan_cache_hit = False
        if lookup_ok and self.enable_plan_cache:
            pinned = self.plan_cache.get(cache_key)
            if pinned is not None:
                plan = pinned.value.plan
                plan_cache_hit = True
                self._count("serve.plan_cache_hits")
            else:
                self._count("serve.plan_cache_misses")

        subresult_hits = 0
        if lookup_ok and self.enable_result_cache:
            plan, subresult_hits = self._substitute_subresults(
                plan, request.optimize
            )
            if subresult_hits:
                self._count("serve.subresult_hits", subresult_hits)

        captured: List[Tuple[Join, Relation]] = []
        executor = QueryExecutor(
            device=self.device,
            config=self.config,
            seed=self.seed,
            shards=self.shards,
            interconnect=self.interconnect,
            fault_plan=fault_plan,
            enable_fusion=not degrade,
            tiering=self.tiering,
            join_output_hook=(
                (lambda node, rel: captured.append((node, rel)))
                if populate_ok and self.enable_result_cache
                else None
            ),
        )
        session = TraceSession(f"serve-q{request.query_id}")
        error: Optional[ReproError] = None
        token = None
        if request.deadline_s is not None:
            token = CancellationToken(
                deadline_s=request.deadline_s,
                start_s=self.clock_s,
                label=f"q{request.query_id}",
            )
        try:
            if token is not None:
                with token.activated():
                    result = executor.execute(
                        plan, optimize=request.optimize, trace=session
                    )
            else:
                result = executor.execute(
                    plan, optimize=request.optimize, trace=session
                )
        except QueryCancelledError as err:
            # Cooperative unwind: every kernel charged so far stays on
            # the session and will occupy a stream while it drains.
            error = err
            result = QueryResult(output=None, trace=[], session=session)
            self._count("serve.cancelled_executing")
        except (GracefulDegradationError, DeviceOutOfMemoryError) as err:
            error = err
            result = QueryResult(output=None, trace=[], session=session)
            self._count("serve.failed_executing")

        if populate_ok and error is None:
            if (
                self.enable_plan_cache
                and not plan_cache_hit
                and subresult_hits == 0
                and cache_key not in self.plan_cache
            ):
                self.plan_cache.put(
                    cache_key,
                    PinnedPlan(
                        plan=pin_plan(
                            request.plan, result.trace, optimize=request.optimize
                        ),
                        pinned_from=request.plan.describe(),
                    ),
                    deps=deps,
                )
            if self.enable_result_cache:
                self._check_cache_insert(request, result.output)
                self.result_cache.put(
                    cache_key,
                    result.output,
                    deps=deps,
                    nbytes=output_nbytes(result.output),
                )
                for node, relation in captured:
                    self.result_cache.put(
                        ("opt" if request.optimize else "raw",
                         plan_signature(node, self._fingerprint)),
                        relation,
                        deps=deps,
                        nbytes=relation.total_bytes,
                    )

        return _InFlight(
            request=request,
            result=result,
            reservation=reservation,
            admitted_s=self.clock_s,
            solo_seconds=sum(
                event.record.seconds for event in session.kernel_events()
            ),
            plan_cache_hit=plan_cache_hit,
            result_cache_hit=False,
            subresult_hits=subresult_hits,
            degraded=error is None
            and any(op.extras.get("degraded", 0.0) > 0 for op in result.trace),
            error=error,
            retry_seconds=session.metrics.value("fault_retry_seconds"),
            brownout_degraded=degrade,
        )

    def _check_cache_insert(self, request: QueryRequest, output) -> None:
        """Debug oracle against cache poisoning: assert the output about
        to be cached is bit-identical to a clean, fault-free execute().

        Off by default (it re-executes the plan); enabled via the
        ``verify_cache_inserts`` knob or ``REPRO_SERVE_VERIFY_CACHE``.
        """
        if not self.verify_cache_inserts:
            return
        # With tiering, the reference runs on a *cold fork* of the
        # runtime (same segmentation, empty cache): tiered outputs are
        # placement-independent by construction, so any mismatch is
        # corruption, not ordering.
        reference = QueryExecutor(
            device=self.device,
            config=self.config,
            seed=self.seed,
            shards=self.shards,
            interconnect=self.interconnect,
            tiering=None if self.tiering is None else self.tiering.fork_cold(),
        ).execute(request.plan, optimize=request.optimize)
        if not _bit_identical(output, reference.output):
            raise AssertionError(
                f"cache poisoning guard: query {request.query_id} output "
                f"differs from a clean execute(); refusing to populate "
                f"the result cache"
            )
        self._count("serve.cache_inserts_verified")

    def _substitute_subresults(
        self, plan: PlanNode, optimize: bool
    ) -> Tuple[PlanNode, int]:
        """Swap cached join intermediates in as scans.

        Only a Join subtree whose *parent is also a Join* is replaced:
        feeding the parent the identical materialized relation cannot
        change any downstream bit.  Under a Project or Aggregate parent
        the executor's pushdown/fusion rewrites would take a different
        path, so those subtrees always re-execute.
        """
        from dataclasses import replace

        hits = 0

        def lookup(node: Join) -> Optional[Relation]:
            key = ("opt" if optimize else "raw",
                   plan_signature(node, self._fingerprint))
            if key not in self.result_cache:
                return None
            entry = self.result_cache.get(key)
            value = entry.value if entry is not None else None
            return value if isinstance(value, Relation) else None

        def walk_child(node: PlanNode) -> PlanNode:
            nonlocal hits
            if isinstance(node, Join):
                cached = lookup(node)
                if cached is not None:
                    hits += 1
                    return Scan(cached, label="cached-subresult")
                return walk(node)
            return walk(node)

        def walk(node: PlanNode) -> PlanNode:
            if isinstance(node, Join):
                return replace(
                    node, left=walk_child(node.left), right=walk_child(node.right)
                )
            if hasattr(node, "child"):
                return replace(node, child=walk(node.child))
            return node

        return walk(plan), hits

    def _work_items(self, flight: _InFlight) -> List[WorkItem]:
        if flight.result_cache_hit:
            return [WorkItem("result-cache-hit", self.cache_hit_cost_s)]
        session = flight.result.session
        if session is not None and session.kernel_events():
            return [
                WorkItem(event.name, event.record.seconds)
                for event in session.kernel_events()
            ]
        # Kernel-free plans (pure scans) still occupy a stream briefly.
        return [WorkItem("noop", self.cache_hit_cost_s)]

    # -- completion --------------------------------------------------------

    def _complete(self, completion: QueryCompletion) -> None:
        flight = self._inflight.pop(completion.query_id)
        request = flight.request
        reserved = flight.reservation.nbytes
        flight.reservation.free()
        state = self._tenant_state(request.tenant)
        state.inflight -= 1
        state.reserved_bytes -= reserved

        error: Optional[ReproError] = flight.error
        if completion.cancelled:
            # The scheduler released the stream at a kernel boundary
            # past the deadline (contention stretched the query).
            error = QueryCancelledError(
                f"query {completion.query_id} cancelled on stream "
                f"{completion.stream}: deadline "
                f"{request.deadline_s:.6f}s passed at "
                f"{completion.finish_s:.6f}s",
                reason="deadline-stream",
                site=f"stream:{completion.stream}",
                deadline_s=request.deadline_s,
                consumed_s=completion.finish_s - completion.start_s,
            )
        if isinstance(error, QueryCancelledError):
            status = "cancelled"
        elif error is not None:
            status = "failed"
        else:
            status = "completed"
        deadline_missed = (
            status == "completed"
            and request.deadline_s is not None
            and completion.finish_s > request.deadline_s
        )

        outcome = QueryOutcome(
            query_id=completion.query_id,
            tag=request.tag,
            status=status,
            arrival_s=request.arrival_s,
            output=flight.result.output if status == "completed" else None,
            result=flight.result if status == "completed" else None,
            admitted_s=flight.admitted_s,
            finish_s=completion.finish_s,
            stream=completion.stream,
            solo_seconds=(
                completion.solo_seconds  # only the kernels that ran
                if completion.cancelled
                else flight.solo_seconds
            ),
            reserved_bytes=reserved,
            plan_cache_hit=flight.plan_cache_hit,
            result_cache_hit=flight.result_cache_hit,
            subresult_hits=flight.subresult_hits,
            degraded=flight.degraded,
            error=error,
            tenant=request.tenant,
            deadline_s=request.deadline_s,
            deadline_missed=deadline_missed,
            brownout_degraded=flight.brownout_degraded,
        )
        self.outcomes.append(outcome)
        if status == "completed":
            self._count("serve.completed")
            state.completed += 1
            if deadline_missed:
                self._count("serve.deadline_missed")
        elif status == "cancelled":
            self._count("serve.cancelled")
            state.cancelled += 1
        else:
            self._count("serve.failed")
            state.failed += 1
        if outcome.degraded:
            self._count("serve.degraded_queries")
        if outcome.brownout_degraded:
            self._count("serve.brownout_degraded_queries")
        if self.session is not None:
            with self.session.span(
                f"serve:q{outcome.query_id}" + (f":{outcome.tag}" if outcome.tag else ""),
                category="serve",
                status=outcome.status,
                tenant=outcome.tenant,
                stream=outcome.stream,
                arrival_s=outcome.arrival_s,
                admitted_s=outcome.admitted_s,
                finish_s=outcome.finish_s,
                latency_s=outcome.latency_s,
                stretch=outcome.stretch,
                result_cache_hit=outcome.result_cache_hit,
                plan_cache_hit=outcome.plan_cache_hit,
                degraded=outcome.degraded,
            ):
                pass
