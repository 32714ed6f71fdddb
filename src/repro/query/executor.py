"""Plan execution with optimization passes.

``execute(plan)`` validates, optimizes, and runs a plan bottom-up,
accumulating simulated operator costs into a trace.  Optimizations:

* ``Project`` over ``Join`` -> join-side projection pushdown;
* ``Aggregate`` over ``Join`` -> fused join + aggregation.

Both fire automatically; ``execute(..., optimize=False)`` runs the plan
literally for comparison (the delta is exactly ext02's measurement).

Every Join and Aggregate runs on one execution backend, chosen once when
the :class:`QueryExecutor` is built: :class:`ShardedBackend` for
``shards > 1``, :class:`TieredBackend` for ``tiering=``, otherwise
:class:`SingleDeviceBackend`.  Fusion applies only on the single-device
backend.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..aggregation.planner import make_groupby_algorithm
from ..cancel import current_token
from ..cluster.sharded import sharded_group_by, sharded_join
from ..errors import (
    DeviceOutOfMemoryError,
    JoinConfigError,
    ShardedExecutionWarning,
)
from ..faults.recovery import resilient_group_by, resilient_join
from ..obs.session import TraceSession, current_session
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..joins.base import JoinConfig
from ..joins.fused import FusedJoinAggregate
from ..joins.planner import make_algorithm, resolve_join_algorithm
from ..relational.relation import Relation
from .plan import (
    Aggregate,
    Join,
    OperatorTrace,
    PlanNode,
    Project,
    QueryResult,
    Scan,
    aggregate_input_columns,
    operator_trace,
    validate_plan,
)


def _group_inputs(node: Aggregate, child: Relation):
    """The key column and the value columns an Aggregate folds."""
    keys = child.column(node.group_column)
    values = {
        spec.column: child.column(spec.column)
        for spec in node.aggregates
        if spec.op != "count"
    }
    return keys, values


def _ladder_extras(result) -> Dict[str, float]:
    """Phase seconds of the rung that ran, plus the ladder's decisions."""
    return dict(getattr(result.result, "phase_seconds", {}), **result.extras)


# -- execution backends --------------------------------------------------------
#
# Chosen once per executor.  Each runs one Join or Aggregate operator and
# returns ``(output, OperatorTrace)``; ``fuses`` says whether the
# executor may fold an Aggregate-over-Join into one fused pipeline.


class SingleDeviceBackend:
    """Every operator on one simulated device, on its recovery ladder.

    With ``fault_plan=None`` no capacity is enforced, so the ladder's
    first rung cannot fail and is exactly the algorithm's own run (same
    context, kernels, RNG stream and rows): there is no separate plain
    path.  ``join_output_hook`` fires for fault-free, unprojected joins.
    """

    fuses = True

    def __init__(self, device: DeviceSpec, seed, fault_plan, join_output_hook):
        self.device = device
        self.seed = seed
        self.fault_plan = fault_plan
        self.join_output_hook = join_output_hook if fault_plan is None else None

    def join(self, node: Join, left: Relation, right: Relation, config: JoinConfig):
        result = resilient_join(
            left, right, algorithm=node.algorithm, device=self.device,
            config=config, seed=self.seed, fault_plan=self.fault_plan,
        )
        if self.join_output_hook is not None and config.projection is None:
            self.join_output_hook(node, result.output)
        return result.output, operator_trace(
            "Join", result.algorithm, result.total_seconds, result.matches,
            _ladder_extras(result),
        )

    def aggregate(self, node: Aggregate, child: Relation):
        keys, values = _group_inputs(node, child)
        result = resilient_group_by(
            keys, values, list(node.aggregates), algorithm=node.algorithm,
            device=self.device, seed=self.seed, fault_plan=self.fault_plan,
        )
        return result.output, operator_trace(
            "Aggregate", result.algorithm, result.total_seconds, result.groups,
            _ladder_extras(result),
        )

    def fused_aggregate(
        self, node: Aggregate, left: Relation, right: Relation, config: JoinConfig
    ):
        """Aggregate-over-Join folded during the join's materialization.

        Raises :class:`~repro.errors.DeviceOutOfMemoryError` under the
        fault plan's memory pressure (see :meth:`unfused_aggregate`).
        """
        join_algorithm = make_algorithm(
            resolve_join_algorithm(node.child.algorithm, left, right).algorithm,
            config,
        )
        groupby_algorithm = None
        if node.algorithm != "auto":
            groupby_algorithm = make_groupby_algorithm(node.algorithm)
        result = FusedJoinAggregate(join_algorithm, groupby_algorithm).run(
            left, right, group_column=node.group_column,
            aggregates=list(node.aggregates), device=self.device,
            seed=self.seed, fuse=True, fault_plan=self.fault_plan,
        )
        joined = result.join_result.algorithm
        grouped = result.groupby_result.algorithm
        return result.output, operator_trace(
            "FusedJoinAggregate", f"{joined}+{grouped}", result.total_seconds,
            result.groupby_result.groups,
            {"fusion_credit_s": result.fusion_credit_seconds},
            label=f"{joined} + {grouped}",
        )

    def unfused_aggregate(
        self, node: Aggregate, left: Relation, right: Relation, config: JoinConfig
    ):
        """The fused pipeline's OOM fallback: each stage recovers on its
        own ladder (identical rows, fusion credit forfeited)."""
        joined, join_op = self.join(
            node.child, left, right,
            replace(config, projection=aggregate_input_columns(node)),
        )
        output, agg_op = self.aggregate(node, joined)
        return output, operator_trace(
            "JoinAggregate", f"{join_op.algorithm}+{agg_op.algorithm}",
            join_op.seconds + agg_op.seconds, agg_op.rows,
            {"degraded": 1.0, "join_s": join_op.seconds, "aggregate_s": agg_op.seconds},
            label=f"degraded {join_op.algorithm} + {agg_op.algorithm}",
        )


class ShardedBackend:
    """Every operator shuffled across a simulated N-device cluster
    (:mod:`repro.cluster`); the cost is the cluster clock.  A
    *fault_plan*'s transient faults inject on every device and link."""

    fuses = False

    def __init__(self, device: DeviceSpec, seed, shards: int, interconnect, fault_plan):
        self.device = device
        self.seed = seed
        self.shards = shards
        self.interconnect = interconnect
        self.fault_plan = fault_plan

    def join(self, node: Join, left: Relation, right: Relation, config: JoinConfig):
        result = sharded_join(
            left, right, algorithm=node.algorithm, device=self.device,
            num_devices=self.shards, interconnect=self.interconnect,
            config=config, seed=self.seed, fault_plan=self.fault_plan,
        )
        return result.output, operator_trace(
            "Join", result.algorithm, result.total_seconds, result.matches,
            result.step_seconds, label=f"{result.algorithm} x{self.shards}",
        )

    def aggregate(self, node: Aggregate, child: Relation):
        keys, values = _group_inputs(node, child)
        result = sharded_group_by(
            keys, values, list(node.aggregates), algorithm=node.algorithm,
            device=self.device, num_devices=self.shards,
            interconnect=self.interconnect, seed=self.seed,
            fault_plan=self.fault_plan,
        )
        return result.output, operator_trace(
            "Aggregate", result.algorithm, result.total_seconds, result.groups,
            result.step_seconds, label=f"{result.algorithm} x{self.shards}",
        )


class TieredBackend:
    """Joins over two base-relation scans and aggregates over one, split
    across a :class:`~repro.tier.TieredRuntime`'s GPU/CPU tiers; every
    other operator runs on the single-device *fallback*."""

    fuses = False

    def __init__(self, runtime, fallback: SingleDeviceBackend):
        self.runtime = runtime
        self.fallback = fallback

    def join(self, node: Join, left: Relation, right: Relation, config: JoinConfig):
        if (
            config.projection is None
            and isinstance(node.left, Scan)
            and isinstance(node.right, Scan)
        ):
            ran = self.runtime.run_join(
                left, right, config=config,
                fault_plan=self.fallback.fault_plan, seed=self.fallback.seed,
            )
            if ran is not None:
                return ran
        return self.fallback.join(node, left, right, config)

    def aggregate(self, node: Aggregate, child: Relation):
        if isinstance(node.child, Scan):
            ran = self.runtime.run_group_by(
                child, node,
                fault_plan=self.fallback.fault_plan, seed=self.fallback.seed,
            )
            if ran is not None:
                return ran
        return self.fallback.aggregate(node, child)

class QueryExecutor:
    """Executes logical plans on a simulated device or device cluster.

    ``shards=N`` with ``N > 1`` runs every Join and Aggregate operator
    sharded across a simulated N-device cluster (see
    :mod:`repro.cluster`): inputs are shuffled on the operator key over
    *interconnect*, each device runs the unchanged single-device
    algorithm on its shard, and the operator cost becomes the cluster
    clock (max over device timelines plus shuffle drains).  Results are
    bit-identical to the single-device run; ``shards=1`` (default) is
    exactly the single-device executor.

    ``fault_plan=`` applies a :class:`~repro.faults.FaultPlan` to every
    operator: transient kernel faults retry with simulated backoff, and
    (injected or real) :class:`~repro.errors.DeviceOutOfMemoryError`
    degrades the operator to its partitioned/out-of-core variant instead
    of raising, recording ``degraded=`` in the operator trace.  OOM
    pressure (``capacity_frac``) is a single-device mechanism and
    conflicts with ``shards > 1``; sharded operators inject the plan's
    transient faults (kernel retries, device replays, stragglers, link
    retransmits) and recover to the fault-free output.

    ``tiering=`` attaches a :class:`~repro.tier.TieredRuntime`: joins
    over two base-relation scans and aggregates over one base-relation
    scan are split into a GPU sub-operator over cache-resident segments
    and a CPU sub-operator over cold ones (output bit-identical to the
    untiered run for every placement).  Tiering is a single-device
    residency mechanism and conflicts with ``shards > 1``; with a
    ``fault_plan``, ``capacity_frac`` pressure shrinks the segment cache
    (graceful demotion to the CPU tier) instead of OOM-failing, and
    kernel faults retry inside the tier contexts as usual.
    """

    def __init__(
        self,
        device: DeviceSpec = A100,
        config: Optional[JoinConfig] = None,
        seed: Optional[int] = None,
        shards: int = 1,
        interconnect="nvlink-mesh",
        fault_plan=None,
        join_output_hook=None,
        enable_fusion: bool = True,
        tiering=None,
    ):
        if shards < 1:
            raise JoinConfigError(f"shards must be >= 1, got {shards}")
        if tiering is not None and shards > 1:
            # Segment residency is per-device state; a sharded run would
            # need per-shard caches, which the cluster layer does not
            # model.  Conflict loudly rather than silently untier.
            raise JoinConfigError(
                f"tiering is incompatible with shards > 1 (got shards={shards})"
            )
        if (
            shards > 1
            and fault_plan is not None
            and fault_plan.capacity_frac is not None
        ):
            # OOM-pressure degradation (re-planning to out-of-core) is a
            # single-device recovery; silently dropping the pressure would
            # make a "tested" fault plan vacuous, so conflict loudly.
            raise JoinConfigError(
                "fault_plan.capacity_frac (device-OOM pressure) is "
                "incompatible with shards > 1; use "
                "fault_plan.without_capacity() for sharded runs"
            )
        self.device = device
        self.config = config or JoinConfig()
        self.seed = seed
        self.shards = shards
        self.interconnect = interconnect
        self.fault_plan = fault_plan
        self.join_output_hook = join_output_hook
        self.tiering = tiering
        # ``enable_fusion=False`` runs Aggregate-over-Join unfused even
        # on one device (bit-identical output, fusion credit forfeited).
        # The serving layer's brownout controller uses it to shed the
        # fused pipeline's peak-memory footprint under pressure.
        self.enable_fusion = enable_fusion
        # ``join_output_hook(join_node, output)`` fires after each
        # single-device, fault-free, unprojected join; the serving layer
        # caches these intermediates as sub-results.
        self._single = SingleDeviceBackend(device, seed, fault_plan, join_output_hook)
        if shards > 1:
            self._backend = ShardedBackend(device, seed, shards, interconnect, fault_plan)
        elif tiering is not None:
            self._backend = TieredBackend(tiering, self._single)
        else:
            self._backend = self._single
        self._session: Optional[TraceSession] = None

    def execute(
        self,
        plan: PlanNode,
        optimize: bool = True,
        trace: Optional[TraceSession] = None,
    ) -> QueryResult:
        """Run a validated plan; pass ``trace`` (or activate a
        :class:`~repro.obs.session.TraceSession`) to capture one span per
        operator with its kernels nested underneath."""
        validate_plan(plan)
        self._session = trace if trace is not None else current_session()
        operator_traces: List[OperatorTrace] = []
        if self._session is not None:
            # Activate so the per-operator GPUContexts report into it even
            # when the session was passed explicitly rather than entered.
            with self._session.activated():
                with self._session.span(f"query:{plan.describe()}", category="query"):
                    output = self._run(plan, operator_traces, optimize)
        else:
            output = self._run(plan, operator_traces, optimize)
        return QueryResult(output=output, trace=operator_traces, session=self._session)

    # -- tracing -------------------------------------------------------------

    @contextmanager
    def _operator_span(self, name: str, **args):
        """An operator span on the active session (or a no-op)."""
        if self._session is None:
            yield None
        else:
            with self._session.span(name, category="operator", **args) as event:
                yield event

    def _record(
        self, name: str, trace: List[OperatorTrace], run, suffix: str = "", **args
    ):
        """Run one operator under span *name*, then rename the span after
        (and append) the :class:`OperatorTrace` that *run* returns."""
        with self._operator_span(name, **args) as span:
            output, op = run()
        op.description += suffix
        if span is not None:
            span.name = op.description
            span.args.update(rows=op.rows, algorithm=op.algorithm, **op.extras)
        trace.append(op)
        return output

    # -- node dispatch -------------------------------------------------------

    def _run(self, node: PlanNode, trace: List[OperatorTrace], optimize: bool):
        # Operator boundary: the cooperative cancellation point between
        # pipeline stages.  Work below this node has been fully charged
        # to the ambient token by the per-kernel accounting.
        token = current_token()
        if token is not None:
            token.check(f"operator:{node.describe()}")
        if isinstance(node, Scan):
            with self._operator_span(node.describe(), rows=node.relation.num_rows):
                pass
            trace.append(OperatorTrace(node.describe(), 0.0, node.relation.num_rows))
            return node.relation
        if isinstance(node, Project):
            if optimize and isinstance(node.child, Join):
                return self._run_join(
                    node.child, trace, optimize, projection=node.columns,
                    pushed_from=node.describe(),
                )
            child = self._run(node.child, trace, optimize)
            return self._run_project(node, child, trace)
        if isinstance(node, Join):
            return self._run_join(node, trace, optimize, projection=None)
        if isinstance(node, Aggregate):
            # The one fusion rule.  Join-aggregate fusion folds during
            # materialization on one device; a sharded aggregate instead
            # re-shuffles the join output on the group column, and a
            # tiered one splits by segment residency, so fusion does
            # not apply to those backends.
            if (
                optimize
                and isinstance(node.child, Join)
                and self._backend.fuses
                and self.enable_fusion
            ):
                return self._run_fused_aggregate(node, trace, optimize)
            if optimize and isinstance(node.child, Join) and self.shards > 1:
                warnings.warn(
                    ShardedExecutionWarning(
                        f"shards={self.shards} disables join-aggregate "
                        "fusion; executing the Aggregate over the Join "
                        "unfused (results are identical, the fusion "
                        "credit is not applied)"
                    ),
                    stacklevel=2,
                )
            child = self._run(node.child, trace, optimize)
            return self._record(
                node.describe(), trace, lambda: self._backend.aggregate(node, child)
            )
        raise JoinConfigError(f"unknown plan node {type(node).__name__}")

    # -- operators ----------------------------------------------------------

    def _run_project(
        self, node: Project, child: Relation, trace: List[OperatorTrace]
    ) -> Relation:
        missing = [c for c in node.columns if c not in child]
        if missing:
            raise JoinConfigError(f"Project references missing columns {missing}")
        columns = [(child.key, child.key_values)]
        columns += [(c, child.column(c)) for c in node.columns if c != child.key]
        projected = Relation(columns, key=child.key, name=child.name)
        # An unfused projection copies the kept columns once.
        with self._operator_span(node.describe(), rows=projected.num_rows):
            ctx = GPUContext(device=self.device)
            ctx.submit(
                KernelStats(
                    name="project",
                    items=child.num_rows,
                    seq_read_bytes=projected.total_bytes,
                    seq_write_bytes=projected.total_bytes,
                )
            )
        trace.append(
            OperatorTrace(node.describe(), ctx.elapsed_seconds, projected.num_rows)
        )
        return projected

    def _run_join(
        self,
        node: Join,
        trace: List[OperatorTrace],
        optimize: bool,
        projection: Optional[Tuple[str, ...]],
        pushed_from: str = "",
    ) -> Relation:
        left = self._run(node.left, trace, optimize)
        right = self._run(node.right, trace, optimize)
        config, suffix = self.config, ""
        if projection is not None:
            config = replace(config, projection=tuple(projection))
            suffix = f" <- pushed {pushed_from}"
        return self._record(
            node.describe(), trace,
            lambda: self._backend.join(node, left, right, config), suffix,
        )

    def _run_fused_aggregate(
        self, node: Aggregate, trace: List[OperatorTrace], optimize: bool
    ):
        left = self._run(node.child.left, trace, optimize)
        right = self._run(node.child.right, trace, optimize)
        try:
            return self._record(
                "FusedJoinAggregate", trace,
                lambda: self._single.fused_aggregate(node, left, right, self.config),
            )
        except DeviceOutOfMemoryError:
            # Fusion needs the whole join+fold pipeline resident at once;
            # under memory pressure, unfuse and recover each stage on its
            # own degradation ladder (identical rows, credit forfeited).
            session = current_session()
            if session is not None:
                session.count("faults_injected_oom")
                session.count("degraded_operators")
            return self._record(
                "FusedJoinAggregate(degraded)", trace,
                lambda: self._single.unfused_aggregate(node, left, right, self.config),
                degraded=True,
            )


def execute(
    plan: PlanNode,
    device: DeviceSpec = A100,
    config: Optional[JoinConfig] = None,
    seed: Optional[int] = None,
    optimize: bool = True,
    shards: int = 1,
    interconnect="nvlink-mesh",
    fault_plan=None,
    tiering=None,
) -> QueryResult:
    """One-shot convenience around :class:`QueryExecutor`.

    ``shards=N`` executes every Join/Aggregate sharded across a
    simulated N-device cluster over *interconnect* (a name or an
    :class:`~repro.cluster.topology.InterconnectSpec`);
    ``fault_plan=`` injects a :class:`~repro.faults.FaultPlan` and
    recovers via retries and graceful degradation; ``tiering=`` splits
    eligible operators across a :class:`~repro.tier.TieredRuntime`'s
    GPU/CPU tiers.
    """
    return QueryExecutor(
        device=device, config=config, seed=seed, shards=shards,
        interconnect=interconnect, fault_plan=fault_plan, tiering=tiering,
    ).execute(plan, optimize=optimize)
