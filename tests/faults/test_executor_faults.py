"""Executor and top-level API under a FaultPlan.

Covers the typed conflict (``shards > 1`` + OOM pressure), the
fusion-disabled warning, ``degraded=`` surfacing in operator traces,
the fused-pipeline degradation path, and the ``fault_plan=`` round
trip through ``repro.join`` / ``repro.group_by``.
"""

import warnings

import numpy as np
import pytest

from repro import group_by, join
from repro.aggregation import AggSpec
from repro.errors import JoinConfigError, ShardedExecutionWarning
from repro.faults import FaultPlan, ResilientGroupByResult, ResilientJoinResult
from repro.gpusim import A100
from repro.obs import TraceSession
from repro.query import Aggregate, Join, Scan, execute
from repro.workloads import JoinWorkloadSpec, generate_join_workload

DEVICE = A100.with_overrides(global_mem_bytes=1 << 20)
PRESSURE = FaultPlan(seed=2, capacity_frac=0.05)


@pytest.fixture(scope="module")
def relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=4096, s_rows=8192, r_payload_columns=2,
                         s_payload_columns=2, seed=9)
    )


@pytest.fixture(scope="module")
def agg_plan(relations):
    r, s = relations
    return Aggregate(Join(Scan(r), Scan(s)), "r1", (AggSpec("s1", "sum"),))


class TestExecutorConflicts:
    def test_capacity_pressure_conflicts_with_shards(self, relations):
        r, s = relations
        with pytest.raises(JoinConfigError, match="capacity_frac"):
            execute(Join(Scan(r), Scan(s)), shards=2, fault_plan=PRESSURE)

    def test_without_capacity_resolves_the_conflict(self, relations):
        r, s = relations
        result = execute(Join(Scan(r), Scan(s)), shards=2, seed=0,
                         fault_plan=PRESSURE.without_capacity())
        assert result.output.num_rows == s.num_rows

    def test_sharded_execute_injects_transient_faults(self, relations):
        r, s = relations
        plan = Join(Scan(r), Scan(s))
        clean = execute(plan, shards=2, seed=0)
        with TraceSession("sharded-faults") as session:
            faulty = execute(plan, shards=2, seed=0,
                             fault_plan=FaultPlan(seed=13, kernel_fault_rate=0.3))
        assert session.metrics.value("fault_kernel_retries") > 0
        assert faulty.output.column_names == clean.output.column_names
        for name in clean.output.column_names:
            assert np.array_equal(faulty.output.column(name), clean.output.column(name))

    def test_sharding_warns_that_fusion_is_disabled(self, agg_plan):
        with pytest.warns(ShardedExecutionWarning, match="fusion"):
            execute(agg_plan, seed=0, shards=2)

    def test_single_device_does_not_warn(self, agg_plan):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardedExecutionWarning)
            execute(agg_plan, seed=0)


class TestExecutorDegradation:
    def test_join_trace_reports_degraded(self, relations):
        r, s = relations
        res = execute(Join(Scan(r), Scan(s)), device=DEVICE, seed=0,
                      fault_plan=PRESSURE)
        trace = next(t for t in res.trace if t.description.startswith("Join["))
        assert trace.extras["degraded"] == 1.0
        assert trace.extras["degraded_chunks"] >= 2
        assert "OOC[" in trace.description

    def test_clean_plan_reports_not_degraded(self, relations):
        r, s = relations
        res = execute(Join(Scan(r), Scan(s)), device=DEVICE, seed=0,
                      fault_plan=FaultPlan(seed=2))
        trace = next(t for t in res.trace if t.description.startswith("Join["))
        assert trace.extras["degraded"] == 0.0

    def test_fused_pipeline_degrades_unfused(self, agg_plan, relations):
        r, s = relations
        oracle = execute(agg_plan, device=DEVICE, seed=0)
        assert any("Fused" in t.description for t in oracle.trace)
        res = execute(agg_plan, device=DEVICE, seed=0, fault_plan=PRESSURE)
        degraded = next(
            t for t in res.trace if "JoinAggregate[degraded" in t.description
        )
        assert degraded.extras["degraded"] == 1.0
        for column, array in oracle.output.items():
            np.testing.assert_array_equal(res.output[column], array)


class TestApiRoundTrip:
    def test_join_returns_resilient_result(self, relations):
        r, s = relations
        clean = join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0)
        res = join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0,
                   fault_plan=PRESSURE)
        assert isinstance(res, ResilientJoinResult)
        assert res.degraded
        assert res.output.equals_unordered(clean.output)

    def test_group_by_returns_resilient_result(self):
        keys = np.arange(4096, dtype=np.int64) % 256
        values = {"v": np.ones(4096, dtype=np.int64)}
        clean = group_by(keys, values, {"v": "sum"}, algorithm="HASH-AGG",
                         device=DEVICE, seed=0)
        res = group_by(keys, values, {"v": "sum"}, algorithm="HASH-AGG",
                       device=DEVICE, seed=0,
                       fault_plan=FaultPlan(seed=2, kernel_fault_rate=0.3))
        assert isinstance(res, ResilientGroupByResult)
        for column in clean.output:
            np.testing.assert_array_equal(res.output[column],
                                          clean.output[column])

    def test_sharded_api_warns_when_capacity_is_stripped(self, relations):
        r, s = relations
        with pytest.warns(ShardedExecutionWarning, match="capacity_frac"):
            join(r, s, algorithm="PHJ-OM", seed=0, shards=2,
                 fault_plan=PRESSURE)

    def test_sharded_api_without_capacity_does_not_warn(self, relations):
        r, s = relations
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardedExecutionWarning)
            join(r, s, algorithm="PHJ-OM", seed=0, shards=2,
                 fault_plan=PRESSURE.without_capacity())
