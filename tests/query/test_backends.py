"""One operator dispatch: the executor's three backends.

* the single-device backend *is* the recovery ladder, so a plain
  ``execute()`` and one under a no-op ``FaultPlan()`` are identical at a
  fixed seed — columns, row order and simulated seconds;
* every backend's operator traces share one schema;
* ``pin_plan`` reads the fused/unfused shape off the trace;
* narrow SMJ keeps an empty side's payload column, on one device and
  under sharding (where an empty shard used to decide the schema).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation import AggSpec
from repro.faults import FaultPlan
from repro.gpusim import A100
from repro.joins.planner import make_algorithm
from repro.query import Aggregate, Join, Project, Scan, execute
from repro.relational import Relation, reference_join
from repro.serve.cache import pin_plan
from repro.tier import TieredRuntime
from repro.workloads import JoinWorkloadSpec, generate_join_workload

SEED = 7
SMALL_DEVICE = A100.with_overrides(global_mem_bytes=1 << 20)
JOINS = ["PHJ-OM", "PHJ-UM", "SMJ-OM", "SMJ-UM", "NPJ", "auto"]
GROUP_BYS = ["HASH-AGG", "SORT-AGG", "PART-AGG", "auto"]
JOIN_NAMES = {"PHJ-OM", "PHJ-UM", "SMJ-OM", "SMJ-UM", "NPJ", "TIER"}
AGG_NAMES = {"HASH-AGG", "SORT-AGG", "PART-AGG", "TIER"}


@pytest.fixture(scope="module")
def relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=2048, s_rows=4096, r_payload_columns=2,
                         s_payload_columns=2, seed=4)
    )


def _aggregate(child, algorithm="auto"):
    return Aggregate(child, "r1", (AggSpec("s1", "sum"), AggSpec("s2", "max")),
                     algorithm=algorithm)


def _assert_identical(a, b):
    assert a.total_seconds == b.total_seconds
    assert [op.description for op in a.trace] == [op.description for op in b.trace]
    if isinstance(a.output, Relation):
        a_cols, b_cols = a.output.columns(), b.output.columns()
    else:
        a_cols, b_cols = a.output, b.output
    assert list(a_cols) == list(b_cols)
    for name in a_cols:
        assert a_cols[name].dtype == b_cols[name].dtype, name
        np.testing.assert_array_equal(a_cols[name], b_cols[name], err_msg=name)


class TestPlainIsTheRecoveryLadder:
    @pytest.mark.parametrize("algorithm", JOINS)
    def test_join(self, relations, algorithm):
        r, s = relations
        plan = Join(Scan(r), Scan(s), algorithm=algorithm)
        _assert_identical(
            execute(plan, seed=SEED),
            execute(plan, seed=SEED, fault_plan=FaultPlan()),
        )

    @pytest.mark.parametrize("algorithm", GROUP_BYS)
    def test_group_by(self, relations, algorithm):
        r, _ = relations
        plan = Aggregate(Scan(r), "key", (AggSpec("r1", "sum"),), algorithm=algorithm)
        _assert_identical(
            execute(plan, seed=SEED),
            execute(plan, seed=SEED, fault_plan=FaultPlan()),
        )

    @pytest.mark.parametrize("join_algorithm", ["PHJ-UM", "auto"])
    @pytest.mark.parametrize("agg_algorithm", ["PART-AGG", "auto"])
    def test_fused_aggregate_over_join(self, relations, join_algorithm, agg_algorithm):
        r, s = relations
        plan = _aggregate(Join(Scan(r), Scan(s), algorithm=join_algorithm),
                          agg_algorithm)
        plain = execute(plan, seed=SEED)
        assert plain.trace[-1].description.startswith("FusedJoinAggregate[")
        _assert_identical(plain, execute(plan, seed=SEED, fault_plan=FaultPlan()))


def _modes():
    return {
        "plain": dict(),
        "noop-faults": dict(fault_plan=FaultPlan()),
        "shards": dict(shards=4),
        "tiered": dict(tiering=TieredRuntime()),
    }


class TestTraceSchema:
    @pytest.mark.parametrize("mode", list(_modes()))
    def test_join_and_aggregate_traces(self, relations, mode):
        r, s = relations
        kwargs = _modes()[mode]
        join = execute(Join(Scan(r), Scan(s), algorithm="PHJ-OM"), seed=SEED, **kwargs)
        agg = execute(Aggregate(Scan(r), "key", (AggSpec("r1", "sum"),)),
                      seed=SEED, **kwargs)
        for result, kind, names in ((join, "Join[", JOIN_NAMES), (agg, "Aggregate[", AGG_NAMES)):
            op = result.trace[-1]
            assert op.description.startswith(kind)
            assert op.algorithm in names
            assert op.seconds > 0 and op.extras
            if mode == "shards":
                assert op.description.endswith(" x4]")
                assert "shuffle" in op.extras
            elif mode == "tiered":
                assert op.description.startswith(kind + "TIER hot:")
                assert {"tier_gpu_s", "tier_cpu_s"} <= set(op.extras)
            else:
                # Single-device operators carry their phase seconds and
                # the recovery ladder's decision.
                assert op.extras["degraded"] == 0.0
                phases = set(op.extras) - {"degraded"}
                assert phases and all(op.extras[p] >= 0 for p in phases)

    def test_degraded_spellings_are_not_registry_names(self, relations):
        r, s = relations
        pressure = FaultPlan(seed=2, capacity_frac=0.05)
        result = execute(Join(Scan(r), Scan(s), algorithm="PHJ-OM"),
                         device=SMALL_DEVICE, seed=SEED, fault_plan=pressure)
        op = result.trace[-1]
        assert op.algorithm == "OOC[PHJ-OM]" and op.extras["degraded"] == 1.0
        pinned = pin_plan(Join(Scan(r), Scan(s)), result.trace)
        assert pinned.algorithm == "auto"  # degraded spellings never pin


class TestPinPlanReadsTheTrace:
    """The pinned plan names what each operator actually resolved, for
    every backend and for fused and unfused Aggregate-over-Join."""

    @pytest.mark.parametrize(
        "make_kwargs, fused",
        [
            (dict, True),
            (lambda: dict(shards=2), False),
            (lambda: dict(tiering=TieredRuntime()), False),
            (lambda: dict(enable_fusion=False), False),  # brownout
        ],
        ids=["plain", "shards", "tiered", "brownout-unfused"],
    )
    @pytest.mark.filterwarnings("ignore::repro.errors.ShardedExecutionWarning")
    def test_aggregate_over_join(self, relations, make_kwargs, fused):
        from repro.query.executor import QueryExecutor

        r, s = relations
        kwargs = make_kwargs()
        plan = _aggregate(Join(Scan(r), Scan(s)))
        result = QueryExecutor(seed=SEED, **kwargs).execute(plan)
        pinned = pin_plan(plan, result.trace)
        if fused:
            assert len(result.trace) == 3
            join_name, agg_name = result.trace[-1].algorithm.split("+")
        else:
            assert len(result.trace) == 4
            join_name = result.trace[2].algorithm
            agg_name = result.trace[3].algorithm
        expect_join = join_name if join_name in JOIN_NAMES - {"TIER"} else "auto"
        assert pinned.child.algorithm == expect_join
        assert pinned.algorithm == agg_name
        # The pinned plan runs to the same rows.
        again = QueryExecutor(seed=SEED, **kwargs).execute(pinned)
        for column in result.output:
            np.testing.assert_array_equal(again.output[column], result.output[column])

    def test_unoptimized_and_pushdown(self, relations):
        r, s = relations
        plan = _aggregate(Join(Scan(r), Scan(s)))
        raw = execute(plan, seed=SEED, optimize=False)
        pinned = pin_plan(plan, raw.trace, optimize=False)
        assert pinned.child.algorithm == raw.trace[2].algorithm
        assert pinned.algorithm == raw.trace[3].algorithm
        projected = Project(Join(Scan(r), Scan(s)), ("r1",))
        run = execute(projected, seed=SEED)
        assert len(run.trace) == 3
        assert pin_plan(projected, run.trace).child.algorithm == run.trace[-1].algorithm


def _narrow(keys_r, keys_s):
    r = Relation.from_key_payloads(
        np.asarray(keys_r, dtype=np.int32),
        [np.arange(len(keys_r), dtype=np.int32)], payload_prefix="r")
    s = Relation.from_key_payloads(
        np.asarray(keys_s, dtype=np.int32),
        [np.arange(len(keys_s), dtype=np.int32) + 100], payload_prefix="s")
    return r, s


def _assert_matches_reference(output, r, s):
    expected = reference_join(r, s)
    assert output.column_names == expected.column_names
    for name in expected.column_names:
        assert output.column(name).dtype == expected.column(name).dtype, name
    assert output.equals_unordered(expected)


class TestNarrowSortMergeEmptySide:
    @pytest.mark.parametrize("algorithm", ["SMJ-OM", "SMJ-UM"])
    @pytest.mark.parametrize("empty", ["r", "s"])
    def test_single_device_keeps_both_payloads(self, algorithm, empty):
        keys = [3, 1, 2, 1, 0]
        r, s = _narrow([] if empty == "r" else keys, [] if empty == "s" else keys)
        output = make_algorithm(algorithm).join(r, s, seed=0).output
        assert output.column_names == ["key", "r1", "s1"]
        _assert_matches_reference(output, r, s)

    @pytest.mark.parametrize("algorithm", ["SMJ-OM", "SMJ-UM"])
    @pytest.mark.parametrize(
        "keys_r, keys_s",
        [([1, 2, 3], [1, 2, 3, 2, 1]), ([-6, -7, -8], [-6, -7, -8, -7, -6])],
        ids=["positive", "negative"],
    )
    def test_sharded_with_empty_shards(self, algorithm, keys_r, keys_s):
        # 3 + 5 rows over 8 devices: most shards receive no rows at all.
        r, s = _narrow(keys_r, keys_s)
        output = execute(Join(Scan(r), Scan(s), algorithm=algorithm),
                         seed=0, shards=8).output
        _assert_matches_reference(output, r, s)


class TestTieredAggregateOfTheGroupColumn:
    def test_sum_of_the_group_key(self):
        keys = np.arange(100, dtype=np.int32) % 7
        rel = Relation.from_key_payloads(keys, [np.arange(100, dtype=np.int32)],
                                         payload_prefix="v")
        plan = Aggregate(Scan(rel), "key", (AggSpec("key", "sum"), AggSpec("v1", "max")))
        plain = execute(plan, seed=SEED).output
        tiered = execute(plan, seed=SEED, tiering=TieredRuntime()).output
        assert list(tiered) == list(plain)
        for name in plain:
            assert tiered[name].dtype == plain[name].dtype
            np.testing.assert_array_equal(tiered[name], plain[name])

