"""The serving determinism oracle.

The central serving invariant: :class:`QueryServer` returns outputs
**bit-identical** to a direct ``execute()`` of the same plan with the
same executor arguments, on every path — uncached, plan-cache hit,
result-cache hit, sub-result substitution, sharded, fault-degraded.
Scheduling and caching may only move *time*.

The hypothesis property drives the same invariant through arbitrary
stream counts, interference levels, arrival spacings and submission
orders: interleaving never changes a single output bit.
"""

import pytest

from repro.aggregation import AggSpec
from repro.faults import FaultPlan
from repro.query import execute
from repro.query.plan import Aggregate, Join, Project, Scan
from repro.serve import QueryServer

from tests.serve.conftest import SERVE_SEED, assert_bit_identical


def plans_under_test(r, s, t):
    return [
        Join(Scan(r), Scan(s)),
        Aggregate(Join(Scan(r), Scan(s)), "r1",
                  (AggSpec("s1", "sum"), AggSpec("s2", "max"))),
        Project(Join(Scan(r), Scan(s)), ("r1", "s1")),
        Join(Join(Scan(r), Scan(s)), Scan(t)),
    ]


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("index", range(4))
def test_first_execution_matches_execute(r, s, t, index, optimize):
    plan = plans_under_test(r, s, t)[index]
    server = QueryServer(streams=2, seed=SERVE_SEED)
    outcome = server.query(plan, optimize=optimize)
    expected = execute(plan, seed=SERVE_SEED, optimize=optimize)
    assert_bit_identical(outcome.output, expected.output)


@pytest.mark.parametrize("index", range(4))
def test_result_cache_hit_matches_execute(r, s, t, index):
    plan = plans_under_test(r, s, t)[index]
    server = QueryServer(streams=2, seed=SERVE_SEED)
    server.query(plan)
    hit = server.query(plan)
    assert hit.result_cache_hit
    assert_bit_identical(hit.output, execute(plan, seed=SERVE_SEED).output)


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("index", range(4))
def test_plan_cache_hit_matches_execute(r, s, t, index, optimize):
    plan = plans_under_test(r, s, t)[index]
    server = QueryServer(streams=2, seed=SERVE_SEED, enable_result_cache=False)
    server.query(plan, optimize=optimize)
    hit = server.query(plan, optimize=optimize)
    assert hit.plan_cache_hit
    expected = execute(plan, seed=SERVE_SEED, optimize=optimize)
    assert_bit_identical(hit.output, expected.output)


def test_subresult_substitution_matches_execute(r, s, t):
    inner = Join(Scan(r), Scan(s))
    nested = Join(inner, Scan(t))
    server = QueryServer(streams=2, seed=SERVE_SEED, enable_plan_cache=False)
    server.query(inner)
    outcome = server.query(nested)
    assert outcome.subresult_hits == 1
    assert_bit_identical(outcome.output, execute(nested, seed=SERVE_SEED).output)


def test_sharded_path_matches_execute_and_bypasses_caches(r, s):
    plan = Aggregate(Join(Scan(r), Scan(s)), "r1", (AggSpec("s1", "sum"),))
    server = QueryServer(streams=2, seed=SERVE_SEED, shards=2)
    first = server.query(plan)
    second = server.query(plan)
    expected = execute(plan, seed=SERVE_SEED, shards=2)
    assert_bit_identical(first.output, expected.output)
    assert_bit_identical(second.output, expected.output)
    assert not second.result_cache_hit and not second.plan_cache_hit


def test_faulted_query_matches_execute_and_bypasses_caches(r, s):
    plan = Join(Scan(r), Scan(s))
    fault_plan = FaultPlan(seed=3, kernel_fault_rate=0.5)
    server = QueryServer(streams=2, seed=SERVE_SEED)
    first = server.query(plan, fault_plan=fault_plan)
    second = server.query(plan, fault_plan=fault_plan)
    expected = execute(plan, seed=SERVE_SEED, fault_plan=fault_plan)
    assert first.status == "completed" and second.status == "completed"
    assert_bit_identical(first.output, expected.output)
    assert not second.result_cache_hit and not second.plan_cache_hit
    # Kernel retries stretch the faulted query's own service time only;
    # a later fault-free query is unaffected and may cache normally.
    clean = server.query(plan)
    assert_bit_identical(clean.output, execute(plan, seed=SERVE_SEED).output)
    assert not clean.result_cache_hit


def test_noop_fault_plan_still_caches(r, s):
    plan = Join(Scan(r), Scan(s))
    server = QueryServer(streams=2, seed=SERVE_SEED)
    server.query(plan, fault_plan=FaultPlan())
    assert server.query(plan, fault_plan=FaultPlan()).result_cache_hit


def test_degraded_flag_reads_the_trace_value(r, s):
    # A no-op plan runs every operator on the recovery ladder's first
    # rung (``degraded: 0.0`` in its extras): not degraded.  Memory
    # pressure that forces the out-of-core re-plan is.
    plan = Join(Scan(r), Scan(s))
    server = QueryServer(streams=1, seed=SERVE_SEED)
    clean = server.query(plan, fault_plan=FaultPlan())
    assert clean.status == "completed" and not clean.degraded
    assert server.metrics.value("serve.degraded_queries") == 0.0
    pressed = server.query(plan, fault_plan=FaultPlan(seed=2, capacity_frac=1e-7))
    assert pressed.status == "completed" and pressed.degraded
    assert server.metrics.value("serve.degraded_queries") == 1.0
    assert pressed.output.equals_unordered(clean.output)


def test_two_identical_server_runs_are_identical(r, s, t):
    def one_run():
        server = QueryServer(streams=3, seed=SERVE_SEED)
        server.register("r", r)
        server.register("s", s)
        plans = plans_under_test(r, s, t)
        at_s = 0.0
        for round_index in range(2):
            for index, plan in enumerate(plans):
                fault_plan = (
                    FaultPlan(seed=5, kernel_fault_rate=0.3)
                    if (round_index, index) == (1, 0) else None
                )
                server.submit(
                    plan, at_s=at_s, priority=index % 2,
                    fault_plan=fault_plan, tag=f"q{index}",
                )
                at_s += 1e-4
        server.run()
        return server
    first, second = one_run(), one_run()
    assert len(first.outcomes) == len(second.outcomes) == 8
    for a, b in zip(first.outcomes, second.outcomes):
        assert (a.query_id, a.tag, a.status, a.stream) == (
            b.query_id, b.tag, b.status, b.stream
        )
        assert a.finish_s == b.finish_s
        assert a.admitted_s == b.admitted_s
        assert_bit_identical(a.output, b.output)
    assert first.metrics.as_dict(derived=False) == second.metrics.as_dict(
        derived=False
    )


# -- the interleaving property ------------------------------------------------


@pytest.fixture(scope="module")
def expected_outputs(r, s, t):
    """One execute() oracle per template, shared across examples."""
    return {
        index: execute(plan, seed=SERVE_SEED).output
        for index, plan in enumerate(plans_under_test(r, s, t))
    }


pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    streams=st.integers(min_value=1, max_value=5),
    interference=st.floats(min_value=0.0, max_value=1.0),
    order=st.permutations(list(range(4))),
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=5e-4), min_size=4, max_size=4
    ),
    caches=st.booleans(),
)
def test_interleaving_never_changes_results(
    expected_outputs, r, s, t, streams, interference, order, gaps, caches
):
    """Any schedule of the template mix yields execute()'s exact bits."""
    plans = plans_under_test(r, s, t)
    expected = expected_outputs
    server = QueryServer(
        streams=streams,
        interference=interference,
        seed=SERVE_SEED,
        enable_plan_cache=caches,
        enable_result_cache=caches,
    )
    at_s = 0.0
    submitted = {}
    for index, gap in zip(order, gaps):
        at_s += gap
        submitted[server.submit(plans[index], at_s=at_s, tag=str(index))] = index
    outcomes = server.run()
    assert len(outcomes) == 4
    for outcome in outcomes:
        assert outcome.status == "completed"
        assert_bit_identical(outcome.output, expected[submitted[outcome.query_id]])
