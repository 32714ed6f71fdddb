"""Bucket-chain partitioner: grouping, non-determinism, fragmentation, skew."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import A100, GPUContext
from repro.primitives.bucket_chain import (
    bucket_chain_partition,
    chain_order,
    contention_factor,
)
from repro.primitives.radix_partition import partition_codes


def _partition(keys, payloads=(), bits=4, seed=0, bucket_tuples=16):
    ctx = GPUContext(device=A100, seed=seed)
    return bucket_chain_partition(
        ctx, keys, list(payloads), total_bits=bits, bucket_tuples=bucket_tuples
    )


class TestGrouping:
    def test_groups_by_partition(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 10, 2000).astype(np.int32)
        part = _partition(keys, bits=6)
        codes = partition_codes(part.keys, 6)
        assert np.array_equal(codes, np.sort(codes))

    def test_payloads_stay_with_keys(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 256, 1000).astype(np.int32)
        payload = keys * 3
        part = _partition(keys, [payload], bits=4)
        assert np.array_equal(part.payloads[0], part.keys * 3)

    def test_counts_sum(self):
        keys = np.arange(500, dtype=np.int32)
        part = _partition(keys, bits=5)
        assert part.counts.sum() == 500
        assert part.num_partitions == 32


class TestNonDeterminism:
    """Section 4.3: atomics make intra-partition order run dependent."""

    def test_different_seeds_differ_within_partitions(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 16, 4000).astype(np.int32)
        ids = np.arange(4000, dtype=np.int32)
        a = _partition(keys, [ids], bits=2, seed=1)
        b = _partition(keys, [ids], bits=2, seed=2)
        # Same multiset per partition, different order.
        assert np.array_equal(np.sort(a.payloads[0]), np.sort(b.payloads[0]))
        assert not np.array_equal(a.payloads[0], b.payloads[0])

    def test_same_seed_reproduces(self):
        keys = np.arange(1000, dtype=np.int32)
        a = _partition(keys, bits=3, seed=7)
        b = _partition(keys, bits=3, seed=7)
        assert np.array_equal(a.keys, b.keys)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 400),
    bits=st.integers(1, 17),
    equal_draws=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_order_equals_lexsort(n, bits, equal_draws, seed):
    """The fast within-partition order is exactly lexsort's, also when
    some tie-breaker draws collide (lexsort then breaks ties by position)."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << bits, n).astype(np.int64)
    draws = rng.random(n)
    if n > 1 and equal_draws:
        draws[rng.integers(0, n, equal_draws)] = draws[rng.integers(n)]
    assert np.array_equal(
        chain_order(codes, draws, bits), np.lexsort((draws, codes))
    )


class TestFragmentation:
    def test_allocation_covers_data_plus_slack(self):
        keys = np.arange(100, dtype=np.int32)
        part = _partition(keys, bits=4, bucket_tuples=16)
        assert part.allocated_bytes >= part.used_bytes
        assert part.fragmentation_bytes >= 0

    def test_every_partition_gets_initial_bucket(self):
        # 1 tuple, 16 partitions: 16 initial buckets allocated.
        keys = np.zeros(1, dtype=np.int32)
        part = _partition(keys, bits=4, bucket_tuples=16)
        assert part.allocated_bytes == 16 * 16 * 4

    def test_buckets_per_partition(self):
        keys = np.zeros(40, dtype=np.int32)  # all in partition 0
        part = _partition(keys, bits=2, bucket_tuples=16)
        assert part.buckets_per_partition[0] == 3  # ceil(40/16)


class TestSkewContention:
    def test_uniform_factor_near_one(self):
        counts = np.full(64, 100)
        assert contention_factor(counts) == pytest.approx(1.0)

    def test_factor_grows_with_imbalance(self):
        mild = np.array([100] * 63 + [400])
        hot = np.array([10] * 63 + [10000])
        assert contention_factor(mild) < contention_factor(hot)

    def test_empty_counts(self):
        assert contention_factor(np.array([], dtype=np.int64)) == 1.0
        assert contention_factor(np.zeros(4, dtype=np.int64)) == 1.0

    def test_skewed_partitioning_costs_more_time(self):
        rng = np.random.default_rng(3)
        n = 1 << 14
        uniform = rng.integers(0, 1 << 12, n).astype(np.int32)
        skewed = np.zeros(n, dtype=np.int32)  # everything in one partition
        ctx_u = GPUContext(device=A100, seed=0)
        bucket_chain_partition(ctx_u, uniform, [], total_bits=8)
        ctx_s = GPUContext(device=A100, seed=0)
        bucket_chain_partition(ctx_s, skewed, [], total_bits=8)
        assert ctx_s.elapsed_seconds > ctx_u.elapsed_seconds
