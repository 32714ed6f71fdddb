"""Shuffle byte accounting: property-based conservation laws.

The load-bearing invariant of the scale-out layer: for *arbitrary*
inputs, the per-link byte matrix a shuffle charges to the interconnect
sums — per source device — to exactly the bytes that device's
off-device rows occupy, and every row lands on exactly one device with
equal keys co-located.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterContext,
    block_ranges,
    device_assignments,
    shuffle_columns,
)


@st.composite
def shuffle_cases(draw):
    num_devices = draw(st.sampled_from([1, 2, 3, 4, 8]))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    locals_ = []
    for _ in range(num_devices):
        rows = draw(st.integers(0, 200))
        keys = rng.integers(0, 50, size=rows).astype(dtype)
        locals_.append(
            {
                "k": keys,
                "v1": rng.integers(0, 1000, size=rows).astype(np.int64),
                "v2": rng.random(rows),
            }
        )
    return num_devices, locals_


class TestDeviceAssignments:
    def test_equal_keys_colocate(self):
        keys = np.array([5, 9, 5, 9, 5], dtype=np.int64)
        for n in (1, 2, 3, 4, 8):
            a = device_assignments(keys, n)
            assert a[0] == a[2] == a[4]
            assert a[1] == a[3]
            assert ((0 <= a) & (a < n)).all()

    def test_single_device_is_all_zero(self):
        assert device_assignments(np.arange(100), 1).tolist() == [0] * 100

    def test_dtype_does_not_change_assignment(self):
        keys32 = np.arange(256, dtype=np.int32)
        keys64 = keys32.astype(np.int64)
        for n in (2, 4, 8):
            assert np.array_equal(
                device_assignments(keys32, n), device_assignments(keys64, n)
            )

    def test_invalid_device_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            device_assignments(np.arange(4), 0)


class TestBlockRanges:
    @pytest.mark.parametrize("rows", [0, 1, 7, 64, 1000])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_cover_and_balance(self, rows, n):
        ranges = block_ranges(rows, n)
        assert len(ranges) == n
        assert ranges[0][0] == 0 and ranges[-1][1] == rows
        sizes = [stop - start for start, stop in ranges]
        assert sum(sizes) == rows
        assert max(sizes) - min(sizes) <= 1
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start


class TestShuffleConservation:
    @settings(max_examples=40, deadline=None)
    @given(shuffle_cases())
    def test_per_link_bytes_sum_to_emitted_bytes(self, case):
        """matrix row sums == bytes each device's off-device rows occupy."""
        num_devices, locals_ = case
        cluster = ClusterContext(num_devices=num_devices)
        result = shuffle_columns(cluster, locals_, "k")

        for src, columns in enumerate(locals_):
            assignment = device_assignments(columns["k"], num_devices)
            expected_emitted = sum(
                int(sum(a[assignment == dst].nbytes for a in columns.values()))
                for dst in range(num_devices)
                if dst != src
            )
            assert result.emitted_bytes[src] == expected_emitted
            # Full matrix row (incl. diagonal) covers every local byte.
            local_bytes = sum(int(a.nbytes) for a in columns.values())
            assert result.matrix[src].sum() == local_bytes

        # Conservation: everything emitted is received, nothing else.
        assert result.emitted_bytes.sum() == result.received_bytes.sum()
        assert np.array_equal(cluster.link_bytes().sum(axis=1), result.emitted_bytes)

    @settings(max_examples=40, deadline=None)
    @given(shuffle_cases())
    def test_rows_partition_exactly(self, case):
        """Every input row lands on exactly one device, keys co-located."""
        num_devices, locals_ = case
        cluster = ClusterContext(num_devices=num_devices)
        result = shuffle_columns(cluster, locals_, "k")

        total_in = sum(c["k"].size for c in locals_)
        total_out = sum(shard["k"].size for shard in result.shards)
        assert total_out == total_in

        for d, shard in enumerate(result.shards):
            assert (device_assignments(shard["k"], num_devices) == d).all()

        # Multiset of (key, v1) pairs is preserved.
        def pairs(key_arrays, val_arrays):
            k = np.concatenate([np.asarray(a, dtype=np.int64) for a in key_arrays])
            v = np.concatenate([np.asarray(a, dtype=np.int64) for a in val_arrays])
            return sorted(zip(k.tolist(), v.tolist()))

        assert pairs(
            [c["k"] for c in locals_], [c["v1"] for c in locals_]
        ) == pairs(
            [s["k"] for s in result.shards], [s["v1"] for s in result.shards]
        )

        # Each shard is the per-destination mask of every source, in
        # (source, local row) order, with the input dtypes.
        for d, shard in enumerate(result.shards):
            for name in ("k", "v1", "v2"):
                expected = np.concatenate(
                    [
                        c[name][device_assignments(c["k"], num_devices) == d]
                        for c in locals_
                    ]
                )
                assert shard[name].dtype == expected.dtype
                np.testing.assert_array_equal(shard[name], expected)

    def test_stability_preserves_global_row_order(self):
        """Within a destination, rows keep (source, local) order."""
        keys = np.array([4, 4, 4, 4, 4, 4], dtype=np.int64)
        order = np.arange(6)
        cluster = ClusterContext(num_devices=2)
        locals_ = [
            {"k": keys[:3], "pos": order[:3]},
            {"k": keys[3:], "pos": order[3:]},
        ]
        result = shuffle_columns(cluster, locals_, "k")
        dst = int(device_assignments(keys[:1], 2)[0])
        assert result.shards[dst]["pos"].tolist() == [0, 1, 2, 3, 4, 5]
        assert result.shards[1 - dst]["pos"].size == 0

    def test_partition_kernels_charged_to_each_nonempty_device(self):
        cluster = ClusterContext(num_devices=2)
        locals_ = [
            {"k": np.arange(100, dtype=np.int64)},
            {"k": np.empty(0, dtype=np.int64)},
        ]
        result = shuffle_columns(cluster, locals_, "k")
        busy = result.partition_step.device_seconds
        assert busy[0] > 0.0
        assert busy[1] == 0.0  # empty block charges nothing
