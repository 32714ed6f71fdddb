"""Perf-regression floors for the host-side hot path.

Each test measures the warm, best-of-N throughput of one hot-path
operation — no profiler, following the measurement discipline that the
simulated-kernel charges are *not* what these guard (those are pinned
bit-identically elsewhere): this is about the *host* wall-clock that
dominates native-scale (2^27) bench runs.

Floors live in ``baselines.json`` at half the reference-box throughput
(2x slack).  The ``perf`` marker lets slow or noisy environments skip
the whole module with ``-m "not perf"``; ``REPRO_PERF_SLACK=<k>``
divides every floor by ``k`` for known-slow runners.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.gpusim import GPUContext, KernelStats
from repro.joins.matching import match_positions
from repro.primitives.grouping import group_identify
from repro.primitives.sector_analysis import analyze_indices, set_sector_mode

pytestmark = pytest.mark.perf

_BASELINES = json.loads(
    (Path(__file__).parent / "baselines.json").read_text()
)
_SLACK = float(os.environ.get("REPRO_PERF_SLACK", "1") or "1")


def floor(name: str) -> float:
    return _BASELINES[name] / _SLACK


def best_seconds(fn, reps: int = 3) -> float:
    """Warm best-of-N wall-clock of ``fn()`` (one untimed warmup call)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_submit_throughput():
    """Batched kernel submission sustains the committed submits/s floor."""
    ctx = GPUContext()
    batch = [
        KernelStats(name="k", items=1024, seq_read_bytes=4096)
        for _ in range(5000)
    ]
    seconds = best_seconds(lambda: ctx.submit_many(batch, phase="match"))
    throughput = len(batch) / seconds
    assert throughput >= floor("kernel_submit_per_s"), (
        f"kernel submission at {throughput:.0f}/s, "
        f"floor {floor('kernel_submit_per_s'):.0f}/s"
    )


def test_group_identify_throughput():
    """Sort-based group identification sustains the keys/s floor."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 1 << 22, 1 << 20).astype(np.int32)
    seconds = best_seconds(lambda: group_identify(keys))
    throughput = keys.size / seconds
    assert throughput >= floor("group_identify_keys_per_s"), (
        f"group_identify at {throughput:.0f} keys/s, "
        f"floor {floor('group_identify_keys_per_s'):.0f}"
    )


def test_sector_count_throughput():
    """Sampled sector accounting sustains the indices/s floor."""
    rng = np.random.default_rng(3)
    indices = rng.permutation(1 << 21).astype(np.int64)
    previous = set_sector_mode("sampled")
    try:
        seconds = best_seconds(lambda: analyze_indices(indices, 4))
    finally:
        set_sector_mode(previous)
    throughput = indices.size / seconds
    assert throughput >= floor("sector_count_indices_per_s"), (
        f"sector analysis at {throughput:.0f} indices/s, "
        f"floor {floor('sector_count_indices_per_s'):.0f}"
    )


def test_sector_exact_throughput():
    """Exact sector accounting sustains the indices/s floor.

    2^18 indices (the default bench scale, below the ``auto`` sampling
    threshold) in a non-decreasing map, the shape GFTR gathers and NPJ
    probe-side gathers produce.
    """
    rng = np.random.default_rng(3)
    indices = np.sort(rng.integers(0, 1 << 19, 1 << 18)).astype(np.int32)
    previous = set_sector_mode("exact")
    try:
        seconds = best_seconds(lambda: analyze_indices(indices, 4))
    finally:
        set_sector_mode(previous)
    throughput = indices.size / seconds
    assert throughput >= floor("sector_exact_indices_per_s"), (
        f"exact sector analysis at {throughput:.0f} indices/s, "
        f"floor {floor('sector_exact_indices_per_s'):.0f}"
    )


def test_match_throughput():
    """The dense-key join match sustains the pairs/s floor.

    2^17 unique primary keys (a shuffled ``0..|R|-1``, Section 5.1) in
    a radix-partitioned layout, probed by 2^18 foreign keys.
    """
    rng = np.random.default_rng(3)
    keys = rng.permutation(1 << 17).astype(np.int32)
    build = keys[np.argsort(keys & 0xFF, kind="stable")]
    probe = rng.integers(0, 1 << 17, 1 << 18).astype(np.int32)
    pairs = match_positions(build, probe, True)[0].size
    seconds = best_seconds(lambda: match_positions(build, probe, True))
    throughput = pairs / seconds
    assert throughput >= floor("match_pairs_per_s"), (
        f"match at {throughput:.0f} pairs/s, "
        f"floor {floor('match_pairs_per_s'):.0f}"
    )
