"""Exact sector accounting equals the per-warp sort formulation.

``_analyze_exact`` sorts each warp's byte offsets once (or not at all
for a non-decreasing map), counts touches with flat comparisons and
counts cold sectors with an occupancy table.  :func:`reference_exact`
keeps the formulation it replaced — sort every warp's sector ids, diff
each row, sort the whole map for the distinct count — and every
:class:`SectorStats` field must match it exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.device import SECTOR_BYTES, WARP_SIZE
from repro.primitives.sector_analysis import SectorStats, _analyze_exact


def reference_exact(indices: np.ndarray, element_bytes: int) -> SectorStats:
    n = int(indices.size)
    offsets = indices.astype(np.int64, copy=False) * element_bytes
    sectors = offsets // SECTOR_BYTES
    pad = (-n) % WARP_SIZE
    if pad:
        offsets = np.concatenate([offsets, np.full(pad, offsets[-1])])
        sectors = np.concatenate([sectors, np.full(pad, sectors[-1])])
    warp_offsets = offsets.reshape(-1, WARP_SIZE)
    warp_sectors = np.sort(sectors.reshape(-1, WARP_SIZE), axis=1)
    distinct_per_warp = 1 + np.count_nonzero(np.diff(warp_sectors, axis=1), axis=1)
    spans = (
        warp_offsets.max(axis=1) - warp_offsets.min(axis=1) + element_bytes
    ).astype(np.float64)
    flat = np.sort(sectors)
    cold = 1 + int(np.count_nonzero(flat[1:] != flat[:-1]))
    return SectorStats(
        requests=warp_sectors.shape[0],
        sector_touches=int(distinct_per_warp.sum()),
        cold_sectors=cold,
        mean_warp_span_bytes=float(spans.mean()),
    )


ELEMENT_BYTES = (1, 2, 4, 8, 16, 32)
SHAPES = ("random", "nondecreasing", "decreasing", "perturbed", "all_equal", "negative")


@st.composite
def index_maps(draw):
    n = draw(st.integers(1, 300))
    element_bytes = draw(st.sampled_from(ELEMENT_BYTES))
    dtype = draw(st.sampled_from((np.int32, np.int64, np.uint32)))
    shape = draw(st.sampled_from(SHAPES))
    # Index spans on both sides of the occupancy-table cutoff (a sector
    # range of 4n), plus dense and very sparse maps.
    cutoff = 4 * n * SECTOR_BYTES // element_bytes
    span = draw(
        st.one_of(
            st.integers(0, 2 * n),
            st.integers(max(0, cutoff - 64), cutoff + 64),
            st.integers(10**6, 2**30),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, span + 1, n)
    if shape == "nondecreasing":
        values = np.sort(values)
    elif shape == "decreasing":
        values = np.sort(values)[::-1]
    elif shape == "perturbed":
        values = np.sort(values)
        values[rng.integers(n)] = rng.integers(0, span + 1)
    elif shape == "all_equal":
        values = np.full(n, values[0])
    elif shape == "negative":
        values = values - (span + 1)
        if dtype is np.uint32:
            dtype = np.int64
    return values.astype(dtype), element_bytes


@settings(max_examples=400, deadline=None)
@given(index_maps())
def test_exact_matches_per_warp_sort(case):
    indices, element_bytes = case
    assert _analyze_exact(indices, element_bytes) == reference_exact(indices, element_bytes)


@pytest.mark.parametrize("extra_sectors", [-1, 0, 1])
def test_occupancy_cutoff_boundary(extra_sectors):
    # 32-byte elements: one sector per index, so the sector range is the
    # index range.  Range 4n - 1, 4n and 4n + 1 straddle the cutoff.
    n = 96
    rng = np.random.default_rng(extra_sectors + 7)
    top = 4 * n - 1 + extra_sectors
    values = rng.integers(0, top + 1, n)
    values[:2] = (top, 0)
    indices = values.astype(np.int64)
    assert _analyze_exact(indices, 32) == reference_exact(indices, 32)
