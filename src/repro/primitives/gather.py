"""GATHER and SCATTER primitives with traffic accounting.

``GATHER(in, map, out)`` computes ``out[i] = in[map[i]]`` (Section 2.3 of
the paper).  Whether the gather is *clustered* (map mostly monotonic,
warps touch few sectors) or *unclustered* (random map, up to 32 sectors
per warp) is not declared by the caller — it is measured from the actual
map by :mod:`repro.primitives.sector_analysis`, so the GFUR/GFTR
difference is an emergent property of the index arrays the join
algorithms produce.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from .sector_analysis import SectorStats, analyze_indices


def _random_stats_fields(
    index_map: np.ndarray, element_bytes: int, stats: Optional[SectorStats] = None
) -> dict:
    if stats is None:
        stats = analyze_indices(index_map, element_bytes)
    return {
        "random_requests": stats.requests,
        "random_sector_touches": stats.sector_touches,
        "random_cold_sectors": stats.cold_sectors,
        "locality_footprint_bytes": stats.mean_warp_span_bytes,
    }


def gather(
    ctx: GPUContext,
    src: np.ndarray,
    index_map: np.ndarray,
    phase: Optional[str] = None,
    label: str = "",
    stats: Optional[SectorStats] = None,
) -> np.ndarray:
    """Gather ``src[index_map]``, charging random-read traffic.

    The map itself is streamed sequentially; the output is written
    sequentially; the source reads are charged according to the measured
    per-warp sector counts of the map.  *stats*, when given, must be
    ``analyze_indices(index_map, src.dtype.itemsize)``: callers that
    gather several columns through one map analyse it once.
    """
    out = src[index_map]
    kernel = KernelStats(
        name=f"gather:{label}" if label else "gather",
        items=int(index_map.size),
        seq_read_bytes=int(index_map.nbytes),
        seq_write_bytes=int(out.nbytes),
        **_random_stats_fields(index_map, src.dtype.itemsize, stats),
    )
    ctx.submit(kernel, phase=phase)
    return out


def scatter(
    ctx: GPUContext,
    src: np.ndarray,
    index_map: np.ndarray,
    out: np.ndarray,
    phase: Optional[str] = None,
    label: str = "",
) -> np.ndarray:
    """Scatter ``out[index_map[i]] = src[i]``, charging random-write traffic.

    The destination writes are random; source and map are streamed.
    Returns *out* for convenience.
    """
    if index_map.size:
        out[index_map] = src
    stats = KernelStats(
        name=f"scatter:{label}" if label else "scatter",
        items=int(index_map.size),
        seq_read_bytes=int(index_map.nbytes) + int(src.nbytes),
        **_random_stats_fields(index_map, out.dtype.itemsize),
    )
    ctx.submit(stats, phase=phase)
    return out


def gather_stats_only(
    ctx: GPUContext,
    index_map: np.ndarray,
    element_bytes: int,
    out_bytes: int,
    phase: Optional[str] = None,
    label: str = "",
) -> None:
    """Charge gather traffic without moving data.

    Used when an algorithm has already produced the gathered values as a
    by-product (e.g. keys written during match finding) but the simulated
    hardware would still have performed the loads.
    """
    stats = KernelStats(
        name=f"gather:{label}" if label else "gather",
        items=int(index_map.size),
        seq_read_bytes=int(index_map.nbytes),
        seq_write_bytes=int(out_bytes),
        **_random_stats_fields(index_map, element_bytes),
    )
    ctx.submit(stats, phase=phase)
