"""Materialization analyses each match map once per (side, element width).

Every payload column of a side is gathered through the same map, so the
joins share one :class:`SectorStats` per side and width.  The submitted
kernels must be exactly those of analysing the map for every column.
"""

import numpy as np
import pytest

from repro.gpusim import GPUContext
from repro.joins import base, phj, smj
from repro.joins.planner import make_algorithm
from repro.primitives.sector_analysis import analyze_indices
from repro.relational.relation import Relation


def _relations():
    rng = np.random.default_rng(11)
    r_keys = rng.permutation(3000).astype(np.int32)
    s_keys = rng.integers(0, 3000, 5000).astype(np.int32)
    # Two payload widths per side: the shared stats are per width.
    r = Relation(
        [("key", r_keys), ("a", r_keys * 2), ("b", r_keys + 1),
         ("c", r_keys.astype(np.int64) * 3)],
        key="key",
    )
    s = Relation(
        [("key", s_keys), ("d", s_keys.astype(np.int64)), ("e", s_keys * 5),
         ("f", s_keys.astype(np.int64) + 7)],
        key="key",
    )
    return r, s


def _kernels(algorithm):
    r, s = _relations()
    ctx = GPUContext(seed=0)
    result = make_algorithm(algorithm).join(r, s, ctx=ctx)
    return result, [(k.phase, k.stats, k.seconds) for k in ctx.timeline.records()]


@pytest.mark.parametrize(
    "algorithm", ["PHJ-OM", "SMJ-OM", "NPJ", "SMJ-UM", "PHJ-UM", "PHJ-OM/gfur"]
)
def test_shared_stats_equal_per_column_analysis(algorithm, monkeypatch):
    shared_result, shared = _kernels(algorithm)

    def per_column(memo, side, index_map, element_bytes):
        return analyze_indices(index_map, element_bytes)

    for module in (base, phj, smj):
        monkeypatch.setattr(module, "map_stats", per_column)
    per_column_result, reference = _kernels(algorithm)

    assert shared == reference
    assert shared_result.peak_aux_bytes == per_column_result.peak_aux_bytes
    gathers = [stats for phase, stats, _ in shared
               if phase == "materialize" and stats.name.startswith("gather")]
    assert len(gathers) == 6
