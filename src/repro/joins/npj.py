"""Non-partitioned hash join — the cuDF-style baseline (Section 5.2.2).

No transformation phase: R's keys go straight into one global-memory
hash table, which S's keys then probe.  Construction and probing are
random global-memory accesses (the table does not fit in shared memory),
which is why the paper finds this join up to 4x slower than the
partitioned algorithms despite doing less total work.

Materialization follows GFUR for the build side (the stored physical IDs
are effectively random), but the probe side materializes *clustered*:
matches stream out in probe order, so probe-side gathers are cheap —
exactly the nuance Figure 10 notes ("it has a lower materialization cost
than *-UM since materializing the probe table is clustered").
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.hash_table import (
    SLOT_BYTES,
    build_table,
    probe_table,
    table_capacity,
)
from ..primitives.sector_analysis import analyze_indices
from ..relational.relation import Relation
from .base import MATCH, JoinAlgorithm, materialize_gfur


def _charge_table_traffic(
    ctx: GPUContext,
    touched_slots: np.ndarray,
    capacity: int,
    items: int,
    extra_seq_read: int,
    extra_seq_write: int,
    name: str,
) -> None:
    """Random slot traffic measured from the actual probe sequences."""
    ctx.count("hash_table_probe_slots", int(touched_slots.size))
    sector = analyze_indices(touched_slots, SLOT_BYTES)
    ctx.submit(
        KernelStats(
            name=name,
            items=items,
            seq_read_bytes=extra_seq_read,
            seq_write_bytes=extra_seq_write,
            random_requests=sector.requests,
            random_sector_touches=sector.sector_touches,
            random_cold_sectors=sector.cold_sectors,
            locality_footprint_bytes=sector.mean_warp_span_bytes,
        ),
        phase=MATCH,
    )


class NonPartitionedHashJoin(JoinAlgorithm):
    """Global-hash-table join in the style of cuDF's default inner join."""

    name = "NPJ"
    pattern = "gfur"

    def _execute(
        self, ctx: GPUContext, r: Relation, s: Relation, unique_build_keys: bool
    ) -> List[Tuple[str, np.ndarray]]:
        del unique_build_keys  # the table handles duplicates uniformly
        capacity = table_capacity(r.num_rows)

        with ctx.phase(MATCH):
            table = ctx.mem.alloc(capacity, np.int64, "hash_table")
            build_ids = np.arange(r.num_rows, dtype=np.int64)
            build = build_table(r.key_values, build_ids, capacity)
            _charge_table_traffic(
                ctx,
                build.touched_slots,
                capacity,
                items=r.num_rows,
                extra_seq_read=int(r.key_values.nbytes) + int(build_ids.nbytes // 2),
                extra_seq_write=0,
                name="npj_build",
            )
            probe = probe_table(build.table_keys, build.table_values, s.key_values)
            id_r = probe.build_values
            id_s = probe.probe_indices
            out_key = s.key_values[id_s]
            _charge_table_traffic(
                ctx,
                probe.touched_slots,
                capacity,
                items=s.num_rows,
                extra_seq_read=int(s.key_values.nbytes),
                extra_seq_write=int(
                    out_key.nbytes + id_r.size * 4 + id_s.size * 4
                ),
                name="npj_probe",
            )
            a_id_r = ctx.mem.adopt(id_r.astype(np.int32, copy=False), "match_ids_r")
            a_id_s = ctx.mem.adopt(id_s.astype(np.int32, copy=False), "match_ids_s")
            ctx.mem.free(table)

        return materialize_gfur(
            ctx, r, s, out_key, a_id_r, a_id_s, self.config.projection
        )
