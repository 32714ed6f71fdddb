"""Tiered (CPU+GPU co-executed) join and group-by operators.

The placement-aware pass splits one logical operator into a GPU
sub-operator over resident (hot) segments and a CPU sub-operator over
cold ones, runs the two concurrently (Eiger-style heterogeneous
overlap: the operator's elapsed time is the max of the two tiers plus
merge and staging).  The split decides where work runs and what it
costs, never the answer: each operator reads every segment it needs
from whichever tier holds it, concatenates them in row order and
computes its rows with the single-device code, so the output is
bit-identical to ``execute()`` for every placement by construction:

* joins make one :func:`~repro.joins.matching.match_positions` call
  over the whole probe side, so the pairs are the global s-major match
  order of :func:`~repro.relational.validation.join_match_indices`, and
  build the output through :func:`~repro.joins.base.output_column_names`;
* group-bys make one :func:`~repro.primitives.grouping.group_identify`
  call and one :func:`~repro.aggregation.base.segmented_aggregate` call
  per aggregate; the per-tier group counts the fold and merge kernels
  are charged for come from that one ``inverse``.

The oracle suite (``tests/oracle/test_tier_oracle.py``) pins both
properties across hot/cold/mixed placements, eviction mid-query, and
fault-injected capacity pressure.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from ..aggregation.base import segmented_aggregate
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, CPU_SERVER, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..gpusim.memory import BufferPool, DeviceMemory
from ..joins.base import JoinConfig, detect_unique_keys, output_column_names
from ..joins.matching import match_positions
from ..obs.session import TraceSession, current_session
from ..primitives.grouping import group_identify
from ..query.plan import (
    OperatorTrace,
    aggregate_input_columns,
    operator_trace,
    plan_relations,
)
from ..relational.relation import Relation
from .cache import SegmentCache
from .costmodel import TierCostModel
from .policy import PlacementPolicy
from .segments import SegmentedRelation, SegmentKey

#: Default rows per column segment (Mordred uses fixed-size segments;
#: at the library's scaled workloads this yields tens of segments per
#: relation, enough for meaningfully mixed placements).
DEFAULT_SEGMENT_ROWS = 4096


class TieredRuntime:
    """Segment registry + cache + policy + the tier-split operators.

    One runtime is shared across queries (typically owned by a
    :class:`~repro.serve.server.QueryServer`): the cache's contents and
    the policy's access/popularity history persist, which is what makes
    hot templates cheap.

    Parameters
    ----------
    memory:
        Backing :class:`DeviceMemory` for resident segments.  ``None``
        creates a private one of ``capacity_bytes``; the serving layer
        passes its own so reservations and segments compete.
    capacity_bytes:
        Cache byte budget.  Defaults to ``cache_fraction`` of the
        device's memory.
    """

    def __init__(
        self,
        device: DeviceSpec = A100,
        cpu_device: DeviceSpec = CPU_SERVER,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        capacity_bytes: Optional[int] = None,
        cache_fraction: float = 0.5,
        memory: Optional[DeviceMemory] = None,
        policy: Optional[PlacementPolicy] = None,
        auto_register: bool = True,
        min_admit_weight: float = 1.0,
        amortize_admission: bool = False,
    ):
        self.device = device
        self.cpu_device = cpu_device
        self.segment_rows = int(segment_rows)
        if capacity_bytes is None:
            capacity_bytes = int(device.global_mem_bytes * cache_fraction)
        self.capacity_bytes = int(capacity_bytes)
        if memory is None:
            # Segment buffers come in one shape per (relation, column),
            # so eviction/re-admission churn recycles well; the pool
            # also mirrors pool.* metrics once a session is wired in.
            memory = DeviceMemory(self.capacity_bytes, pool=BufferPool())
        self.memory = memory
        self.policy = policy or PlacementPolicy()
        self.cache = SegmentCache(memory, capacity_bytes=self.capacity_bytes)
        self.cost = TierCostModel(device, cpu_device)
        self.auto_register = auto_register
        self.min_admit_weight = float(min_admit_weight)
        # ``amortize_admission`` raises the admission bar to the cost
        # model's break-even reuse count: a segment is only staged when
        # its predicted accesses (decayed history x relation popularity)
        # repay the interconnect transfer with GPU-vs-CPU savings.
        # One-off scans then run on the CPU tier instead of paying PCIe
        # for data they will never touch again.
        self.amortize_admission = bool(amortize_admission)
        self._by_id: Dict[int, SegmentedRelation] = {}
        self._names: Dict[str, int] = {}

    # -- registry ------------------------------------------------------------

    def register(
        self, relation: Relation, name: Optional[str] = None
    ) -> SegmentedRelation:
        """Segment *relation* (idempotent; names are made unique).

        ``name`` overrides the relation's own display name — the serving
        layer passes its catalog name so tier counters, popularity and
        placement spans read in catalog terms.
        """
        existing = self._by_id.get(id(relation))
        if existing is not None:
            return existing
        base = name or relation.name or f"relation@{id(relation):x}"
        name = base
        suffix = 1
        while name in self._names:
            name = f"{base}#{suffix}"
            suffix += 1
        segrel = SegmentedRelation(relation, self.segment_rows, name=name)
        self._by_id[id(relation)] = segrel
        self._names[name] = id(relation)
        return segrel

    def segmented(self, relation: Relation) -> Optional[SegmentedRelation]:
        segrel = self._by_id.get(id(relation))
        if segrel is None and self.auto_register:
            segrel = self.register(relation)
        return segrel

    def handles(self, relation: Relation) -> bool:
        return self.auto_register or id(relation) in self._by_id

    def invalidate_relation(self, relation_or_name) -> int:
        """Evict and forget a (possibly updated) relation; bytes freed."""
        if isinstance(relation_or_name, str):
            name = relation_or_name
            rel_id = self._names.pop(name, None)
            if rel_id is not None:
                self._by_id.pop(rel_id, None)
        else:
            segrel = self._by_id.pop(id(relation_or_name), None)
            if segrel is None:
                return 0
            name = segrel.name
            self._names.pop(name, None)
        self.policy.forget(name)
        return self.cache.evict_relation(name)

    def note_plan(self, plan, weight: float = 1.0) -> None:
        """Fold one arrival of *plan* into relation popularity (serve feed)."""
        for relation in plan_relations(plan):
            segrel = self.segmented(relation)
            if segrel is not None:
                self.policy.note_popularity(segrel.name, weight)

    # -- pressure ------------------------------------------------------------

    def apply_capacity_pressure(
        self, frac: Optional[float], session: Optional[TraceSession] = None
    ) -> int:
        """Shrink the cache under fault-injected capacity pressure.

        ``frac=None`` lifts the pressure.  Overflowing segments are
        demoted to the CPU tier — queries degrade to more cold work
        instead of failing with OOM.
        """
        cap = None if frac is None else int(self.capacity_bytes * frac)
        freed = self.cache.apply_pressure(cap)
        if freed and session is not None:
            session.count("tier.pressure_demoted_bytes", freed)
            session.count("tier.pressure_demotions")
        return freed

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for reports and benches."""
        cache = self.cache
        return {
            "resident_bytes": float(cache.resident_bytes),
            "resident_segments": float(len(cache.resident_keys())),
            "hit_ratio": cache.hit_ratio,
            "hits": float(cache.hits),
            "misses": float(cache.misses),
            "hit_bytes": float(cache.hit_bytes),
            "miss_bytes": float(cache.miss_bytes),
            "admissions": float(cache.admissions),
            "admitted_bytes": float(cache.admitted_bytes),
            "evictions": float(cache.evictions),
            "demotions": float(cache.demotions),
            "declined": float(cache.declined),
        }

    # -- placement -----------------------------------------------------------

    def _place(
        self,
        wants: Sequence[Tuple[SegmentedRelation, Sequence[str]]],
        session: Optional[TraceSession],
        op: str,
    ) -> Dict[str, float]:
        """One placement pass for an operator reading *wants*.

        Row-range granular: the columns a range needs are admitted (and
        scored) as a bundle, so placement never strands a range with its
        key resident but a payload cold.  Returns accounting for the
        operator's extras/spans; admission transfer is charged by the
        caller from ``admitted_bytes``.
        """
        policy = self.policy
        cache = self.cache
        policy.begin_pass()
        before_evicted = cache.evictions
        candidates = []
        protect: Set[SegmentKey] = set()
        for segrel, columns in wants:
            for index in range(segrel.num_segments):
                keys = segrel.keys_for(columns, index)
                nbytes = segrel.range_nbytes(columns, index)
                for key in keys:
                    policy.note_access(key)
                missing = [
                    (key, column)
                    for key, column in zip(keys, columns)
                    if not cache.is_resident(key)
                ]
                if not missing:
                    protect.update(keys)  # current op's working set is pinned
                    continue
                score = policy.score(keys[0], max(1, nbytes // len(columns)))
                candidates.append((score, segrel, index, missing, nbytes))
        candidates.sort(key=lambda c: (-c[0], c[1].name, c[2]))
        admitted = 0
        admitted_bytes = 0
        declined = 0
        # Segments admitted during THIS pass: resident for compute, but
        # access-counted as misses (their transfer was paid this query).
        fresh: Set[SegmentKey] = set()
        for score, segrel, index, missing, nbytes in candidates:
            weight = policy.effective_accesses(missing[0][0]) * policy.popularity(
                segrel.name
            )
            threshold = self.min_admit_weight
            if self.amortize_admission:
                # scale-free: transfer and benefit are both linear in bytes
                threshold = max(threshold, self.cost.accesses_to_amortize(nbytes))
            if weight < threshold:
                declined += 1
                continue
            bundle_bytes = sum(
                segrel.segment_nbytes(column, index) for _, column in missing
            )
            if not cache.can_fit(bundle_bytes):
                cap = cache.effective_capacity_bytes
                headroom = (
                    cap - cache.resident_bytes if cap is not None else bundle_bytes
                )
                victims = policy.choose_victims(
                    bundle_bytes - max(0, headroom),
                    score,
                    cache.resident_items(),
                    protect=protect,
                )
                if victims is None:
                    declined += 1
                    continue
                for victim in victims:
                    policy.note_evicted(victim)
                    cache.evict(victim)
            placed = []
            for key, column in missing:
                if cache.admit(key, segrel.column_slice(column, index)):
                    policy.note_admitted(key)
                    placed.append(key)
                else:
                    # partial bundles are worthless: roll back and stay cold
                    for done in placed:
                        policy.note_evicted(done)
                        cache.evict(done)
                    placed = []
                    declined += 1
                    break
            if placed:
                protect.update(placed)
                fresh.update(placed)
                admitted += len(placed)
                admitted_bytes += sum(cache._resident[key].nbytes for key in placed)
        evicted = cache.evictions - before_evicted
        accounting = {
            "admitted": float(admitted),
            "admitted_bytes": float(admitted_bytes),
            "evicted": float(evicted),
            "declined": float(declined),
        }
        if session is not None:
            with session.span(
                f"tier:placement:{op}",
                category="tier",
                tick=policy.tick,
                resident_bytes=cache.resident_bytes,
                **{k: v for k, v in accounting.items()},
            ):
                pass
            if admitted:
                session.count("tier.admissions", admitted)
                session.count("tier.admitted_bytes", admitted_bytes)
            if evicted:
                session.count("tier.evictions", evicted)
            if declined:
                session.count("tier.declined", declined)
            session.metrics.record_max(
                "tier.resident_bytes_peak", cache.resident_bytes
            )
        return accounting, fresh

    def _split(
        self,
        segrel: SegmentedRelation,
        columns: Sequence[str],
        fresh: Set[SegmentKey],
    ) -> Tuple[Set[int], int, int]:
        """Hot segment indices plus (hot_rows, cold_rows) for *columns*.

        A range is hot when all its columns are resident; it is counted
        as a cache *hit* only when none of them was admitted in this
        operator's own placement pass (*fresh*) — first-touch data runs
        on the GPU but its bytes were shipped this query.
        """
        hot: Set[int] = set()
        hot_rows = cold_rows = 0
        for index in range(segrel.num_segments):
            start, stop = segrel.row_range(index)
            nbytes = segrel.range_nbytes(columns, index)
            keys = segrel.keys_for(columns, index)
            if all(self.cache.is_resident(key) for key in keys):
                hot.add(index)
                hot_rows += stop - start
                hit = not any(key in fresh for key in keys)
                self.cache.record_access(hit, nbytes)
            else:
                cold_rows += stop - start
                self.cache.record_access(False, nbytes)
        return hot, hot_rows, cold_rows

    def _count_build_residency(
        self,
        segrel: SegmentedRelation,
        columns: Sequence[str],
        fresh: Set[SegmentKey],
    ) -> int:
        """Resident bytes of the build side (access-counted)."""
        resident = 0
        for index in range(segrel.num_segments):
            for column in columns:
                key = segrel.segment_key(column, index)
                nbytes = segrel.segment_nbytes(column, index)
                if self.cache.is_resident(key):
                    resident += nbytes
                    self.cache.record_access(key not in fresh, nbytes)
                else:
                    self.cache.record_access(False, nbytes)
        return resident

    def _read_column(
        self, segrel: SegmentedRelation, column: str, hot: Set[int]
    ) -> np.ndarray:
        """One whole column in row order, each segment read from the tier
        that holds it (the device cache for *hot* indices)."""
        parts = []
        for index in range(segrel.num_segments):
            data = None
            if index in hot:
                data = self.cache.get(segrel.segment_key(column, index))
            parts.append(segrel.column_slice(column, index) if data is None else data)
        return np.concatenate(parts) if parts else segrel.relation.column(column)

    # -- operator prologue / epilogue ----------------------------------------

    def _begin(
        self,
        wants: Sequence[Tuple[SegmentedRelation, Sequence[str]]],
        session: Optional[TraceSession],
        fault_plan,
        op: str,
    ):
        """Every tier operator's start: session, pressure, placement."""
        if session is None:
            session = current_session()
        # The cache's private DeviceMemory predates any session, so its
        # pool sink is wired per operator call — before the placement
        # pass, so first-call admissions show up as pool.* metrics
        # alongside the tier.* counters.
        if session is not None and self.cache.memory.pool is not None:
            self.cache.memory.pool.sink = session
        if fault_plan is not None and fault_plan.capacity_frac is not None:
            self.apply_capacity_pressure(fault_plan.capacity_frac, session)
        elif self.cache.pressure_capacity_bytes is not None:
            # capacity pressure is a transient fault: a fault-free run
            # lifts it so the cache can re-warm
            self.apply_capacity_pressure(None, session)
        placement, fresh = self._place(wants, session, op)
        return session, placement, fresh

    def _co_execute(
        self,
        session: Optional[TraceSession],
        fault_plan,
        seed: Optional[int],
        placement: Dict[str, float],
        hot_rows: int,
        cold_rows: int,
        charge_tiers,
        merge_transfer_bytes: int,
        merge: KernelStats,
    ) -> Tuple[float, Dict[str, float]]:
        """Every tier operator's charges around its own tier kernels.

        Admission transfer first, then ``charge_tiers(gpu_ctx, cpu_ctx)``;
        a mixed placement then ships the cold partial up and merges it.
        Returns the operator's seconds (the slower tier plus the merge)
        and its trace extras.
        """
        # Capacity pressure is modeled as cache shrinkage (graceful
        # demotion), not as context-memory enforcement; kernel-fault
        # injection is kept so tier kernels retry like everything else.
        plan = fault_plan.without_capacity() if fault_plan is not None else None
        gpu_ctx = GPUContext(
            device=self.device, trace=session, seed=seed,
            fault_plan=plan, fault_site="tier-gpu",
        )
        cpu_ctx = GPUContext(
            device=self.cpu_device, trace=session, seed=seed,
            fault_plan=plan, fault_site="tier-cpu",
        )
        admitted_bytes = int(placement["admitted_bytes"])
        if admitted_bytes:
            gpu_ctx.submit(
                KernelStats(
                    name="tier_admit",
                    launches=max(1, int(placement["admitted"])),
                    host_transfer_bytes=admitted_bytes,
                ),
                phase="tier-admit",
            )
        charge_tiers(gpu_ctx, cpu_ctx)
        gpu_s = gpu_ctx.elapsed_seconds
        cpu_s = cpu_ctx.elapsed_seconds
        merge_s = 0.0
        if hot_rows > 0 and cold_rows > 0:
            # The smaller (cold/CPU) partial crosses the interconnect and
            # the partials are stitched at device bandwidth — shipping
            # the hot partial *down* would put the bulk of the output on
            # the slow path.
            merge_s = gpu_ctx.submit(
                KernelStats(
                    name="tier_result_transfer",
                    launches=1,
                    host_transfer_bytes=merge_transfer_bytes,
                ),
                phase="tier-merge",
            )
            merge_s += gpu_ctx.submit(merge, phase="tier-merge")
        extras = {
            "tier_gpu_s": gpu_s,
            "tier_cpu_s": cpu_s,
            "tier_merge_s": merge_s,
            "tier_hot_rows": float(hot_rows),
            "tier_cold_rows": float(cold_rows),
            "tier_admitted_bytes": float(admitted_bytes),
            "tier_hit_ratio": self.cache.hit_ratio,
        }
        self._note_op(session, hot_rows, cold_rows)
        return max(gpu_s, cpu_s) + merge_s, extras

    # -- join ---------------------------------------------------------------

    def run_join(
        self,
        left: Relation,
        right: Relation,
        config: Optional[JoinConfig] = None,
        session: Optional[TraceSession] = None,
        fault_plan=None,
        seed: Optional[int] = None,
    ) -> Optional[Tuple[Relation, OperatorTrace]]:
        """Tier-split inner join (left = build, right = probe).

        Returns ``(output, OperatorTrace)``, or ``None`` when either side
        is not under tier management (the executor falls back to the
        single-device backend).  The output
        relation is in canonical s-major match order — identical for
        every placement, and exactly the order of
        :func:`~repro.relational.validation.reference_join`.
        """
        segR = self.segmented(left)
        segS = self.segmented(right)
        if segR is None or segS is None:
            return None
        config = config or JoinConfig()
        r_cols = left.column_names
        s_cols = right.column_names
        session, placement, fresh = self._begin(
            [(segR, r_cols), (segS, s_cols)], session, fault_plan, "join"
        )
        hot, hot_rows, cold_rows = self._split(segS, s_cols, fresh)
        r_resident = self._count_build_residency(segR, r_cols, fresh)
        r_missing = left.total_bytes - r_resident

        unique = config.unique_build_keys
        if unique is None:
            unique = detect_unique_keys(left.key_values)
        r_keys = left.key_values
        # One match over the whole probe side: the segments concatenate
        # in row order, so the pairs do not depend on the placement.
        probe = self._read_column(segS, right.key, hot)
        r_idx, s_idx = match_positions(r_keys, probe, unique)
        per_segment = np.bincount(
            s_idx // segS.segment_rows, minlength=segS.num_segments
        )
        matches = int(r_idx.size)
        hot_matches = sum(int(per_segment[index]) for index in hot)
        cold_matches = matches - hot_matches
        sides = {"r": (left, r_idx), "s": (right, s_idx)}
        columns = []
        for side, source, out_name in output_column_names(left, right):
            relation, rows = sides[side]
            columns.append((out_name, relation.column(source)[rows]))
        output = Relation(columns, key="key", name=config.output_name)

        out_bytes = output.total_bytes
        hot_out_bytes = int(out_bytes * hot_matches / matches) if matches else 0
        r_key_bytes = int(r_keys.nbytes)
        r_row_bytes = max(1, left.total_bytes // max(1, left.num_rows))

        def charge_tiers(gpu_ctx: GPUContext, cpu_ctx: GPUContext) -> None:
            if hot_rows:
                gpu_ctx.submit(
                    KernelStats(
                        name="tier_build",
                        items=left.num_rows,
                        seq_read_bytes=left.total_bytes,
                        seq_write_bytes=2 * r_key_bytes,
                        atomic_ops=left.num_rows,
                        host_transfer_bytes=r_missing,
                    ),
                    phase="tier-gpu",
                )
                probe_stats = []
                for index in sorted(hot):
                    start, stop = segS.row_range(index)
                    probe_stats.append(
                        KernelStats(
                            name="tier_probe",
                            items=stop - start,
                            seq_read_bytes=segS.range_nbytes(s_cols, index),
                        )
                    )
                gpu_ctx.submit_many(probe_stats, phase="tier-gpu")
                gpu_ctx.submit(
                    KernelStats(
                        name="tier_materialize",
                        items=hot_matches,
                        seq_read_bytes=hot_matches * r_row_bytes,
                        seq_write_bytes=hot_out_bytes,
                    ),
                    phase="tier-gpu",
                )
            if cold_rows:
                cpu_ctx.submit(
                    KernelStats(
                        name="tier_build",
                        items=left.num_rows,
                        seq_read_bytes=left.total_bytes,
                        seq_write_bytes=2 * r_key_bytes,
                        atomic_ops=left.num_rows,
                    ),
                    phase="tier-cpu",
                )
                cold_bytes = sum(
                    segS.range_nbytes(s_cols, index)
                    for index in range(segS.num_segments)
                    if index not in hot
                )
                cpu_ctx.submit(
                    KernelStats(
                        name="tier_probe",
                        items=cold_rows,
                        seq_read_bytes=cold_bytes,
                    ),
                    phase="tier-cpu",
                )
                cpu_ctx.submit(
                    KernelStats(
                        name="tier_materialize",
                        items=cold_matches,
                        seq_read_bytes=cold_matches * r_row_bytes,
                        seq_write_bytes=out_bytes - hot_out_bytes,
                    ),
                    phase="tier-cpu",
                )

        seconds, extras = self._co_execute(
            session, fault_plan, seed, placement, hot_rows, cold_rows,
            charge_tiers,
            merge_transfer_bytes=out_bytes - hot_out_bytes,
            merge=KernelStats(
                name="tier_merge",
                items=matches,
                seq_read_bytes=out_bytes,
                seq_write_bytes=out_bytes,
            ),
        )
        return output, operator_trace(
            "Join", "TIER", seconds, matches, extras,
            label=f"TIER hot:{len(hot)}/cold:{segS.num_segments - len(hot)}",
        )

    # -- group-by ------------------------------------------------------------

    def run_group_by(
        self,
        child: Relation,
        node,
        session: Optional[TraceSession] = None,
        fault_plan=None,
        seed: Optional[int] = None,
    ) -> Optional[Tuple[object, OperatorTrace]]:
        """Tier-split grouped aggregation (an ``Aggregate`` *node*) over
        a managed base relation *child*: ``(output, OperatorTrace)``, or
        ``None`` when *child* is not under tier management.

        Hot row ranges are charged to the GPU, cold ranges to the CPU;
        the rows themselves fold once, in row order, exactly as the
        single-device group-bys fold them.
        """
        segrel = self.segmented(child)
        if segrel is None:
            return None
        aggregates = list(node.aggregates)
        needed = list(aggregate_input_columns(node))
        session, placement, fresh = self._begin(
            [(segrel, needed)], session, fault_plan, "group-by"
        )
        hot, hot_rows, cold_rows = self._split(segrel, needed, fresh)
        # The group column stays among the values too: aggregating it
        # (e.g. ``sum(key) by key``) reads it like any other column.
        values = {column: self._read_column(segrel, column, hot) for column in needed}
        group_keys, inverse = group_identify(values[node.group_column])
        groups = int(group_keys.size)
        output: "OrderedDict[str, np.ndarray]" = OrderedDict()
        output["group_key"] = group_keys
        for spec in aggregates:
            data = values[spec.column] if spec.op != "count" else None
            output[spec.output_name] = segmented_aggregate(
                inverse, groups, data, spec.op
            )
        # What each tier's fold would have produced: the distinct group
        # codes among its own rows.
        hot_groups = groups if hot_rows else 0
        cold_groups = groups if cold_rows else 0
        if hot_rows and cold_rows:
            is_hot = np.zeros(segrel.num_segments, dtype=bool)
            is_hot[list(hot)] = True
            row_hot = np.repeat(is_hot, segrel.segment_rows)[: segrel.num_rows]
            hot_groups = _distinct_codes(inverse[row_hot], groups)
            cold_groups = _distinct_codes(inverse[~row_hot], groups)
        hot_idx = sorted(hot)
        cold_idx = [i for i in range(segrel.num_segments) if i not in hot]
        partial_bytes = 8 * (1 + len(aggregates))

        def charge_tiers(gpu_ctx: GPUContext, cpu_ctx: GPUContext) -> None:
            if hot_rows:
                hot_bytes = sum(segrel.range_nbytes(needed, i) for i in hot_idx)
                gpu_ctx.submit(
                    KernelStats(
                        name="tier_fold",
                        items=hot_rows,
                        seq_read_bytes=hot_bytes,
                        seq_write_bytes=hot_groups * partial_bytes,
                        atomic_ops=hot_rows,
                    ),
                    phase="tier-gpu",
                )
            if cold_rows:
                cold_bytes = sum(segrel.range_nbytes(needed, i) for i in cold_idx)
                cpu_ctx.submit(
                    KernelStats(
                        name="tier_fold",
                        items=cold_rows,
                        seq_read_bytes=cold_bytes,
                        seq_write_bytes=cold_groups * partial_bytes,
                    ),
                    phase="tier-cpu",
                )

        seconds, extras = self._co_execute(
            session, fault_plan, seed, placement, hot_rows, cold_rows,
            charge_tiers,
            merge_transfer_bytes=cold_groups * partial_bytes,
            merge=KernelStats(
                name="tier_merge",
                items=groups,
                seq_read_bytes=2 * groups * partial_bytes,
                seq_write_bytes=groups * partial_bytes,
            ),
        )
        return output, operator_trace(
            "Aggregate", "TIER", seconds, groups, extras,
            label=f"TIER hot:{len(hot)}/cold:{segrel.num_segments - len(hot)}",
        )

    def _note_op(
        self, session: Optional[TraceSession], hot_rows: int, cold_rows: int
    ) -> None:
        if session is None:
            return
        session.count("tier.ops")
        if hot_rows:
            session.count("tier.gpu_rows", hot_rows)
        if cold_rows:
            session.count("tier.cpu_rows", cold_rows)
        session.count("tier.hits", 0)  # ensure the counter exists in reports
        ratio_pct = round(self.cache.hit_ratio * 100.0, 3)
        session.metrics.record_max("tier.hit_ratio_pct_peak", ratio_pct)

    def fork_cold(self) -> "TieredRuntime":
        """A placement-independence probe: same segmentation, empty cache.

        The serving layer's cache-insert verifier re-executes a query on
        a cold fork; tiered outputs are placement-independent, so any
        mismatch means corruption, not ordering.
        """
        return TieredRuntime(
            device=self.device,
            cpu_device=self.cpu_device,
            segment_rows=self.segment_rows,
            capacity_bytes=self.capacity_bytes,
            auto_register=True,
            min_admit_weight=self.min_admit_weight,
        )


def _distinct_codes(codes: np.ndarray, groups: int) -> int:
    """How many of the group codes ``0..groups-1`` occur in *codes*."""
    return int(np.count_nonzero(np.bincount(codes, minlength=groups)))
