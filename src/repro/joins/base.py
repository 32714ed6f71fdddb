"""Shared machinery for the join implementations.

The paper structures every join into three phases (Section 2.2):

``transform``
    Sort or partition the inputs (optionally with payload columns —
    GFTR — or only with generated tuple identifiers — GFUR).
``match``
    Find matching tuples, producing the output keys plus per-side match
    identifier arrays (physical IDs under GFUR, virtual IDs under GFTR).
``materialize``
    Gather the payload columns of matching tuples into the output.

A :class:`JoinResult` carries the real materialized output relation plus
the simulated phase times, traffic profile and memory peaks.

Memory accounting convention: the tracking allocator only holds
*auxiliary* arrays (tuple IDs, transformed columns, match ID arrays,
sort/partition temporaries).  Input and output relations are assumed
resident — exactly the assumption of Section 4.4 — and are reported
separately, so ``peak_total_bytes = input + output + peak_aux``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import JoinConfigError
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..relational.relation import Relation
from ..primitives.gather import gather
from ..primitives.grouping import count_distinct
from ..primitives.sector_analysis import SectorStats, analyze_indices
from ..relational.types import id_dtype

#: Canonical phase names (order matters for reports).
TRANSFORM, MATCH, MATERIALIZE = "transform", "match", "materialize"


@dataclass
class JoinConfig:
    """Options shared by all join algorithms.

    Attributes
    ----------
    unique_build_keys:
        Declare the build (R) side keys unique — the primary-foreign-key
        case the paper focuses on.  Enables the single-pass Merge Path
        optimization and tighter hash tables.  ``None`` -> auto-detect.
    tuples_per_partition:
        Target co-partition size for partitioned joins (sized so a
        partition's hash table fits in shared memory).
    partition_bits:
        Force the radix-partition fan-out; ``None`` derives it from the
        build-side size and ``tuples_per_partition``.
    hashed_partitioning:
        Partition on mixed-hash bits instead of raw key radix bits (for
        keys that are not uniform in their low bits).
    double_merge_pass:
        Run Merge Path twice (lower and upper bounds) even for unique
        build keys — the unoptimized behaviour of prior work (ablation).
    """

    unique_build_keys: Optional[bool] = None
    tuples_per_partition: int = 4096
    partition_bits: Optional[int] = None
    hashed_partitioning: bool = False
    double_merge_pass: bool = False
    bucket_tuples: int = 4096
    #: Decompose oversized probe partitions before the hash match
    #: (Section 3.2's load-balancing step).  Disable for ablation abl04.
    load_balance: bool = True
    #: Projection pushdown: only materialize these payload columns (by
    #: their *output* names; the key column is always produced).  ``None``
    #: materializes everything.
    projection: Optional[Tuple[str, ...]] = None
    output_name: str = "T"

    def validate(self) -> None:
        if self.tuples_per_partition <= 0:
            raise JoinConfigError("tuples_per_partition must be positive")
        if self.partition_bits is not None and not 1 <= self.partition_bits <= 24:
            raise JoinConfigError("partition_bits must be in [1, 24]")
        if self.bucket_tuples <= 0:
            raise JoinConfigError("bucket_tuples must be positive")


@dataclass
class JoinResult:
    """Outcome of one simulated join execution."""

    output: Relation
    algorithm: str
    pattern: str  # "gfur" or "gftr"
    device: DeviceSpec
    phase_seconds: Dict[str, float]
    input_bytes: int
    output_bytes: int
    peak_aux_bytes: int
    phase_aux_peaks: Dict[str, int]
    matches: int
    r_rows: int
    s_rows: int
    kernel_count: int
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def peak_total_bytes(self) -> int:
        return self.input_bytes + self.output_bytes + self.peak_aux_bytes

    @property
    def throughput_tuples_per_s(self) -> float:
        """(|R| + |S|) / total time — the paper's throughput metric."""
        if self.total_seconds == 0:
            return float("inf")
        return (self.r_rows + self.s_rows) / self.total_seconds

    @property
    def throughput_bytes_per_s(self) -> float:
        if self.total_seconds == 0:
            return float("inf")
        return self.input_bytes / self.total_seconds

    def phase_fraction(self, phase: str) -> float:
        total = self.total_seconds
        return self.phase_seconds.get(phase, 0.0) / total if total else 0.0

    def describe(self) -> str:
        parts = ", ".join(
            f"{phase}={seconds * 1e3:.3f}ms"
            for phase, seconds in self.phase_seconds.items()
        )
        return (
            f"{self.algorithm}[{self.pattern}] on {self.device.name}: "
            f"{self.matches} matches, total={self.total_seconds * 1e3:.3f}ms ({parts})"
        )


def output_column_names(
    r: Relation, s: Relation, projection: Optional[Tuple[str, ...]] = None
) -> List[Tuple[str, str, str]]:
    """Output schema: [(side, source column, output name)], key first.

    S payload names that collide with the key or R payloads get an
    ``_s`` suffix, mirroring :func:`repro.relational.reference_join`.
    With a *projection*, only the named payload columns are kept (the
    key is always produced); unknown names raise
    :class:`~repro.errors.JoinConfigError`.
    """
    names: List[Tuple[str, str, str]] = [("r", r.key, "key")]
    taken = {"key"}
    for name in r.payload_names:
        names.append(("r", name, name))
        taken.add(name)
    for name in s.payload_names:
        out = name if name not in taken else f"{name}_s"
        names.append(("s", name, out))
        taken.add(out)
    if projection is None:
        return names
    wanted = set(projection)
    available = {out for _, _, out in names}
    unknown = wanted - available
    if unknown:
        raise JoinConfigError(
            f"projection references unknown columns {sorted(unknown)}; "
            f"available: {sorted(available - {'key'})}"
        )
    return [
        entry for entry in names if entry[2] == "key" or entry[2] in wanted
    ]


def map_stats(
    memo: Dict[Tuple[str, int], SectorStats],
    side: str,
    index_map: np.ndarray,
    element_bytes: int,
) -> SectorStats:
    """Sector stats of one side's match map, analysed once per width.

    Every payload column of a side is gathered through the same map, and
    the stats depend only on the map and the element width, so *memo*
    (one dict per materialization) holds them per ``(side, width)``.
    """
    key = (side, element_bytes)
    if key not in memo:
        memo[key] = analyze_indices(index_map, element_bytes)
    return memo[key]


def materialize_gfur(
    ctx: GPUContext,
    r: Relation,
    s: Relation,
    out_key: np.ndarray,
    ids_r,
    ids_s,
    projection: Optional[Tuple[str, ...]],
) -> List[Tuple[str, np.ndarray]]:
    """GFUR materialization: gather every output payload column from its
    input relation through the side's physical match IDs, then free the
    ID arrays (*ids_r* / *ids_s* are tracked-allocator handles)."""
    columns: List[Tuple[str, np.ndarray]] = [("key", out_key)]
    memo: Dict[Tuple[str, int], SectorStats] = {}
    with ctx.phase(MATERIALIZE):
        for side, source, out_name in output_column_names(r, s, projection):
            if out_name == "key":
                continue
            column = (r if side == "r" else s).column(source)
            ids = (ids_r if side == "r" else ids_s).data
            stats = map_stats(memo, side, ids, column.dtype.itemsize)
            columns.append(
                (out_name, gather(ctx, column, ids, phase=MATERIALIZE, label=out_name, stats=stats))
            )
        ctx.mem.free(ids_r)
        ctx.mem.free(ids_s)
    return columns


def init_tuple_ids(
    ctx: GPUContext, n: int, phase: str, label: str, dtype=None
) -> np.ndarray:
    """Materialize physical tuple identifiers 0..n-1 (one write pass).

    IDs are sized like the key column they travel with (CUB sorts 64-bit
    keys with 64-bit values), falling back to the narrowest width that
    fits ``n``.
    """
    ids = np.arange(n, dtype=dtype if dtype is not None else id_dtype(n))
    ctx.submit(
        KernelStats(
            name=f"init_ids:{label}",
            items=n,
            seq_write_bytes=int(ids.nbytes),
        ),
        phase=phase,
    )
    return ids


def detect_unique_keys(keys: np.ndarray) -> bool:
    """True if all key values are distinct."""
    if keys.size <= 1:
        return True
    return count_distinct(keys) == keys.size


class JoinAlgorithm(ABC):
    """Base class for the five join implementations.

    Subclasses implement :meth:`_execute`, producing the match index
    arrays and charging phase-attributed kernels on the context; the base
    class handles validation, context setup and result assembly.
    """

    #: Short name, e.g. "SMJ-OM"; set by subclasses.
    name: str = ""
    #: Materialization pattern: "gfur" or "gftr".
    pattern: str = ""

    def __init__(self, config: Optional[JoinConfig] = None):
        self.config = config or JoinConfig()
        self.config.validate()

    def join(
        self,
        r: Relation,
        s: Relation,
        ctx: Optional[GPUContext] = None,
        device: DeviceSpec = A100,
        seed: Optional[int] = None,
    ) -> JoinResult:
        """Execute ``R ⋈ S`` on this algorithm.

        R is the build (primary-key) side and S the probe side, matching
        the paper's convention.  A fresh :class:`GPUContext` is created
        unless one is supplied.
        """
        if ctx is None:
            ctx = GPUContext(device=device, seed=seed)
        unique = self.config.unique_build_keys
        if unique is None:
            unique = detect_unique_keys(r.key_values)

        # Narrow joins (<= 1 payload column per side) use the paper's
        # two-phase path when the algorithm provides one (Section 2.2):
        # payloads transform with the keys and match finding emits them
        # directly, so there is no materialization phase.
        narrow_exec = getattr(self, "_execute_narrow", None)
        is_narrow = r.num_payload_columns <= 1 and s.num_payload_columns <= 1
        with ctx.trace_span(
            f"join:{self.name}",
            category="algorithm",
            pattern=self.pattern,
            r_rows=r.num_rows,
            s_rows=s.num_rows,
        ):
            if is_narrow and narrow_exec is not None and self.config.projection is None:
                output_columns = narrow_exec(ctx, r, s, unique)
            else:
                output_columns = self._execute(ctx, r, s, unique)

        output = Relation(output_columns, key="key", name=self.config.output_name)
        ctx.count("join_matches", output.num_rows)
        phase_seconds = dict(ctx.timeline.breakdown())
        return JoinResult(
            output=output,
            algorithm=self.name,
            pattern=self.pattern,
            device=ctx.device,
            phase_seconds=phase_seconds,
            input_bytes=r.total_bytes + s.total_bytes,
            output_bytes=output.total_bytes,
            peak_aux_bytes=ctx.mem.peak_bytes,
            phase_aux_peaks=ctx.mem.phase_peaks,
            matches=output.num_rows,
            r_rows=r.num_rows,
            s_rows=s.num_rows,
            kernel_count=ctx.timeline.kernel_count(),
        )

    @abstractmethod
    def _execute(
        self, ctx: GPUContext, r: Relation, s: Relation, unique_build_keys: bool
    ) -> List[Tuple[str, np.ndarray]]:
        """Run the join; return the output columns (name, array) in order."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, pattern={self.pattern!r})"
