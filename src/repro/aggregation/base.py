"""Shared machinery for grouped aggregation.

The SIGMOD 2025 scope extends the join study to grouped aggregations.
We implement the three standard GPU strategies with the same
methodology as the joins — real numpy semantics, measured traffic,
phase-structured simulated time:

* hash aggregation into a global table (cheap for few groups, random
  traffic for many);
* sort-based aggregation (sort + segmented reduce; robust, sequential);
* partitioned aggregation (radix partition so each partition's groups
  fit in shared memory — the group-by analogue of PHJ).

Each strategy supports the two materialization patterns of the paper:
``gfur`` transforms ``(key, tuple ID)`` and fetches value columns through
permuted IDs (unclustered), while ``gftr`` transforms each value column
*with* the keys and streams it sequentially — the exact analogue of
Algorithm 1 for aggregation pipelines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import AggregationConfigError
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, DeviceSpec
from ..primitives.grouping import stable_key_order

#: Canonical group-by phases.
TRANSFORM, AGGREGATE, MATERIALIZE = "transform", "aggregate", "materialize"

#: Supported aggregate operators.
SUPPORTED_OPS = ("sum", "count", "min", "max", "mean")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``op`` applied to value column ``column``."""

    column: str
    op: str

    def __post_init__(self):
        if self.op not in SUPPORTED_OPS:
            raise AggregationConfigError(
                f"unsupported aggregate {self.op!r}; supported: {SUPPORTED_OPS}"
            )

    @property
    def output_name(self) -> str:
        return f"{self.op}_{self.column}"


@dataclass
class GroupByConfig:
    """Options shared by the aggregation strategies.

    ``tuples_per_partition`` is the target number of *distinct groups*
    per partition for the partitioned strategy; ``None`` (default)
    derives it from the device's shared-memory capacity at run time.
    """

    tuples_per_partition: Optional[int] = None
    partition_bits: Optional[int] = None
    hashed_partitioning: bool = True
    table_load_factor: float = 0.5

    def validate(self) -> None:
        if self.tuples_per_partition is not None and self.tuples_per_partition <= 0:
            raise AggregationConfigError("tuples_per_partition must be positive")
        if not 0 < self.table_load_factor <= 1:
            raise AggregationConfigError("table_load_factor must be in (0, 1]")


@dataclass
class GroupByResult:
    """Outcome of one simulated grouped aggregation."""

    output: "OrderedDict[str, np.ndarray]"
    algorithm: str
    pattern: str
    device: DeviceSpec
    phase_seconds: Dict[str, float]
    rows: int
    groups: int
    input_bytes: int
    peak_aux_bytes: int
    kernel_count: int
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def throughput_tuples_per_s(self) -> float:
        if self.total_seconds == 0:
            return float("inf")
        return self.rows / self.total_seconds

    def column(self, name: str) -> np.ndarray:
        return self.output[name]

    def describe(self) -> str:
        parts = ", ".join(
            f"{p}={s * 1e3:.3f}ms" for p, s in self.phase_seconds.items()
        )
        return (
            f"{self.algorithm}[{self.pattern}] on {self.device.name}: "
            f"{self.groups} groups from {self.rows} rows, "
            f"total={self.total_seconds * 1e3:.3f}ms ({parts})"
        )


def segmented_aggregate(
    inverse: np.ndarray,
    num_groups: int,
    values: Optional[np.ndarray],
    op: str,
) -> np.ndarray:
    """Aggregate *values* per group given group codes ``inverse``.

    The numeric semantics shared by every strategy; traffic is charged by
    the callers.  ``values`` may be None for ``count``.
    """
    counts = np.bincount(inverse, minlength=num_groups)
    if op == "count":
        return counts.astype(np.int64)
    if values is None:
        raise AggregationConfigError(f"aggregate {op!r} requires a value column")
    if op == "sum":
        return np.bincount(
            inverse, weights=values.astype(np.float64), minlength=num_groups
        ).astype(np.int64)
    if op == "mean":
        sums = np.bincount(
            inverse, weights=values.astype(np.float64), minlength=num_groups
        )
        return sums / np.maximum(counts, 1)
    if op in ("min", "max"):
        reducer = np.minimum if op == "min" else np.maximum
        fill = np.iinfo(np.int64).max if op == "min" else np.iinfo(np.int64).min
        out = np.full(num_groups, fill, dtype=np.int64)
        reducer.at(out, inverse, values.astype(np.int64))
        return out
    raise AggregationConfigError(f"unsupported aggregate {op!r}")


def merge_disjoint_groups(
    parts: Sequence[Mapping[str, np.ndarray]],
) -> "OrderedDict[str, np.ndarray]":
    """Merge group-by outputs over disjoint key sets into one output.

    The merge step shared by the out-of-core (per block) and sharded
    (per device) group-bys: every group lives wholly in one part, so
    the merged output is the concatenation in ascending ``group_key``
    order.  Traffic is charged by the callers.
    """
    order = stable_key_order(np.concatenate([p["group_key"] for p in parts]))
    return OrderedDict(
        (column, np.concatenate([p[column] for p in parts])[order])
        for column in parts[0]
    )


class GroupByAlgorithm(ABC):
    """Base class for the three aggregation strategies."""

    name: str = ""
    pattern: str = ""

    def __init__(self, config: Optional[GroupByConfig] = None):
        self.config = config or GroupByConfig()
        self.config.validate()

    def group_by(
        self,
        keys: np.ndarray,
        values: Dict[str, np.ndarray],
        aggregates: List[AggSpec],
        ctx: Optional[GPUContext] = None,
        device: DeviceSpec = A100,
        seed: Optional[int] = None,
    ) -> GroupByResult:
        """Aggregate *values* grouped by *keys*.

        Returns group keys in ascending order with one output column per
        aggregate (named ``<op>_<column>``).
        """
        for spec in aggregates:
            if spec.op != "count" and spec.column not in values:
                raise AggregationConfigError(
                    f"aggregate references missing column {spec.column!r}"
                )
        if ctx is None:
            ctx = GPUContext(device=device, seed=seed)

        with ctx.trace_span(
            f"groupby:{self.name}",
            category="algorithm",
            pattern=self.pattern,
            rows=int(keys.size),
        ):
            output = self._execute(ctx, keys, values, aggregates)
        ctx.count("groupby_groups", int(output["group_key"].size))

        input_bytes = int(keys.nbytes) + sum(int(v.nbytes) for v in values.values())
        return GroupByResult(
            output=output,
            algorithm=self.name,
            pattern=self.pattern,
            device=ctx.device,
            phase_seconds=dict(ctx.timeline.breakdown()),
            rows=int(keys.size),
            groups=int(output["group_key"].size),
            input_bytes=input_bytes,
            peak_aux_bytes=ctx.mem.peak_bytes,
            kernel_count=ctx.timeline.kernel_count(),
        )

    @abstractmethod
    def _execute(
        self,
        ctx: GPUContext,
        keys: np.ndarray,
        values: Dict[str, np.ndarray],
        aggregates: List[AggSpec],
    ) -> "OrderedDict[str, np.ndarray]":
        """Run the aggregation, charging phase-attributed kernels."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, pattern={self.pattern!r})"
