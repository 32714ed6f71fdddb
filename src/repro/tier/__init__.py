"""repro.tier — heterogeneous segment cache with CPU+GPU co-execution.

Relations are split into fixed-size column segments
(:class:`SegmentedRelation`); a :class:`SegmentCache` keeps the hot ones
resident in simulated device memory as real ``DeviceArray`` allocations;
a cost-based :class:`PlacementPolicy` decides placement from per-segment
access history and the serving layer's template popularity; and a
:class:`TieredRuntime` charges join and group-by operators as a GPU
part over resident segments plus a CPU part over cold ones, and
computes their rows once with the single-device code, so the output is
bit-identical to the single-device executor.
"""

from .cache import SegmentCache
from .costmodel import TierCostModel
from .executor import DEFAULT_SEGMENT_ROWS, TieredRuntime
from .policy import PlacementDecision, PlacementPolicy, SegmentStats
from .segments import SegmentedRelation, SegmentKey

__all__ = [
    "DEFAULT_SEGMENT_ROWS",
    "PlacementDecision",
    "PlacementPolicy",
    "SegmentCache",
    "SegmentKey",
    "SegmentStats",
    "SegmentedRelation",
    "TierCostModel",
    "TieredRuntime",
]
