"""Match-index computation shared by the join algorithms.

These helpers compute *which* tuples match — pure index arithmetic with
no simulated cost.  Each algorithm charges its own match-finding traffic
(merge passes, hash-table builds/probes) around these calls; see the
algorithm modules for the accounting.

All helpers produce matches in probe-major (s-major) order: ascending s
position, which is the streaming order both the merge join and the
partitioned hash join naturally emit (Section 4.1 — the property that
keeps GFTR's output identifiers clustered).  Equal build keys match in
stable build order (ascending build position).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..primitives.grouping import stable_key_order

#: Integer build keys whose span (``max - min + 1``) is at most this
#: multiple of the build row count take the direct-map path.  The paper's
#: primary keys are a shuffled ``0..|R|-1`` (span == |R|), or up to
#: ``2|R|`` once non-matching keys are displaced (Section 5.1).
DENSE_SPAN_FACTOR = 4


def expand_bounds(
    lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-probe match ranges ``[lo, hi)`` into index pairs.

    Returns ``(r_pos, s_pos)`` where ``r_pos`` are positions in the
    sorted build side and ``s_pos`` positions in the probe side,
    s-major ordered.
    """
    counts = (hi - lo).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    s_pos = np.repeat(np.arange(lo.size, dtype=np.int64), counts)
    starts = np.repeat(lo.astype(np.int64), counts)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(first, counts)
    return starts + within, s_pos


def match_positions(
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    unique_build_keys: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching (build position, probe position) pairs, s-major.

    ``build_keys`` need not be sorted; positions refer to the arrays as
    given (e.g. a radix-partitioned layout).  Equal build keys match in
    ascending build position; with ``unique_build_keys`` each probe
    keeps only the first of them.  Both outputs are int64.

    Distinct integer build keys whose span is at most
    :data:`DENSE_SPAN_FACTOR` times the build row count are matched
    through a direct map indexed by ``key - min``; all other keys
    binary-search the stably sorted build side.  Both paths return
    identical pairs.
    """
    if build_keys.size == 0 or probe_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    dense = _dense_offsets(build_keys, probe_keys)
    if dense is not None:
        matched = _direct_map_match(*dense)
        if matched is not None:
            return matched
    order = stable_key_order(build_keys)
    sorted_keys = build_keys[order]
    lo = np.searchsorted(sorted_keys, probe_keys, side="left")
    if unique_build_keys:
        clipped = np.minimum(lo, sorted_keys.size - 1)
        matched = sorted_keys[clipped] == probe_keys
        hi = lo + matched.astype(lo.dtype)
    else:
        hi = np.searchsorted(sorted_keys, probe_keys, side="right")
    sorted_pos, s_pos = expand_bounds(lo, hi)
    return order[sorted_pos], s_pos


def _dense_offsets(
    build_keys: np.ndarray, probe_keys: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """``(build offsets, probe offsets, span)`` when the build is dense.

    Offsets are ``key - min(build)`` as intp; a probe outside the build
    range gets offset ``span``.  ``None`` for non-integer keys or a
    sparse build span.
    """
    dtype = np.result_type(build_keys.dtype, probe_keys.dtype)
    if dtype.kind not in "iu":
        return None
    build_keys = build_keys.astype(dtype, copy=False)
    probe_keys = probe_keys.astype(dtype, copy=False)
    lo = build_keys.min()
    span = int(build_keys.max()) - int(lo) + 1
    if span > DENSE_SPAN_FACTOR * build_keys.size:
        return None
    # Subtract in the key's own width and read the difference unsigned:
    # (key - lo) mod 2^bits is below span exactly for keys in
    # [lo, lo + span), so no value can overflow into a false match.
    unsigned = np.dtype(f"u{dtype.itemsize}")
    build_off = (build_keys - lo).view(unsigned).astype(np.intp)
    probe_off = (probe_keys - lo).view(unsigned)
    if span < 1 << (8 * dtype.itemsize):
        probe_off = np.minimum(probe_off, unsigned.type(span))
    probe_off = probe_off.astype(np.intp)
    return build_off, probe_off, span


def _direct_map_match(
    build_off: np.ndarray, probe_off: np.ndarray, span: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Direct-map match over offsets from :func:`_dense_offsets`.

    The slot table has one extra slot at index ``span`` that
    out-of-range probes hit and that never matches.  ``None`` when the
    build keys are not distinct; those take the search path.
    """
    n = build_off.size
    # Positions fit int32 below 2^31 rows: half the table's cache traffic.
    slot_type = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    slots = np.full(span + 1, -1, dtype=slot_type)
    slots[build_off] = np.arange(n, dtype=slot_type)
    if np.count_nonzero(slots >= 0) != n:
        return None
    # Distinct build keys: every probe hits at most one slot, so the
    # unique flag cannot change the result.
    hit = np.take(slots, probe_off)
    s_pos = np.flatnonzero(hit >= 0).astype(np.int64, copy=False)
    if s_pos.size < hit.size:
        hit = np.take(hit, s_pos)
    return hit.astype(np.int64), s_pos
