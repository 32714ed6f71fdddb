"""Output digests: compare query outputs without keeping them.

A digest holds an output's column set with dtypes, its row count, an
order-independent fingerprint of its rows (the row multiset) and an
order-dependent one (the row sequence).  Two outputs hold the same rows
when their multiset fingerprints match; they also agree on row order
when their sequence fingerprints match.  Row fingerprints are 64-bit
mixes of every column value, so a false match is a 2^-64 event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 (wrapping)."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _as_bits(column: np.ndarray) -> np.ndarray:
    """Column values as uint64 bit patterns (value semantics, not dtype)."""
    if np.issubdtype(column.dtype, np.floating):
        return column.astype(np.float64).view(np.uint64)
    return column.astype(np.int64).view(np.uint64)


@dataclass(frozen=True)
class Digest:
    columns: Tuple[Tuple[str, str], ...]
    rows: int
    multiset: Tuple[int, int]
    sequence: int


def _columns(output) -> Dict[str, np.ndarray]:
    """A Relation's or a group-by dict's columns, in output order."""
    if hasattr(output, "columns") and callable(output.columns):
        return dict(output.columns())
    return dict(output)


def digest(output) -> Digest:
    columns = dict(sorted(_columns(output).items()))
    rows = len(next(iter(columns.values()))) if columns else 0
    with np.errstate(over="ignore"):
        h = np.zeros(rows, dtype=np.uint64)
        for salt, values in enumerate(columns.values(), start=1):
            h = _mix(h ^ (_as_bits(np.asarray(values)) + np.uint64(salt)))
        position = _mix(np.arange(rows, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15))
        multiset = (
            int(h.sum(dtype=np.uint64)),
            int(_mix(h ^ np.uint64(0x5851F42D4C957F2D)).sum(dtype=np.uint64)),
        )
        sequence = int(_mix(h ^ position).sum(dtype=np.uint64))
    return Digest(
        columns=tuple((name, str(np.asarray(v).dtype)) for name, v in columns.items()),
        rows=rows,
        multiset=multiset,
        sequence=sequence,
    )


def compare(expected: Digest, actual: Digest) -> Tuple[bool, bool]:
    """(same rows, columns and dtypes; also the same row order)."""
    same = (
        expected.columns == actual.columns
        and expected.rows == actual.rows
        and expected.multiset == actual.multiset
    )
    return same, same and expected.sequence == actual.sequence
