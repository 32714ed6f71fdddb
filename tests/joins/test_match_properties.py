"""``match_positions`` equals the binary-search match on every input.

The reference is the searchsorted formulation over a stable argsort of
the build side: s-major pairs, equal build keys in ascending build
position, and under ``unique_build_keys`` only the first of them.  The
properties cover both of ``match_positions``' paths (the dense direct
map and the sorted search) across key dtypes, 64-bit extremes, negative
keys, duplicates, single-key skew and spans either side of
``DENSE_SPAN_FACTOR``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.joins.matching import (
    DENSE_SPAN_FACTOR,
    _dense_offsets,
    match_positions,
)

DTYPES = [np.int32, np.int64, np.uint32, np.uint64]

PROPERTY = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_match(build_keys, probe_keys, unique_build_keys):
    """The searchsorted match over the stably sorted build side."""
    if build_keys.size == 0 or probe_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    lo = np.searchsorted(sorted_keys, probe_keys, side="left")
    if unique_build_keys:
        clipped = np.minimum(lo, sorted_keys.size - 1)
        hi = lo + (sorted_keys[clipped] == probe_keys).astype(lo.dtype)
    else:
        hi = np.searchsorted(sorted_keys, probe_keys, side="right")
    counts = hi - lo
    s_pos = np.repeat(np.arange(probe_keys.size, dtype=np.int64), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(s_pos.size, dtype=np.int64) - first
    r_pos = order[np.repeat(lo, counts) + within].astype(np.int64)
    return r_pos, s_pos


def assert_same_match(build_keys, probe_keys, unique_build_keys):
    got = match_positions(build_keys, probe_keys, unique_build_keys)
    want = reference_match(build_keys, probe_keys, unique_build_keys)
    for name, g, w in zip(("build", "probe"), got, want):
        assert g.dtype == np.int64, f"{name} positions are {g.dtype}"
        np.testing.assert_array_equal(g, w, err_msg=f"{name} positions differ")


@st.composite
def key_arrays(draw):
    """(build keys, probe keys) of one dtype, sizes 0-64.

    Build keys are ``base + offsets`` with offsets below a drawn width:
    width 1 is single-key skew, a width below the row count forces
    duplicates, and widths around ``DENSE_SPAN_FACTOR * n`` straddle the
    direct-map bound.  The base sits anywhere in the dtype, including
    its minimum and maximum (int64 extremes, uint64 at or above 2^63).
    """
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    info = np.iinfo(dtype)
    n = draw(st.integers(0, 64))
    bound = DENSE_SPAN_FACTOR * max(n, 1)
    width = draw(
        st.sampled_from([1, max(1, n // 3), max(1, n), bound, bound + 1, 1 << 40])
    )
    width = min(width, int(info.max) - int(info.min) + 1)
    base = draw(
        st.one_of(
            st.just(int(info.min)),
            st.just(int(info.max) - width + 1),
            st.integers(int(info.min), int(info.max) - width + 1),
        )
    )
    offsets = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
    build = np.array([base + o for o in offsets], dtype=dtype)
    candidates = [int(info.min), int(info.max), base, base + width - 1]
    for key in build.tolist():
        candidates += [key, max(int(info.min), key - 1), min(int(info.max), key + 1)]
    probe_values = st.one_of(
        st.sampled_from(candidates), st.integers(int(info.min), int(info.max))
    )
    probe = np.array(
        draw(st.lists(probe_values, min_size=0, max_size=64)), dtype=dtype
    )
    return build, probe


@PROPERTY
@given(keys=key_arrays(), unique=st.booleans())
def test_matches_searchsorted_reference(keys, unique):
    build, probe = keys
    assert_same_match(build, probe, unique)


@PROPERTY
@given(keys=key_arrays())
def test_unique_flag_over_duplicates_keeps_first_position(keys):
    build, probe = keys
    build = np.concatenate([build, build[::-1]])
    assert_same_match(build, probe, True)


@st.composite
def distinct_keys_with_span(draw, extra):
    """n >= 2 distinct int64 keys, span exactly ``F * n + extra``."""
    n = draw(st.integers(2, 64))
    span = DENSE_SPAN_FACTOR * n + extra
    base = draw(st.integers(-(1 << 62), 1 << 62))
    inner = draw(
        st.lists(st.integers(1, span - 2), unique=True, min_size=n - 2, max_size=n - 2)
    )
    offsets = draw(st.permutations([0, span - 1] + inner))
    build = np.array([base + o for o in offsets], dtype=np.int64)
    probe = np.array(
        draw(st.lists(st.integers(base - 2, base + span + 1), max_size=64)),
        dtype=np.int64,
    )
    return build, probe


@PROPERTY
@given(keys=distinct_keys_with_span(0), unique=st.booleans())
def test_span_at_the_bound_takes_the_direct_map(keys, unique):
    build, probe = keys
    assert _dense_offsets(build, probe) is not None
    assert_same_match(build, probe, unique)


@PROPERTY
@given(keys=distinct_keys_with_span(1), unique=st.booleans())
def test_span_over_the_bound_takes_the_search(keys, unique):
    build, probe = keys
    assert _dense_offsets(build, probe) is None
    assert_same_match(build, probe, unique)


def test_unique_flag_over_duplicates_example():
    build = np.array([7, 8, 7, 9], dtype=np.int64)
    probe = np.array([7, 9, 8], dtype=np.int64)
    r_pos, s_pos = match_positions(build, probe, True)
    assert r_pos.tolist() == [0, 3, 1]
    assert s_pos.tolist() == [0, 1, 2]
    r_pos, s_pos = match_positions(build, probe, False)
    assert r_pos.tolist() == [0, 2, 3, 1]
    assert s_pos.tolist() == [0, 0, 1, 2]


@pytest.mark.parametrize("dtype", DTYPES)
def test_keys_at_the_top_of_the_dtype(dtype):
    top = int(np.iinfo(dtype).max)
    build = np.array([top, top - 2, top - 1, top - 2], dtype=dtype)
    probe = np.array([0, top, top - 2, top - 3, top - 1], dtype=dtype)
    assert _dense_offsets(build, probe) is not None
    for unique in (True, False):
        assert_same_match(build, probe, unique)


def test_mixed_key_dtypes_match_like_searchsorted():
    build = np.array([3, -1, 2, 3], dtype=np.int32)
    probe = np.array([3, 2, 1 << 40, -1, -(1 << 40)], dtype=np.int64)
    for unique in (True, False):
        assert_same_match(build, probe, unique)
    floats = probe.astype(np.float64)
    for unique in (True, False):
        assert_same_match(build, floats, unique)
