"""Tests for SADS distributed sorting invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.attention.topk import exact_topk_indices, topk_recall
from repro.core.config import SadsConfig
from repro.core.sads import (
    SadsSorter,
    _key_head,
    _keys,
    _key_scores,
    _key_width,
    _keys_exact,
    _stable_head,
    column_windows,
    vanilla_sort_ops,
)
from repro.model.workloads import synthetic_scores
from repro.utils.rng import make_rng


def _sorter(n=4, radius=4.0, rounds=2):
    return SadsSorter(SadsConfig(n_segments=n, radius=radius, adjust_rounds=rounds))


def test_returns_exactly_k_unique_indices(rng):
    row = rng.normal(size=128)
    res = _sorter().select_row(row, 16)
    assert res.indices.shape == (16,)
    assert np.unique(res.indices).size == 16


def test_indices_sorted_by_descending_score(rng):
    row = rng.normal(size=128)
    res = _sorter().select_row(row, 16)
    vals = row[res.indices]
    assert np.all(np.diff(vals) <= 1e-12)


def test_single_segment_equals_exact_topk(rng):
    """n=1 degenerates to the exact full-row top-k."""
    row = rng.normal(size=96)
    res = _sorter(n=1).select_row(row, 10)
    exact = exact_topk_indices(row[None, :], 10)[0]
    assert set(map(int, res.indices)) == set(map(int, exact))


def test_global_max_always_captured(rng):
    """The clipping radius must never drop the row maximum."""
    for seed in range(10):
        row = make_rng(seed).normal(size=200)
        res = _sorter(n=8, radius=1.0).select_row(row, 8)
        assert int(np.argmax(row)) in set(map(int, res.indices))


@given(
    hnp.arrays(np.float64, st.integers(32, 160),
               elements=st.floats(-50, 50, allow_nan=False)),
    st.integers(2, 8),
    st.integers(1, 16),
)
@settings(max_examples=50, deadline=None)
def test_selection_invariants_hold(row, n, k):
    """For any inputs: k unique valid indices, descending order."""
    k = min(k, row.size)
    res = SadsSorter(SadsConfig(n_segments=n)).select_row(row, k)
    assert res.indices.shape == (k,)
    assert np.unique(res.indices).size == k
    assert res.indices.min() >= 0 and res.indices.max() < row.size


def test_recall_high_on_type2_distribution():
    """DCE: distributed selection loses little on Type-II dominated rows."""
    rng = make_rng(41)
    scores = synthetic_scores(rng, 16, 256, "nlp-encoder")
    k = 32
    res = _sorter(n=4).select(scores, k)
    assert topk_recall(res.indices, scores, k) > 0.85


def test_recall_degrades_gracefully_with_segments():
    rng = make_rng(42)
    scores = synthetic_scores(rng, 8, 256, "nlp-encoder")
    k = 32
    recalls = []
    for n in (1, 4, 16):
        res = SadsSorter(SadsConfig(n_segments=n)).select(scores, k)
        recalls.append(topk_recall(res.indices, scores, k))
    assert recalls[0] == pytest.approx(1.0)
    assert recalls[-1] > 0.6  # still useful at fine tiling


def test_adjustive_exchange_repairs_type3():
    """A concentrated (Type-III) row defeats pure per-segment quotas; the
    exchange rounds must claw back misassigned slots."""
    rng = make_rng(43)
    row = rng.normal(0, 0.5, size=128)
    row[32:48] += 8.0  # all dominants in one segment
    without = SadsSorter(SadsConfig(n_segments=4, adjust_rounds=0)).select_row(row, 8)
    with_adj = SadsSorter(SadsConfig(n_segments=4, adjust_rounds=8)).select_row(row, 8)
    truth = set(map(int, exact_topk_indices(row[None, :], 8)[0]))
    hits_without = len(truth & set(map(int, without.indices)))
    hits_with = len(truth & set(map(int, with_adj.indices)))
    assert hits_with >= hits_without
    assert hits_with >= 6


def test_sads_uses_fewer_compares_than_vanilla(rng):
    scores = rng.normal(size=(8, 512))
    k = 64
    res = _sorter(n=8).select(scores, k)
    vanilla = vanilla_sort_ops(512, k).scaled(8)
    # paper: distributed sorting reduces total comparisons
    assert res.ops["compare"] < 8 * (512 / 2) * 9 * 10 / 2  # vs full bitonic
    del vanilla


def test_clipping_reduces_sorted_candidates(rng):
    """Once the running max is known, later far-below-threshold segments
    are clipped (the sphere search's power win)."""
    row = np.concatenate([make_rng(44).normal(10, 1, 28), np.full(100, -50.0)])
    res = _sorter(n=2, radius=3.0).select_row(row, 8)
    assert res.clipped > 0


def test_batch_select_shapes(rng):
    scores = rng.normal(size=(5, 64))
    res = _sorter().select(scores, 8)
    assert res.indices.shape == (5, 8)
    assert 0.0 <= res.clipped_fraction <= 1.0


def test_k_bounds_validated(rng):
    with pytest.raises(ValueError):
        _sorter().select_row(rng.normal(size=16), 0)
    with pytest.raises(ValueError):
        _sorter().select_row(rng.normal(size=16), 17)


def test_config_validation():
    with pytest.raises(ValueError):
        SadsSorter(SadsConfig(n_segments=0))
    with pytest.raises(ValueError):
        SadsSorter(SadsConfig(radius=-1.0))


def test_quota_distribution_covers_k():
    sorter = _sorter(n=4)
    quotas = sorter._segment_quotas(10, 4)
    assert quotas.sum() == 10
    assert quotas.max() - quotas.min() <= 1


@given(
    hnp.arrays(np.float64, st.integers(16, 200),
               elements=st.floats(-40, 40, allow_nan=False)),
    st.integers(1, 10),
    st.integers(1, 24),
    st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_select_row_routes_through_stack_core_exactly(row, n, k, rounds):
    """select_row == the sequential reference: indices, op counts, clipping.

    select_row now runs the vectorized select_stack core on a one-row
    stack; select_row_reference keeps the sequential per-segment walk as
    the golden model.  They must agree exactly for any row, segment count,
    quota, and exchange budget.
    """
    k = min(k, row.size)
    sorter = SadsSorter(SadsConfig(n_segments=n, adjust_rounds=rounds))
    routed = sorter.select_row(row, k)
    golden = sorter.select_row_reference(row, k)
    assert np.array_equal(routed.indices, golden.indices)
    assert routed.ops["compare"] == golden.ops["compare"]
    assert routed.clipped == golden.clipped


def test_select_row_clipping_matches_reference_on_clipped_rows():
    """The sphere-clipping tallies agree on a row engineered to clip."""
    row = np.concatenate([make_rng(45).normal(10, 1, 28), np.full(100, -50.0)])
    sorter = SadsSorter(SadsConfig(n_segments=4, radius=2.0))
    routed = sorter.select_row(row, 8)
    golden = sorter.select_row_reference(row, 8)
    assert routed.clipped == golden.clipped > 0
    assert np.array_equal(routed.indices, golden.indices)


@pytest.mark.parametrize("w", [1, 2, 3, 9, 64, 65])
def test_stable_head_equals_stable_argsort_head(w):
    """The unstable-sort head with tie repair is the stable argsort head,
    for every m <= w, on distinct, tie-heavy, signed-zero and infinite rows."""
    rng = make_rng(100 + w)
    r = 33
    layouts = [
        rng.normal(size=(r, w)),
        rng.integers(-2, 3, size=(r, w)).astype(np.float64),
        rng.choice([-0.0, 0.0, 1.0], size=(r, w)),
        rng.choice([-np.inf, np.inf, 0.0, 2.0], size=(r, w)),
    ]
    for block in layouts:
        stable = np.argsort(-block, axis=1, kind="stable")
        for m in range(w + 1):
            assert np.array_equal(_stable_head(block, m)[0], stable[:, :m]), m


_HEAD_PALETTE = [-np.inf, -2.5, -1.0, -0.0, 0.0, 1.0, 2.5, np.inf]


@st.composite
def _tied_blocks(draw):
    """Rows drawn from a small palette (forced ties, signed zeros, +-inf),
    some with NaN pads, and a head length up to past the row width."""
    r = draw(st.integers(1, 6))
    w = draw(st.integers(1, 40))
    cells = st.one_of(st.sampled_from(_HEAD_PALETTE), st.floats(-3, 3, width=16))
    block = np.array(
        draw(st.lists(cells, min_size=r * w, max_size=r * w)), dtype=np.float64
    ).reshape(r, w)
    pads = draw(hnp.arrays(np.bool_, (r, w)))
    if draw(st.booleans()):
        block[pads] = np.nan
    return block, draw(st.integers(0, w + 3))


@given(_tied_blocks())
@settings(max_examples=300, deadline=None)
def test_stable_head_is_the_stable_argsort_head_property(case):
    """The unstable argsort + tie repair equals the stable argsort head on
    ties, signed zeros, +-inf, NaN pads and m >= width, with every NaN pad
    carrying index -1 as in the selector's final reorder; its values are
    the block's at the stable positions (bit for bit inside the head, by
    value on the one entry past it)."""
    block, m = case
    stable = np.argsort(-block, axis=1, kind="stable")
    head, vals = _stable_head(block, m)
    width = block.shape[1]
    index = np.where(np.isnan(block), -1, np.arange(width))
    assert head.shape == stable[:, :m].shape
    assert np.array_equal(
        np.take_along_axis(index, head, axis=1),
        np.take_along_axis(index, stable[:, :m], axis=1),
    )
    want = np.take_along_axis(block, stable[:, : min(m + 1, width)], axis=1)
    hm = head.shape[1]
    assert vals.shape == want.shape
    assert vals[:, :hm].tobytes() == want[:, :hm].tobytes()
    assert np.array_equal(vals[:, hm:], want[:, hm:], equal_nan=True)


def test_streamed_select_counts_survivors_past_a_fully_passing_head():
    """Rows whose whole segment head clears the clipping threshold count
    their survivors over the whole block; the tallies, and the indices,
    still equal the sequential reference row by row."""
    rng = make_rng(46)
    sorter = SadsSorter(SadsConfig(n_segments=4, radius=4.0, adjust_rounds=2))
    s, k = 64, 8  # 16-wide segments, quota 2: heads of 4 (+1 past the cut)
    rows = []
    for passing in (1, 3, 5, 6, 9, 16):
        row = np.full(s, -50.0) + rng.normal(0, 0.1, s)
        row[:16] = rng.normal(10.0, 1.0, 16)  # running max ~12 after segment 0
        for lo in (16, 32, 48):
            row[lo : lo + passing] = rng.uniform(9.0, 10.0, passing)  # above max - 4
        rows.append(rng.permutation(row.reshape(4, 16).T).T.ravel())
    scores = np.array(rows)
    got = sorter.select_stack_streamed(
        lambda seg, lo, hi: column_windows(scores, lo, hi), *scores.shape, k
    )
    for r, row in enumerate(scores):
        ref = sorter.select_row_reference(row, k)
        assert np.array_equal(got.indices[r], ref.indices)
        assert got.compare_rows[r] == ref.ops["compare"]
        assert got.clipped_rows[r] == ref.clipped
    # the sphere clipped every row but the one whose segments all pass
    assert (got.clipped_rows[:-1] > 0).all() and got.clipped_rows[-1] == 0


# --------------------------------------------------- key-sorted segment head
_TINY = np.finfo(np.float64).tiny
_KEY_WINDOW = 2.0**51


@st.composite
def _integer_tiles(draw):
    """Exact-integer score tiles, ragged row widths (the rest padding), a
    head length up to past the width, and a scale at the key guard's edges:
    the smallest normal, ``bound * scale`` next to overflow, or plain."""
    r = draw(st.integers(1, 6))
    w = draw(st.integers(1, 40))
    kw = 1 << (w - 1).bit_length()
    top = int(_KEY_WINDOW // kw) - 1  # the widest bound the guard admits
    cells = draw(
        st.sampled_from(
            [
                st.sampled_from([-2, -1, 0, 1, 2]),  # forced ties
                st.just(0),  # all zero
                st.integers(-top, top),
                st.sampled_from([-top, -top + 1, top - 1, top]),
            ]
        )
    )
    ints = np.array(draw(st.lists(cells, min_size=r * w, max_size=r * w)), dtype=np.float64)
    ints = ints.reshape(r, w)
    if draw(st.booleans()):  # signed zeros, as a float64 BLAS tile can hold
        ints[(ints == 0) & draw(hnp.arrays(np.bool_, (r, w)))] = -0.0
    width = np.array(draw(st.lists(st.integers(1, w), min_size=r, max_size=r)))
    bound = float(draw(st.sampled_from([max(np.abs(ints).max(), 1.0), float(top)])))
    kind = draw(st.sampled_from(["tiny", "overflow", "plain"]))
    if kind == "tiny":
        scales = np.full(r, _TINY) * draw(st.sampled_from([1.0, 2.0, 3.0]))
    elif kind == "overflow":
        scales = np.full(r, np.nextafter(np.finfo(np.float64).max / bound, 0))
    else:
        scales = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=r, max_size=r)))
    return ints, width, scales, bound, draw(st.integers(0, w + 3))


@given(_integer_tiles(), st.floats(-1e300, 1e300))
@settings(max_examples=300, deadline=None)
def test_key_sorted_head_is_the_stable_head_of_the_scaled_scores(case, thr):
    """One value sort of the keys ``col - W * score`` gives the stable
    head of ``ints * scale`` (padding ``-inf``): the same columns, the same
    head values bit for bit once scaled (a zero reads +0.0), and the same
    survivor count at any threshold over the whole sorted row."""
    ints, width, scales, bound, m = case
    r, w = ints.shape
    assert _keys_exact(w, bound, scales)
    real = np.arange(w) < width[:, None]
    scaled = np.where(real, ints * scales[:, None], -np.inf)
    ref_head, ref_vals = _stable_head(scaled, m)
    keys = _keys(np.where(real, ints, -np.inf))
    head, scores = _key_head(keys, m)  # sorts keys in place
    vals = scores * scales[:, None]
    assert head.shape == ref_head.shape and vals.shape == ref_vals.shape
    named = np.arange(head.shape[1]) < width[:, None]  # padding names no column
    assert np.array_equal(head[named], ref_head[named])
    assert vals.tobytes() == (ref_vals + 0.0).tobytes()
    decoded = _key_scores(keys, _key_width(w)) * scales[:, None]
    for t in (thr, -np.inf):
        assert np.array_equal((decoded >= t).sum(axis=1), (scaled >= t).sum(axis=1))


@pytest.mark.parametrize(
    "bound, scale, keyed",
    [
        (2.0**45 - 1, 1.0, True),  # W * bound just below 2**51
        (2.0**45, 1.0, False),  # ... and at it
        (100.0, _TINY, True),  # the smallest normal scale
        (100.0, np.nextafter(_TINY, 0), False),  # a subnormal one
        (100.0, np.finfo(np.float64).max / 100.0, True),  # bound * scale finite
        (100.0, np.nextafter(np.finfo(np.float64).max / 100.0, np.inf), False),
    ],
)
def test_integer_tiles_on_both_sides_of_the_key_guard_equal_the_reference(bound, scale, keyed):
    """Integer tiles handed over with their rows' scales are ranked by keys
    inside the guard and scaled onto the float path outside it; either way
    every row equals ``select_row_reference`` on ``ints * scale``."""
    rng = make_rng(47)
    sorter = _sorter(n=4, radius=4.0 * scale, rounds=2)
    s, r, k = 256, 5, 24  # 64-wide segments: W = 64
    ints = rng.integers(-3, 4, size=(r, s)).astype(np.float64)
    ints[:, ::7] = bound * rng.choice([-1.0, 1.0], size=(r, 1))
    scales = np.full(r, scale)
    assert _keys_exact(64, bound, scales) is keyed
    with np.errstate(over="ignore"):  # past the overflow edge, scores reach inf
        got = sorter.select_stack_streamed(
            lambda seg, lo, hi: column_windows(ints, lo, hi), r, s, k,
            row_scales=scales, score_bound=bound,
        )
        rows = ints * scales[:, None]
    for i, row in enumerate(rows):
        ref = sorter.select_row_reference(row, k)
        assert np.array_equal(got.indices[i], ref.indices)
        assert got.compare_rows[i] == ref.ops["compare"]
        assert got.clipped_rows[i] == ref.clipped
