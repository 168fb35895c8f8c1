"""Tests for DLZS log-domain prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import DlzsConfig
from repro.core.dlzs import (
    DlzsPredictor,
    StackedDlzsPredictor,
    dlzs_matmul,
    dlzs_relative_error,
    vanilla_lz_matmul,
)
from repro.attention.topk import exact_topk_indices, topk_recall
from repro.numerics.fixed_point import quantize_stack
from repro.numerics.linalg import _blas_exact
from repro.utils.rng import make_rng

int8_matrices = hnp.arrays(
    np.int64, (6, 8), elements=st.integers(-127, 127)
)
int8_matrices_b = hnp.arrays(
    np.int64, (8, 5), elements=st.integers(-127, 127)
)


def test_dlzs_sign_correctness():
    """With single-element inner dim the approximate product's sign is exact."""
    a = np.array([[3], [-5]])
    b = np.array([[7, -2]])
    res = dlzs_matmul(a, b, width=8)
    assert np.sign(res.values[0, 0]) == 1
    assert np.sign(res.values[0, 1]) == -1
    assert np.sign(res.values[1, 0]) == -1
    assert np.sign(res.values[1, 1]) == 1


def test_dlzs_zero_operand_gives_zero():
    a = np.array([[5]])
    b = np.array([[0]])
    assert dlzs_matmul(a, b, width=8).values[0, 0] == 0


@given(int8_matrices, int8_matrices_b)
@settings(max_examples=40, deadline=None)
def test_dlzs_overestimates_within_2x(a, b):
    """Element products satisfy |x*y| <= |approx| < 2|x*y| (one-hot rounds up),
    so the row sums are bounded by 2x the exact magnitude sums."""
    res = dlzs_matmul(a, b, width=8)
    # compare magnitude sums: sum |approx products| <= 2 * sum |exact products|
    bound = 2 * (np.abs(a) @ np.abs(b))
    assert np.all(np.abs(res.values) <= bound + 1e-9)
    assert np.all(np.abs(res.values) >= 0)


def test_dlzs_more_accurate_than_vanilla():
    """Fig. 7(c): keeping one operand exact halves the error."""
    rng = make_rng(31)
    a = rng.integers(-127, 128, size=(24, 32))
    b = rng.integers(-127, 128, size=(32, 24))
    exact = (a @ b).astype(np.float64)
    dlzs = dlzs_matmul(a, b, width=8).values.astype(np.float64)
    vanilla = vanilla_lz_matmul(a, b, width=8).values.astype(np.float64)
    err_dlzs = dlzs_relative_error(dlzs, exact)
    err_vanilla = dlzs_relative_error(vanilla, exact)
    assert err_dlzs < err_vanilla


def test_dlzs_uses_half_the_converters():
    rng = make_rng(32)
    a = rng.integers(-127, 128, size=(8, 16))
    b = rng.integers(1, 128, size=(16, 8))
    dlzs_ops = dlzs_matmul(a, b, width=8).ops
    vanilla_ops = vanilla_lz_matmul(a, b, width=8).ops
    assert dlzs_ops["lzc"] == b.size
    assert vanilla_ops["lzc"] == a.size + b.size


def test_dlzs_no_multiplications():
    rng = make_rng(33)
    a = rng.integers(-127, 128, size=(4, 8))
    b = rng.integers(-127, 128, size=(8, 4))
    ops = dlzs_matmul(a, b, width=8).ops
    assert ops["mul"] == 0
    assert ops["shift"] > 0


def test_dlzs_shape_validation():
    with pytest.raises(ValueError):
        dlzs_matmul(np.zeros((2, 3), dtype=np.int64), np.zeros((4, 2), dtype=np.int64), 8)


def test_predictor_preserves_topk_ranking(medium_workload):
    """The end goal: DLZS scores rank the true top-k keys well."""
    wl = medium_workload
    predictor = DlzsPredictor(wl.wk)
    pred = predictor.predict(wl.tokens, wl.q)
    k = 32
    sel = exact_topk_indices(pred.a_hat, k)
    recall = topk_recall(sel, wl.scores(), k)
    assert recall > 0.6


def test_predictor_beats_chance(medium_workload):
    wl = medium_workload
    predictor = DlzsPredictor(wl.wk)
    pred = predictor.predict(wl.tokens, wl.q)
    k = 32
    sel = exact_topk_indices(pred.a_hat, k)
    chance = k / wl.seq_len
    assert topk_recall(sel, wl.scores(), k) > 3 * chance


def test_predictor_stored_weight_bits():
    """LZ storage: sign + 4-bit code instead of the full 8-bit weight."""
    predictor = DlzsPredictor(np.ones((8, 4), dtype=np.int64), DlzsConfig())
    assert predictor.stored_weight_bits <= 5


def test_predictor_no_lzc_in_key_phase(medium_workload):
    """Weights were pre-converted offline - phase 1.1 must be converter-free."""
    wl = medium_workload
    predictor = DlzsPredictor(wl.wk)
    res = predictor.predict_keys(wl.tokens)
    assert res.ops["lzc"] == 0


def test_predictor_rejects_bad_wk():
    with pytest.raises(ValueError):
        DlzsPredictor(np.zeros(4))


def test_prediction_result_scale_positive(medium_workload):
    wl = medium_workload
    pred = DlzsPredictor(wl.wk).predict(wl.tokens, wl.q)
    assert pred.scale > 0


def test_relative_error_scale_free():
    rng = make_rng(34)
    exact = rng.normal(size=64)
    approx = 3.7 * exact
    assert dlzs_relative_error(approx, exact) < 1e-10


def test_stacked_phase_one_exact_on_both_sides_of_the_blas_window():
    """Phase 1.1 runs on float64 BLAS only inside the exact window; integer
    tokens large enough to leave it fall back to the int64 matmul, and
    ``k_hat`` equals the int64 matmul's either way."""
    rng = make_rng(12)
    n, s, h, d = 2, 40, 8, 8
    cfg = DlzsConfig()
    pred = StackedDlzsPredictor(rng.normal(size=(n, h, d)), cfg)
    q = rng.normal(size=(n, 3, d))
    for bits, inside in ((20, True), (50, False)):
        tokens = rng.integers(-(2**bits), 2**bits, size=(n, s, h))
        assert _blas_exact(tokens, pred._wk_pow2) is inside
        want = quantize_stack(tokens @ pred._wk_pow2, cfg.intermediate_bits).values
        # k_hat holds the heads' rows back to back.
        assert np.array_equal(pred.predict_prepared(tokens, q).k_hat, want.reshape(n * s, d))


@pytest.mark.parametrize("block_tokens", [64, 16], ids=["flat", "paged"])
def test_keyed_phase_one_exact_on_both_sides_of_the_blas_window(block_tokens):
    """Keyed heads (through the decode cache, miss then appended hit) and
    their keyless batch-mates give the int64 matmul's ``k_hat`` inside and
    outside the exact BLAS window, with each cached entry in one block
    ("flat") or cut over several ("paged")."""
    from repro.engine.paged import PagedDecodeCache

    rng = make_rng(13)
    n, s, h, d = 2, 40, 8, 8
    cfg = DlzsConfig()
    pred = StackedDlzsPredictor(rng.normal(size=(n, h, d)), cfg)
    q = rng.normal(size=(n, 3, d))
    for bits, inside in ((20, True), (50, False)):
        cache = PagedDecodeCache(block_tokens=block_tokens)
        tokens = rng.integers(-(2**bits), 2**bits, size=(n, s + 5, h))
        assert _blas_exact(tokens, pred._wk_pow2) is inside
        for length in (s, s + 5):  # a miss, then a hit that appends 5 rows
            grown = tokens[:, :length]
            want = quantize_stack(
                grown @ pred._wk_pow2, cfg.intermediate_bits
            ).values
            got = pred.predict_prepared(
                grown, q, cache=cache, cache_keys=[("seq", bits), None]
            ).k_hat
            assert np.array_equal(got, want.reshape(n * length, d))
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)
        cache.close()


@pytest.mark.parametrize(
    "cfg",
    [DlzsConfig(), DlzsConfig(token_bits=40, weight_bits=16)],
    ids=["window", "wide-fallback"],
)
def test_prepared_codes_are_the_per_head_predictors_codes(cfg):
    """One stacked call mixing keyed and unkeyed heads: ``k_hat`` holds
    float64 codes bit-equal to each head's ``DlzsPredictor`` int64 codes,
    and the scales are its scales, for an all-zero head, subnormal tokens,
    tokens whose scale underflows, and integer tokens past the BLAS window;
    the wide config pushes every float head past the window too.  Keyed
    heads go through a miss, then a hit that appends rows."""
    from repro.engine.paged import PagedDecodeCache

    rng = make_rng(14)
    s, grow, h, d, t = 24, 3, 8, 8, 3
    tokens = [
        rng.normal(size=(s + grow, h)),
        np.zeros((s + grow, h)),
        rng.normal(size=(s + grow, h)) * 1e-310,  # subnormal
        np.full((s + grow, h), 5e-324) * rng.choice([-1, 1], (s + grow, h)),
        rng.integers(-(2**50), 2**50, size=(s + grow, h)),  # past the window
    ]
    n = len(tokens)
    wk = rng.normal(size=(n, h, d))
    q = rng.normal(size=(n, t, d))
    pred = StackedDlzsPredictor(wk, cfg)
    assert not _blas_exact(tokens[-1], pred._wk_pow2[-1])
    if cfg.token_bits == 40:
        assert not _blas_exact(np.full((1, h), 2.0**39), pred._wk_pow2[0])
    cache = PagedDecodeCache()
    keys = [("a",), None, ("c",), None, ("e",)]
    for length in (s, s + grow):
        heads = [x[:length] for x in tokens]
        got = pred.predict_prepared(heads, q, cache=cache, cache_keys=keys)
        assert got.k_hat.dtype == np.float64
        for i in range(n):
            ref = DlzsPredictor(wk[i], cfg).predict_prepared(heads[i], q[i])
            assert got.head_k_hat(i).tobytes() == ref.k_hat.astype(np.float64).tobytes()
            assert np.float64(got.scales[i]).tobytes() == np.float64(ref.scale).tobytes()
            assert np.array_equal(got.pow2[i], ref.pow2)
    # every keyed head looked up twice; louder appended rows miss again
    assert cache.stats.misses + cache.stats.hits == 6 and cache.stats.hits >= 1
    cache.close()
