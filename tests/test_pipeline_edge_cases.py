"""Edge-case hardening for the cross-stage pipeline and the batched engine.

Covers the corners a serving deployment actually hits: sequence lengths that
do not divide the tile width, select-all budgets (k == S), single-query
decode steps (T == 1), and single-tile sequences - asserting correctness
against the exact masked reference plus the StageTrace memory invariants.
"""

import numpy as np
import pytest

from repro.attention.reference import masked_attention
from repro.core.config import SofaConfig
from repro.core.pipeline import SofaAttention
from repro.engine import BatchedSofaAttention
from repro.utils.rng import make_rng


def _head(rng, s, h=16, d=16, t=4):
    wk = rng.normal(size=(h, d))
    wv = rng.normal(size=(h, d))
    tokens = rng.integers(-80, 80, size=(s, h)).astype(np.float64)
    q = rng.normal(size=(t, d))
    return wk, wv, tokens, q


def _check_trace_invariants(res, s):
    """StageTrace invariants every run must uphold (the Fig. 20(a) story)."""
    names = [st.name for st in res.stages]
    assert names == ["dlzs_prediction", "sads_topk", "sufa_formal"]
    for st in res.stages:
        assert st.dram_bytes >= 0.0
        assert st.sram_peak_bytes > 0.0
        assert st.ops.total_raw() > 0.0
    # the coordinated tiling keeps Pre-Atten tiles on chip: no sort DRAM
    assert res.stages[1].dram_bytes == 0.0
    # prediction streams every token exactly once: traffic grows with S
    assert res.stages[0].dram_bytes >= s
    assert res.total_dram_bytes == pytest.approx(sum(st.dram_bytes for st in res.stages))


def _check_exact_over_selection(op, tokens, q, res):
    ref = op.reference_output(tokens, q, res.selected)
    np.testing.assert_allclose(res.output, ref, atol=1e-9)


def test_seq_len_not_divisible_by_tile_cols():
    """S % Bc != 0: the last ragged tile must behave like any other."""
    rng = make_rng(300)
    s = 100  # tile_cols=32 -> tiles of 25 columns via the segment grid
    wk, wv, tokens, q = _head(rng, s)
    op = SofaAttention(wk, wv, SofaConfig(tile_cols=32, top_k=20))
    res = op(tokens, q)
    assert res.selected.shape == (4, 20)
    assert np.unique(res.selected, axis=1).shape == res.selected.shape
    assert res.selected.max() < s
    _check_exact_over_selection(op, tokens, q, res)
    _check_trace_invariants(res, s)


def test_select_all_budget_equals_dense():
    """k == S (select-all): output must equal dense attention over all keys."""
    rng = make_rng(301)
    s = 48
    wk, wv, tokens, q = _head(rng, s)
    op = SofaAttention(wk, wv, SofaConfig(tile_cols=16, top_k=s))
    res = op(tokens, q)
    # every key selected, once
    assert sorted(map(int, res.selected[0])) == list(range(s))
    k_mat = tokens @ wk
    v_mat = tokens @ wv
    dense = masked_attention(q, k_mat, v_mat, np.ones((4, s), dtype=bool))
    np.testing.assert_allclose(res.output, dense, atol=1e-9)
    _check_trace_invariants(res, s)


def test_top_k_beyond_seq_len_rejected():
    rng = make_rng(302)
    wk, wv, tokens, q = _head(rng, 32)
    op = SofaAttention(wk, wv, SofaConfig(tile_cols=16, top_k=33))
    with pytest.raises(ValueError):
        op(tokens, q)


def test_single_query_decode_step():
    """T == 1: the autoregressive decode shape."""
    rng = make_rng(303)
    s = 80
    wk, wv, tokens, q = _head(rng, s, t=1)
    op = SofaAttention(wk, wv, SofaConfig(tile_cols=16, top_k=0.2))
    res = op(tokens, q)
    assert res.output.shape == (1, 16)
    assert res.selected.shape == (1, 16)
    _check_exact_over_selection(op, tokens, q, res)
    _check_trace_invariants(res, s)


def test_single_tile_sequence():
    """S <= Bc: one tile, one SADS segment, degenerate but exact."""
    rng = make_rng(304)
    s = 24
    wk, wv, tokens, q = _head(rng, s)
    op = SofaAttention(wk, wv, SofaConfig(tile_cols=64, top_k=6))
    res = op(tokens, q)
    # a single segment is an exact top-k: selection descending in true score
    _check_exact_over_selection(op, tokens, q, res)
    _check_trace_invariants(res, s)


def test_batched_edge_shapes_match_sequential():
    """The engine handles every edge shape exactly like the per-head path."""
    cases = [
        dict(s=100, t=4, cfg=SofaConfig(tile_cols=32, top_k=20)),  # ragged tile
        dict(s=48, t=4, cfg=SofaConfig(tile_cols=16, top_k=48)),  # select-all
        dict(s=80, t=1, cfg=SofaConfig(tile_cols=16, top_k=0.2)),  # decode step
        dict(s=24, t=4, cfg=SofaConfig(tile_cols=64, top_k=6)),  # single tile
    ]
    for case_no, case in enumerate(cases):
        rng = make_rng(310 + case_no)
        n = 3
        wk = rng.normal(size=(n, 16, 16))
        wv = rng.normal(size=(n, 16, 16))
        tokens = rng.integers(-80, 80, size=(n, case["s"], 16)).astype(np.float64)
        q = rng.normal(size=(n, case["t"], 16))
        batched = BatchedSofaAttention(wk, wv, case["cfg"])(tokens, q)
        for i in range(n):
            seq = SofaAttention(wk[i], wv[i], case["cfg"])(tokens[i], q[i])
            np.testing.assert_array_equal(seq.selected, batched.per_head[i].selected)
            assert seq.output.tobytes() == batched.per_head[i].output.tobytes()
            _check_trace_invariants(batched.per_head[i], case["s"])


def test_select_all_over_uneven_tiles_keeps_every_key():
    """k == S with ragged tiles: quota overflow must redistribute, not drop.

    With S=10 and Bc=3 the segment widths are uneven (2/3/2/3) while the
    even quota split wants 3/3/2/2 - the narrow segments' overflow has to
    land in the wider ones so all S keys are still selected.
    """
    rng = make_rng(321)
    s = 10
    wk, wv, tokens, q = _head(rng, s, t=3)
    op = SofaAttention(wk, wv, SofaConfig(tile_cols=3, top_k=s))
    res = op(tokens, q)
    assert res.selected.shape == (3, s)
    for row in res.selected:
        assert sorted(map(int, row)) == list(range(s))
    _check_exact_over_selection(op, tokens, q, res)


def test_degenerate_two_token_sequence():
    """The smallest meaningful problem: S=2, k=1, T=1."""
    rng = make_rng(320)
    wk, wv, tokens, q = _head(rng, 2, t=1)
    op = SofaAttention(wk, wv, SofaConfig(tile_cols=8, top_k=1))
    res = op(tokens, q)
    assert res.selected.shape == (1, 1)
    _check_exact_over_selection(op, tokens, q, res)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["tokens", "q", "wk"])
def test_non_finite_input_raises_a_typed_error(where, value):
    """A NaN or infinite token, query or key weight raises ValueError
    naming non-finite input, in golden ``SofaAttention`` and engine-direct
    alike, instead of returning a non-finite output."""
    from repro.engine import AttentionRequest, SofaEngine

    wk, wv, tokens, q = _head(make_rng(90), 40)
    arrays = {"tokens": tokens, "q": q, "wk": wk}
    arrays[where] = arrays[where].copy()
    arrays[where][1, 2] = value
    cfg = SofaConfig(tile_cols=16, top_k=8)
    with pytest.raises(ValueError, match="non-finite"):
        SofaAttention(arrays["wk"], wv, cfg)(arrays["tokens"], arrays["q"])
    request = AttentionRequest(
        tokens=arrays["tokens"], q=arrays["q"], wk=arrays["wk"], wv=wv
    )
    with pytest.raises(ValueError, match="non-finite"):
        SofaEngine(cfg).run([request])


@pytest.mark.parametrize("keyed", [False, True])
@pytest.mark.parametrize("where", ["tokens", "q", "wk"])
def test_non_finite_request_fails_alone(where, keyed):
    """A NaN request fails only its own future.  The finite request
    batched before it - put into the decode cache by the failed fused call
    when keyed - gives the bits it gives alone."""
    from repro.engine import AttentionRequest, SofaEngine

    cfg = SofaConfig(tile_cols=16, top_k=8)
    wk, wv, tokens, q = _head(make_rng(91), 40)
    good = AttentionRequest(
        tokens=tokens, q=q, wk=wk, wv=wv, cache_key="good" if keyed else None
    )
    arrays = {"tokens": tokens, "q": q, "wk": wk}
    arrays[where] = arrays[where].copy()
    arrays[where][1, 2] = np.nan
    bad = AttentionRequest(
        **arrays, wv=wv, cache_key="bad" if keyed else None
    )
    engine = SofaEngine(cfg)
    good_future, bad_future = engine.submit(good), engine.submit(bad)
    assert engine.pending == 2
    with pytest.raises(ValueError, match="non-finite"):
        engine.flush()
    with pytest.raises(ValueError, match="non-finite"):
        bad_future.result()
    alone = SofaEngine(cfg).run([good])[0]
    assert good_future.result().output.tobytes() == alone.output.tobytes()
    assert good_future.result().selected.tobytes() == alone.selected.tobytes()
    assert engine.stats.n_requests == 1
