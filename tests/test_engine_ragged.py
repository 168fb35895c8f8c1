"""Differential sweep: heads of different S share one fused call, bit for bit.

The engine batches requests that differ only in ``S``; each head keeps its
own cross-stage grid (``n_tiles(S)`` segments, its own ``linspace``
bounds and capped quotas, its own ``k``).  Every head of such a ragged
batch must equal its own sequential :class:`SofaAttention` exactly:
output bytes, ``selected``, assurance triggers, every stage's op counter
and DRAM/SRAM bytes.  The sweep covers tile remainders, different tile
counts in one batch, ``k`` below the tile count (the segment count
clamps to ``k``), ``S`` below one tile, integer and fractional ``top_k``,
keyed next to keyless heads, value caches, ``T > 1``, tie-heavy integer
tokens, and cached decode sessions of different lengths through the
paged store.  DLZS's ragged ``K_hat`` of keyless heads is checked against
the per-head predictor directly, and a widely spread batch is held to a
cost of the sum of its heads' segments.  The streaming selector is also held row by row to
:meth:`SadsSorter.select_row_reference` on rows of different lengths.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import DlzsConfig, SadsConfig, SofaConfig
from repro.core.dlzs import DlzsPredictor, StackedDlzsPredictor
from repro.core.pipeline import SofaAttention
from repro.core.sads import SadsSorter, column_windows, segment_counts
from repro.engine import AttentionRequest, BatchedSofaAttention, SofaEngine
from repro.utils.rng import make_rng


def _assert_same(want, got):
    assert got.output.tobytes() == want.output.tobytes()
    assert got.selected.dtype == want.selected.dtype
    assert np.array_equal(got.selected, want.selected)
    assert got.assurance_triggers == want.assurance_triggers
    assert len(got.stages) == len(want.stages)
    for a, b in zip(want.stages, got.stages):
        assert a.name == b.name
        assert a.ops.counts == b.ops.counts
        assert a.dram_bytes == b.dram_bytes
        assert a.sram_peak_bytes == b.sram_peak_bytes


def _golden(request, cfg):
    op = SofaAttention(request.wk, request.wv, request.config or cfg)
    return op(
        request.tokens, request.q,
        k_scale=request.k_scale, v_scale=request.v_scale, v=request.v,
    )


def _tokens(rng, s, h, ties):
    if ties:  # few distinct values: ties everywhere in the scores
        return rng.integers(-2, 3, size=(s, h)).astype(np.float64)
    return rng.integers(-80, 80, size=(s, h)).astype(np.float64)


def _requests(rng, lengths, *, h=8, dk=8, t=1, ties=False, keyed=(), v=False):
    wk, wv = rng.normal(size=(h, dk)), rng.normal(size=(h, dk))
    out = []
    for i, s in enumerate(lengths):
        out.append(
            AttentionRequest(
                tokens=_tokens(rng, s, h, ties),
                q=rng.normal(size=(t, dk)),
                wk=wk,
                wv=wv,
                k_scale=float(rng.uniform(0.5, 2.0)),
                v_scale=float(rng.uniform(0.5, 2.0)),
                v=rng.normal(size=(s, dk)) if v else None,
                cache_key=f"head-{i}" if i in keyed else None,
            )
        )
    return out


def _run_one_batch(cfg, requests):
    with SofaEngine(cfg, max_batch_heads=64) as engine:
        futures = engine.submit_many(requests)
        records = engine.flush()
        results = [f.result() for f in futures]
    assert [r.n_heads for r in records] == [len(requests)]
    assert records[0].seq_len == max(np.shape(r.tokens)[0] for r in requests)
    return results


CASES = [
    # (config, lengths): tile remainders and several tile counts in one batch
    (SofaConfig(tile_cols=16, top_k=0.25), [64, 70, 33, 16, 100]),
    # k < n_tiles: the segment count clamps to k, per head
    (SofaConfig(tile_cols=8, top_k=3), [40, 65, 9, 24]),
    # S < tile_cols next to multi-tile heads
    (SofaConfig(tile_cols=32, top_k=0.5), [5, 31, 32, 90]),
    # integer top_k: the same k everywhere, different grids
    (SofaConfig(tile_cols=16, top_k=6), [6, 17, 48, 130]),
    # fractional top_k: a different k per head
    (SofaConfig(tile_cols=16, top_k=0.1), [20, 47, 96, 151]),
]


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("t", [1, 3])
@pytest.mark.parametrize("ties", [False, True])
def test_ragged_batch_matches_per_head_reference(case, t, ties):
    cfg, lengths = CASES[case]
    rng = make_rng(100 + 10 * case + t + (5 if ties else 0))
    requests = _requests(rng, lengths, t=t, ties=ties)
    for request, got in zip(requests, _run_one_batch(cfg, requests)):
        _assert_same(_golden(request, cfg), got)


@pytest.mark.parametrize("v", [False, True])
def test_keyed_and_keyless_heads_in_one_ragged_batch(v):
    cfg = SofaConfig(tile_cols=16, top_k=0.2)
    rng = make_rng(7 if v else 8)
    requests = _requests(rng, [48, 77, 20, 64, 35], t=2, keyed=(0, 2, 3), v=v)
    for request, got in zip(requests, _run_one_batch(cfg, requests)):
        _assert_same(_golden(request, cfg), got)


def test_operator_takes_per_head_arrays_and_pads_selected():
    """BatchedSofaAttention over (S_i, H) arrays: per-head results equal the
    reference, and the stacked ``selected`` pads short rows with -1."""
    cfg = SofaConfig(tile_cols=16, top_k=0.25)
    rng = make_rng(9)
    n, h, dk, t = 3, 8, 8, 2
    lengths = [40, 17, 64]
    wk, wv = rng.normal(size=(n, h, dk)), rng.normal(size=(n, h, dk))
    tokens = [_tokens(rng, s, h, False) for s in lengths]
    q = rng.normal(size=(n, t, dk))
    caches = [rng.normal(size=(s, dk)) for s in lengths]
    res = BatchedSofaAttention(wk, wv, cfg)(tokens, q, v=caches)
    ks = [cfg.resolve_top_k(s) for s in lengths]
    assert res.selected.shape == (n, t, max(ks))
    for i in range(n):
        want = SofaAttention(wk[i], wv[i], cfg)(tokens[i], q[i], v=caches[i])
        _assert_same(want, res.per_head[i])
        assert np.array_equal(res.selected[i, :, : ks[i]], want.selected)
        assert (res.selected[i, :, ks[i] :] == -1).all()
        assert res.outputs[i].tobytes() == want.output.tobytes()


def test_ragged_keyless_heads_keep_their_quantisation():
    """Each keyless head of a ragged stack keeps its own bits: its K_hat
    rows (a block of the head-major ``(sum S, D')`` array), scale, query
    codes and op counts equal the per-head predictor's.  One head is all
    zeros (the 1.0 fallback scale); one has a negative loudest token."""
    rng = make_rng(12)
    h, dk, t = 8, 8, 2
    lengths = [30, 7, 19, 12]
    wk = rng.normal(size=(len(lengths), h, dk))
    tokens = [3.0 * rng.normal(size=(s, h)) for s in lengths]
    tokens[1][:] = 0.0
    tokens[2][4, 1] = -50.0
    q = rng.normal(size=(len(lengths), t, dk))
    cfg = DlzsConfig()
    prep = StackedDlzsPredictor(wk, cfg).predict_prepared(tokens, q)
    assert prep.k_hat.shape == (sum(lengths), dk)
    assert np.array_equal(prep.seq_lens, lengths)
    for i, s in enumerate(lengths):
        want = DlzsPredictor(wk[i], cfg).predict_prepared(tokens[i], q[i])
        assert np.array_equal(prep.head_k_hat(i), want.k_hat)
        assert prep.scales[i] == want.scale
        assert np.array_equal(prep.pow2[i], want.pow2)
        assert prep.head_ops[i].counts == want.ops.counts


def test_decode_sessions_of_different_lengths_through_the_paged_store():
    """Several rounds of cached decode: sessions of different lengths
    share each round's batch, grow by different amounts, and one ends and
    is replaced; every step equals the uncached per-head reference."""
    cfg = SofaConfig(tile_cols=16, top_k=0.1)
    rng = make_rng(11)
    h, dk = 16, 8
    wk, wv = rng.normal(size=(h, dk)), rng.normal(size=(h, dk))
    prompt = rng.integers(-50, 50, size=(64, h)).astype(np.float64)
    prompt[3, 5] = 90.0  # the loudest token: the quantisation scale stays put
    lengths = {"a": 64, "b": 70, "c": 97, "d": 40}
    buffers = {
        key: np.concatenate(
            [prompt, rng.integers(-50, 50, size=(96, h)).astype(np.float64)]
        )
        for key in lengths
    }
    with SofaEngine(cfg, max_batch_heads=64) as engine:
        for round_no in range(6):
            requests = [
                AttentionRequest(
                    tokens=buffers[key][:s], q=rng.normal(size=(1, dk)),
                    wk=wk, wv=wv, cache_key=key,
                )
                for key, s in lengths.items()
            ]
            futures = engine.submit_many(requests)
            records = engine.flush()
            assert [r.n_heads for r in records] == [len(requests)]
            for request, future in zip(requests, futures):
                _assert_same(_golden(request, cfg), future.result())
            for step, key in enumerate(lengths):
                lengths[key] += 1 + (step + round_no) % 3
            if round_no == 2:  # session "b" ends; "e" starts on the prompt
                engine.invalidate_cache("b")
                del lengths["b"]
                lengths["e"] = 64
                buffers["e"] = buffers["b"]
        assert engine.stats.cache.hits > 0


# ------------------------------------------------------- streamed selection
def _layout(rng, kind, r, s):
    if kind == "ties":
        return rng.integers(-3, 4, size=(r, s)).astype(np.float64)
    if kind == "neg_inf":
        scores = rng.integers(-3, 4, size=(r, s)).astype(np.float64)
        scores[rng.random((r, s)) < 0.5] = -np.inf
        return scores
    if kind == "constant":
        return np.tile(np.arange(s, dtype=np.float64) % 5, (r, 1))
    return rng.normal(size=(r, s))


@pytest.mark.parametrize("kind", ["random", "ties", "neg_inf", "constant"])
def test_streamed_select_with_per_row_bounds_matches_reference(kind):
    """Rows of different lengths, k and segment counts in one streamed call
    equal select_row_reference row by row.  Rows come ordered by segment
    count, most first, and a tile is asked only for the rows still
    active.  The padding past each row's length is NaN, so a window that
    strayed past its row would raise."""
    rng = make_rng(hash(kind) % 2**31)
    for _ in range(30):
        r = int(rng.integers(1, 9))
        lens = rng.integers(1, 90, size=r)
        ks = np.array([int(rng.integers(1, s + 1)) for s in lens])
        segs = rng.integers(1, 9, size=r)
        config = SadsConfig(
            radius=float(rng.uniform(0.5, 8.0)),
            adjust_rounds=int(rng.integers(0, 5)),
        )
        order = np.argsort(-segment_counts(lens, ks, segs), kind="stable")
        lens, ks, segs = lens[order], ks[order], segs[order]
        scores = np.full((r, int(lens.max())), np.nan)
        for i, s in enumerate(lens):
            scores[i, :s] = _layout(rng, kind, 1, int(s))[0]
        asked = []

        def tile_fn(seg, lo, hi):
            asked.append(len(lo))
            return column_windows(scores, lo, hi)

        got = SadsSorter(config).select_stack_streamed(tile_fn, r, lens, ks, segs)
        counts = segment_counts(lens, ks, segs)
        assert asked == [int((counts > j).sum()) for j in range(counts.max())]
        assert got.indices.shape == (r, int(ks.max()))
        for i in range(r):
            ref = SadsSorter(
                replace(config, n_segments=int(segs[i]))
            ).select_row_reference(scores[i, : lens[i]], int(ks[i]))
            assert np.array_equal(got.indices[i, : ks[i]], ref.indices)
            assert (got.indices[i, ks[i] :] == -1).all()
            assert got.compare_rows[i] == ref.ops["compare"]
            assert got.clipped_rows[i] == ref.clipped


def test_streamed_select_rejects_rows_out_of_segment_order():
    scores = np.zeros((2, 64))
    with pytest.raises(ValueError, match="non-increasing segment count"):
        SadsSorter(SadsConfig()).select_stack_streamed(
            lambda seg, lo, hi: column_windows(scores, lo, hi), 2, [8, 64], [4, 8], 8
        )


def test_widely_spread_batch_costs_the_sum_of_its_segments(monkeypatch):
    """One long head among short ones (heads in no particular order): each
    head still equals its own reference, and the fused kernel scores each
    head only over its own segments - the tile rows it computes add up to
    T times the sum of the heads' segment counts, not heads times the
    longest grid."""
    from repro.kernels import FUSED

    cfg = SofaConfig(tile_cols=8, top_k=0.25)
    rng = make_rng(13)
    lengths = [24, 400, 16, 33, 9, 24]
    t = 2
    requests = _requests(rng, lengths, t=t)
    rows_scored = []
    original = FUSED.run_stacked

    def counting_run_stacked(predictor, sorter, *args, **kwargs):
        real = sorter.select_stack_streamed

        def streamed(tile_fn, *a, **kw):
            def counted(seg, lo, hi):
                rows_scored.append(len(lo))
                return tile_fn(seg, lo, hi)
            return real(counted, *a, **kw)

        monkeypatch.setattr(sorter, "select_stack_streamed", streamed)
        return original(predictor, sorter, *args, **kwargs)

    monkeypatch.setattr(FUSED, "run_stacked", counting_run_stacked)
    results = _run_one_batch(cfg, requests)
    for request, got in zip(requests, results):
        _assert_same(_golden(request, cfg), got)
    segs = [min(cfg.n_tiles(s), cfg.resolve_top_k(s), s) for s in lengths]
    assert sum(rows_scored) == t * sum(segs)
    assert len(rows_scored) == max(segs)
