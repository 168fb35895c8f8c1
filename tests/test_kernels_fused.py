"""Differential tests: the fused predict+select path is bit-exact.

The batched engine runs DLZS prediction and SADS selection through one
fused kernel (``repro.kernels.predict_select_fused``) that must reproduce
the golden ``DlzsPredictor.predict`` -> ``SadsSorter.select_stack``
pipeline bit for bit - selections, ordering, comparator/clip tallies, op
counters, stage traces - while never materializing the full score matrix
(asserted through the kernel's peak-intermediate-size probe).  Both
vectorized selector entry points are held row by row to the sequential
golden selector ``select_row_reference`` over sorted/shuffled/heavy-tie/
adversarial score layouts, tile remainders, one-row stacks, select-all
and single-survivor edge cases.  The engine tests cover prefill and the
cached-decode interaction with the paged store across the per-head,
batched and engine tiers, and the cluster test covers the worker
processes.
"""

import numpy as np
import pytest

from repro.core.config import DlzsConfig, SadsConfig, SofaConfig, SufaConfig
from repro.core.dlzs import DlzsPredictor, StackedDlzsPredictor
from repro.core.pipeline import SofaAttention
from repro.core.sads import SadsSorter, column_windows
from repro.engine import AttentionRequest, BatchedSofaAttention, SofaEngine
from repro.core.sufa import stream_selected
from repro.kernels import FUSED, STAGES, available_kernels, get_kernel
from repro.utils.rng import make_rng


def _assert_rows_match_reference(sorter, scores, k, got):
    """``got`` (a SadsStackResult) equals select_row_reference row by row."""
    for i, row in enumerate(scores):
        ref = sorter.select_row_reference(row, k)
        assert np.array_equal(ref.indices, got.indices[i])
        assert ref.ops["compare"] == got.compare_rows[i]
        assert ref.clipped == got.clipped_rows[i]


def _assert_stack_equal(ref, got):
    assert np.array_equal(ref.indices, got.indices)
    assert np.array_equal(ref.compare_rows, got.compare_rows)
    assert np.array_equal(ref.clipped_rows, got.clipped_rows)


def _assert_results_equal(a, b):
    assert a.output.tobytes() == b.output.tobytes()
    assert np.array_equal(a.selected, b.selected)
    assert a.total_ops.counts == b.total_ops.counts
    for sa, sb in zip(a.stages, b.stages):
        assert sa.name == sb.name
        assert sa.ops.counts == sb.ops.counts
        assert sa.dram_bytes == sb.dram_bytes
        assert sa.sram_peak_bytes == sb.sram_peak_bytes
    assert a.assurance_triggers == b.assurance_triggers


def _layout(rng, kind, r, s):
    if kind == "sorted":
        return np.sort(rng.normal(size=(r, s)), axis=1)[:, ::-1].copy()
    if kind == "ties":
        return rng.integers(-3, 4, size=(r, s)).astype(np.float64)
    if kind == "constant":  # every value ties: pure index tie-breaking
        return np.tile((np.arange(s, dtype=np.float64) % 5), (r, 1))
    if kind == "neg_inf":  # often every excluded entry is -inf
        scores = rng.integers(-3, 4, size=(r, s)).astype(np.float64)
        scores[rng.random((r, s)) < 0.5] = -np.inf
        return scores
    if kind == "signed_zero":  # -0.0 and 0.0 compare equal: index breaks ties
        scores = rng.integers(-1, 2, size=(r, s)).astype(np.float64)
        return np.where(scores == 0, np.where(rng.random((r, s)) < 0.5, -0.0, 0.0), scores)
    if kind == "nan":  # at least one NaN in every row
        scores = rng.normal(size=(r, s))
        scores[rng.random((r, s)) < 0.1] = np.nan
        scores[np.arange(r), rng.integers(0, s, size=r)] = np.nan
        return scores
    return rng.normal(size=(r, s))


def _cut_ties(rng, sorter, r, s, k):
    """Distinct normal scores, except that in every segment the entry just
    past the quota cut and the one just past the ``take + rounds`` cut copy
    the value before them: ties exactly where a segment's head is cut."""
    scores = rng.normal(size=(r, s))
    n = min(sorter.config.n_segments, k, s)
    bounds = np.linspace(0, s, n + 1, dtype=np.int64)
    quotas = sorter._capped_quotas(k, bounds)
    rows = np.arange(r)
    for lo, hi, quota in zip(bounds[:-1], bounds[1:], quotas):
        seg = scores[:, lo:hi]  # a view: writes land in scores
        order = np.argsort(-seg, axis=1)
        for cut in (int(quota), int(quota) + sorter.config.adjust_rounds):
            if 0 < cut < hi - lo:
                seg[rows, order[:, cut]] = seg[rows, order[:, cut - 1]]
    return scores


def _assert_every_selector_rejects_nan(sorter, scores, k):
    r, s = scores.shape
    with pytest.raises(ValueError, match="NaN"):
        sorter.select_stack(scores, k)
    with pytest.raises(ValueError, match="NaN"):
        sorter.select_stack_streamed(
            lambda seg, lo, hi: column_windows(scores, lo, hi), r, s, k
        )
    for row in scores:
        with pytest.raises(ValueError, match="NaN"):
            sorter.select_row_reference(row, k)
        with pytest.raises(ValueError, match="NaN"):
            sorter.select_row(row, k)
    # The fused kernel's tiles are integer scores times a per-head scale,
    # so a NaN scale is the way NaN reaches it.
    from repro.core.dlzs import PreparedStackPrediction
    from repro.numerics.complexity import OpCounter

    prep = PreparedStackPrediction(
        k_hat=np.ones((s, 1), dtype=np.int64),
        pow2=np.ones((1, r, 1), dtype=np.int64),
        scales=np.array([np.nan]),
        head_ops=[OpCounter()],
        seq_lens=np.array([s]),
        k_bits=2,
    )

    class _StubPredictor:
        def predict_prepared(self, tokens, q, cache=None, cache_keys=None):
            return prep

    with pytest.raises(ValueError, match="NaN"):
        FUSED.run_stacked(_StubPredictor(), sorter, None, None, k)


# ----------------------------------------------------- streamed selection
@pytest.mark.parametrize(
    "kind",
    ["random", "sorted", "ties", "constant", "neg_inf", "cut_ties", "signed_zero", "nan"],
)
def test_streamed_select_matches_reference_sweep(kind):
    """select_stack and select_stack_streamed == select_row_reference per
    row, over layouts x shapes x rounds; NaN scores raise in every one."""
    rng = make_rng(hash(kind) % 2**31)
    for _ in range(40):
        r = int(rng.integers(1, 7))
        s = int(rng.integers(2, 130))
        k = int(rng.integers(1, s + 1))
        cfg = SadsConfig(
            n_segments=int(rng.integers(1, 9)),
            radius=float(rng.uniform(0.5, 8.0)),
            adjust_rounds=int(rng.integers(0, 6)),
        )
        sorter = SadsSorter(cfg)
        if kind == "cut_ties":
            scores = _cut_ties(rng, sorter, r, s, k)
        else:
            scores = _layout(rng, kind, r, s)
        if kind == "nan":
            _assert_every_selector_rejects_nan(sorter, scores, k)
            continue
        _assert_rows_match_reference(sorter, scores, k, sorter.select_stack(scores, k))
        got = sorter.select_stack_streamed(
            lambda seg, lo, hi: column_windows(scores, lo, hi), r, s, k
        )
        _assert_rows_match_reference(sorter, scores, k, got)


def test_streamed_select_edge_cases():
    """Select-all, single excluded candidate, k=1, one-row, huge rounds."""
    rng = make_rng(7)
    for s, k, rounds, segs in [
        (16, 16, 3, 4),   # k == s: no excluded pool at all
        (17, 16, 5, 4),   # exactly one excluded candidate
        (33, 1, 2, 4),    # k=1: argmin over a single selected value
        (9, 4, 50, 3),    # rounds far beyond the excluded population
        (5, 3, 2, 8),     # more segments than k: n collapses to k
        (2, 1, 1, 1),     # minimal everything
    ]:
        cfg = SadsConfig(n_segments=segs, adjust_rounds=rounds)
        sorter = SadsSorter(cfg)
        for r in (1, 4):
            scores = _layout(rng, "ties", r, s)
            _assert_rows_match_reference(
                sorter, scores, k, sorter.select_stack(scores, k)
            )
            got = sorter.select_stack_streamed(
                lambda seg, lo, hi: column_windows(scores, lo, hi), r, s, k
            )
            _assert_rows_match_reference(sorter, scores, k, got)


# ------------------------------------------------------------ fused kernel
def test_fused_single_head_bit_identical_and_never_full():
    """FUSED.run_stacked on one head == the golden predict -> select_stack,
    with only tile peaks."""
    rng = make_rng(21)
    for s, t, tile_cols in [(130, 3, 64), (64, 5, 16), (257, 2, 32), (48, 1, 5)]:
        cfg = SofaConfig(tile_cols=tile_cols)
        wk = rng.normal(size=(8, 8))
        golden = DlzsPredictor(wk, cfg.dlzs)
        stacked = StackedDlzsPredictor(wk[None], cfg.dlzs)
        tokens = rng.integers(-50, 50, size=(s, 8)).astype(np.float64)
        q = rng.normal(size=(t, 8))
        sorter = SadsSorter(cfg.sads_for(cfg.n_tiles(s)))
        for k in (1, 2, s // 4 or 1, s):  # includes k < the SU-FA warmup scan
            full = golden.predict(tokens, q)
            ref = sorter.select_stack(full.a_hat, k)
            prep, got = FUSED.run_stacked(stacked, sorter, tokens[None], q[None], k)
            _assert_stack_equal(ref, got)
            assert prep.head_ops[0].counts == full.ops.counts
            probe = FUSED.last_probe
            assert probe.exact_blas
            assert probe.full_matrix_elems == t * s
            n_seg = min(sorter.config.n_segments, k, s)
            if n_seg > 1:
                # The peak intermediate is one tile, not the full score
                # matrix the golden pipeline materializes.
                assert probe.peak_tile_elems < probe.full_matrix_elems
            assert probe.peak_tile_elems <= t * (-(-s // n_seg) + 1)


def test_fused_ranks_real_predictions_by_integer_keys(monkeypatch):
    """Real predictions sit inside the key guard: the fused kernel hands
    every segment to the selector as an unscaled integer tile, ranked by
    one key sort each (as are the candidate pool and the final order),
    and the result is the golden pipeline's."""
    import repro.core.sads as sads

    ranked = []
    key_head = sads._key_head
    monkeypatch.setattr(
        sads, "_key_head", lambda block, *rest: ranked.append(block.shape) or key_head(block, *rest)
    )
    rng = make_rng(25)
    cfg = SofaConfig(tile_cols=16)
    n, s, t = 2, 130, 3
    predictor = StackedDlzsPredictor(rng.normal(size=(n, 8, 8)), cfg.dlzs)
    tokens = rng.normal(size=(n, s, 8))
    q = rng.normal(size=(n, t, 8))
    sorter = SadsSorter(cfg.sads_for(cfg.n_tiles(s)))
    full = predictor.predict(tokens, q)
    _, got = FUSED.run_stacked(predictor, sorter, tokens, q, 20)
    _assert_stack_equal(sorter.select_stack(full.a_hat.reshape(n * t, s), 20), got)
    # one key sort per segment, then the candidate pool and the final order
    assert len(ranked) == min(sorter.config.n_segments, 20, s) + 2


def test_fused_stacked_bit_identical():
    rng = make_rng(22)
    for n, s, t in [(1, 64, 4), (3, 130, 2), (4, 31, 1)]:
        cfg = SofaConfig(tile_cols=16)
        wk = rng.normal(size=(n, 8, 8))
        predictor = StackedDlzsPredictor(wk, cfg.dlzs)
        tokens = rng.integers(-50, 50, size=(n, s, 8)).astype(np.float64)
        q = rng.normal(size=(n, t, 8))
        sorter = SadsSorter(cfg.sads_for(cfg.n_tiles(s)))
        for k in (1, max(s // 5, 1), s):
            full = predictor.predict(tokens, q)
            ref = sorter.select_stack(full.a_hat.reshape(n * t, s), k)
            prep, got = FUSED.run_stacked(predictor, sorter, tokens, q, k)
            _assert_stack_equal(ref, got)
            for i in range(n):
                assert prep.head_ops[i].counts == full.head_ops[i].counts


def test_fused_int64_fallback_stays_exact():
    """Operands overflowing the float64 window fall back to int64 tiles.

    A stub predictor hands the fused kernel prepared state with 40-bit
    queries and keys (the LZE caps real queries at 16 bits), where float64
    BLAS would actually round.
    """
    from repro.core.dlzs import PreparedStackPrediction
    from repro.numerics.linalg import _blas_exact
    from repro.numerics.complexity import OpCounter

    rng = make_rng(23)
    t, s, d = 3, 40, 8
    pow2 = (2 ** rng.integers(30, 40, size=(1, t, d))) * rng.choice([-1, 1], (1, t, d))
    k_hat = rng.integers(-(2**39), 2**39, size=(1, s, d))
    assert not _blas_exact(pow2, k_hat)
    prep = PreparedStackPrediction(
        k_hat=k_hat[0],
        pow2=pow2,
        scales=np.array([0.125]),
        head_ops=[OpCounter()],
        seq_lens=np.array([s]),
        k_bits=41,  # codes reach -2**39
    )

    class _StubPredictor:
        def predict_prepared(self, tokens, q, cache=None, cache_keys=None):
            return prep

    a_hat = (pow2[0] @ k_hat[0].T).astype(np.float64) * 0.125
    sorter = SadsSorter(SadsConfig(n_segments=4))
    ref = sorter.select_stack(a_hat, 10)
    _, got = FUSED.run_stacked(_StubPredictor(), sorter, None, None, 10)
    _assert_stack_equal(ref, got)
    assert not FUSED.last_probe.exact_blas


@pytest.mark.parametrize("k_bits, blas", [(16, True), (36, True), (37, False), (40, False)])
def test_fused_bound_decision_equals_the_scan(k_bits, blas):
    """The fused kernel bounds ``k_hat`` by its truncation width instead of
    scanning it.  Truncation saturates the largest code, so on real
    predictions the bound is tight and the decision equals the scan on both
    sides of the 2**53 window; widths past it take the exact int64 path."""
    from repro.numerics.fixed_point import int_range
    from repro.numerics.linalg import _blas_exact

    rng = make_rng(24)
    n, s, t, d = 2, 70, 3, 8
    cfg = SofaConfig(tile_cols=16, dlzs=DlzsConfig(intermediate_bits=k_bits))
    predictor = StackedDlzsPredictor(rng.normal(size=(n, d, d)), cfg.dlzs)
    tokens = rng.integers(-50, 50, size=(n, s, d)).astype(np.float64)
    q = rng.normal(size=(n, t, d))
    sorter = SadsSorter(cfg.sads_for(cfg.n_tiles(s)))
    full = predictor.predict(tokens, q)
    prep, got = FUSED.run_stacked(predictor, sorter, tokens, q, 12)
    assert prep.k_bits == k_bits
    assert int(np.abs(prep.k_hat).max()) == int_range(k_bits)[1]
    assert _blas_exact(prep.pow2, prep.k_hat) is blas
    assert FUSED.last_probe.exact_blas is blas
    _assert_stack_equal(sorter.select_stack(full.a_hat.reshape(n * t, s), 12), got)


# -------------------------------------------------- pipeline/engine tiers
def _head_problem(rng, s=48, h=16, dk=8, t=4):
    return (
        rng.integers(-50, 50, size=(s, h)).astype(np.float64),
        rng.normal(size=(t, dk)),
        rng.normal(size=(h, dk)),
        rng.normal(size=(h, dk)),
    )


def test_batched_vs_per_head_fused_bits():
    rng = make_rng(37)
    n, s, h, dk = 3, 130, 16, 8  # tile remainder: 130 over 16-wide tiles
    cfg = SofaConfig(tile_cols=16, top_k=0.2)
    wk = rng.normal(size=(n, h, dk))
    wv = rng.normal(size=(n, h, dk))
    tokens = rng.integers(-50, 50, size=(n, s, h)).astype(np.float64)
    q = rng.normal(size=(n, 4, dk))
    batched = BatchedSofaAttention(wk, wv, cfg)(tokens, q)
    probe = FUSED.last_probe
    assert probe.rows == n * 4 and probe.row_len == s
    assert probe.peak_tile_elems < probe.full_matrix_elems
    for i in range(n):
        single = SofaAttention(wk[i], wv[i], cfg)(tokens[i], q[i])
        _assert_results_equal(single, batched.per_head[i])


def _engine_requests(rng, n=8, cache_keys=False):
    out = []
    for i in range(n):
        tokens, q, wk, wv = _head_problem(rng, s=(48 if i % 2 else 32))
        out.append(
            AttentionRequest(
                tokens=tokens, q=q, wk=wk, wv=wv,
                cache_key=f"seq-{i}" if cache_keys else None,
            )
        )
    return out


def _golden(request, cfg=None):
    """The per-head golden pipeline's result for one request."""
    op = SofaAttention(request.wk, request.wv, cfg or SofaConfig())
    return op(request.tokens, request.q)


def test_engine_fused_mapping_parity():
    rng = make_rng(41)
    requests = _engine_requests(rng)
    with SofaEngine(max_batch_heads=4) as engine:
        got = engine.run(requests)
    for request, result in zip(requests, got):
        _assert_results_equal(_golden(request), result)


def test_engine_cached_decode_fused_parity():
    """Growing sequences through the paged decode cache: the fused kernel
    consumes the cached phase-1.1 state (predict_prepared) yet stays
    bit-identical to the uncached per-head golden pipeline."""
    rng = make_rng(43)
    h, dk = 16, 8
    wk, wv = rng.normal(size=(h, dk)), rng.normal(size=(h, dk))
    base = rng.integers(-50, 50, size=(64, h)).astype(np.float64)
    with SofaEngine(max_batch_heads=4) as engine:
        for step_len in (24, 32, 48, 64):  # growing prefix, same cache key
            req = AttentionRequest(
                tokens=base[:step_len],
                q=rng.normal(size=(3, dk)) * 0 + 1.0,  # deterministic q
                wk=wk,
                wv=wv,
                cache_key="session-0",
            )
            _assert_results_equal(_golden(req), engine.run([req])[0])
        assert engine.stats.cache.hits > 0


def test_engine_prefill_and_cached_decode_never_build_the_score_matrix():
    """A prefill batch and a cached decode step through SofaEngine each
    hold only score tiles, never the full (rows, S) matrix."""
    rng = make_rng(44)
    h, dk, s = 16, 8, 256
    wk, wv = rng.normal(size=(h, dk)), rng.normal(size=(h, dk))
    tokens = rng.integers(-50, 50, size=(s, h)).astype(np.float64)
    cfg = SofaConfig(tile_cols=32)
    with SofaEngine(cfg, max_batch_heads=4) as engine:
        prefill = [
            AttentionRequest(tokens=tokens, q=rng.normal(size=(16, dk)), wk=wk, wv=wv)
            for _ in range(2)
        ]
        FUSED.last_probe = None
        engine.run(prefill)
        probe = FUSED.last_probe
        assert probe is not None and probe.row_len == s
        assert probe.peak_tile_elems < probe.full_matrix_elems
        for step_len in (s - 1, s):  # the second step hits the decode cache
            step = AttentionRequest(
                tokens=tokens[:step_len], q=rng.normal(size=(1, dk)),
                wk=wk, wv=wv, cache_key="session-0",
            )
            FUSED.last_probe = None
            engine.run([step])
            probe = FUSED.last_probe
            assert probe is not None and probe.row_len == step_len
            assert probe.peak_tile_elems < probe.full_matrix_elems
        assert engine.stats.cache.hits == 1


# ----------------------------------------------------- registry semantics
def test_per_stage_registry_lists_and_defaults():
    assert STAGES == ("stream",)
    assert "blocked" in available_kernels("stream")
    assert get_kernel("stream", "blocked") is stream_selected
    for stage in ("predict", "select"):  # no registry: one fused path
        with pytest.raises(ValueError, match="unknown kernel stage"):
            available_kernels(stage)


def test_engine_rejects_unknown_stage_and_name():
    with pytest.raises(TypeError, match="kernel"):
        SofaEngine(kernel={"stream": "blocked"})  # no engine option either
    for stage_config in (DlzsConfig, SadsConfig, SufaConfig):  # no kernel field left
        with pytest.raises(TypeError, match="kernel"):
            stage_config(kernel="reference")


# ------------------------------------------------- cross-process coverage
@pytest.mark.cluster
def test_cluster_fused_mapping_parity_and_stats():
    from repro.cluster import EngineCluster

    rng = make_rng(53)
    requests = _engine_requests(rng)
    with EngineCluster(n_workers=2, max_batch_heads=4) as cluster:
        got = cluster.run(requests)
        workers = cluster.stats.workers
    for request, result in zip(requests, got):
        _assert_results_equal(_golden(request), result)
    # Stats snapshots piggyback on result messages.
    assert any(w.n_requests > 0 for w in workers)
    # kernel= is no engine option
    with pytest.raises(TypeError, match="'kernel'"):
        EngineCluster(n_workers=1, kernel={"stream": "blocked"})
