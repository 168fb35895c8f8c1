"""Tests for the SofaEngine serving frontend: queue, scheduler, futures."""

import numpy as np
import pytest

from repro.core.config import SadsConfig, SofaConfig
from repro.core.pipeline import SofaAttention
from repro.engine import AttentionRequest, SofaEngine
from repro.utils.rng import make_rng


def _request(rng, s=64, h=16, d=16, t=4, v=None, config=None):
    return AttentionRequest(
        tokens=rng.integers(-80, 80, size=(s, h)).astype(np.float64),
        q=rng.normal(size=(t, d)),
        wk=rng.normal(size=(h, d)),
        wv=rng.normal(size=(h, d)),
        v=v,
        config=config,
    )


def test_submit_returns_pending_future():
    engine = SofaEngine(SofaConfig(tile_cols=16, top_k=8))
    fut = engine.submit(_request(make_rng(1)))
    assert not fut.done()
    assert engine.pending == 1


def test_result_triggers_flush_lazily():
    engine = SofaEngine(SofaConfig(tile_cols=16, top_k=8))
    fut = engine.submit(_request(make_rng(2)))
    res = fut.result()  # implicit flush
    assert fut.done()
    assert engine.pending == 0
    assert res.output.shape == (4, 16)
    assert engine.stats.n_batches == 1


def test_compatible_requests_batch_together():
    engine = SofaEngine(SofaConfig(tile_cols=16, top_k=8))
    rng = make_rng(3)
    engine.submit_many([_request(rng) for _ in range(6)])
    records = engine.flush()
    assert len(records) == 1
    assert records[0].n_heads == 6
    assert engine.stats.mean_batch_heads == 6.0


def test_incompatible_shapes_split_batches():
    engine = SofaEngine(SofaConfig(tile_cols=16, top_k=8))
    rng = make_rng(4)
    engine.submit_many(
        [_request(rng, t=4), _request(rng, t=2), _request(rng, t=4)]
    )
    records = engine.flush()
    sizes = sorted(r.n_heads for r in records)
    assert sizes == [1, 2]
    assert sorted(r.n_queries for r in records) == [2, 4]


def test_mixed_lengths_batch_together():
    """Requests that differ only in S share one fused call, each head on
    its own grid; the record reports the longest S."""
    cfg = SofaConfig(tile_cols=16, top_k=8)
    engine = SofaEngine(cfg)
    rng = make_rng(14)
    requests = [_request(rng, s=s) for s in (64, 96, 17, 64, 130)]
    futures = engine.submit_many(requests)
    records = engine.flush()
    assert len(records) == 1
    assert records[0].n_heads == len(requests)
    assert records[0].seq_len == 130
    for request, future in zip(requests, futures):
        want = SofaAttention(request.wk, request.wv, cfg)(request.tokens, request.q)
        got = future.result()
        assert got.output.tobytes() == want.output.tobytes()
        assert np.array_equal(got.selected, want.selected)


def test_config_override_splits_batches():
    base = SofaConfig(tile_cols=16, top_k=8)
    other = SofaConfig(tile_cols=32, top_k=8)
    engine = SofaEngine(base)
    rng = make_rng(5)
    engine.submit_many([_request(rng), _request(rng, config=other), _request(rng)])
    records = engine.flush()
    assert len(records) == 2
    assert {r.tile_cols for r in records} == {16, 32}


def test_max_batch_heads_chunks_groups():
    engine = SofaEngine(SofaConfig(tile_cols=16, top_k=8), max_batch_heads=4)
    rng = make_rng(6)
    engine.submit_many([_request(rng) for _ in range(10)])
    records = engine.flush()
    assert [r.n_heads for r in records] == [4, 4, 2]


def test_served_results_equal_sequential_operator():
    """A request served from a mixed batch equals its standalone execution."""
    cfg = SofaConfig(tile_cols=16, top_k=12)
    engine = SofaEngine(cfg)
    rng = make_rng(7)
    requests = [_request(rng) for _ in range(5)]
    results = engine.run(requests)
    for req, res in zip(requests, results):
        seq = SofaAttention(req.wk, req.wv, cfg)(req.tokens, req.q)
        np.testing.assert_array_equal(seq.selected, res.selected)
        assert seq.output.tobytes() == res.output.tobytes()
        assert seq.assurance_triggers == res.assurance_triggers


def test_value_cache_requests_batch_and_match():
    cfg = SofaConfig(tile_cols=16, top_k=10)
    engine = SofaEngine(cfg)
    rng = make_rng(8)
    reqs = [
        _request(rng, v=rng.normal(size=(64, 8)))
        for _ in range(3)
    ]
    results = engine.run(reqs)
    assert engine.stats.n_batches == 1
    for req, res in zip(reqs, results):
        seq = SofaAttention(req.wk, req.wv, cfg)(req.tokens, req.q, v=req.v)
        assert seq.output.tobytes() == res.output.tobytes()


def test_mixed_value_cache_widths_split_batches():
    """v caches of different widths must not share a stack (Dv in the key)."""
    cfg = SofaConfig(tile_cols=16, top_k=10)
    engine = SofaEngine(cfg)
    rng = make_rng(14)
    narrow = _request(rng, v=rng.normal(size=(64, 8)))
    wide = _request(rng, v=rng.normal(size=(64, 12)))
    results = engine.run([narrow, wide])
    assert engine.stats.n_batches == 2
    assert results[0].output.shape == (4, 8)
    assert results[1].output.shape == (4, 12)


def test_successful_future_unaffected_by_sibling_failure():
    """result() on a served request must not leak another request's error."""
    from repro.core.config import SufaConfig

    cfg = SofaConfig(tile_cols=16, top_k=12, sufa=SufaConfig(max_assurance=False))
    engine = SofaEngine(cfg)
    fut_good = engine.submit(_request(make_rng(0)))
    engine.submit(_request(make_rng(1)))  # will raise during its own batch
    # reading the good result first triggers the flush; the sibling's
    # RuntimeError must stay with the sibling
    res = fut_good.result()
    assert res.output.shape == (4, 16)


def test_flush_empty_queue_is_noop():
    engine = SofaEngine(SofaConfig(tile_cols=16, top_k=8))
    assert engine.flush() == []
    assert engine.stats.n_batches == 0


def test_invalid_request_rejected_at_submit():
    """Malformed requests fail at submission, never poisoning a batch."""
    engine = SofaEngine(SofaConfig(tile_cols=16, top_k=8))
    rng = make_rng(9)
    bad = _request(rng)
    bad.tokens = rng.normal(size=(64, 12))  # hidden dim no longer matches wk
    with pytest.raises(ValueError):
        engine.submit(bad)
    bad_q = _request(rng)
    bad_q.q = rng.normal(size=(4, 5))  # head dim no longer matches wk
    with pytest.raises(ValueError):
        engine.submit(bad_q)
    bad_v = _request(rng, v=rng.normal(size=(63, 8)))  # cache rows != S
    with pytest.raises(ValueError):
        engine.submit(bad_v)
    with pytest.raises(ValueError):
        engine.submit(_request(rng, config=SofaConfig(tile_cols=16, top_k=999)))
    assert engine.pending == 0
    with pytest.raises(ValueError):
        SofaEngine(max_batch_heads=0)


def _serve_good_and_bad(bad_first):
    """Submit a good and a mispredicting request under max_assurance=False
    (so they run unbatched) and flush; return the engine and both futures."""
    from repro.core.config import SufaConfig

    cfg = SofaConfig(tile_cols=16, top_k=12, sufa=SufaConfig(max_assurance=False))
    engine = SofaEngine(cfg)
    good = _request(make_rng(0))  # seed 0: ordering prediction holds
    bad = _request(make_rng(1))  # seed 1: ordering prediction is violated
    if bad_first:
        fut_bad = engine.submit(bad)
        fut_good = engine.submit(good)
    else:
        fut_good = engine.submit(good)
        fut_bad = engine.submit(bad)
    with pytest.raises(RuntimeError):
        engine.flush()
    return engine, fut_good, fut_bad


def _assert_only_bad_failed(engine, fut_good, fut_bad):
    assert fut_good.done() and fut_bad.done()
    assert engine.pending == 0
    assert fut_good.result().output.shape == (4, 16)
    with pytest.raises(RuntimeError):
        fut_bad.result()
    # only the successful request counts as served traffic
    assert engine.stats.n_requests == 1
    assert engine.stats.n_batches == 1


def test_failing_request_does_not_strand_siblings():
    """A misprediction resolves only the offending future with the error,
    and siblings still serve."""
    _assert_only_bad_failed(*_serve_good_and_bad(bad_first=False))


def test_failing_request_first_does_not_strand_later_siblings():
    """A chunk that raises first does not stop the later chunks of the
    same round: they still run and resolve their own futures."""
    _assert_only_bad_failed(*_serve_good_and_bad(bad_first=True))


def test_operator_cache_reuses_prepared_weights():
    """Identical weight stacks across flushes reuse one prepared operator."""
    engine = SofaEngine(SofaConfig(tile_cols=16, top_k=8))
    rng = make_rng(12)
    wk = rng.normal(size=(16, 16))
    wv = rng.normal(size=(16, 16))
    for _ in range(3):
        req = _request(make_rng(13))
        req.wk, req.wv = wk, wv
        engine.submit(req)
        engine.flush()
    assert len(engine._operators) == 1
    assert engine.stats.n_batches == 3


def test_stats_accumulate_across_flushes():
    engine = SofaEngine(SofaConfig(tile_cols=16, top_k=8))
    rng = make_rng(10)
    engine.submit_many([_request(rng) for _ in range(3)])
    engine.flush()
    engine.submit_many([_request(rng) for _ in range(2)])
    engine.flush()
    assert engine.stats.n_requests == 5
    assert engine.stats.n_batches == 2
    assert engine.stats.mean_batch_heads == pytest.approx(2.5)


@pytest.mark.parametrize("seed", range(6))
def test_random_sads_configs_bit_identical_to_sequential(seed):
    """Randomized sweep over SADS configs, chunked at 3 heads per call:
    every served result equals per-head SofaAttention, exactly."""
    rng = make_rng(4000 + seed)
    s = int(rng.integers(32, 160))
    cfg = SofaConfig(
        tile_cols=int(rng.choice([8, 16, 32])),
        top_k=int(rng.integers(1, s + 1)),
        sads=SadsConfig(
            n_segments=int(rng.integers(1, 6)),
            radius=float(rng.uniform(1.0, 6.0)),
            adjust_rounds=int(rng.integers(0, 3)),
        ),
    )
    requests = [_request(rng, s=s) for _ in range(int(rng.integers(2, 9)))]
    with SofaEngine(cfg, max_batch_heads=3) as engine:
        results = engine.run(requests)
    for req, res in zip(requests, results):
        seq = SofaAttention(req.wk, req.wv, cfg)(req.tokens, req.q)
        np.testing.assert_array_equal(seq.selected, res.selected)
        assert seq.output.tobytes() == res.output.tobytes()
        assert seq.assurance_triggers == res.assurance_triggers
        for st_s, st_b in zip(seq.stages, res.stages):
            assert st_s.dram_bytes == st_b.dram_bytes
            assert st_s.sram_peak_bytes == st_b.sram_peak_bytes
            for op in set(st_s.ops.counts) | set(st_b.ops.counts):
                assert st_s.ops[op] == st_b.ops[op], (st_s.name, op)


def test_batch_stats_follow_dispatch_order():
    """Batch records land in dispatch order: chunks of one group in
    submission order, each recording its longest S."""
    rng = make_rng(50)
    shapes = [64, 96, 64, 128, 96, 64, 128, 64]
    with SofaEngine(SofaConfig(tile_cols=16, top_k=8), max_batch_heads=2) as engine:
        engine.run([_request(rng, s=s) for s in shapes])
        records = [(r.n_heads, r.seq_len, r.tile_cols) for r in engine.stats.batches]
        assert engine.stats.n_requests == len(shapes)
    assert records == [(2, 96, 16), (2, 128, 16), (2, 96, 16), (2, 128, 16)]


def test_futures_drain_after_shutdown_and_shutdown_is_idempotent():
    """A future read after the engine's ``with`` block still serves, and a
    second shutdown is a no-op."""
    with SofaEngine(SofaConfig(tile_cols=16, top_k=8)) as engine:
        future = engine.submit(_request(make_rng(2)))
    assert future.result().output.shape == (4, 16)
    engine.shutdown()
    assert engine.run([_request(make_rng(3))])[0].output.shape == (4, 16)
