"""Continuous-batching scheduler tests: admission, starvation, ordering.

The scheduler's contract: requests admitted mid-stream join not-yet-executed
shape groups, under-full groups never starve (``max_wait_batches`` rounds or
a passed ``deadline`` force execution), and every future resolves to exactly
its own request's sequential result regardless of when it was admitted.
"""

import time

import numpy as np
import pytest

from repro.core.config import SofaConfig
from repro.core.pipeline import SofaAttention
from repro.engine import AttentionRequest, SofaEngine
from repro.utils.rng import make_rng


def _request(rng, s=64, h=16, d=16, t=4, **kwargs):
    return AttentionRequest(
        tokens=rng.integers(-80, 80, size=(s, h)).astype(np.float64),
        q=rng.normal(size=(t, d)),
        wk=rng.normal(size=(h, d)),
        wv=rng.normal(size=(h, d)),
        **kwargs,
    )


CFG = SofaConfig(tile_cols=16, top_k=8)


def test_step_leaves_underfull_groups_waiting():
    engine = SofaEngine(CFG, max_batch_heads=4)
    rng = make_rng(1)
    engine.submit_many([_request(rng) for _ in range(3)])
    assert engine.step() == []  # 3 < 4: not ready, no deadline, no age bound
    assert engine.pending == 3
    assert engine.stats.n_steps == 1


def test_midstream_admission_joins_open_group():
    """Requests submitted after a round join the group formed before it."""
    engine = SofaEngine(CFG, max_batch_heads=4)
    rng = make_rng(2)
    first = engine.submit_many([_request(rng) for _ in range(3)])
    engine.step()  # under-full: stays queued
    late = engine.submit(_request(rng))  # same grid -> fills the open group
    records = engine.step()
    assert [r.n_heads for r in records] == [4]
    assert all(f.done() for f in [*first, late])
    assert engine.pending == 0


def test_full_group_executes_immediately_on_step():
    engine = SofaEngine(CFG, max_batch_heads=2)
    rng = make_rng(3)
    engine.submit_many([_request(rng) for _ in range(5)])
    records = engine.step()
    # one group of 5 ready (>= max_batch_heads) -> chunked 2/2/1
    assert [r.n_heads for r in records] == [2, 2, 1]


def test_max_wait_batches_bounds_starvation():
    """An under-full group executes after aging max_wait_batches rounds."""
    engine = SofaEngine(CFG, max_batch_heads=8, max_wait_batches=2)
    rng = make_rng(4)
    fut = engine.submit(_request(rng))
    assert engine.step() == []  # age 0 -> 1
    assert engine.step() == []  # age 1 -> 2
    records = engine.step()  # age 2 >= max_wait_batches: ready
    assert [r.n_heads for r in records] == [1]
    assert records[0].waited_rounds == 2
    assert fut.done()


def test_deadline_expired_group_executes_without_full_batch():
    engine = SofaEngine(CFG, max_batch_heads=8)
    rng = make_rng(5)
    patient = engine.submit(_request(rng, t=2))
    urgent = engine.submit(_request(rng, deadline=time.monotonic() - 1.0))
    records = engine.step()
    # only the deadline-carrying group ran; the other shape keeps waiting
    assert [r.n_queries for r in records] == [4]
    assert urgent.done() and not patient.done()
    assert engine.pending == 1


def test_future_deadline_does_not_trigger_early():
    engine = SofaEngine(CFG, max_batch_heads=8)
    rng = make_rng(6)
    engine.submit(_request(rng, deadline=time.monotonic() + 3600.0))
    assert engine.step() == []
    assert engine.pending == 1
    engine.flush()
    assert engine.pending == 0


def test_run_until_drained_with_age_bound():
    engine = SofaEngine(CFG, max_batch_heads=8, max_wait_batches=3)
    rng = make_rng(7)
    futures = engine.submit_many([_request(rng), _request(rng, s=96)])
    records = engine.run_until_drained()
    assert engine.pending == 0
    assert sum(r.n_heads for r in records) == 2
    assert all(f.done() for f in futures)
    # groups aged into readiness rather than being force-flushed
    assert all(r.waited_rounds == 3 for r in records)


def test_run_until_drained_forces_flush_without_age_bound():
    engine = SofaEngine(CFG, max_batch_heads=8)  # max_wait_batches=None
    rng = make_rng(8)
    engine.submit_many([_request(rng) for _ in range(3)])
    records = engine.run_until_drained()
    assert engine.pending == 0
    assert [r.n_heads for r in records] == [3]


def test_run_until_drained_max_rounds_cap():
    engine = SofaEngine(CFG, max_batch_heads=8, max_wait_batches=1000)
    rng = make_rng(9)
    engine.submit(_request(rng))
    records = engine.run_until_drained(max_rounds=2)
    assert engine.pending == 0
    assert sum(r.n_heads for r in records) == 1


def test_midstream_admission_keeps_arrival_order_resolution():
    """Interleaved submissions across rounds resolve each future to exactly
    its own request's sequential result - no cross-wiring in mixed groups."""
    engine = SofaEngine(CFG, max_batch_heads=3, max_wait_batches=1)
    rng = make_rng(10)
    submitted = []
    for wave in range(3):
        for _ in range(2):
            req = _request(rng, s=64 if (len(submitted) % 2) else 96)
            submitted.append((req, engine.submit(req)))
        engine.step()
    engine.run_until_drained()
    for req, fut in submitted:
        seq = SofaAttention(req.wk, req.wv, CFG)(req.tokens, req.q)
        res = fut.result()
        np.testing.assert_array_equal(seq.selected, res.selected)
        assert seq.output.tobytes() == res.output.tobytes()


def test_result_still_triggers_full_drain():
    engine = SofaEngine(CFG, max_batch_heads=8)
    rng = make_rng(11)
    fut = engine.submit(_request(rng))
    res = fut.result()  # implicit drain of an under-full group
    assert res.output.shape == (4, 16)
    assert engine.pending == 0


def test_waited_rounds_zero_for_immediately_full_group():
    engine = SofaEngine(CFG, max_batch_heads=2)
    rng = make_rng(12)
    engine.submit_many([_request(rng), _request(rng)])
    records = engine.step()
    assert records[0].waited_rounds == 0


def test_invalid_max_wait_batches_rejected():
    with pytest.raises(ValueError):
        SofaEngine(CFG, max_wait_batches=-1)


def test_malformed_deadline_and_cache_key_fail_at_submit():
    """submit()'s contract: malformed requests never poison a batch (or
    spin the drain loop) - they are rejected before admission."""
    engine = SofaEngine(CFG)
    rng = make_rng(15)
    with pytest.raises(ValueError):
        engine.submit(_request(rng, deadline="soon"))
    with pytest.raises(ValueError):
        engine.submit(_request(rng, cache_key=["not", "hashable"]))
    assert engine.pending == 0


def test_straggler_drain_uses_constant_rounds():
    """Blocked-caller drains fast-forward aging: a lonely group must not
    cost max_wait_batches no-op scheduling rounds."""
    engine = SofaEngine(CFG, max_batch_heads=8, max_wait_batches=500)
    engine.submit(_request(make_rng(16)))
    records = engine.run_until_drained()
    assert sum(r.n_heads for r in records) == 1
    assert engine.stats.n_steps <= 3
    assert records[0].waited_rounds == 500  # the bound is still the record


def test_mismatched_wv_widths_never_share_a_group():
    """Same value-cache width but different wv shapes must split: the wv
    projections stack in _execute even when a cache overrides Dv."""
    engine = SofaEngine(CFG)
    rng = make_rng(13)

    def req(wv_cols):
        return AttentionRequest(
            tokens=rng.integers(-80, 80, size=(64, 16)).astype(np.float64),
            q=rng.normal(size=(4, 16)),
            wk=rng.normal(size=(16, 16)),
            wv=rng.normal(size=(16, wv_cols)),
            v=rng.normal(size=(64, 8)),
        )

    results = engine.run([req(8), req(12)])
    assert engine.stats.n_batches == 2
    assert all(r.output.shape == (4, 8) for r in results)  # Dv from the cache


def test_run_until_drained_survives_failing_batch():
    """A batch that raises mid-drain must not strand other groups: the
    drain completes, every future resolves, and the error re-raises last."""
    from repro.core.config import SufaConfig

    bad_cfg = SofaConfig(
        tile_cols=16, top_k=12, sufa=SufaConfig(max_assurance=False)
    )
    engine = SofaEngine(CFG, max_batch_heads=8, max_wait_batches=1)
    good = engine.submit(_request(make_rng(0)))  # under-full, not yet ready
    doomed = engine.submit(
        _request(make_rng(1), config=bad_cfg, deadline=0.0)  # fails round 0
    )
    with pytest.raises(RuntimeError):
        engine.run_until_drained()
    assert engine.pending == 0
    assert good.done() and doomed.done()
    assert good.result().output.shape == (4, 16)
    with pytest.raises(RuntimeError):
        doomed.result()
    # run() shares the drain: the same scenario through run() also resolves
    # every future before the error propagates
    engine2 = SofaEngine(CFG, max_batch_heads=8, max_wait_batches=1)
    f_good = engine2.submit(_request(make_rng(0)))
    engine2.submit(_request(make_rng(1), config=bad_cfg, deadline=0.0))
    with pytest.raises(RuntimeError):
        engine2.run([])
    assert f_good.done() and engine2.pending == 0


def test_step_failure_still_ages_waiting_groups():
    """A neighbour batch raising must not freeze the starvation bound."""
    from repro.core.config import SufaConfig

    bad_cfg = SofaConfig(
        tile_cols=16, top_k=12, sufa=SufaConfig(max_assurance=False)
    )
    engine = SofaEngine(CFG, max_batch_heads=8, max_wait_batches=2)
    waiting = engine.submit(_request(make_rng(14)))
    for round_no in range(2):
        # each round, a doomed request (seed 1 violates the predicted
        # ordering under max_assurance=False) expires immediately
        engine.submit(
            _request(make_rng(1), config=bad_cfg, deadline=0.0)
        )
        with pytest.raises(RuntimeError):
            engine.step()
        assert engine.stats.n_steps == round_no + 1
    # the waiting group aged through both failing rounds -> ready now
    records = engine.step()
    assert [r.n_heads for r in records] == [1]
    assert waiting.done()
