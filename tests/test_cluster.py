"""EngineCluster tests: cross-process parity, dedup, stats, failures.

The cluster's contract extends the engine's: every result - output bits,
selected indices, op counts, stage traces - is identical to the same
request served by a single sequential engine, regardless of which
worker served it, worker count, dedup, or a worker dying mid-stream.  These tests
spawn real worker processes (marker: ``cluster``).
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterError,
    EngineCluster,
    WorkerUnavailableError,
)
from repro.core.config import SofaConfig
from repro.engine import AttentionRequest, SofaEngine
from repro.model.config import ModelConfig
from repro.model.inference import SparseDecodeSession, SparseInferenceRunner
from repro.model.transformer import Transformer
from repro.utils.rng import make_rng

pytestmark = pytest.mark.cluster

CFG = SofaConfig(tile_cols=16, top_k=0.25)
SHAPES = (32, 48)  # two sequence-length classes


def _make_requests(seed: int, n: int, cache_keys: bool = False) -> list[AttentionRequest]:
    rng = make_rng(seed)
    return [
        AttentionRequest(
            tokens=rng.integers(-100, 100, size=(SHAPES[i % 2], 8)).astype(np.float64),
            q=rng.normal(size=(3, 8)),
            wk=rng.normal(size=(8, 8)),
            wv=rng.normal(size=(8, 8)),
            cache_key=f"seq-{i}" if cache_keys else None,
        )
        for i in range(n)
    ]


def _assert_bit_identical(ref, got):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        assert a.output.tobytes() == b.output.tobytes()
        assert np.array_equal(a.selected, b.selected)
        assert a.total_ops.counts == b.total_ops.counts
        assert [s.name for s in a.stages] == [s.name for s in b.stages]


@pytest.fixture(scope="module")
def reference_results():
    requests = _make_requests(seed=11, n=10)
    with SofaEngine(CFG) as engine:
        return requests, engine.run(requests)


def test_two_worker_cluster_bit_identical(reference_results):
    requests, ref = reference_results
    with EngineCluster(n_workers=2, config=CFG) as cluster:
        got = cluster.run(requests)
        _assert_bit_identical(ref, got)
        stats = cluster.stats
        assert stats.n_requests == len(requests)
        assert stats.n_completed == len(requests)
        assert stats.pending == 0
        assert stats.n_errors == 0
        assert sum(w.n_requests for w in stats.workers) == len(requests)


def test_keyless_burst_of_one_shape_spreads_over_workers():
    """Keyless requests go to the least busy worker, so a burst of one
    shape reaches every worker instead of piling onto one."""
    rng = make_rng(12)
    wk, wv = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
    requests = [
        AttentionRequest(
            tokens=rng.integers(-100, 100, size=(32, 8)).astype(np.float64),
            q=rng.normal(size=(3, 8)),
            wk=wk,
            wv=wv,
        )
        for _ in range(12)
    ]
    with EngineCluster(n_workers=2, config=CFG) as cluster:
        cluster.run(requests)
        per_worker = [w.n_requests for w in cluster.stats.workers]
    assert sum(per_worker) == len(requests)
    assert all(n > 0 for n in per_worker), per_worker


def test_dedup_shares_one_execution_bit_identically():
    rng = make_rng(21)
    base = _make_requests(seed=21, n=1)[0]
    twin = AttentionRequest(
        tokens=base.tokens, q=base.q, wk=base.wk, wv=base.wv,
        tag="duplicate", deadline=None,
    )
    other = AttentionRequest(
        tokens=base.tokens * 2, q=base.q, wk=base.wk, wv=base.wv
    )
    with EngineCluster(n_workers=2, config=CFG) as cluster:
        futures = cluster.submit_many([base, twin, other])
        cluster.flush()
        results = [f.result() for f in futures]
        stats = cluster.stats
        assert stats.n_submitted == 3
        assert stats.n_deduped == 1
        assert stats.n_requests == 2  # twin never executed
        assert results[0].output.tobytes() == results[1].output.tobytes()
        assert np.array_equal(results[0].selected, results[1].selected)
        # followers decode their own tensors - no shared mutable arrays
        assert results[0].output is not results[1].output
        assert results[0].output.tobytes() != results[2].output.tobytes()


def test_dedup_window_closes_on_resolution():
    base = _make_requests(seed=22, n=1)[0]
    with EngineCluster(n_workers=1, config=CFG) as cluster:
        cluster.run([base])
        cluster.run([base])  # window closed: executes again
        assert cluster.stats.n_deduped == 0
        assert cluster.stats.n_requests == 2


def test_dedup_disabled_executes_every_copy():
    base = _make_requests(seed=23, n=1)[0]
    with EngineCluster(n_workers=2, config=CFG, dedup=False) as cluster:
        cluster.run([base, base])
        assert cluster.stats.n_deduped == 0
        assert cluster.stats.n_requests == 2


def test_malformed_request_fails_at_submit():
    with EngineCluster(n_workers=1, config=CFG) as cluster:
        with pytest.raises(ValueError, match="2-D"):
            cluster.submit(
                AttentionRequest(
                    tokens=np.zeros(4), q=np.zeros((2, 2)),
                    wk=np.zeros((2, 2)), wv=np.zeros((2, 2)),
                )
            )
        assert cluster.stats.pending == 0


def test_worker_side_error_routes_to_its_future_only():
    good = _make_requests(seed=24, n=2)
    bad = AttentionRequest(
        tokens=good[0].tokens, q=good[0].q, wk=good[0].wk, wv=good[0].wv,
        config=SofaConfig(tile_cols=0, top_k=4),  # explodes at execution
    )
    with EngineCluster(n_workers=2, config=CFG) as cluster:
        futures = cluster.submit_many([good[0], bad, good[1]])
        with pytest.raises(ValueError, match="tile_cols"):
            cluster.flush()
        assert futures[0].result() is not None
        assert futures[2].result() is not None
        with pytest.raises(ValueError, match="tile_cols"):
            futures[1].result()
        assert cluster.stats.n_errors == 1


def test_worker_death_reroutes_in_flight_requests(reference_results):
    requests, ref = reference_results
    with EngineCluster(n_workers=2, config=CFG) as cluster:
        # Stall worker 0, queue the crash behind the stall, then submit:
        # everything routed to worker 0 sits undelivered when it dies.
        cluster.stall_worker(0, 0.5)
        cluster.crash_worker(0, hard=False, wait=False)
        futures = cluster.submit_many(requests)
        cluster.flush()
        got = [f.result() for f in futures]
        _assert_bit_identical(ref, got)
        stats = cluster.stats
        assert stats.n_worker_failures == 1
        assert stats.n_rerouted >= 1  # the burst alternated onto worker 0
        assert stats.n_errors == 0
        assert stats.live_workers == 1


def test_requests_fail_only_when_no_worker_left():
    requests = _make_requests(seed=25, n=2)
    with EngineCluster(n_workers=1, config=CFG) as cluster:
        cluster.stall_worker(0, 0.5)
        cluster.crash_worker(0, hard=False, wait=False)
        futures = cluster.submit_many(requests)
        with pytest.raises(WorkerUnavailableError):
            cluster.flush()
        for future in futures:
            with pytest.raises(WorkerUnavailableError):
                future.result()
        with pytest.raises(WorkerUnavailableError):
            cluster.submit(requests[0])


def test_shutdown_fails_pending_futures_and_rejects_new_work():
    request = _make_requests(seed=26, n=1)[0]
    cluster = EngineCluster(n_workers=1, config=CFG)
    cluster.stall_worker(0, 5.0)  # pin the request in flight
    future = cluster.submit(request)
    cluster.shutdown(timeout_s=0.5)  # don't wait out the stall
    with pytest.raises(ClusterError):
        future.result()
    with pytest.raises(ClusterError):
        cluster.submit(request)
    cluster.shutdown()  # idempotent


def test_cluster_invalidate_cache_drops_across_workers():
    requests = _make_requests(seed=27, n=4, cache_keys=True)
    with EngineCluster(n_workers=2, config=CFG) as cluster:
        cluster.run(requests)
        assert cluster.stats.cache.misses == 4  # cold fills
        dropped = sum(cluster.invalidate_cache(f"seq-{i}") for i in range(4))
        assert dropped == 4
        assert cluster.invalidate_cache("seq-0") == 0  # already gone


def test_decode_session_accepts_cluster_as_engine():
    model_cfg = ModelConfig(
        name="tiny", n_layers=2, hidden=32, n_heads=4, ffn_hidden=64,
        default_seq_len=64, family="bert",
    )
    model = Transformer.init(make_rng(77), model_cfg)
    sofa_cfg = SofaConfig(tile_cols=16, top_k=0.5)
    rng = make_rng(31)
    prompt = rng.normal(size=(20, 32))
    steps = [rng.normal(size=(1, 32)) for _ in range(2)]

    ref = SparseDecodeSession(model, sofa_cfg, session_id="drop-in")
    ref_outs = [ref.prefill(prompt)] + [ref.step(s) for s in steps]

    with EngineCluster(n_workers=2, config=sofa_cfg) as cluster:
        session = SparseDecodeSession(
            model, sofa_cfg, engine=cluster, session_id="drop-in"
        )
        outs = [session.prefill(prompt)] + [session.step(s) for s in steps]
        for a, b in zip(ref_outs, outs):
            assert a.output.tobytes() == b.output.tobytes()
            assert (a.cache_hits, a.cache_misses) == (b.cache_hits, b.cache_misses)
        n_units = model_cfg.n_layers * model_cfg.n_heads
        assert outs[-1].cache_hits == n_units  # affinity kept every key warm
        assert session.close() == n_units


def test_inference_runner_accepts_cluster_as_engine():
    model_cfg = ModelConfig(
        name="tiny", n_layers=2, hidden=32, n_heads=4, ffn_hidden=64,
        default_seq_len=64, family="bert",
    )
    model = Transformer.init(make_rng(78), model_cfg)
    sofa_cfg = SofaConfig(tile_cols=16, top_k=0.5)
    x = make_rng(32).normal(size=(24, 32))

    ref = SparseInferenceRunner(model, sofa_cfg).run(x)
    with EngineCluster(n_workers=2, config=sofa_cfg) as cluster:
        got = SparseInferenceRunner(model, sofa_cfg, engine=cluster).run(x)
    assert got.output.tobytes() == ref.output.tobytes()
    assert got.total_ops.counts == ref.total_ops.counts


def test_stats_snapshot_merges_worker_counters():
    requests = _make_requests(seed=33, n=6, cache_keys=True)
    with EngineCluster(n_workers=2, config=CFG) as cluster:
        cluster.run(requests)
        cluster.run(requests)  # second pass: all hits, split across workers
        stats = cluster.stats
        assert stats.cache.misses == 6
        assert stats.cache.hits == 6
        assert stats.n_batches >= 2
        assert stats.mean_batch_heads > 0
        assert {w.worker_id for w in stats.workers} == {0, 1}
        assert all(w.alive for w in stats.workers)


def test_constructor_validation():
    with pytest.raises(ValueError, match="n_workers"):
        EngineCluster(n_workers=0)
    # Placement is not configurable: the old option is an unknown one.
    with pytest.raises(TypeError, match="unknown SofaEngine option"):
        EngineCluster(n_workers=1, **{"routing": "random"})
