"""Routing tests: the one rule, its invariants, a randomized sweep.

:func:`~repro.cluster.routing.route` is a deterministic pure function of
``(cache_key, live workers, in-flight counts)``, so its invariants (same
cache key -> same worker, keyless -> fewest in flight, rendezvous
stability under worker loss) are checked exhaustively at the unit level;
a randomized end-to-end sweep (marker: ``cluster``) then proves the whole
frontend - routing + dedup + a mid-stream worker death - never moves a
result bit.
"""

import numpy as np
import pytest

from repro.cluster import EngineCluster
from repro.cluster.routing import route
from repro.core.config import SofaConfig
from repro.engine import AttentionRequest, SofaEngine
from repro.engine.codec import encode_request, request_fingerprint
from repro.utils.rng import make_rng

CFG = SofaConfig(tile_cols=16, top_k=0.25)


def _idle(live: list[int]) -> dict[int, int]:
    return {worker: 0 for worker in live}


# ------------------------------------------------------------------ unit level
def test_cache_key_always_maps_to_one_worker():
    live = [0, 1, 2, 3]
    rng = make_rng(7)
    for _ in range(50):
        key = rng.bytes(8)
        first = route(key, live, _idle(live))
        # Neither the load nor the order of the live set moves a key.
        busy = {worker: int(rng.integers(10)) for worker in live}
        assert route(key, live, busy) == first
        assert route(key, live[::-1], busy) == first
    with pytest.raises(ValueError):
        route(b"k", [], {})


def test_keyless_picks_follow_in_flight_counts():
    live = [0, 1, 2]
    in_flight = _idle(live)
    picks = []
    for _ in range(6):  # a burst: counts only rise, so picks alternate
        worker = route(None, live, in_flight)
        in_flight[worker] += 1
        picks.append(worker)
    assert picks == [0, 1, 2, 0, 1, 2]
    assert route(None, live, {0: 3, 1: 1, 2: 2}) == 1
    assert route(None, live, {0: 2, 1: 4, 2: 2}) == 0  # ties: lowest id
    # A fresh worker (new id, nothing in flight) takes the next request.
    assert route(None, [0, 1, 7], {0: 1, 1: 1, 7: 0}) == 7
    with pytest.raises(ValueError):
        route(None, [], {})


def test_affinity_rendezvous_only_remaps_keys_of_the_dead_worker():
    rng = make_rng(6)
    keys = [rng.bytes(16) for _ in range(200)]
    full = {k: route(k, [0, 1, 2, 3], _idle([0, 1, 2, 3])) for k in keys}
    assert len(set(full.values())) == 4  # every worker owns some keys
    reduced = {k: route(k, [0, 1, 3], _idle([0, 1, 3])) for k in keys}
    for key in keys:
        if full[key] != 2:
            assert reduced[key] == full[key]  # survivors keep their keys
        else:
            assert reduced[key] in (0, 1, 3)


# --------------------------------------------------------------- cluster sweep
def _random_stream(seed: int, n: int) -> list[AttentionRequest]:
    """Mixed traffic: 3 shape classes, decode keys, exact duplicates."""
    rng = make_rng(seed)
    shapes = (24, 32, 48)
    requests: list[AttentionRequest] = []
    for i in range(n):
        s = shapes[int(rng.integers(len(shapes)))]
        req = AttentionRequest(
            tokens=rng.integers(-100, 100, size=(s, 8)).astype(np.float64),
            q=rng.normal(size=(2, 8)),
            wk=rng.normal(size=(8, 8)),
            wv=rng.normal(size=(8, 8)),
            cache_key=f"seq-{i % 5}" if rng.integers(2) else None,
        )
        requests.append(req)
        if rng.integers(3) == 0:  # inject a bit-identical duplicate
            requests.append(
                AttentionRequest(
                    tokens=req.tokens, q=req.q, wk=req.wk, wv=req.wv,
                    cache_key=req.cache_key, tag="dup",
                )
            )
    return requests


@pytest.mark.cluster
def test_randomized_sweep_parity_and_dedup():
    requests = _random_stream(seed=101, n=14)
    fingerprints = [request_fingerprint(encode_request(r)) for r in requests]
    n_unique = len(set(fingerprints))
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    with EngineCluster(n_workers=3, config=CFG) as cluster:
        got = cluster.run(requests)
        stats = cluster.stats
    for a, b in zip(ref, got):
        assert a.output.tobytes() == b.output.tobytes()
        assert np.array_equal(a.selected, b.selected)
        assert a.total_ops.counts == b.total_ops.counts
    # dedup correctness: one execution per unique fingerprint, none dropped
    assert stats.n_submitted == len(requests)
    assert stats.n_deduped == len(requests) - n_unique
    assert stats.n_requests == n_unique
    assert stats.n_completed == len(requests)


@pytest.mark.cluster
def test_randomized_sweep_survives_mid_stream_worker_death():
    requests = _random_stream(seed=202, n=12)
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    with EngineCluster(n_workers=3, config=CFG) as cluster:
        half = len(requests) // 2
        futures = cluster.submit_many(requests[:half])
        cluster.flush()
        # Crash the worker that served most of the first half (a worker
        # the stream never reached would hold nothing to re-route), and
        # stall it first so the second half queues behind its crash point.
        victim = max(cluster.stats.workers, key=lambda w: w.n_requests).worker_id
        cluster.stall_worker(victim, 0.5)
        cluster.crash_worker(victim, hard=False, wait=False)
        futures += cluster.submit_many(requests[half:])
        cluster.flush()
        got = [f.result() for f in futures]
        stats = cluster.stats
    for a, b in zip(ref, got):
        assert a.output.tobytes() == b.output.tobytes()
        assert np.array_equal(a.selected, b.selected)
    assert stats.n_worker_failures == 1
    assert stats.n_errors == 0
    assert stats.live_workers == 2
