"""Routing-policy tests: affinity invariants, balance, randomized sweep.

Policies are deterministic pure functions of ``(RequestInfo, live
workers)``, so the affinity invariants (same grid -> same worker, same
cache key -> same worker, rendezvous stability under worker loss) are
checked exhaustively at the unit level; a randomized end-to-end sweep
(marker: ``cluster``) then proves the whole frontend - routing + dedup +
a mid-stream worker death - never moves a result bit.
"""

import numpy as np
import pytest

from repro.cluster import EngineCluster, POLICIES, RequestInfo, make_policy
from repro.cluster.routing import (
    CacheAffinityPolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    ShapeAffinityPolicy,
)
from repro.core.config import SofaConfig
from repro.engine import AttentionRequest, SofaEngine
from repro.engine.codec import encode_request, request_fingerprint
from repro.utils.rng import make_rng

CFG = SofaConfig(tile_cols=16, top_k=0.25)


def _info(shape_key: bytes, cache_key: bytes | None = None, cost: float = 1.0):
    return RequestInfo(shape_key=shape_key, cache_key=cache_key, cost=cost)


# ------------------------------------------------------------------ unit level
def test_make_policy_registry():
    for name in POLICIES:
        assert make_policy(name, 3).__class__.name == name
    with pytest.raises(ValueError, match="unknown routing policy"):
        make_policy("nope", 3)


def test_round_robin_cycles_and_skips_dead():
    policy = RoundRobinPolicy(3)
    picks = [policy.route(_info(b"k"), [0, 1, 2]) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    picks = [policy.route(_info(b"k"), [0, 2]) for _ in range(4)]
    assert 1 not in picks and set(picks) == {0, 2}
    with pytest.raises(ValueError):
        policy.route(_info(b"k"), [])


def test_shape_affinity_same_grid_same_worker():
    policy = ShapeAffinityPolicy(4)
    live = [0, 1, 2, 3]
    rng = make_rng(5)
    for _ in range(50):
        key = rng.bytes(12)
        first = policy.route(_info(key), live)
        assert all(policy.route(_info(key), live) == first for _ in range(3))
    # S is not in the engine's batch key, so requests that differ only in
    # S batch together and must share a worker; S still weighs the cost.
    lengths = (16, 24, 32, 48, 64, 96, 128, 256)
    wk, wv, q = rng.normal(size=(8, 8)), rng.normal(size=(8, 8)), rng.normal(size=(2, 8))
    infos = [
        RequestInfo.from_payload(
            encode_request(
                AttentionRequest(tokens=rng.normal(size=(s, 8)), q=q, wk=wk, wv=wv)
            )
        )
        for s in lengths
    ]
    assert len({policy.route(info, live) for info in infos}) == 1
    assert [info.cost for info in infos] == [s * 2.0 for s in lengths]


def test_affinity_rendezvous_only_remaps_keys_of_the_dead_worker():
    policy = ShapeAffinityPolicy(4)
    rng = make_rng(6)
    keys = [rng.bytes(16) for _ in range(200)]
    full = {k: policy.route(_info(k), [0, 1, 2, 3]) for k in keys}
    assert len(set(full.values())) == 4  # every worker owns some keys
    reduced = {k: policy.route(_info(k), [0, 1, 3]) for k in keys}
    for key in keys:
        if full[key] != 2:
            assert reduced[key] == full[key]  # survivors keep their keys
        else:
            assert reduced[key] in (0, 1, 3)


def test_cache_affinity_sticks_by_key_and_falls_back_to_shape():
    policy = CacheAffinityPolicy(4)
    live = [0, 1, 2, 3]
    rng = make_rng(7)
    for _ in range(50):
        cache_key = rng.bytes(8)
        shape_a, shape_b = rng.bytes(8), rng.bytes(8)
        # same cache key on different grids -> same worker (state lives there)
        assert policy.route(_info(shape_a, cache_key), live) == policy.route(
            _info(shape_b, cache_key), live
        )
    shape = rng.bytes(8)
    keyless = policy.route(_info(shape, None), live)
    assert keyless == ShapeAffinityPolicy(4).route(_info(shape), live)


def test_least_loaded_balances_costs_and_retires():
    policy = LeastLoadedPolicy(3)
    live = [0, 1, 2]
    assert policy.route(_info(b"a", cost=10.0), live) == 0
    assert policy.route(_info(b"b", cost=1.0), live) == 1
    assert policy.route(_info(b"c", cost=1.0), live) == 2
    assert policy.route(_info(b"d", cost=1.0), live) == 1  # lightest after b
    policy.retire(0, 10.0)
    assert policy.route(_info(b"e", cost=1.0), live) == 0
    assert policy.balancer.imbalance <= 2.0


def test_least_loaded_respects_live_subset():
    policy = LeastLoadedPolicy(3)
    for _ in range(5):
        assert policy.route(_info(b"x", cost=1.0), [1, 2]) in (1, 2)
    assert policy.balancer.loads[0] == 0.0


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
@pytest.mark.parametrize("routing", POLICIES)
def test_randomized_sweep_parity_and_dedup(routing):
    requests = _random_stream(seed=101, n=14)
    fingerprints = [request_fingerprint(encode_request(r)) for r in requests]
    n_unique = len(set(fingerprints))
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    with EngineCluster(n_workers=3, config=CFG, routing=routing) as cluster:
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
@pytest.mark.parametrize("routing", POLICIES)
def test_randomized_sweep_survives_mid_stream_worker_death(routing):
    requests = _random_stream(seed=202, n=12)
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    with EngineCluster(n_workers=3, config=CFG, routing=routing) as cluster:
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
