"""Telemetry-parity sweep: the plane must never change what is served.

The standing contract is bit-for-bit parity across every serving tier;
this suite turns the telemetry switch on and re-asserts it for the
in-process engine and the cluster (local and socket transports), down
to op counters and stage traces.  It also pins
the codec's optional ``trace`` field (old frames still decode, dedup
fingerprints ignore it) and the acceptance criterion of the plane: one
request served over the socket transport yields a single stitched trace -
frontend and worker spans sharing a trace id - exportable as valid Chrome
trace-event JSON.
"""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.cluster import EngineCluster
from repro.core.config import SofaConfig
from repro.engine import AttentionRequest, SofaEngine
from repro.engine.codec import (
    FRAME_HEADER_SIZE,
    decode_request,
    encode_request,
    request_fingerprint,
    request_trace_context,
)
from repro.utils.rng import make_rng

CFG = SofaConfig(tile_cols=16, top_k=0.25)


def _make_requests(seed: int, n: int) -> list[AttentionRequest]:
    rng = make_rng(seed)
    return [
        AttentionRequest(
            tokens=rng.integers(-100, 100, size=(32 if i % 2 else 48, 8)).astype(
                np.float64
            ),
            q=rng.normal(size=(3, 8)),
            wk=rng.normal(size=(8, 8)),
            wv=rng.normal(size=(8, 8)),
        )
        for i in range(n)
    ]


def _fingerprints(results):
    return [
        (
            r.output.tobytes(),
            r.selected.tobytes(),
            tuple(sorted(r.total_ops.counts.items())),
            tuple(s.name for s in r.stages),
        )
        for r in results
    ]


@pytest.fixture
def telemetry_off():
    """Force-disable for the reference run; restore the env verdict after."""
    yield obs.reset_telemetry(enabled=False)
    obs.reset_telemetry()


@pytest.fixture
def telemetry_env_on(monkeypatch):
    """Enable via the environment (inherited by worker processes too)."""
    monkeypatch.setenv(obs.ENV_VAR, "1")
    yield obs.reset_telemetry()
    monkeypatch.delenv(obs.ENV_VAR)
    obs.reset_telemetry()


# ------------------------------------------------------------ engine parity
def test_engine_parity_with_telemetry(telemetry_off):
    requests = _make_requests(seed=31, n=6)
    with SofaEngine(CFG) as engine:
        ref = _fingerprints(engine.run(requests))

    obs.reset_telemetry(enabled=True)
    with SofaEngine(CFG) as engine:
        got = _fingerprints(engine.run(requests))
    assert ref == got

    # and the plane actually observed the traffic it did not perturb
    t = obs.get_telemetry()
    snap = t.registry.snapshot()
    assert snap["counters"]["sofa_engine_requests_total"] == len(requests)
    assert snap["histograms"]["sofa_engine_request_latency_seconds"]["count"] == len(
        requests
    )
    assert snap["histograms"]["sofa_engine_execute_seconds"]["count"] >= 1
    names = {r["name"] for r in t.tracer.spans()}
    assert "engine.request" in names
    assert "engine.batch" in names
    assert names & {"stage.predict_select_fused", "stage.predict"}
    assert "stage.kv_gather" in names
    assert "stage.stream" in names


@pytest.mark.cluster
def test_cluster_local_parity_with_telemetry(telemetry_off):
    requests = _make_requests(seed=32, n=6)
    with SofaEngine(CFG) as engine:
        ref = _fingerprints(engine.run(requests))
    with EngineCluster(n_workers=2, config=CFG) as cluster:
        baseline = _fingerprints(cluster.run(requests))
    assert ref == baseline


@pytest.mark.cluster
def test_cluster_local_parity_telemetry_enabled(telemetry_off, telemetry_env_on):
    requests = _make_requests(seed=32, n=6)
    with SofaEngine(CFG) as engine:
        ref = _fingerprints(engine.run(requests))
    with EngineCluster(n_workers=2, config=CFG) as cluster:
        got = _fingerprints(cluster.run(requests))
        stats = cluster.stats
    assert ref == got
    # worker registries rode home on the stats channel and merge cleanly
    worker_snaps = [w.telemetry for w in stats.workers if w.telemetry]
    assert worker_snaps, "no worker shipped a telemetry snapshot"
    merged = obs.merge_snapshots(*worker_snaps)
    assert merged["counters"]["sofa_engine_requests_total"] == len(requests)


@pytest.mark.socket
def test_cluster_socket_parity_telemetry_enabled(telemetry_off, telemetry_env_on):
    requests = _make_requests(seed=33, n=4)
    with SofaEngine(CFG) as engine:
        ref = _fingerprints(engine.run(requests))
    with EngineCluster(n_workers=2, config=CFG, transport="socket") as cluster:
        got = _fingerprints(cluster.run(requests))
    assert ref == got


# --------------------------------------------------------- stitched tracing
@pytest.mark.socket
def test_one_socket_request_yields_one_stitched_chrome_trace(telemetry_env_on):
    """The PR's acceptance criterion, end to end over the socket hop."""
    (request,) = _make_requests(seed=34, n=1)
    with EngineCluster(n_workers=2, config=CFG, transport="socket") as cluster:
        cluster.run([request])
        t = obs.get_telemetry()
        spans = t.tracer.spans()
        trace = t.tracer.chrome_trace()

    by_name = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(record)
    (root,) = by_name["cluster.request"]
    (rpc,) = by_name["cluster.rpc"]
    (worker,) = by_name["worker.request"]
    # one trace id stitches the frontend and worker sides together
    assert rpc["trace_id"] == root["trace_id"]
    assert rpc["parent_id"] == root["span_id"]
    assert worker["trace_id"] == root["trace_id"]
    assert worker["parent_id"] == root["span_id"]
    assert worker["pid"] != root["pid"]  # genuinely crossed the process line
    # the worker's inner engine spans came along on the piggyback channel
    assert "engine.batch" in by_name

    # and the export is valid Chrome trace-event JSON covering both pids
    serialized = json.dumps(trace)
    parsed = json.loads(serialized)
    events = parsed["traceEvents"]
    pids = {e["pid"] for e in events if e["ph"] == "X"}
    assert root["pid"] in pids and worker["pid"] in pids
    stitched = [
        e for e in events
        if e["ph"] == "X" and e["args"].get("trace_id") == root["trace_id"]
    ]
    assert len(stitched) >= 3  # root + rpc + worker.request at minimum


@pytest.mark.cluster
def test_programmatic_enable_reaches_local_workers(monkeypatch):
    """obs.enable() alone - no SOFA_TELEMETRY in the environment - still
    lights up the workers: the frontend's switch ships with the engine
    options, so worker and stage spans stitch into the frontend's trace."""
    monkeypatch.delenv(obs.ENV_VAR, raising=False)
    obs.reset_telemetry(enabled=True)
    try:
        (request,) = _make_requests(seed=37, n=1)
        with EngineCluster(n_workers=1, config=CFG) as cluster:
            cluster.run([request])
            spans = obs.get_telemetry().tracer.spans()
    finally:
        obs.reset_telemetry()
    names = {r["name"] for r in spans}
    assert {"worker.request", "engine.batch", "stage.stream"} <= names
    (root,) = [r for r in spans if r["name"] == "cluster.request"]
    (worker,) = [r for r in spans if r["name"] == "worker.request"]
    assert worker["trace_id"] == root["trace_id"]
    assert worker["pid"] != root["pid"]


@pytest.mark.cluster
def test_local_transport_counts_its_frames_and_bytes(monkeypatch):
    """Local workers speak frames over a socketpair, so the frontend's
    transport counters describe their traffic: an init plus one frame per
    request out, a ready plus one result per request back."""
    monkeypatch.delenv(obs.ENV_VAR, raising=False)
    obs.reset_telemetry(enabled=True)
    requests = _make_requests(seed=38, n=3)
    try:
        with EngineCluster(n_workers=1, config=CFG) as cluster:
            cluster.run(requests)
        # Read after shutdown: every frame before the final stop is counted.
        counters = obs.get_telemetry().registry.snapshot()["counters"]
    finally:
        obs.reset_telemetry()
    sent = counters["sofa_transport_frames_sent_total"]
    received = counters["sofa_transport_frames_received_total"]
    assert sent >= 1 + len(requests)
    assert received >= 2 + len(requests)
    assert counters["sofa_transport_bytes_sent_total"] > sent * FRAME_HEADER_SIZE
    assert counters["sofa_transport_bytes_received_total"] > (
        received * FRAME_HEADER_SIZE
    )


@pytest.mark.cluster
def test_dedup_survives_tracing_and_marks_follower_spans(telemetry_env_on):
    (request,) = _make_requests(seed=35, n=1)
    with EngineCluster(n_workers=2, config=CFG) as cluster:
        futures = cluster.submit_many([request, request])
        cluster.flush()
        for future in futures:
            future.result()
        stats = cluster.stats
        spans = obs.get_telemetry().tracer.spans()
    # distinct trace ids per submission must not defeat fingerprint dedup
    assert stats.n_deduped == 1
    roots = [r for r in spans if r["name"] == "cluster.request"]
    assert len(roots) == 2
    assert [r["attrs"].get("deduped") for r in roots].count(True) == 1


# ------------------------------------------------------------- codec field
def test_codec_trace_field_roundtrip_and_old_frame_compat():
    (request,) = _make_requests(seed=36, n=1)
    plain = encode_request(request)
    traced = encode_request(request, trace=("a" * 16, "b" * 16))
    assert "trace" not in plain
    assert request_trace_context(plain) is None
    assert request_trace_context(traced) == ("a" * 16, "b" * 16)
    # tracing is observability-only: decode parity and dedup identity hold
    for payload in (plain, traced):
        decoded = decode_request(payload)
        assert decoded.tokens.tobytes() == request.tokens.tobytes()
        assert decoded.q.tobytes() == request.q.tobytes()
    assert request_fingerprint(plain) == request_fingerprint(traced)


@pytest.mark.parametrize(
    "malformed",
    [None, "just-a-string", ("only-one",), ("a", 7), ("", "b"), ["a", "b", "c"]],
)
def test_request_trace_context_is_defensive(malformed):
    (request,) = _make_requests(seed=37, n=1)
    payload = encode_request(request)
    if malformed is not None:
        payload["trace"] = malformed
    assert request_trace_context(payload) is None


def test_request_trace_context_accepts_list_form():
    # framed transports may round-trip the tuple as a list
    (request,) = _make_requests(seed=38, n=1)
    payload = encode_request(request, trace=("a" * 16, "b" * 16))
    payload["trace"] = list(payload["trace"])
    assert request_trace_context(payload) == ("a" * 16, "b" * 16)


# --------------------------------------------------- satellite: worker stats
@pytest.mark.cluster
def test_worker_stats_distinguish_no_snapshot_from_zeros():
    with EngineCluster(n_workers=2, config=CFG) as cluster:
        before = cluster.stats
        # no result frame yet: counters are zeros, and the flag says why
        assert all(not w.snapshot_received for w in before.workers)
        assert all(w.n_requests == 0 for w in before.workers)
        cluster.run(_make_requests(seed=39, n=4))
        after = cluster.stats
        served = [w for w in after.workers if w.snapshot_received]
        assert served, "no worker ever reported a snapshot"
        assert sum(w.n_requests for w in served) == 4
        # without telemetry enabled the snapshots carry no registry dump
        assert all(w.telemetry is None for w in after.workers)


# ------------------------------------------------ satellite: batch timings
def test_batch_records_carry_queue_wait_and_execute_times(telemetry_off):
    # unconditional timings: present with the telemetry plane disabled
    requests = _make_requests(seed=40, n=4)
    with SofaEngine(CFG) as engine:
        for request in requests:
            engine.submit(request)
        records = engine.run_until_drained()
    assert records
    for record in records:
        assert record.queue_wait_s >= 0.0
        assert record.execute_s > 0.0
