"""Socket-transport tests: cross-transport parity, frames on the wire,
worker death, reconnection (marker: ``socket``).

The tentpole contract: the frontend is transport-blind, so serving over
length-prefixed TCP frames to standalone worker processes must be
**bit-identical** to serving local workers over socketpairs - outputs,
selected indices, op counts, stage traces - through dedup, and through
a mid-stream worker kill followed by an auto-respawn serving new
traffic (the differential sweep below).
"""

import gc
import socket
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from repro.cluster import EngineCluster, SupervisorConfig
from repro.cluster.transport import SocketTransport, parse_address
from repro.cluster.worker import accept_frontend
from repro.core.config import SofaConfig
from repro.engine import AttentionRequest, SofaEngine
from repro.utils.rng import make_rng

pytestmark = pytest.mark.socket

CFG = SofaConfig(tile_cols=16, top_k=0.25)
SHAPES = (32, 48)

#: Supervision tuned for test pace: fast heartbeats, fast respawn, but a
#: timeout far above any batch these tiny shapes can take.
FAST_SUPERVISOR = SupervisorConfig(
    heartbeat_interval_s=0.05,
    heartbeat_timeout_s=5.0,
    backoff_initial_s=0.02,
    backoff_max_s=0.5,
)


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
        for sa, sb in zip(a.stages, b.stages):
            assert sa.ops.counts == sb.ops.counts


def _wait_for_recovery(cluster, before: int, timeout_s: float = 20.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        stats = cluster.stats
        if stats.n_respawns + stats.n_reconnects > before:
            return
        cluster.poll(0.05)
    raise AssertionError("supervision never recovered the worker")


@pytest.fixture(scope="module")
def reference_results():
    requests = _make_requests(seed=11, n=10)
    with SofaEngine(CFG) as engine:
        return requests, engine.run(requests)


def test_socket_cluster_bit_identical_and_reports_transport(reference_results):
    requests, ref = reference_results
    with EngineCluster(n_workers=2, config=CFG, transport="socket") as cluster:
        got = cluster.run(requests)
        _assert_bit_identical(ref, got)
        stats = cluster.stats
        assert stats.transport == "socket"
        assert stats.n_requests == len(requests)
        assert stats.n_errors == 0


def test_transport_differential_sweep_with_midstream_kill(reference_results):
    """The acceptance sweep: local and socket transports serve the same
    stream bit-identically to one engine - including a mid-stream worker
    kill, the re-routed replay of its in-flight requests, and post-respawn
    traffic on the recovered worker."""
    requests, ref = reference_results
    late = _make_requests(seed=12, n=6)
    with SofaEngine(CFG) as engine:
        late_ref = engine.run(late)

    per_transport = {}
    for transport in ("local", "socket"):
        with EngineCluster(
            n_workers=2,
            config=CFG,
            transport=transport,
            supervisor=FAST_SUPERVISOR,
        ) as cluster:
            # Stall worker 0, queue its crash behind the stall, then
            # submit: whatever was routed to worker 0 is in flight
            # when it dies and must replay onto the survivor.
            cluster.stall_worker(0, 0.3)
            cluster.crash_worker(0, hard=False, wait=False)
            futures = cluster.submit_many(requests)
            cluster.flush()
            got = [f.result() for f in futures]
            # Auto-respawn, then serve fresh traffic on the recovered set.
            _wait_for_recovery(cluster, before=0)
            got_late = cluster.run(late)
            stats = cluster.stats
            assert stats.n_worker_failures >= 1, transport
            assert stats.n_errors == 0, transport
            assert stats.n_respawns + stats.n_reconnects >= 1
            assert stats.live_workers == 2, transport
            per_transport[transport] = got + got_late
    # Both transports: bit-identical to the single sequential engine.
    _assert_bit_identical(ref + late_ref, per_transport["local"])
    _assert_bit_identical(ref + late_ref, per_transport["socket"])


def test_socket_dedup_shares_one_execution():
    base = _make_requests(seed=21, n=1)[0]
    twin = AttentionRequest(
        tokens=base.tokens, q=base.q, wk=base.wk, wv=base.wv, tag="twin"
    )
    with EngineCluster(n_workers=2, config=CFG, transport="socket") as cluster:
        futures = cluster.submit_many([base, twin])
        cluster.flush()
        results = [f.result() for f in futures]
        assert cluster.stats.n_deduped == 1
        assert cluster.stats.n_requests == 1
        assert results[0].output.tobytes() == results[1].output.tobytes()
        assert results[0].output is not results[1].output


def test_socket_invalidate_cache_drops_across_workers():
    requests = _make_requests(seed=27, n=4, cache_keys=True)
    with EngineCluster(n_workers=2, config=CFG, transport="socket") as cluster:
        cluster.run(requests)
        assert cluster.stats.cache.misses == 4
        dropped = sum(cluster.invalidate_cache(f"seq-{i}") for i in range(4))
        assert dropped == 4


def test_socket_worker_error_routes_to_its_future_only():
    good = _make_requests(seed=24, n=2)
    bad = AttentionRequest(
        tokens=good[0].tokens, q=good[0].q, wk=good[0].wk, wv=good[0].wv,
        config=SofaConfig(tile_cols=0, top_k=4),  # explodes at execution
    )
    with EngineCluster(n_workers=2, config=CFG, transport="socket") as cluster:
        futures = cluster.submit_many([good[0], bad, good[1]])
        with pytest.raises(ValueError, match="tile_cols"):
            cluster.flush()
        assert futures[0].result() is not None
        assert futures[2].result() is not None
        with pytest.raises(ValueError, match="tile_cols"):
            futures[1].result()


def test_socket_worker_death_without_supervision_reroutes(reference_results):
    requests, ref = reference_results
    with EngineCluster(n_workers=2, config=CFG, transport="socket") as cluster:
        cluster.stall_worker(0, 0.3)
        cluster.crash_worker(0, hard=False, wait=False)
        futures = cluster.submit_many(requests)
        cluster.flush()
        _assert_bit_identical(ref, [f.result() for f in futures])
        stats = cluster.stats
        assert stats.n_worker_failures == 1
        assert stats.n_rerouted >= 1
        assert stats.live_workers == 1  # no supervisor: stays down


def test_externally_started_worker_serves_via_addresses(reference_results):
    """The multi-host shape: workers launched separately (as an operator
    would on another machine), the cluster attaching by address."""
    requests, ref = reference_results
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cluster.worker",
         "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline().decode().strip()
        address = line.split(" ", 1)[1]
        parse_address(address)  # well-formed announce
        with EngineCluster(
            config=CFG, transport="socket", worker_addresses=[address]
        ) as cluster:
            assert cluster.n_workers == 1
            got = cluster.run(requests)
            _assert_bit_identical(ref, got)
        # cluster shutdown sent "stop": the standalone worker exits cleanly
        assert proc.wait(timeout=10.0) == 0
    finally:
        proc.stdout.close()
        proc.kill()
        proc.wait()


def test_tcp_links_disable_nagle_on_both_ends():
    """Small protocol frames must not wait out Nagle's algorithm plus a
    delayed ACK: the frontend's connection and the worker's accepted one
    both set TCP_NODELAY."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        host, port = listener.getsockname()[:2]
        transport = SocketTransport([f"{host}:{port}"])
        link = transport.start_worker(0, 0, {})
        conn = accept_frontend(listener)
        try:
            for sock in (link._sock, conn):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            conn.close()
            link.close()
            transport.close()


def test_spawned_worker_leaves_no_unclosed_pipe():
    """The spawner reads one announce line from a worker's stdout pipe;
    the pipe must be closed after it, not left to the garbage collector."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        transport = SocketTransport(1)
        try:
            _host, port = transport._slot_target(0)  # spawns and reads the announce
            assert port > 0
        finally:
            transport.close()
        del transport
        gc.collect()
    unclosed = [
        str(w.message) for w in caught
        if issubclass(w.category, ResourceWarning) and "unclosed" in str(w.message)
    ]
    assert not unclosed, unclosed


def test_worker_addresses_require_socket_transport():
    with pytest.raises(ValueError, match="socket"):
        EngineCluster(config=CFG, worker_addresses=["127.0.0.1:1"])


def test_transport_instance_slot_count_must_match_n_workers():
    from repro.cluster import SocketTransport

    transport = SocketTransport(2)  # slots allocate lazily: no spawn yet
    try:
        with pytest.raises(ValueError, match="slot"):
            EngineCluster(n_workers=4, config=CFG, transport=transport)
    finally:
        transport.close()


def test_worker_addresses_reject_transport_instance():
    from repro.cluster import SocketTransport

    transport = SocketTransport(1)
    try:
        with pytest.raises(ValueError, match="instance"):
            EngineCluster(
                config=CFG, transport=transport,
                worker_addresses=["127.0.0.1:1"],
            )
    finally:
        transport.close()


def test_unreachable_worker_address_fails_startup_loudly():
    from repro.cluster.transport import TransportError

    with pytest.raises(TransportError, match="could not reach"):
        EngineCluster(
            config=CFG,
            transport="socket",
            # TEST-NET-1 address: connect fails fast with refused/unreachable
            worker_addresses=["127.0.0.1:1"],
        )


def test_unknown_transport_rejected():
    with pytest.raises(ValueError, match="transport"):
        EngineCluster(n_workers=1, config=CFG, transport="carrier-pigeon")
