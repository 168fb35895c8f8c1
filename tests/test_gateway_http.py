"""Gateway HTTP tests: the differential sweep and the overload edges.

The standing contract crosses the wire intact: a gateway JSON response
must be bit-identical - outputs, selections, op counters - to serving
the same request through a plain sequential :class:`SofaEngine`, over
every backend shape (in-process engine, local cluster, socket cluster).
Overload behavior is exercised with the cluster's fault-injection stall
hook so queue buildup is deterministic: 429s carry Retry-After, full
queues answer 503 instead of hanging, and expired tickets shed.
"""

import asyncio
import errno
import json
import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import asynccontextmanager

import pytest

from repro.cluster import AsyncSofaClient, AutoscalerConfig, EngineCluster, SupervisorConfig
from repro.core.config import SofaConfig
from repro.engine import SofaEngine
from repro.gateway import (
    GatewayClient,
    GatewayConfig,
    SofaGateway,
    TenantPolicy,
    request_from_json,
    result_to_json,
)
from repro.gateway import server
from repro.gateway.server import DECODE_OFFLOAD_BYTES
from repro.utils.rng import make_rng

pytestmark = pytest.mark.gateway

CFG = SofaConfig(tile_cols=16, top_k=0.25)


def _bodies(seed: int, n: int, **extra) -> list[dict]:
    rng = make_rng(seed)
    return [
        {
            "tokens": rng.integers(-100, 100, size=(32, 8)).astype(float).tolist(),
            "q": rng.normal(size=(2, 8)).tolist(),
            "wk": rng.normal(size=(8, 8)).tolist(),
            "wv": rng.normal(size=(8, 8)).tolist(),
            "tag": f"req-{seed}-{i}",
            **extra,
        }
        for i in range(n)
    ]


def _large_bodies(seed: int, n: int) -> list[dict]:
    """Bodies over the offload threshold that share one head's weights."""
    rng = make_rng(seed)
    wk, wv = rng.normal(size=(8, 8)).tolist(), rng.normal(size=(8, 8)).tolist()
    bodies = [
        {
            "tokens": rng.normal(size=(2048, 8)).tolist(),
            "q": rng.normal(size=(2, 8)).tolist(),
            "wk": wk,
            "wv": wv,
            "tag": f"large-{seed}-{i}",
        }
        for i in range(n)
    ]
    assert all(len(json.dumps(b)) >= DECODE_OFFLOAD_BYTES for b in bodies)
    return bodies


def _reference_json(bodies: list[dict]) -> list[dict]:
    """Serve the same requests on a sequential engine; JSON round-trip."""
    with SofaEngine(CFG) as engine:
        results = engine.run([request_from_json(b) for b in bodies])
    return [json.loads(json.dumps(result_to_json(r))) for r in results]


@asynccontextmanager
async def _gateway(backend, config=None, **gw_kwargs):
    async with AsyncSofaClient(backend) as client:
        async with SofaGateway(client, config=config, **gw_kwargs) as gw:
            async with GatewayClient("127.0.0.1", gw.port) as http:
                yield gw, client, http


async def _post_concurrently(port: int, bodies: list[dict]) -> list:
    """One connection per request, all in flight together."""

    async def one(body):
        async with GatewayClient("127.0.0.1", port) as http:
            return await http.attention(body)

    return await asyncio.gather(*(one(b) for b in bodies))


def _make_backend(kind: str):
    if kind == "engine":
        return SofaEngine(CFG)
    if kind == "local":
        return EngineCluster(n_workers=2, config=CFG)
    assert kind == "socket"
    return EngineCluster(n_workers=2, config=CFG, transport="socket")


# --------------------------------------------------------------- parity sweep
@pytest.mark.parametrize("kind", ["engine", "local", "socket"])
def test_differential_sweep_bit_parity(kind):
    bodies = _bodies(seed=11, n=6)
    expected = _reference_json(bodies)

    async def main():
        async with _gateway(_make_backend(kind)) as (_gw, _client, http):
            responses = []
            for body in bodies:
                status, _, resp = await http.attention(body)
                assert status == 200, resp
                responses.append(resp)
            return responses

    got = asyncio.run(main())
    # Floats crossed the wire through repr-faithful JSON: every value -
    # outputs, selections, op counters - must match the sequential
    # engine's result exactly, not approximately.
    assert got == expected


def test_concurrent_posts_keep_parity():
    bodies = _bodies(seed=12, n=8)
    expected = {b["tag"]: r for b, r in zip(bodies, _reference_json(bodies))}

    async def main():
        async with _gateway(EngineCluster(n_workers=2, config=CFG)) as (
            _gw, _client, http,
        ):
            del http  # concurrency needs one connection per request
            return await _post_concurrently(_gw.port, bodies)

    for body, (status, _, resp) in zip(bodies, asyncio.run(main())):
        assert status == 200
        assert resp == expected[body["tag"]]


# ------------------------------------------------------------------ endpoints
def test_healthz_and_metrics_and_routing():
    async def main():
        async with _gateway(EngineCluster(n_workers=2, config=CFG)) as (
            gw, _client, http,
        ):
            status, health = await http.healthz()
            assert status == 200
            assert health["status"] == "ok"
            assert health["backend"] == "cluster"
            assert len(health["live_workers"]) == 2
            assert health["n_scale_ups"] == 0

            for body in _bodies(seed=13, n=3):
                status, _, _resp = await http.attention(body)
                assert status == 200
            text = await http.metrics()
            assert "# TYPE sofa_gateway_requests_total counter" in text
            assert "sofa_gateway_requests_total 3" in text
            assert "sofa_gateway_completed_total 3" in text
            assert "sofa_gateway_queue_depth 0" in text
            assert "sofa_gateway_request_latency_seconds_count 3" in text
            assert "# TYPE sofa_gateway_decode_seconds histogram" in text
            assert "sofa_gateway_decode_seconds_count 3" in text

            status, _, resp = await http.request("GET", "/nope")
            assert status == 404
            status, _, resp = await http.request("GET", "/v1/attention")
            assert status == 405
            status, _, resp = await http.request(
                "POST", "/v1/attention", b"not json"
            )
            assert status == 400
            status, _, resp = await http.request(
                "POST", "/v1/attention", json.dumps({"tokens": [[1.0]]}).encode()
            )
            assert status == 400  # missing q/wk/wv

    asyncio.run(main())


def test_healthz_on_plain_engine_backend():
    async def main():
        async with _gateway(SofaEngine(CFG)) as (_gw, _client, http):
            status, health = await http.healthz()
            assert status == 200
            assert health == {"status": "ok", "backend": "engine"}

    asyncio.run(main())


def test_non_integer_content_length_closes_the_connection_quietly():
    """A malformed Content-Length is unframeable: the gateway drops that
    connection without an error escaping into the event loop, and keeps
    serving everyone else."""

    async def main():
        loop = asyncio.get_running_loop()
        escaped = []
        loop.set_exception_handler(lambda _loop, context: escaped.append(context))
        async with _gateway(SofaEngine(CFG)) as (gw, _client, http):
            reader, writer = await asyncio.open_connection("127.0.0.1", gw.port)
            writer.write(
                b"POST /v1/attention HTTP/1.1\r\n"
                b"Content-Length: abc\r\n\r\n"
            )
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()
            await writer.wait_closed()
            status, health = await http.healthz()
            assert status == 200 and health["status"] == "ok"
        assert escaped == []

    asyncio.run(main())


def _hostile(literal: str) -> bytes:
    """A valid body with its first token replaced by ``literal``."""
    body = _bodies(seed=20, n=1)[0]
    body["tokens"][0][0] = 0.0625  # the first number in the text
    return json.dumps(body).replace("0.0625", literal, 1).encode()


def test_non_finite_json_numbers_are_rejected_with_400():
    """``NaN``/``Infinity``/``-Infinity`` literals never reach the engine,
    and neither do numbers or strings that become non-finite floats."""

    async def main():
        async with _gateway(SofaEngine(CFG)) as (_gw, _client, http):
            for value, literal in ((float("nan"), "NaN"), (float("inf"), "Infinity"),
                                   (float("-inf"), "-Infinity")):
                body = _bodies(seed=19, n=1)[0]
                body["tokens"][0][0] = value  # json.dumps writes the literal
                status, _, resp = await http.attention(body)
                assert status == 400, resp
                assert f"number {literal} " in resp["error"]
            valid = _bodies(seed=19, n=1)[0]
            for raw in (
                _hostile("1e400"), _hostile("-1e400"), _hostile('"nan"'),
                _hostile('"inf"'), _hostile('"-Infinity"'),
                json.dumps(dict(valid, k_scale="nan")).encode(),
                json.dumps(dict(valid, v_scale="-inf")).encode(),
            ):
                status, _, resp = await http.request("POST", "/v1/attention", raw)
                assert status == 400, resp
                assert "finite" in json.loads(resp)["error"]
            status, _, resp = await http.attention(_bodies(seed=19, n=1)[0])
            assert status == 200, resp

    asyncio.run(main())


@pytest.mark.parametrize("raw", [
    _hostile("1" + "0" * 400),  # np.asarray raises OverflowError
    b'{"tokens": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # RecursionError
], ids=["huge-integer", "deep-nesting"])
def test_hostile_bodies_get_a_400_not_a_dropped_connection(raw):
    async def main():
        loop = asyncio.get_running_loop()
        escaped = []
        loop.set_exception_handler(lambda _loop, context: escaped.append(context))
        async with _gateway(SofaEngine(CFG)) as (_gw, _client, http):
            status, _, resp = await http.request("POST", "/v1/attention", raw)
            assert status == 400, resp
            assert json.loads(resp)["error"]
            # Same keep-alive connection: still served.
            status, _, _resp = await http.attention(_bodies(seed=20, n=1)[0])
            assert status == 200
        assert escaped == []

    asyncio.run(main())


def test_an_unexpected_failure_is_answered_500(monkeypatch):
    """Every parsed request gets exactly one response, even on a bug."""

    def broken(_result):
        raise RuntimeError("encoder bug")

    async def main():
        async with _gateway(SofaEngine(CFG)) as (gw, _client, http):
            status, _, resp = await http.attention(_bodies(seed=21, n=1)[0])
            assert status == 500
            assert "encoder bug" in resp["error"]
            assert gw._c_errors.value == 1
            monkeypatch.undo()
            status, _, _resp = await http.attention(_bodies(seed=21, n=1)[0])
            assert status == 200

    monkeypatch.setattr(server, "result_to_json", broken)
    asyncio.run(main())


# ------------------------------------------------------------- decode process
@pytest.mark.parametrize("kind", ["engine", "local"])
def test_large_bodies_decode_off_loop_with_interned_weights(kind):
    """Bodies over the threshold decode in the forked decode process, the
    repeats of one head's weights come from its intern table, and the
    replies still equal engine-direct serving bit for bit - also across
    the cluster's process hop, which encodes the read-only arrays."""
    bodies = _large_bodies(seed=22, n=3)
    small = _bodies(seed=23, n=1) * 2  # inline decode, interned the second time
    expected = _reference_json(bodies + small)

    async def main():
        async with _gateway(_make_backend(kind)) as (gw, _client, http):
            got = []
            for body in bodies + small + bodies:
                status, _, resp = await http.attention(body)
                assert status == 200, resp
                got.append(resp)
            assert gw._decode_pool is not None
            return got

    got = asyncio.run(main())
    assert got == expected + expected[:3]
    assert multiprocessing.active_children() == []


def test_connections_open_at_fork_still_see_the_gateway_close_them():
    """The forked decode process must not keep client sockets alive: a
    connection accepted before the fork gets EOF when the gateway drops it."""

    async def main():
        async with _gateway(SofaEngine(CFG)) as (gw, _client, http):
            reader, writer = await asyncio.open_connection("127.0.0.1", gw.port)
            writer.write(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")  # accepted and served
            length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
            await reader.readexactly(length)

            status, _, _resp = await http.attention(_large_bodies(seed=25, n=1)[0])
            assert status == 200  # the decode process now exists
            writer.write(b"POST /v1/attention HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            writer.close()
            await writer.wait_closed()

    asyncio.run(main())


async def _served_connection(port: int):
    """A keep-alive connection the gateway has accepted and served once."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
    await reader.readexactly(length)
    return reader, writer


def test_connections_open_at_a_worker_respawn_still_see_the_gateway_close_them():
    """A local worker forked while the gateway serves (here: respawned by
    supervision after a SIGKILL) must not keep the gateway's client
    sockets alive: connections opened before the respawn still get their
    reply and EOF when the gateway closes them."""
    supervisor = SupervisorConfig(
        heartbeat_interval_s=0.05, heartbeat_timeout_s=5.0,
        backoff_initial_s=0.02, backoff_max_s=0.5,
    )

    async def main():
        cluster = EngineCluster(n_workers=1, config=CFG, supervisor=supervisor)
        async with _gateway(cluster) as (gw, _client, http):
            status, _, _ = await http.attention(_bodies(seed=31, n=1)[0])
            assert status == 200
            closing = await _served_connection(gw.port)
            unframeable = await _served_connection(gw.port)

            cluster.crash_worker(0, hard=True)  # SIGKILL
            deadline = time.monotonic() + 20.0
            while cluster.stats.n_respawns < 1:
                assert time.monotonic() < deadline, "the worker never respawned"
                cluster.poll(0.05)
                await asyncio.sleep(0.01)

            reader, writer = closing
            writer.write(
                b"POST /v1/attention HTTP/1.1\r\nContent-Length: 3\r\n"
                b"Connection: close\r\n\r\nabc"
            )
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=3.0)  # to EOF
            assert reply.startswith(b"HTTP/1.1 400 ")
            reader, writer = unframeable
            writer.write(b"POST /v1/attention HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), timeout=3.0) == b""
            for _, writer in (closing, unframeable):
                writer.close()
                await writer.wait_closed()

            status, _, _ = await http.attention(_bodies(seed=32, n=1)[0])
            assert status == 200  # the respawned worker serves

    asyncio.run(main())


def _slow_decode(body, config):
    """Stands in for the decoder in the decode process: stalls on one tag."""
    if b'"stall-me"' in body:
        time.sleep(30.0)
    return _real_decode(body, config)


_real_decode = server.decode_attention_request


def test_killed_decode_process_answers_503_then_a_fresh_one_serves(monkeypatch):
    # The stall makes "killed mid-decode" deterministic: the request is in
    # the decode process's hands for 30 s, and the kill lands after 0.3 s.
    monkeypatch.setattr(server, "decode_attention_request", _slow_decode)
    bodies = _large_bodies(seed=24, n=3)
    stalled = dict(bodies[1], tag="stall-me")
    expected = _reference_json([bodies[0], bodies[2]])

    async def main():
        async with _gateway(SofaEngine(CFG)) as (gw, _client, http):
            status, _, resp = await http.attention(bodies[0])
            assert status == 200 and resp == expected[0]
            (child,) = multiprocessing.active_children()

            pending = asyncio.create_task(http.attention(stalled))
            while gw._c_requests.value < 2:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.3)
            os.kill(child.pid, signal.SIGKILL)
            status, _, resp = await asyncio.wait_for(pending, timeout=30.0)
            assert (status, resp) == (503, {"error": "decode_unavailable"})

            # Same connection, next large body: a new decode process.
            status, _, resp = await http.attention(bodies[2])
            assert status == 200 and resp == expected[1]
            (fresh,) = multiprocessing.active_children()
            assert fresh.pid != child.pid
            assert gw._c_requests.value == 3

    asyncio.run(main())
    assert multiprocessing.active_children() == []


def test_a_decode_process_that_cannot_fork_answers_503_not_400(monkeypatch):
    """A failure of the gateway's own decode machinery is not the body's
    fault: a fork that fails (EAGAIN) answers 503 ``decode_unavailable``
    and counts as an error, and the next large body forks normally."""

    class Unforkable(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(server, "ProcessPoolExecutor", Unforkable)
    bodies = _large_bodies(seed=26, n=2)
    expected = _reference_json(bodies)

    async def main():
        async with _gateway(SofaEngine(CFG)) as (gw, _client, http):
            status, _, resp = await http.attention(bodies[0])
            assert (status, resp) == (503, {"error": "decode_unavailable"})
            assert gw._c_errors.value == 1
            monkeypatch.undo()
            status, _, resp = await http.attention(bodies[1])
            assert status == 200 and resp == expected[1]
            assert gw._c_errors.value == 1

    asyncio.run(main())
    assert multiprocessing.active_children() == []


# ------------------------------------------------------------------- overload
def test_tenant_bucket_exhaustion_returns_429_with_retry_after():
    config = GatewayConfig(
        tenants={"limited": TenantPolicy(rate=0.5, burst=1.0)},
    )

    async def main():
        async with _gateway(
            EngineCluster(n_workers=1, config=CFG), config=config
        ) as (_gw, _client, http):
            first, second = _bodies(seed=14, n=2, tenant="limited")
            status, _, _resp = await http.attention(first)
            assert status == 200
            status, headers, resp = await http.attention(second)
            assert status == 429
            assert resp == {"error": "rate_limited"}
            assert float(headers["retry-after"]) > 0.0
            # Rate limits isolate tenants: another tenant sails through.
            other = _bodies(seed=15, n=1, tenant="spacious")[0]
            status, _, _resp = await http.attention(other)
            assert status == 200

    asyncio.run(main())


def test_full_queue_sheds_with_503_not_unbounded_growth():
    config = GatewayConfig(max_queue=2, overbook_factor=1.0)

    async def main():
        cluster = EngineCluster(n_workers=1, config=CFG)
        async with _gateway(
            cluster, config=config, max_inflight=1
        ) as (gw, _client, _http):
            cluster.stall_worker(cluster.live_workers[0], 1.0)
            outcomes = await asyncio.wait_for(
                _post_concurrently(gw.port, _bodies(seed=16, n=8)),
                timeout=60.0,
            )
            statuses = sorted(s for s, _, _ in outcomes)
            # The bounded queue admitted a handful; everything else was
            # answered 503 immediately instead of queueing unboundedly.
            assert statuses.count(200) >= 2
            assert statuses.count(503) >= 4
            assert set(statuses) <= {200, 503}
            for status, headers, resp in outcomes:
                if status == 503:
                    assert resp == {"error": "queue_full"}
                    assert float(headers["retry-after"]) > 0.0

    asyncio.run(main())


def test_expired_queue_sheds_and_never_hangs():
    config = GatewayConfig(max_queue=8)

    async def main():
        cluster = EngineCluster(n_workers=1, config=CFG)
        async with _gateway(
            cluster, config=config, max_inflight=1
        ) as (gw, _client, _http):
            # Stall the only worker past every queued deadline: the queue
            # fills with doomed tickets, and the wait_for proves the shed
            # path resolves every future instead of wedging dispatch.
            cluster.stall_worker(cluster.live_workers[0], 1.0)
            bodies = _bodies(seed=17, n=5, deadline_ms=200.0)
            outcomes = await asyncio.wait_for(
                _post_concurrently(gw.port, bodies), timeout=60.0
            )
            statuses = [s for s, _, _ in outcomes]
            assert statuses.count(200) >= 1  # the dispatched one survived
            assert statuses.count(503) >= 3  # the stalled queue shed
            for status, _, resp in outcomes:
                if status == 503:
                    assert resp == {"error": "deadline_expired"}

    asyncio.run(main())


def test_zero_deadline_request_is_shed_at_the_door():
    async def main():
        async with _gateway(EngineCluster(n_workers=1, config=CFG)) as (
            _gw, _client, http,
        ):
            body = _bodies(seed=18, n=1, deadline_ms=0)[0]
            status, _, resp = await http.attention(body)
            assert status == 503
            assert resp == {"error": "deadline_expired"}

    asyncio.run(main())


# ------------------------------------------------------- autoscale end-to-end
def test_overload_through_gateway_triggers_autoscale():
    scaler = AutoscalerConfig(
        min_workers=1, max_workers=2, queue_high=2.0, queue_low=0.25,
        hold_up_s=0.0, hold_down_s=5.0, cooldown_s=0.0,
    )

    async def main():
        cluster = EngineCluster(
            n_workers=1, config=CFG, supervisor=True, autoscaler=scaler
        )
        roomy = GatewayConfig(
            default_tenant=TenantPolicy(rate=1000.0, burst=100.0)
        )
        async with _gateway(cluster, config=roomy) as (gw, _client, http):
            outcomes = await asyncio.wait_for(
                _post_concurrently(gw.port, _bodies(seed=19, n=40)),
                timeout=120.0,
            )
            assert all(s == 200 for s, _, _ in outcomes)
            status, health = await http.healthz()
            assert status == 200
            assert health["n_scale_ups"] >= 1

    asyncio.run(main())
