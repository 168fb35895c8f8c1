"""SofaGateway: the asyncio HTTP/JSON front door over AsyncSofaClient.

This is ROADMAP item 4: the first entry point a *network* client can hit.
One :class:`SofaGateway` owns one :class:`~repro.cluster.AsyncSofaClient`
(over an :class:`~repro.cluster.EngineCluster` in production, a plain
:class:`~repro.engine.serving.SofaEngine` for single-process use) and
serves three endpoints on a raw ``asyncio.start_server`` loop - no HTTP
framework, stdlib only:

``POST /v1/attention``
    One attention request as JSON (nested lists for tensors, optional
    ``tenant`` / ``deadline_ms`` / ``cache_key`` / ``tag``).  The reply
    carries the *exact* result the Python API returns - output tensor,
    selected indices, assurance triggers, op counts - serialized through
    ``repr``-faithful JSON floats, so a gateway response is bit-identical
    to a direct :meth:`AsyncSofaClient.submit` of the same request (the
    differential sweep in ``tests/test_gateway_http.py`` is the proof).
``GET /metrics``
    Prometheus text exposition of the *merged* metrics view: the
    gateway's own always-on registry, the process-wide telemetry
    registry (when ``SOFA_TELEMETRY`` is on), and every cluster worker's
    piggybacked snapshot - one scrape covers the whole deployment (see
    :func:`repro.obs.render_prometheus_snapshot`).
``GET /healthz``
    200 while at least one worker can take traffic, 503 otherwise, with
    the supervisor/autoscaler view (live workers, respawns, scale
    events) as the JSON body.

Request lifecycle (``docs/architecture.md`` walks the full path):
arrival -> :class:`~repro.gateway.admission.AdmissionController` verdict
(429/503 rejections answer immediately, with ``Retry-After``) ->
priority queue -> dispatcher (bounded in-flight) -> ``AsyncSofaClient``
-> worker engine -> JSON reply.  Expired tickets are shed at dispatch
so overload never spends worker time on requests whose clients gave up.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any

import numpy as np

from repro.cluster.aio import AsyncSofaClient
from repro.engine.serving import AttentionRequest, validate_request
from repro.gateway.admission import AdmissionController, GatewayConfig, Ticket
from repro.obs import (
    MetricsRegistry,
    get_telemetry,
    merge_snapshots,
    render_prometheus_snapshot,
)

__all__ = [
    "GatewayError",
    "SofaGateway",
    "request_from_json",
    "result_to_json",
]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: request body size cap - one head's tensors are small; anything larger
#: is a malformed or abusive payload, not a legitimate request.
MAX_BODY_BYTES = 64 * 1024 * 1024


class GatewayError(Exception):
    """A request failed inside the gateway (shed, shutdown, backend)."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.status = status
        self.reason = reason


# ------------------------------------------------------------------ JSON codec
def request_from_json(body: dict[str, Any]) -> AttentionRequest:
    """Build an :class:`AttentionRequest` from a decoded JSON body.

    Tensors arrive as nested lists and become float64 arrays - the same
    dtype the Python API uses - so serving a JSON request is bit-for-bit
    the same computation as serving the equivalent in-process request.
    Raises :class:`ValueError` on missing/malformed fields (-> 400).
    """

    def tensor(name: str, required: bool = True) -> np.ndarray | None:
        value = body.get(name)
        if value is None:
            if required:
                raise ValueError(f"missing tensor field {name!r}")
            return None
        array = np.asarray(value, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError(f"tensor field {name!r} must be 2-D")
        return array

    tag = body.get("tag")
    if tag is not None and not isinstance(tag, str):
        raise ValueError("tag must be a string")
    cache_key = body.get("cache_key")
    if cache_key is not None and not isinstance(cache_key, str):
        # JSON has no tuples; string keys keep cross-client semantics flat.
        raise ValueError("cache_key must be a string")
    return AttentionRequest(
        tokens=tensor("tokens"),
        q=tensor("q"),
        wk=tensor("wk"),
        wv=tensor("wv"),
        k_scale=float(body.get("k_scale", 1.0)),
        v_scale=float(body.get("v_scale", 1.0)),
        v=tensor("v", required=False),
        tag=tag,
        cache_key=cache_key,
    )


def result_to_json(result) -> dict[str, Any]:
    """The response body for one served request.

    ``json.dumps`` renders floats via ``repr``, which round-trips every
    finite float64 exactly - the parity contract survives the wire.
    """
    return {
        "output": result.output.tolist(),
        "selected": result.selected.tolist(),
        "assurance_triggers": int(result.assurance_triggers),
        "ops": {k: v for k, v in result.total_ops},
    }


# --------------------------------------------------------------------- gateway
class SofaGateway:
    """One HTTP front door over one :class:`AsyncSofaClient`.

    The gateway does not own the client's backend: ``stop()`` fails any
    queued tickets and closes the listener, but shutting the cluster
    down stays the caller's job (typically ``async with client:``).

    Parameters
    ----------
    client:
        The serving client to dispatch admitted requests into.
    config:
        Admission policy (:class:`GatewayConfig`); default allows
        everything a small demo needs.
    host / port:
        Listen address; port ``0`` picks a free one (read ``.port``
        after :meth:`start`).
    max_inflight:
        Dispatcher concurrency bound - admitted tickets beyond it wait
        in the priority queue (that queue, not the dispatcher, is the
        backpressure surface).
    """

    def __init__(
        self,
        client: AsyncSofaClient,
        config: GatewayConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 32,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.client = client
        self.config = config or GatewayConfig()
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()
        self._work = asyncio.Event()
        self._admission = AdmissionController(self.config, time.monotonic())
        # The gateway's own registry is always on (serving metrics are
        # the product here, not a debug aid); /metrics merges it with
        # the SOFA_TELEMETRY plane when that is enabled too.
        self.registry = MetricsRegistry()
        reg = self.registry
        self._c_requests = reg.counter(
            "sofa_gateway_requests_total", "HTTP requests received")
        self._c_completed = reg.counter(
            "sofa_gateway_completed_total", "requests served 200")
        self._c_rate_limited = reg.counter(
            "sofa_gateway_rate_limited_total", "429 rejections")
        self._c_shed_queue = reg.counter(
            "sofa_gateway_shed_queue_total", "503 queue-full rejections")
        self._c_shed_deadline = reg.counter(
            "sofa_gateway_shed_deadline_total",
            "requests shed on an expired deadline (door or queue)")
        self._c_errors = reg.counter(
            "sofa_gateway_errors_total", "backend/codec failures")
        reg.gauge(
            "sofa_gateway_queue_depth", "admitted tickets awaiting dispatch",
            callback=lambda: float(self._admission.depth))
        self._h_latency = reg.histogram(
            "sofa_gateway_request_latency_seconds",
            "arrival to response, admitted requests")

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        # Let a cluster backend's autoscaler see the admission backlog:
        # max_inflight caps what the cluster observes as in-flight, so
        # without this the pool would never grow past the dispatch cap.
        set_hook = getattr(self.client.backend, "set_queue_depth_hook", None)
        if set_hook is not None:
            set_hook(lambda: self._admission.depth)
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        set_hook = getattr(self.client.backend, "set_queue_depth_hook", None)
        if set_hook is not None:
            set_hook(None)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for ticket in self._admission.drain():
            self._fail_ticket(ticket, 503, "gateway_shutdown")
        for task in list(self._tasks):
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "SofaGateway":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -------------------------------------------------------------- dispatcher
    async def _dispatch_loop(self) -> None:
        semaphore = asyncio.Semaphore(self.max_inflight)
        while True:
            ticket, shed = self._admission.pop(time.monotonic())
            for expired in shed:
                self._c_shed_deadline.inc()
                self._fail_ticket(expired, 503, "deadline_expired")
            if ticket is None:
                self._work.clear()
                if self._admission.depth == 0:
                    await self._work.wait()
                continue
            await semaphore.acquire()
            task = asyncio.create_task(self._run_ticket(ticket, semaphore))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_ticket(
        self, ticket: Ticket, semaphore: asyncio.Semaphore
    ) -> None:
        future, request = ticket.payload
        try:
            result = await self.client.submit(request)
        except Exception as error:  # noqa: BLE001 - reported to the caller
            if not future.done():
                future.set_exception(
                    GatewayError(500, f"backend failure: {error!r}")
                )
        else:
            if not future.done():
                future.set_result(result)
        finally:
            semaphore.release()

    @staticmethod
    def _fail_ticket(ticket: Ticket, status: int, reason: str) -> None:
        future, _ = ticket.payload
        if not future.done():
            future.set_exception(GatewayError(status, reason))

    # ------------------------------------------------------------- HTTP server
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, headers, body = parsed
                status, payload, extra = await self._route(method, path, body)
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._write_response(
                    writer, status, payload, extra, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # Loop/server teardown while this connection sat idle; a
            # connection task is a leaf - absorbing the cancel here (and
            # closing below) is its entire shutdown protocol.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            return None
        method, path, _version = parts
        headers: dict[str, str] = {}
        for line in header_lines:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return None  # non-integer length: as unframeable as a negative one
        if length < 0 or length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        extra_headers: dict[str, str],
        keep_alive: bool,
    ) -> None:
        text = _STATUS_TEXT.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {text}",
            f"Content-Length: {len(payload)}",
            "Content-Type: "
            + extra_headers.pop("Content-Type", "application/json"),
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines += [f"{k}: {v}" for k, v in extra_headers.items()]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()

    # ----------------------------------------------------------------- routing
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes, dict[str, str]]:
        if path == "/v1/attention":
            if method != "POST":
                return 405, _json_bytes({"error": "POST required"}), {}
            return await self._handle_attention(body)
        if path == "/metrics":
            if method != "GET":
                return 405, _json_bytes({"error": "GET required"}), {}
            return 200, self.render_metrics().encode(), {
                "Content-Type": "text/plain; version=0.0.4",
            }
        if path == "/healthz":
            if method != "GET":
                return 405, _json_bytes({"error": "GET required"}), {}
            status, health = self.health()
            return status, _json_bytes(health), {}
        return 404, _json_bytes({"error": f"no route {path!r}"}), {}

    async def _handle_attention(
        self, body: bytes
    ) -> tuple[int, bytes, dict[str, str]]:
        arrival = time.monotonic()
        self._c_requests.inc()
        try:
            decoded = json.loads(body, parse_constant=_reject_constant)
            if not isinstance(decoded, dict):
                raise ValueError("body must be a JSON object")
            request = request_from_json(decoded)
            validate_request(request, self._backend_config())
            deadline_ms = decoded.get("deadline_ms")
            if deadline_ms is not None:
                deadline_ms = float(deadline_ms)
                if deadline_ms < 0 or not np.isfinite(deadline_ms):
                    raise ValueError("deadline_ms must be finite and >= 0")
            tenant = decoded.get("tenant", "default")
            if not isinstance(tenant, str):
                raise ValueError("tenant must be a string")
        except (ValueError, TypeError, KeyError) as error:
            return 400, _json_bytes({"error": str(error)}), {}
        deadline = (
            None if deadline_ms is None else arrival + deadline_ms / 1000.0
        )
        if deadline is not None:
            # The engine's deadline scheduling sees the same budget the
            # gateway sheds against - one deadline, every tier.
            request = AttentionRequest(
                tokens=request.tokens, q=request.q, wk=request.wk,
                wv=request.wv, k_scale=request.k_scale,
                v_scale=request.v_scale, v=request.v, config=request.config,
                tag=request.tag, cache_key=request.cache_key,
                deadline=deadline,
            )
        future = asyncio.get_running_loop().create_future()
        decision, _ticket = self._admission.offer(
            tenant, arrival, deadline=deadline, payload=(future, request)
        )
        if not decision.admitted:
            if decision.status == 429:
                self._c_rate_limited.inc()
            elif decision.reason == "queue_full":
                self._c_shed_queue.inc()
            else:
                self._c_shed_deadline.inc()
            headers = {}
            if decision.retry_after_s is not None:
                headers["Retry-After"] = f"{decision.retry_after_s:.3f}"
            return (
                decision.status,
                _json_bytes({"error": decision.reason}),
                headers,
            )
        self._work.set()
        try:
            result = await future
        except GatewayError as error:
            if error.status >= 500 and error.reason.startswith("backend"):
                self._c_errors.inc()
            return error.status, _json_bytes({"error": error.reason}), {}
        self._h_latency.observe(time.monotonic() - arrival)
        self._c_completed.inc()
        return 200, _json_bytes(result_to_json(result)), {}

    def _backend_config(self):
        return self.client.backend.config

    # -------------------------------------------------------------- observability
    def render_metrics(self) -> str:
        """The merged Prometheus view this gateway's /metrics serves."""
        snapshots = [self.registry.snapshot()]
        telemetry = get_telemetry()
        if telemetry.enabled:
            snapshots.append(telemetry.registry.snapshot())
        stats = getattr(self.client.backend, "stats", None)
        workers = getattr(stats, "workers", None) or []
        for worker in workers:
            if worker.telemetry:
                snapshots.append(worker.telemetry)
        return render_prometheus_snapshot(merge_snapshots(*snapshots))

    def health(self) -> tuple[int, dict[str, Any]]:
        """(status, body) for /healthz: can the backend take traffic?"""
        backend = self.client.backend
        if not hasattr(backend, "live_workers"):
            # A plain SofaEngine runs in-process: if we answered, it serves.
            return 200, {"status": "ok", "backend": "engine"}
        live = backend.live_workers
        stats = backend.stats
        body = {
            "status": "ok" if live else "unavailable",
            "backend": "cluster",
            "transport": stats.transport,
            "live_workers": live,
            "n_workers": stats.n_workers,
            "pending": stats.pending,
            "n_worker_failures": stats.n_worker_failures,
            "n_respawns": stats.n_respawns,
            "n_reconnects": stats.n_reconnects,
            "n_scale_ups": stats.n_scale_ups,
            "n_scale_downs": stats.n_scale_downs,
            "request_p99_s": stats.request_p99_s,
            "queue_depth": self._admission.depth,
        }
        return (200 if live else 503), body


def _reject_constant(name: str) -> Any:
    """``json.loads`` hook for ``NaN``/``Infinity``/``-Infinity``: a 400.

    Python's decoder accepts these non-standard literals by default; a
    ``NaN`` token would quantize to a meaningless (finite) code and be
    served 200.
    """
    raise ValueError(f"non-finite JSON number {name} is not accepted")


def _json_bytes(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload).encode()
