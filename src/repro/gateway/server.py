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
arrival -> :func:`decode_attention_request` (inline for small bodies, in
the gateway's forked decode process from ``DECODE_OFFLOAD_BYTES`` up) ->
:class:`~repro.gateway.admission.AdmissionController` verdict
(429/503 rejections answer immediately, with ``Retry-After``) ->
priority queue -> dispatcher (bounded in-flight) -> ``AsyncSofaClient``
-> worker engine -> JSON reply.  Expired tickets are shed at dispatch
so overload never spends worker time on requests whose clients gave up.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from json.decoder import WHITESPACE, scanstring
from typing import Any

import multiprocessing as mp
import numpy as np

from repro.cluster.aio import AsyncSofaClient
from repro.cluster.transport import default_start_method, detach_inherited_sockets
from repro.core.config import SofaConfig
from repro.engine.serving import AttentionRequest, SofaEngine, validate_request
from repro.gateway.admission import AdmissionController, GatewayConfig, Ticket
from repro.obs import (
    MetricsRegistry,
    get_telemetry,
    merge_snapshots,
    render_prometheus_snapshot,
)

__all__ = [
    "BodyError",
    "DECODE_OFFLOAD_BYTES",
    "GatewayError",
    "SofaGateway",
    "decode_attention_request",
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

#: bodies at least this large are decoded in the gateway's decode process;
#: smaller ones cost less to parse than to ship there and back.  Measured
#: on a 2-CPU VM, two keep-alive connections into a one-worker cluster,
#: every body with new weights: offloading cost 21-42% of throughput at
#: 53 kB and 11-18% at 148 kB, and gained 3-7% at 292 kB.  On 1.5 MB
#: bodies with repeated weights it gained 3% throughput and 7.5% p50
#: (medians of 13 pairs against inline decoding).
DECODE_OFFLOAD_BYTES = 256 * 1024


class BodyError(ValueError):
    """A request body the gateway will not serve (-> 400)."""


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
    Raises :class:`ValueError` on missing/malformed fields and on
    non-finite tensors or scales (-> 400).
    """

    def tensor(name: str, required: bool = True) -> np.ndarray | None:
        value = body.get(name)
        if value is None:
            if required:
                raise ValueError(f"missing tensor field {name!r}")
            return None
        try:
            array = np.asarray(value, dtype=np.float64)
        except OverflowError as error:
            raise ValueError(f"tensor field {name!r} holds an out-of-range number") from error
        if array.ndim != 2:
            raise ValueError(f"tensor field {name!r} must be 2-D")
        if not np.isfinite(array).all():
            # 1e400 parses to inf and "nan" strings convert to nan: both
            # would be served, and a NaN output is not valid JSON.
            raise ValueError(f"tensor field {name!r} must be finite")
        return array

    def scale(name: str) -> float:
        try:
            value = float(body.get(name, 1.0))
        except OverflowError as error:
            raise ValueError(f"{name} is out of range") from error
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        return value

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
        k_scale=scale("k_scale"),
        v_scale=scale("v_scale"),
        v=tensor("v", required=False),
        tag=tag,
        cache_key=cache_key,
    )


def _reject_constant(name: str) -> Any:
    """``json.loads`` hook for ``NaN``/``Infinity``/``-Infinity``: a 400.

    Python's decoder accepts these non-standard literals by default; a
    ``NaN`` token would quantize to a meaningless (finite) code and be
    served 200.
    """
    raise ValueError(f"non-finite JSON number {name} is not accepted")


#: ``json.loads``'s own parser pieces: the C value scanner (with the same
#: non-finite-literal hook) and the whitespace rule between tokens.
_SCAN_ONCE = json.JSONDecoder(parse_constant=_reject_constant).scan_once
_SKIP_WS = WHITESPACE.match

#: Fields whose decoded arrays are interned by their exact JSON text.
_INTERNED_FIELDS = ("wk", "wv")
#: Weight texts -> read-only float64 arrays, least recently used first.
#: Sized like the engine's operator cache, which keys on the same weights.
#: One table per process, so the decode process keeps it across calls.  It
#: needs no lock: a lookup that races an eviction raises inside
#: ``_scan_body`` and falls back to ``json.loads``.
_INTERN_CAPACITY = SofaEngine._OPERATOR_CACHE_SIZE
#: What the table may hold, text plus array, whatever clients send: a
#: 256x64 weight (about 330 kB of text) costs ~0.46 MB, so 16 of those
#: fit; a weight larger than the whole budget is never interned.
_INTERN_MAX_BYTES = 8 * 1024 * 1024
_interned: OrderedDict[str, np.ndarray] = OrderedDict()
#: A request has about ten fields; past this many (duplicates counted) the
#: walk, one Python step per field, would be slower than ``json.loads``.
_MAX_WALKED_FIELDS = 32


def _interned_at(text: str, idx: int) -> tuple[str, np.ndarray] | None:
    """The interned weight whose text ``text`` holds at ``idx``, if any.

    A JSON array value ends at its matching bracket, so when the text at
    ``idx`` starts with an interned array's complete text, that text *is*
    the value there - and its array was built from exactly that text.
    """
    for known in reversed(_interned):
        if text.startswith(known, idx):
            _interned.move_to_end(known)
            return known, _interned[known]
    return None


def _footprint(text: str, array: np.ndarray) -> int:
    return sys.getsizeof(text) + array.nbytes


def _intern(text: str, array: np.ndarray) -> None:
    if _footprint(text, array) > _INTERN_MAX_BYTES:
        return
    array.setflags(write=False)
    _interned.pop(text, None)
    _interned[text] = array  # a new key goes last
    held = sum(_footprint(*entry) for entry in _interned.items())
    while len(_interned) > _INTERN_CAPACITY or held > _INTERN_MAX_BYTES:
        held -= _footprint(*_interned.popitem(last=False))


def _scan_body(body: bytes) -> tuple[dict[str, Any] | None, dict[str, str]]:
    """Decode a top-level JSON object, reusing interned weight arrays.

    Returns ``(fields, texts)``: the object ``json.loads`` would return,
    except that an interned ``wk``/``wv`` value is already its array, and
    the text of each weight value decoded afresh.  Any input this walk
    does not take - an error, a non-object, trailing data, too many
    fields - returns ``(None, {})`` so the caller falls back to
    ``json.loads`` for the canonical result or error.
    """
    try:
        text = body.decode(json.detect_encoding(body), "surrogatepass")
        fields: dict[str, Any] = {}
        texts: dict[str, str] = {}
        idx = _SKIP_WS(text, 0).end()
        if text[idx:idx + 1] != "{":
            return None, {}
        idx = _SKIP_WS(text, idx + 1).end()
        closed = text[idx:idx + 1] == "}"
        if closed:
            idx = _SKIP_WS(text, idx + 1).end()
        walked = 0
        while not closed:
            walked += 1
            if text[idx:idx + 1] != '"' or walked > _MAX_WALKED_FIELDS:
                return None, {}
            key, idx = scanstring(text, idx + 1)
            idx = _SKIP_WS(text, idx).end()
            if text[idx:idx + 1] != ":":
                return None, {}
            idx = _SKIP_WS(text, idx + 1).end()
            texts.pop(key, None)  # a duplicate key: the last one wins
            hit = _interned_at(text, idx) if key in _INTERNED_FIELDS else None
            if hit is not None:
                fields[key] = hit[1]
                end = idx + len(hit[0])
            else:
                fields[key], end = _SCAN_ONCE(text, idx)
                if key in _INTERNED_FIELDS and text[idx] == "[":
                    texts[key] = text[idx:end]
            idx = _SKIP_WS(text, end).end()
            closed = text[idx:idx + 1] == "}"
            if not closed and text[idx:idx + 1] != ",":
                return None, {}
            idx = _SKIP_WS(text, idx + 1).end()
        if idx != len(text):
            return None, {}
        return fields, texts
    except Exception:  # noqa: BLE001 - json.loads gives the canonical error
        return None, {}


def decode_attention_request(
    body: bytes, config: SofaConfig
) -> tuple[AttentionRequest, float | None, str]:
    """A ``POST /v1/attention`` body -> ``(request, deadline_ms, tenant)``.

    Decode, :func:`request_from_json`, :func:`validate_request` against
    the backend ``config``, and the gateway's own fields, in one call the
    decode process can run.  Every way a body can fail raises
    :class:`BodyError` (400) - hostile ones raise more than ValueError: a
    400-digit integer overflows float64, a 100k-deep array exhausts
    recursion - so a caller can tell a bad body from a failure of its own.
    The request's arrays are bit-identical to ``json.loads`` followed by
    :func:`request_from_json`; ``wk``/``wv`` texts seen before reuse
    their read-only arrays instead of being parsed again.
    """
    try:
        fields, texts = _scan_body(body)
        if fields is None:
            fields = json.loads(body, parse_constant=_reject_constant)
            if not isinstance(fields, dict):
                raise ValueError("body must be a JSON object")
        request = request_from_json(fields)
        validate_request(request, config)
        deadline_ms = fields.get("deadline_ms")
        if deadline_ms is not None:
            deadline_ms = float(deadline_ms)
            if deadline_ms < 0 or not math.isfinite(deadline_ms):
                raise ValueError("deadline_ms must be finite and >= 0")
        tenant = fields.get("tenant", "default")
        if not isinstance(tenant, str):
            raise ValueError("tenant must be a string")
    except MemoryError:
        raise  # the gateway's shortage, not a malformed body
    except Exception as error:  # noqa: BLE001 - whatever the body, a 400
        raise BodyError(str(error) or repr(error)) from error
    for name, text in texts.items():
        _intern(text, getattr(request, name))
    return request, deadline_ms, tenant


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
    queued tickets, closes the listener and joins the decode process,
    but shutting the cluster down stays the caller's job (typically
    ``async with client:``).

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
        #: forked lazily by the first large body; see _decode
        self._decode_pool: ProcessPoolExecutor | None = None
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
        self._h_decode = reg.histogram(
            "sofa_gateway_decode_seconds",
            "body to validated request, inline or in the decode process")

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
        if self._decode_pool is not None:
            # Joins the decode process: nothing forked outlives stop().
            self._decode_pool.shutdown(wait=True, cancel_futures=True)
            self._decode_pool = None

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
                try:
                    status, payload, extra = await self._route(method, path, body)
                except Exception as error:  # noqa: BLE001 - answered, not dropped
                    # Every parsed request gets exactly one response.
                    self._c_errors.inc()
                    status, extra = 500, {}
                    payload = _json_bytes({"error": f"internal error: {error!r}"})
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
        start = time.perf_counter()
        try:
            request, deadline_ms, tenant = await self._decode(body)
        except BodyError as error:
            return 400, _json_bytes({"error": str(error)}), {}
        except GatewayError as error:
            return error.status, _json_bytes({"error": error.reason}), {}
        finally:
            self._h_decode.observe(time.perf_counter() - start)
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

    async def _decode(
        self, body: bytes
    ) -> tuple[AttentionRequest, float | None, str]:
        """:func:`decode_attention_request`, off the event loop if large.

        Large bodies go to one decode process per gateway, so the event
        loop keeps serving while a megabyte of JSON is parsed.  A decode
        process that dies, or cannot be forked, fails its requests with a
        503 ``decode_unavailable``; the next large body forks a fresh one.
        """
        config = self._backend_config()
        if len(body) < DECODE_OFFLOAD_BYTES:
            return decode_attention_request(body, config)
        if self._server is None:
            raise GatewayError(503, "gateway_shutdown")
        pool = self._decode_pool
        if pool is None:
            pool = self._decode_pool = ProcessPoolExecutor(
                1,
                mp_context=mp.get_context(default_start_method()),
                initializer=detach_inherited_sockets,
            )
        try:
            return await asyncio.get_running_loop().run_in_executor(
                pool, decode_attention_request, body, config
            )
        except BodyError:
            raise
        except Exception as error:  # noqa: BLE001 - the decode process failed
            # Not the body's fault: the child died (BrokenProcessPool), the
            # fork failed (OSError) or the pool was already shut down - none
            # leaves a live child.  The executor reaps a dead one itself;
            # waiting here could wedge the event loop on an interpreter whose
            # executor hangs when a child dies mid-transfer (3.10).
            if self._decode_pool is pool:
                self._decode_pool = None
            pool.shutdown(wait=False)
            self._c_errors.inc()
            raise GatewayError(503, "decode_unavailable") from error

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


def _json_bytes(payload: dict[str, Any]) -> bytes:
    # A non-finite float must fail here (500) rather than go out as NaN,
    # which no strict JSON parser reads.
    return json.dumps(payload, allow_nan=False).encode()
