"""Engine worker: one :class:`SofaEngine` behind a message loop.

A cluster worker speaks one channel whichever transport started it
(:mod:`repro.cluster.transport`): length-prefixed, checksummed frames
(:func:`repro.engine.codec.encode_frame`) over a stream socket, served by
:func:`_serve_connection`, the only worker loop.  The process comes to
exist one of two ways:

* **local** - a ``multiprocessing`` child running :func:`serve_socketpair`
  on its end of a ``socket.socketpair()``;
* **socket** - a standalone process (``python -m repro.cluster.worker
  --listen HOST:PORT``, this module's CLI) accepting one frontend
  connection at a time.  When the connection drops without a ``stop`` the
  worker loops back to ``accept`` - that is the hook reconnection (and
  multi-host supervision) attaches to.  A reconnected session builds a
  **fresh engine** (the previous session's decode-cache state is gone
  with its frontend), which is why the frontend registers reconnected
  workers under a fresh worker id.

The loop drains its input *greedily* before executing, so requests that
arrive together join the engine's shape groups together and batch into
fused calls - per-worker continuous batching, the same behaviour a single
in-process engine gives.

Wire protocol (plain tuples of built-ins, payloads via
:mod:`repro.engine.codec`):

frontend -> worker
    ``("init", worker_id, engine_kwargs)``  first frame of a session:
                                            identity + engine
                                            parameterization, plus the
                                            frontend's ``telemetry`` switch
    ``("req", req_id, payload)``    serve one request
    ``("invalidate", ctl_id, key)`` drop decode-cache state for a key
    ``("ping", token)``             health probe; answered with a pong
                                    before any queued compute executes
    ``("stop",)``                   acknowledge and exit cleanly
    ``("exit", code)``              die *without* acknowledging - a fault
                                    hook for tests/drills simulating a
                                    crashed worker (``os._exit``; anything
                                    queued behind it is lost, exactly like
                                    a SIGKILL)
    ``("sleep", seconds)``          stall before reading further messages -
                                    a fault hook that lets tests queue work
                                    behind a crash point deterministically

worker -> frontend
    ``("ready", worker_id)``
    ``("result", worker_id, req_id, result_payload, stats)``
    ``("error", worker_id, req_id, pickled_exception)``
    ``("invalidated", worker_id, ctl_id, n_dropped)``
    ``("pong", worker_id, token)``
    ``("stopped", worker_id)``

A request payload that fails to decode (truncated tensor bytes, codec
version skew - :class:`~repro.engine.codec.CodecError`) is answered with
an ``error`` message like any other per-request failure, so the frontend
fails that future instead of hanging it or losing the worker.

Every result message piggybacks a tiny engine-stats snapshot (plain dict),
so the frontend's :class:`~repro.cluster.serving.ClusterStats` stays
current without a separate control round-trip.
"""

from __future__ import annotations

import pickle
import socket
from dataclasses import asdict
from typing import Any, Callable

from repro.cluster.transport import (
    ANNOUNCE_PREFIX,
    detach_inherited_sockets,
    parse_address,
    set_nodelay,
)
from repro.engine.codec import (
    decode_config,
    decode_request,
    encode_result,
    request_trace_context,
)
from repro.engine.serving import SofaEngine
from repro.obs import get_telemetry, reset_telemetry, telemetry_env_enabled


def stats_snapshot(engine: SofaEngine) -> dict[str, Any]:
    """The piggybacked per-worker counters, as plain built-ins.

    With telemetry enabled the snapshot additionally carries this
    worker's metrics registry (``"telemetry"``) and *drains* its finished
    spans (``"spans"``) - the piggyback channel that stitches worker
    spans into the frontend's trace without a separate control
    round-trip.
    """
    snap: dict[str, Any] = {
        "n_requests": engine.stats.n_requests,
        "n_batches": engine.stats.n_batches,
        "n_steps": engine.stats.n_steps,
        "cache": asdict(engine.stats.cache),
    }
    obs = get_telemetry()
    if obs.enabled:
        snap["telemetry"] = obs.registry.snapshot()
        snap["spans"] = obs.tracer.drain()
    return snap


def _pickle_exception(error: Exception) -> bytes:
    try:
        return pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 - unpicklable errors degrade to repr
        return pickle.dumps(RuntimeError(repr(error)), protocol=pickle.HIGHEST_PROTOCOL)


class EngineMessageServer:
    """Transport-agnostic serving core: protocol messages -> one engine.

    The surrounding loop feeds one greedy batch of messages through
    :meth:`handle`, then calls :meth:`finish_round` to execute everything
    the batch submitted and ship results.  ``send`` is the only
    transport-facing dependency.
    """

    def __init__(
        self, worker_id: int, engine: SofaEngine, send: Callable[[tuple], Any]
    ):
        self.worker_id = worker_id
        self.engine = engine
        self.send = send
        self.running = True
        self._served: list[tuple[int, Any, Any]] = []

    def handle(self, message: tuple) -> None:
        kind = message[0]
        if kind == "req":
            _, req_id, payload = message
            obs = get_telemetry()
            span = None
            if obs.enabled:
                # Parent this worker's span under the frontend's propagated
                # (trace_id, span_id) context when the frame carries one.
                ctx = request_trace_context(payload)
                span = obs.start_span(
                    "worker.request",
                    trace_id=ctx[0] if ctx else None,
                    parent_id=ctx[1] if ctx else None,
                    attrs={"worker": self.worker_id, "req_id": req_id},
                )
            try:
                # decode_request raises CodecError on truncated/skewed
                # payloads - reported per request, never loop-fatal.
                future = self.engine.submit(decode_request(payload))
            except Exception as error:  # noqa: BLE001 - reported per request
                obs.end_span(span, error=repr(error))
                self.send(
                    ("error", self.worker_id, req_id, _pickle_exception(error))
                )
                return
            self._served.append((req_id, future, span))
        elif kind == "invalidate":
            _, ctl_id, key_bytes = message
            dropped = self.engine.invalidate_cache(pickle.loads(key_bytes))
            self.send(("invalidated", self.worker_id, ctl_id, dropped))
        elif kind == "ping":
            # Answered at message-scan time, before this round's compute -
            # a ping behind queued requests does not wait out the batch.
            self.send(("pong", self.worker_id, message[1]))
        elif kind == "stop":
            self.running = False
        elif kind == "exit":
            import os

            os._exit(message[1])
        elif kind == "sleep":
            import time

            time.sleep(message[1])
        else:  # pragma: no cover - protocol bug guard
            raise RuntimeError(f"worker {self.worker_id}: unknown message {kind!r}")

    def finish_round(self) -> None:
        """Execute everything this round submitted; ship results/errors."""
        served, self._served = self._served, []
        if not served:
            return
        try:
            self.engine.run_until_drained()
        except Exception:  # noqa: BLE001 - per-future errors carry it
            # run_until_drained re-raises the first batch error after the
            # drain; each failed future already holds its own.
            pass
        obs = get_telemetry()
        for req_id, future, span in served:
            try:
                result = future.result()
            except Exception as error:  # noqa: BLE001 - reported per request
                obs.end_span(span, error=repr(error))
                self.send(
                    ("error", self.worker_id, req_id, _pickle_exception(error))
                )
            else:
                # End before the snapshot below so this request's own span
                # rides home in the very result frame that resolves it.
                obs.end_span(span)
                self.send(
                    (
                        "result",
                        self.worker_id,
                        req_id,
                        encode_result(result),
                        stats_snapshot(self.engine),
                    )
                )


#: seconds an idle worker waits for traffic before sweeping its cache's
#: idle TTL (satisfying the TTL on wall-clock time, not on the next
#: request - lazy-only expiry would pin abandoned context payloads on a
#: quiet worker indefinitely).
IDLE_SWEEP_INTERVAL_S = 0.5


def _build_engine(engine_kwargs: dict[str, Any], worker_id: int | None = None) -> SofaEngine:
    """Engine from the plain-built-ins parameterization the frontend ships.

    A frontend-supplied ``cache_spill_dir`` is namespaced per worker id:
    co-hosted workers each get their own spill/persistence subdirectory
    instead of clobbering one another's manifests.
    """
    # Fresh telemetry first: a forked local worker inherits the frontend's
    # singleton - its spans and counters included - and must not re-ship
    # the frontend's own telemetry back to it.  (Socket sessions get a
    # clean registry per engine/session for the same reason.)  It is on
    # when the frontend's shipped switch or this process's environment
    # says so.  The engine constructed below registers its gauges into
    # this fresh singleton.
    kwargs = dict(engine_kwargs)
    reset_telemetry(enabled=kwargs.pop("telemetry", False) or telemetry_env_enabled())
    kwargs["config"] = decode_config(kwargs.get("config"))
    if worker_id is not None and kwargs.get("cache_spill_dir"):
        import os

        kwargs["cache_spill_dir"] = os.path.join(
            kwargs["cache_spill_dir"], f"worker-{worker_id}"
        )
    return SofaEngine(**kwargs)


# ------------------------------------------------------------------ serving
def _recv_greedy(conn, decoder, on_idle: Callable[[], Any] | None = None
                 ) -> list[tuple] | None:
    """Block for at least one message, then drain whatever is buffered.

    Returns ``None`` on EOF (frontend gone).  Framing errors propagate -
    the session is unrecoverable once stream sync is lost, and the caller
    drops the connection (the frontend sees a dead link and re-routes).
    ``on_idle`` is invoked whenever no traffic arrives for
    :data:`IDLE_SWEEP_INTERVAL_S` - the worker's idle-loop hook (TTL
    sweeping on a quiet connection).
    """
    import select as _select

    messages: list[tuple] = []
    while not messages:
        if on_idle is not None:
            ready, _, _ = _select.select([conn], [], [], IDLE_SWEEP_INTERVAL_S)
            if not ready:
                on_idle()
                continue
        data = conn.recv(1 << 16)
        if not data:
            decoder.close()  # raises TruncatedFrameError on a partial frame
            return None
        messages.extend(decoder.feed(data))
    # Greedy tail: pull everything already queued on the socket so
    # co-arriving requests join one scheduling round (continuous batching
    # across the network hop too).
    while True:
        ready, _, _ = _select.select([conn], [], [], 0)
        if not ready:
            return messages
        data = conn.recv(1 << 16)
        if not data:
            return messages  # EOF after real messages: serve them first
        messages.extend(decoder.feed(data))


def _serve_connection(conn: socket.socket) -> bool:
    """One frontend session over ``conn``; True = loop back to accept (a
    standalone worker does; a local worker exits either way).

    The first frame must be ``("init", worker_id, engine_kwargs)``; the
    engine lives exactly as long as the session (a reconnecting frontend
    re-inits, so worker-side state never outlives the frontend that
    routed for it).
    """
    from repro.engine.codec import FrameDecoder, FrameError, encode_frame

    decoder = FrameDecoder()

    def send(message: tuple) -> None:
        frame = encode_frame(message)
        obs = get_telemetry()
        if obs.enabled:
            obs.inc("sofa_transport_frames_sent_total")
            obs.inc("sofa_transport_bytes_sent_total", float(len(frame)))
        conn.sendall(frame)

    try:
        first = _recv_greedy(conn, decoder)
        if not first:
            return True
        init, rest = first[0], first[1:]
        if init[0] != "init":
            return True  # not a SOFA frontend; drop the session
        _, worker_id, engine_kwargs = init
        engine = _build_engine(engine_kwargs, worker_id)
        try:
            server = EngineMessageServer(worker_id, engine, send)
            send(("ready", worker_id))
            messages: list[tuple] | None = list(rest)
            while server.running:
                if messages:
                    for message in messages:
                        server.handle(message)
                        if not server.running:
                            break
                    server.finish_round()
                if not server.running:
                    break
                messages = _recv_greedy(conn, decoder, on_idle=engine.sweep_cache)
                if messages is None:
                    return True  # frontend vanished: await a reconnect
            send(("stopped", worker_id))
            return False
        finally:
            engine.shutdown()
    except (FrameError, OSError):
        # Corrupt stream or dropped pipe: abandon this session; the
        # frontend side observes a dead link and re-routes/reconnects.
        return True
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


def serve_socketpair(conn: socket.socket) -> None:
    """The local worker body (top-level so every start method can start
    it): one frontend session on this end of a socketpair.

    Its first act drops every other socket a fork inherited: a worker
    respawned or added while a gateway serves must not hold the gateway's
    connections open, nor the frontend's end of any worker's socketpair.
    """
    detach_inherited_sockets(keep=conn.fileno())
    _serve_connection(conn)


def accept_frontend(listener: socket.socket) -> socket.socket:
    """Accept one frontend connection, with Nagle's algorithm off."""
    conn, _peer = listener.accept()
    set_nodelay(conn)
    return conn


def main(argv: list[str] | None = None) -> None:
    """Standalone socket worker: ``python -m repro.cluster.worker --listen
    HOST:PORT`` (port 0 picks a free one; the bound address is announced
    on stdout for spawners)."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to bind (port 0 = pick a free port)",
    )
    args = parser.parse_args(argv)
    host, port = parse_address(args.listen)
    listener = socket.create_server((host, port))
    bound_host, bound_port = listener.getsockname()[:2]
    print(f"{ANNOUNCE_PREFIX}{bound_host}:{bound_port}", flush=True)
    while True:
        if not _serve_connection(accept_frontend(listener)):
            break
    listener.close()


if __name__ == "__main__":
    main()
