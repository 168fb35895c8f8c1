"""Transports: how the cluster frontend reaches its workers.

Every worker speaks one channel: length-prefixed, checksummed frames
(:func:`repro.engine.codec.encode_frame`) over a stream socket, served by
:func:`repro.cluster.worker._serve_connection` on the worker side and read
and written by one :class:`WorkerLink` on the frontend side.  The
transports differ only in how the worker process comes to exist:

``local``  (:class:`LocalTransport`)
    A ``multiprocessing`` child on this host (fork where available)
    holding one end of a ``socket.socketpair()``.  A socketpair has no
    listener, so no other local user can reach a worker while its frames
    are still unpickled.
``socket`` (:class:`SocketTransport`)
    Workers are standalone processes behind a TCP listener
    (``python -m repro.cluster.worker --listen HOST:PORT``), on this host
    or any other.  When no address is supplied for a slot the transport
    spawns the worker itself on ``127.0.0.1`` (tests, CI, single-host
    dev); addressed slots attach to externally managed workers
    (multi-host sharding).

The frames are the same either way, so the hop is bit-exact and the
frontend cannot tell the transports apart - which is exactly what the
cross-transport parity sweep asserts.  Both present the same two surfaces:

* :meth:`ClusterTransport.start_worker` - (re)establish one worker and
  return its :class:`WorkerLink` (send messages, probe liveness, kill);
* :meth:`ClusterTransport.recv` - the merged stream of worker->frontend
  messages, whichever link they arrived on.

A link that dies - process exit, socket EOF, or a framing error
(:class:`~repro.engine.codec.FrameError`: truncation, checksum or version
mismatch) - simply stops being alive; the frontend's reaping/supervision
logic (:mod:`repro.cluster.supervisor`) decides whether to re-route,
respawn, or reconnect.  Framing errors are preserved on
:attr:`WorkerLink.error` so the failure surfaces in the requests' futures
instead of hanging them.
"""

from __future__ import annotations

import os
import queue
import select
import socket
import stat
import subprocess
import sys
import threading
import time
from typing import Any

import multiprocessing as mp

from repro.engine.codec import FrameDecoder, FrameError, encode_frame
from repro.obs import get_telemetry


class TransportError(RuntimeError):
    """A transport could not establish or operate a worker link."""


def default_start_method() -> str:
    """``fork`` where the platform has it, else ``spawn``.

    Local workers and the gateway's decode process both start this way:
    fork skips re-importing the package in the child.
    """
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def detach_inherited_sockets(keep: int | None = None) -> None:
    """Forked-child start-up: let go of every socket the parent held.

    A child forked while a gateway serves (a local worker respawned by
    supervision or added by the autoscaler, the gateway's decode process)
    inherits the listener, every open client connection and the
    frontend's ends of the other workers' socketpairs; while it holds
    them, a connection the gateway closes never reaches its client as EOF,
    a stopped gateway's port stays bound and a dead frontend's workers
    never see EOF.  Each inherited socket descriptor except ``keep`` (a
    local worker's own end of its socketpair) is pointed at /dev/null (not
    closed, so a stale socket object can never close a reused descriptor).
    Pipes (the decode executor's call queues) stay.
    """
    try:
        fds = [int(fd) for fd in os.listdir("/proc/self/fd")]
    except OSError:
        return  # no procfs: the child keeps them until it exits
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        if fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(devnull, fd)
        except OSError:
            pass  # the listing's own descriptor, already closed
    os.close(devnull)


#: Worker subprocesses spawned by any SocketTransport in this process -
#: the test suite's leak guard sweeps this after every test.
_SPAWNED_WORKERS: list[subprocess.Popen] = []


def reap_spawned_workers(timeout_s: float = 5.0) -> list[subprocess.Popen]:
    """Kill and return any spawned socket workers still running.

    The returned list is the *leak evidence*: a clean shutdown leaves it
    empty.  Exited processes are pruned from the registry either way.
    """
    leaked = []
    for proc in list(_SPAWNED_WORKERS):
        if proc.poll() is None:
            proc.kill()
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:  # pragma: no cover - kill failed
                pass
            leaked.append(proc)
        _SPAWNED_WORKERS.remove(proc)
    return leaked


class _SpawnedProcess:
    """A spawned socket worker behind :class:`multiprocessing.Process`'s
    ``is_alive``/``kill``/``join`` - the process interface a link uses."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc

    def is_alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        self.proc.kill()

    def join(self, timeout: float | None = None) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass


class WorkerLink:
    """Parent-side handle to one worker incarnation (one frame stream).

    ``process`` is the worker's process where this side owns it (a
    ``multiprocessing.Process`` or a :class:`_SpawnedProcess`), None for
    a remote worker.  A reader thread feeds decoded messages into the
    transport's merged ``deliveries`` queue; a writer thread encodes and
    writes queued messages, so :meth:`send` never waits on a busy worker
    (a large request frame outgrows the socket buffer, and a blocking
    write would stall the caller for a whole engine batch).
    """

    def __init__(
        self,
        slot: int,
        worker_id: int,
        sock: socket.socket,
        deliveries: "queue.Queue[tuple]",
        process=None,
    ):
        self.slot = slot
        self.worker_id = worker_id
        self.process = process
        self._sock = sock
        self._deliveries = deliveries
        self._outgoing: "queue.SimpleQueue[tuple | None]" = queue.SimpleQueue()
        self._alive = True
        self._error: Exception | None = None
        self._reader = threading.Thread(
            target=self._read_loop, name=f"sofa-link-reader-{worker_id}", daemon=True
        )
        self._reader.start()
        threading.Thread(
            target=self._write_loop, name=f"sofa-link-writer-{worker_id}", daemon=True
        ).start()

    @property
    def error(self) -> Exception | None:
        """The framing/IO error that killed the link, when one did."""
        return self._error

    def _read_loop(self) -> None:
        decoder = FrameDecoder()
        while True:
            try:
                data = self._sock.recv(1 << 16)
            except OSError:
                break  # link closed under the reader - a plain death
            if not data:
                try:
                    decoder.close()
                except FrameError as error:
                    self._error = error
                break
            obs = get_telemetry()
            if obs.enabled:
                obs.inc("sofa_transport_bytes_received_total", float(len(data)))
            try:
                messages = decoder.feed(data)
            except FrameError as error:
                self._error = error
                break
            if messages and obs.enabled:
                obs.inc("sofa_transport_frames_received_total", float(len(messages)))
            for message in messages:
                self._deliveries.put(message)
        self._alive = False
        self._outgoing.put(None)  # the writer ends with the link

    def _write_loop(self) -> None:
        while (message := self._outgoing.get()) is not None:
            frame = encode_frame(message)
            obs = get_telemetry()
            t0 = obs.clock()
            try:
                self._sock.sendall(frame)
            except OSError:
                self._alive = False
                return
            if obs.enabled:
                obs.observe_since("sofa_transport_send_seconds", t0)
                obs.inc("sofa_transport_frames_sent_total")
                obs.inc("sofa_transport_bytes_sent_total", float(len(frame)))

    def send(self, message: tuple) -> bool:
        """Queue one protocol message; False (not an exception) if the link
        is already down - the caller's reaping logic owns the recovery."""
        if not self.is_alive():
            return False
        self._outgoing.put(message)
        return True

    def is_alive(self) -> bool:
        if self.process is not None and not self.process.is_alive():
            return False
        return self._alive

    def kill(self) -> None:
        """Hard-stop the session (and the process, where this side owns it).

        A purely remote worker only loses its session: it loops back to
        ``accept``, by design - that is what reconnection attaches to.
        """
        if self.process is not None and self.process.is_alive():
            self.process.kill()
        self.close()

    def join(self, timeout: float | None = None) -> None:
        if self.process is not None:
            self.process.join(timeout=timeout)
        else:
            self._reader.join(timeout=timeout)

    def close(self) -> None:
        """Release parent-side resources of this link."""
        # shutdown() before close(): closing alone leaves the reader thread
        # blocked in recv() holding the socket open, so the peer never sees
        # EOF - and a remote worker never loops back to accept a reconnect.
        self._alive = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # already disconnected
            pass
        self._sock.close()


class ClusterTransport:
    """Factory for worker links plus the merged worker->frontend stream."""

    name: str
    #: True when a respawned slot keeps its worker id (local processes);
    #: False when a reconnected slot registers as a fresh identity
    #: (remote workers - their engine state did not survive anyway).
    reuses_worker_ids: bool

    def __init__(self) -> None:
        self._deliveries: queue.Queue[tuple] = queue.Queue()

    def start_worker(
        self, slot: int, worker_id: int, engine_kwargs: dict[str, Any]
    ) -> WorkerLink:
        raise NotImplementedError

    def _link(
        self, slot: int, worker_id: int, sock: socket.socket, process,
        engine_kwargs: dict[str, Any],
    ) -> WorkerLink:
        """Wrap a connected socket in a link and queue its ``init`` frame.

        A worker that dies before reading it shows up as a dead link,
        which supervision counts as a worker failure.
        """
        link = WorkerLink(slot, worker_id, sock, self._deliveries, process)
        link.send(("init", worker_id, engine_kwargs))
        return link

    def add_slot(self) -> None:
        """Provision one more worker slot (autoscale-up).

        The local transport needs no bookkeeping (any slot index spawns a
        child); the socket transport appends a spawn-on-localhost slot.
        Externally addressed workers cannot be conjured, so socket
        clusters pinned to ``worker_addresses`` grow with spawned
        localhost workers beyond their addressed set.
        """

    def owns_process(self, slot: int) -> bool:
        """True when this side can (re)spawn the slot's worker process."""
        raise NotImplementedError

    def recv(self, timeout: float) -> tuple | None:
        """Next worker->frontend message from any link, or None on timeout."""
        try:
            if timeout <= 0:
                return self._deliveries.get_nowait()
            return self._deliveries.get(timeout=timeout)
        except queue.Empty:
            return None

    def recv_nowait(self) -> tuple | None:
        return self.recv(0.0)

    def close(self) -> None:
        """Release transport resources beyond the links' own."""


# ------------------------------------------------------------------- local
def _crash_before_ready(conn: socket.socket) -> None:
    """Fault-injection worker body: die before reporting ready.

    Stands in for a worker whose host/process fails *during* a respawn -
    the supervisor must observe the death and back off, not hang.
    """
    os._exit(1)


class LocalTransport(ClusterTransport):
    """The in-host topology: ``multiprocessing`` children on socketpairs."""

    name = "local"
    reuses_worker_ids = True

    def __init__(self, start_method: str | None = None):
        super().__init__()
        self._ctx = mp.get_context(start_method or default_start_method())
        #: test hook - the next N spawns produce a worker that dies before
        #: reporting ready (a failure *during* respawn).
        self.spawn_fault_budget = 0

    def start_worker(
        self, slot: int, worker_id: int, engine_kwargs: dict[str, Any]
    ) -> WorkerLink:
        # Imported lazily so ``python -m repro.cluster.worker`` can execute
        # the worker module as __main__ without runpy's re-import warning.
        from repro.cluster.worker import serve_socketpair

        target = serve_socketpair
        if self.spawn_fault_budget > 0:
            self.spawn_fault_budget -= 1
            target = _crash_before_ready
        ours, theirs = socket.socketpair()
        process = self._ctx.Process(
            target=target,
            args=(theirs,),
            name=f"sofa-cluster-worker-{worker_id}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            # The child holds its own copy; ours must go, or the worker's
            # exit would never reach the link's reader as EOF.
            theirs.close()
        return self._link(slot, worker_id, ours, process, engine_kwargs)

    def owns_process(self, slot: int) -> bool:
        return True


# ------------------------------------------------------------------ socket
def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with loud failure modes."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address {address!r} is not host:port")
    try:
        return host, int(port)
    except ValueError as error:
        raise ValueError(f"worker address {address!r} has a non-integer port") from error


#: Announce line a listening worker prints (port resolved after binding, so
#: ``--listen 127.0.0.1:0`` still tells the spawner where to connect).
ANNOUNCE_PREFIX = "SOFA-WORKER-LISTENING "


def set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle's algorithm on a TCP link: protocol messages are
    small and latency-bound, and Nagle plus delayed ACKs stall each one."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class SocketTransport(ClusterTransport):
    """Length-prefixed TCP frames to standalone worker processes.

    Parameters
    ----------
    addresses:
        One entry per worker slot: ``"host:port"`` attaches to an already
        listening worker (started via ``python -m repro.cluster.worker
        --listen host:port``); ``None`` spawns a localhost worker
        subprocess for that slot (and respawns it on supervision).  A
        plain integer worker count may be passed instead of a list.
    connect_timeout_s:
        Bound on one TCP connect plus the spawned worker's announce.
    """

    name = "socket"
    reuses_worker_ids = False

    def __init__(
        self,
        addresses: list[str | None] | int,
        connect_timeout_s: float = 30.0,
    ):
        super().__init__()
        if isinstance(addresses, int):
            addresses = [None] * addresses
        if not addresses:
            raise ValueError("socket transport needs at least one worker slot")
        self._slot_addresses: list[tuple[str, int] | None] = [
            None if addr is None else parse_address(addr) for addr in addresses
        ]
        self._external = [addr is not None for addr in self._slot_addresses]
        self._procs: dict[int, subprocess.Popen] = {}
        self.connect_timeout_s = connect_timeout_s

    @property
    def n_slots(self) -> int:
        return len(self._slot_addresses)

    def add_slot(self) -> None:
        self._slot_addresses.append(None)  # spawned on localhost on start
        self._external.append(False)

    def owns_process(self, slot: int) -> bool:
        return not self._external[slot]

    # ------------------------------------------------------------- spawning
    def _spawn_slot(self, slot: int) -> tuple[str, int]:
        """Launch a localhost worker for ``slot``; returns its address."""
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cluster.worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            # stderr inherits: a dying worker's traceback should reach the
            # operator's terminal/CI log, not vanish into a closed pipe.
        )
        _SPAWNED_WORKERS.append(proc)
        self._procs[slot] = proc
        deadline = time.monotonic() + self.connect_timeout_s
        line = b""
        with proc.stdout:  # only the announce line is ever read
            while time.monotonic() < deadline:
                ready, _, _ = select.select([proc.stdout], [], [], 0.1)
                if ready:
                    line = proc.stdout.readline()
                    break
                if proc.poll() is not None:
                    break
        text = line.decode(errors="replace").strip()
        if not text.startswith(ANNOUNCE_PREFIX):
            proc.kill()
            raise TransportError(
                f"spawned worker for slot {slot} never announced its port "
                f"(got {text!r}, returncode {proc.poll()})"
            )
        return parse_address(text[len(ANNOUNCE_PREFIX):])

    def _slot_target(self, slot: int) -> tuple[str, int]:
        address = self._slot_addresses[slot]
        if self._external[slot]:
            assert address is not None
            return address
        proc = self._procs.get(slot)
        if address is not None and proc is not None and proc.poll() is None:
            return address  # still-running spawned worker: reconnect to it
        address = self._spawn_slot(slot)
        self._slot_addresses[slot] = address
        return address

    # ------------------------------------------------------------- lifecycle
    def start_worker(
        self, slot: int, worker_id: int, engine_kwargs: dict[str, Any]
    ) -> WorkerLink:
        host, port = self._slot_target(slot)
        try:
            sock = socket.create_connection(
                (host, port), timeout=self.connect_timeout_s
            )
        except OSError as error:
            raise TransportError(
                f"could not reach worker slot {slot} at {host}:{port}: {error}"
            ) from error
        sock.settimeout(None)
        set_nodelay(sock)
        proc = self._procs.get(slot)
        process = None if proc is None else _SpawnedProcess(proc)
        return self._link(slot, worker_id, sock, process, engine_kwargs)

    def close(self) -> None:
        for slot, proc in list(self._procs.items()):
            if proc.poll() is None:
                proc.kill()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
            if proc in _SPAWNED_WORKERS:
                _SPAWNED_WORKERS.remove(proc)
            self._procs.pop(slot, None)


#: Transport names accepted by ``EngineCluster(transport=...)``.
TRANSPORTS = ("local", "socket")


def make_transport(
    name: str,
    n_workers: int,
    start_method: str | None = None,
    worker_addresses: list[str | None] | None = None,
) -> ClusterTransport:
    """Build the named transport for an ``n_workers``-slot cluster."""
    if name == "local":
        if worker_addresses is not None:
            raise ValueError("worker_addresses only applies to transport='socket'")
        return LocalTransport(start_method=start_method)
    if name == "socket":
        if start_method is not None:
            raise ValueError("start_method only applies to transport='local'")
        if worker_addresses is None:
            return SocketTransport(n_workers)
        if len(worker_addresses) != n_workers:
            raise ValueError(
                f"worker_addresses has {len(worker_addresses)} entries "
                f"for n_workers={n_workers}"
            )
        return SocketTransport(list(worker_addresses))
    raise ValueError(f"unknown transport {name!r}; expected one of {TRANSPORTS}")
