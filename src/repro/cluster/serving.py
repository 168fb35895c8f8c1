"""EngineCluster: a sharded multi-process serving tier over ``SofaEngine``.

One :class:`~repro.engine.serving.SofaEngine` is continuously batched,
and its one SU-FA stream (:func:`repro.core.sufa.stream_selected`) is
tile-blocked rather than per-key Python-bound - but a single process
still caps at one core's compute and one cache budget.  The cluster
shards the request stream across ``n_workers`` workers - each running
its own engine (own fused operators, own decode-step cache, the same
stream) behind the message loop of :mod:`repro.cluster.worker` - the
software shape of the paper's parallel hardware lanes.

Workers are reached through a pluggable **transport**
(:mod:`repro.cluster.transport`), all speaking length-prefixed
checksummed frames (:mod:`repro.engine.codec`): ``transport="local"``
starts ``multiprocessing`` children on this host, each on one end of a
socketpair; ``transport="socket"`` connects over TCP to standalone worker
processes - spawned on localhost or listening on other hosts
(``worker_addresses=[...]``, multi-host sharding).  The frontend
logic is transport-blind, which is what lets the parity sweep assert
bit-identical serving across transports.

Responsibilities of this frontend:

* **Routing** - every submitted request is encoded once
  (:mod:`repro.engine.codec`) and routed by one rule
  (:func:`repro.cluster.routing.route`): a decode ``cache_key`` sticks to
  the worker holding its cached state, and any other request goes to the
  live worker with the fewest requests in flight.
* **Cross-request dedup** - bit-identical requests (equal codec
  fingerprints; ``tag``/``deadline`` excluded) submitted while the first
  copy is still in flight share one execution: the duplicates' futures
  resolve from the same result payload, each decoding its own tensors.
  The *routing window* of the dedup is exactly that in-flight span - once
  a result is delivered the fingerprint is forgotten.
* **Failure handling** - a worker that dies (crash, kill, fault drill)
  is detected during the pump; results it already shipped still count,
  and every request still in flight on it is **re-routed** to a live
  worker (cache keys use rendezvous hashing, so survivors keep
  their keys).  Requests are only failed when no worker is left - and
  with supervision enabled, not even then (see below).
* **Supervision** (opt-in: ``supervisor=SupervisorConfig(...)`` or
  ``supervisor=True``) - a :class:`~repro.cluster.supervisor.
  WorkerSupervisor` heartbeats every worker over its transport link
  (pings answered between scheduling rounds; any message counts as proof
  of life), declares silent workers dead after a timeout, **auto-respawns**
  dead local workers and **reconnects** remote ones with bounded
  exponential backoff, and replays re-routed in-flight requests.  When no
  live worker remains but recovery is still possible, requests *park*
  instead of failing and replay once a worker comes back.  Reconnected
  remote workers register under a fresh worker id (their engine state
  did not survive); rendezvous hashing keeps every surviving
  worker's keys in place.  ``respawns`` / ``reconnects`` /
  ``heartbeat_timeouts`` surface in :class:`ClusterStats`.
* **Autoscaling** (opt-in: ``autoscaler=AutoscalerConfig(...)`` or
  ``autoscaler=True``; requires nothing else, composes with
  supervision) - a :class:`~repro.cluster.supervisor.PoolAutoscaler`
  watches per-live-worker queue depth (optionally widened by a
  frontend's admission backlog via :meth:`EngineCluster.
  set_queue_depth_hook`) and the recent request p99, and under
  sustained pressure **spawns** extra workers in fresh slots - the
  serving-time analogue of RASS lane balancing - up to
  ``max_workers``; when load stays low it **retires** the
  least-busy worker by draining it (no new traffic, finishes its
  in-flight work, then stops - never a failure).  All hysteresis
  (hold periods, cooldown, min/max bounds) lives in the pure policy;
  ``n_scale_ups`` / ``n_scale_downs`` / ``request_p99_s`` surface in
  :class:`ClusterStats`.
* **Aggregated statistics** - every result piggybacks the worker's
  engine counters; :attr:`EngineCluster.stats` merges them with the
  frontend's own (submitted/deduped/rerouted/failures) into a
  :class:`ClusterStats` snapshot.

The parity contract of the engine extends across the process boundary:
each worker's engine is bit-identical to the sequential operator, the
codec round-trips tensors bit-exactly through every worker hop, and
routing/supervision only choose *where and when* a request runs - so
every result is bit-identical to single-engine serving regardless of
transport, placement, worker count, dedup, or mid-stream failures.

The cluster is a drop-in engine for the call surface
``submit / submit_many / flush / run_until_drained / run /
invalidate_cache / stats / shutdown`` - e.g.
:class:`~repro.model.inference.SparseInferenceRunner` and
:class:`~repro.model.inference.SparseDecodeSession` accept one via their
``engine`` parameter.  Submissions are expected from one caller thread
(mirroring the engine's contract); :class:`~repro.cluster.aio.
AsyncSofaClient` layers ``async``/``await`` on top for asyncio servers -
most prominently :class:`repro.gateway.SofaGateway`, the repo's HTTP
front door, which adds per-tenant admission control and deadline-aware
shedding in front of this frontend and feeds its admission backlog into
the autoscaler.  The full request path is walked in
``docs/architecture.md``.
"""

from __future__ import annotations

import inspect
import pickle
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.core.config import SofaConfig
from repro.core.pipeline import SofaAttentionResult
from repro.engine.cache import CacheStats
from repro.engine.codec import (
    decode_result,
    encode_config,
    encode_request,
    request_fingerprint,
)
from repro.engine.serving import AttentionRequest, SofaEngine, validate_request
from repro.obs import get_telemetry
from repro.cluster.routing import route
from repro.cluster.supervisor import (
    AutoscalerConfig,
    PoolAutoscaler,
    SupervisionStats,
    SupervisorConfig,
    WorkerSupervisor,
)
from repro.cluster.transport import (
    TRANSPORTS,
    ClusterTransport,
    WorkerLink,
    make_transport,
)


class ClusterError(RuntimeError):
    """Cluster-level serving failure."""


class WorkerUnavailableError(ClusterError):
    """No live worker is left to (re-)route a request to."""


class ClusterFuture:
    """Handle to a request submitted to the cluster.

    Mirrors :class:`~repro.engine.serving.AttentionFuture`: ``result()``
    blocks (pumping worker results) until this request resolves, so
    callers may submit everything and read results in any order.
    """

    def __init__(self, cluster: "EngineCluster"):
        self._cluster = cluster
        self._result: SofaAttentionResult | None = None
        self._error: Exception | None = None

    def done(self) -> bool:
        return self._result is not None or self._error is not None

    def set_result(self, result: SofaAttentionResult) -> None:
        self._result = result

    def set_error(self, error: Exception) -> None:
        self._error = error

    def result(self) -> SofaAttentionResult:
        if not self.done():
            self._cluster._drain_until(self.done)
        if self._error is not None:
            raise self._error
        assert self._result is not None, "drain must resolve every in-flight future"
        return self._result


@dataclass
class WorkerStats:
    """Last known engine counters of one worker (piggybacked on results).

    ``snapshot_received`` distinguishes "this worker has genuinely served
    nothing" from "no snapshot has arrived yet": every counter below
    defaults to zero, so without the flag a freshly started (or
    never-routed-to) worker was indistinguishable from an idle one.
    ``telemetry`` carries the worker's own metrics-registry snapshot when
    the telemetry plane is enabled (merge across workers with
    :func:`repro.obs.merge_snapshots`), else ``None``.
    """

    worker_id: int
    alive: bool
    n_requests: int = 0
    n_batches: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    snapshot_received: bool = False
    telemetry: dict[str, Any] | None = None
    #: autoscale-down in progress: the worker finishes its in-flight
    #: requests but takes no new routed traffic, then stops.
    draining: bool = False


@dataclass
class ClusterStats:
    """Point-in-time aggregate of the cluster (see :attr:`EngineCluster.stats`).

    Frontend counters (``n_submitted``/``n_deduped``/``n_rerouted``/
    ``n_worker_failures`` and the supervision tallies ``n_respawns``/
    ``n_reconnects``/``n_heartbeat_timeouts``) are exact; per-worker
    engine counters are the latest piggybacked snapshots, so they are
    exact whenever the cluster is drained (every result has been
    received).  ``workers`` lists every worker identity the cluster ever
    ran, dead incarnations included (a reconnected remote worker appears
    as a fresh id).
    """

    n_workers: int
    transport: str = "local"
    n_submitted: int = 0
    n_deduped: int = 0
    n_rerouted: int = 0
    n_worker_failures: int = 0
    n_completed: int = 0
    n_errors: int = 0
    pending: int = 0
    n_respawns: int = 0
    n_reconnects: int = 0
    n_heartbeat_timeouts: int = 0
    n_scale_ups: int = 0
    n_scale_downs: int = 0
    #: p99 of the frontend's submit-to-resolve latency over a recent
    #: window (``None`` until enough requests resolved) - the signal the
    #: autoscaler reads, surfaced for dashboards and the gateway.
    request_p99_s: float | None = None
    workers: list[WorkerStats] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        """Requests actually executed by worker engines (dedup excluded)."""
        return sum(w.n_requests for w in self.workers)

    @property
    def n_batches(self) -> int:
        return sum(w.n_batches for w in self.workers)

    @property
    def mean_batch_heads(self) -> float:
        return self.n_requests / self.n_batches if self.n_batches else 0.0

    @property
    def cache(self) -> CacheStats:
        """Merged decode-step-cache counters across every worker."""
        merged = CacheStats()
        for worker in self.workers:
            merged = merged.merge(worker.cache)
        return merged

    @property
    def cache_expirations(self) -> int:
        """Cluster-wide decode-cache TTL drops (idle/abandoned sequences).

        Workers sweep their engine cache between scheduling rounds *and*
        from their idle loop, so this advances on wall-clock time even on
        a quiet cluster - the snapshot still rides on result traffic, so
        an idle cluster reports the update with its next completed
        request.
        """
        return self.cache.expirations

    @property
    def live_workers(self) -> int:
        return sum(1 for w in self.workers if w.alive)


@dataclass
class _InFlight:
    """Parent-side record of one dispatched request (until it resolves).

    The encoded payload is retained so the request can be re-routed if its
    worker dies; ``futures`` holds the primary plus any deduped followers.
    ``worker is None`` means *parked*: no live worker existed but
    supervision can still recover one - the request replays on recovery.
    """

    payload: dict[str, Any]
    fingerprint: str
    worker: int | None
    futures: list[ClusterFuture] = field(default_factory=list)
    rerouted: int = 0
    #: monotonic submission stamp; resolve time minus this feeds the
    #: frontend's latency window (the autoscaler's p99 signal).
    submitted_at: float = 0.0
    #: telemetry: the frontend root span (cluster.request, submit to
    #: resolution) and the per-dispatch cluster.rpc span - both ``None``
    #: with the plane disabled.
    span: Any = None
    rpc_span: Any = None


class _WorkerHandle:
    """One worker incarnation: its transport link plus frontend-side state.

    ``slot`` is the stable position (supervision retries per slot);
    ``worker_id`` the routing identity of this incarnation - equal to the
    slot for the initial workers, fresh for reconnected remote ones.
    ``in_flight`` counts the ``_inflight`` records routed to it: each
    dispatch adds one, and the record leaving it (result, error, or
    re-route off a dead worker) takes it back.
    """

    def __init__(self, slot: int, worker_id: int, link: WorkerLink,
                 recovered: str | None = None):
        self.slot = slot
        self.worker_id = worker_id
        self.link = link
        self.alive = True
        self.ready = False
        self.in_flight = 0
        #: autoscale-down: draining takes no new traffic; once its
        #: in-flight requests resolve it is stopped and marked retired.
        self.draining = False
        self.retired = False
        #: None for initial workers; "respawn"/"reconnect" when this
        #: incarnation was brought up by supervision (counted on ready).
        self.recovered = recovered
        self.started_at = time.monotonic()
        self.snapshot: dict[str, Any] | None = None

    def stats(self) -> WorkerStats:
        # "No snapshot yet" must not masquerade as an idle worker's zeros:
        # the flag is the only honest signal before the first result frame.
        received = self.snapshot is not None
        snap = self.snapshot or {}
        cache = snap.get("cache") or {}
        return WorkerStats(
            worker_id=self.worker_id,
            alive=self.alive,
            n_requests=snap.get("n_requests", 0),
            n_batches=snap.get("n_batches", 0),
            cache=CacheStats(**cache),
            snapshot_received=received,
            telemetry=snap.get("telemetry"),
            draining=self.draining,
        )


class EngineCluster:
    """Sharded multi-process serving frontend (see module docstring).

    Parameters
    ----------
    n_workers:
        Engine worker slots (ignored when ``worker_addresses`` pins them).
    config:
        Default :class:`SofaConfig` for every worker engine.
    dedup:
        Share one execution among bit-identical in-flight requests.
    transport:
        ``"local"`` (``multiprocessing`` children, each reached over a
        socketpair), ``"socket"`` (standalone workers reached over TCP),
        or a :class:`~repro.cluster.transport.ClusterTransport` instance.
        Both carry the same length-prefixed frames.
    worker_addresses:
        Socket transport only: one ``"host:port"`` per slot attaches to an
        externally started worker (``python -m repro.cluster.worker
        --listen host:port``); ``None`` entries (or omitting the list)
        spawn localhost workers.  Overrides ``n_workers`` with its length.
    supervisor:
        ``None``/``False`` disables supervision (a dead worker's requests
        re-route once, then fail when no worker is left - the pre-existing
        behaviour).  ``True`` enables it with default
        :class:`~repro.cluster.supervisor.SupervisorConfig`; pass an
        instance to tune heartbeat cadence and respawn backoff.
    autoscaler:
        ``None``/``False`` keeps the pool fixed at ``n_workers``.
        ``True`` enables autoscaling with default
        :class:`~repro.cluster.supervisor.AutoscalerConfig`; pass an
        instance to tune thresholds, hold periods and ``min_workers`` /
        ``max_workers`` bounds (``n_workers`` must not exceed
        ``max_workers``).  Scaled-up workers get fresh identities in new
        slots; scale-downs drain before stopping.  See the module
        docstring's autoscaling bullet and
        :meth:`EngineCluster.set_queue_depth_hook`.
    start_method:
        ``multiprocessing`` start method for the local transport (default:
        ``fork`` where available, else ``spawn``).
    startup_timeout_s:
        How long to wait for all workers to report ready.
    **engine_options:
        Every other keyword is a :class:`SofaEngine` option
        (``max_batch_heads``, ``max_wait_batches``,
        ``cache_bytes``/``cache_entries``/... - see its docstring), forwarded
        unchanged to every worker's engine.  Names are checked against
        :class:`SofaEngine`'s signature here, so a typo raises
        :class:`TypeError` in the caller's process before any worker
        spawns; ``cache`` is rejected (a cache object cannot cross the
        process boundary - each worker builds its own from the
        ``cache_*`` options, and ``cache_spill_dir`` is namespaced per
        worker id so co-hosted workers never share spill files).

    Every worker streams through the one SU-FA stream, so there is no
    kernel choice to forward: ``config`` alone fixes what a worker
    computes, bit for bit the same as an in-process engine.
    """

    def __init__(
        self,
        n_workers: int = 2,
        config: SofaConfig | None = None,
        dedup: bool = True,
        start_method: str | None = None,
        transport: str | ClusterTransport = "local",
        worker_addresses: list[str | None] | None = None,
        supervisor: SupervisorConfig | bool | None = None,
        autoscaler: "AutoscalerConfig | bool | None" = None,
        startup_timeout_s: float = 60.0,
        **engine_options: Any,
    ):
        if worker_addresses is not None:
            if isinstance(transport, ClusterTransport):
                raise ValueError(
                    "worker_addresses cannot combine with a transport "
                    "instance - construct SocketTransport(addresses) instead"
                )
            if transport != "socket":
                raise ValueError(
                    "worker_addresses requires transport='socket'"
                )
            n_workers = len(worker_addresses)
        if isinstance(transport, ClusterTransport):
            slots = getattr(transport, "n_slots", None)
            if slots is not None and slots != n_workers:
                raise ValueError(
                    f"transport instance has {slots} worker slot(s) but "
                    f"n_workers={n_workers}"
                )
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if "cache" in engine_options:
            raise TypeError(
                "EngineCluster cannot forward cache= (a cache object cannot "
                "cross the process boundary); use the cache_* options"
            )
        accepted = set(inspect.signature(SofaEngine).parameters) - {"config", "cache"}
        unknown = sorted(set(engine_options) - accepted)
        if unknown:
            raise TypeError(
                f"unknown SofaEngine option(s) {unknown}; "
                f"accepted: {sorted(accepted)}"
            )
        self.config = config or SofaConfig()
        self.dedup = dedup
        if isinstance(transport, ClusterTransport):
            self._transport = transport
        elif transport in TRANSPORTS:
            self._transport = make_transport(
                transport,
                n_workers,
                start_method=start_method,
                worker_addresses=worker_addresses,
            )
        else:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        if supervisor is True:
            supervisor = SupervisorConfig()
        elif supervisor is False:
            supervisor = None
        self._supervisor: WorkerSupervisor | None = None
        self._supervisor_config = supervisor
        self._sup_stats = SupervisionStats()
        if autoscaler is True:
            autoscaler = AutoscalerConfig()
        elif autoscaler is False:
            autoscaler = None
        if autoscaler is not None and n_workers > autoscaler.max_workers:
            raise ValueError(
                f"n_workers={n_workers} exceeds the autoscaler's "
                f"max_workers={autoscaler.max_workers}"
            )
        # Constructed only after startup (the ready drain below pumps
        # _supervise/_autoscale, which must see a quiet scaler until the
        # initial pool is actually up).
        self._autoscaler: PoolAutoscaler | None = None
        self._autoscaler_config = autoscaler
        #: recent submit-to-resolve latencies; the autoscaler's p99 signal.
        self._latencies: deque[float] = deque(maxlen=512)
        self._queue_depth_hook: "Callable[[], int] | None" = None

        self._lock = threading.RLock()
        self._inflight: dict[int, _InFlight] = {}
        self._dedup_window: dict[str, int] = {}
        self._next_req_id = 0
        self._next_ctl_id = 0
        self._ctl_replies: dict[int, int] = {}
        self._pending_ctl: set[int] = set()
        self._n_submitted = 0
        self._n_deduped = 0
        self._n_rerouted = 0
        self._n_failures = 0
        self._n_completed = 0
        self._n_errors = 0
        self._shut_down = False

        obs = get_telemetry()
        if obs.enabled:
            self._register_metrics(obs)

        self._engine_kwargs = {"config": encode_config(self.config), **engine_options}
        self._slots: list[_WorkerHandle] = []
        self._workers: dict[int, _WorkerHandle] = {}
        self._next_worker_id = n_workers
        try:
            for slot in range(n_workers):
                link = self._start_worker(slot, slot)
                handle = _WorkerHandle(slot, slot, link)
                self._slots.append(handle)
                self._workers[slot] = handle
        except Exception:
            self.shutdown()
            raise

        if supervisor is not None:
            self._supervisor = WorkerSupervisor(
                supervisor, n_workers, time.monotonic()
            )

        try:
            self._drain_until(
                lambda: all(w.ready or not w.alive for w in self._slots),
                timeout=startup_timeout_s,
            )
        except Exception:
            self.shutdown()
            raise
        if self._dead_count():
            self.shutdown()
            raise ClusterError("one or more cluster workers failed to start")
        if autoscaler is not None:
            self._autoscaler = PoolAutoscaler(autoscaler, time.monotonic())

    def _register_metrics(self, obs) -> None:
        """Frontend counters as weakref-backed callback gauges.

        A retired cluster reads 0 instead of being pinned by telemetry;
        gauge callbacks run outside the registry lock (see
        :meth:`repro.obs.MetricsRegistry.snapshot`), so taking this
        cluster's re-entrant lock here cannot deadlock against metric
        updates made while it is held.
        """
        ref = weakref.ref(self)

        def gauge(name: str, read: Callable[["EngineCluster"], float]) -> None:
            def callback() -> float:
                cluster = ref()
                return float(read(cluster)) if cluster is not None else 0.0

            obs.register_gauge(name, callback)

        def locked_pending(cluster: "EngineCluster") -> float:
            with cluster._lock:
                return sum(len(r.futures) for r in cluster._inflight.values())

        gauge("sofa_cluster_submitted_total", lambda c: c._n_submitted)
        gauge("sofa_cluster_deduped_total", lambda c: c._n_deduped)
        gauge("sofa_cluster_rerouted_total", lambda c: c._n_rerouted)
        gauge("sofa_cluster_worker_failures_total", lambda c: c._n_failures)
        gauge("sofa_cluster_completed_total", lambda c: c._n_completed)
        gauge("sofa_cluster_errors_total", lambda c: c._n_errors)
        gauge("sofa_cluster_pending_requests", locked_pending)
        gauge(
            "sofa_cluster_live_workers",
            lambda c: sum(1 for w in c._slots if w.alive and w.ready),
        )

    def _start_worker(self, slot: int, worker_id: int) -> WorkerLink:
        """Start one worker incarnation with this cluster's engine options.

        The frontend's telemetry switch rides along, read at start time:
        a worker enables telemetry when either it or the worker's own
        ``SOFA_TELEMETRY`` environment says so, so a programmatic
        :func:`repro.obs.enable` reaches every worker started after it.
        """
        engine_kwargs = {**self._engine_kwargs, "telemetry": get_telemetry().enabled}
        return self._transport.start_worker(slot, worker_id, engine_kwargs)

    # ---------------------------------------------------------------- topology
    def _dead_count(self) -> int:
        return sum(1 for w in self._slots if not w.alive)

    def _live_ids(self) -> list[int]:
        """Workers that can take routed traffic: link up, engine ready,
        and not draining toward autoscale retirement."""
        return [
            w.worker_id
            for w in self._slots
            if w.alive and w.ready and not w.draining
        ]

    @property
    def n_workers(self) -> int:
        return len(self._slots)

    @property
    def transport(self) -> str:
        return self._transport.name

    @property
    def live_workers(self) -> list[int]:
        with self._lock:
            self._reap_dead_workers()
            return self._live_ids()

    @property
    def pending(self) -> int:
        with self._lock:
            return sum(len(rec.futures) for rec in self._inflight.values())

    # -------------------------------------------------------------- submission
    def submit(self, request: AttentionRequest) -> ClusterFuture:
        """Encode, dedup, route and dispatch one request; returns its future."""
        with self._lock:
            if self._shut_down:
                raise ClusterError("cluster is shut down")
            validate_request(request, self.config)
            obs = get_telemetry()
            span = None
            if obs.enabled:
                # The root span's identity rides in the frame's optional
                # "trace" field so the worker can stitch its spans under
                # this request's timeline (fingerprints exclude it - see
                # encode_request - so tracing never splits dedup).
                span = obs.start_span(
                    "cluster.request", attrs={"tag": request.tag or ""}
                )
                t_enc = obs.clock()
                payload = encode_request(
                    request, trace=(span.trace_id, span.span_id)
                )
                obs.observe_since("sofa_codec_encode_seconds", t_enc)
            else:
                payload = encode_request(request)
            # The fingerprint hashes every tensor byte - only worth it when
            # dedup can use it (sha256 digests are never empty, so "" can
            # not collide with a real fingerprint).
            fingerprint = request_fingerprint(payload) if self.dedup else ""
            future = ClusterFuture(self)
            self._n_submitted += 1

            if self.dedup and fingerprint in self._dedup_window:
                primary = self._dedup_window[fingerprint]
                self._inflight[primary].futures.append(future)
                self._n_deduped += 1
                # This submission shares the primary's execution; its own
                # span ends here as the dedup-hit marker.
                obs.end_span(span, deduped=True)
                return future

            self._reap_dead_workers()
            self._supervise()
            self._autoscale()
            live = self._live_ids()
            if not live and not self._can_park():
                raise WorkerUnavailableError("no live worker to route to")
            req_id = self._next_req_id
            self._next_req_id += 1
            record = _InFlight(
                payload=payload,
                fingerprint=fingerprint,
                worker=None,
                submitted_at=time.monotonic(),
            )
            record.futures.append(future)
            record.span = span
            self._inflight[req_id] = record
            if self.dedup:
                self._dedup_window[fingerprint] = req_id
            if live:
                self._dispatch(req_id, record, live)
            # else: parked - replayed when supervision recovers a worker
            return future

    def submit_many(self, requests: list[AttentionRequest]) -> list[ClusterFuture]:
        return [self.submit(r) for r in requests]

    def _dispatch(self, req_id: int, record: _InFlight, live: list[int]) -> None:
        """Route ``record`` over the ``live`` ids and send it there."""
        in_flight = {worker: self._workers[worker].in_flight for worker in live}
        record.worker = route(record.payload["cache_key"], live, in_flight)
        handle = self._workers[record.worker]
        handle.in_flight += 1
        record.rpc_span = self._start_rpc_span(record)
        handle.link.send(("req", req_id, record.payload))

    def _release(self, record: _InFlight) -> None:
        """``record`` leaves its worker (resolved, failed or orphaned)."""
        if record.worker is not None:
            self._workers[record.worker].in_flight -= 1

    def _can_park(self) -> bool:
        """May a request wait for supervision instead of failing?"""
        return (
            self._supervisor is not None
            and self._supervisor.can_recover()
        )

    def _start_rpc_span(self, record: _InFlight) -> Any:
        """Open one cluster.rpc span for the record's current dispatch."""
        if record.span is None:
            return None
        return get_telemetry().start_span(
            "cluster.rpc",
            trace_id=record.span.trace_id,
            parent_id=record.span.span_id,
            attrs={"worker": record.worker, "rerouted": record.rerouted},
        )

    def _finish_record_spans(self, record: _InFlight, error: str | None = None) -> None:
        """Close a resolved (or failed) record's rpc and root spans."""
        obs = get_telemetry()
        extra = {} if error is None else {"error": error}
        obs.end_span(record.rpc_span, **extra)
        obs.end_span(record.span, **extra)
        record.rpc_span = None
        record.span = None

    # ------------------------------------------------------------------ pumping
    def poll(self, timeout: float = 0.0) -> int:
        """Process any available worker messages; returns how many.

        Non-blocking with ``timeout=0`` - the asyncio client calls this
        between ``await`` points so the event loop never blocks on IPC.
        Supervision (heartbeats, respawn/reconnect attempts) also advances
        here, so any pumping caller keeps the cluster healthy.
        """
        with self._lock:
            n = self._drain_available()
            if n == 0 and timeout > 0:
                n += self._drain_some(timeout)
            self._reap_dead_workers()
            self._supervise()
            self._autoscale()
            return n

    def _drain_available(self) -> int:
        n = 0
        while True:
            message = self._transport.recv_nowait()
            if message is None:
                return n
            self._handle_message(message)
            n += 1

    def _drain_some(self, timeout: float) -> int:
        message = self._transport.recv(timeout)
        if message is None:
            return 0
        self._handle_message(message)
        return 1 + self._drain_available()

    def _drain_until(
        self, predicate: Callable[[], bool], timeout: float | None = None
    ) -> Exception | None:
        """Pump messages until ``predicate`` holds; returns the first
        request error seen (the caller decides whether to re-raise it)."""
        first_error: Exception | None = None
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not predicate():
                message = self._transport.recv(0.05)
                if message is None:
                    reap_error = self._reap_dead_workers()
                    if reap_error is not None and first_error is None:
                        first_error = reap_error
                    self._supervise()
                    self._autoscale()
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeoutError(
                            "cluster drain timed out with "
                            f"{len(self._inflight)} request(s) in flight"
                        )
                    continue
                error = self._handle_message(message)
                if error is not None and first_error is None:
                    first_error = error
        return first_error

    def _handle_message(self, message: tuple) -> Exception | None:
        kind = message[0]
        worker_id = message[1]
        handle = self._workers.get(worker_id)
        if (
            self._supervisor is not None
            and handle is not None
            and self._slots[handle.slot] is handle
        ):
            # Any traffic from the current incarnation is proof of life.
            self._supervisor.note_seen(handle.slot, time.monotonic())
        if kind == "ready":
            if handle is not None:
                handle.ready = True
                if handle.recovered == "respawn":
                    self._sup_stats.respawns += 1
                elif handle.recovered == "reconnect":
                    self._sup_stats.reconnects += 1
                handle.recovered = None
                if self._supervisor is not None:
                    self._supervisor.note_ready(handle.slot, time.monotonic())
                self._dispatch_parked()
            return None
        if kind == "pong":
            return None  # note_seen above is the whole point
        if kind == "result":
            _, _, req_id, result_payload, snapshot = message
            obs = get_telemetry()
            # The worker's finished spans ride home piggybacked on the
            # snapshot; pop them regardless of the local enabled flag so
            # they never linger in the stored stats dict.
            spans = snapshot.pop("spans", None) if isinstance(snapshot, dict) else None
            if spans and obs.enabled:
                obs.tracer.ingest(spans)
            if handle is not None:
                handle.snapshot = snapshot
            record = self._inflight.pop(req_id, None)
            if record is None:  # resolved by a re-route race; stats still count
                return None
            if record.submitted_at:
                self._latencies.append(time.monotonic() - record.submitted_at)
            obs.end_span(record.rpc_span)
            record.rpc_span = None
            self._dedup_window.pop(record.fingerprint, None)
            self._release(record)
            first_decode_error: Exception | None = None
            for future in record.futures:
                # Each future decodes its own tensors so callers never
                # share (and can never cross-mutate) result arrays.
                try:
                    t_dec = obs.clock()
                    result = decode_result(result_payload)
                    obs.observe_since("sofa_codec_decode_seconds", t_dec)
                    future.set_result(result)
                except Exception as error:  # noqa: BLE001 - codec failure
                    # A result payload this frontend cannot decode (codec
                    # skew, corruption) fails the future instead of
                    # crashing the pump or hanging the request.
                    future.set_error(error)
                    self._n_errors += 1
                    if first_decode_error is None:
                        first_decode_error = error
                else:
                    self._n_completed += 1
            self._finish_record_spans(
                record,
                error=None if first_decode_error is None else repr(first_decode_error),
            )
            return first_decode_error
        if kind == "error":
            _, _, req_id, error_bytes = message
            record = self._inflight.pop(req_id, None)
            if record is None:
                return None
            self._dedup_window.pop(record.fingerprint, None)
            self._release(record)
            error = pickle.loads(error_bytes)
            self._finish_record_spans(record, error=repr(error))
            for future in record.futures:
                future.set_error(error)
                self._n_errors += 1
            return error
        if kind == "invalidated":
            _, _, ctl_id, dropped = message
            if ctl_id in self._pending_ctl:  # late replies of a finished
                self._ctl_replies[ctl_id] = dropped  # round are dropped,
            return None  # never accumulated
        if kind == "stopped":
            if handle is not None:
                handle.alive = False
                handle.ready = False
            return None
        raise ClusterError(f"unknown worker message {kind!r}")

    # ----------------------------------------------------------------- failure
    def _reap_dead_workers(self) -> Exception | None:
        """Detect dead workers and re-route (or park) their requests."""
        first_error: Exception | None = None
        for handle in list(self._slots):
            if not handle.alive or handle.link.is_alive():
                continue
            error = self._on_worker_down(handle)
            if error is not None and first_error is None:
                first_error = error
        return first_error

    def _on_worker_down(self, handle: _WorkerHandle) -> Exception | None:
        """One worker is gone: account it and recover its in-flight work.

        Results a dying worker managed to ship are drained *first*, so
        only genuinely unresolved requests move.  They re-route over the
        survivors (keyed ones by rendezvous hashing); with
        supervision able to recover, stranded requests park instead of
        failing; otherwise a request fails only when no live worker
        remains - the first such failure is returned so a surrounding
        drain can re-raise it.
        """
        handle.alive = False
        handle.ready = False
        if self._shut_down:
            return None  # a stopping worker's exit is not a failure
        if handle.draining or handle.retired:
            # A retiring worker going away is lifecycle, not failure: the
            # supervisor must not respawn its slot.  Stragglers it still
            # held (it crashed mid-drain) are recovered below as usual.
            if self._supervisor is not None:
                self._supervisor.note_retired(handle.slot)
        else:
            self._n_failures += 1
            if self._supervisor is not None:
                self._supervisor.note_down(handle.slot, time.monotonic())
        orphans = [
            (req_id, rec)
            for req_id, rec in self._inflight.items()
            if rec.worker == handle.worker_id
        ]
        if not orphans:
            return None
        self._drain_available()  # late results beat re-execution
        live = self._live_ids()
        first_error: Exception | None = None
        for req_id, record in orphans:
            if req_id not in self._inflight:
                continue  # its result arrived in the drain above
            self._release(record)
            if record.rpc_span is not None:
                get_telemetry().end_span(record.rpc_span, error="worker_died")
                record.rpc_span = None
            if live:
                record.rerouted += 1
                self._n_rerouted += 1
                self._dispatch(req_id, record, live)
            elif self._can_park():
                record.worker = None  # parked: replayed on recovery
            else:
                self._inflight.pop(req_id)
                self._dedup_window.pop(record.fingerprint, None)
                error = WorkerUnavailableError(
                    f"worker {handle.worker_id} died and no live worker "
                    "is left to re-route to"
                )
                if handle.link.error is not None:
                    error.__cause__ = handle.link.error
                if first_error is None:
                    first_error = error
                self._finish_record_spans(record, error=repr(error))
                for future in record.futures:
                    future.set_error(error)
                    self._n_errors += 1
        return first_error

    def _dispatch_parked(self) -> None:
        """Replay parked requests onto the (newly) live worker set."""
        live = self._live_ids()
        if not live:
            return
        for req_id, record in self._inflight.items():
            if record.worker is not None:
                continue
            record.rerouted += 1
            self._n_rerouted += 1
            self._dispatch(req_id, record, live)

    def _fail_parked(self) -> None:
        """Supervision gave up with no worker left: fail parked requests."""
        parked = [
            (req_id, rec)
            for req_id, rec in self._inflight.items()
            if rec.worker is None
        ]
        for req_id, record in parked:
            self._inflight.pop(req_id)
            self._dedup_window.pop(record.fingerprint, None)
            error = WorkerUnavailableError(
                "supervision exhausted its recovery attempts with no live "
                "worker left"
            )
            self._finish_record_spans(record, error=repr(error))
            for future in record.futures:
                future.set_error(error)
                self._n_errors += 1

    # ------------------------------------------------------------- supervision
    def _supervise(self) -> None:
        """One supervision pass: heartbeats, timeouts, due recoveries.

        Runs inside every pump (poll / drains / submit), so supervision
        advances exactly when the caller is interacting with the cluster -
        no background thread, no cross-thread locking subtleties.
        """
        sup = self._supervisor
        if sup is None or self._shut_down:
            return
        now = time.monotonic()
        for handle in list(self._slots):
            if not handle.alive:
                continue
            if (
                not handle.ready
                and handle.recovered is not None
                and now - handle.started_at > sup.config.ready_timeout_s
            ):
                # A recovery incarnation holding its link open without ever
                # reporting ready (wedged engine build, hung remote worker)
                # would otherwise block its slot's retries forever: fail the
                # attempt so the bounded backoff keeps making progress.
                handle.link.kill()
                self._on_worker_down(handle)
                continue
            if handle.ready and sup.ping_due(handle.slot, now):
                # Liveness is proved by ANY message from the worker (the
                # pong included), so the probe needs no correlation token.
                sup.note_ping(handle.slot, now)
                handle.link.send(("ping", 0))
            if sup.timed_out(handle.slot, now):
                # Scoop anything the silent worker already shipped - a
                # result racing the timeout must count, and also proves
                # the worker alive (cancelling the verdict).
                self._drain_available()
                if handle.alive and sup.timed_out(handle.slot, now):
                    self._sup_stats.heartbeat_timeouts += 1
                    handle.link.kill()
                    self._on_worker_down(handle)
        for slot, handle in enumerate(list(self._slots)):
            if not handle.alive and sup.retry_due(slot, now):
                self._attempt_recovery(slot, now)
        if not self._live_ids() and not sup.can_recover() and not any(
            h.alive for h in self._slots
        ):
            self._fail_parked()

    def _attempt_recovery(self, slot: int, now: float) -> None:
        """Respawn (local) or reconnect (remote) one dead worker slot."""
        sup = self._supervisor
        assert sup is not None
        kind = "respawn" if self._transport.owns_process(slot) else "reconnect"
        worker_id = (
            self._slots[slot].worker_id
            if self._transport.reuses_worker_ids
            else self._alloc_worker_id()
        )
        sup.note_recovery_started(slot, now)
        try:
            link = self._start_worker(slot, worker_id)
        except Exception:  # noqa: BLE001 - any start failure just backs off
            sup.note_start_failed(slot, now)
            return
        self._slots[slot].link.close()  # old incarnation's parent-side end
        handle = _WorkerHandle(slot, worker_id, link, recovered=kind)
        self._slots[slot] = handle
        self._workers[worker_id] = handle
        # Not ready yet: it joins the live set when its "ready" arrives
        # (or is reaped as a died-during-respawn if the link drops first).

    def _alloc_worker_id(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        return worker_id

    # ------------------------------------------------------------- autoscaling
    def _autoscale(self) -> None:
        """One autoscaler tick: finish pending drains, act on the verdict.

        Runs right after every supervision pass (submit / poll / drains),
        so the pool reacts exactly as fast as callers pump the cluster -
        the same no-background-thread design as supervision itself.
        """
        scaler = self._autoscaler
        if scaler is None or self._shut_down:
            return
        self._finish_drains()
        now = time.monotonic()
        live = self._live_ids()
        backlog = len(self._inflight)
        hook = self._queue_depth_hook
        if hook is not None:
            try:
                backlog += int(hook())
            except Exception:
                pass  # a dead frontend must not take supervision down
        decision = scaler.decide(now, len(live), backlog, self._request_p99())
        if decision > 0:
            self._scale_up(now)
        elif decision < 0:
            self._scale_down(live)

    def set_queue_depth_hook(self, hook: "Callable[[], int] | None") -> None:
        """Fold a frontend's queue depth into the autoscaling signal.

        A frontend that bounds its own concurrency (the gateway's
        ``max_inflight``) hides demand from the cluster: in-flight count
        saturates at the cap no matter how deep the admission queue
        grows.  ``hook`` (a zero-argument callable returning the number
        of admitted-but-undispatched requests) restores visibility - the
        autoscaler's queue-depth signal becomes in-flight plus frontend
        backlog, so the pool grows on real demand, not just on what the
        frontend happened to dispatch.  Pass ``None`` to detach.
        """
        self._queue_depth_hook = hook

    def _request_p99(self) -> float | None:
        """p99 of the recent submit-to-resolve window, or ``None`` while
        the window is too small for a tail to mean anything."""
        n = len(self._latencies)
        if n < 8:
            return None
        ordered = sorted(self._latencies)
        return ordered[min(n - 1, int(0.99 * n))]

    def _scale_up(self, now: float) -> None:
        """Provision a new slot and spawn a fresh-identity worker in it."""
        assert self._autoscaler is not None
        provisioned = sum(1 for w in self._slots if w.alive and not w.draining)
        if provisioned >= self._autoscaler.config.max_workers:
            return  # an earlier spawn is still warming up toward ready
        slot = len(self._slots)
        n_slots = getattr(self._transport, "n_slots", None)
        if n_slots is None or slot >= n_slots:
            self._transport.add_slot()
        # Scaled-up workers always get a fresh id: slot-indexed ids are
        # only safe for the initial pool (reconnects may already have
        # allocated past it).
        worker_id = self._alloc_worker_id()
        try:
            link = self._start_worker(slot, worker_id)
        except Exception:  # noqa: BLE001 - a later tick simply retries
            return
        handle = _WorkerHandle(slot, worker_id, link)
        self._slots.append(handle)
        self._workers[worker_id] = handle
        if self._supervisor is not None:
            self._supervisor.add_slot(now)
        self._sup_stats.scale_ups += 1
        # Joins the routable set when its "ready" arrives; until then the
        # provisioned-count guard above stops repeat spawns.

    def _scale_down(self, live: list[int]) -> None:
        """Drain the live worker with the fewest requests in flight."""
        if not live:
            return
        # Fewest in-flight first; ties prefer the youngest identity (the
        # most recently scaled-up worker is the natural one to retire).
        victim = min(live, key=lambda wid: (self._workers[wid].in_flight, -wid))
        handle = self._workers[victim]
        handle.draining = True
        self._sup_stats.scale_downs += 1
        self._maybe_stop_drained(handle)

    def _finish_drains(self) -> None:
        """Stop any draining worker whose in-flight work has resolved."""
        for handle in self._slots:
            if handle.draining and handle.alive and not handle.retired:
                self._maybe_stop_drained(handle)

    def _maybe_stop_drained(self, handle: _WorkerHandle) -> None:
        """If nothing is in flight on ``handle``, stop and retire it."""
        if handle.in_flight:
            return  # still draining; checked again on the next tick
        handle.retired = True
        handle.link.send(("stop",))
        if self._supervisor is not None:
            self._supervisor.note_retired(handle.slot)

    # ------------------------------------------------------------------ drains
    def flush(self) -> None:
        """Block until every in-flight request resolved; re-raise the first
        error seen during this drain (each failed future also carries its
        own), matching :meth:`SofaEngine.flush` semantics."""
        first_error = self._drain_until(lambda: not self._inflight)
        if first_error is not None:
            raise first_error

    def run_until_drained(self) -> None:
        self.flush()

    def run(self, requests: list[AttentionRequest]) -> list[SofaAttentionResult]:
        """Submit, drain, and return results in request order."""
        futures = self.submit_many(requests)
        self.flush()
        return [f.result() for f in futures]

    # ------------------------------------------------------------------- cache
    def invalidate_cache(self, key: Hashable) -> int:
        """Drop a sequence's decode-cache state on every worker.

        Broadcasts the invalidation (workers apply it after their queued
        work) and returns the total number of entries dropped cluster-wide.
        A worker that dies before replying contributes zero.
        """
        with self._lock:
            if self._shut_down:
                return 0
            self._reap_dead_workers()
            key_bytes = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
            ctl_targets: dict[int, int] = {}
            for worker_id in self._live_ids():
                ctl_id = self._next_ctl_id
                self._next_ctl_id += 1
                ctl_targets[ctl_id] = worker_id
                self._pending_ctl.add(ctl_id)
                self._workers[worker_id].link.send(("invalidate", ctl_id, key_bytes))

            def all_replied() -> bool:
                # A worker that died before replying contributes nothing;
                # reaping (inside the drain) flips its alive bit.
                return all(
                    c in self._ctl_replies or not self._workers[w].alive
                    for c, w in ctl_targets.items()
                )

            self._drain_until(all_replied)
            # Scoop replies a dying worker shipped just before its death was
            # detected (the reply can trail the liveness flip through the
            # outbox); anything later than this is dropped via _pending_ctl.
            self._drain_available()
            self._pending_ctl.difference_update(ctl_targets)
            return sum(self._ctl_replies.pop(c, 0) for c in ctl_targets)

    # ------------------------------------------------------------------- stats
    @property
    def stats(self) -> ClusterStats:
        """A point-in-time :class:`ClusterStats` snapshot (exact once drained)."""
        with self._lock:
            return ClusterStats(
                n_workers=self.n_workers,
                transport=self._transport.name,
                n_submitted=self._n_submitted,
                n_deduped=self._n_deduped,
                n_rerouted=self._n_rerouted,
                n_worker_failures=self._n_failures,
                n_completed=self._n_completed,
                n_errors=self._n_errors,
                pending=sum(len(r.futures) for r in self._inflight.values()),
                n_respawns=self._sup_stats.respawns,
                n_reconnects=self._sup_stats.reconnects,
                n_heartbeat_timeouts=self._sup_stats.heartbeat_timeouts,
                n_scale_ups=self._sup_stats.scale_ups,
                n_scale_downs=self._sup_stats.scale_downs,
                request_p99_s=self._request_p99(),
                workers=[
                    handle.stats()
                    for _, handle in sorted(self._workers.items())
                ],
            )

    # ---------------------------------------------------------------- lifetime
    def stall_worker(self, worker_id: int, seconds: float) -> None:
        """Fault-injection hook: make one worker sleep before its next read.

        Lets tests/drills queue submissions behind a crash point
        deterministically (stall, submit, crash - the stalled worker never
        serves what arrived during the stall).
        """
        handle = self._workers[worker_id]
        if handle.alive:
            handle.link.send(("sleep", seconds))

    def crash_worker(self, worker_id: int, hard: bool = True, wait: bool = True) -> None:
        """Fault-injection hook (tests, failure drills): kill one worker.

        ``hard=True`` kills the worker's process where this side owns it
        (local children, spawned socket workers); for a purely remote
        worker it severs the link instead (the standalone process loops
        back to ``accept``, which is what reconnection drills want).
        ``hard=False`` asks the worker to ``os._exit`` at its next message
        read (a clean crash point, so no frame is cut mid-write).  Either
        way the cluster treats it as a real failure: in-flight requests
        are re-routed on detection.  ``wait=False``
        returns without joining (the crash lands whenever the worker
        reaches it).
        """
        handle = self._workers[worker_id]
        if not handle.alive:
            return
        if hard:
            handle.link.kill()
        else:
            handle.link.send(("exit", 1))
        if wait:
            handle.link.join(timeout=30.0)

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop every worker and release transport resources.

        In-flight requests that never resolved fail with
        :class:`ClusterError` (their futures stop blocking).  Safe to call
        twice.
        """
        with self._lock:
            if self._shut_down:
                return
            self._shut_down = True
            for handle in self._slots:
                if handle.alive and handle.link.is_alive():
                    if not handle.link.send(("stop",)):
                        # Undeliverable stop (link already down): don't
                        # spin the drain timeout waiting for its "stopped".
                        handle.alive = False
            try:
                self._drain_until(
                    lambda: all(
                        not w.alive or not w.link.is_alive()
                        for w in self._slots
                    ),
                    timeout=timeout_s,
                )
            except TimeoutError:
                pass
            error = ClusterError("cluster shut down with requests in flight")
            for record in self._inflight.values():
                self._finish_record_spans(record, error=repr(error))
                for future in record.futures:
                    if not future.done():
                        future.set_error(error)
            self._inflight.clear()
            self._dedup_window.clear()
            for handle in self._workers.values():
                handle.link.join(timeout=timeout_s)
                if handle.link.is_alive():
                    handle.link.kill()
                    handle.link.join(timeout=timeout_s)
                handle.alive = False
                handle.ready = False
                handle.link.close()
            self._transport.close()

    def __enter__(self) -> "EngineCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
