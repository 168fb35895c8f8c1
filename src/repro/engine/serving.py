"""SofaEngine: a continuously-batching serving frontend over the fused pipeline.

The paper accelerates one attention head at a time; a serving deployment
sees a *stream* of independent attention requests (one per head per layer
per active sequence) arriving over time.  This module provides the software
analogue of the accelerator's head-level scheduler:

* **Request queue with continuous admission** - callers
  :meth:`~SofaEngine.submit` independent :class:`AttentionRequest` objects
  and receive an :class:`AttentionFuture` immediately.  Admission is
  *continuous*: a new request joins the not-yet-executed group one fused
  call can serve (the batch key is ``(T, H, Dk, Dv, config)``; ``S`` is
  not in it, because each head keeps its own ``(S, tile_cols)``
  cross-stage grid inside the call, so decode sessions of different
  lengths batch together), and groups keep filling between scheduling
  rounds instead of only seeing what was queued before one flush.
* **Starvation-free scheduling** - :meth:`~SofaEngine.step` runs one
  scheduling round: groups execute when full (``max_batch_heads``), when
  they have waited ``max_wait_batches`` rounds, or when any member's
  ``deadline`` has passed - so a request on a rare shape never waits
  forever for batch-mates.  :meth:`~SofaEngine.flush` force-drains
  everything, and :meth:`~SofaEngine.run_until_drained` loops rounds until
  the queue is empty.
* **One execution path** - a scheduling round's ready chunks run inline,
  one after another, on the calling thread.  Parallelism lives *inside*
  each fused call (every head of a chunk shares its stacked BLAS ops,
  the software analogue of the paper's parallel sorters and PE lanes
  working one coordinated tile dataflow), not across calls.  A failing
  chunk does not stop the round: every chunk runs, and statistics and
  the first-error choice follow dispatch order.
* **Decode-step cache** - requests carrying a ``cache_key`` reuse their
  quantized ``K_hat``/DLZS prediction state across steps of a growing
  sequence (:mod:`repro.engine.cache`), skipping re-quantization of the
  unchanged token prefix.  Hit/miss/invalidation counters surface in
  :attr:`SofaEngine.stats`.
* **Per-request futures** - every request resolves to the same
  :class:`~repro.core.pipeline.SofaAttentionResult` the sequential operator
  would have produced (bit-for-bit), so downstream accounting code cannot
  tell it was served from a batch or a cache hit.

Determinism remains part of the engine's contract: the scheduler produces
bit-identical results in deterministic arrival order; batching and the
cache only change *when* work happens, never what it computes.
Submissions are expected from one caller thread; a ``cache=`` instance
may be shared by engines on different caller threads.

This engine is the innermost serving tier.  :class:`repro.cluster.EngineCluster`
shards many of them across worker processes (with supervision, autoscaling
and workers started locally or reached over TCP), and
:class:`repro.gateway.SofaGateway` puts an HTTP front door with per-tenant
admission control and deadline-aware shedding in front of a cluster.  The
full request path from HTTP POST down to the fused kernels is walked in
``docs/architecture.md``.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.core.config import SofaConfig
from repro.core.pipeline import SofaAttentionResult
from repro.engine.batched import BatchedSofaAttention
from repro.engine.cache import CacheStats
from repro.engine.heap import keep_heap_warm
from repro.engine.paged import PagedDecodeCache
from repro.obs import get_telemetry


@dataclass
class AttentionRequest:
    """One independent attention problem (a head of a layer of a sequence).

    ``wk``/``wv`` are the head's key/value projections (``(H, Dk)`` /
    ``(H, Dv)``); ``tokens`` is ``(S, H)``; ``q`` is ``(T, D)``.  ``v``
    optionally supplies a pre-computed value cache, and ``config`` overrides
    the engine default (requests only batch with compatible configs).

    ``cache_key`` opts the request into the decode-step cache: submit the
    same key every step of a growing sequence (e.g. ``(session, layer,
    head)``) and the DLZS phase-1.1 state of the unchanged token prefix is
    reused.  ``deadline`` (absolute :func:`time.monotonic` seconds) forces
    the request's group to execute at the first scheduling round past it,
    even if the batch is not full.
    """

    tokens: np.ndarray
    q: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    k_scale: float = 1.0
    v_scale: float = 1.0
    v: np.ndarray | None = None
    config: SofaConfig | None = None
    tag: str | None = None
    cache_key: Hashable | None = None
    deadline: float | None = None


class AttentionFuture:
    """Handle to a queued request; resolves when its batch executes.

    ``result()`` triggers a full drain if the request is still queued, so
    callers may simply submit everything and read results in any order.
    """

    def __init__(self, engine: "SofaEngine"):
        # Deliberately does NOT hold the request: retaining a future must
        # not pin the request's token/weight tensors after it is served.
        self._engine = engine
        self._result: SofaAttentionResult | None = None
        self._error: Exception | None = None
        #: monotonic submission stamp - queue-wait accounting reads it
        self.submitted_at = time.monotonic()
        #: open telemetry span for this request (None when telemetry is off)
        self.span = None

    def done(self) -> bool:
        return self._result is not None or self._error is not None

    def set_result(self, result: SofaAttentionResult) -> None:
        self._result = result

    def set_error(self, error: Exception) -> None:
        self._error = error

    def result(self) -> SofaAttentionResult:
        if not self.done():
            try:
                self._engine.flush()
            except Exception:
                # flush re-raises the first batch failure; only propagate it
                # here when it is THIS request's failure - another request's
                # error must not leak into a successfully served result.
                if not self.done():
                    raise
        if self._error is not None:
            raise self._error
        assert self._result is not None, "flush must resolve every queued future"
        return self._result


def validate_request(request: AttentionRequest, default_config: SofaConfig) -> None:
    """Reject a malformed request at submission time.

    Shared by :meth:`SofaEngine.submit` and the cluster frontend
    (:class:`repro.cluster.EngineCluster`), so a bad request fails in the
    caller's process instead of aborting the batch (or the worker) it
    would have joined.  Finiteness is not scanned here: a decode request
    carries its whole token history, and the quantizers already raise on
    a NaN or infinite token, query or key weight from the maximum they
    compute; :meth:`SofaEngine._execute_keys` keeps that error with the
    request that caused it.
    """
    tokens = np.asarray(request.tokens)
    q = np.asarray(request.q)
    wk = np.asarray(request.wk)
    wv = np.asarray(request.wv)
    if tokens.ndim != 2 or q.ndim != 2 or wk.ndim != 2 or wv.ndim != 2:
        raise ValueError("request tensors must be 2-D per head")
    if tokens.shape[1] != wk.shape[0]:
        raise ValueError("tokens and wk disagree on the hidden dimension")
    if wv.shape[0] != wk.shape[0]:
        raise ValueError("wk and wv disagree on the hidden dimension")
    if q.shape[1] != wk.shape[1]:
        raise ValueError("q and wk disagree on the head dimension")
    if request.v is not None:
        v = np.asarray(request.v)
        if v.ndim != 2 or v.shape[0] != tokens.shape[0]:
            raise ValueError("value cache must be (S, Dv)")
    if request.deadline is not None and not (
        isinstance(request.deadline, (int, float))
        and math.isfinite(request.deadline)
    ):
        # NaN would compare False against every clock reading and
        # silently defeat the starvation bound the deadline provides.
        raise ValueError("deadline must be finite monotonic seconds")
    if request.cache_key is not None:
        try:
            hash(request.cache_key)
        except TypeError as error:
            raise ValueError("cache_key must be hashable") from error
    (request.config or default_config).resolve_top_k(tokens.shape[0])


@dataclass
class BatchRecord:
    """One executed batch: its grid, size, and how long it waited.

    ``seq_len`` is the longest ``S`` in the batch (its heads may differ in
    ``S``; each keeps its own grid).

    ``queue_wait_s`` is the monotonic-clock span from the *earliest*
    member's submission to the batch starting to execute; ``execute_s``
    the fused call's own duration.  Both are recorded unconditionally
    (two clock reads per batch), independent of the telemetry plane.
    """

    n_heads: int
    seq_len: int
    n_queries: int
    tile_cols: int
    waited_rounds: int = 0
    queue_wait_s: float = 0.0
    execute_s: float = 0.0


@dataclass
class EngineStats:
    """Aggregate serving statistics since engine construction.

    ``cache`` is a live view of the engine's decode-step cache counters
    (hits/misses/invalidations/evictions plus reused/appended row tallies).
    ``batches`` retains only the most recent ``MAX_BATCH_RECORDS`` records
    so a long-lived engine's memory stays bounded; the scalar aggregates
    (``n_requests``/``n_batches``/``mean_batch_heads``) cover the full
    lifetime regardless.
    """

    #: per-batch records kept for inspection; older ones are dropped
    MAX_BATCH_RECORDS = 1024

    n_requests: int = 0
    n_batches: int = 0
    n_steps: int = 0
    batches: list[BatchRecord] = field(default_factory=list)
    cache: CacheStats = field(default_factory=CacheStats)

    def record_batches(self, records: list[BatchRecord]) -> None:
        self.batches.extend(records)
        self.n_batches += len(records)
        if len(self.batches) > self.MAX_BATCH_RECORDS:
            del self.batches[: len(self.batches) - self.MAX_BATCH_RECORDS]

    @property
    def mean_batch_heads(self) -> float:
        return self.n_requests / self.n_batches if self.n_batches else 0.0

    @property
    def cache_hits(self) -> int:
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        return self.cache.misses

    @property
    def cache_expirations(self) -> int:
        """Decode-cache entries dropped by the idle TTL (abandoned sequences)."""
        return self.cache.expirations

    def register_metrics(self, registry, prefix: str = "sofa_engine") -> None:
        """Expose these counters through a metrics registry (callback gauges).

        Part of the :mod:`repro.obs` plane: the registry reads the live
        attributes at export time (weakref-held, so a retired engine's
        stats decay to 0), and the engine's decode-cache counters register
        alongside under ``<prefix>_cache_*``.
        """
        from repro.obs import register_stats_gauges

        register_stats_gauges(
            registry, prefix, self,
            ("n_requests", "n_batches", "n_steps", "mean_batch_heads"),
        )
        self.cache.register_metrics(registry, prefix=f"{prefix}_cache")


@dataclass
class _Group:
    """A not-yet-executed shape group: members in arrival order plus age."""

    members: list[tuple[AttentionRequest, AttentionFuture]] = field(
        default_factory=list
    )
    age: int = 0

    def earliest_deadline(self) -> float | None:
        deadlines = [r.deadline for r, _ in self.members if r.deadline is not None]
        return min(deadlines) if deadlines else None


class SofaEngine:
    """Serving frontend: continuous batching scheduler and futures.

    Parameters
    ----------
    config:
        Default :class:`SofaConfig` for requests that carry none.  There
        is no kernel choice in it: every batch streams through the one
        SU-FA stream, :func:`repro.core.sufa.stream_selected`, whose
        per-key golden model the tests compare it against.
    max_batch_heads:
        Fused-call width; a group executes as soon as it can fill one chunk.
    max_wait_batches:
        Starvation bound: a group executes after waiting this many
        scheduling rounds even if under-full.  ``None`` means groups wait
        for a full chunk, a deadline, or an explicit :meth:`flush`.
    cache / cache_entries / cache_ttl_s:
        Pass ``cache`` to share a decode-step cache between engines, or
        let the engine build (and own) a
        :class:`~repro.engine.paged.PagedDecodeCache`, the block-pool
        store with prefix sharing and disk spill, holding at most
        ``cache_entries`` entries.
        ``cache_ttl_s`` bounds how long an *idle* entry (an abandoned
        decode sequence that never invalidated itself) stays resident;
        on top of the cache's own lazy sweeping the engine sweeps inside
        every :meth:`step`/:meth:`flush`, so idle expiry happens even
        when the surviving traffic never touches the cache
        (``stats.cache_expirations`` counts drops).
    cache_bytes / cache_block_tokens / cache_spill_dir:
        The owned store's RAM budget (cold blocks spill to disk under
        it), rows per block, and the spill/persistence directory (a
        temporary one is created when needed).
    """

    #: cached pre-converted operators kept per (weights, config) identity
    _OPERATOR_CACHE_SIZE = 16

    def __init__(
        self,
        config: SofaConfig | None = None,
        max_batch_heads: int = 64,
        max_wait_batches: int | None = None,
        cache: PagedDecodeCache | None = None,
        cache_entries: int = 256,
        cache_ttl_s: float | None = None,
        cache_bytes: int | None = None,
        cache_block_tokens: int = 32,
        cache_spill_dir: str | None = None,
    ):
        if max_batch_heads < 1:
            raise ValueError("max_batch_heads must be >= 1")
        if max_wait_batches is not None and max_wait_batches < 0:
            raise ValueError("max_wait_batches must be >= 0 (or None)")
        self.config = config or SofaConfig()
        keep_heap_warm()  # batches reuse freed heap instead of faulting it in
        self.max_batch_heads = max_batch_heads
        self.max_wait_batches = max_wait_batches
        self._owns_cache = cache is None
        self.cache = (
            cache
            if cache is not None
            else PagedDecodeCache(
                max_entries=cache_entries,
                max_bytes=cache_bytes,
                ttl_s=cache_ttl_s,
                block_tokens=cache_block_tokens,
                spill_dir=cache_spill_dir,
            )
        )
        self.stats = EngineStats(cache=self.cache.stats)
        self._groups: OrderedDict[Hashable, _Group] = OrderedDict()
        self._operators: OrderedDict[Hashable, BatchedSofaAttention] = OrderedDict()
        self._op_lock = threading.Lock()  # guards the operator LRU
        obs = get_telemetry()
        if obs.enabled:
            self.stats.register_metrics(obs.registry)
            engine_ref = weakref.ref(self)
            obs.register_gauge(
                "sofa_engine_pending_requests",
                lambda: float(e.pending) if (e := engine_ref()) else 0.0,
            )

    def shutdown(self) -> None:
        """Close an engine-owned cache (dropping an owned temporary spill
        directory); a shared ``cache=`` instance is left alone for its
        other users.
        """
        if self._owns_cache:
            self.cache.close()

    def sweep_cache(self) -> int:
        """Drop idle-past-TTL decode-cache entries; returns how many.

        Called from every scheduling round and by the cluster worker's
        idle loop, so abandoned sequences expire on wall-clock time even
        when no surviving request touches the cache (lazy sweeping alone
        would pin them until the next cache operation).
        """
        if self.cache.ttl_s is None:
            return 0
        return self.cache.sweep_expired()

    def __enter__(self) -> "SofaEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------- submission
    def submit(self, request: AttentionRequest) -> AttentionFuture:
        """Admit one request into its shape group; returns its future.

        Shapes and the top-k budget are validated here, so a malformed
        request fails at submission instead of aborting the batch it would
        have joined.  Admission is continuous: the request joins the open
        group for its grid, including groups formed in earlier rounds that
        have not executed yet.
        """
        obs = get_telemetry()
        t0 = obs.clock()
        validate_request(request, self.config)
        obs.observe_since("sofa_engine_validate_seconds", t0)
        future = AttentionFuture(self)
        if obs.enabled:
            obs.inc("sofa_engine_requests_total")
            tokens = np.asarray(request.tokens)
            future.span = obs.start_span(
                "engine.request",
                attrs={"s": int(tokens.shape[0]),
                       "t": int(np.asarray(request.q).shape[0]),
                       "tag": request.tag or ""},
            )
        key = self._batch_key(request)
        group = self._groups.get(key)
        if group is None:
            group = _Group()
            self._groups[key] = group
        group.members.append((request, future))
        return future

    def submit_many(self, requests: list[AttentionRequest]) -> list[AttentionFuture]:
        return [self.submit(r) for r in requests]

    @property
    def pending(self) -> int:
        return sum(len(g.members) for g in self._groups.values())

    def invalidate_cache(self, key: Hashable) -> int:
        """Explicitly drop a sequence's decode-cache state (session ended).

        Drops both the exact-key entries and - for tuple keys - entries
        namespaced under ``key`` as their first element; returns how many
        entries were removed.
        """
        removed = self.cache.invalidate_prefix(key)
        # Raw keys are namespaced (user_key, config, weight_digest) by the
        # predictor, so prefix matching on the user key is the droppable set.
        return removed

    # -------------------------------------------------------------- scheduling
    def _batch_key(self, request: AttentionRequest) -> Hashable:
        """Requests batch together iff one fused call can serve them.

        That takes the same ``(T, H, Dk, Dv)`` shapes, value-cache form and
        config.  ``S`` is not part of the key: each head keeps its own
        ``(S, tile_cols)`` cross-stage grid inside the call, so decode
        sessions of different lengths share one batch.
        """
        cfg = request.config or self.config
        tokens = np.asarray(request.tokens)
        q = np.asarray(request.q)
        # Dv comes from the value cache when one is supplied - caches of
        # different widths must not share a stack.  wv's own width still
        # joins the key: the projection stacks even when a cache overrides
        # it, so mismatched wv shapes must not group either.
        wv_cols = np.asarray(request.wv).shape[1]
        if request.v is not None:
            dv = np.asarray(request.v).shape[1]
        else:
            dv = wv_cols
        return (
            q.shape[0],  # T
            tokens.shape[1],  # H
            q.shape[1],  # Dk
            dv,
            wv_cols,
            request.v is not None,
            cfg,  # frozen dataclass: hashable; carries tile_cols & stage knobs
        )

    def _ready(self, group: _Group, now: float) -> bool:
        if len(group.members) >= self.max_batch_heads:
            return True
        if self.max_wait_batches is not None and group.age >= self.max_wait_batches:
            return True
        deadline = group.earliest_deadline()
        return deadline is not None and deadline <= now

    def step(self, now: float | None = None) -> list[BatchRecord]:
        """One scheduling round: execute every ready group, age the rest.

        A group is *ready* when it can fill a chunk (``max_batch_heads``
        members), has waited ``max_wait_batches`` rounds, or holds a request
        whose deadline has passed.  Groups that stay behind gain one round
        of age, so with a finite ``max_wait_batches`` no request waits more
        than that many rounds - the starvation bound.
        """
        now = time.monotonic() if now is None else now
        self.sweep_cache()
        ready = [k for k, g in self._groups.items() if self._ready(g, now)]
        try:
            return self._execute_keys(ready)
        finally:
            # Age even when a ready batch raised: the starvation bound must
            # hold for the groups left waiting regardless of neighbours'
            # failures (their own futures already carry the error).
            for group in self._groups.values():
                group.age += 1
            self.stats.n_steps += 1

    def flush(self) -> list[BatchRecord]:
        """Force-drain every group regardless of readiness.

        Returns the batch records executed by this drain.  A batch that
        raises resolves its own futures with the error and does not block
        the remaining batches; the first error is re-raised once the queue
        has fully drained.
        """
        self.sweep_cache()
        return self._execute_keys(list(self._groups.keys()))

    def run_until_drained(self, max_rounds: int | None = None) -> list[BatchRecord]:
        """Run scheduling rounds until no request is pending.

        With a finite ``max_wait_batches`` every group ages into readiness,
        so the loop terminates on rounds alone; otherwise (or when
        ``max_rounds`` is hit) the remainder is force-flushed.  Returns all
        batch records executed, in execution order.

        Like :meth:`flush`, a failing batch never aborts the drain: its own
        futures carry the error, every other group still executes, and the
        first error is re-raised once nothing is pending (a failing round's
        successful records remain visible in ``stats.batches``).
        """
        records: list[BatchRecord] = []
        first_error: Exception | None = None
        rounds = 0
        while self.pending:
            try:
                if max_rounds is not None and rounds >= max_rounds:
                    records.extend(self.flush())
                    break
                if self.max_wait_batches is None and not any(
                    self._ready(g, time.monotonic()) for g in self._groups.values()
                ):
                    records.extend(self.flush())
                    break
                stepped = self.step()
                records.extend(stepped)
                if not stepped:
                    # The caller is blocked in this loop, so no new request
                    # can join a waiting group: aging one round at a time
                    # only burns no-op rounds.  Fast-forward every group to
                    # the starvation bound; the next round executes them
                    # with the same waited_rounds accounting.
                    for group in self._groups.values():
                        group.age = max(group.age, self.max_wait_batches)
            except Exception as error:  # noqa: BLE001 - re-raised after the drain
                if first_error is None:
                    first_error = error
            rounds += 1
        if first_error is not None:
            raise first_error
        return records

    # -------------------------------------------------------------- execution
    def _execute_keys(self, keys: list[Hashable]) -> list[BatchRecord]:
        """Chunk and execute the named groups, one chunk after another.

        Every chunk runs even after an earlier one raised.  A failing chunk
        of several requests is run again one request at a time, so an
        error (a NaN token failing its quantizer, say) resolves only the
        future of the request that raised it; its batch-mates get the bits
        they get alone.  Statistics count the successful chunks in dispatch
        order, and the first error is re-raised once the round is done.
        """
        chunks: list[tuple[list[tuple[AttentionRequest, AttentionFuture]], int]] = []
        for key in keys:
            group = self._groups.pop(key, None)
            if group is None or not group.members:
                continue
            cfg = group.members[0][0].config or self.config
            # A misprediction under max_assurance=False aborts a fused call
            # for every head in it; serve such requests unbatched so the
            # failure stays confined to the offending request.
            limit = self.max_batch_heads if cfg.sufa.max_assurance else 1
            for lo in range(0, len(group.members), limit):
                chunks.append((group.members[lo : lo + limit], group.age))
        if not chunks:
            return []

        records: list[BatchRecord] = []
        first_error: Exception | None = None
        obs = get_telemetry()
        pending = deque(chunks)
        while pending:
            chunk, age = pending.popleft()
            try:
                record = self._execute(chunk, age)
            except Exception as error:  # noqa: BLE001 - re-raised after the round
                if len(chunk) > 1:
                    pending.extendleft(([member], age) for member in reversed(chunk))
                    continue
                for _, future in chunk:
                    future.set_error(error)
                    obs.end_span(future.span, error=repr(error))
                    future.span = None
                if first_error is None:
                    first_error = error
            else:
                records.append(record)
                self.stats.n_requests += len(chunk)
        self.stats.record_batches(records)
        if first_error is not None:
            raise first_error
        return records

    def _operator(
        self, wk: list[np.ndarray], wv: list[np.ndarray], cfg: SofaConfig
    ) -> BatchedSofaAttention:
        """Build (or reuse) the pre-converted operator for a weight stack.

        Weight pre-conversion is the offline model-preparation step; serving
        loops resubmit the same projections every forward pass, so operators
        are cached under a digest of each head's weight bytes plus the
        config.  Heads of one batch often pass the very same array object
        (a layer's weights, shared by every session), so each distinct
        object is hashed once per call; the stack is only built on a miss.
        """
        digests: dict[int, tuple] = {}

        def head_key(arr: np.ndarray) -> tuple:
            # Keyed by identity only within this call, while every array
            # is alive and unchanged; the digest itself is of the bytes.
            found = digests.get(id(arr))
            if found is None:
                found = (arr.shape, hashlib.sha1(arr.tobytes()).hexdigest())
                digests[id(arr)] = found
            return found

        key = (
            cfg,
            tuple(head_key(a) for a in wk),
            tuple(head_key(a) for a in wv),
        )
        with self._op_lock:
            op = self._operators.get(key)
            if op is None:
                op = BatchedSofaAttention(np.stack(wk), np.stack(wv), cfg)
                self._operators[key] = op
                while len(self._operators) > self._OPERATOR_CACHE_SIZE:
                    self._operators.popitem(last=False)
            else:
                self._operators.move_to_end(key)
            return op

    def _execute(
        self,
        chunk: list[tuple[AttentionRequest, AttentionFuture]],
        waited_rounds: int = 0,
    ) -> BatchRecord:
        start = time.monotonic()
        requests = [r for r, _ in chunk]
        cfg = requests[0].config or self.config
        wk = [np.asarray(r.wk, dtype=np.float64) for r in requests]
        wv = [np.asarray(r.wv, dtype=np.float64) for r in requests]
        # Per-head token arrays and value caches: heads of different S
        # share the call, so nothing along S is stacked.
        tokens = [np.asarray(r.tokens, dtype=np.float64) for r in requests]
        q = np.stack([np.asarray(r.q, dtype=np.float64) for r in requests])
        k_scales = np.array([r.k_scale for r in requests], dtype=np.float64)
        v_scales = np.array([r.v_scale for r in requests], dtype=np.float64)
        v = None
        if requests[0].v is not None:
            v = [np.asarray(r.v, dtype=np.float64) for r in requests]
        seq_len = max(x.shape[0] for x in tokens)
        cache_keys = None
        if any(r.cache_key is not None for r in requests):
            cache_keys = [r.cache_key for r in requests]

        op = self._operator(wk, wv, cfg)
        obs = get_telemetry()
        with obs.span(
            "engine.batch",
            attrs={"n_heads": len(chunk), "s": seq_len,
                   "waited_rounds": waited_rounds},
        ):
            result = op(
                tokens,
                q,
                k_scale=k_scales,
                v_scale=v_scales,
                v=v,
                cache=self.cache if cache_keys is not None else None,
                cache_keys=cache_keys,
            )
        end = time.monotonic()
        for (_, future), head_result in zip(chunk, result.per_head):
            future.set_result(head_result)
            obs.end_span(future.span)
            future.span = None
        queue_wait = max(
            0.0, start - min(f.submitted_at for _, f in chunk)
        )
        if obs.enabled:
            obs.inc("sofa_engine_batches_total")
            obs.observe("sofa_engine_queue_wait_seconds", queue_wait)
            obs.observe("sofa_engine_execute_seconds", end - start)
            for _, future in chunk:
                obs.observe(
                    "sofa_engine_request_latency_seconds",
                    max(0.0, end - future.submitted_at),
                )
        return BatchRecord(
            n_heads=len(chunk),
            seq_len=seq_len,
            n_queries=q.shape[1],
            tile_cols=cfg.tile_cols,
            waited_rounds=waited_rounds,
            queue_wait_s=queue_wait,
            execute_s=end - start,
        )

    # ------------------------------------------------------------ convenience
    def run(self, requests: list[AttentionRequest]) -> list[SofaAttentionResult]:
        """Submit, drain, and return results in request order."""
        futures = self.submit_many(requests)
        self.run_until_drained()
        return [f.result() for f in futures]
