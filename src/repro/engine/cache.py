"""Decode-step cache: reuse quantized ``K_hat``/DLZS state across requests.

A decode loop re-submits the *same* attention problem every step with one
more token appended: the token prefix - and therefore the quantized token
codes and the phase-1.1 ``K_hat = tokens @ Wk`` rows derived from it - is
identical to the previous step's.  The accelerator analogue is keeping the
predicted-key SRAM resident between steps instead of re-running the
pre-compute stage over the whole context.

Two stores implement one surface (``get``/``put``/``invalidate``/
``invalidate_prefix``/``sweep_expired``/``clear`` plus the
``record_hit``/``record_miss`` counter hooks), selected through
:func:`make_decode_cache`:

:class:`DecodeStepCache` (``kind="flat"``)
    The original per-sequence LRU: one monolithic
    :class:`DecodeCacheEntry` per key, whole-entry eviction, no
    cross-sequence reuse.  Kept as the reference store (and for callers
    that want its strictly simpler residency model).
:class:`~repro.engine.paged.PagedDecodeCache` (``kind="paged"``, the
    serving default)
    A refcounted fixed-size **block pool**: entries are decomposed into
    ``block_tokens``-row blocks keyed by content hash, so sequences that
    share a token prefix (system prompts under real traffic) share the
    prefix's blocks; divergence is copy-on-write (blocks are immutable -
    a grown or diverged tail becomes new blocks, never a mutation of a
    shared one); cold blocks **spill to disk** under the ``max_bytes``
    RAM budget instead of being dropped, so an entry larger than the
    whole budget is still servable (satisfying lookups from the spill
    tier) rather than silently overshooting residency; a
    ``spill_dir`` + :meth:`~repro.engine.paged.PagedDecodeCache.persist`
    pair lets long-lived sessions survive a process restart.

Consumers are store-blind: :class:`~repro.core.dlzs.StackedDlzsPredictor`
consults the cache inside the batched pipeline - on a **hit** only the
newly appended token rows are quantized and projected; on a **miss**
(unknown key, prefix changed, sequence shrank) the full phase-1.1 runs and
the entry is replaced.

Both stores take a hit's new rows through the **append form** of put,
``put(key, rows, base=entry)``: ``entry`` is what ``get`` returned and
``rows`` holds only the rows past ``entry.seq_len``, with ``entry``'s
quantization state (:func:`can_append`).  The flat store concatenates
them onto ``entry``; the paged store hashes and pools only the grown tail
block.  ``put`` returns ``False`` and changes nothing when the key no
longer holds the state ``entry`` was read from (replaced, invalidated,
expired or evicted since the get, e.g. by another thread), and the
predictor then puts the whole sequence.  A full put returns ``True``.
On the paged store every put references its new blocks before it
releases the old ones, so a re-put never frees its own unchanged blocks.

Bit-for-bit parity is preserved because reuse is only attempted when it is
*provably* equal to the uncached computation:

* token quantization uses one symmetric per-tensor scale derived from the
  global ``max|x|``; appended rows may only reuse the cached codes when
  their magnitudes stay within the cached maximum (the scale - and hence
  every previously quantized code - is then bit-identical).  A louder new
  token **invalidates** the entry and recomputes everything.
* the raw integer ``K_hat`` rows are exact row-independent int64 matmuls,
  so appending rows never perturbs cached rows.
* the intermediate-width truncation of ``K_hat`` (whose scale also depends
  on a global maximum) is recomputed from the full raw rows every call - it
  is cheap elementwise work, not the matmul the cache exists to skip.
* the paged store shares blocks **only by content hash over the exact
  bytes** (tokens, quantized codes and ``K_hat`` rows together), so two
  sequences share storage exactly when their per-row state is already
  bit-identical - sharing can never substitute different bits - and the
  spill codec (``.npz``) round-trips arrays bit-exactly.

Entries are immutable after insertion (updates replace the entry), so one
store is safe to share between engines on different threads: a stale read
can only cost a recompute, never a wrong bit.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Callable, Hashable

from repro.obs import get_telemetry

import numpy as np


@dataclass(frozen=True)
class DecodeCacheEntry:
    """Immutable per-sequence DLZS phase-1.1 state.

    ``tokens`` is the float64 token matrix the entry was built from (the
    prefix-equality witness); ``tok_values`` its quantized int64 codes with
    ``tok_scale`` / ``tok_max_abs`` the per-tensor quantization state, and
    ``key_values`` the raw (pre-truncation) integer ``K_hat`` rows.
    ``quantized`` records whether the float quantization path was taken
    (integer-dtype submissions bypass it and must not mix with float ones).
    """

    tokens: np.ndarray
    tok_values: np.ndarray
    tok_scale: float
    tok_max_abs: float
    key_values: np.ndarray
    quantized: bool

    @property
    def seq_len(self) -> int:
        return self.tokens.shape[0]

    @property
    def nbytes(self) -> int:
        """Resident payload: entries grow with context length, not count."""
        return self.tokens.nbytes + self.tok_values.nbytes + self.key_values.nbytes


@dataclass
class CacheStats:
    """Counters of one :class:`DecodeStepCache` since construction.

    ``hits``/``misses`` count lookups; ``invalidations`` the subset of
    misses where a live entry had to be discarded (prefix changed, sequence
    shrank, or a new token exceeded the cached quantization maximum);
    ``evictions`` LRU pressure drops; ``expirations`` TTL drops of entries
    whose sequence went quiet (abandoned decode sessions that never called
    :meth:`DecodeStepCache.invalidate`).  ``rows_reused``/``rows_appended``
    tally how many phase-1.1 rows hits skipped vs incrementally computed.

    The block-pool gauges describe the paged store
    (:class:`~repro.engine.paged.PagedDecodeCache`; all zero on the flat
    LRU): ``resident_blocks``/``spilled_blocks`` partition the pool by
    tier (RAM vs disk), ``shared_blocks`` counts blocks referenced by more
    than one entry (the prefix-sharing win), ``spilled_bytes`` is the
    payload currently parked on disk, and ``spill_loads`` counts block
    reloads from the spill tier.  ``resident_bytes`` is the *RAM* payload
    for both stores - on the paged store a shared block is counted once
    (that is the honest residency figure sharing buys).
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    expirations: int = 0
    rows_reused: int = 0
    rows_appended: int = 0
    resident_bytes: int = 0
    resident_blocks: int = 0
    shared_blocks: int = 0
    spilled_blocks: int = 0
    spilled_bytes: int = 0
    spill_loads: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def register_metrics(self, registry, prefix: str = "sofa_cache") -> None:
        """Expose every counter field as a callback gauge on ``registry``.

        Weakref-backed (:func:`repro.obs.register_stats_gauges`): a retired
        cache reads 0 instead of being pinned by its telemetry.
        """
        from repro.obs import register_stats_gauges

        register_stats_gauges(
            registry, prefix, self, tuple(f.name for f in fields(self))
        )

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum (aggregating per-worker caches in a cluster)."""
        return CacheStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })


def prefix_matches(store_key: Hashable, prefix: Hashable) -> bool:
    """Does a stored cache key fall under a caller's invalidation prefix?

    The documented key shapes are:

    * ``(user_key, config, weight_digest)`` tuples as composed by
      :class:`~repro.core.dlzs.StackedDlzsPredictor`, where ``user_key``
      is either a scalar session id or a ``(session_id, ...)`` tuple;
    * scalar (non-tuple) keys written by callers driving the store
      directly - these match when equal to ``prefix``.

    Shared by both cache implementations so ``invalidate_prefix`` agrees
    on what a session id reaches regardless of the store kind.
    """
    if not isinstance(store_key, tuple):
        # Plain-string (or other scalar) session ids used as raw store
        # keys used to fall through the tuple-only matcher and silently
        # invalidate nothing; they are a documented key shape and match
        # on equality.
        return store_key == prefix
    if not store_key:
        return False
    user_key = store_key[0]
    if user_key == prefix:
        return True
    return isinstance(user_key, tuple) and bool(user_key) and user_key[0] == prefix


def can_append(base: DecodeCacheEntry, rows: DecodeCacheEntry) -> bool:
    """Can ``rows`` extend ``base`` in a ``put(key, rows, base=base)``?

    The appended rows must carry ``base``'s quantization state (scale,
    maximum and ``quantized`` flag) and its array dtypes and row shapes:
    the store concatenates them onto ``base``'s rows as they are.  Both
    stores refuse an append that fails this check, like a stale one.
    """
    state = (rows.tok_scale, rows.tok_max_abs, rows.quantized)
    if state != (base.tok_scale, base.tok_max_abs, base.quantized):
        return False
    return all(
        new.dtype == old.dtype and new.shape[1:] == old.shape[1:]
        for new, old in zip(
            (rows.tokens, rows.tok_values, rows.key_values),
            (base.tokens, base.tok_values, base.key_values),
        )
    )


#: Store kinds accepted by :func:`make_decode_cache`.
CACHE_KINDS = ("paged", "flat")


def make_decode_cache(
    kind: str = "paged",
    max_entries: int = 256,
    max_bytes: int | None = None,
    ttl_s: float | None = None,
    block_tokens: int = 32,
    spill_dir: str | None = None,
    clock: Callable[[], float] = time.monotonic,
):
    """Build a decode-step cache of the requested ``kind``.

    ``"paged"`` (the serving default) returns a
    :class:`~repro.engine.paged.PagedDecodeCache` (block pool, prefix
    sharing, disk spill); ``"flat"`` the original whole-entry
    :class:`DecodeStepCache` LRU.  ``block_tokens``/``spill_dir`` only
    apply to the paged store; the rest of the knobs are shared.
    """
    if kind == "flat":
        return DecodeStepCache(
            max_entries=max_entries, max_bytes=max_bytes, ttl_s=ttl_s, clock=clock
        )
    if kind == "paged":
        # Local on purpose: repro.engine.paged imports this module for the
        # entry/stats types, so a module-level import would be a cycle.
        from repro.engine.paged import PagedDecodeCache

        return PagedDecodeCache(
            max_entries=max_entries,
            max_bytes=max_bytes,
            ttl_s=ttl_s,
            block_tokens=block_tokens,
            spill_dir=spill_dir,
            clock=clock,
        )
    raise ValueError(f"unknown cache kind {kind!r}; expected one of {CACHE_KINDS}")


class DecodeStepCache:
    """Bounded LRU store of :class:`DecodeCacheEntry` keyed per sequence.

    Keys are caller-composed hashables; consumers (the DLZS predictor via
    :class:`~repro.engine.batched.BatchedSofaAttention`) namespace the
    user-visible key with the weight/config identity so one store can serve
    many operators without cross-talk.  All methods are thread-safe: engines
    on different threads sharing one store may look up and replace entries
    concurrently.

    Size ``max_entries`` to cover the *concurrent working set* (e.g.
    ``n_layers * n_heads`` per live decode session): decode scans its keys
    in a fixed order every step, and an LRU smaller than the scan length
    evicts each entry just before its next lookup - every lookup then
    misses and the cache only costs.  The ``evictions`` counter is the
    tell-tale.

    ``ttl_s`` bounds how long an *idle* entry may stay resident: a decode
    session abandoned without :meth:`invalidate` (a dropped connection, a
    crashed caller) would otherwise pin its context-sized payload until
    LRU pressure happens to reach it - which on a large cache may be
    never.  Entries untouched for ``ttl_s`` seconds are dropped lazily on
    the next cache operation (or an explicit :meth:`sweep_expired`) and
    counted as ``expirations`` in :class:`CacheStats`.  ``clock`` is
    injectable for tests and defaults to :func:`time.monotonic`.
    """

    def __init__(
        self,
        max_entries: int = 256,
        max_bytes: int | None = None,
        ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None)")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be > 0 (or None)")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_s = ttl_s
        self._clock = clock
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, DecodeCacheEntry] = OrderedDict()
        self._last_used: dict[Hashable, float] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _sweep_expired_locked(self, now: float) -> int:
        """Drop idle-past-TTL entries; caller holds the lock.

        LRU order *is* idle order (every touch moves the entry to the
        back), so the scan walks from the front and stops at the first
        still-fresh entry.
        """
        if self.ttl_s is None:
            return 0
        dropped = 0
        while self._entries:
            key = next(iter(self._entries))
            if now - self._last_used[key] <= self.ttl_s:
                break
            entry = self._entries.pop(key)
            del self._last_used[key]
            self.stats.resident_bytes -= entry.nbytes
            self.stats.expirations += 1
            dropped += 1
        return dropped

    def sweep_expired(self) -> int:
        """Explicitly drop idle-past-TTL entries; returns how many."""
        with self._lock:
            return self._sweep_expired_locked(self._clock())

    def get(self, key: Hashable) -> DecodeCacheEntry | None:
        """Return the live entry for ``key`` (marking it recently used)."""
        obs = get_telemetry()
        t0 = obs.clock()
        with self._lock:
            now = self._clock()
            self._sweep_expired_locked(now)
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._last_used[key] = now
        obs.observe_since("sofa_cache_lookup_seconds", t0)
        return entry

    def put(
        self,
        key: Hashable,
        entry: DecodeCacheEntry,
        *,
        base: DecodeCacheEntry | None = None,
    ) -> bool:
        """Insert/replace the entry for ``key``, evicting LRU overflow.

        With ``base`` - the entry :meth:`get` returned for ``key`` -
        ``entry`` holds only the rows appended past ``base.seq_len``; they
        are concatenated onto ``base`` and the result replaces it.  Returns
        ``False`` and changes nothing when ``key`` no longer holds ``base``
        (replaced, invalidated, expired or evicted since the get) or the
        rows cannot extend it (:func:`can_append`); otherwise ``True``.

        Overflow is bounded on entry *count* and - when ``max_bytes`` is set
        - on total resident payload bytes (entries scale with context
        length, so a count bound alone is no byte bound); a single entry
        larger than ``max_bytes`` is still admitted, alone.
        """
        if base is not None and not can_append(base, entry):
            return False
        with self._lock:
            now = self._clock()
            self._sweep_expired_locked(now)
            if base is not None:
                if self._entries.get(key) is not base:
                    return False
                entry = replace(
                    base,
                    tokens=np.concatenate([base.tokens, entry.tokens]),
                    tok_values=np.concatenate([base.tok_values, entry.tok_values]),
                    key_values=np.concatenate([base.key_values, entry.key_values]),
                )
            old = self._entries.pop(key, None)
            if old is not None:
                self.stats.resident_bytes -= old.nbytes
            self._entries[key] = entry
            self._last_used[key] = now
            self.stats.resident_bytes += entry.nbytes
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None
                and self.stats.resident_bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                evicted_key, evicted = self._entries.popitem(last=False)
                del self._last_used[evicted_key]
                self.stats.resident_bytes -= evicted.nbytes
                self.stats.evictions += 1
            return True

    def invalidate(self, key: Hashable) -> bool:
        """Explicitly drop one sequence's state (e.g. its session ended)."""
        with self._lock:
            dropped = self._entries.pop(key, None)
            if dropped is not None:
                del self._last_used[key]
                self.stats.resident_bytes -= dropped.nbytes
            return dropped is not None

    def invalidate_prefix(self, prefix: Hashable) -> int:
        """Drop every entry namespaced under ``prefix``.

        Key matching is :func:`prefix_matches`: ``(user_key, config,
        weight_digest)`` store keys match on the user key directly or - for
        ``(session_id, layer, head)`` user keys - on the bare session id,
        and scalar store keys match on equality.  Returns the number
        dropped.
        """
        with self._lock:
            doomed = [k for k in self._entries if prefix_matches(k, prefix)]
            for k in doomed:
                self.stats.resident_bytes -= self._entries[k].nbytes
                del self._entries[k]
                del self._last_used[k]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._last_used.clear()
            self.stats.resident_bytes = 0

    def close(self) -> None:
        """Release held resources (no-op here; the paged store drops its
        spill tier).  Part of the shared store surface so owners can close
        whichever kind :func:`make_decode_cache` handed them."""
        self.clear()

    # ------------------------------------------------------- counter helpers
    def record_hit(self, reused_rows: int, appended_rows: int) -> None:
        with self._lock:
            self.stats.hits += 1
            self.stats.rows_reused += reused_rows
            self.stats.rows_appended += appended_rows

    def record_miss(self, invalidated: bool) -> None:
        with self._lock:
            self.stats.misses += 1
            if invalidated:
                self.stats.invalidations += 1
