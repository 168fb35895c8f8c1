"""Paged decode-step cache: refcounted block pool, prefix sharing, spill.

The flat :class:`~repro.engine.cache.DecodeStepCache` stores one monolithic
:class:`~repro.engine.cache.DecodeCacheEntry` per sequence, so two sessions
decoding from the same system prompt each pin a full copy of the prompt's
quantized tokens and ``K_hat`` codes, and byte pressure can only drop whole
entries.  This module is the block-pool analogue of a paged KV cache:

* Entries are decomposed into fixed-size **blocks** of ``block_tokens``
  consecutive rows (tokens, quantized codes and truncated ``K_hat`` codes
  together).  Blocks live in one pool keyed by a SHA-1 **content hash**
  over their exact bytes, dtypes and shapes - two entries reference the
  same block exactly when their per-row state is bit-identical, so
  prefix sharing can never substitute different bits.  (The quantized
  codes depend on the sequence's global max-magnitude token; sharing
  therefore engages when that maximum lives in the shared prefix - the
  common case for a shared system prompt - and safely degrades to
  private blocks otherwise.)
* Blocks are **immutable** and refcounted: growth or divergence of a
  sequence produces new tail blocks and drops references to replaced
  ones (copy-on-write by construction - a shared block is never written
  through).  A put references its new chain *before* it releases the
  old one, so blocks the two chains share are never freed, unlinked
  from the spill tier or re-copied.  A block whose refcount reaches zero
  leaves the pool.
* :meth:`~PagedDecodeCache.get` reads in place: it returns a read-only
  :class:`~repro.engine.cache.DecodeCacheView` of the chain's block
  arrays and concatenates nothing.
* A decode step grows a sequence by a few rows, so ``put`` has an
  **append form**: ``put(key, rows, base=view)`` with the view
  :meth:`~PagedDecodeCache.get` returned and only the new rows.  The
  store leaves the key's unchanged full blocks alone (no refcount or
  recency change), and re-chunks and hashes only the partial tail block
  plus the new rows - O(tail) work instead of re-hashing and re-copying
  the whole sequence.
  The chain it builds is the one a full put would build, so sharing and
  the persist manifest are unchanged.  The append is refused (``False``,
  nothing changed) when the key's chain is no longer the one ``base``
  came from; the caller then puts the whole sequence.
* Under a ``max_bytes`` RAM budget, cold blocks **spill to disk** as
  content-addressed ``.npz`` files instead of being dropped.  The budget
  is a hard invariant: after every operation the resident payload is at
  most ``max_bytes`` - an entry larger than the whole budget ends fully
  spilled (and still servable) rather than silently overshooting.
  Lookups that need spilled blocks reload them (``spill_loads``)
  bit-exactly (the ``.npy`` codec round-trips arrays exactly).
* :meth:`PagedDecodeCache.persist` writes every block plus a manifest to
  ``spill_dir`` so a long-lived session's cache survives a process
  restart: a new cache constructed over the same directory restores the
  entries with all blocks in the spill tier and faults them back in on
  first use.

The public surface is the :class:`~repro.engine.cache.DecodeStepCache`
surface (``get``/``put``/``invalidate``/``invalidate_prefix``/``clear``/
``sweep_expired``/``close`` plus the counter hooks), so the predictor,
engine, and cluster wire protocol are store-blind; construction normally
goes through :func:`~repro.engine.cache.make_decode_cache`.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable

import numpy as np

from repro.engine.cache import (
    ENTRY_FIELDS,
    CacheStats,
    DecodeCacheEntry,
    DecodeCacheView,
    can_append,
    prefix_matches,
)
from repro.obs import get_telemetry

#: name of the restart-survival index written by :meth:`PagedDecodeCache.persist`.
MANIFEST_NAME = "manifest.pkl"

#: layout of the manifest and spill files; version 1 blocks held raw
#: ``K_hat`` rows (``key_values``), version 2 holds truncated codes.
MANIFEST_VERSION = 2


def block_content_hash(rows: tuple[np.ndarray, ...]) -> str:
    """Content address of one block: SHA-1 over bytes, dtypes and shapes.

    Hashing the exact bytes (not a float canonicalization) is what makes
    sharing safe: equal hashes imply the pooled rows are bit-identical to
    the rows an entry would have stored privately.
    """
    digest = hashlib.sha1()
    for array in rows:
        digest.update(_dtype_name(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, which NumPy rebuilds in Python on every call."""
    return str(dtype)


class _Block:
    """One immutable pooled slice of ``block_tokens`` rows.

    ``arrays`` holds the read-only (tokens, tok_values, key_codes) row
    slices while the block is RAM-resident and is ``None`` once spilled;
    ``on_disk`` records whether the content-addressed ``.npz`` file exists
    (a block can be both resident and on disk after a reload or
    :meth:`persist`).
    """

    __slots__ = ("content_hash", "n_rows", "nbytes", "refcount", "arrays", "on_disk")

    def __init__(
        self, content_hash: str, arrays: tuple[np.ndarray, ...] | None, n_rows: int,
        nbytes: int,
    ):
        self.content_hash = content_hash
        self.arrays = arrays
        self.n_rows = n_rows
        self.nbytes = nbytes
        self.refcount = 0
        self.on_disk = arrays is None

    @property
    def resident(self) -> bool:
        return self.arrays is not None


@dataclass(frozen=True)
class _PagedEntry:
    """Per-sequence metadata: the block chain plus scalar entry state.

    ``specs`` records each array's dtype and trailing shape so zero-row
    entries (and the manifest) can rebuild exact array types without any
    block to consult.
    """

    block_hashes: tuple[str, ...]
    seq_len: int
    tok_scale: float
    tok_max_abs: float
    key_max_abs: float
    quantized: bool
    specs: tuple[tuple[str, tuple[int, ...]], ...]


class PagedDecodeCache:
    """Paged drop-in for :class:`~repro.engine.cache.DecodeStepCache`.

    Parameters
    ----------
    block_tokens:
        Rows per block.  Smaller blocks share prefixes at finer grain but
        cost more hash/bookkeeping per entry; the last block of an entry is
        partial.
    max_entries / ttl_s / clock:
        Same semantics as the flat store: whole-entry LRU eviction bound,
        idle TTL (swept lazily on every operation and explicitly via
        :meth:`sweep_expired`), injectable clock.
    max_bytes:
        RAM budget over unique resident block payload (shared blocks count
        once).  Enforced by spilling the coldest blocks to disk - never by
        overshooting and never by dropping data.
    spill_dir:
        Directory for spill files and the :meth:`persist` manifest.  When
        ``None`` a temporary directory is created on first spill and
        removed by :meth:`close`.  A directory already holding a manifest
        restores its entries (all blocks spilled) at construction.
    """

    def __init__(
        self,
        block_tokens: int = 32,
        max_entries: int = 256,
        max_bytes: int | None = None,
        ttl_s: float | None = None,
        spill_dir: str | Path | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None)")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be > 0 (or None)")
        self.block_tokens = block_tokens
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_s = ttl_s
        self._clock = clock
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, _PagedEntry] = OrderedDict()
        self._last_used: dict[Hashable, float] = {}
        #: pool in lookup order - iteration order is coldest-first spill order.
        self._blocks: OrderedDict[str, _Block] = OrderedDict()
        self._lock = threading.RLock()
        self._tmp_dir: tempfile.TemporaryDirectory | None = None
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        if self._spill_dir is not None:
            self._restore()

    # ----------------------------------------------------------- spill tier
    def _spill_root(self) -> Path:
        if self._spill_dir is None:
            self._tmp_dir = tempfile.TemporaryDirectory(prefix="repro-decode-spill-")
            self._spill_dir = Path(self._tmp_dir.name)
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        return self._spill_dir

    def _block_path(self, content_hash: str) -> Path:
        return self._spill_root() / f"{content_hash}.npz"

    def _write_block(self, block: _Block) -> None:
        """Ensure the block's content-addressed spill file exists."""
        if block.on_disk:
            return
        assert block.arrays is not None
        obs = get_telemetry()
        t0 = obs.clock()
        np.savez(self._block_path(block.content_hash),
                 **dict(zip(ENTRY_FIELDS, block.arrays)))
        obs.observe_since("sofa_cache_spill_write_seconds", t0)
        block.on_disk = True

    def _spill_block(self, block: _Block) -> None:
        """Move a block out of RAM (writing it to disk first if needed)."""
        if not block.resident:
            return
        self._write_block(block)
        self._set_arrays(block, None)

    def _read_block(self, block: _Block) -> tuple[np.ndarray, ...] | None:
        """A block's row arrays, read from disk if spilled; None if unreadable.

        Reading does not make a spilled block resident.
        """
        if block.resident:
            return block.arrays
        obs = get_telemetry()
        t0 = obs.clock()
        try:
            with np.load(self._block_path(block.content_hash)) as archive:
                arrays = tuple(archive[name] for name in ENTRY_FIELDS)
        except Exception:
            return None
        for array in arrays:
            array.flags.writeable = False
        obs.observe_since("sofa_cache_spill_load_seconds", t0)
        self.stats.spill_loads += 1
        return arrays

    def _load_block(self, block: _Block) -> bool:
        """Fault a spilled block back into RAM; False if unreadable."""
        if not block.resident:
            self._set_arrays(block, self._read_block(block))
        return block.resident

    def _unlink_block_file(self, block: _Block) -> None:
        if block.on_disk and self._spill_dir is not None:
            self._block_path(block.content_hash).unlink(missing_ok=True)
        block.on_disk = False

    # ---------------------------------------------------------- pool helpers
    # The block gauges of ``stats`` change only where a block changes state:
    # it joins or leaves the pool, its refcount crosses 1, or it moves
    # between RAM and disk.  No operation walks the pool to recount them.
    def _count(self, block: _Block, sign: int) -> None:
        """Add (``sign=1``) or remove (``-1``) one pooled block's gauges."""
        stats = self.stats
        if block.resident:
            stats.resident_blocks += sign
            stats.resident_bytes += sign * block.nbytes
        else:
            stats.spilled_blocks += sign
            stats.spilled_bytes += sign * block.nbytes
        if block.refcount > 1:
            stats.shared_blocks += sign

    def _set_arrays(self, block: _Block, arrays: tuple[np.ndarray, ...] | None) -> None:
        """Move a pooled block between RAM (``arrays``) and disk (``None``)."""
        self._count(block, -1)
        block.arrays = arrays
        self._count(block, 1)

    def _add_block(self, block: _Block) -> None:
        """Pool a new block (refcount 0; the caller references it)."""
        self._blocks[block.content_hash] = block
        self._count(block, 1)

    def _incref(self, block: _Block) -> None:
        block.refcount += 1
        if block.refcount == 2:
            self.stats.shared_blocks += 1

    def _decref(self, content_hash: str) -> None:
        block = self._blocks[content_hash]
        block.refcount -= 1
        assert block.refcount >= 0, "block refcount went negative"
        if block.refcount == 1:
            self.stats.shared_blocks -= 1
        elif block.refcount == 0:
            self._count(block, -1)
            del self._blocks[content_hash]
            self._unlink_block_file(block)

    def _reset_pool(self) -> None:
        """Forget every entry and block; the gauges go back to zero."""
        self._entries.clear()
        self._last_used.clear()
        self._blocks.clear()
        for name in (
            "resident_bytes", "resident_blocks", "shared_blocks",
            "spilled_blocks", "spilled_bytes",
        ):
            setattr(self.stats, name, 0)

    def _drop_entry(self, key: Hashable) -> _PagedEntry:
        entry = self._entries.pop(key)
        del self._last_used[key]
        for content_hash in entry.block_hashes:
            self._decref(content_hash)
        return entry

    def _drop_block_and_owners(self, content_hash: str) -> None:
        """Evict a corrupt block: every entry referencing it becomes a miss."""
        doomed = [
            key for key, entry in self._entries.items()
            if content_hash in entry.block_hashes
        ]
        for key in doomed:
            self._drop_entry(key)
        # _drop_entry decrefs to zero and removes it unless a restore left a
        # stale refcount; drop defensively either way.
        block = self._blocks.pop(content_hash, None)
        if block is not None:
            self._count(block, -1)
            self._unlink_block_file(block)

    def _enforce_budget(self) -> None:
        """Whole-entry LRU count bound, then spill down to ``max_bytes``."""
        while len(self._entries) > self.max_entries:
            oldest = next(iter(self._entries))
            self._drop_entry(oldest)
            self.stats.evictions += 1
        if self.max_bytes is None or self.stats.resident_bytes <= self.max_bytes:
            return
        for block in list(self._blocks.values()):  # coldest first
            self._spill_block(block)
            if self.stats.resident_bytes <= self.max_bytes:
                break

    def _sweep_expired_locked(self, now: float) -> int:
        if self.ttl_s is None:
            return 0
        dropped = 0
        while self._entries:
            key = next(iter(self._entries))
            if now - self._last_used[key] <= self.ttl_s:
                break
            self._drop_entry(key)
            self.stats.expirations += 1
            dropped += 1
        return dropped

    # -------------------------------------------------------- public surface
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def n_blocks(self) -> int:
        with self._lock:
            return len(self._blocks)

    def sweep_expired(self) -> int:
        """Explicitly drop idle-past-TTL entries; returns how many."""
        with self._lock:
            return self._sweep_expired_locked(self._clock())

    def get(self, key: Hashable) -> DecodeCacheView | None:
        """The live entry for ``key``, read in place from its blocks.

        Spilled blocks are faulted back in (counted as ``spill_loads``).
        The returned :class:`~repro.engine.cache.DecodeCacheView` holds the
        chain's read-only block arrays, so callers can never write through
        to pooled blocks, and nothing is concatenated.  An unreadable
        spill file demotes every entry referencing that block to a miss.
        """
        obs = get_telemetry()
        t0 = obs.clock()
        entry = self._get_entry(key)
        obs.observe_since("sofa_cache_lookup_seconds", t0)
        return entry

    def _get_entry(self, key: Hashable) -> DecodeCacheView | None:
        with self._lock:
            now = self._clock()
            self._sweep_expired_locked(now)
            entry = self._entries.get(key)
            if entry is None:
                return None
            blocks = self._blocks
            per_block = []
            for content_hash in entry.block_hashes:
                block = blocks[content_hash]
                if block.arrays is None and not self._load_block(block):
                    self._drop_block_and_owners(content_hash)
                    return None
                blocks.move_to_end(content_hash)
                per_block.append(block.arrays)
            self._entries.move_to_end(key)
            self._last_used[key] = now
            # A block spilled here stays readable through the view, which
            # holds its arrays.
            self._enforce_budget()
            return DecodeCacheView(
                seq_len=entry.seq_len,
                tok_scale=entry.tok_scale,
                tok_max_abs=entry.tok_max_abs,
                key_max_abs=entry.key_max_abs,
                quantized=entry.quantized,
                columns=tuple(zip(*per_block)) or ((),) * len(ENTRY_FIELDS),
                specs=entry.specs,
                source=entry,
            )

    def put(
        self,
        key: Hashable,
        entry: DecodeCacheEntry,
        *,
        base: DecodeCacheView | None = None,
    ) -> bool:
        """Store ``entry``'s chain for ``key``; with ``base``, append to it.

        A full put decomposes ``entry`` into ``block_tokens``-row slices:
        slices whose content hash is already pooled are shared (their
        refcount grows), new content gets fresh immutable copies.  With
        ``base`` - the view :meth:`get` returned for ``key`` - ``entry``
        holds only the rows appended past ``base.seq_len``.  The store
        then builds the grown chain itself: it leaves the key's unchanged
        full blocks alone (their references, hashes and recency, which
        the get refreshed), reads the partial tail block (from the spill
        tier if it has spilled), pools tail + new rows and releases only
        the old tail block.  An append therefore hashes ``ceil((tail +
        new) / block_tokens)`` blocks and touches no other block.  The
        chain is the one a full put of the grown sequence would build,
        block for block.

        Either way the new blocks are referenced before old ones are
        released, so blocks the two chains share are never freed, unlinked
        from the spill tier or re-copied.  Returns ``False`` and changes
        nothing when an append cannot apply: the rows cannot extend
        ``base`` (:func:`~repro.engine.cache.can_append`), the key's chain
        is no longer the one ``base`` was read from (replaced,
        invalidated, expired, evicted, or put by another thread in
        between), or its tail block's spill file is unreadable (the key is
        then dropped, as :meth:`get` would).  Callers fall back to a full
        put.
        """
        if base is not None and not can_append(base, entry):
            return False
        rows_of = tuple(np.ascontiguousarray(getattr(entry, name)) for name in ENTRY_FIELDS)
        with self._lock:
            now = self._clock()
            self._sweep_expired_locked(now)
            old = self._entries.get(key)
            kept: tuple[str, ...] = ()
            released: tuple[str, ...] = old.block_hashes if old is not None else ()
            seq_len = entry.seq_len
            if base is not None:
                if old is None or base.source is not old:
                    return False
                n_full = old.seq_len // self.block_tokens
                kept, released = old.block_hashes[:n_full], old.block_hashes[n_full:]
                if released:
                    tail = self._read_block(self._blocks[released[0]])
                    if tail is None:
                        self._drop_block_and_owners(released[0])
                        return False
                    rows_of = tuple(
                        np.concatenate([t, r]) for t, r in zip(tail, rows_of)
                    )
                seq_len += old.seq_len
            hashes = list(kept)
            for lo in range(0, rows_of[0].shape[0], self.block_tokens):
                slices = tuple(a[lo : lo + self.block_tokens] for a in rows_of)
                hashes.append(self._pool(slices))
            for content_hash in released:
                self._decref(content_hash)
            self._entries[key] = _PagedEntry(
                block_hashes=tuple(hashes),
                seq_len=seq_len,
                tok_scale=entry.tok_scale,
                tok_max_abs=entry.tok_max_abs,
                key_max_abs=entry.key_max_abs,
                quantized=entry.quantized,
                specs=tuple((_dtype_name(a.dtype), a.shape[1:]) for a in rows_of),
            )
            self._entries.move_to_end(key)
            self._last_used[key] = now
            self._enforce_budget()
            return True

    def _pool(self, slices: tuple[np.ndarray, ...]) -> str:
        """Reference the pooled block holding ``slices``; returns its hash.

        A block already pooled keeps its place in the spill order: only
        :meth:`get` refreshes recency, so a full put and an append of the
        same rows leave the same order.
        """
        content_hash = block_content_hash(slices)
        block = self._blocks.get(content_hash)
        if block is None:
            copies = tuple(s.copy() for s in slices)
            for copy in copies:
                copy.flags.writeable = False
            block = _Block(
                content_hash,
                copies,
                n_rows=copies[0].shape[0],
                nbytes=sum(c.nbytes for c in copies),
            )
            self._add_block(block)
        self._incref(block)
        return content_hash

    def invalidate(self, key: Hashable) -> bool:
        """Explicitly drop one sequence's state (e.g. its session ended)."""
        with self._lock:
            if key not in self._entries:
                return False
            self._drop_entry(key)
            return True

    def invalidate_prefix(self, prefix: Hashable) -> int:
        """Drop every entry matching ``prefix``; see
        :func:`~repro.engine.cache.prefix_matches` for the key shapes."""
        with self._lock:
            doomed = [k for k in self._entries if prefix_matches(k, prefix)]
            for key in doomed:
                self._drop_entry(key)
            return len(doomed)

    def clear(self) -> None:
        """Drop every entry, block and spill file (a restart over the same
        ``spill_dir`` after a clear sees an empty cache)."""
        with self._lock:
            for block in self._blocks.values():
                self._unlink_block_file(block)
            self._reset_pool()
            if self._spill_dir is not None:
                (self._spill_dir / MANIFEST_NAME).unlink(missing_ok=True)

    def close(self) -> None:
        """Release the spill tier.

        An owned temporary directory is removed; an explicit ``spill_dir``
        is left intact so a :meth:`persist`-ed cache survives the process.
        """
        with self._lock:
            self._reset_pool()
            if self._tmp_dir is not None:
                self._tmp_dir.cleanup()
                self._tmp_dir = None
                self._spill_dir = None

    # ------------------------------------------------------- counter helpers
    def record_hit(
        self, reused_rows: int, appended_rows: int, rescaled: bool = False
    ) -> None:
        with self._lock:
            self.stats.hits += 1
            self.stats.rows_reused += reused_rows
            self.stats.rows_appended += appended_rows
            self.stats.rescales += rescaled

    def record_miss(self, invalidated: bool) -> None:
        with self._lock:
            self.stats.misses += 1
            if invalidated:
                self.stats.invalidations += 1

    # --------------------------------------------------- restart survival
    def persist(self) -> Path:
        """Write every live block plus the entry manifest to ``spill_dir``.

        Blocks stay RAM-resident (persisting is not spilling); a new
        :class:`PagedDecodeCache` constructed over the same directory
        restores the manifest with every block in the spill tier.  Returns
        the manifest path.  Store keys must be picklable (the documented
        key shapes - tuples of strings/ints/configs - are).
        """
        with self._lock:
            root = self._spill_root()
            for block in self._blocks.values():
                self._write_block(block)
            manifest = {
                "version": MANIFEST_VERSION,
                "block_tokens": self.block_tokens,
                "blocks": {
                    h: (b.n_rows, b.nbytes) for h, b in self._blocks.items()
                },
                "entries": [
                    (key, entry) for key, entry in self._entries.items()
                ],
            }
            path = root / MANIFEST_NAME
            with open(path, "wb") as fh:
                pickle.dump(manifest, fh)
            return path

    def _restore(self) -> None:
        """Adopt a persisted manifest, if the spill dir holds a valid one.

        Restored entries start with every block in the spill tier (RAM
        empty) and fault blocks back in on first :meth:`get`.  A missing
        or unreadable manifest, one of another :data:`MANIFEST_VERSION`
        (its blocks hold another layout), one written at another
        ``block_tokens`` (an append relies on every chain being cut at
        this cache's block size), or an entry whose spill files vanished
        is skipped silently: restoring is an optimization, never a
        correctness dependency (the worst case is a recompute).
        """
        assert self._spill_dir is not None
        path = self._spill_dir / MANIFEST_NAME
        if not path.exists():
            return
        try:
            with open(path, "rb") as fh:
                manifest = pickle.load(fh)
            if manifest.get("version") != MANIFEST_VERSION:
                return
            if manifest.get("block_tokens") != self.block_tokens:
                return
            blocks = manifest["blocks"]
            entries = manifest["entries"]
        except Exception:
            return
        now = self._clock()
        for key, entry in entries:
            if not isinstance(entry, _PagedEntry):
                continue
            if not all(
                h in blocks and self._block_path(h).exists()
                for h in entry.block_hashes
            ):
                continue
            for h in entry.block_hashes:
                block = self._blocks.get(h)
                if block is None:
                    n_rows, nbytes = blocks[h]
                    block = _Block(h, None, n_rows=n_rows, nbytes=nbytes)
                    self._add_block(block)
                self._incref(block)
            self._entries[key] = entry
            self._last_used[key] = now
        self._enforce_budget()
