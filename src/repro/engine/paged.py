"""Paged decode-step cache: refcounted block pool, prefix sharing, spill.

Storing one monolithic :class:`~repro.engine.cache.DecodeCacheEntry` per
sequence would make two sessions decoding from the same system prompt each
pin a full copy of the prompt's quantized tokens and ``K_hat`` codes, and
byte pressure could only drop whole entries.  This module is the
block-pool analogue of a paged KV cache:

* Entries are decomposed into fixed-size **blocks** of ``block_tokens``
  consecutive rows (tokens, quantized codes and truncated ``K_hat`` codes
  together).  Full blocks live in one pool keyed by a SHA-1 **content
  hash** over their exact bytes, dtypes and shapes - two entries
  reference the same block exactly when their per-row state is
  bit-identical, so prefix sharing can never substitute different bits.
  (The quantized codes depend on the sequence's global max-magnitude
  token; sharing therefore engages when that maximum lives in the shared
  prefix - the common case for a shared system prompt - and safely
  degrades to private blocks otherwise.)
* A sequence's partial last block is its **private tail**: block-sized
  arrays preallocated for the key, which appends fill in place.  It is
  never hashed while it grows.  When it fills up it is hashed once and
  pooled; when the byte budget spills it, or :meth:`persist` writes it,
  it is first **frozen** into a pooled (content-addressed) partial block.
  A chain whose last block is such a pooled partial block (frozen, or
  restored from disk) gets a fresh private tail on its next append.
* Pooled blocks are **immutable** and refcounted: growth or divergence
  of a sequence produces new blocks and drops references to replaced
  ones (copy-on-write by construction - a shared block is never written
  through; a tail is never shared, and its filled rows never change).
  A put references its new chain *before* it releases the old one, so
  blocks the two chains share are never freed, unlinked from the spill
  tier or re-copied.  A block whose refcount reaches zero leaves the
  pool.
* :meth:`~PagedDecodeCache.get` reads in place: it returns a read-only
  :class:`~repro.engine.cache.DecodeCacheView` of the chain's block
  arrays and concatenates nothing.
* A decode step grows a sequence by a few rows, so ``put`` has an
  **append form**: ``put(key, rows, base=view)`` with the view
  :meth:`~PagedDecodeCache.get` returned and only the new rows.  The
  store leaves the key's unchanged full blocks alone (no refcount or
  recency change), writes the new rows into the private tail and hashes
  only the blocks that become full - O(new rows) work instead of
  re-hashing and re-copying the sequence.  The chain it builds is the
  one a full put would build, so sharing and the persist manifest are
  unchanged.  The append is refused (``False``, nothing changed) when
  the key's chain is no longer the one ``base`` came from; the caller
  then puts the whole sequence.
* A **projection arena** keeps the float K/V projections of the rows:
  one growable float64 array per row width, cut into block-sized slots.
  A block (pooled or tail) owns one slot per projection digest - a
  digest of the float weights the rows were projected with - so two
  weight sets never read each other's rows.  A projected row depends
  only on the token row, the matrix and the BLAS kernel, so a stored row
  is bit-identical to projecting the row again.
  :meth:`~PagedDecodeCache.gather_projected` reads the selected rows of
  every keyed head of a call through their chains' block tables with one
  ``np.take``; :meth:`~PagedDecodeCache.store_projected` writes the rows
  the caller had to project back.  Every slot carries a generation: a
  slot released (its block left the pool) and reused between a gather
  and the write-back is never written with another block's rows, and a
  stale table reads nothing from it.
* Under a ``max_bytes`` RAM budget, projections are dropped first (they
  can always be recomputed), then cold blocks **spill to disk** as
  content-addressed ``.npz`` files instead of being dropped.  The budget
  is a hard invariant: after every operation the resident payload is at
  most ``max_bytes`` - an entry larger than the whole budget ends fully
  spilled (and still servable) rather than silently overshooting.
  Lookups that need spilled blocks reload them (``spill_loads``)
  bit-exactly (the ``.npy`` codec round-trips arrays exactly).  A
  reloaded block is re-hashed; a file whose content no longer matches its
  name is treated like an unreadable one.  Projections are never spilled
  or persisted.
* :meth:`PagedDecodeCache.persist` writes every block plus a manifest to
  ``spill_dir`` so a long-lived session's cache survives a process
  restart: a new cache constructed over the same directory restores the
  entries with all blocks in the spill tier and faults them back in on
  first use.

The public surface is ``get``/``put``/``invalidate``/``invalidate_prefix``/
``clear``/``sweep_expired``/``close``, the ``gather_projected``/
``store_projected`` pair, plus the ``record_hit``/``record_miss`` counter
hooks the predictor calls.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.engine.cache import (
    ENTRY_FIELDS,
    CacheStats,
    DecodeCacheEntry,
    DecodeCacheView,
    as_bits,
    can_append,
    dtype_name,
    nan_free,
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
        digest.update(dtype_name(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


def _read_only(arrays) -> tuple[np.ndarray, ...]:
    arrays = tuple(arrays)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _fingerprint(rows: tuple[np.ndarray, ...]) -> int:
    """A cheap key of a block's content: its first token row's bytes."""
    return hash(rows[0][:1].tobytes())


def _same_rows(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> bool:
    """Do two blocks' C-contiguous arrays hold the same dtypes, shapes and
    bits?  Then their content hashes are equal too."""
    return all(
        x.dtype == y.dtype and x.shape == y.shape and (as_bits(x) == as_bits(y)).all()
        for x, y in zip(a, b)
    )


class _Block:
    """One slice of at most ``block_tokens`` rows of a chain.

    A pooled block is immutable and keyed by its content hash.  A private
    tail (``buffers`` set) is keyed ``("tail", key)`` and holds writable
    block-sized ``buffers`` whose first ``n_rows`` rows are filled.
    ``arrays`` holds the read-only (tokens, tok_values, key_codes) row
    slices while the block is RAM-resident and is ``None`` once spilled
    (a tail is never spilled: it is frozen first); ``on_disk`` records
    whether the content-addressed ``.npz`` file exists (a block can be
    both resident and on disk after a reload or :meth:`persist`).
    ``slots`` maps a projection digest to the block's ``(width, slot,
    generation)`` in the projection arena.  ``nan_free`` caches whether
    the block's tokens hold no NaN (``None`` until a lookup needs it).
    ``fingerprint`` is the key it is indexed under for lookups by content
    (``None`` if it is not indexed).
    """

    __slots__ = (
        "content_hash", "n_rows", "nbytes", "refcount", "arrays", "on_disk",
        "buffers", "slots", "nan_free", "fingerprint",
    )

    def __init__(
        self, content_hash: Hashable, arrays: tuple[np.ndarray, ...] | None,
        n_rows: int, nbytes: int, buffers: tuple[np.ndarray, ...] | None = None,
    ):
        self.content_hash = content_hash
        self.arrays = arrays
        self.n_rows = n_rows
        self.nbytes = nbytes
        self.refcount = 0
        self.on_disk = arrays is None
        self.buffers = buffers
        self.slots: dict[str, tuple[int, int, int]] = {}
        self.nan_free: bool | None = None
        self.fingerprint: int | None = None

    @property
    def resident(self) -> bool:
        return self.arrays is not None

    @property
    def private(self) -> bool:
        return self.buffers is not None


@dataclass(frozen=True)
class _PagedEntry:
    """Per-sequence metadata: the block chain plus scalar entry state.

    ``blocks`` are the chain's block objects, in ``block_hashes`` order
    (not persisted: a restore looks them up by hash).  ``specs`` records
    each array's dtype and trailing shape so zero-row entries (and the
    manifest) can rebuild exact array types without any block to consult.
    """

    block_hashes: tuple[Hashable, ...]
    seq_len: int
    tok_scale: float
    tok_max_abs: float
    key_max_abs: float
    quantized: bool
    specs: tuple[tuple[str, tuple[int, ...]], ...]
    blocks: tuple[_Block, ...] = field(default=(), compare=False, repr=False)


#: what a block without a projection slot reads: (width, slot, generation)
_NO_SLOT = (0, -1, 0)


class _Arena:
    """Projected rows of one row width, in slots of ``block_tokens`` rows.

    ``gens[slot]`` is the generation the slot was last assigned with (0
    while free); ``filled`` marks the rows written since.
    """

    __slots__ = ("width", "rows", "filled", "gens", "free", "used")

    def __init__(self, width: int):
        self.width = width
        self.rows = np.empty((0, width))
        self.filled = np.zeros(0, dtype=bool)
        self.gens = np.zeros(0, dtype=np.int64)
        self.free: list[int] = []
        self.used = 0

    @property
    def capacity(self) -> int:
        return self.gens.shape[0]

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.filled.nbytes + self.gens.nbytes


@dataclass(frozen=True)
class ProjectedRows:
    """What :meth:`PagedDecodeCache.gather_projected` read for one call.

    ``rows[r]`` is row ``r``'s stored projection where ``found[r]`` (and
    unspecified elsewhere).  ``index``/``gens`` are each row's arena row
    (``-1`` for a row with no slot) and its slot's generation, which
    :meth:`PagedDecodeCache.store_projected` checks before it writes.
    """

    rows: np.ndarray
    found: np.ndarray
    index: np.ndarray
    gens: np.ndarray
    arena: _Arena


class PagedDecodeCache:
    """The decode-step store: a refcounted block pool with disk spill.

    Parameters
    ----------
    block_tokens:
        Rows per block.  Smaller blocks share prefixes at finer grain but
        cost more hash/bookkeeping per entry; the last block of an entry is
        partial.
    max_entries / ttl_s / clock:
        Whole-entry LRU eviction bound, idle TTL (swept lazily on every
        operation and explicitly via :meth:`sweep_expired`), injectable
        clock.
    max_bytes:
        RAM budget over unique resident block payload (shared blocks count
        once, a private tail at its preallocated size) plus the projection
        arena.  Enforced by dropping projections, then by spilling the
        coldest blocks to disk - never by overshooting and never by
        dropping data.
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
        self._blocks: OrderedDict[Hashable, _Block] = OrderedDict()
        #: resident pooled blocks by :func:`_fingerprint`, so a put finds a
        #: block it already holds by one bit compare instead of a SHA-1
        self._prints: dict[int, _Block] = {}
        #: projection arenas by row width
        self._arenas: dict[int, _Arena] = {}
        #: slot generations, unique over the cache's life (0 marks a free slot)
        self._generations = itertools.count(1)
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
        assert block.arrays is not None and not block.private
        obs = get_telemetry()
        t0 = obs.clock()
        np.savez(self._block_path(block.content_hash),
                 **dict(zip(ENTRY_FIELDS, block.arrays)))
        obs.observe_since("sofa_cache_spill_write_seconds", t0)
        block.on_disk = True

    def _spill_block(self, block: _Block) -> None:
        """Move a pooled block out of RAM (writing it to disk first if needed)."""
        if not block.resident:
            return
        self._write_block(block)
        self._set_arrays(block, None)

    def _read_block(self, block: _Block) -> tuple[np.ndarray, ...] | None:
        """A block's row arrays, read from disk if spilled; None if unreadable.

        A spill file is trusted only if its arrays hash to the block's
        content hash: a file that parses but holds other rows (another
        block's, or altered codes) is unreadable too.  Reading does not
        make a spilled block resident.
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
        if block_content_hash(arrays) != block.content_hash:
            return None
        obs.observe_since("sofa_cache_spill_load_seconds", t0)
        self.stats.spill_loads += 1
        return _read_only(arrays)

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
        """Pool a new block (the caller references it)."""
        self._blocks[block.content_hash] = block
        self._count(block, 1)
        if block.resident and not block.private:
            block.fingerprint = _fingerprint(block.arrays)
            self._prints.setdefault(block.fingerprint, block)

    def _remove_block(self, block: _Block) -> None:
        """Take a block out of the pool: gauges, spill file, index, slots."""
        self._count(block, -1)
        del self._blocks[block.content_hash]
        if self._prints.get(block.fingerprint) is block:
            del self._prints[block.fingerprint]
        self._unlink_block_file(block)
        self._release_slots(block)
        block.refcount = 0

    def _lookup(self, rows: tuple[np.ndarray, ...]) -> tuple[_Block | None, str]:
        """The pooled block holding exactly ``rows`` (or ``None``) and
        their content hash.  A resident block indexed under the rows'
        fingerprint is checked bit for bit first; only when that fails are
        the rows hashed."""
        candidate = self._prints.get(_fingerprint(rows))
        if candidate is not None and candidate.resident and _same_rows(candidate.arrays, rows):
            return candidate, candidate.content_hash
        content_hash = block_content_hash(rows)
        return self._blocks.get(content_hash), content_hash

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
            self._remove_block(block)

    def _release(self, block: _Block) -> None:
        """Drop one chain's reference to ``block`` (a tail leaves the pool)."""
        if block.private:
            self._remove_block(block)
        else:
            self._decref(block.content_hash)

    def _reset_pool(self) -> None:
        """Forget every entry, block and projection; the gauges go back to zero."""
        self._entries.clear()
        self._last_used.clear()
        self._blocks.clear()
        self._prints.clear()
        self._arenas.clear()
        for name in (
            "resident_bytes", "resident_blocks", "shared_blocks",
            "spilled_blocks", "spilled_bytes", "projection_bytes",
        ):
            setattr(self.stats, name, 0)

    def _drop_entry(self, key: Hashable) -> _PagedEntry:
        entry = self._entries.pop(key)
        del self._last_used[key]
        for block in entry.blocks:
            self._release(block)
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
        block = self._blocks.get(content_hash)
        if block is not None:
            self._remove_block(block)

    def _enforce_budget(self) -> None:
        """Whole-entry LRU count bound, then projections, then spill down
        to ``max_bytes``."""
        while len(self._entries) > self.max_entries:
            oldest = next(iter(self._entries))
            self._drop_entry(oldest)
            self.stats.evictions += 1
        if self.max_bytes is None or self.stats.resident_bytes <= self.max_bytes:
            return
        self._drop_projections()
        for block in list(self._blocks.values()):  # coldest first
            if self.stats.resident_bytes <= self.max_bytes:
                break
            if block.private:
                block = self._freeze(block)
            self._spill_block(block)

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

    # ------------------------------------------------------- private tails
    def _new_tail(self, key: Hashable, rows_of: tuple[np.ndarray, ...]) -> _Block:
        """Pool ``rows_of`` (fewer than a block) as ``key``'s private tail."""
        buffers = tuple(
            np.empty((self.block_tokens, *a.shape[1:]), dtype=a.dtype) for a in rows_of
        )
        n = rows_of[0].shape[0]
        for buffer, rows in zip(buffers, rows_of):
            buffer[:n] = rows
        tail = _Block(
            ("tail", key),
            _read_only(b[:n] for b in buffers),
            n_rows=n,
            nbytes=sum(b.nbytes for b in buffers),
            buffers=buffers,
        )
        tail.refcount = 1
        self._add_block(tail)
        return tail

    def _fill_tail(self, tail: _Block, rows_of: tuple[np.ndarray, ...]) -> None:
        """Write ``rows_of`` after the tail's filled rows, in place.

        Rows already filled never change, so views handed out earlier
        keep reading the same bits.
        """
        lo, hi = tail.n_rows, tail.n_rows + rows_of[0].shape[0]
        for buffer, rows in zip(tail.buffers, rows_of):
            buffer[lo:hi] = rows
        tail.n_rows = hi
        tail.arrays = _read_only(b[:hi] for b in tail.buffers)
        if tail.nan_free:
            tail.nan_free = nan_free(rows_of[0])

    def _seal(self, tail: _Block) -> _Block:
        """Hash a private tail and pool it; returns the pooled block.

        When that content is already pooled the tail is dropped and the
        pooled block gains a reference.  Otherwise the tail object itself
        becomes the pooled block and keeps its projection slots (its rows
        do not change), so tables read from it stay valid.  A partial
        tail's rows are copied to their exact size.
        """
        arrays = tail.arrays
        if tail.n_rows < self.block_tokens:
            arrays = _read_only(a.copy() for a in arrays)
        existing, content_hash = self._lookup(arrays)
        if existing is not None:
            self._remove_block(tail)
            self._incref(existing)
            return existing
        self._count(tail, -1)
        del self._blocks[tail.content_hash]
        tail.content_hash = content_hash
        tail.arrays = arrays
        tail.buffers = None
        tail.nbytes = sum(a.nbytes for a in arrays)
        self._add_block(tail)
        return tail

    def _freeze(self, tail: _Block) -> _Block:
        """Turn a private tail into a pooled partial block (to spill or
        persist it); its owner's record is replaced with the new chain."""
        key = tail.content_hash[1]
        entry = self._entries[key]
        pooled = self._seal(tail)
        self._entries[key] = replace(
            entry,
            block_hashes=entry.block_hashes[:-1] + (pooled.content_hash,),
            blocks=entry.blocks[:-1] + (pooled,),
        )
        return pooled

    # ---------------------------------------------------- projection arena
    def _slot_bytes(self, width: int) -> int:
        return self.block_tokens * (8 * width + 1) + 8

    def _grow(self, arena: _Arena) -> bool:
        """Add slots to ``arena`` within the byte budget; False if none fit."""
        cap = arena.capacity
        new = cap + max(cap // 2, 8)
        slot_bytes = self._slot_bytes(arena.width)
        if self.max_bytes is not None:
            room = (self.max_bytes - self.stats.resident_bytes) // slot_bytes
            new = min(new, cap + room)
        if new <= cap:
            return False
        bt = self.block_tokens
        rows = np.empty((new * bt, arena.width))
        rows[: cap * bt] = arena.rows
        filled = np.zeros(new * bt, dtype=bool)
        filled[: cap * bt] = arena.filled
        gens = np.zeros(new, dtype=np.int64)
        gens[:cap] = arena.gens
        before = arena.nbytes
        arena.rows, arena.filled, arena.gens = rows, filled, gens
        arena.free.extend(range(new - 1, cap - 1, -1))  # lowest slot first
        self._count_arena(arena.nbytes - before)
        return True

    def _count_arena(self, delta: int) -> None:
        self.stats.resident_bytes += delta
        self.stats.projection_bytes += delta

    def _assign_slot(self, block: _Block, digest: str, arena: _Arena) -> tuple[int, int, int]:
        """Give ``block`` a slot for ``digest``: its ``(width, slot,
        generation)``, or ``_NO_SLOT`` for a block no longer in the pool or
        when the budget leaves no room."""
        if self._blocks.get(block.content_hash) is not block:
            return _NO_SLOT
        if not arena.free and not self._grow(arena):
            return _NO_SLOT
        slot = arena.free.pop()
        gen = next(self._generations)
        bt = self.block_tokens
        arena.gens[slot] = gen
        arena.filled[slot * bt : (slot + 1) * bt] = False
        arena.used += 1
        found = block.slots[digest] = (arena.width, slot, gen)
        return found

    def _release_slots(self, block: _Block) -> None:
        """Free ``block``'s slots; an arena left with none is dropped."""
        for width, slot, gen in block.slots.values():
            arena = self._arenas.get(width)
            if arena is None or slot >= arena.capacity or arena.gens[slot] != gen:
                continue
            arena.gens[slot] = 0
            arena.free.append(slot)
            arena.used -= 1
            if arena.used == 0:
                del self._arenas[width]
                self._count_arena(-arena.nbytes)
        block.slots.clear()

    def _drop_projections(self) -> None:
        """Drop every projected row: budget pressure takes them first."""
        if not self._arenas:
            return
        for arena in self._arenas.values():
            self._count_arena(-arena.nbytes)
        self._arenas.clear()
        for block in self._blocks.values():
            block.slots.clear()

    def gather_projected(
        self,
        chains: Sequence[_PagedEntry | None],
        digests: Sequence[str],
        width: int,
        head_idx: np.ndarray,
        tok_idx: np.ndarray,
    ) -> ProjectedRows:
        """Read stored projections of the selected rows of a head stack.

        ``chains[i]`` is what :meth:`put` returned for head ``i`` in this
        call (``None`` for a head without a key) and ``digests[i]`` names
        the float weights its ``width``-wide rows are projected with.  Row
        ``r`` is token ``tok_idx[r]`` of head ``head_idx[r]``.  Each keyed
        head's block table (one slot per block of its chain) is read,
        assigning slots on first use, and all rows come out of one
        ``np.take`` over ``slot * block_tokens + row``.  A row is
        ``found`` only if its slot still holds the generation the table
        read and the row was written since.
        """
        bt = self.block_tokens
        n_rows = head_idx.shape[0]
        with self._lock:
            arena = self._arenas.get(width)
            if arena is None:
                arena = self._arenas[width] = _Arena(width)
            offsets = np.full(len(chains), -1, dtype=np.int64)
            slots: list[int] = []
            gens: list[int] = []
            for i, chain in enumerate(chains):
                if chain is None:
                    continue
                offsets[i] = len(slots)
                digest = digests[i]
                for block in chain.blocks:
                    found = block.slots.get(digest) or self._assign_slot(block, digest, arena)
                    slots.append(found[1])
                    gens.append(found[2])
            if arena.used == 0:  # nothing could be placed
                del self._arenas[width]
            slots.append(-1)  # what rows of keyless heads read
            gens.append(0)
            row_off = offsets[head_idx]
            keyed = row_off >= 0
            entry = np.where(keyed, row_off + tok_idx // bt, len(slots) - 1)
            row_slot = np.array(slots, dtype=np.int64)[entry]
            row_gen = np.array(gens, dtype=np.int64)[entry]
            index = np.where(row_slot >= 0, row_slot * bt + tok_idx % bt, -1)
            found = (index >= 0) & (row_slot < arena.capacity)
            hit = np.flatnonzero(found)
            found[hit] = arena.filled[index[hit]] & (arena.gens[row_slot[hit]] == row_gen[hit])
            if arena.capacity:
                rows = arena.rows.take(np.where(found, index, 0), axis=0)
            else:
                rows = np.empty((n_rows, width))
            n_found = int(np.count_nonzero(found))
            self.stats.projection_hits += n_found
            self.stats.projection_misses += int(np.count_nonzero(keyed)) - n_found
        return ProjectedRows(rows=rows, found=found, index=index, gens=row_gen, arena=arena)

    def store_projected(
        self, gathered: ProjectedRows, which: np.ndarray, rows: np.ndarray
    ) -> None:
        """Write ``rows`` - the projections of rows ``which`` of a
        :meth:`gather_projected` - into the slots that still hold the
        generation the gather read; every other row is left unstored."""
        bt = self.block_tokens
        with self._lock:
            arena = gathered.arena
            if self._arenas.get(arena.width) is not arena:
                return  # dropped since the gather
            index = gathered.index[which]
            ok = index >= 0
            at = np.flatnonzero(ok)
            ok[at] = arena.gens[index[at] // bt] == gathered.gens[which][at]
            arena.rows[index[ok]] = rows[ok]
            arena.filled[index[ok]] = True

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
            clean = True
            for block in entry.blocks:
                if block.arrays is None and not self._load_block(block):
                    self._drop_block_and_owners(block.content_hash)
                    return None
                blocks.move_to_end(block.content_hash)
                per_block.append(block.arrays)
                if block.nan_free is None:
                    block.nan_free = nan_free(block.arrays[0])
                clean = clean and block.nan_free
            self._entries.move_to_end(key)
            self._last_used[key] = now
            # A block spilled here stays readable through the view, which
            # holds its arrays; a tail frozen here makes a new record.
            self._enforce_budget()
            entry = self._entries[key]
            return DecodeCacheView(
                seq_len=entry.seq_len,
                tok_scale=entry.tok_scale,
                tok_max_abs=entry.tok_max_abs,
                key_max_abs=entry.key_max_abs,
                quantized=entry.quantized,
                columns=tuple(zip(*per_block)) or ((),) * len(ENTRY_FIELDS),
                specs=entry.specs,
                nan_free=clean,
                source=entry,
            )

    def put(
        self,
        key: Hashable,
        entry: DecodeCacheEntry,
        *,
        base: DecodeCacheView | None = None,
    ) -> _PagedEntry | bool:
        """Store ``entry``'s chain for ``key``; with ``base``, append to it.

        A full put decomposes ``entry`` into ``block_tokens``-row slices:
        full slices whose content hash is already pooled are shared (their
        refcount grows), new content gets fresh immutable copies, and a
        partial last slice becomes the key's private tail.  With ``base``
        - the view :meth:`get` returned for ``key`` - ``entry`` holds only
        the rows appended past ``base.seq_len``.  The store then builds
        the grown chain itself: it leaves the key's unchanged full blocks
        alone (their references, hashes and recency, which the get
        refreshed) and writes the new rows into the private tail in place
        (a pooled partial last block - frozen or restored - is read, from
        the spill tier if it has spilled, into a fresh tail and
        released).  Only blocks that become full are hashed and pooled, so
        an append hashes at most ``ceil((tail + new) / block_tokens)``
        blocks and touches no other block.  The chain is the one a full
        put of the grown sequence would build, block for block.

        Either way the new blocks are referenced before old ones are
        released, so blocks the two chains share are never freed, unlinked
        from the spill tier or re-copied.  Returns the stored chain
        record - the ``source`` of views a later :meth:`get` returns, and
        what :meth:`gather_projected` reads block tables from - which is
        truthy.  Returns ``False`` and changes nothing when an append
        cannot apply: the rows cannot extend ``base``
        (:func:`~repro.engine.cache.can_append`), the key's chain is no
        longer the one ``base`` was read from (replaced, invalidated,
        expired, evicted, or put by another thread in between), or its
        pooled last block's spill file is unreadable (the key is then
        dropped, as :meth:`get` would).  Callers fall back to a full put.
        """
        if base is not None and not can_append(base, entry):
            return False
        rows_of = tuple(np.ascontiguousarray(getattr(entry, name)) for name in ENTRY_FIELDS)
        bt = self.block_tokens
        with self._lock:
            now = self._clock()
            self._sweep_expired_locked(now)
            old = self._entries.get(key)
            kept: tuple[_Block, ...] = ()
            kept_hashes: tuple[Hashable, ...] = ()
            blocks: list[_Block] = []  # the chain's blocks past ``kept``
            released: tuple[_Block, ...] = old.blocks if old is not None else ()
            seq_len = entry.seq_len
            if base is not None:
                if old is None or base.source is not old:
                    return False
                specs = old.specs  # can_append checked the rows against them
                n_full = old.seq_len // bt
                kept, released = old.blocks[:n_full], old.blocks[n_full:]
                kept_hashes = old.block_hashes[:n_full]
                seq_len += old.seq_len
                if released and released[0].private:
                    tail, released = released[0], ()
                    take = min(bt - tail.n_rows, rows_of[0].shape[0])
                    self._fill_tail(tail, tuple(a[:take] for a in rows_of))
                    rows_of = tuple(a[take:] for a in rows_of)
                    if tail.n_rows == bt:
                        blocks.append(self._seal(tail))
                    else:
                        # Where a full put would pool its new tail: last.
                        self._blocks.move_to_end(tail.content_hash)
                        blocks.append(tail)
                elif released:
                    pooled = self._read_block(released[0])
                    if pooled is None:
                        self._drop_block_and_owners(released[0].content_hash)
                        return False
                    rows_of = tuple(np.concatenate([t, r]) for t, r in zip(pooled, rows_of))
            else:
                specs = tuple((dtype_name(a.dtype), a.shape[1:]) for a in rows_of)
                if released and released[-1].private:
                    # The new tail takes the old one's name: drop it first
                    # (a tail is never shared, so nothing else reads it).
                    self._remove_block(released[-1])
                    released = released[:-1]
            n = rows_of[0].shape[0]
            n_pooled = n - n % bt
            for lo in range(0, n_pooled, bt):
                blocks.append(self._pool(tuple(a[lo : lo + bt] for a in rows_of)))
            if n_pooled < n:
                blocks.append(self._new_tail(key, tuple(a[n_pooled:] for a in rows_of)))
            for block in released:
                self._release(block)
            self._entries[key] = _PagedEntry(
                block_hashes=kept_hashes + tuple(b.content_hash for b in blocks),
                seq_len=seq_len,
                tok_scale=entry.tok_scale,
                tok_max_abs=entry.tok_max_abs,
                key_max_abs=entry.key_max_abs,
                quantized=entry.quantized,
                specs=specs,
                blocks=kept + tuple(blocks),
            )
            self._entries.move_to_end(key)
            self._last_used[key] = now
            self._enforce_budget()
            return self._entries[key]

    def _pool(self, slices: tuple[np.ndarray, ...]) -> _Block:
        """Reference the pooled block holding ``slices`` (a full block).

        A block already pooled keeps its place in the spill order: only
        :meth:`get` refreshes recency, so a full put and an append of the
        same rows leave the same order.
        """
        block, content_hash = self._lookup(slices)
        if block is None:
            copies = _read_only(s.copy() for s in slices)
            block = _Block(
                content_hash,
                copies,
                n_rows=copies[0].shape[0],
                nbytes=sum(c.nbytes for c in copies),
            )
            self._add_block(block)
        self._incref(block)
        return block

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

        Private tails are frozen into pooled partial blocks first, so the
        manifest names every block by its content hash.  Blocks stay
        RAM-resident (persisting is not spilling); a new
        :class:`PagedDecodeCache` constructed over the same directory
        restores the manifest with every block in the spill tier.  Returns
        the manifest path.  Store keys must be picklable (the documented
        key shapes - tuples of strings/ints/configs - are).
        """
        with self._lock:
            root = self._spill_root()
            for block in [b for b in self._blocks.values() if b.private]:
                self._freeze(block)
            for block in self._blocks.values():
                self._write_block(block)
            manifest = {
                "version": MANIFEST_VERSION,
                "block_tokens": self.block_tokens,
                "blocks": {
                    h: (b.n_rows, b.nbytes) for h, b in self._blocks.items()
                },
                "entries": [
                    (key, replace(entry, blocks=()))
                    for key, entry in self._entries.items()
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
                isinstance(h, str) and h in blocks and self._block_path(h).exists()
                for h in entry.block_hashes
            ):
                continue
            chain = []
            for h in entry.block_hashes:
                block = self._blocks.get(h)
                if block is None:
                    n_rows, nbytes = blocks[h]
                    block = _Block(h, None, n_rows=n_rows, nbytes=nbytes)
                    self._add_block(block)
                self._incref(block)
                chain.append(block)
            self._entries[key] = replace(entry, blocks=tuple(chain))
            self._last_used[key] = now
        self._enforce_budget()
