"""Decode-step cache: reuse quantized ``K_hat``/DLZS state across requests.

A decode loop re-submits the *same* attention problem every step with one
more token appended: the token prefix - and therefore the quantized token
codes and the truncated phase-1.1 ``K_hat = tokens @ Wk`` codes derived
from it - is identical to the previous step's.  The accelerator analogue
is keeping the predicted-key SRAM resident between steps instead of
re-running the pre-compute stage over the whole context.

The store is :class:`~repro.engine.paged.PagedDecodeCache`, a refcounted
block pool with cross-sequence prefix sharing, a RAM budget held by disk
spill, and restart survival (see :mod:`repro.engine.paged`).  This module
holds the types the store and its consumer exchange.

:class:`~repro.core.dlzs.StackedDlzsPredictor` consults the cache inside
the batched pipeline - on a **hit** only the newly appended token rows are
quantized, projected and truncated; on a **miss** (unknown key, prefix
changed, sequence shrank) the full phase 1.1 runs and the entry is
replaced.

``get`` returns a read-only :class:`DecodeCacheView`: the entry's scalar
state plus each field's stored row blocks, with nothing concatenated.  A
hit compares its token prefix and copies its ``K_hat`` codes block by
block, so it never assembles an O(S) array; a field is assembled only if
a fallback path asks for it (:attr:`DecodeCacheView.tokens` and its
siblings).

The store takes a hit's new rows through the **append form** of put,
``put(key, rows, base=view)``: ``view`` is what ``get`` returned and
``rows`` holds only the rows past ``view.seq_len``, with ``view``'s
quantization state (:func:`can_append`).  The store writes them into the
key's private tail in place and hashes only blocks that fill up.  ``put``
returns ``False`` and changes nothing when the key no longer holds the
state ``view`` was read from (replaced, invalidated, expired or evicted
since the get, e.g. by another thread), and the predictor then puts the
whole sequence.  A put that succeeds returns the stored chain record
(truthy), through which the KV stage reads the chain's stored K/V
projections (see :mod:`repro.engine.paged`).  Every put references its
new blocks before it releases the old ones, so a re-put never frees its
own unchanged blocks.

Bit-for-bit parity is preserved because reuse is only attempted when it is
*provably* equal to the uncached computation:

* token quantization uses one symmetric per-tensor scale derived from the
  global ``max|x|``; appended rows may only reuse the cached codes when
  their magnitudes stay within the cached maximum (the scale - and hence
  every previously quantized code - is then bit-identical).  A louder new
  token **invalidates** the entry and recomputes everything.
* the raw integer ``K_hat`` rows are exact row-independent integer
  matmuls, so appending rows never perturbs cached rows.
* the store keeps ``K_hat`` already truncated to the intermediate width,
  with ``key_max_abs``, the raw ``max|K_hat|`` the truncation scale is
  derived from.  While the new rows' ``max|K_hat|`` stays within it the
  scale is unchanged, so only the new rows are truncated and the cached
  codes are reused bit for bit.  A louder ``K_hat`` row is a
  **rescale**: the raw rows are rebuilt from the cached token codes,
  re-truncated together and the whole entry is put again (still a hit,
  counted in ``CacheStats.rescales``).
* the store shares blocks **only by content hash over the exact
  bytes** (tokens, quantized codes and ``K_hat`` codes together), so two
  sequences share storage exactly when their per-row state is already
  bit-identical - sharing can never substitute different bits - and the
  spill codec (``.npz``) round-trips arrays bit-exactly.
* the prefix witness (:meth:`DecodeCacheView.has_prefix`) compares token
  *bits*, so stored projections, which are made from a row's bits, serve
  only the row they were made from; they are kept per digest of the
  float weights, so other weights never read them.

Entries are immutable after insertion (updates replace the entry), so one
store is safe to share between engines on different threads: a stale read
can only cost a recompute, never a wrong bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from typing import Hashable

import numpy as np


#: The per-row arrays of an entry, in block and spill-file order.
ENTRY_FIELDS = ("tokens", "tok_values", "key_codes")


@functools.lru_cache(maxsize=None)
def dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, which NumPy rebuilds in Python on every call."""
    return str(dtype)


@dataclass(frozen=True)
class DecodeCacheEntry:
    """Immutable per-sequence DLZS phase-1.1 state.

    ``tokens`` is the float64 token matrix the entry was built from (the
    prefix-equality witness); ``tok_values`` its quantized int64 codes with
    ``tok_scale`` / ``tok_max_abs`` the per-tensor quantization state.
    ``key_codes`` are the ``K_hat`` rows already truncated to the
    intermediate width, and ``key_max_abs`` is the float ``max|K_hat|`` of
    the raw rows, from which the truncation scale follows
    (:func:`~repro.numerics.fixed_point.stack_scale`).  ``quantized``
    records whether the float quantization path was taken (integer-dtype
    submissions bypass it and must not mix with float ones).
    """

    tokens: np.ndarray
    tok_values: np.ndarray
    tok_scale: float
    tok_max_abs: float
    key_codes: np.ndarray
    key_max_abs: float
    quantized: bool

    @property
    def seq_len(self) -> int:
        return self.tokens.shape[0]


@dataclass(frozen=True)
class DecodeCacheView:
    """A stored entry read in place: what a store's ``get`` returns.

    It holds the entry's scalar state and, per field of
    :data:`ENTRY_FIELDS`, the stored row blocks in order
    (``columns[j]``), with nothing concatenated.  The block arrays are
    read-only.  ``specs`` gives each field's dtype and trailing shape, so
    a field's type is known without touching a block.  ``nan_free`` says
    the stored tokens hold no NaN (the store keeps it per block).
    ``source`` is the stored chain record the view was read from;
    ``put(..., base=view)`` compares it by identity to refuse an append
    onto state that has changed since.

    A hit needs only :meth:`has_prefix` and :meth:`fill`.  The array
    properties (:attr:`tokens`, :attr:`tok_values`, :attr:`key_codes`)
    assemble a fresh copy of the field on every access; they are for
    fallback paths and tests.
    """

    seq_len: int
    tok_scale: float
    tok_max_abs: float
    key_max_abs: float
    quantized: bool
    columns: tuple[tuple[np.ndarray, ...], ...]
    specs: tuple[tuple[np.dtype | str, tuple[int, ...]], ...]
    nan_free: bool
    source: object = field(compare=False, repr=False)

    def has_prefix(self, rows: np.ndarray) -> bool:
        """Do the stored tokens hold the bits of the first ``seq_len`` of
        ``rows``?

        Compares block by block, allocating nothing larger than one block
        (unless ``rows`` is not C-contiguous).  Bits, not ``==``: a prefix
        differing only in the sign of a zero does not match (state derived
        from other bits must not serve it), and stored tokens holding a
        NaN (``nan_free`` false) never match.
        """
        if rows.shape[0] < self.seq_len or rows.shape[1:] != self.specs[0][1]:
            return False
        if not self.nan_free or dtype_name(rows.dtype) != self.specs[0][0]:
            return False
        bits = as_bits(np.ascontiguousarray(rows))
        lo = 0
        for block in self.columns[0]:
            hi = lo + block.shape[0]
            if not (bits[lo:hi] == block.view(bits.dtype)).all():
                return False
            lo = hi
        return True

    def fill(self, name: str, out: np.ndarray) -> None:
        """Copy field ``name``'s stored rows into ``out[:seq_len]``."""
        lo = 0
        for block in self.columns[ENTRY_FIELDS.index(name)]:
            hi = lo + block.shape[0]
            out[lo:hi] = block
            lo = hi

    def assemble(self, name: str) -> np.ndarray:
        """A fresh, writable copy of field ``name``'s stored rows."""
        dtype, trailing = self.specs[ENTRY_FIELDS.index(name)]
        out = np.empty((self.seq_len, *trailing), dtype=np.dtype(dtype))
        self.fill(name, out)
        return out

    @property
    def tokens(self) -> np.ndarray:
        return self.assemble("tokens")

    @property
    def tok_values(self) -> np.ndarray:
        return self.assemble("tok_values")

    @property
    def key_codes(self) -> np.ndarray:
        return self.assemble("key_codes")


_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def as_bits(array: np.ndarray) -> np.ndarray:
    """A C-contiguous array's elements as unsigned integers of their bits."""
    return array.view(_UNSIGNED.get(array.dtype.itemsize, np.uint8))


def nan_free(tokens: np.ndarray) -> bool:
    """Whether a token array holds no NaN (integer arrays never do)."""
    return tokens.dtype.kind not in "fc" or not np.isnan(tokens).any()


@dataclass
class CacheStats:
    """Counters of one :class:`~repro.engine.paged.PagedDecodeCache` since
    construction.

    ``hits``/``misses`` count lookups; ``invalidations`` the subset of
    misses where a live entry had to be discarded (prefix changed, sequence
    shrank, or a new token exceeded the cached quantization maximum);
    ``evictions`` LRU pressure drops; ``expirations`` TTL drops of entries
    whose sequence went quiet (abandoned decode sessions that never called
    ``invalidate``).  ``rows_reused``/``rows_appended`` tally how many
    phase-1.1 rows hits skipped vs incrementally computed; ``rescales``
    the hits whose louder ``K_hat`` row re-truncated the whole entry.

    The block-pool gauges: ``resident_blocks``/``spilled_blocks``
    partition the pool by tier (RAM vs disk), ``shared_blocks`` counts
    blocks referenced by more than one entry (the prefix-sharing win),
    ``spilled_bytes`` is the payload currently parked on disk, and
    ``spill_loads`` counts block reloads from the spill tier.
    ``resident_bytes`` is the *RAM* payload, a shared block counted once
    (that is the honest residency figure sharing buys), a private tail at
    its preallocated block size, plus the projection arena, whose bytes
    ``projection_bytes`` gives on their own.  ``projection_hits`` /
    ``projection_misses`` count the selected rows of keyed heads whose
    K/V projection was read from the arena vs computed.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    expirations: int = 0
    rows_reused: int = 0
    rows_appended: int = 0
    rescales: int = 0
    resident_bytes: int = 0
    resident_blocks: int = 0
    shared_blocks: int = 0
    spilled_blocks: int = 0
    spilled_bytes: int = 0
    spill_loads: int = 0
    projection_bytes: int = 0
    projection_hits: int = 0
    projection_misses: int = 0

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

    :meth:`~repro.engine.paged.PagedDecodeCache.invalidate_prefix` drops
    exactly the keys this matches.
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


def can_append(base: DecodeCacheView, rows: DecodeCacheEntry) -> bool:
    """Can ``rows`` extend ``base`` in a ``put(key, rows, base=base)``?

    The appended rows must carry ``base``'s quantization state (both
    scales' maxima, the token scale and the ``quantized`` flag) and its
    array dtypes and row shapes, read from ``base.specs``: the store
    appends them to ``base``'s rows as they are.  The store refuses an
    append that fails this check, like a stale one.
    """
    state = (rows.tok_scale, rows.tok_max_abs, rows.key_max_abs, rows.quantized)
    if state != (base.tok_scale, base.tok_max_abs, base.key_max_abs, base.quantized):
        return False
    return all(
        dtype_name(new.dtype) == dtype and new.shape[1:] == trailing
        for new, (dtype, trailing) in zip(
            (getattr(rows, name) for name in ENTRY_FIELDS), base.specs
        )
    )
