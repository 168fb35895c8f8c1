"""Property suite for the paged cache's block-pool invariants.

Hypothesis drives random put/append/get/invalidate traffic (with
sequences that extend each other, so prefix sharing actually occurs, and
appends through ``put(..., base=)``) against a shadow
model holding the exact arrays each key should serve, and checks after
every operation that:

* refcounts are exactly the number of references from live entries (so
  they can never go negative or leak);
* every pooled block's bytes equal the corresponding rows of *every*
  entry referencing it (shared blocks are bit-identical across owners);
* copy-on-write never mutates a shared block - growing one sequence
  leaves its prefix-sharing sibling's bits untouched;
* spill -> load round-trips are bit-exact (the same properties hold under
  a RAM budget tiny enough that every lookup faults blocks from disk);
* the RAM budget is a hard invariant (``resident_bytes <= max_bytes``).

Plus pinned (non-random) tests for the TTL boundary (an entry idle
*exactly* ``ttl_s`` stays, one idle any longer drops - on both stores)
and for the append form of ``put``: a differential run against full
puts, the O(tail) hashing bound, refusal of a stale ``base``, and a
re-put that keeps its own blocks.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import paged
from repro.engine.cache import DecodeCacheEntry, make_decode_cache
from repro.engine.paged import PagedDecodeCache

H, DK = 3, 2
MAX_ROWS = 40

_KEYS = ("s0", "s1", "s2", "s3")
_STREAMS = 3  # token streams; same stream => shared prefix across keys


def _stream(stream_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The deterministic row stream entries of ``stream_id`` are cut from."""
    rng = np.random.default_rng(1000 + stream_id)
    tokens = rng.integers(-90, 90, size=(MAX_ROWS, H)).astype(np.float64)
    tok_values = np.rint(tokens / 0.75).astype(np.int64)
    key_codes = rng.integers(-400, 400, size=(MAX_ROWS, DK)).astype(np.int64)
    return tokens, tok_values, key_codes


def _entry(stream_id: int, length: int) -> DecodeCacheEntry:
    tokens, tok_values, key_codes = _stream(stream_id)
    return DecodeCacheEntry(
        tokens=tokens[:length].copy(),
        tok_values=tok_values[:length].copy(),
        tok_scale=0.75,
        tok_max_abs=90.0,
        key_codes=key_codes[:length].copy(),
        key_max_abs=400.0,
        quantized=True,
    )


def _rows(entry: DecodeCacheEntry, start: int) -> DecodeCacheEntry:
    """The rows of ``entry`` past ``start``: what an append puts."""
    return DecodeCacheEntry(
        tokens=entry.tokens[start:],
        tok_values=entry.tok_values[start:],
        tok_scale=entry.tok_scale,
        tok_max_abs=entry.tok_max_abs,
        key_codes=entry.key_codes[start:],
        key_max_abs=entry.key_max_abs,
        quantized=entry.quantized,
    )


def _assert_entries_equal(got: DecodeCacheEntry, expected: DecodeCacheEntry):
    assert got.tokens.tobytes() == expected.tokens.tobytes()
    assert got.tok_values.tobytes() == expected.tok_values.tobytes()
    assert got.key_codes.tobytes() == expected.key_codes.tobytes()
    assert got.tokens.dtype == expected.tokens.dtype
    assert got.tokens.shape == expected.tokens.shape
    assert got.tok_scale == expected.tok_scale
    assert got.tok_max_abs == expected.tok_max_abs
    assert got.key_max_abs == expected.key_max_abs
    assert got.quantized == expected.quantized


def _check_invariants(cache: PagedDecodeCache, shadow: dict):
    # Refcount consistency: exactly the references from live entries,
    # never negative, never dangling, never leaked.
    refs: dict[str, int] = {}
    for entry in cache._entries.values():
        for content_hash in entry.block_hashes:
            refs[content_hash] = refs.get(content_hash, 0) + 1
    assert set(refs) == set(cache._blocks)
    for content_hash, block in cache._blocks.items():
        assert block.refcount == refs[content_hash] >= 1
    # Shared blocks bit-identical across owners: every entry's chain must
    # reproduce that entry's shadow rows exactly, block by block.
    for key, entry in list(cache._entries.items()):
        expected = shadow[key]
        row = 0
        for content_hash in entry.block_hashes:
            block = cache._blocks[content_hash]
            assert cache._load_block(block)  # spill -> load is bit-exact too
            for array, source in zip(
                block.arrays,
                (expected.tokens, expected.tok_values, expected.key_codes),
            ):
                assert array.tobytes() == source[row : row + block.n_rows].tobytes()
            row += block.n_rows
        assert row == expected.seq_len
    # Budget is a hard invariant (gauges refreshed by the get()s below too).
    for key, expected in shadow.items():
        got = cache.get(key)
        assert got is not None  # no eviction configured: nothing may vanish
        _assert_entries_equal(got, expected)
        if cache.max_bytes is not None:
            assert cache.stats.resident_bytes <= cache.max_bytes


_op = st.one_of(
    st.tuples(
        st.just("put"),
        st.sampled_from(_KEYS),
        st.integers(0, _STREAMS - 1),
        st.integers(1, MAX_ROWS),
    ),
    st.tuples(
        st.just("append"), st.sampled_from(_KEYS), st.integers(0, MAX_ROWS // 4)
    ),
    st.tuples(st.just("invalidate"), st.sampled_from(_KEYS)),
    st.tuples(st.just("get"), st.sampled_from(_KEYS)),
)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=25),
    block_tokens=st.sampled_from([1, 3, 7]),
    spill=st.booleans(),
)
@pytest.mark.paged_cache
def test_block_pool_invariants_hold_under_random_traffic(ops, block_tokens, spill):
    cache = PagedDecodeCache(
        block_tokens=block_tokens,
        max_entries=len(_KEYS) + 1,  # never evict: every live key must serve
        max_bytes=256 if spill else None,  # tiny: force constant spill traffic
    )
    shadow: dict = {}
    streams: dict = {}  # key -> the stream its live entry was cut from
    try:
        for op in ops:
            if op[0] == "put":
                _, key, stream_id, length = op
                entry = _entry(stream_id, length)
                assert cache.put(key, entry)
                shadow[key] = entry
                streams[key] = stream_id
            elif op[0] == "append":
                # Grow the key's sequence along its own stream by the
                # O(tail) append form; an unknown key has nothing to extend.
                _, key, n_new = op
                base = cache.get(key)
                if key not in shadow:
                    assert base is None
                    continue
                length = min(shadow[key].seq_len + n_new, MAX_ROWS)
                grown = _entry(streams[key], length)
                assert cache.put(key, _rows(grown, base.seq_len), base=base)
                shadow[key] = grown
            elif op[0] == "invalidate":
                _, key = op
                assert cache.invalidate(key) == (key in shadow)
                shadow.pop(key, None)
            else:
                _, key = op
                got = cache.get(key)
                if key in shadow:
                    _assert_entries_equal(got, shadow[key])
                else:
                    assert got is None
            _check_invariants(cache, shadow)
        cache.clear()
        assert cache.n_blocks == 0 and len(cache) == 0
        assert cache.stats.resident_bytes == 0
    finally:
        cache.close()


@pytest.mark.paged_cache
def test_cow_growth_never_mutates_a_shared_block():
    """Two sequences share a prefix; growing (and re-putting) one must
    leave the other's served bits untouched - blocks are immutable and
    divergence only ever allocates new tail blocks."""
    cache = PagedDecodeCache(block_tokens=4)
    a0 = _entry(0, 12)
    cache.put("a", a0)
    cache.put("b", _entry(0, 12))  # same stream: fully shared chain
    assert cache.stats.shared_blocks == 3
    # Diverge "a": same 12-row prefix, different tail rows.
    tokens, tok_values, key_codes = _stream(0)
    diverged = DecodeCacheEntry(
        tokens=np.concatenate([tokens[:12], tokens[20:24] + 1.0]),
        tok_values=np.concatenate([tok_values[:12], tok_values[20:24] + 1]),
        tok_scale=0.75,
        tok_max_abs=91.0,
        key_codes=np.concatenate([key_codes[:12], key_codes[20:24]]),
        key_max_abs=400.0,
        quantized=True,
    )
    cache.put("a", diverged)
    assert cache.stats.shared_blocks == 3  # the prefix blocks, still shared
    _assert_entries_equal(cache.get("b"), a0)  # sibling bits untouched
    got_a = cache.get("a")
    assert got_a.tokens.tobytes() == diverged.tokens.tobytes()
    # Mutating a served entry's arrays must not reach the pool either.
    got_a.tokens[:] = -1.0
    _assert_entries_equal(cache.get("b"), a0)
    cache.close()


@pytest.mark.paged_cache
def test_refcounts_drop_to_zero_and_blocks_free():
    cache = PagedDecodeCache(block_tokens=4)
    cache.put("a", _entry(1, 8))
    cache.put("b", _entry(1, 8))
    assert cache.n_blocks == 2 and cache.stats.shared_blocks == 2
    cache.invalidate("a")
    assert cache.n_blocks == 2 and cache.stats.shared_blocks == 0
    cache.invalidate("b")
    assert cache.n_blocks == 0
    assert cache.stats.resident_bytes == 0
    cache.close()


def _recount_gauges(cache: PagedDecodeCache) -> dict[str, int]:
    """The block gauges from a full walk of the pool."""
    blocks = list(cache._blocks.values())
    return {
        "resident_bytes": sum(b.nbytes for b in blocks if b.resident),
        "resident_blocks": sum(b.resident for b in blocks),
        "spilled_blocks": sum(not b.resident for b in blocks),
        "spilled_bytes": sum(b.nbytes for b in blocks if not b.resident),
        "shared_blocks": sum(b.refcount > 1 for b in blocks),
    }


_gauge_op = st.one_of(
    _op,
    st.tuples(st.just("restore")),
    st.tuples(st.just("sweep"), st.integers(0, 3)),
    st.tuples(st.just("corrupt")),
)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(_gauge_op, min_size=1, max_size=30),
    block_tokens=st.sampled_from([1, 3, 7]),
    max_bytes=st.sampled_from([None, 1, 256, 2048]),
)
@pytest.mark.paged_cache
def test_incremental_gauges_equal_a_full_recount(ops, block_tokens, max_bytes):
    """The block gauges are kept at the points where blocks change state,
    never recounted; after every operation of a random mix - puts, appends,
    lookups (spill loads), invalidations, budget spills, LRU evictions, TTL
    expiry, unreadable spill files and persist-then-restore - they equal a
    full recount of the pool."""
    import tempfile

    now = [0.0]
    with tempfile.TemporaryDirectory() as spill_dir:
        kwargs = dict(
            block_tokens=block_tokens,
            max_entries=3,  # four keys: puts evict
            max_bytes=max_bytes,
            ttl_s=2.0,
            spill_dir=spill_dir,
            clock=lambda: now[0],
        )
        cache = PagedDecodeCache(**kwargs)
        streams: dict = {}
        try:
            for op in ops:
                if op[0] == "put":
                    _, key, stream_id, length = op
                    cache.put(key, _entry(stream_id, length))
                    streams[key] = stream_id
                elif op[0] == "append":
                    _, key, n_new = op
                    base = cache.get(key)
                    if base is not None:
                        grown = _entry(streams[key], min(base.seq_len + n_new, MAX_ROWS))
                        cache.put(key, _rows(grown, base.seq_len), base=base)
                elif op[0] == "invalidate":
                    cache.invalidate(op[1])
                elif op[0] == "get":
                    cache.get(op[1])
                elif op[0] == "restore":
                    cache.persist()
                    cache.close()  # an explicit spill_dir outlives close()
                    cache = PagedDecodeCache(**kwargs)
                elif op[0] == "sweep":
                    now[0] += op[1]
                    cache.sweep_expired()
                else:  # every spill file becomes unreadable
                    for path in Path(spill_dir).glob("*.npz"):
                        path.write_bytes(b"garbage")
                assert {g: getattr(cache.stats, g) for g in _GAUGES} == _recount_gauges(cache)
                if max_bytes is not None:
                    assert cache.stats.resident_bytes <= max_bytes
            cache.clear()
            assert _recount_gauges(cache) == {g: getattr(cache.stats, g) for g in _GAUGES}
            assert cache.stats.resident_bytes == cache.stats.spilled_blocks == 0
        finally:
            cache.close()


# -------------------------------------------------------------- TTL boundary
@pytest.mark.parametrize("kind", ["flat", "paged"])
def test_ttl_boundary_idle_exactly_ttl_stays(kind):
    """Pinned boundary: the keep rule is ``idle <= ttl_s``, so an entry
    idle *exactly* ``ttl_s`` survives and anything past it drops - on
    both stores, via lazy sweeping and explicit sweep_expired alike."""
    now = [0.0]
    cache = make_decode_cache(kind, ttl_s=10.0, clock=lambda: now[0])
    cache.put("k", _entry(0, 6))
    now[0] = 10.0  # idle == ttl_s exactly
    assert cache.sweep_expired() == 0
    assert cache.get("k") is not None  # (refreshes last_used to 10.0)
    now[0] = float(np.nextafter(20.0, np.inf))  # one ulp past idle == ttl_s
    assert cache.sweep_expired() == 1
    assert cache.get("k") is None
    assert cache.stats.expirations == 1
    cache.close()


# ------------------------------------------------------- append form of put
_GAUGES = (
    "resident_bytes", "resident_blocks", "spilled_blocks", "spilled_bytes",
    "shared_blocks",
)


def _prompt_streams(seed: int, n_streams: int, prompt: int, length: int):
    """Row streams sharing a ``prompt``-row prefix, then diverging.

    The token rows carry ``-0.0`` and NaN bytes: content addressing must
    treat them as the exact bytes they are.
    """
    rng = np.random.default_rng(seed)

    def rows(n: int) -> tuple[np.ndarray, np.ndarray]:
        tokens = rng.integers(-90, 90, size=(n, H)).astype(np.float64)
        tokens[rng.random(tokens.shape) < 0.1] = -0.0
        tokens[rng.random(tokens.shape) < 0.05] = np.nan
        return tokens, rng.integers(-400, 400, size=(n, DK)).astype(np.int64)

    shared = rows(prompt)
    streams = []
    for _ in range(n_streams):
        own = rows(length - prompt)
        tokens, key_codes = (np.concatenate(pair) for pair in zip(shared, own))
        tok_values = np.rint(np.nan_to_num(tokens) / 0.75).astype(np.int64)
        streams.append((tokens, tok_values, key_codes))
    return streams


def _cut(stream, lo: int, hi: int) -> DecodeCacheEntry:
    tokens, tok_values, key_codes = stream
    return DecodeCacheEntry(
        tokens=tokens[lo:hi].copy(),
        tok_values=tok_values[lo:hi].copy(),
        tok_scale=0.75,
        tok_max_abs=90.0,
        key_codes=key_codes[lo:hi].copy(),
        key_max_abs=400.0,
        quantized=True,
    )


def _assert_same_pool(a: PagedDecodeCache, b: PagedDecodeCache):
    assert list(a._entries) == list(b._entries)  # same keys, same LRU order
    for key, entry in a._entries.items():
        assert entry == b._entries[key]  # chain, length, scalars, specs
    assert list(a._blocks) == list(b._blocks)  # same spill order
    for content_hash, block in a._blocks.items():
        other = b._blocks[content_hash]
        assert (block.refcount, block.resident) == (other.refcount, other.resident)
    for gauge in _GAUGES:
        assert getattr(a.stats, gauge) == getattr(b.stats, gauge), gauge


@pytest.mark.paged_cache
@pytest.mark.parametrize("block_tokens", [1, 3, 32])
@pytest.mark.parametrize("budget_blocks", [None, 3, 0.5])
def test_append_form_matches_full_put(tmp_path, block_tokens, budget_blocks):
    """Two caches fed the same traffic, one growing sequences by appends
    and one by full puts, hold the same pool after every operation and
    serve the same bytes - and so do their persisted restarts.  A budget
    of half a block keeps every block spilled, so appends read their tail
    block from disk."""
    length, prompt = 6 * block_tokens + 5, 2 * block_tokens + 1
    streams = _prompt_streams(7, 3, prompt, length)
    # Keys 0 and 3 grow along one stream; all four share the prompt.
    key_stream = {0: 0, 1: 1, 2: 2, 3: 0}
    row_bytes = 8 * (2 * H + DK)
    max_bytes = (
        None if budget_blocks is None
        else int(budget_blocks * block_tokens * row_bytes)
    )
    kwargs = dict(block_tokens=block_tokens, max_entries=8, max_bytes=max_bytes)
    appended = PagedDecodeCache(spill_dir=tmp_path / "append", **kwargs)
    full = PagedDecodeCache(spill_dir=tmp_path / "full", **kwargs)
    rng = np.random.default_rng(block_tokens)
    lengths: dict[int, int] = {}
    most_shared = 0
    for _ in range(60):
        key = int(rng.integers(4))
        stream = streams[key_stream[key]]
        start = lengths.get(key)
        move = rng.random()
        if start is None or start == length or move < 0.1:
            # (Re)start the sequence with a full put on both sides.
            start = int(rng.integers(0, prompt + 2))
            for cache in (appended, full):
                assert cache.put(key, _cut(stream, 0, start))
            lengths[key] = start
        elif move < 0.2:
            for cache in (appended, full):
                assert cache.invalidate(key)
            del lengths[key]
        else:
            tail = start % block_tokens
            n_new = int(rng.choice([
                0, 1, block_tokens - tail, block_tokens, 2 * block_tokens + 1,
            ]))
            stop = min(start + n_new, length)
            base = appended.get(key)
            assert base.seq_len == start
            assert appended.put(key, _cut(stream, start, stop), base=base)
            full.get(key)  # the same lookup traffic on both sides
            assert full.put(key, _cut(stream, 0, stop))
            lengths[key] = stop
        _assert_same_pool(appended, full)
        for key, n in lengths.items():
            want = _cut(streams[key_stream[key]], 0, n)
            _assert_entries_equal(appended.get(key), want)
            _assert_entries_equal(full.get(key), want)
        _assert_same_pool(appended, full)
        most_shared = max(most_shared, appended.stats.shared_blocks)
        if max_bytes is not None:
            assert appended.stats.resident_bytes <= max_bytes
    assert most_shared > 0  # the prompt really was shared
    if max_bytes is not None:
        assert appended.stats.spilled_blocks > 0
    if budget_blocks == 0.5 and block_tokens > 1:
        # Only the append side reads spilled tail blocks back.
        assert appended.stats.spill_loads > full.stats.spill_loads
    appended.persist()
    full.persist()
    appended.close()
    full.close()
    restored_append = PagedDecodeCache(spill_dir=tmp_path / "append", **kwargs)
    restored_full = PagedDecodeCache(spill_dir=tmp_path / "full", **kwargs)
    _assert_same_pool(restored_append, restored_full)
    assert len(restored_append) == len(lengths)
    for key, n in lengths.items():
        want = _cut(streams[key_stream[key]], 0, n)
        _assert_entries_equal(restored_append.get(key), want)
        _assert_entries_equal(restored_full.get(key), want)
    restored_append.close()
    restored_full.close()


@pytest.mark.paged_cache
@pytest.mark.parametrize("block_tokens", [1, 3, 32])
def test_append_hashes_only_the_tail(monkeypatch, block_tokens):
    """The O(tail) contract: an append hashes at most
    ``ceil((tail_rows + new_rows) / block_tokens)`` blocks."""
    calls = []
    real_hash = paged.block_content_hash
    monkeypatch.setattr(
        paged, "block_content_hash", lambda rows: calls.append(1) or real_hash(rows)
    )
    (stream,) = _prompt_streams(3, 1, 1, 4 * block_tokens + 3)
    for start in (0, 1, block_tokens, 2 * block_tokens + 1, 3 * block_tokens):
        for n_new in (0, 1, block_tokens - 1, block_tokens + 2):
            cache = PagedDecodeCache(block_tokens=block_tokens)
            cache.put("k", _cut(stream, 0, start))
            base = cache.get("k")
            calls.clear()
            assert cache.put("k", _cut(stream, start, start + n_new), base=base)
            tail = start % block_tokens
            assert len(calls) <= math.ceil((tail + n_new) / block_tokens)
            _assert_entries_equal(cache.get("k"), _cut(stream, 0, start + n_new))
            cache.close()


def _store_state(cache):
    blocks = getattr(cache, "_blocks", {})
    return (
        [(key, id(entry)) for key, entry in cache._entries.items()],
        {h: (b.refcount, b.resident) for h, b in blocks.items()},
        cache.stats.snapshot(),
    )


@pytest.mark.parametrize("kind", ["paged", "flat"])
@pytest.mark.parametrize("how", ["replaced", "invalidated", "expired", "evicted"])
def test_append_onto_a_stale_base_is_refused(kind, how):
    """A base from an entry that has since changed - replaced (also by an
    identical entry, as a racing thread would), invalidated, expired or
    evicted - makes the append return False and change nothing."""
    now = [0.0]
    cache = make_decode_cache(
        kind, max_entries=2, ttl_s=10.0, block_tokens=4, clock=lambda: now[0]
    )
    cache.put("k", _entry(0, 10))
    base = cache.get("k")
    if how == "replaced":
        cache.put("k", _entry(0, 10))
    elif how == "invalidated":
        cache.invalidate("k")
    elif how == "expired":
        now[0] = 11.0
        cache.put("other", _entry(1, 6))
    else:
        cache.put("a", _entry(1, 6))
        cache.put("b", _entry(2, 6))
        assert cache.stats.evictions == 1
    before = _store_state(cache)
    assert cache.put("k", _rows(_entry(0, 14), 10), base=base) is False
    assert _store_state(cache) == before
    cache.close()


@pytest.mark.parametrize("kind", ["paged", "flat"])
def test_append_with_another_quantization_state_is_refused(kind):
    cache = make_decode_cache(kind, block_tokens=4)
    cache.put("k", _entry(0, 10))
    base = cache.get("k")
    before = _store_state(cache)
    louder = _rows(_entry(0, 14), 10)
    for rows in (
        DecodeCacheEntry(**{**louder.__dict__, "tok_scale": 0.5}),
        DecodeCacheEntry(**{**louder.__dict__, "tok_max_abs": 91.0}),
        DecodeCacheEntry(**{**louder.__dict__, "quantized": False}),
        DecodeCacheEntry(**{**louder.__dict__, "tokens": louder.tokens.astype(np.float32)}),
    ):
        assert cache.put("k", rows, base=base) is False
        assert _store_state(cache) == before
    assert cache.put("k", louder, base=base)
    _assert_entries_equal(cache.get("k"), _entry(0, 14))
    cache.close()


@pytest.mark.paged_cache
def test_reput_of_an_identical_entry_keeps_its_blocks(monkeypatch):
    """A full put references its new chain before releasing the old one,
    so re-putting an identical entry neither frees nor re-copies its own
    blocks - and, with them all spilled, writes no spill file."""
    cache = PagedDecodeCache(block_tokens=4, max_bytes=200)
    cache.put("k", _entry(0, 12))
    assert cache.stats.spilled_blocks == 3
    blocks = dict(cache._blocks)
    writes = []
    real_savez = np.savez
    monkeypatch.setattr(
        np, "savez", lambda *a, **kw: writes.append(a[0]) or real_savez(*a, **kw)
    )
    assert cache.put("k", _entry(0, 12))
    assert writes == []
    assert cache._blocks.keys() == blocks.keys()
    assert all(cache._blocks[h] is block for h, block in blocks.items())
    _assert_entries_equal(cache.get("k"), _entry(0, 12))
    cache.close()


@pytest.mark.paged_cache
def test_manifest_of_another_block_size_is_not_restored(tmp_path):
    """Appends rely on every chain being cut at the cache's own block
    size, so a manifest persisted at another ``block_tokens`` is skipped
    (a recompute, never a misaligned chain); the same size restores."""
    first = PagedDecodeCache(block_tokens=4, spill_dir=tmp_path)
    first.put("k", _entry(0, 10))
    first.persist()
    first.close()
    other = PagedDecodeCache(block_tokens=3, spill_dir=tmp_path)
    assert len(other) == 0 and other.get("k") is None
    other.close()
    same = PagedDecodeCache(block_tokens=4, spill_dir=tmp_path)
    base = same.get("k")
    _assert_entries_equal(base, _entry(0, 10))
    assert same.put("k", _rows(_entry(0, 14), 10), base=base)
    _assert_entries_equal(same.get("k"), _entry(0, 14))
    same.close()
