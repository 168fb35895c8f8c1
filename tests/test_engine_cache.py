"""Decode-step cache tests: exact counters, invalidation, bit parity.

The cache's contract is conservative reuse: a hit must be *provably*
bit-identical to recomputation (same token prefix, same quantization
scale), anything else is a miss that recomputes from scratch.  Counters are
exact and observable through ``SofaEngine.stats``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SofaConfig
from repro.core.dlzs import StackedDlzsPredictor
from repro.core.pipeline import SofaAttention
from repro.engine import AttentionRequest, BatchedSofaAttention, SofaEngine
from repro.engine.cache import ENTRY_FIELDS, DecodeCacheEntry
from repro.engine.paged import PagedDecodeCache
from repro.numerics.linalg import det_gathered_project
from repro.utils.rng import make_rng

CFG = SofaConfig(tile_cols=16, top_k=8)

# The block layouts a store-level test runs under: "flat" keeps every entry
# whole in one block, "paged" cuts each entry over several blocks.
BLOCK_LAYOUTS = pytest.mark.parametrize("block_tokens", [64, 3], ids=["flat", "paged"])


def _entry(s=4, h=3, dk=2) -> DecodeCacheEntry:
    tokens = np.zeros((s, h))
    return DecodeCacheEntry(
        tokens=tokens,
        tok_values=tokens.astype(np.int64),
        tok_scale=1.0,
        tok_max_abs=0.0,
        key_codes=np.zeros((s, dk), dtype=np.int64),
        key_max_abs=0.0,
        quantized=True,
    )


def _decode_request(rng, tokens, wk, wv, cache_key="seq"):
    return AttentionRequest(
        tokens=tokens,
        q=rng.normal(size=(2, wk.shape[1])),
        wk=wk,
        wv=wv,
        cache_key=cache_key,
    )


# ------------------------------------------------------------------ unit level
def test_store_put_get_invalidate_clear():
    cache = PagedDecodeCache(max_entries=4)
    key = ("seq", CFG, "digest")
    assert cache.get(key) is None
    cache.put(key, _entry())
    assert cache.get(key) is not None
    assert len(cache) == 1
    assert cache.invalidate(key)
    assert not cache.invalidate(key)  # already gone
    cache.put(key, _entry())
    cache.clear()
    assert len(cache) == 0


def test_store_lru_eviction_counted():
    cache = PagedDecodeCache(max_entries=2)
    for i in range(3):
        cache.put((i, CFG, "d"), _entry())
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.get((0, CFG, "d")) is None  # the oldest fell out


def test_store_invalidate_prefix_matches_session_tuples():
    cache = PagedDecodeCache()
    for layer in range(2):
        for head in range(3):
            cache.put((("sess-a", layer, head), CFG, "d"), _entry())
    cache.put((("sess-b", 0, 0), CFG, "d"), _entry())
    assert cache.invalidate_prefix("sess-a") == 6
    assert len(cache) == 1
    assert cache.invalidate_prefix("sess-a") == 0


@BLOCK_LAYOUTS
def test_invalidate_prefix_matches_scalar_and_tuple_keys(block_tokens):
    """Both documented key shapes must be reachable by invalidate_prefix:
    predictor-composed ``(user_key, config, digest)`` tuples AND plain
    scalar keys written by callers driving the store directly (these used
    to fall through the tuple-only matcher and silently drop nothing)."""
    cache = PagedDecodeCache(block_tokens=block_tokens)
    cache.put("plain-session", _entry())  # scalar store key
    cache.put(("tuple-session", CFG, "d"), _entry())
    cache.put((("nested-session", 0, 1), CFG, "d"), _entry())
    cache.put(("other", CFG, "d"), _entry())
    assert cache.invalidate_prefix("plain-session") == 1
    assert cache.invalidate_prefix("tuple-session") == 1
    assert cache.invalidate_prefix("nested-session") == 1
    assert cache.invalidate_prefix("no-such-session") == 0
    assert len(cache) == 1  # "other" untouched
    cache.close()


def test_store_rejects_zero_capacity():
    with pytest.raises(ValueError):
        PagedDecodeCache(max_entries=0)
    with pytest.raises(ValueError):
        PagedDecodeCache(max_bytes=0)


# -------------------------------------------------------------- operator level
def test_cached_operator_bit_identical_across_growth_and_counters_exact():
    """Growing a sequence: every step a hit, all results bit-identical."""
    rng = make_rng(21)
    n, h, d = 2, 16, 16
    wk = rng.normal(size=(n, h, d))
    wv = rng.normal(size=(n, h, d))
    op = BatchedSofaAttention(wk, wv, CFG)
    cache = PagedDecodeCache()
    keys = [("s", i) for i in range(n)]
    tokens = rng.integers(-80, 80, size=(n, 48, h)).astype(np.float64)
    for step in range(5):
        if step:
            new = rng.integers(-80, 80, size=(n, 1, h)).astype(np.float64)
            tokens = np.concatenate([tokens, new], axis=1)
        q = rng.normal(size=(n, 2, d))
        ref = op(tokens, q)
        got = op(tokens, q, cache=cache, cache_keys=keys)
        for i in range(n):
            assert ref.per_head[i].output.tobytes() == got.per_head[i].output.tobytes()
            np.testing.assert_array_equal(
                ref.per_head[i].selected, got.per_head[i].selected
            )
            for st_r, st_g in zip(ref.per_head[i].stages, got.per_head[i].stages):
                for opn in set(st_r.ops.counts) | set(st_g.ops.counts):
                    assert st_r.ops[opn] == st_g.ops[opn]
    # exact: first step misses per head, every later step hits per head
    assert cache.stats.misses == n
    assert cache.stats.hits == 4 * n
    assert cache.stats.invalidations == 0
    assert cache.stats.rows_appended == 4 * n
    assert cache.stats.rows_reused == sum(n * (48 + s) for s in range(4))


def test_louder_token_invalidates_scale_and_stays_identical():
    """A new token above the cached max changes the global quantization
    scale: the entry must be invalidated, recomputed, and still bit-exact."""
    rng = make_rng(22)
    n, h, d = 1, 12, 12
    wk = rng.normal(size=(n, h, d))
    wv = rng.normal(size=(n, h, d))
    op = BatchedSofaAttention(wk, wv, CFG)
    cache = PagedDecodeCache()
    tokens = rng.uniform(-50, 50, size=(n, 40, h))
    op(tokens, rng.normal(size=(n, 2, d)), cache=cache, cache_keys=["s"])
    # quiet growth: reuse
    tokens = np.concatenate([tokens, rng.uniform(-1, 1, size=(n, 1, h))], axis=1)
    q = rng.normal(size=(n, 2, d))
    ref = op(tokens, q)
    got = op(tokens, q, cache=cache, cache_keys=["s"])
    assert ref.per_head[0].output.tobytes() == got.per_head[0].output.tobytes()
    assert cache.stats.hits == 1 and cache.stats.invalidations == 0
    # loud growth: the max moves -> invalidate + full recompute, still exact
    tokens = np.concatenate([tokens, np.full((n, 1, h), 500.0)], axis=1)
    ref = op(tokens, q)
    got = op(tokens, q, cache=cache, cache_keys=["s"])
    assert ref.per_head[0].output.tobytes() == got.per_head[0].output.tobytes()
    assert cache.stats.invalidations == 1
    assert cache.stats.misses == 2  # initial fill + the invalidation
    # and the recomputed entry serves hits again
    tokens = np.concatenate([tokens, rng.uniform(-1, 1, size=(n, 1, h))], axis=1)
    got = op(tokens, q, cache=cache, cache_keys=["s"])
    assert op(tokens, q).per_head[0].output.tobytes() == got.per_head[0].output.tobytes()
    assert cache.stats.hits == 2


def _loudest_key_row(wk_pow2: np.ndarray, magnitude: float) -> np.ndarray:
    """A token row whose ``K_hat`` row is at least as loud as any row of
    tokens within ``magnitude``: it saturates the column of ``wk_pow2``
    with the largest absolute sum, with that column's signs."""
    col = int(np.argmax(np.abs(wk_pow2).sum(axis=0)))
    return magnitude * np.sign(wk_pow2[:, col])


def _only_entry(cache):
    (key,) = list(cache._entries)
    return cache.get(key)


@BLOCK_LAYOUTS
def test_louder_key_row_rescales_as_a_hit_and_stays_identical(block_tokens):
    """A new token within the token max whose ``K_hat`` row exceeds the
    cached ``key_max_abs`` moves the truncation scale of every row.  The
    hit rebuilds the raw rows from the cached token codes, re-truncates
    them all and puts the whole entry: bit-identical to the uncached
    engine and to the per-head ``SofaAttention``, counted as a hit with
    one rescale, and stored exactly as a full put stores it."""
    rng = make_rng(32)
    n, h, d = 1, 12, 12
    wk = rng.normal(size=(n, h, d))
    wv = rng.normal(size=(n, h, d))
    op = BatchedSofaAttention(wk, wv, CFG)
    cache = PagedDecodeCache(block_tokens=block_tokens)
    tokens = rng.uniform(-5, 5, size=(n, 40, h))
    tokens[0, 3, 5] = 100.0  # the token max lives in the prefix
    q = rng.normal(size=(n, 2, d))
    op(tokens, q, cache=cache, cache_keys=["s"])
    loud = _loudest_key_row(op.predictor._wk_pow2[0], 99.0)
    tokens = np.concatenate([tokens, loud[None, None]], axis=1)
    ref = op(tokens, q)
    got = op(tokens, q, cache=cache, cache_keys=["s"])
    golden = SofaAttention(wk[0], wv[0], CFG)(tokens[0], q[0])
    assert got.per_head[0].output.tobytes() == ref.per_head[0].output.tobytes()
    assert got.per_head[0].output.tobytes() == golden.output.tobytes()
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.invalidations, stats.rescales) == (1, 1, 0, 1)
    assert (stats.rows_reused, stats.rows_appended) == (40, 1)

    full = PagedDecodeCache(block_tokens=block_tokens)
    op(tokens, q, cache=full, cache_keys=["s"])  # a miss: a full put
    assert full.stats.misses == 1
    stored, want = _only_entry(cache), _only_entry(full)
    for name in ENTRY_FIELDS:
        assert getattr(stored, name).tobytes() == getattr(want, name).tobytes()
    for name in ("seq_len", "tok_scale", "tok_max_abs", "key_max_abs", "quantized"):
        assert getattr(stored, name) == getattr(want, name)

    # The rescaled entry serves plain hits again.
    tokens = np.concatenate([tokens, rng.uniform(-5, 5, size=(n, 1, h))], axis=1)
    got = op(tokens, q, cache=cache, cache_keys=["s"])
    assert op(tokens, q).per_head[0].output.tobytes() == got.per_head[0].output.tobytes()
    assert (cache.stats.hits, cache.stats.rescales) == (2, 1)
    cache.close()
    full.close()


def _hit_allocation(s: int) -> tuple[int, int]:
    """Peak bytes a cache hit of an ``s``-row sequence allocates, and the
    size of the ``k_hat`` the caller gets back."""
    rng = make_rng(33)
    h = d = 64
    predictor = StackedDlzsPredictor(rng.normal(size=(1, h, d)))
    tokens = rng.integers(-60, 60, size=(s + 2, h)).astype(np.float64)
    tokens[0] = _loudest_key_row(predictor._wk_pow2[0], 100.0)  # both maxima
    q = rng.normal(size=(1, 1, d))
    cache = PagedDecodeCache()
    for stop in (s, s + 1):  # the fill (a miss), then one warm hit
        predictor.predict_prepared([tokens[:stop]], q, cache=cache, cache_keys=["k"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prep = predictor.predict_prepared([tokens], q, cache=cache, cache_keys=["k"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cache.stats.hits, cache.stats.misses, cache.stats.rescales) == (2, 1, 0)
    cache.close()
    return peak - before, prep.k_hat.nbytes


def test_a_hit_allocates_nothing_that_grows_with_s():
    """A paged-cache hit reads the stored blocks in place: apart from the
    caller's ``k_hat`` rows it allocates no array that grows with ``S``.
    Only the view's block references do, by a few bytes per 32-row
    block; one O(S) copy of any field at S = 8k would be >= 512 KiB."""
    small_peak, small_k_hat = _hit_allocation(1024)
    large_peak, large_k_hat = _hit_allocation(8192)
    small, large = small_peak - small_k_hat, large_peak - large_k_hat
    assert large - small < 32 * 1024, (small, large)


def test_rewritten_prefix_and_shrunk_sequence_miss():
    rng = make_rng(23)
    n, h, d = 1, 10, 10
    op = BatchedSofaAttention(
        rng.normal(size=(n, h, d)), rng.normal(size=(n, h, d)), CFG
    )
    cache = PagedDecodeCache()
    tokens = rng.integers(-50, 50, size=(n, 32, h)).astype(np.float64)
    q = rng.normal(size=(n, 2, d))
    op(tokens, q, cache=cache, cache_keys=["s"])
    # rewrite one prefix token -> prefix equality fails -> invalidating miss
    mutated = tokens.copy()
    mutated[0, 3, 4] += 1.0
    ref = op(mutated, q)
    got = op(mutated, q, cache=cache, cache_keys=["s"])
    assert ref.per_head[0].output.tobytes() == got.per_head[0].output.tobytes()
    assert cache.stats.misses == 2 and cache.stats.invalidations == 1
    # shrink below the cached length -> miss again
    short = mutated[:, :16]
    ref = op(short, q)
    got = op(short, q, cache=cache, cache_keys=["s"])
    assert ref.per_head[0].output.tobytes() == got.per_head[0].output.tobytes()
    assert cache.stats.misses == 3


def test_mixed_keyed_and_keyless_heads_in_one_stack():
    rng = make_rng(24)
    n, h, d = 3, 12, 12
    op = BatchedSofaAttention(
        rng.normal(size=(n, h, d)), rng.normal(size=(n, h, d)), CFG
    )
    cache = PagedDecodeCache()
    tokens = rng.integers(-60, 60, size=(n, 40, h)).astype(np.float64)
    q = rng.normal(size=(n, 2, d))
    keys = ["a", None, "c"]
    ref = op(tokens, q)
    got = op(tokens, q, cache=cache, cache_keys=keys)
    for i in range(n):
        assert ref.per_head[i].output.tobytes() == got.per_head[i].output.tobytes()
    assert cache.stats.lookups == 2  # keyless head never touches the store


def test_cache_keys_length_validated():
    rng = make_rng(25)
    op = BatchedSofaAttention(
        rng.normal(size=(2, 8, 8)), rng.normal(size=(2, 8, 8)), CFG
    )
    with pytest.raises(ValueError):
        op(
            rng.integers(-10, 10, size=(2, 32, 8)).astype(np.float64),
            rng.normal(size=(2, 2, 8)),
            cache=PagedDecodeCache(),
            cache_keys=["only-one"],
        )


def test_same_user_key_different_weights_do_not_collide():
    """Store keys are namespaced by weight digests: two operators may share
    a user-visible sequence id without reading each other's K_hat."""
    rng = make_rng(26)
    h, d = 10, 10
    tokens = rng.integers(-40, 40, size=(1, 36, h)).astype(np.float64)
    q = rng.normal(size=(1, 2, d))
    cache = PagedDecodeCache()
    op_a = BatchedSofaAttention(
        rng.normal(size=(1, h, d)), rng.normal(size=(1, h, d)), CFG
    )
    op_b = BatchedSofaAttention(
        rng.normal(size=(1, h, d)), rng.normal(size=(1, h, d)), CFG
    )
    ref_a = op_a(tokens, q)
    ref_b = op_b(tokens, q)
    got_a = op_a(tokens, q, cache=cache, cache_keys=["shared"])
    got_b = op_b(tokens, q, cache=cache, cache_keys=["shared"])
    assert ref_a.per_head[0].output.tobytes() == got_a.per_head[0].output.tobytes()
    assert ref_b.per_head[0].output.tobytes() == got_b.per_head[0].output.tobytes()
    assert cache.stats.misses == 2  # op_b could NOT reuse op_a's entry
    assert len(cache) == 2


def _decode_steps(op, cache, tokens, rng, steps, key="shared"):
    """Grow ``tokens`` (``(1, S, H)``) by ``steps`` rows through ``op`` on
    ``cache``; every result must equal the uncached call bit for bit."""
    for _ in range(steps):
        new = rng.integers(-40, 40, size=(1, 1, tokens.shape[2])).astype(np.float64)
        tokens = np.concatenate([tokens, new], axis=1)
        q = rng.normal(size=(1, 2, op._wk.shape[2]))
        got = op(tokens, q, cache=cache, cache_keys=[key])
        ref = op(tokens, q)
        assert got.per_head[0].output.tobytes() == ref.per_head[0].output.tobytes()
        np.testing.assert_array_equal(got.per_head[0].selected, ref.per_head[0].selected)
    return tokens


@pytest.mark.parametrize(
    "change", ["wv", "wk_times_2"], ids=["only-wv-changed", "wk-scaled-x2"]
)
def test_same_key_other_float_weights_read_no_stored_projection(change):
    """A decode cache keyed by ``cache_key`` reuses an entry's codes
    whenever the pre-converted ``Wk`` codes match, which they do when only
    ``wv`` changes or ``wk`` is scaled by 2 (the LZ codes are scale-free).
    The float K/V projections change in both cases, so stored projection
    rows are kept per float-weight digest: the second operator's steps are
    code hits, yet bit-identical to the uncached engine."""
    rng = make_rng(34)
    h, d = 12, 12
    wk, wv = rng.normal(size=(1, h, d)), rng.normal(size=(1, h, d))
    if change == "wv":
        wk_b, wv_b = wk, rng.normal(size=(1, h, d))
    else:
        wk_b, wv_b = 2.0 * wk, wv
    op_a = BatchedSofaAttention(wk, wv, CFG)
    op_b = BatchedSofaAttention(wk_b, wv_b, CFG)
    np.testing.assert_array_equal(op_a.predictor._wk_pow2, op_b.predictor._wk_pow2)
    cache = PagedDecodeCache(block_tokens=8)
    tokens = rng.integers(-40, 40, size=(1, 40, h)).astype(np.float64)
    tokens[0, 2, 3] = 90.0  # the token max lives in the prefix
    tokens = _decode_steps(op_a, cache, tokens, rng, 3)
    hits = cache.stats.hits
    _decode_steps(op_b, cache, tokens, rng, 3)
    assert cache.stats.hits == hits + 3  # op_b's codes came from op_a's entry
    assert len(cache) == 1
    assert cache.stats.projection_hits > 0


def test_signed_zero_prefix_misses_and_stays_bit_identical():
    """The prefix witness compares bits: a request whose token prefix
    differs from the stored one only in the sign of one zero misses (it
    would otherwise be served rows stored for other bits) and its result
    is bit-identical to the uncached engine."""
    rng = make_rng(35)
    h, d = 10, 10
    wk, wv = rng.normal(size=(h, d)), rng.normal(size=(h, d))
    tokens = rng.integers(-40, 40, size=(36, h)).astype(np.float64)
    tokens[5, :] = 0.0
    engine, uncached = SofaEngine(CFG, cache_block_tokens=8), SofaEngine(CFG)
    try:
        flipped = np.concatenate([tokens, rng.integers(-40, 40, size=(1, h)).astype(np.float64)])
        flipped[5, 4] = -0.0
        for step in (tokens, flipped):
            q = rng.normal(size=(2, d))
            got = engine.run([AttentionRequest(tokens=step, q=q, wk=wk, wv=wv, cache_key="s")])
            ref = uncached.run([AttentionRequest(tokens=step, q=q, wk=wk, wv=wv)])
            assert got[0].output.tobytes() == ref[0].output.tobytes()
            np.testing.assert_array_equal(got[0].selected, ref[0].selected)
        stats = engine.stats.cache
        assert (stats.hits, stats.misses, stats.invalidations) == (0, 2, 1)
    finally:
        engine.shutdown()
        uncached.shutdown()


@BLOCK_LAYOUTS
def test_prefix_witness_compares_bits(block_tokens):
    cache = PagedDecodeCache(block_tokens=block_tokens)
    tokens = np.arange(30, dtype=np.float64).reshape(10, 3) - 4.0  # holds a 0.0
    entry = DecodeCacheEntry(
        tokens=tokens, tok_values=tokens.astype(np.int64), tok_scale=1.0,
        tok_max_abs=25.0, key_codes=np.zeros((10, 2), dtype=np.int64),
        key_max_abs=0.0, quantized=True,
    )
    cache.put("k", entry)
    view = cache.get("k")
    grown = np.concatenate([tokens, np.ones((2, 3))])
    assert view.has_prefix(grown)
    assert view.has_prefix(np.asfortranarray(grown))  # layout is not bits
    signed = grown.copy()
    signed[1, 1] = -0.0
    assert (signed == grown).all() and not view.has_prefix(signed)
    assert not view.has_prefix(grown.astype(np.float32))
    nan_rows = tokens.copy()
    nan_rows[7, 0] = np.nan
    cache.put("nan", DecodeCacheEntry(**{**entry.__dict__, "tokens": nan_rows}))
    nan_view = cache.get("nan")
    assert not nan_view.nan_free and not nan_view.has_prefix(nan_rows)
    cache.close()


_H, _DK, _DV = 3, 2, 2
_WEIGHTS = {
    digest: (rng.normal(size=(1, _H, _DK)), rng.normal(size=(1, _H, _DV)))
    for digest, rng in (("wa", make_rng(71)), ("wb", make_rng(72)))
}
_MAX_ROWS = 30


def _token_stream(stream: int) -> np.ndarray:
    rng = make_rng(500 + stream)
    return rng.integers(-50, 50, size=(_MAX_ROWS, _H)).astype(np.float64)


def _stream_entry(stream: int, lo: int, hi: int) -> DecodeCacheEntry:
    tokens = _token_stream(stream)[lo:hi]
    return DecodeCacheEntry(
        tokens=tokens.copy(), tok_values=tokens.astype(np.int64), tok_scale=1.0,
        tok_max_abs=50.0, key_codes=tokens[:, :_DK].astype(np.int64),
        key_max_abs=50.0, quantized=True,
    )


def _projected(tokens: np.ndarray, digest: str) -> np.ndarray:
    wk, wv = _WEIGHTS[digest]
    rows = np.zeros(tokens.shape[0], dtype=np.int64)
    return np.concatenate(
        [det_gathered_project(tokens, wk, rows), det_gathered_project(tokens, wv, rows)],
        axis=1,
    )


def _gather_and_fill(cache, chains: list, digest: str) -> int:
    """One gather over every row of every chain (a chain is ``(record,
    tokens)``): each row the arena serves must equal its token row's
    projection bit for bit; the rest are projected and written back.
    Returns how many rows were served."""
    head_idx = np.concatenate(
        [np.full(t.shape[0], i, dtype=np.int64) for i, (_, t) in enumerate(chains)]
    )
    tok_idx = np.concatenate([np.arange(t.shape[0]) for _, t in chains])
    tokens = np.concatenate([t for _, t in chains])
    gathered = cache.gather_projected(
        [c for c, _ in chains], [digest] * len(chains), _DK + _DV, head_idx, tok_idx
    )
    want = _projected(tokens, digest)
    found = gathered.found
    assert gathered.rows[found].tobytes() == want[found].tobytes()
    missing = np.flatnonzero(~found)
    cache.store_projected(gathered, missing, want[missing])
    return int(found.sum())


def test_stale_tables_neither_read_nor_write_recycled_slots():
    """A gather's write-back lands only in slots still holding the
    generation the gather read, and a chain record from before the pool
    was cleared reads nothing from slots now owned by other blocks."""
    cache = PagedDecodeCache(block_tokens=4)
    rows = {stream: _token_stream(stream)[:8] for stream in range(3)}
    keep = cache.put("keep", _stream_entry(2, 0, 4))  # keeps the arena alive
    assert _gather_and_fill(cache, [(keep, rows[2][:4])], "wa") == 0
    a = cache.put("a", _stream_entry(0, 0, 8))
    idx = np.arange(8)
    stale = cache.gather_projected([a], ["wa"], _DK + _DV, np.zeros(8, dtype=np.int64), idx)
    assert not stale.found.any()
    cache.invalidate("a")  # a's blocks leave the pool; their slots are free
    b = cache.put("b", _stream_entry(1, 0, 8))
    assert _gather_and_fill(cache, [(b, rows[1])], "wa") == 0  # b takes them
    cache.store_projected(stale, idx, _projected(rows[0], "wa"))  # too late
    assert _gather_and_fill(cache, [(b, rows[1])], "wa") == 8
    cache.clear()
    c = cache.put("c", _stream_entry(2, 0, 8))
    assert _gather_and_fill(cache, [(c, rows[2])], "wa") == 0
    assert _gather_and_fill(cache, [(c, rows[2])], "wa") == 8
    assert _gather_and_fill(cache, [(b, rows[1])], "wa") == 0
    cache.close()


@pytest.mark.parametrize("max_bytes", [None, 24000], ids=["unbudgeted", "budgeted"])
def test_threads_sharing_one_store_stay_bit_identical(max_bytes):
    """Operators on more threads than cores share one store, with a short
    switch interval.  Threads reuse each other's keys with other tokens and
    other weights, so appends race full puts, tails are sealed, slots are
    recycled between another thread's gather and its write-back, and (with
    a budget) projections are dropped and blocks spill; every result stays
    bit-identical to the uncached call."""
    import sys
    import threading

    rng = make_rng(36)
    h, d = 12, 12
    weights = [(rng.normal(size=(1, h, d)), rng.normal(size=(1, h, d))) for _ in range(2)]
    prompt = rng.integers(-40, 40, size=(1, 20, h)).astype(np.float64)
    prompt[0, 0, 0] = 90.0  # the token max lives in the shared prompt
    cache = PagedDecodeCache(block_tokens=4, max_bytes=max_bytes)
    errors: list = []

    def decode(thread: int) -> None:
        try:
            op = BatchedSofaAttention(*weights[thread % 2], CFG)
            trng = make_rng(100 + thread)
            tokens = prompt
            for step in range(16):
                if step % 6 == 5:
                    tokens = prompt  # restart the session: a full put
                new = trng.integers(-40, 40, size=(1, 1, h)).astype(np.float64)
                tokens = np.concatenate([tokens, new], axis=1)
                q = trng.normal(size=(1, 2, d))
                got = op(tokens, q, cache=cache, cache_keys=[f"s{thread % 3}"])
                ref = op(tokens, q)
                if got.per_head[0].output.tobytes() != ref.per_head[0].output.tobytes():
                    errors.append((thread, step))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append((thread, repr(error)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=decode, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert cache.stats.projection_hits > 0
    if max_bytes is not None:
        assert cache.stats.resident_bytes <= max_bytes
        assert cache.stats.spill_loads > 0
    cache.close()


_proj_op = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 3), st.integers(0, 2), st.integers(1, _MAX_ROWS)),
    st.tuples(st.just("append"), st.integers(0, 3), st.integers(0, 9)),
    st.tuples(st.just("invalidate"), st.integers(0, 3)),
    st.tuples(st.just("get"), st.integers(0, 3)),
    st.tuples(st.just("persist")),
)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(_proj_op, min_size=1, max_size=20),
    block_tokens=st.sampled_from([1, 3, 7]),
    max_bytes=st.sampled_from([None, 700, 4000]),
)
def test_gathered_projections_are_the_rows_projections_under_traffic(
    tmp_path_factory, ops, block_tokens, max_bytes
):
    """Hypothesis drives full puts, appends, lookups, invalidations and
    persists (which freeze private tails) under byte budgets that drop
    projections and spill blocks.  After every operation, one gather over
    every live key's chain - plus every chain record handed out earlier,
    whose blocks may since have been sealed, frozen, released or
    recycled - serves only rows equal to ``det_gathered_project`` of the
    row's own tokens, for two weight sets sharing the blocks."""
    cache = PagedDecodeCache(
        block_tokens=block_tokens, max_entries=8, max_bytes=max_bytes,
        spill_dir=tmp_path_factory.mktemp("spill"),
    )
    live: dict[int, tuple[int, int]] = {}  # key -> (stream, length)
    stale: list = []  # (record, tokens) of chains handed out before
    served = 0
    try:
        for op in ops:
            record = None
            if op[0] == "put":
                _, key, stream, length = op
                record = cache.put(key, _stream_entry(stream, 0, length))
                live[key] = (stream, length)
            elif op[0] == "append" and op[1] in live:
                key, (stream, length) = op[1], live[op[1]]
                grown = min(length + op[2], _MAX_ROWS)
                base = cache.get(key)
                record = cache.put(key, _stream_entry(stream, length, grown), base=base)
                assert record
                live[key] = (stream, grown)
            elif op[0] == "invalidate":
                assert cache.invalidate(op[1]) == (live.pop(op[1], None) is not None)
            elif op[0] == "get" and op[1] in live:
                record = cache.get(op[1]).source
            elif op[0] == "persist":
                cache.persist()
            if record:
                stream, length = live[op[1]]
                stale.append((record, _token_stream(stream)[:length]))
            chains = [
                (cache.get(key).source, _token_stream(stream)[:length])
                for key, (stream, length) in live.items()
            ] + stale[-6:]
            if chains:
                for digest in _WEIGHTS:
                    served += _gather_and_fill(cache, chains, digest)
                if max_bytes is None and live:  # everything just stored serves
                    assert _gather_and_fill(cache, chains[: len(live)], "wa") == sum(
                        t.shape[0] for _, t in chains[: len(live)]
                    )
            if max_bytes is not None:
                assert cache.stats.resident_bytes <= max_bytes
        cache.clear()
        assert cache.stats.resident_bytes == cache.stats.projection_bytes == 0
    finally:
        cache.close()


def test_float32_tokens_stay_bit_identical_through_cache():
    """Narrow float input must round in float64 on the hit path exactly as
    quantize/quantize_stack do on the uncached path."""
    rng = make_rng(31)
    n, h, d = 1, 14, 14
    op = BatchedSofaAttention(
        rng.normal(size=(n, h, d)), rng.normal(size=(n, h, d)), CFG
    )
    cache = PagedDecodeCache()
    tokens = (rng.uniform(-70, 70, size=(n, 44, h))).astype(np.float32)
    q = rng.normal(size=(n, 2, d))
    for _ in range(4):
        ref = op(tokens, q)
        got = op(tokens, q, cache=cache, cache_keys=["f32"])
        assert ref.per_head[0].output.tobytes() == got.per_head[0].output.tobytes()
        tokens = np.concatenate(
            [tokens, rng.uniform(-70, 70, size=(n, 1, h)).astype(np.float32)], axis=1
        )
    assert cache.stats.hits >= 1  # growth actually exercised the hit path


# ---------------------------------------------------------------- engine level
def test_engine_decode_loop_counters_exact_and_surfaced():
    rng = make_rng(27)
    h, d, steps = 16, 16, 6
    wk = rng.normal(size=(h, d))
    wv = rng.normal(size=(h, d))
    engine = SofaEngine(CFG)
    tokens = rng.integers(-70, 70, size=(48, h)).astype(np.float64)
    uncached = SofaEngine(CFG)
    for step in range(steps):
        if step:
            tokens = np.concatenate(
                [tokens, rng.integers(-70, 70, size=(1, h)).astype(np.float64)]
            )
        req = _decode_request(rng, tokens, wk, wv)
        fut = engine.submit(req)
        engine.flush()
        plain = uncached.submit(
            AttentionRequest(tokens=tokens, q=req.q, wk=wk, wv=wv)
        )
        uncached.flush()
        assert fut.result().output.tobytes() == plain.result().output.tobytes()
    assert engine.stats.cache_hits == steps - 1
    assert engine.stats.cache_misses == 1
    assert engine.stats.cache.hit_rate == pytest.approx((steps - 1) / steps)
    assert uncached.stats.cache.lookups == 0


def test_engine_invalidate_cache_by_session_prefix():
    rng = make_rng(28)
    h, d = 12, 12
    wk = rng.normal(size=(h, d))
    wv = rng.normal(size=(h, d))
    engine = SofaEngine(CFG)
    tokens = rng.integers(-60, 60, size=(40, h)).astype(np.float64)
    for head in range(3):
        engine.submit(
            _decode_request(rng, tokens, wk, wv, cache_key=("sess", 0, head))
        )
    engine.flush()
    assert engine.invalidate_cache("sess") == 3
    assert engine.invalidate_cache("sess") == 0


def test_shared_cache_across_engines():
    """Two engines sharing one store see each other's warm prefixes."""
    rng = make_rng(29)
    h, d = 12, 12
    wk = rng.normal(size=(h, d))
    wv = rng.normal(size=(h, d))
    shared = PagedDecodeCache()
    tokens = rng.integers(-60, 60, size=(40, h)).astype(np.float64)
    first = SofaEngine(CFG, cache=shared)
    first.run([_decode_request(rng, tokens, wk, wv)])
    grown = np.concatenate(
        [tokens, rng.integers(-60, 60, size=(1, h)).astype(np.float64)]
    )
    second = SofaEngine(CFG, cache=shared)
    second.run([_decode_request(rng, grown, wk, wv)])
    assert shared.stats.hits == 1 and shared.stats.misses == 1


# ------------------------------------------------------------------- TTL knob
def test_ttl_expires_idle_entries_with_injected_clock():
    now = [0.0]
    cache = PagedDecodeCache(max_entries=8, ttl_s=10.0, clock=lambda: now[0])
    cache.put(("a", CFG, "d"), _entry())
    cache.put(("b", CFG, "d"), _entry())
    now[0] = 5.0
    assert cache.get(("a", CFG, "d")) is not None  # touch refreshes "a"
    now[0] = 12.0  # "b" idle 12s > ttl, "a" idle 7s
    assert cache.get(("b", CFG, "d")) is None
    assert cache.get(("a", CFG, "d")) is not None
    assert cache.stats.expirations == 1
    assert len(cache) == 1


def test_ttl_sweep_expired_explicit_and_bytes_released():
    now = [0.0]
    cache = PagedDecodeCache(max_entries=8, ttl_s=1.0, clock=lambda: now[0])
    cache.put(("a", CFG, "d"), _entry())
    assert cache.stats.resident_bytes > 0
    now[0] = 2.0
    assert cache.sweep_expired() == 1
    assert cache.stats.resident_bytes == 0
    assert cache.stats.expirations == 1
    assert cache.sweep_expired() == 0  # nothing left


def test_ttl_expiration_distinct_from_lru_eviction():
    now = [0.0]
    cache = PagedDecodeCache(max_entries=1, ttl_s=100.0, clock=lambda: now[0])
    cache.put(("a", CFG, "d"), _entry())
    cache.put(("b", CFG, "d"), _entry())  # LRU pressure, not TTL
    assert cache.stats.evictions == 1
    assert cache.stats.expirations == 0


def test_ttl_validated():
    with pytest.raises(ValueError):
        PagedDecodeCache(ttl_s=0.0)
    with pytest.raises(ValueError):
        PagedDecodeCache(ttl_s=-1.0)


def test_engine_surfaces_ttl_expirations_in_stats():
    rng = make_rng(17)
    engine = SofaEngine(CFG, cache_ttl_s=1e-9)  # everything idles out instantly
    wk = rng.normal(size=(6, 4))
    wv = rng.normal(size=(6, 4))
    tokens = rng.integers(-50, 50, size=(32, 6)).astype(np.float64)
    for step in range(3):
        tokens = np.concatenate([tokens, rng.integers(-50, 50, size=(1, 6)).astype(np.float64)])
        fut = engine.submit(_decode_request(rng, tokens, wk, wv, cache_key="abandoned"))
        engine.flush()
        fut.result()
    # every step's entry expired before the next lookup: all misses
    assert engine.stats.cache_hits == 0
    assert engine.stats.cache_misses == 3
    assert engine.stats.cache_expirations >= 2


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_decode_append_with_a_non_finite_row_raises_and_keeps_the_entry(value):
    """A decode step whose appended row holds NaN or inf raises ValueError
    on the cache's hit path, before any counter moves; the stored entry
    still serves the next finite step as a hit, bit-identical."""
    rng = make_rng(57)
    n, h, d = 1, 16, 16
    op = BatchedSofaAttention(rng.normal(size=(n, h, d)), rng.normal(size=(n, h, d)), CFG)
    cache = PagedDecodeCache()
    tokens = rng.integers(-80, 80, size=(n, 32, h)).astype(np.float64)
    q = rng.normal(size=(n, 2, d))
    op(tokens, q, cache=cache, cache_keys=["s"])
    bad = np.concatenate([tokens, tokens[:, -1:]], axis=1)
    bad[0, -1, 3] = value
    with pytest.raises(ValueError, match="non-finite"):
        op(bad, q, cache=cache, cache_keys=["s"])
    assert (cache.stats.hits, cache.stats.misses, cache.stats.invalidations) == (0, 1, 0)
    grown = np.concatenate([tokens, tokens[:, -1:]], axis=1)
    got = op(grown, q, cache=cache, cache_keys=["s"])
    assert cache.stats.hits == 1
    assert got.per_head[0].output.tobytes() == op(grown, q).per_head[0].output.tobytes()
