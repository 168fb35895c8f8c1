"""Decode-step cache tests: exact counters, invalidation, bit parity.

The cache's contract is conservative reuse: a hit must be *provably*
bit-identical to recomputation (same token prefix, same quantization
scale), anything else is a miss that recomputes from scratch.  Counters are
exact and observable through ``SofaEngine.stats``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import SofaConfig
from repro.core.dlzs import StackedDlzsPredictor
from repro.core.pipeline import SofaAttention
from repro.engine import AttentionRequest, BatchedSofaAttention, SofaEngine
from repro.engine.cache import (
    ENTRY_FIELDS,
    DecodeCacheEntry,
    DecodeStepCache,
    make_decode_cache,
)
from repro.utils.rng import make_rng

CFG = SofaConfig(tile_cols=16, top_k=8)


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
    cache = DecodeStepCache(max_entries=4)
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
    cache = DecodeStepCache(max_entries=2)
    for i in range(3):
        cache.put((i, CFG, "d"), _entry())
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.get((0, CFG, "d")) is None  # the oldest fell out


def test_store_invalidate_prefix_matches_session_tuples():
    cache = DecodeStepCache()
    for layer in range(2):
        for head in range(3):
            cache.put((("sess-a", layer, head), CFG, "d"), _entry())
    cache.put((("sess-b", 0, 0), CFG, "d"), _entry())
    assert cache.invalidate_prefix("sess-a") == 6
    assert len(cache) == 1
    assert cache.invalidate_prefix("sess-a") == 0


@pytest.mark.parametrize("kind", ["flat", "paged"])
def test_invalidate_prefix_matches_scalar_and_tuple_keys(kind):
    """Both documented key shapes must be reachable by invalidate_prefix:
    predictor-composed ``(user_key, config, digest)`` tuples AND plain
    scalar keys written by callers driving the store directly (these used
    to fall through the tuple-only matcher and silently drop nothing)."""
    cache = make_decode_cache(kind)
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
        DecodeStepCache(max_entries=0)


# -------------------------------------------------------------- operator level
def test_cached_operator_bit_identical_across_growth_and_counters_exact():
    """Growing a sequence: every step a hit, all results bit-identical."""
    rng = make_rng(21)
    n, h, d = 2, 16, 16
    wk = rng.normal(size=(n, h, d))
    wv = rng.normal(size=(n, h, d))
    op = BatchedSofaAttention(wk, wv, CFG)
    cache = DecodeStepCache()
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
    cache = DecodeStepCache()
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


@pytest.mark.parametrize("kind", ["flat", "paged"])
def test_louder_key_row_rescales_as_a_hit_and_stays_identical(kind):
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
    cache = make_decode_cache(kind)
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

    full = make_decode_cache(kind)
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
    cache = make_decode_cache("paged")
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
    cache = DecodeStepCache()
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
    cache = DecodeStepCache()
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
            cache=DecodeStepCache(),
            cache_keys=["only-one"],
        )


def test_same_user_key_different_weights_do_not_collide():
    """Store keys are namespaced by weight digests: two operators may share
    a user-visible sequence id without reading each other's K_hat."""
    rng = make_rng(26)
    h, d = 10, 10
    tokens = rng.integers(-40, 40, size=(1, 36, h)).astype(np.float64)
    q = rng.normal(size=(1, 2, d))
    cache = DecodeStepCache()
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


def test_float32_tokens_stay_bit_identical_through_cache():
    """Narrow float input must round in float64 on the hit path exactly as
    quantize/quantize_stack do on the uncached path."""
    rng = make_rng(31)
    n, h, d = 1, 14, 14
    op = BatchedSofaAttention(
        rng.normal(size=(n, h, d)), rng.normal(size=(n, h, d)), CFG
    )
    cache = DecodeStepCache()
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


def test_resident_bytes_tracked_and_byte_bound_evicts():
    cache = DecodeStepCache(max_entries=64, max_bytes=3 * _entry().nbytes // 2)
    assert cache.stats.resident_bytes == 0
    cache.put(("a", CFG, "d"), _entry())
    one = cache.stats.resident_bytes
    assert one == _entry().nbytes > 0
    cache.put(("b", CFG, "d"), _entry())  # over the byte bound -> evict "a"
    assert cache.stats.evictions == 1
    assert cache.stats.resident_bytes == one
    assert cache.get(("a", CFG, "d")) is None
    cache.invalidate(("b", CFG, "d"))
    assert cache.stats.resident_bytes == 0
    with pytest.raises(ValueError):
        DecodeStepCache(max_bytes=0)


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
    shared = DecodeStepCache()
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
    cache = DecodeStepCache(max_entries=8, ttl_s=10.0, clock=lambda: now[0])
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
    cache = DecodeStepCache(max_entries=8, ttl_s=1.0, clock=lambda: now[0])
    cache.put(("a", CFG, "d"), _entry())
    assert cache.stats.resident_bytes > 0
    now[0] = 2.0
    assert cache.sweep_expired() == 1
    assert cache.stats.resident_bytes == 0
    assert cache.stats.expirations == 1
    assert cache.sweep_expired() == 0  # nothing left


def test_ttl_expiration_distinct_from_lru_eviction():
    now = [0.0]
    cache = DecodeStepCache(max_entries=1, ttl_s=100.0, clock=lambda: now[0])
    cache.put(("a", CFG, "d"), _entry())
    cache.put(("b", CFG, "d"), _entry())  # LRU pressure, not TTL
    assert cache.stats.evictions == 1
    assert cache.stats.expirations == 0


def test_ttl_validated():
    with pytest.raises(ValueError):
        DecodeStepCache(ttl_s=0.0)
    with pytest.raises(ValueError):
        DecodeStepCache(ttl_s=-1.0)


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
