"""Paged decode-cache differential sweep: cached vs uncached.

The store's contract is that a hit is *provably* bit-identical to
recomputation, while it shares prefix blocks across sequences, holds a
hard RAM budget served from a disk spill tier, and survives a restart.
These tests drive one shared-prefix decode workload through an uncached
engine and through cached engines - with and without a byte budget -
across the engine and cluster tiers, and assert every output, selection
and op count is bit-identical - including sequences that diverge
mid-decode, entries reloaded from the spill tier, spill files whose
content was swapped or altered, and appends the store refuses because
another writer changed the key between the lookup and the put.
"""

import pickle
import time

import numpy as np
import pytest

from repro.core.config import SofaConfig
from repro.engine import AttentionRequest, BatchedSofaAttention, SofaEngine
from repro.engine.cache import ENTRY_FIELDS, DecodeCacheEntry
from repro.engine.paged import PagedDecodeCache
from repro.utils.rng import make_rng

CFG = SofaConfig(tile_cols=16, top_k=8)
H = D = 12
PREFIX_LEN = 32
BLOCK_TOKENS = 8
N_SESSIONS = 4
N_STEPS = 4


def _workload(seed: int):
    """Shared-prefix decode traffic: N sessions, common system prompt.

    The max-magnitude token sits inside the shared prefix, so every
    session quantizes with the same scale and the prefix rows are
    bit-identical across sessions - the condition under which the paged
    store's content hashing shares their blocks.
    """
    rng = make_rng(seed)
    wk = rng.normal(size=(H, D))
    wv = rng.normal(size=(H, D))
    prefix = rng.integers(-80, 80, size=(PREFIX_LEN, H)).astype(np.float64)
    prefix[3, 5] = 120.0  # the global max lives in the shared prefix
    tails = rng.integers(-60, 60, size=(N_SESSIONS, N_STEPS, H)).astype(np.float64)
    queries = rng.normal(size=(N_STEPS + 1, 2, D))
    return wk, wv, prefix, tails, queries


def _session_tokens(prefix, tails, session, step):
    if step == 0:
        return prefix  # every session starts identical: full entry sharing
    return np.concatenate([prefix, tails[session, :step]])


def _assert_result_identical(ref, got):
    assert ref.output.tobytes() == got.output.tobytes()
    np.testing.assert_array_equal(ref.selected, got.selected)
    for st_r, st_g in zip(ref.stages, got.stages):
        for opn in set(st_r.ops.counts) | set(st_g.ops.counts):
            assert st_r.ops[opn] == st_g.ops[opn]


class _RacingCache(PagedDecodeCache):
    """A paged store in which another writer changes every key right
    after its lookup: it re-puts the identical entry (a new chain) or
    drops the key, alternately.  The predictor's append then always sees
    a stale ``base`` and must fall back to a full put."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.lookups = self.refused = 0

    def get(self, key):
        entry = super().get(key)
        if entry is not None:
            self.lookups += 1
            if self.lookups % 2:
                super().put(key, entry)
            else:
                self.invalidate(key)
        return entry

    def put(self, key, entry, *, base=None):
        stored = super().put(key, entry, base=base)
        self.refused += not stored
        return stored


@pytest.mark.paged_cache
def test_differential_sweep_engine():
    wk, wv, prefix, tails, queries = _workload(41)
    uncached = SofaEngine(CFG)
    unbudgeted = SofaEngine(CFG, cache_block_tokens=BLOCK_TOKENS)
    racing_cache = _RacingCache(block_tokens=BLOCK_TOKENS)
    racing = SofaEngine(CFG, cache=racing_cache)
    paged = SofaEngine(
        CFG,
        cache_block_tokens=BLOCK_TOKENS,
        # Tight RAM budget: blocks spill between steps and reload on the
        # next lookup, so the parity below covers the spill round-trip.
        cache_bytes=4 * BLOCK_TOKENS * H * 8,
    )
    try:
        for step in range(N_STEPS + 1):
            q = queries[step]
            for session in range(N_SESSIONS):
                tokens = _session_tokens(prefix, tails, session, step)
                base = dict(tokens=tokens, q=q, wk=wk, wv=wv)
                futures = [
                    uncached.submit(AttentionRequest(**base)),
                    unbudgeted.submit(
                        AttentionRequest(**base, cache_key=("sess", session))
                    ),
                    paged.submit(
                        AttentionRequest(**base, cache_key=("sess", session))
                    ),
                    racing.submit(
                        AttentionRequest(**base, cache_key=("sess", session))
                    ),
                ]
                for engine in (uncached, unbudgeted, paged, racing):
                    engine.flush()
                ref = futures[0].result()
                for future in futures[1:]:
                    _assert_result_identical(ref, future.result())
            if step == 0:
                # All sessions just submitted the identical prompt: their
                # entries are the same four blocks, all shared.
                assert paged.cache.stats.shared_blocks == PREFIX_LEN // BLOCK_TOKENS
        free_stats, paged_stats = unbudgeted.cache.stats, paged.cache.stats
        # Spilling never changes a hit/miss decision: the budgeted and
        # the unbudgeted store made identical calls on identical traffic.
        assert free_stats.spill_loads == 0
        assert paged_stats.hits == free_stats.hits > 0
        assert paged_stats.misses == free_stats.misses
        assert paged_stats.invalidations == free_stats.invalidations
        assert paged_stats.rows_reused == free_stats.rows_reused
        # Divergence was copy-on-write: the shared prefix blocks survived it.
        assert paged_stats.shared_blocks >= PREFIX_LEN // BLOCK_TOKENS
        # The budget forced the spill tier into the loop, and held.
        assert paged_stats.spill_loads > 0
        assert paged_stats.resident_bytes <= paged.cache.max_bytes
        assert paged_stats.evictions == 0  # spill, not data loss
        # Every hit's append met a stale base and fell back to a full
        # put, which re-stored the grown entry: the next step hits again.
        assert racing.cache.stats.hits == free_stats.hits
        assert racing_cache.refused == racing_cache.lookups == free_stats.hits
    finally:
        for engine in (uncached, unbudgeted, paged, racing):
            engine.shutdown()
        racing_cache.close()


@pytest.mark.paged_cache
def test_oversized_entry_spills_instead_of_overshooting():
    """A single entry larger than ``max_bytes`` must not leave
    ``resident_bytes`` over budget: the store parks it in the spill tier
    and still serves it."""
    rng = make_rng(5)
    tokens = rng.normal(size=(64, H))
    entry = DecodeCacheEntry(
        tokens=tokens,
        tok_values=np.rint(tokens * 50).astype(np.int64),
        tok_scale=0.02,
        tok_max_abs=float(np.max(np.abs(tokens))),
        key_codes=rng.integers(-500, 500, size=(64, D)).astype(np.int64),
        key_max_abs=500.0,
        quantized=True,
    )
    nbytes = sum(getattr(entry, name).nbytes for name in ENTRY_FIELDS)
    cache = PagedDecodeCache(block_tokens=BLOCK_TOKENS, max_bytes=nbytes // 4)
    cache.put("big", entry)
    assert cache.stats.resident_bytes <= cache.max_bytes
    assert cache.stats.spilled_bytes > 0
    assert len(cache) == 1  # spilled, not dropped
    got = cache.get("big")
    assert got.tokens.tobytes() == entry.tokens.tobytes()
    assert got.tok_values.tobytes() == entry.tok_values.tobytes()
    assert got.key_codes.tobytes() == entry.key_codes.tobytes()
    assert got.tokens.dtype == entry.tokens.dtype
    assert cache.stats.spill_loads > 0
    assert cache.stats.resident_bytes <= cache.max_bytes  # re-enforced
    cache.close()


@pytest.mark.paged_cache
def test_persisted_cache_survives_restart_bit_exactly(tmp_path):
    """persist() + a fresh engine over the same spill_dir: the restored
    entry serves a *hit* on the first post-restart step, bit-identical to
    the uncached computation."""
    wk, wv, prefix, tails, queries = _workload(43)
    spill = str(tmp_path / "cache")
    tokens = _session_tokens(prefix, tails, 0, 2)
    first = SofaEngine(
        CFG, cache_block_tokens=BLOCK_TOKENS,
        cache_spill_dir=spill,
    )
    first.run([AttentionRequest(tokens=tokens, q=queries[2], wk=wk, wv=wv,
                                cache_key=("sess", 0))])
    assert first.stats.cache_misses == 1
    first.cache.persist()
    first.shutdown()  # leaves the explicit spill_dir intact

    grown = _session_tokens(prefix, tails, 0, 3)
    second = SofaEngine(
        CFG, cache_block_tokens=BLOCK_TOKENS,
        cache_spill_dir=spill,
    )
    uncached = SofaEngine(CFG)
    try:
        got = second.run([AttentionRequest(tokens=grown, q=queries[3], wk=wk,
                                           wv=wv, cache_key=("sess", 0))])[0]
        ref = uncached.run([AttentionRequest(tokens=grown, q=queries[3],
                                             wk=wk, wv=wv)])[0]
        _assert_result_identical(ref, got)
        assert second.stats.cache_hits == 1  # restored state, no recompute
        assert second.stats.cache_misses == 0
        assert second.cache.stats.spill_loads > 0  # faulted in from disk
    finally:
        second.shutdown()
        uncached.shutdown()


@pytest.mark.paged_cache
def test_version_1_spill_dir_restores_nothing(tmp_path):
    """Version-1 spill files held raw ``K_hat`` rows under ``key_values``;
    blocks now hold truncated codes.  A spill dir in the version-1 layout
    restores nothing: its lookup misses and the output is bit-identical
    to uncached serving."""
    wk, wv, prefix, tails, queries = _workload(59)
    spill = tmp_path / "cache"
    tokens = _session_tokens(prefix, tails, 0, 2)
    first = SofaEngine(
        CFG, cache_block_tokens=BLOCK_TOKENS,
        cache_spill_dir=str(spill),
    )
    first.run([AttentionRequest(tokens=tokens, q=queries[2], wk=wk, wv=wv,
                                cache_key=("sess", 0))])
    manifest_path = first.cache.persist()
    first.shutdown()
    with open(manifest_path, "rb") as fh:
        manifest = pickle.load(fh)
    assert manifest["version"] == 2
    manifest["version"] = 1
    with open(manifest_path, "wb") as fh:
        pickle.dump(manifest, fh)
    for path in spill.glob("*.npz"):
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["key_values"] = arrays.pop("key_codes")
        np.savez(path, **arrays)

    grown = _session_tokens(prefix, tails, 0, 3)
    second = SofaEngine(
        CFG, cache_block_tokens=BLOCK_TOKENS,
        cache_spill_dir=str(spill),
    )
    uncached = SofaEngine(CFG)
    try:
        assert len(second.cache) == 0
        got = second.run([AttentionRequest(tokens=grown, q=queries[3], wk=wk,
                                           wv=wv, cache_key=("sess", 0))])[0]
        ref = uncached.run([AttentionRequest(tokens=grown, q=queries[3],
                                             wk=wk, wv=wv)])[0]
        _assert_result_identical(ref, got)
        assert (second.stats.cache_hits, second.stats.cache_misses) == (0, 1)
    finally:
        second.shutdown()
        uncached.shutdown()


@pytest.mark.paged_cache
def test_sessions_share_the_prompt_when_it_holds_the_key_max():
    """Blocks hold truncated ``K_hat`` codes, whose scale follows the
    sequence's loudest ``K_hat`` row.  When that row (and the token max)
    lives in a shared prompt, sessions that diverge after it keep the
    prompt's codes and so keep sharing its blocks, step after step."""
    rng = make_rng(61)
    wk1, wv1 = rng.normal(size=(H, D)), rng.normal(size=(H, D))
    op = BatchedSofaAttention(np.stack([wk1, wk1]), np.stack([wv1, wv1]), CFG)
    pow2 = op.predictor._wk_pow2[0]
    prompt = rng.integers(-60, 60, size=(PREFIX_LEN, H)).astype(np.float64)
    col = int(np.argmax(np.abs(pow2).sum(axis=0)))
    prompt[5] = 100.0 * np.sign(pow2[:, col])  # both maxima in the prompt
    tails = rng.integers(-60, 60, size=(2, N_STEPS, H)).astype(np.float64)
    cache = PagedDecodeCache(block_tokens=BLOCK_TOKENS)
    for step in range(1, N_STEPS + 1):
        tokens = np.stack([np.concatenate([prompt, tail[:step]]) for tail in tails])
        q = rng.normal(size=(2, 2, D))
        ref = op(tokens, q)
        got = op(tokens, q, cache=cache, cache_keys=["a", "b"])
        for i in range(2):
            _assert_result_identical(ref.per_head[i], got.per_head[i])
        assert cache.stats.shared_blocks == PREFIX_LEN // BLOCK_TOKENS
    assert (cache.stats.hits, cache.stats.rescales) == (2 * (N_STEPS - 1), 0)
    cache.close()


def _fully_spilled_cache(spill_dir) -> PagedDecodeCache:
    """A store holding one 6-row entry ``"k"`` as three spilled blocks."""
    tokens = np.arange(18, dtype=np.float64).reshape(6, 3)
    entry = DecodeCacheEntry(
        tokens=tokens, tok_values=tokens.astype(np.int64), tok_scale=1.0,
        tok_max_abs=17.0, key_codes=np.zeros((6, 2), dtype=np.int64),
        key_max_abs=0.0, quantized=True,
    )
    cache = PagedDecodeCache(block_tokens=2, max_bytes=1, spill_dir=str(spill_dir))
    cache.put("k", entry)
    assert cache.stats.spilled_blocks == 3
    return cache


@pytest.mark.paged_cache
def test_corrupt_spill_file_degrades_to_miss(tmp_path):
    """An unreadable spill file may only cost a recompute, never wrong bits
    or a crash: the entry demotes to a miss."""
    cache = _fully_spilled_cache(tmp_path)
    for path in tmp_path.glob("*.npz"):
        path.write_bytes(b"garbage")
    assert cache.get("k") is None
    assert len(cache) == 0
    cache.close()


@pytest.mark.paged_cache
@pytest.mark.parametrize("tamper", ["other_block", "altered_codes"])
def test_spill_file_with_other_content_degrades_to_miss(tmp_path, tamper):
    """A spill file that parses but does not hold its block's content -
    another block's rows, or the right tokens with altered ``key_codes``
    (which the token-prefix witness of a hit cannot see) - is treated
    like an unreadable one: the entry demotes to a miss."""
    cache = _fully_spilled_cache(tmp_path)
    first, second, _ = (
        tmp_path / f"{h}.npz" for h in cache._entries["k"].block_hashes
    )
    if tamper == "other_block":
        first.write_bytes(second.read_bytes())
    else:
        with np.load(first) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["key_codes"] = arrays["key_codes"] + 1
        np.savez(first, **arrays)
    assert cache.get("k") is None
    assert len(cache) == 0
    cache.close()


# ----------------------------------------------------------- cluster tier
@pytest.mark.cluster
@pytest.mark.paged_cache
def test_differential_sweep_cluster_tier():
    """The sweep across the process boundary: every worker runs a paged
    cache, outputs stay bit-identical to uncached single-engine serving,
    and the block-pool gauges aggregate into ClusterStats."""
    from repro.cluster import EngineCluster

    wk, wv, prefix, tails, queries = _workload(47)
    uncached = SofaEngine(CFG)
    refs = {}
    for step in range(N_STEPS + 1):
        for session in range(N_SESSIONS):
            tokens = _session_tokens(prefix, tails, session, step)
            refs[(step, session)] = uncached.run(
                [AttentionRequest(tokens=tokens, q=queries[step], wk=wk, wv=wv)]
            )[0]
    uncached.shutdown()

    with EngineCluster(
        n_workers=2,
        config=CFG,
        cache_block_tokens=BLOCK_TOKENS,
        cache_bytes=4 * BLOCK_TOKENS * H * 8,
    ) as cluster:
        for step in range(N_STEPS + 1):
            futures = {
                session: cluster.submit(
                    AttentionRequest(
                        tokens=_session_tokens(prefix, tails, session, step),
                        q=queries[step], wk=wk, wv=wv,
                        cache_key=("sess", session),
                    )
                )
                for session in range(N_SESSIONS)
            }
            cluster.flush()
            for session, future in futures.items():
                _assert_result_identical(refs[(step, session)], future.result())
        merged = cluster.stats.cache
        assert merged.hits > 0
        assert merged.shared_blocks > 0  # sharing happened inside workers
        assert merged.spill_loads > 0  # and the spill tier was exercised


@pytest.mark.cluster
@pytest.mark.paged_cache
def test_cluster_surfaces_expirations_from_idle_sweep():
    """Satellite: TTL expiry must advance on wall-clock time on an *idle*
    worker (the periodic sweep), and surface in aggregated ClusterStats."""
    from repro.cluster import EngineCluster

    wk, wv, prefix, tails, queries = _workload(53)
    with EngineCluster(
        n_workers=1, config=CFG, cache_ttl_s=0.05
    ) as cluster:
        cluster.run([
            AttentionRequest(tokens=prefix, q=queries[0], wk=wk, wv=wv,
                             cache_key="abandoned")
        ])
        time.sleep(0.8)  # > ttl_s + the worker's idle sweep interval
        # A later, unrelated request carries the snapshot back; its own
        # lookups never touch the expired key.
        cluster.run([
            AttentionRequest(tokens=prefix, q=queries[1], wk=wk, wv=wv,
                             cache_key="fresh")
        ])
        assert cluster.stats.cache_expirations >= 1
