"""Paged decode-cache differential sweep: flat vs paged vs uncached.

The paged store's contract is the flat store's contract - a hit is
*provably* bit-identical to recomputation - plus three things the flat
store cannot do: cross-sequence prefix sharing, a hard RAM budget served
from a disk spill tier, and restart survival.  These tests drive the same
shared-prefix decode workload through all three cache modes across the
engine and cluster tiers and assert every output, selection and op
count is bit-identical - including sequences that diverge mid-decode,
entries reloaded from the spill tier, and appends the store refuses
because another writer changed the key between the lookup and the put.
"""

import time

import numpy as np
import pytest

from repro.core.config import SofaConfig
from repro.engine import AttentionRequest, SofaEngine
from repro.engine.cache import make_decode_cache
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
    flat = SofaEngine(CFG, cache_kind="flat")
    racing_cache = _RacingCache(block_tokens=BLOCK_TOKENS)
    racing = SofaEngine(CFG, cache=racing_cache)
    paged = SofaEngine(
        CFG,
        cache_kind="paged",
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
                    flat.submit(
                        AttentionRequest(**base, cache_key=("sess", session))
                    ),
                    paged.submit(
                        AttentionRequest(**base, cache_key=("sess", session))
                    ),
                    racing.submit(
                        AttentionRequest(**base, cache_key=("sess", session))
                    ),
                ]
                for engine in (uncached, flat, paged, racing):
                    engine.flush()
                ref = futures[0].result()
                for future in futures[1:]:
                    _assert_result_identical(ref, future.result())
            if step == 0:
                # All sessions just submitted the identical prompt: their
                # entries are the same four blocks, all shared.
                assert paged.cache.stats.shared_blocks == PREFIX_LEN // BLOCK_TOKENS
        flat_stats, paged_stats = flat.cache.stats, paged.cache.stats
        # Spilling never changes a hit/miss decision: the two stores made
        # identical calls on identical traffic.
        assert paged_stats.hits == flat_stats.hits > 0
        assert paged_stats.misses == flat_stats.misses
        assert paged_stats.invalidations == flat_stats.invalidations
        assert paged_stats.rows_reused == flat_stats.rows_reused
        # Divergence was copy-on-write: the shared prefix blocks survived it.
        assert paged_stats.shared_blocks >= PREFIX_LEN // BLOCK_TOKENS
        # The budget forced the spill tier into the loop, and held.
        assert paged_stats.spill_loads > 0
        assert paged_stats.resident_bytes <= paged.cache.max_bytes
        assert paged_stats.evictions == 0  # spill, not data loss
        # Every hit's append met a stale base and fell back to a full
        # put, which re-stored the grown entry: the next step hits again.
        assert racing.cache.stats.hits == flat_stats.hits
        assert racing_cache.refused == racing_cache.lookups == flat_stats.hits
    finally:
        for engine in (uncached, flat, paged, racing):
            engine.shutdown()
        racing_cache.close()


@pytest.mark.paged_cache
def test_oversized_entry_spills_instead_of_overshooting():
    """A single entry larger than ``max_bytes`` must not leave
    ``resident_bytes`` over budget (the flat store's silent overshoot):
    the paged store parks it in the spill tier and still serves it."""
    from repro.engine.cache import DecodeCacheEntry

    rng = make_rng(5)
    tokens = rng.normal(size=(64, H))
    entry = DecodeCacheEntry(
        tokens=tokens,
        tok_values=np.rint(tokens * 50).astype(np.int64),
        tok_scale=0.02,
        tok_max_abs=float(np.max(np.abs(tokens))),
        key_values=rng.integers(-500, 500, size=(64, D)).astype(np.int64),
        quantized=True,
    )
    cache = make_decode_cache(
        "paged", block_tokens=BLOCK_TOKENS, max_bytes=entry.nbytes // 4
    )
    cache.put("big", entry)
    assert cache.stats.resident_bytes <= cache.max_bytes
    assert cache.stats.spilled_bytes > 0
    assert len(cache) == 1  # spilled, not dropped
    got = cache.get("big")
    assert got.tokens.tobytes() == entry.tokens.tobytes()
    assert got.tok_values.tobytes() == entry.tok_values.tobytes()
    assert got.key_values.tobytes() == entry.key_values.tobytes()
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
        CFG, cache_kind="paged", cache_block_tokens=BLOCK_TOKENS,
        cache_spill_dir=spill,
    )
    first.run([AttentionRequest(tokens=tokens, q=queries[2], wk=wk, wv=wv,
                                cache_key=("sess", 0))])
    assert first.stats.cache_misses == 1
    first.cache.persist()
    first.shutdown()  # leaves the explicit spill_dir intact

    grown = _session_tokens(prefix, tails, 0, 3)
    second = SofaEngine(
        CFG, cache_kind="paged", cache_block_tokens=BLOCK_TOKENS,
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
def test_corrupt_spill_file_degrades_to_miss(tmp_path):
    """An unreadable spill file may only cost a recompute, never wrong bits
    or a crash: the entry demotes to a miss."""
    from repro.engine.cache import DecodeCacheEntry

    tokens = np.arange(18, dtype=np.float64).reshape(6, 3)
    entry = DecodeCacheEntry(
        tokens=tokens, tok_values=tokens.astype(np.int64), tok_scale=1.0,
        tok_max_abs=17.0, key_values=np.zeros((6, 2), dtype=np.int64),
        quantized=True,
    )
    cache = make_decode_cache(
        "paged", block_tokens=2, max_bytes=1, spill_dir=str(tmp_path)
    )
    cache.put("k", entry)
    assert cache.stats.spilled_blocks == 3
    for path in tmp_path.glob("*.npz"):
        path.write_bytes(b"garbage")
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
        routing="cache_affinity",
        cache_kind="paged",
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
