"""Differential tests: the fused predict+select kernel is bit-exact.

The fused kernel (``repro.kernels.predict_select_fused``) must reproduce
the reference ``DlzsPredictor.predict`` -> ``SadsSorter.select_stack``
pipeline bit for bit - selections, ordering, comparator/clip tallies, op
counters, stage traces - while never materializing the full score matrix
(asserted through the kernel's peak-intermediate-size probe).  The sweep
here drives sorted/shuffled/heavy-tie/adversarial score layouts, tile
remainders, selections shorter than the SU-FA warmup scan, one-row
stacks, select-all and single-survivor edge cases, every
fused/reference stage combination, and the cached-decode interaction
with the paged store - across the per-head, batched, threads and engine
tiers.  The cluster/socket tests cover env-var kernel selection
propagating across the process boundary (satellite: worker engines must
resolve - and report - the same per-stage kernels as the frontend).
"""

import numpy as np
import pytest

from repro.core.config import DlzsConfig, SadsConfig, SofaConfig
from repro.core.dlzs import DlzsPredictor, StackedDlzsPredictor
from repro.core.pipeline import SofaAttention
from repro.core.sads import SadsSorter
from repro.engine import AttentionRequest, BatchedSofaAttention, SofaEngine
from repro.kernels import (
    FUSED,
    available_kernels,
    fused_pair,
    get_kernel,
    kernel_env_var,
    register_kernel,
    resolve_kernel_name,
)
from repro.utils.rng import make_rng


def _assert_stack_equal(ref, got):
    assert np.array_equal(ref.indices, got.indices)
    assert np.array_equal(ref.compare_rows, got.compare_rows)
    assert np.array_equal(ref.clipped_rows, got.clipped_rows)


def _assert_results_equal(a, b):
    assert a.output.tobytes() == b.output.tobytes()
    assert np.array_equal(a.selected, b.selected)
    assert a.total_ops.counts == b.total_ops.counts
    for sa, sb in zip(a.stages, b.stages):
        assert sa.name == sb.name
        assert sa.ops.counts == sb.ops.counts
        assert sa.dram_bytes == sb.dram_bytes
        assert sa.sram_peak_bytes == sb.sram_peak_bytes
    assert a.assurance_triggers == b.assurance_triggers


def _layout(rng, kind, r, s):
    if kind == "sorted":
        return np.sort(rng.normal(size=(r, s)), axis=1)[:, ::-1].copy()
    if kind == "ties":
        return rng.integers(-3, 4, size=(r, s)).astype(np.float64)
    if kind == "constant":  # every value ties: pure index tie-breaking
        return np.tile((np.arange(s, dtype=np.float64) % 5), (r, 1))
    return rng.normal(size=(r, s))


# ----------------------------------------------------- streamed selection
@pytest.mark.parametrize("kind", ["random", "sorted", "ties", "constant"])
def test_streamed_select_matches_reference_sweep(kind):
    """select_stack_streamed == select_stack over layouts x shapes x rounds."""
    rng = make_rng(hash(kind) % 2**31)
    for _ in range(40):
        r = int(rng.integers(1, 7))
        s = int(rng.integers(2, 130))
        k = int(rng.integers(1, s + 1))
        cfg = SadsConfig(
            n_segments=int(rng.integers(1, 9)),
            radius=float(rng.uniform(0.5, 8.0)),
            adjust_rounds=int(rng.integers(0, 6)),
        )
        sorter = SadsSorter(cfg)
        scores = _layout(rng, kind, r, s)
        ref = sorter.select_stack(scores, k)
        got = sorter.select_stack_streamed(
            lambda seg, lo, hi: scores[:, lo:hi], r, s, k
        )
        _assert_stack_equal(ref, got)


def test_streamed_select_edge_cases():
    """Select-all, single excluded candidate, k=1, one-row, huge rounds."""
    rng = make_rng(7)
    for s, k, rounds, segs in [
        (16, 16, 3, 4),   # k == s: no excluded pool at all
        (17, 16, 5, 4),   # exactly one excluded candidate
        (33, 1, 2, 4),    # k=1: argmin over a single selected value
        (9, 4, 50, 3),    # rounds far beyond the excluded population
        (5, 3, 2, 8),     # more segments than k: n collapses to k
        (2, 1, 1, 1),     # minimal everything
    ]:
        cfg = SadsConfig(n_segments=segs, adjust_rounds=rounds)
        sorter = SadsSorter(cfg)
        for r in (1, 4):
            scores = _layout(rng, "ties", r, s)
            ref = sorter.select_stack(scores, k)
            got = sorter.select_stack_streamed(
                lambda seg, lo, hi: scores[:, lo:hi], r, s, k
            )
            _assert_stack_equal(ref, got)


# ------------------------------------------------------------ fused kernel
def test_fused_single_head_bit_identical_and_never_full():
    """FUSED.run_single == predict -> select_stack, with only tile peaks."""
    rng = make_rng(21)
    for s, t, tile_cols in [(130, 3, 64), (64, 5, 16), (257, 2, 32), (48, 1, 5)]:
        cfg = SofaConfig(tile_cols=tile_cols)
        wk = rng.normal(size=(8, 8))
        predictor = DlzsPredictor(wk, cfg.dlzs)
        tokens = rng.integers(-50, 50, size=(s, 8)).astype(np.float64)
        q = rng.normal(size=(t, 8))
        sorter = SadsSorter(cfg.sads_for(cfg.n_tiles(s)))
        for k in (1, 2, s // 4 or 1, s):  # includes k < the SU-FA warmup scan
            full = predictor.predict(tokens, q)
            ref = sorter.select_stack(full.a_hat, k)
            prep, got = FUSED.run_single(predictor, sorter, tokens, q, k)
            _assert_stack_equal(ref, got)
            assert prep.ops.counts == full.ops.counts
            probe = FUSED.last_probe
            assert probe.exact_blas
            assert probe.full_matrix_elems == t * s
            n_seg = min(sorter.config.n_segments, k, s)
            if n_seg > 1:
                # The acceptance probe: peak intermediate is one tile, not
                # the full score matrix the unfused pipeline materializes.
                assert probe.peak_tile_elems < probe.full_matrix_elems
            assert probe.peak_tile_elems <= t * (-(-s // n_seg) + 1)


def test_fused_stacked_bit_identical():
    rng = make_rng(22)
    for n, s, t in [(1, 64, 4), (3, 130, 2), (4, 31, 1)]:
        cfg = SofaConfig(tile_cols=16)
        wk = rng.normal(size=(n, 8, 8))
        predictor = StackedDlzsPredictor(wk, cfg.dlzs)
        tokens = rng.integers(-50, 50, size=(n, s, 8)).astype(np.float64)
        q = rng.normal(size=(n, t, 8))
        sorter = SadsSorter(cfg.sads_for(cfg.n_tiles(s)))
        for k in (1, max(s // 5, 1), s):
            full = predictor.predict(tokens, q)
            ref = sorter.select_stack(full.a_hat.reshape(n * t, s), k)
            prep, got = FUSED.run_stacked(predictor, sorter, tokens, q, k)
            _assert_stack_equal(ref, got)
            for i in range(n):
                assert prep.head_ops[i].counts == full.head_ops[i].counts


def test_fused_int64_fallback_stays_exact():
    """Operands overflowing the float64 window fall back to int64 tiles.

    No in-tree config can overflow (the LZE caps widths at 16 bits), so a
    stub predictor hands the fused kernel prepared state with 40-bit
    operands, where float64 BLAS would actually round.
    """
    from repro.core.dlzs import PreparedPrediction
    from repro.numerics.linalg import _blas_exact
    from repro.numerics.complexity import OpCounter

    rng = make_rng(23)
    t, s, d = 3, 40, 8
    pow2 = (2 ** rng.integers(30, 40, size=(t, d))) * rng.choice([-1, 1], (t, d))
    k_hat = rng.integers(-(2**39), 2**39, size=(s, d))
    assert not _blas_exact(pow2, k_hat)
    prep = PreparedPrediction(
        k_hat=k_hat, pow2=pow2, scale=0.125, ops=OpCounter()
    )

    class _StubPredictor:
        def predict_prepared(self, tokens, q):
            return prep

    a_hat = (pow2 @ k_hat.T).astype(np.float64) * prep.scale
    sorter = SadsSorter(SadsConfig(n_segments=4))
    ref = sorter.select_stack(a_hat, 10)
    _, got = FUSED.run_single(_StubPredictor(), sorter, None, None, 10)
    _assert_stack_equal(ref, got)
    assert not FUSED.last_probe.exact_blas


# -------------------------------------------------- pipeline/engine tiers
def _head_problem(rng, s=48, h=16, dk=8, t=4):
    return (
        rng.integers(-50, 50, size=(s, h)).astype(np.float64),
        rng.normal(size=(t, dk)),
        rng.normal(size=(h, dk)),
        rng.normal(size=(h, dk)),
    )


@pytest.mark.parametrize("predict", ["reference", "fused"])
@pytest.mark.parametrize("select", ["reference", "fused"])
def test_pipeline_parity_across_kernel_combos(predict, select):
    """Every predict x select combination is bit-identical end to end -
    including the mixed ones, where each fused wrapper must degrade to its
    stage's reference behaviour."""
    rng = make_rng(31)
    tokens, q, wk, wv = _head_problem(rng)
    base_cfg = SofaConfig(tile_cols=16, top_k=0.25)
    ref = SofaAttention(wk, wv, base_cfg)(tokens, q)
    cfg = SofaConfig(
        tile_cols=16,
        top_k=0.25,
        dlzs=DlzsConfig(kernel=predict),
        sads=SadsConfig(kernel=select),
    )
    got = SofaAttention(wk, wv, cfg)(tokens, q)
    _assert_results_equal(ref, got)


def test_fused_pair_detection():
    pk, sk = get_kernel("predict", "fused"), get_kernel("select", "fused")
    assert fused_pair(pk, sk) is FUSED
    assert fused_pair(get_kernel("predict", "reference"), sk) is None
    assert fused_pair(pk, get_kernel("select", "reference")) is None


def test_batched_vs_per_head_fused_bits():
    rng = make_rng(37)
    n, s, h, dk = 3, 130, 16, 8  # tile remainder: 130 over 16-wide tiles
    cfg = SofaConfig(
        tile_cols=16,
        top_k=0.2,
        dlzs=DlzsConfig(kernel="fused"),
        sads=SadsConfig(kernel="fused"),
    )
    wk = rng.normal(size=(n, h, dk))
    wv = rng.normal(size=(n, h, dk))
    tokens = rng.integers(-50, 50, size=(n, s, h)).astype(np.float64)
    q = rng.normal(size=(n, 4, dk))
    batched = BatchedSofaAttention(wk, wv, cfg)(tokens, q)
    probe = FUSED.last_probe
    assert probe.rows == n * 4 and probe.row_len == s
    assert probe.peak_tile_elems < probe.full_matrix_elems
    for i in range(n):
        single = SofaAttention(wk[i], wv[i], cfg)(tokens[i], q[i])
        _assert_results_equal(single, batched.per_head[i])


#: the default config with the fused predict+select kernel pinned
FUSED_CFG = SofaConfig(dlzs=DlzsConfig(kernel="fused"), sads=SadsConfig(kernel="fused"))


def _engine_requests(rng, n=8, cache_keys=False):
    out = []
    for i in range(n):
        tokens, q, wk, wv = _head_problem(rng, s=(48 if i % 2 else 32))
        out.append(
            AttentionRequest(
                tokens=tokens, q=q, wk=wk, wv=wv,
                cache_key=f"seq-{i}" if cache_keys else None,
            )
        )
    return out


@pytest.mark.parametrize("backend", ["sync", "threads"])
def test_engine_fused_mapping_parity(backend):
    rng = make_rng(41)
    requests = _engine_requests(rng)
    with SofaEngine(max_batch_heads=4, backend=backend) as ref_engine:
        ref = ref_engine.run(requests)
    with SofaEngine(FUSED_CFG, max_batch_heads=4, backend=backend) as engine:
        assert engine.resolved_kernels()["predict"] == "fused"
        assert engine.resolved_kernels()["select"] == "fused"
        got = engine.run(requests)
    for a, b in zip(ref, got):
        _assert_results_equal(a, b)


def test_engine_cached_decode_fused_parity():
    """Growing sequences through the paged decode cache: the fused kernel
    consumes the cached phase-1.1 state (predict_prepared) yet stays
    bit-identical to the unfused cached and uncached paths."""
    rng = make_rng(43)
    h, dk = 16, 8
    wk, wv = rng.normal(size=(h, dk)), rng.normal(size=(h, dk))
    base = rng.integers(-50, 50, size=(64, h)).astype(np.float64)
    engines = {
        "plain": SofaEngine(max_batch_heads=4),
        "fused": SofaEngine(FUSED_CFG, max_batch_heads=4),
    }
    try:
        for step_len in (24, 32, 48, 64):  # growing prefix, same cache key
            results = {}
            for name, engine in engines.items():
                req = AttentionRequest(
                    tokens=base[:step_len],
                    q=rng.normal(size=(3, dk)) * 0 + 1.0,  # deterministic q
                    wk=wk,
                    wv=wv,
                    cache_key="session-0",
                )
                results[name] = engine.run([req])[0]
            _assert_results_equal(results["plain"], results["fused"])
        stats = {name: e.stats.cache for name, e in engines.items()}
        assert stats["fused"].hits == stats["plain"].hits
        assert stats["fused"].hits > 0
    finally:
        for engine in engines.values():
            engine.shutdown()


# ----------------------------------------------------- registry semantics
def test_per_stage_registry_lists_and_defaults():
    assert "fused" in available_kernels("predict")
    assert "fused" in available_kernels("select")
    assert "blocked" in available_kernels("stream")
    assert resolve_kernel_name("predict") in available_kernels("predict")


def test_registry_error_names_stage_source_and_candidates(monkeypatch):
    for stage in ("predict", "select", "stream"):
        monkeypatch.delenv(kernel_env_var(stage), raising=False)
    with pytest.raises(ValueError) as err:
        resolve_kernel_name("predict", "typo")
    msg = str(err.value)
    assert "predict kernel 'typo'" in msg
    assert "explicit kernel argument" in msg
    assert "'fused'" in msg and "'reference'" in msg
    # env-sourced bad name: the message must finger the variable
    monkeypatch.setenv(kernel_env_var("select"), "typo-from-env")
    with pytest.raises(ValueError) as err:
        resolve_kernel_name("select", None)
    msg = str(err.value)
    assert "environment variable SOFA_SELECT_KERNEL" in msg
    assert "typo-from-env" in msg
    with pytest.raises(ValueError, match="unknown kernel stage"):
        resolve_kernel_name("bogus-stage", "reference")


def test_engine_rejects_unknown_stage_and_name():
    with pytest.raises(TypeError, match="kernel"):
        SofaEngine(kernel={"predict": "fused"})  # kernels live in the config only
    with pytest.raises(ValueError, match="unknown predict kernel 'typo'"):
        SofaEngine(SofaConfig(dlzs=DlzsConfig(kernel="typo")))
    with pytest.raises(ValueError, match="unknown select kernel 'typo'"):
        SofaEngine(SofaConfig(sads=SadsConfig(kernel="typo")))


def test_register_kernel_guards_per_stage():
    ref = get_kernel("predict", "reference")
    with pytest.raises(ValueError, match="reserved"):
        register_kernel("predict", "auto", ref)
    with pytest.raises(ValueError, match="predict kernel 'reference' is already"):
        register_kernel("predict", "reference", get_kernel("select", "reference"))
    # same name in a different stage is fine - registries are per stage
    register_kernel("select", "probe-select", lambda sorter, sc, k: sorter.select_stack(sc, k))
    try:
        assert "probe-select" in available_kernels("select")
        assert "probe-select" not in available_kernels("predict")
    finally:
        from repro.kernels.registry import _REGISTRIES

        _REGISTRIES["select"].pop("probe-select", None)


def test_env_selected_fused_kernels_engage(monkeypatch):
    """SOFA_PREDICT_KERNEL/SOFA_SELECT_KERNEL=fused routes a default config
    through the fused engine - and stays bit-identical."""
    rng = make_rng(47)
    tokens, q, wk, wv = _head_problem(rng)
    cfg = SofaConfig(tile_cols=16, top_k=0.25)
    ref = SofaAttention(wk, wv, cfg)(tokens, q)
    monkeypatch.setenv("SOFA_PREDICT_KERNEL", "fused")
    monkeypatch.setenv("SOFA_SELECT_KERNEL", "fused")
    FUSED.last_probe = None
    got = SofaAttention(wk, wv, cfg)(tokens, q)
    assert FUSED.last_probe is not None  # the fused path actually ran
    _assert_results_equal(ref, got)


# ------------------------------------------------- cross-process coverage
@pytest.mark.cluster
def test_cluster_fused_mapping_parity_and_stats():
    from repro.cluster import EngineCluster

    rng = make_rng(53)
    requests = _engine_requests(rng)
    with SofaEngine(max_batch_heads=4) as engine:
        ref = engine.run(requests)
    with EngineCluster(n_workers=2, config=FUSED_CFG, max_batch_heads=4) as cluster:
        got = cluster.run(requests)
        workers = cluster.stats.workers
    for a, b in zip(ref, got):
        _assert_results_equal(a, b)
    # Stats snapshots piggyback on result messages, so only workers that
    # actually served requests report their resolved kernels.
    served = [w for w in workers if w.n_requests > 0]
    assert served and all(
        w.kernels.get("predict") == "fused" and w.kernels.get("select") == "fused"
        for w in served
    )
    with pytest.raises(ValueError, match="unknown predict kernel 'typo'"):
        EngineCluster(n_workers=1, config=SofaConfig(dlzs=DlzsConfig(kernel="typo")))
    # kernels are chosen in the config only; kernel= is no engine option
    with pytest.raises(TypeError, match="'kernel'"):
        EngineCluster(n_workers=1, kernel={"predict": "fused"})


@pytest.mark.cluster
def test_cluster_env_kernel_selection_reaches_workers(monkeypatch):
    """Env-var kernel selection set in the frontend process propagates into
    the worker processes: their engines resolve - and report - the same
    per-stage kernels, and serve bit-identically."""
    from repro.cluster import EngineCluster

    rng = make_rng(59)
    requests = _engine_requests(rng)
    with SofaEngine(max_batch_heads=4) as engine:
        ref = engine.run(requests)  # resolved before the env overrides
    monkeypatch.setenv("SOFA_PREDICT_KERNEL", "fused")
    monkeypatch.setenv("SOFA_SELECT_KERNEL", "fused")
    monkeypatch.setenv("SOFA_SUFA_KERNEL", "reference")
    with EngineCluster(n_workers=2, max_batch_heads=4) as cluster:
        got = cluster.run(requests)
        workers = cluster.stats.workers
    for a, b in zip(ref, got):
        _assert_results_equal(a, b)
    served = [w for w in workers if w.n_requests > 0]
    assert served
    for w in served:
        assert w.kernels == {
            "predict": "fused", "select": "fused", "stream": "reference"
        }


@pytest.mark.socket
def test_socket_workers_resolve_env_kernels(monkeypatch):
    """The same propagation across the socket transport: standalone worker
    processes inherit the env selection and report it through the
    piggybacked stats snapshots."""
    from repro.cluster import EngineCluster

    rng = make_rng(61)
    requests = _engine_requests(rng, n=6)
    with SofaEngine(max_batch_heads=4) as engine:
        ref = engine.run(requests)
    monkeypatch.setenv("SOFA_PREDICT_KERNEL", "fused")
    monkeypatch.setenv("SOFA_SELECT_KERNEL", "fused")
    with EngineCluster(
        n_workers=2, transport="socket", max_batch_heads=4
    ) as cluster:
        got = cluster.run(requests)
        workers = cluster.stats.workers
    for a, b in zip(ref, got):
        _assert_results_equal(a, b)
    served = [w for w in workers if w.n_requests > 0]
    assert served and all(
        w.kernels.get("predict") == "fused" and w.kernels.get("select") == "fused"
        for w in served
    )
