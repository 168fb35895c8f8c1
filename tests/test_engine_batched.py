"""Parity tests: the batched engine must equal the per-head pipeline exactly.

The contract of ``repro.engine`` is bit-for-bit equivalence: for any stack of
heads, :class:`BatchedSofaAttention` returns exactly the outputs, selected
indices, op counts, memory traces and assurance triggers that a Python loop
of per-head :class:`SofaAttention` calls produces.  These tests sweep
randomized shapes/configs (including tie-heavy integer-valued scores, where
sorting tie-breaks are most fragile) and compare everything exactly.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import SadsConfig, SofaConfig
from repro.core.pipeline import SofaAttention
from repro.core.sads import SadsSorter
from repro.engine import BatchedSofaAttention
from repro.numerics.complexity import OpCounter
from repro.utils.rng import make_rng


def _random_config(rng, s):
    tile = int(rng.choice([8, 16, 24, 32, 64]))
    k = int(rng.integers(1, s + 1))
    return SofaConfig(
        tile_cols=tile,
        top_k=k,
        sads=SadsConfig(
            n_segments=int(rng.integers(1, 9)),
            radius=float(rng.uniform(1.0, 6.0)),
            adjust_rounds=int(rng.integers(0, 4)),
        ),
    )


def _assert_head_equal(seq, bat, context=""):
    np.testing.assert_array_equal(seq.selected, bat.selected, err_msg=context)
    assert seq.output.tobytes() == bat.output.tobytes(), f"output bits differ {context}"
    assert seq.assurance_triggers == bat.assurance_triggers, context
    assert len(seq.stages) == len(bat.stages)
    for st_s, st_b in zip(seq.stages, bat.stages):
        assert st_s.name == st_b.name
        assert st_s.dram_bytes == st_b.dram_bytes, f"{st_s.name} dram {context}"
        assert st_s.sram_peak_bytes == st_b.sram_peak_bytes, f"{st_s.name} sram {context}"
        for op in set(st_s.ops.counts) | set(st_b.ops.counts):
            assert st_s.ops[op] == st_b.ops[op], f"{st_s.name}.{op} {context}"


@pytest.mark.parametrize("seed", range(24))
def test_batched_matches_per_head_loop_exactly(seed):
    """>= 20 randomized configurations, everything compared exactly."""
    rng = make_rng(1000 + seed)
    n = int(rng.integers(1, 7))
    s = int(rng.integers(16, 220))
    h = int(rng.integers(8, 40))
    d = int(rng.integers(8, 33))
    t = int(rng.integers(1, 17))
    cfg = _random_config(rng, s)
    wk = rng.normal(size=(n, h, d))
    wv = rng.normal(size=(n, h, d))
    tokens = rng.integers(-100, 100, size=(n, s, h)).astype(np.float64)
    q = rng.normal(size=(n, t, d)) * rng.uniform(0.5, 4.0)
    k_scales = rng.uniform(0.5, 2.0, size=n)
    v_scales = rng.uniform(0.5, 2.0, size=n)

    batched = BatchedSofaAttention(wk, wv, cfg)(
        tokens, q, k_scale=k_scales, v_scale=v_scales
    )
    for i in range(n):
        seq = SofaAttention(wk[i], wv[i], cfg)(
            tokens[i], q[i], k_scale=float(k_scales[i]), v_scale=float(v_scales[i])
        )
        _assert_head_equal(seq, batched.per_head[i], f"(seed={seed}, head={i})")


def test_batched_value_cache_matches_per_head():
    """The serving value-cache override preserves exact parity too."""
    rng = make_rng(77)
    n, s, h, t, dv = 4, 90, 20, 5, 12
    wk = rng.normal(size=(n, h, h))
    wv = rng.normal(size=(n, h, h))
    tokens = rng.normal(size=(n, s, h)) * 3
    q = rng.normal(size=(n, t, h))
    v = rng.normal(size=(n, s, dv))
    cfg = SofaConfig(tile_cols=32, top_k=0.25)
    batched = BatchedSofaAttention(wk, wv, cfg)(tokens, q, v=v)
    for i in range(n):
        seq = SofaAttention(wk[i], wv[i], cfg)(tokens[i], q[i], v=v[i])
        _assert_head_equal(seq, batched.per_head[i], f"(head={i})")


def test_batched_totals_aggregate_heads():
    rng = make_rng(78)
    n, s, h, d, t = 3, 64, 16, 16, 4
    wk = rng.normal(size=(n, h, d))
    wv = rng.normal(size=(n, h, d))
    tokens = rng.integers(-50, 50, size=(n, s, h)).astype(np.float64)
    q = rng.normal(size=(n, t, d))
    res = BatchedSofaAttention(wk, wv, SofaConfig(tile_cols=16, top_k=8))(tokens, q)
    assert res.n_heads == n
    assert res.outputs.shape == (n, t, d)
    assert res.selected.shape == (n, t, 8)
    total = sum(head.total_ops.normalized() for head in res.per_head)
    assert res.total_ops.normalized() == pytest.approx(total)
    assert res.total_dram_bytes == pytest.approx(
        sum(head.total_dram_bytes for head in res.per_head)
    )


def test_batched_shape_validation():
    rng = make_rng(79)
    wk = rng.normal(size=(2, 8, 8))
    wv = rng.normal(size=(2, 8, 8))
    op = BatchedSofaAttention(wk, wv, SofaConfig(tile_cols=8, top_k=4))
    with pytest.raises(ValueError):
        op(rng.normal(size=(3, 32, 8)), rng.normal(size=(2, 4, 8)))  # wrong N
    with pytest.raises(ValueError):
        op(rng.normal(size=(2, 32, 8)), rng.normal(size=(2, 4, 6)))  # wrong D
    with pytest.raises(ValueError):
        op(
            rng.normal(size=(2, 32, 8)),
            rng.normal(size=(2, 4, 8)),
            k_scale=np.ones(3),  # wrong per-head scale length
        )


@pytest.mark.parametrize("seed", range(12))
def test_sads_select_stack_matches_select_row(seed):
    """The vectorized selection core vs the sequential golden reference.

    Scores are rounded to integers so ties are everywhere - any divergence in
    stable-sort or exchange tie-breaking fails loudly.
    """
    rng = make_rng(2000 + seed)
    rows = int(rng.integers(1, 10))
    s = int(rng.integers(12, 260))
    k = int(rng.integers(1, s + 1))
    sorter = SadsSorter(
        SadsConfig(
            n_segments=int(rng.integers(1, 10)),
            radius=float(rng.uniform(0.5, 5.0)),
            adjust_rounds=int(rng.integers(0, 5)),
        )
    )
    scores = np.round(rng.normal(size=(rows, s)) * 3)
    batch = sorter.select(scores, k)
    loop_ops = OpCounter()
    loop_rows = []
    clipped = 0
    for row in scores:
        res = sorter.select_row(row, k)
        loop_rows.append(res.indices)
        loop_ops = loop_ops + res.ops
        clipped += res.clipped
    np.testing.assert_array_equal(batch.indices, np.stack(loop_rows))
    for op in set(batch.ops.counts) | set(loop_ops.counts):
        assert batch.ops[op] == loop_ops[op], op
    assert batch.clipped_fraction == pytest.approx(clipped / scores.size)


def test_call_peak_memory_stays_below_one_gathered_kv_stack():
    """A 2-head call at S=4096, T=128 never holds a gathered (N, T, kk, D)
    K or V stack: SU-FA gathers from the (U, D) slabs a tile at a time, so
    the call's peak (tracemalloc sees NumPy's allocations) stays below the
    size of one such float64 stack."""
    rng = make_rng(4096)
    n, s, t, h, d = 2, 4096, 128, 32, 32
    cfg = SofaConfig(tile_cols=64, top_k=0.1)
    op = BatchedSofaAttention(rng.normal(size=(n, h, d)), rng.normal(size=(n, h, d)), cfg)
    tokens = rng.integers(-100, 100, size=(n, s, h)).astype(np.float64)
    q = rng.normal(size=(n, t, d))
    stack_bytes = n * t * cfg.resolve_top_k(s) * d * 8
    tracemalloc.start()
    try:
        op(tokens, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes, f"peak {peak / 2**20:.1f} MiB >= {stack_bytes / 2**20:.1f} MiB"
