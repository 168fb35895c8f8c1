"""Differential tests: the SU-FA stream equals its golden model bit for bit.

Every serving tier runs one stream, the tile-blocked
:func:`repro.core.sufa.stream_selected`.  It must reproduce the per-key
golden model :func:`repro.core.sufa.stream_selected_reference` exactly -
output bits, Max-Ensuring trigger counts, and per-row op tallies - on any
input.  The sweep here drives both over randomized and adversarial
workloads: orderings that force violations in the first/middle/last
block, selections shorter than the warmup scan, block-width remainders,
and one-row stacks.  The pipeline, engine and cluster tests put the golden
model in place of the stream (``monkeypatch``) and compare what they serve.
"""

import numpy as np
import pytest

import repro.core.sufa
import repro.engine.batched
from repro.core.config import SofaConfig
from repro.core.pipeline import SofaAttention
from repro.core.sufa import (
    UpdateOrder,
    sorted_updating_attention,
    stream_selected,
    stream_selected_reference,
)
from repro.engine import AttentionRequest, BatchedSofaAttention, SofaEngine
from repro.kernels import available_kernels, get_kernel
from repro.utils.rng import make_rng

ORDERS = (UpdateOrder.DESCENDING, UpdateOrder.ASCENDING)
STREAMS = available_kernels("stream")  # ("blocked", "reference")


def _serve_with(monkeypatch, name):
    """Make the per-head pipeline and the batched engine stream through
    ``name``'s function; ``"blocked"`` is the stream they already run."""
    fn = get_kernel("stream", name)
    monkeypatch.setattr(repro.core.sufa, "stream_selected", fn)
    monkeypatch.setattr(repro.engine.batched, "stream_selected", fn)


def _gathered(rng, r, kk, d, dv, ordering="sorted"):
    """A (q, keys, values, index) stack in the SADS output convention.

    Every row selects ``kk`` distinct rows of one shared ``(U, D)`` /
    ``(U, Dv)`` slab (``U > kk``, so rows overlap the way heads'
    selections share tokens); ``index`` lists them per row.
    ``ordering`` shapes where Max-Ensuring violations occur:

    - ``sorted``: exact descending scores - no violations;
    - ``reversed``: ascending scores fed as descending - violations on
      nearly every key;
    - ``shuffled``: random order - violations scattered through all blocks;
    - ``first_block`` / ``middle_block`` / ``last_block``: exact order with
      the true maximum displaced into that block, forcing a violation
      exactly there.
    """
    u = 2 * kk + 3
    q = rng.normal(size=(r, d))
    keys = rng.normal(size=(u, d))
    values = rng.normal(size=(u, dv))
    sel = np.argsort(rng.random((r, u)), axis=1)[:, :kk]  # distinct per row
    scores = (keys[sel] * q[:, None, :]).sum(-1)
    idx = np.argsort(-scores, axis=1)
    if ordering == "reversed":
        idx = idx[:, ::-1]
    elif ordering == "shuffled":
        idx = idx[:, rng.permutation(kk)]
    elif ordering in ("first_block", "middle_block", "last_block"):
        pos = {"first_block": min(5, kk - 1), "middle_block": kk // 2,
               "last_block": kk - 1}[ordering]
        idx = idx.copy()
        idx[:, [0, pos]] = idx[:, [pos, 0]]
    return q, keys, values, np.take_along_axis(sel, idx, axis=1)


def _assert_kernels_agree(q, keys, values, index, order, tile_cols, expect_triggers=None):
    ref = stream_selected_reference(q, keys, values, index, order=order, tile_cols=tile_cols)
    blk = stream_selected(q, keys, values, index, order=order, tile_cols=tile_cols)
    assert ref.output.tobytes() == blk.output.tobytes()
    assert np.array_equal(ref.trigger_rows, blk.trigger_rows)
    assert set(ref.op_rows) == set(blk.op_rows)
    for op in ref.op_rows:
        assert np.array_equal(ref.op_rows[op], blk.op_rows[op]), op
    if expect_triggers is not None:
        assert (int(ref.trigger_rows.sum()) > 0) == expect_triggers
    return ref


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "ordering", ["sorted", "reversed", "shuffled", "first_block", "middle_block", "last_block"]
)
def test_differential_sweep_bit_exact(order, ordering):
    """Randomized shapes x adversarial orderings: exact kernel agreement."""
    rng = make_rng(hash((order.value, ordering)) % 2**31)
    for r, kk, d, dv, tc in [
        (3, 130, 8, 6, 64),   # block remainder (130 = 2*64 + 2)
        (16, 64, 16, 16, 16),
        (2, 257, 8, 4, 32),   # prime-ish kk, many tails
        (9, 48, 4, 2, 5),     # tiny tiles, tiny value dim
        (5, 96, 8, 1, 64),    # single-lane values
    ]:
        q, keys, values, index = _gathered(rng, r, kk, d, dv, ordering)
        # sorted order only violates when fed as 'descending' data but
        # processed ascending (the reversal makes every key a new max)
        expect = None
        if ordering in ("first_block", "middle_block", "last_block"):
            expect = order is UpdateOrder.DESCENDING or None
        _assert_kernels_agree(q, keys, values, index, order, tc, expect_triggers=expect)


@pytest.mark.parametrize("order", ORDERS)
def test_short_selections_and_single_rows(order):
    """kk below the warmup scan, kk == 1, and one-row stacks."""
    rng = make_rng(77)
    for r, kk in [(1, 1), (1, 3), (4, 2), (1, 17), (6, 1)]:
        for ordering in ("sorted", "shuffled"):
            q, keys, values, index = _gathered(rng, r, kk, 8, 5, ordering)
            _assert_kernels_agree(q, keys, values, index, order, tile_cols=4)


def test_single_row_matches_stack_rows():
    """A row streamed alone is bit-identical to the same row in a stack."""
    rng = make_rng(91)
    q, keys, values, index = _gathered(rng, 12, 96, 8, 8, "shuffled")
    whole = stream_selected(q, keys, values, index, tile_cols=32)
    for row in (0, 5, 11):
        alone = stream_selected(
            q[row : row + 1], keys, values, index[row : row + 1], tile_cols=32
        )
        assert alone.output.tobytes() == whole.output[row : row + 1].tobytes()
        assert alone.trigger_rows[0] == whole.trigger_rows[row]


@pytest.mark.parametrize("kernel", STREAMS)
def test_assurance_disabled_raises_in_every_kernel(kernel):
    rng = make_rng(13)
    q, keys, values, index = _gathered(rng, 4, 64, 8, 4, "reversed")
    with pytest.raises(RuntimeError, match="max assurance"):
        get_kernel("stream", kernel)(q, keys, values, index, max_assurance=False)


def test_tile_cols_only_moves_work_not_triggers():
    """Block width changes sync op counts, never triggers or selections."""
    rng = make_rng(29)
    q, keys, values, index = _gathered(rng, 6, 120, 8, 6, "shuffled")
    a = stream_selected(q, keys, values, index, tile_cols=8)
    b = stream_selected(q, keys, values, index, tile_cols=64)
    assert np.array_equal(a.trigger_rows, b.trigger_rows)
    assert np.array_equal(a.op_rows["exp"], b.op_rows["exp"])
    assert a.op_rows["compare"].sum() > b.op_rows["compare"].sum()
    np.testing.assert_allclose(a.output, b.output, atol=1e-12)


@pytest.mark.parametrize("kernel", STREAMS)
@pytest.mark.parametrize("order", ORDERS)
def test_slab_gather_equals_pregathered_stack(kernel, order):
    """Streaming from a shared slab through ``index`` gives the same bits
    as streaming every row's keys and values laid out back to back."""
    rng = make_rng(31)
    r, kk, d, dv = 7, 70, 8, 6
    q, keys, values, index = _gathered(rng, r, kk, d, dv, "shuffled")
    flat = np.arange(r * kk).reshape(r, kk)
    stream = get_kernel("stream", kernel)
    for tc in (1, 5, 16, 64):
        shared = stream(q, keys, values, index, order=order, tile_cols=tc)
        laid_out = stream(
            q, keys[index].reshape(r * kk, d), values[index].reshape(r * kk, dv), flat,
            order=order, tile_cols=tc,
        )
        assert shared.output.tobytes() == laid_out.output.tobytes()
        assert np.array_equal(shared.trigger_rows, laid_out.trigger_rows)
        for op in shared.op_rows:
            assert np.array_equal(shared.op_rows[op], laid_out.op_rows[op]), op
    with pytest.raises(ValueError, match="index"):
        stream(q, keys, values, index[:, :, None])


# ------------------------------------------------------ read-only names
def test_registry_lists_builtin_kernels():
    assert available_kernels("stream") == ("blocked", "reference")
    assert get_kernel("stream", "reference") is stream_selected_reference
    assert get_kernel("stream", "blocked") is stream_selected


def test_registry_rejects_unknown_and_reserved_names():
    with pytest.raises(ValueError, match="unknown stream kernel 'no-such-kernel'"):
        get_kernel("stream", "no-such-kernel")
    with pytest.raises(ValueError, match="unknown stream kernel 'auto'"):
        get_kernel("stream", "auto")
    with pytest.raises(ValueError, match="unknown kernel stage"):
        get_kernel("predict", "blocked")


# ------------------------------------------------- golden model in place
def test_sorted_updating_attention_kernel_parity(monkeypatch):
    rng = make_rng(41)
    q = rng.normal(size=(6, 16))
    kmat = rng.normal(size=(64, 16))
    v = rng.normal(size=(64, 16))
    sel = np.argsort(-(q @ kmat.T), axis=1)[:, :12]
    a = sorted_updating_attention(q, kmat, v, sel)
    _serve_with(monkeypatch, "reference")
    b = sorted_updating_attention(q, kmat, v, sel)
    assert a.output.tobytes() == b.output.tobytes()
    assert a.assurance_triggers == b.assurance_triggers
    assert a.ops.counts == b.ops.counts


@pytest.mark.parametrize("kernel", STREAMS)
def test_per_head_and_batched_share_kernel_bits(kernel, monkeypatch):
    """Under the stream or its golden model, per-head vs batched stays
    bit-for-bit."""
    _serve_with(monkeypatch, kernel)
    rng = make_rng(59)
    n, s, h, dk = 3, 48, 16, 8
    cfg = SofaConfig(tile_cols=16, top_k=0.25)
    wk = rng.normal(size=(n, h, dk))
    wv = rng.normal(size=(n, h, dk))
    tokens = rng.integers(-50, 50, size=(n, s, h)).astype(np.float64)
    q = rng.normal(size=(n, 4, dk))
    batched = BatchedSofaAttention(wk, wv, cfg)(tokens, q)
    for i in range(n):
        single = SofaAttention(wk[i], wv[i], cfg)(tokens[i], q[i])
        assert single.output.tobytes() == batched.per_head[i].output.tobytes()
        assert np.array_equal(single.selected, batched.per_head[i].selected)
        assert single.total_ops.counts == batched.per_head[i].total_ops.counts


def test_kernel_choice_does_not_change_results(monkeypatch):
    """The golden model in place of the stream gives the same bits through
    the full per-head pipeline."""
    rng = make_rng(67)
    s, h, dk = 64, 16, 8
    wk = rng.normal(size=(h, dk))
    wv = rng.normal(size=(h, dk))
    tokens = rng.integers(-50, 50, size=(s, h)).astype(np.float64)
    q = rng.normal(size=(5, dk))
    cfg = SofaConfig(tile_cols=16, top_k=0.2)
    results = {}
    for kernel in STREAMS:
        with monkeypatch.context() as m:
            _serve_with(m, kernel)
            results[kernel] = SofaAttention(wk, wv, cfg)(tokens, q)
    a, b = results["blocked"], results["reference"]
    assert a.output.tobytes() == b.output.tobytes()
    assert np.array_equal(a.selected, b.selected)
    assert a.total_ops.counts == b.total_ops.counts
    assert a.assurance_triggers == b.assurance_triggers


# ------------------------------------------------------------ engine tier
def _engine_requests(rng, n=6, s=48, h=16, dk=8):
    return [
        AttentionRequest(
            tokens=rng.integers(-50, 50, size=(s, h)).astype(np.float64),
            q=rng.normal(size=(4, dk)),
            wk=rng.normal(size=(h, dk)),
            wv=rng.normal(size=(h, dk)),
        )
        for _ in range(n)
    ]


def test_engine_kernel_parity_and_validation(monkeypatch):
    rng = make_rng(83)
    requests = _engine_requests(rng)
    with SofaEngine(max_batch_heads=4) as fast:
        fast_results = fast.run(requests)
    calls = []

    def golden(*args, **kwargs):
        calls.append(1)
        return stream_selected_reference(*args, **kwargs)

    monkeypatch.setattr(repro.engine.batched, "stream_selected", golden)
    with SofaEngine(max_batch_heads=4) as slow:
        slow_results = slow.run(requests)
    assert calls  # the engine really streamed through the golden model
    for a, b in zip(fast_results, slow_results):
        assert a.output.tobytes() == b.output.tobytes()
        assert np.array_equal(a.selected, b.selected)
        assert a.total_ops.counts == b.total_ops.counts
    with pytest.raises(TypeError, match="kernel"):
        SofaEngine(kernel="reference")


# ----------------------------------------------------------- cluster tier
@pytest.mark.cluster
def test_cluster_workers_share_the_kernel_registry(monkeypatch):
    """A cluster serves bit-identically to an in-process engine, also with
    the golden model in place of the stream before its workers fork.  A bad
    engine option fails in the caller's process, before any worker
    spawns."""
    from repro.cluster import EngineCluster

    rng = make_rng(97)
    requests = _engine_requests(rng, n=8)
    with SofaEngine(max_batch_heads=4) as engine:
        ref = engine.run(requests)
    for kernel in STREAMS:
        with monkeypatch.context() as m:
            _serve_with(m, kernel)
            with EngineCluster(n_workers=2, max_batch_heads=4) as cluster:
                got = cluster.run(requests)
        for a, b in zip(ref, got):
            assert a.output.tobytes() == b.output.tobytes()
            assert np.array_equal(a.selected, b.selected)
            assert a.total_ops.counts == b.total_ops.counts

    def no_spawn(*args):
        raise AssertionError("a worker was spawned before validation")

    monkeypatch.setattr(EngineCluster, "_start_worker", no_spawn)
    with pytest.raises(TypeError, match="max_wrokers"):
        EngineCluster(n_workers=1, max_wrokers=2)
    with pytest.raises(TypeError, match="cache="):
        EngineCluster(n_workers=1, cache=None)
