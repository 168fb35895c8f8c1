"""SU-FA: sorted-updating FlashAttention (Sec. III-C).

Classic FlashAttention must refresh a running row-max across K/V tiles and
rescale its running normalizer/output by ``exp(m_prev - m)`` whenever the max
moves - the recomputation the paper's Fig. 5 shows exploding with tile count.
SU-FA removes that work by consuming the *ordering* the top-k stage already
produced: processing selected keys in **descending** estimated-score order
means the first element is the row max, so the running max never changes and
each step costs one exp + one add for the normalizer (Eq. (2) of Fig. 10).

Processing in **ascending** order also avoids comparisons but each step still
pays an extra exp-mul rescale (Eq. (1)); the paper measures descending at
~11% less complexity than ascending and ~25% less than classic FA.

Because the ordering comes from the *approximate* DLZS scores, the predicted
max can be wrong.  The Max-Ensuring circuit (Sec. IV-D) is modeled by
``max_assurance=True``: whenever a streamed score exceeds the running max the
engine falls back to one classic-FA rescale step (counted), keeping the
result exact regardless of prediction quality.

Implementation note: the streaming core (:func:`stream_selected`) is
vectorized over an arbitrary stack of query rows and advances the stack
one ``tile_cols``-wide block of keys per Python step - the software shape
of the hardware's Bc-wide SU-FA tiles, with the Max-Ensuring circuit
falling back to a per-key replay only on rows whose block it fires in.
It is the one stream every serving tier runs.  Its golden model,
:func:`stream_selected_reference`, kept in this module for the tests,
advances one selected key per Python iteration - the original loop.
The two are held bit for bit to each other by the differential sweeps in
``tests/test_kernels_sufa.py``.

Neither sees a pre-gathered ``(R, kk, D)`` key or value stack.  Both
take the ``(U, D)`` / ``(U, Dv)`` slabs of the U generated tokens plus an
``(R, kk)`` index of slab rows, and gather in row blocks sized to
:data:`_BLOCK_BYTES`, so each block is contracted while it sits in a
core's L2 - the software form of the paper's cross-stage tiling, where
each stage's tile fits its on-chip buffer and nothing round-trips
through DRAM between stages.  Keys are gathered in the shared prologue,
so each row keeps one ``(kk, D)`` score contraction: BLAS gemv computes
output entries in groups, so a score's bits can depend on its position
in the contraction, and column tiles of other widths would not reproduce
them.  Value tiles are gathered inside the stream loop, one Bc tile of
positions at a time, in row blocks at each tile sync
(:func:`_merge_tile`).  Both contraction primitives give a row the same
bits whatever rows share its call, so the row blocking changes no bit.

The streaming semantics are **tile-synchronized**, mirroring the
hardware's dataflow: per-key state (running max, Max-Ensuring violations,
softmax weights, op/trigger accounting) evolves key by key, while the
accumulated weight/value mass of each ``tile_cols``-wide tile merges into
the carried normalizer/output at the tile boundary - the PE-column
partials meeting the accumulator at tile sync, the same boundary the
per-tile synchronization op has always charged.  The stream and its
golden model share one prologue (score gather, warmup max scan), one
epilogue (tile-sync accounting, final normalization) and one tile merge
(:func:`_merge_tile`: the value gather and the batch-invariant primitives
:func:`repro.numerics.linalg.det_tile_mass` and
:func:`repro.numerics.linalg.det_pv_contract`), so every row's result is
**bit-identical** between the two and whether one row or ten thousand
share the call - which is what lets the batched engine
(``repro.engine``) and the cluster workers reuse this core while matching
the per-head operator exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.numerics.complexity import OpCounter
from repro.numerics.linalg import det_pv_contract, det_stack_scores, det_tile_mass


class UpdateOrder(Enum):
    """Processing order of the selected keys."""

    DESCENDING = "descending"
    ASCENDING = "ascending"


#: Byte budget of one gathered row block (keys in the prologue, values at
#: each tile sync): a block stays well inside a core's L2 while it is
#: contracted, instead of streaming a whole-stack gather through DRAM.
_BLOCK_BYTES = 512 * 1024

#: Entries scanned in max-update mode before streaming begins (the hardware
#: runs the AP module in mode 1 during the first phase of a tile).
_WARMUP_SCAN = 4

#: Raised (by the stream and its golden model) when a running-max violation
#: is detected while the Max-Ensuring circuit is disabled.
_ASSURANCE_ERROR = (
    "running max violated but max assurance is disabled; "
    "the predicted ordering was wrong"
)


@dataclass
class SufaResult:
    """Batched SU-FA output.

    ``assurance_triggers`` counts how often the Max-Ensuring circuit fired
    (0 when the sorting info was exact); it is the hardware-visible measure
    of DLZS prediction quality.
    """

    output: np.ndarray
    ops: OpCounter
    assurance_triggers: int


@dataclass
class SufaStackResult:
    """Row-resolved SU-FA output for a stack of query rows.

    Per-row op tallies stay separate so a caller batching many heads can
    aggregate them per head without losing the exact per-head totals.
    """

    output: np.ndarray  # (R, Dv)
    op_rows: dict[str, np.ndarray]  # op kind -> (R,) raw counts
    trigger_rows: np.ndarray  # (R,) Max-Ensuring activations

    def row_ops(self, row: int) -> OpCounter:
        ops = OpCounter()
        for op, counts in self.op_rows.items():
            ops.add_op(op, float(counts[row]))
        return ops


def _stream_prologue(
    q_rows: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    index: np.ndarray,
    order: UpdateOrder,
) -> tuple[
    np.ndarray,
    np.ndarray,
    np.ndarray,
    dict[str, np.ndarray],
    np.ndarray,
    np.ndarray,
    np.ndarray,
    np.ndarray,
]:
    """Shared entry work: score gather, op tallies, warmup max scan.

    Returns ``(scores, values, index, op_rows, m, l, o, triggers)`` with
    ``scores`` and ``index`` already flipped into processing order, so
    value tile ``lo:hi`` gathers ``values[index[:, lo:hi]]``.  The stream
    and its golden model both start from this state, so the per-row op
    accounting and the mode-1 warmup semantics stay identical.
    """
    q_rows = np.asarray(q_rows, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    index = np.asarray(index, dtype=np.intp)
    r, d = q_rows.shape
    if keys.ndim != 2 or values.ndim != 2 or index.ndim != 2 or index.shape[0] != r:
        raise ValueError(
            f"need (U, D) keys, (U, Dv) values and an ({r}, kk) index, got "
            f"{keys.shape}, {values.shape} and {index.shape}"
        )
    kk = index.shape[1]
    dv = values.shape[1]
    scale = 1.0 / np.sqrt(d)

    # Scale folded into q before the gather: one (R, D) multiply instead of
    # an extra full pass over the (R, kk) score matrix.  Keys are gathered
    # in cache-sized row blocks, and each row keeps its whole (kk, D)
    # contraction (see the module note).
    q_scaled = q_rows * scale
    scores = np.empty((r, kk))
    step = _rows_per_block(kk * d)
    for lo in range(0, r, step):
        rows = slice(lo, lo + step)
        scores[rows] = det_stack_scores(np.take(keys, index[rows], axis=0), q_scaled[rows])
    if order is UpdateOrder.ASCENDING:
        # Materialized (not viewed) reversals: downstream primitives must
        # see one canonical layout, because BLAS-backed contractions take a
        # different (bit-divergent) path for negative-stride operands.
        scores = np.ascontiguousarray(scores[:, ::-1])
        index = np.ascontiguousarray(index[:, ::-1])

    op_rows: dict[str, np.ndarray] = {
        # the QK^T gather work, charged as a (1, d) x (d, kk) matmul per row
        "mul": np.full(r, float(d * kk)),
        "add": np.full(r, float(max(d - 1, 0) * kk)),
        "compare": np.zeros(r),
        "exp": np.zeros(r),
        "div": np.zeros(r),
    }

    # Mode-1 warmup: the sorter guarantees exact ordering only for the top-1
    # and top-2 entries (paper Sec. IV-C), and the Max-Ensuring circuit runs
    # in max-update mode over the first block, so the engine starts from the
    # true maximum of the leading entries rather than trusting scores[:, 0].
    warmup = min(_WARMUP_SCAN, kk)
    m = np.max(scores[:, :warmup], axis=1)
    op_rows["compare"] += warmup - 1
    l = np.zeros(r)
    o = np.zeros((r, dv))
    triggers = np.zeros(r, dtype=np.int64)
    return scores, values, index, op_rows, m, l, o, triggers


def _rows_per_block(row_elems: int) -> int:
    """Rows of ``row_elems`` float64 each that fit :data:`_BLOCK_BYTES` (at least 1)."""
    return max(_BLOCK_BYTES // (8 * max(row_elems, 1)), 1)


def _merge_tile(
    p_tile: np.ndarray,
    values: np.ndarray,
    index: np.ndarray,
    lo: int,
    l: np.ndarray,
    o: np.ndarray,
) -> None:
    """Tile sync: fold the ``(R, B)`` weights of positions ``lo:lo + B`` into ``(l, o)``.

    Updates ``l`` and ``o`` in place.  The value rows are gathered from
    the slab in cache-sized row blocks, each a fresh C-contiguous ``(rows,
    B, Dv)`` array, so every row's ``(B, Dv)`` slice is contiguous - the
    layout :func:`det_pv_contract` requires.  Both merge primitives give a
    row the same bits whatever rows share its call, so the blocking
    changes no bit.
    """
    hi = lo + p_tile.shape[1]
    l += det_tile_mass(p_tile)
    step = _rows_per_block(p_tile.shape[1] * values.shape[1])
    for start in range(0, p_tile.shape[0], step):
        rows = slice(start, start + step)
        o[rows] += det_pv_contract(p_tile[rows], np.take(values, index[rows, lo:hi], axis=0))


def _stream_epilogue(
    o: np.ndarray,
    l: np.ndarray,
    op_rows: dict[str, np.ndarray],
    triggers: np.ndarray,
    kk: int,
    tile_cols: int,
) -> SufaStackResult:
    """Shared exit work: tile-sync accounting and final normalization."""
    # tile synchronization bookkeeping: one boundary op per tile
    n_tiles = -(-kk // tile_cols) if tile_cols >= 1 else 1
    op_rows["compare"] += n_tiles
    out = o / l[:, None]
    op_rows["div"] += o.shape[1]
    return SufaStackResult(output=out, op_rows=op_rows, trigger_rows=triggers)


def stream_selected_reference(
    q_rows: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    index: np.ndarray,
    order: UpdateOrder = UpdateOrder.DESCENDING,
    max_assurance: bool = True,
    tile_cols: int = 64,
) -> SufaStackResult:
    """The per-key streaming loop: one selected key per Python iteration.

    This is the **golden model** of the tile-synchronized streaming
    semantics: the whole stack advances one key position per step - the
    running max, Max-Ensuring violations, softmax weights, trigger and op
    accounting all evolve per key exactly as in the original loop -
    and every state update is elementwise, so each row's result is
    trivially independent of its batch-mates.  The accumulated weight/value
    mass of a tile is merged into the carried ``(l, o)`` state at the tile
    boundary through the shared batch-invariant
    :func:`~repro.numerics.linalg.det_pv_contract` primitive (the
    hardware's PE-column partials merging at tile sync - the same boundary
    the per-tile synchronization op already models); a mid-tile
    misprediction rescales the carried state *and* the tile's pending
    weights, keeping the result exact.

    :func:`stream_selected` is differentially tested against this model
    bit for bit (``tests/test_kernels_sufa.py``); no serving path runs it.
    """
    scores, values, index, op_rows, m, l, o, triggers = _stream_prologue(
        q_rows, keys, values, index, order
    )
    r = scores.shape[0]
    kk = scores.shape[1]
    dv = values.shape[1]
    block = max(int(tile_cols), 1)

    for lo in range(0, kk, block):
        hi = min(lo + block, kk)
        p_tile = np.zeros((r, hi - lo))
        for t in range(hi - lo):
            j = lo + t
            x = scores[:, j]
            viol = x > m
            if viol.any():
                if not max_assurance:
                    raise RuntimeError(_ASSURANCE_ERROR)
                # Max-Ensuring circuit: one classic-FA rescale step on the
                # violating rows only (corr == 1.0 elsewhere leaves state
                # exact): the carried normalizer/output and the tile's
                # pending weights all rescale by exp(m_prev - m).
                corr = np.exp(np.where(viol, m - x, 0.0))
                l = l * corr
                o = o * corr[:, None]
                p_tile[:, :t] *= corr[:, None]
                op_rows["exp"] += viol
                op_rows["mul"] += viol * (1 + dv)
                op_rows["compare"] += viol
                m = np.where(viol, x, m)
                triggers += viol
            p_tile[:, t] = np.exp(x - m)
            op_rows["exp"] += 1
            if order is UpdateOrder.ASCENDING and j > 0:
                # Eq. (1): ascending updates rescale l by exp(m_prev - m)
                # even though the exponent simplification makes p == 1; that
                # rescale is one extra mul per step relative to descending.
                op_rows["mul"] += 1
            op_rows["add"] += 1
            op_rows["mul"] += dv
            op_rows["add"] += dv
        # Tile sync: fold this tile's weight/value mass into the carried
        # state through the shared contraction primitives.
        _merge_tile(p_tile, values, index, lo, l, o)

    return _stream_epilogue(o, l, op_rows, triggers, kk, tile_cols)


def _replay_block(
    x: np.ndarray,
    rows: np.ndarray,
    m: np.ndarray,
    l: np.ndarray,
    o: np.ndarray,
    p_buf: np.ndarray,
) -> None:
    """Exact per-key replay of one block for the rows it violated in.

    Replays the golden model's step body restricted to ``rows``: per-key
    running-max updates, Max-Ensuring rescales of the carried state and of
    the tile's pending weights.  Fills ``p_buf[rows]`` with the resulting
    weights; the caller performs the (stack-wide) tile merge.  State
    updates are elementwise, so restricting the stack cannot change a
    row's bits; op accounting happens closed-form in the caller.
    """
    m_s, l_s, o_s = m[rows], l[rows], o[rows]
    p_tile = np.zeros((rows.size, x.shape[1]))
    for t in range(x.shape[1]):
        xj = x[rows, t]
        viol = xj > m_s
        if viol.any():
            corr = np.exp(np.where(viol, m_s - xj, 0.0))
            l_s = l_s * corr
            o_s = o_s * corr[:, None]
            p_tile[:, :t] *= corr[:, None]
            m_s = np.where(viol, xj, m_s)
        p_tile[:, t] = np.exp(xj - m_s)
    p_buf[rows] = p_tile
    m[rows], l[rows], o[rows] = m_s, l_s, o_s


def stream_selected(
    q_rows: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    index: np.ndarray,
    order: UpdateOrder = UpdateOrder.DESCENDING,
    max_assurance: bool = True,
    tile_cols: int = 64,
) -> SufaStackResult:
    """Stream each row's selected (K, V) pairs through the sorted-updating engine.

    Parameters
    ----------
    q_rows:
        ``(R, D)`` query rows (one per selected-key list).
    keys / values:
        ``(U, D)`` / ``(U, Dv)`` slabs of generated keys and values.
    index:
        ``(R, kk)`` slab rows of each query row's selected keys, in SADS
        output order (descending estimated score).  The stream gathers from
        the slabs tile by tile; no ``(R, kk, D)`` copy is ever built.
    order / max_assurance / tile_cols:
        As in :func:`sorted_updating_attention`.

    The stack advances one ``tile_cols``-wide block per Python step, and
    its outputs, Max-Ensuring trigger counts and per-row op tallies are
    bit-identical to :func:`stream_selected_reference`; each row's result
    is also bit-identical to streaming it alone.  Why:

    * **Violation detection is exact.**  The running max only ever rises
      to the running prefix maximum, so a block contains a violation
      exactly when its maximum strictly exceeds the carried max.  One
      ``max`` reduction per block replaces the per-key compare-and-branch;
      the per-key violation pattern (an exclusive ``np.maximum.accumulate``
      prefix) is only materialized for the rows that need it.
    * **The fast path computes the same tile quantities.**  In a
      violation-free block the running max is constant, so the per-key
      weights collapse to one elementwise ``exp`` over the whole block.
    * **Violating rows replay the block per key** (:func:`_replay_block`),
      writing their weights into the same stack-wide tile buffer the fast
      rows fill vectorized.
    * **The tile merge is one shared call** (:func:`_merge_tile`), whose
      primitives give a row the same bits whatever rows share its call.
    * **Op tallies are closed-form per block.**  The unconditional per-step
      charges sum to ``B``-scaled constants; the violation charges sum to
      the per-row violation count the exact violation mask provides.
    """
    scores, values, index, op_rows, m, l, o, triggers = _stream_prologue(
        q_rows, keys, values, index, order
    )
    r = scores.shape[0]
    kk = scores.shape[1]
    dv = values.shape[1]
    block = max(int(tile_cols), 1)
    ascending = order is UpdateOrder.ASCENDING
    # One weight buffer reused across full-width blocks (the common case);
    # a short tail block gets its own exact-width buffer.
    weight_buf = np.empty((r, min(block, kk) if kk else 0))

    # Closed-form whole-stream tallies: the per-key loop's unconditional
    # per-step charges (one exp, 1+Dv adds, Dv muls per key; ascending adds
    # one rescale mul per key past the first) summed over all kk keys.  All
    # counts are small integers, so the float totals are exact regardless
    # of summation granularity.
    op_rows["exp"] += kk
    op_rows["add"] += kk * (1.0 + dv)
    op_rows["mul"] += float(kk * dv)
    if ascending and kk:
        op_rows["mul"] += kk - 1

    for lo in range(0, kk, block):
        hi = min(lo + block, kk)
        b = hi - lo
        x = scores[:, lo:hi]

        # Exact block-level violation probe: the block violates iff its max
        # strictly exceeds the carried running max.
        has_viol = x.max(axis=1) > m
        if has_viol.any():
            if not max_assurance:
                raise RuntimeError(_ASSURANCE_ERROR)
            slow = np.flatnonzero(has_viol)
            # Per-key violation pattern, materialized only for these rows:
            # entry t of the exclusive prefix max is the per-key loop's m
            # before key lo+t, so the comparison reproduces its firing
            # pattern.
            xs = x[slow]
            prefix = np.maximum.accumulate(
                np.concatenate([m[slow][:, None], xs[:, :-1]], axis=1), axis=1
            )
            viol_counts = (xs > prefix).sum(axis=1)
            # Violation charges: one exp, 1+Dv muls, one compare (and one
            # trigger) per violating key, on the violating row only.
            op_rows["exp"][slow] += viol_counts
            op_rows["mul"][slow] += viol_counts * (1.0 + dv)
            op_rows["compare"][slow] += viol_counts
            triggers[slow] += viol_counts
            p_buf = weight_buf if b == weight_buf.shape[1] else np.empty((r, b))
            fast = np.flatnonzero(~has_viol)
            if fast.size:
                # m is constant on violation-free rows, so their whole
                # block of weights is one exp (elementwise == per-key).
                p_fast = np.subtract(x[fast], m[fast][:, None])
                np.exp(p_fast, out=p_fast)
                p_buf[fast] = p_fast
            _replay_block(x, slow, m, l, o, p_buf)
        else:
            p_buf = weight_buf if b == weight_buf.shape[1] else np.empty((r, b))
            np.subtract(x, m[:, None], out=p_buf)
            np.exp(p_buf, out=p_buf)

        # Tile sync: the golden model's boundary merge, call for call.
        _merge_tile(p_buf, values, index, lo, l, o)

    return _stream_epilogue(o, l, op_rows, triggers, kk, tile_cols)


def sorted_updating_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    sorted_indices: np.ndarray,
    order: UpdateOrder = UpdateOrder.DESCENDING,
    max_assurance: bool = True,
    tile_cols: int = 64,
) -> SufaResult:
    """Sparse attention over pre-sorted selected keys (the SU-FA engine).

    Parameters
    ----------
    q, k, v:
        ``(T, D)``, ``(S, D)``, ``(S, D)`` float matrices.
    sorted_indices:
        ``(T, kk)`` selected key indices per row, sorted by *descending
        estimated* score (the SADS output convention).  For ascending order
        the engine walks them back-to-front.
    order:
        Update order; descending is the paper's default.
    max_assurance:
        Model the Max-Ensuring circuit; disabling it raises on mispredicted
        orderings instead of silently producing overflow-prone results.
    tile_cols:
        Bc: the streaming block width, and the tile synchronization op
        count.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    sorted_indices = np.asarray(sorted_indices, dtype=np.int64)
    t = q.shape[0]
    if sorted_indices.ndim != 2 or sorted_indices.shape[0] != t:
        raise ValueError("sorted_indices must be (T, k)")

    res = stream_selected(
        q,
        k,
        v,
        sorted_indices,
        order=order,
        max_assurance=max_assurance,
        tile_cols=tile_cols,
    )
    ops = OpCounter()
    for op, counts in res.op_rows.items():
        ops.add_op(op, float(counts.sum()))
    return SufaResult(
        output=res.output,
        ops=ops,
        assurance_triggers=int(res.trigger_rows.sum()),
    )


def sufa_update_ops_per_step(order: UpdateOrder, d: int) -> dict[str, float]:
    """Closed-form per-step softmax-state cost of each order (Fig. 10).

    Excludes the shared P*V accumulation work; descending needs one exp and
    one add for l, ascending adds one mul (the exp(m_prev - m) rescale).
    Classic FA additionally rescales o (d muls) and compares (1) per step in
    the worst case, which is how the ~25% total saving arises.
    """
    base = {"exp": 1.0, "add": 1.0}
    if order is UpdateOrder.ASCENDING:
        base["mul"] = 1.0
    return base
