"""Block-vectorized SU-FA streaming kernel (the ``"blocked"`` registry entry).

The reference loop advances the whole query stack one selected key per
Python iteration, spending ~8 small-array ufunc dispatches (violation
compare, branch, exp, weight store, op tallies) per key - O(kk)
interpreter steps that cap every serving tier built on top of it.  The
paper's SU-FA engine instead consumes keys in Bc-wide tiles, with the
Max-Ensuring circuit firing only on the rare misprediction (Sec. IV-D).
This kernel makes the software match the hardware: O(kk / tile_cols)
Python steps, each advancing a whole ``tile_cols``-wide block for every
row at once - one fused ``exp`` over the block, one block-max violation
probe, and the very same pair of tile-merge primitive calls the reference
issues at its tile boundary.

Why the result is bit-for-bit identical to the reference loop:

* **Violation detection is exact.**  The loop's running max only ever
  rises to the running prefix maximum (``m`` after key ``j`` equals
  ``max(m_carry, x_0..x_j)`` whether or not a violation fired), so a block
  contains a violation exactly when its maximum strictly exceeds the
  carried max: the *first* in-block key above ``m_carry`` has nothing
  before it in the block exceeding ``m_carry``, so it violates; and any
  violating key exceeds its prefix max, hence ``m_carry``.  One ``max``
  reduction per block replaces the loop's per-key compare-and-branch; the
  full per-key violation pattern (``x_j > max(m_carry, x_0..x_{j-1})``, a
  ``np.maximum.accumulate`` prefix) is only materialized for the rows
  that need it.
* **The fast path computes the same tile quantities.**  In a
  violation-free block the running max is constant, so the per-key weights
  collapse to one ``exp`` over the whole block - the same ufunc,
  elementwise, as the reference's per-key ``exp``.
* **Violating rows replay the block per key.**  Rows whose block contains
  a violation replay the reference's step body - carried-state and
  pending-weight rescales on each firing - restricted to those rows
  (every update is elementwise, so row results are independent of
  batch-mates), writing their weights into the same stack-wide tile
  buffer the fast rows fill vectorized.
* **The tile merge is one shared call.**  Both kernels fold the completed
  stack-wide tile buffer into the carried state through
  :func:`repro.core.sufa._merge_tile`, which runs
  :func:`~repro.numerics.linalg.det_tile_mass` on the whole stack and
  :func:`~repro.numerics.linalg.det_pv_contract` over the same fixed row
  blocks in both kernels, each with a fresh ``(rows, B, Dv)`` gather from
  the value slab, so every row's ``(B, Dv)`` slice is contiguous, as
  ``det_pv_contract`` requires.  Both primitives give a row the same
  bits whatever rows share its call, so the merge contributes
  bit-identical addends no matter how rows were split between fast path
  and replay, or between row blocks.
* **Op tallies are closed-form per block.**  The loop's unconditional
  per-step charges sum to ``B``-scaled constants; its violation charges
  sum to the per-row violation count, which the exact violation mask
  provides without charging anything inside the replay.

The differential sweep in ``tests/test_kernels_sufa.py`` enforces all of
this against :func:`repro.core.sufa.stream_selected_reference` on
adversarial orderings, odd block tails, and warmup-short selections.
"""

from __future__ import annotations

import numpy as np

from repro.core.sufa import (
    _ASSURANCE_ERROR,
    SufaStackResult,
    UpdateOrder,
    _merge_tile,
    _stream_epilogue,
    _stream_prologue,
)


def _replay_block(
    x: np.ndarray,
    rows: np.ndarray,
    m: np.ndarray,
    l: np.ndarray,
    o: np.ndarray,
    p_buf: np.ndarray,
) -> None:
    """Exact per-key replay of one block for the rows it violated in.

    Replays the reference step body restricted to ``rows``: per-key
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


def stream_selected_blocked(
    q_rows: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    index: np.ndarray,
    order: UpdateOrder = UpdateOrder.DESCENDING,
    max_assurance: bool = True,
    tile_cols: int = 64,
) -> SufaStackResult:
    """Tile-blocked SU-FA streaming: ``tile_cols`` keys per Python step.

    Same contract (and same bits) as
    :func:`repro.core.sufa.stream_selected_reference`; see the module
    docstring for the parity argument.
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

    # Closed-form whole-stream tallies: the loop's unconditional per-step
    # charges (one exp, 1+Dv adds, Dv muls per key; ascending adds one
    # rescale mul per key past the first) summed over all kk keys.  All
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
        # strictly exceeds the carried running max (see module docstring).
        has_viol = x.max(axis=1) > m
        if has_viol.any():
            if not max_assurance:
                raise RuntimeError(_ASSURANCE_ERROR)
            slow = np.flatnonzero(has_viol)
            # Per-key violation pattern, materialized only for these rows:
            # entry t of the exclusive prefix max is the loop's m before
            # key lo+t, so the comparison reproduces its firing pattern.
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

        # Tile sync: the reference's boundary merge, call for call.
        _merge_tile(p_buf, values, index, lo, l, o)

    return _stream_epilogue(o, l, op_rows, triggers, kk, tile_cols)
