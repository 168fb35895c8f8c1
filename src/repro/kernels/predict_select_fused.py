"""Fused DLZS predict + SADS select kernel: the serving predict+select path.

The golden pipeline decouples the first two dynamic-sparsity stages:
``DlzsPredictor.predict`` materializes the full ``(rows, S)`` score
matrix, then ``SadsSorter.select_stack`` thresholds it.  The paper's
coordinated tiling exists to avoid exactly that - a Pre-Atten tile is
consumed by its tile's sorter before the next tile is produced, so the
full score matrix never exists (Fig. 6 / Fig. 20(a)).  This module is the
software analogue, and the batched engine
(:class:`~repro.engine.batched.BatchedSofaAttention`) runs every batch
through it.  One fused kernel

1. runs DLZS up to (but not including) the score matmul
   (:meth:`~repro.core.dlzs.StackedDlzsPredictor.predict_prepared` -
   phase 1.1, truncation, query LZ encoding, and the *complete* op
   accounting, none of which needs score values), then
2. feeds score **tiles** - one SADS sub-segment at a time, computed by a
   per-tile exact matmul over the prepared state - straight into the
   streaming selector
   (:meth:`~repro.core.sads.SadsSorter.select_stack_streamed`).

Bit-exactness rests on two facts, each proven at its site:

* integer matmul is exact per output element, so a column block of the
  score matrix equals the matmul against the matching ``k_hat`` rows, bit
  for bit, wherever they are gathered from (see
  :class:`~repro.core.dlzs.PreparedStackPrediction`).  Heads of different
  ``S`` therefore share one call: each head's rows of a tile are its own
  segment window of its own ``k_hat``;
* the streaming selector equals the per-row golden selector
  (:meth:`~repro.core.sads.SadsSorter.select_row_reference`) whatever the
  tiles' source, and ``select_stack`` is the same selector over slices of
  a materialized matrix.

Like the reference predict (:func:`~repro.numerics.linalg.exact_int_matmul`),
the tiles run on float64 BLAS whenever every partial sum fits in
float64's 53-bit integer window (:func:`~repro.numerics.linalg._blas_exact`):
the BLAS matmul then produces the same integers, hence the same bits after
scaling.  The check reads the queries' actual magnitudes but bounds
``k_hat`` by its truncation width, so it never scans the ``sum S_i`` key
rows.  ``k_hat`` already holds its codes as float64, so an exact tile is
a gather and a matmul, with no cast.  Inputs too large for the window
(never the default 16-bit configs) fall back to int64 tiles, trading
speed, not correctness.

Every tile goes to the selector unscaled, with each row's scale and the
same bound on ``|score|``: inside its key guard the selector ranks the
integers themselves by one value sort of unique keys
(:func:`~repro.core.sads._key_head`), which gives the float path's
selection bit for bit.  Outside the guard (int64 tiles always fall
outside it) it casts the tile to float64 and multiplies by the scales,
which is the reference's ``int * scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.core.sads import SadsStackResult, segment_counts, window_columns
from repro.numerics.fixed_point import int_range
from repro.numerics.linalg import _EXACT_WINDOW, _matmul_bound

if TYPE_CHECKING:
    from repro.core.dlzs import PreparedStackPrediction, StackedDlzsPredictor
    from repro.core.sads import SadsSorter
    from repro.engine.paged import PagedDecodeCache


@dataclass
class FusedProbe:
    """Peak-intermediate-size evidence from the last fused run.

    ``peak_tile_elems`` is the largest score block the run ever held;
    tests assert it stays a tile, not the ``full_matrix_elems`` the
    unfused golden pipeline materializes.  ``row_len`` is the longest
    head's ``S``.
    """

    rows: int
    row_len: int
    peak_tile_elems: int
    full_matrix_elems: int
    exact_blas: bool


class FusedPredictSelect:
    """Fused predict+select execution engine.

    :meth:`run_stacked` returns ``(prepared, stack)`` - the
    :class:`~repro.core.dlzs.PreparedStackPrediction`, which carries the
    complete per-head DLZS op accounting, plus the
    :class:`~repro.core.sads.SadsStackResult` - everything the batched
    engine consumes, with the full score matrix never allocated.
    ``last_probe`` records the peak intermediate size of the most recent
    run (diagnostic only; concurrent callers may interleave writes to it,
    the returned results are untouched by that).
    """

    def __init__(self) -> None:
        self.last_probe: FusedProbe | None = None

    def run_stacked(
        self,
        predictor: "StackedDlzsPredictor",
        sorter: "SadsSorter",
        tokens: "np.ndarray | Sequence[np.ndarray]",
        q: np.ndarray,
        k: "int | np.ndarray",
        cache: "PagedDecodeCache | None" = None,
        cache_keys: "Sequence[Hashable | None] | None" = None,
        n_segments: "int | np.ndarray | None" = None,
    ) -> "tuple[PreparedStackPrediction, SadsStackResult]":
        """Predict and select for a head stack whose heads may differ in ``S``.

        ``tokens`` is an ``(N, S, H)`` array or N ``(S_i, H)`` arrays;
        ``k`` and ``n_segments`` are scalars or ``(N,)`` per-head values
        (``n_segments`` defaults to the sorter's own).  Head ``i`` owns
        rows ``i*T .. i*T + T - 1`` of the stack result, and segment
        ``j`` of those rows scores head ``i``'s own column window of its
        own ``k_hat`` rows: the gathered key rows feed the same exact
        integer matmul, so the window's position changes no bit.  The
        selector sees the heads ordered by segment count, most first, so a
        head takes part only in its own segments.  Tiles reach it
        unscaled, with their rows' scales (see the module notes).
        """
        prep = predictor.predict_prepared(tokens, q, cache=cache, cache_keys=cache_keys)
        n, t = prep.pow2.shape[0], prep.pow2.shape[1]
        lens = prep.seq_lens
        k_heads = np.broadcast_to(np.asarray(k, dtype=np.int64), (n,))
        seg_heads = segment_counts(
            lens, k_heads, sorter.config.n_segments if n_segments is None else n_segments
        )
        order = np.argsort(-seg_heads, kind="stable")
        # Bounds every partial sum, hence every |score|, from the queries'
        # magnitudes and the truncation width (no scan of k_hat).
        bound = _matmul_bound(prep.pow2, int_range(prep.k_bits)[1])
        exact = bound < _EXACT_WINDOW
        probe = FusedProbe(
            rows=n * t,
            row_len=int(lens.max()),
            peak_tile_elems=0,
            full_matrix_elems=t * int(lens.sum()),
            exact_blas=exact,
        )
        scales = prep.scales[order]
        dtype = np.float64 if exact else np.int64
        pow2 = prep.pow2[order].astype(dtype)
        k_hat = prep.k_hat.astype(dtype, copy=False)  # float64 codes: no copy
        starts = prep.starts[order]

        def tile_fn(seg: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            # Rows are head-major, so every T-th row carries its head's
            # window; the first m heads are the ones still active.
            m = len(lo) // t
            k_tile = k_hat[starts[:m, None] + window_columns(lo[::t], hi[::t])]
            block = pow2[:m] @ k_tile.transpose(0, 2, 1)
            probe.peak_tile_elems = max(probe.peak_tile_elems, block.size)
            return block.reshape(m * t, k_tile.shape[1])

        # Tiles go to the selector unscaled, with their rows' scales and
        # score bound: it ranks them by integer keys where it can and
        # scales them itself where it cannot (int64 tiles always).
        stack = sorter.select_stack_streamed(
            tile_fn,
            n * t,
            np.repeat(lens[order], t),
            np.repeat(k_heads[order], t),
            np.repeat(seg_heads[order], t),
            row_scales=np.repeat(scales, t),
            score_bound=bound,
        )
        # Back to the callers' head order: sorted row p is original row rows[p].
        rows = (order[:, None] * t + np.arange(t)).ravel()
        result = SadsStackResult(
            indices=np.empty_like(stack.indices),
            compare_rows=np.empty_like(stack.compare_rows),
            clipped_rows=np.empty_like(stack.clipped_rows),
        )
        result.indices[rows] = stack.indices
        result.compare_rows[rows] = stack.compare_rows
        result.clipped_rows[rows] = stack.clipped_rows
        self.last_probe = probe
        return prep, result


#: The process-wide fused execution engine the batched engine runs.
FUSED = FusedPredictSelect()
