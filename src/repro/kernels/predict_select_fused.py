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
  score matrix equals the matmul against the matching ``k_hat`` row
  slice, bit for bit (see :class:`~repro.core.dlzs.PreparedStackPrediction`);
* the streaming selector equals the per-row golden selector
  (:meth:`~repro.core.sads.SadsSorter.select_row_reference`) whatever the
  tiles' source, and ``select_stack`` is the same selector over slices of
  a materialized matrix.

Like the reference predict (:func:`~repro.numerics.linalg.exact_int_matmul`),
the tiles run on float64 BLAS whenever every partial sum fits in
float64's 53-bit integer window (:func:`~repro.numerics.linalg._blas_exact`,
checked against the actual operand magnitudes): the BLAS matmul then
produces the same integers, hence the same bits after scaling.  Inputs
too large for the window (never the default 16-bit configs) fall back to
int64 tiles, trading speed, not correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.numerics.linalg import _blas_exact

if TYPE_CHECKING:
    from repro.core.dlzs import PreparedStackPrediction, StackedDlzsPredictor
    from repro.core.sads import SadsSorter, SadsStackResult
    from repro.engine.cache import DecodeStepCache


@dataclass
class FusedProbe:
    """Peak-intermediate-size evidence from the last fused run.

    ``peak_tile_elems`` is the largest score block the run ever held;
    tests assert it stays a tile, not the ``full_matrix_elems`` the
    unfused golden pipeline materializes.
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
        tokens: np.ndarray,
        q: np.ndarray,
        k: int,
        cache: "DecodeStepCache | None" = None,
        cache_keys: "Sequence[Hashable | None] | None" = None,
    ) -> "tuple[PreparedStackPrediction, SadsStackResult]":
        prep = predictor.predict_prepared(tokens, q, cache=cache, cache_keys=cache_keys)
        n, t = prep.pow2.shape[0], prep.pow2.shape[1]
        s = prep.k_hat.shape[1]
        exact = _blas_exact(prep.pow2, prep.k_hat)
        probe = FusedProbe(
            rows=n * t,
            row_len=s,
            peak_tile_elems=0,
            full_matrix_elems=n * t * s,
            exact_blas=exact,
        )
        scales = prep.scales[:, None, None]
        if exact:  # exact integers in float64
            pow2, k_hat = prep.pow2.astype(np.float64), prep.k_hat.astype(np.float64)
        else:
            pow2, k_hat = prep.pow2, prep.k_hat

        def tile_fn(seg: int, lo: int, hi: int) -> np.ndarray:
            block = pow2 @ k_hat[:, lo:hi, :].transpose(0, 2, 1)
            probe.peak_tile_elems = max(probe.peak_tile_elems, block.size)
            block = block.astype(np.float64, copy=False) * scales
            return block.reshape(n * t, hi - lo)

        stack = sorter.select_stack_streamed(tile_fn, n * t, s, k)
        self.last_probe = probe
        return prep, stack


#: The process-wide fused execution engine the batched engine runs.
FUSED = FusedPredictSelect()
