"""Fused DLZS predict + SADS select kernel (ROADMAP item 3).

The reference pipeline decouples the first two dynamic-sparsity stages:
``DlzsPredictor.predict`` materializes the full ``(rows, S)`` score
matrix, then ``SadsSorter.select_stack`` thresholds it.  The paper's
coordinated tiling exists to avoid exactly that - a Pre-Atten tile is
consumed by its tile's sorter before the next tile is produced, so the
full score matrix never exists (Fig. 6 / Fig. 20(a)).  This module is the
software analogue: one fused kernel that

1. runs DLZS up to (but not including) the score matmul
   (:meth:`~repro.core.dlzs.DlzsPredictor.predict_prepared` - phase 1.1,
   truncation, query LZ encoding, and the *complete* op accounting, none
   of which needs score values), then
2. feeds score **tiles** - one SADS sub-segment at a time, computed by a
   per-tile exact matmul over the prepared state - straight into the
   streaming selector
   (:meth:`~repro.core.sads.SadsSorter.select_stack_streamed`).

Bit-exactness rests on two facts, each proven at its site:

* integer matmul is exact per output element, so a column block of the
  score matrix equals the matmul against the matching ``k_hat`` row
  slice, bit for bit (see :class:`~repro.core.dlzs.PreparedPrediction`);
* the streaming selector replicates ``select_stack`` exactly, including
  the adjustive exchange, via a bounded excluded-candidate pool (see
  :meth:`~repro.core.sads.SadsSorter.select_stack_streamed`).

Like the reference predict (:func:`~repro.numerics.linalg.exact_int_matmul`),
the tiles run on float64 BLAS whenever every partial sum fits in
float64's 53-bit integer window (:func:`~repro.numerics.linalg._blas_exact`,
checked against the actual operand magnitudes): the BLAS matmul then
produces the same integers, hence the same bits after scaling.  Inputs
too large for the window (never the default 16-bit configs) fall back to
int64 tiles, trading speed, not correctness.

Registration: both the ``predict`` and ``select`` registries carry a
``"fused"`` entry.  Fusion is cross-stage, so it engages only when *both*
stages resolve to entries owned by the same :class:`FusedPredictSelect`
(checked via :func:`fused_pair` by the pipeline/engine call sites); a
mixed selection - say ``SOFA_PREDICT_KERNEL=fused`` with the select stage
on ``reference`` - degrades each wrapper to the stage's reference
behaviour, keeping every CI kernel-matrix combination bit-correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.numerics.linalg import _blas_exact

if TYPE_CHECKING:
    from repro.core.dlzs import (
        DlzsPredictor,
        PreparedPrediction,
        PreparedStackPrediction,
        StackedDlzsPredictor,
    )
    from repro.core.sads import SadsSorter, SadsStackResult
    from repro.engine.cache import DecodeStepCache


def predict_reference(
    predictor,
    tokens: np.ndarray,
    q: np.ndarray,
    *,
    cache: "DecodeStepCache | None" = None,
    cache_keys: "Sequence[Hashable | None] | None" = None,
):
    """The predict-stage golden model: ``predictor.predict`` itself.

    Works for both the per-head :class:`~repro.core.dlzs.DlzsPredictor`
    (which takes no cache arguments - they are only forwarded when set,
    and only the stacked engine path ever sets them) and the stacked
    :class:`~repro.core.dlzs.StackedDlzsPredictor`.
    """
    if cache is None and cache_keys is None:
        return predictor.predict(tokens, q)
    return predictor.predict(tokens, q, cache=cache, cache_keys=cache_keys)


def select_reference(sorter, scores: np.ndarray, k: int):
    """The select-stage golden model: ``sorter.select_stack`` itself."""
    return sorter.select_stack(scores, k)


@dataclass
class FusedProbe:
    """Peak-intermediate-size evidence from the last fused run.

    ``peak_tile_elems`` is the largest score block the run ever held;
    tests assert it stays a tile, not the ``full_matrix_elems`` the
    unfused pipeline materializes (the acceptance criterion's probe).
    """

    rows: int
    row_len: int
    peak_tile_elems: int
    full_matrix_elems: int
    exact_blas: bool


class FusedPredictSelect:
    """Fused predict+select execution engine behind the ``"fused"`` entries.

    ``run_single`` / ``run_stacked`` return ``(prepared, stack)`` - the
    :class:`~repro.core.dlzs.PreparedPrediction` (or stacked twin), which
    carries the complete DLZS op accounting, plus the
    :class:`~repro.core.sads.SadsStackResult` - everything the pipeline
    and the batched engine consume, with the full score matrix never
    allocated.  ``last_probe`` records the peak intermediate size of the
    most recent run (diagnostic only; concurrent callers may interleave
    writes to it, the returned results are untouched by that).
    """

    def __init__(self) -> None:
        self.last_probe: FusedProbe | None = None

    def run_single(
        self,
        predictor: "DlzsPredictor",
        sorter: "SadsSorter",
        tokens: np.ndarray,
        q: np.ndarray,
        k: int,
    ) -> "tuple[PreparedPrediction, SadsStackResult]":
        prep = predictor.predict_prepared(tokens, q)
        t, s = prep.pow2.shape[0], prep.k_hat.shape[0]
        exact = _blas_exact(prep.pow2, prep.k_hat)
        probe = FusedProbe(
            rows=t,
            row_len=s,
            peak_tile_elems=0,
            full_matrix_elems=t * s,
            exact_blas=exact,
        )
        if exact:
            pow2_f = prep.pow2.astype(np.float64)
            k_hat_f = prep.k_hat.astype(np.float64)

            def tile_fn(seg: int, lo: int, hi: int) -> np.ndarray:
                block = pow2_f @ k_hat_f[lo:hi].T  # exact integers in float64
                probe.peak_tile_elems = max(probe.peak_tile_elems, block.size)
                return block * prep.scale

        else:

            def tile_fn(seg: int, lo: int, hi: int) -> np.ndarray:
                block = prep.pow2 @ prep.k_hat[lo:hi].T
                probe.peak_tile_elems = max(probe.peak_tile_elems, block.size)
                return block.astype(np.float64) * prep.scale

        stack = sorter.select_stack_streamed(tile_fn, t, s, k)
        self.last_probe = probe
        return prep, stack

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
        if exact:
            pow2_f = prep.pow2.astype(np.float64)
            k_hat_f = prep.k_hat.astype(np.float64)

            def tile_fn(seg: int, lo: int, hi: int) -> np.ndarray:
                block = pow2_f @ k_hat_f[:, lo:hi, :].transpose(0, 2, 1)
                probe.peak_tile_elems = max(probe.peak_tile_elems, block.size)
                return (block * scales).reshape(n * t, hi - lo)

        else:

            def tile_fn(seg: int, lo: int, hi: int) -> np.ndarray:
                block = prep.pow2 @ prep.k_hat[:, lo:hi, :].transpose(0, 2, 1)
                probe.peak_tile_elems = max(probe.peak_tile_elems, block.size)
                return (block.astype(np.float64) * scales).reshape(n * t, hi - lo)

        stack = sorter.select_stack_streamed(tile_fn, n * t, s, k)
        self.last_probe = probe
        return prep, stack


#: The process-wide fused execution engine both ``"fused"`` registry
#: entries point back to (via their ``fused_owner`` attribute).
FUSED = FusedPredictSelect()


def fused_predict_stage(
    predictor,
    tokens: np.ndarray,
    q: np.ndarray,
    *,
    cache: "DecodeStepCache | None" = None,
    cache_keys: "Sequence[Hashable | None] | None" = None,
):
    """Predict-stage ``"fused"`` entry.

    Fusion is cross-stage, so the wrapper itself just runs the reference
    behaviour; call sites detect the fused pairing via :func:`fused_pair`
    and route through :meth:`FusedPredictSelect.run_single` /
    ``run_stacked`` instead of calling the stages separately.  When only
    one stage resolves to ``"fused"``, this fallback keeps the combination
    bit-correct.
    """
    return predict_reference(predictor, tokens, q, cache=cache, cache_keys=cache_keys)


def fused_select_stage(sorter, scores: np.ndarray, k: int):
    """Select-stage ``"fused"`` entry; see :func:`fused_predict_stage`."""
    return select_reference(sorter, scores, k)


fused_predict_stage.fused_owner = FUSED
fused_select_stage.fused_owner = FUSED


def fused_pair(predict_kernel, select_kernel) -> FusedPredictSelect | None:
    """The shared fused engine of a (predict, select) kernel pair, if any.

    Returns the :class:`FusedPredictSelect` both kernels are fronts for,
    or ``None`` when the stages resolved to unrelated kernels - in which
    case the caller must run them separately (each stage's wrapper then
    behaves as its stage's reference).
    """
    owner = getattr(predict_kernel, "fused_owner", None)
    if owner is not None and getattr(select_kernel, "fused_owner", None) is owner:
        return owner
    return None
