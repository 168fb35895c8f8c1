"""Batched multi-head SOFA attention: one fused pass over a head stack.

:class:`BatchedSofaAttention` executes the DLZS -> SADS -> SU-FA pipeline for
a whole ``(batch * heads)`` stack of attention problems in fused NumPy ops -
there is no Python loop over heads in any compute stage:

* **DLZS prediction + SADS selection** run fused
  (:data:`repro.kernels.FUSED`): the stacked predictor
  (:class:`repro.core.dlzs.StackedDlzsPredictor`) prepares every head with
  its own quantization scales, then each Bc tile of the ``(N*T, S)`` score
  stack is computed by one exact matmul and fed straight to the streaming
  SADS selector (:meth:`repro.core.sads.SadsSorter.select_stack_streamed`)
  before the next tile - the full score matrix is never built.
* **On-demand K/V** is generated once per unique selected token: a
  ``(U, D)`` key slab and a ``(U, Dv)`` value slab for the U tokens any
  head selected (``v=`` value caches are gathered into the same slab
  form), and ``selected`` is remapped to slab rows by one ``cumsum`` over
  the selection mask.  No ``(N, S, D)`` or ``(N, T, kk, D)`` K/V array is
  built.
* **SU-FA** streams all ``N*T`` rows through the sorted-updating core in
  lockstep (:func:`repro.core.sufa.stream_selected`), gathering K/V from
  the slabs tile by tile, mirroring how the hardware's PE columns share
  one K/V stream across rows.

Failure semantics follow the fusion: with ``max_assurance=False`` a
mispredicted ordering in *any* head aborts the whole call (streaming state
advances per step for the full stack), so callers needing per-head fault
isolation - like :class:`~repro.engine.serving.SofaEngine` - serve such
requests unbatched.

The mapping to the paper's Fig. 6 tiling grid is unchanged: every head in
the batch shares the same ``(S, tile_cols)`` grid, so the SADS sub-segments
of all heads are the same Bc tiles the SU-FA stage consumes.  Batching adds
a fourth reuse axis (heads) on top of the paper's three-stage reuse without
touching the per-head dataflow - which is why the result is **bit-for-bit**
identical to running :class:`repro.core.pipeline.SofaAttention` per head,
including the per-head :class:`~repro.core.pipeline.StageTrace` accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.core.config import SofaConfig
from repro.core.dlzs import StackedDlzsPredictor
from repro.core.pipeline import (
    SofaAttentionResult,
    StageTrace,
    formal_trace_bytes,
    prediction_trace_bytes,
    sads_trace_sram,
)
from repro.core.sads import SadsSorter
from repro.core.sufa import UpdateOrder, stream_selected
from repro.kernels.predict_select_fused import FUSED
from repro.obs import get_telemetry
from repro.numerics.complexity import OpCounter, matmul_ops
from repro.numerics.linalg import det_gathered_project

if TYPE_CHECKING:
    from repro.engine.cache import DecodeStepCache


@dataclass
class BatchedSofaResult:
    """Output of one fused multi-head pipeline execution.

    ``per_head[i]`` is a full :class:`SofaAttentionResult` (output, selected
    indices, three stage traces, assurance triggers) equal to what the
    sequential operator reports for head ``i``.
    """

    outputs: np.ndarray  # (N, T, Dv)
    selected: np.ndarray  # (N, T, k)
    per_head: list[SofaAttentionResult]

    @property
    def n_heads(self) -> int:
        return self.outputs.shape[0]

    @property
    def total_ops(self) -> OpCounter:
        total = OpCounter()
        for head in self.per_head:
            total = total + head.total_ops
        return total

    @property
    def total_dram_bytes(self) -> float:
        return sum(head.total_dram_bytes for head in self.per_head)

    @property
    def assurance_triggers(self) -> int:
        return sum(head.assurance_triggers for head in self.per_head)


def _as_head_scales(scale: float | np.ndarray, n: int) -> np.ndarray:
    arr = np.asarray(scale, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"per-head scales must be scalar or ({n},), got {arr.shape}")
    return arr


class BatchedSofaAttention:
    """The fused multi-head SOFA operator.

    Construction pre-converts every head's key projection to (sign, LZ)
    codes (the offline model-preparation step, done once per weight stack);
    :meth:`__call__` executes the online pipeline for the whole stack.
    """

    def __init__(self, wk: np.ndarray, wv: np.ndarray, config: SofaConfig | None = None):
        self.config = config or SofaConfig()
        wk = np.asarray(wk, dtype=np.float64)
        wv = np.asarray(wv, dtype=np.float64)
        if wk.ndim != 3 or wv.ndim != 3 or wk.shape[:2] != wv.shape[:2]:
            raise ValueError("need (N, H, Dk) wk and (N, H, Dv) wv stacks")
        self.predictor = StackedDlzsPredictor(wk, self.config.dlzs)
        self._wk = wk
        self._wv = wv

    @property
    def n_heads(self) -> int:
        return self._wk.shape[0]

    def __call__(
        self,
        tokens: np.ndarray,
        q: np.ndarray,
        k_scale: float | np.ndarray = 1.0,
        v_scale: float | np.ndarray = 1.0,
        v: np.ndarray | None = None,
        cache: "DecodeStepCache | None" = None,
        cache_keys: Sequence[Hashable | None] | None = None,
    ) -> BatchedSofaResult:
        """Run the fused pipeline for the whole head stack.

        Parameters
        ----------
        tokens:
            ``(N, S, H)`` per-head token activations.
        q:
            ``(N, T, D)`` per-head query matrices.
        k_scale / v_scale:
            Scalar or ``(N,)`` per-head K/V generation scales.
        v:
            Optional ``(N, S, Dv)`` per-head value caches; when given the
            on-demand value generation is skipped (serving decode reuses the
            cache), matching ``SofaAttention(..., v=v[i])`` per head.
        cache / cache_keys:
            Optional decode-step cache and one key (or ``None``) per head;
            keyed heads reuse/extend their quantized ``K_hat`` state across
            calls (see :mod:`repro.engine.cache`).  Results stay bit-for-bit
            identical to the uncached call.
        """
        tokens = np.asarray(tokens, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        n = self.n_heads
        if tokens.ndim != 3 or tokens.shape[0] != n or tokens.shape[2] != self._wk.shape[1]:
            raise ValueError(f"tokens must be ({n}, S, {self._wk.shape[1]})")
        if q.ndim != 3 or q.shape[0] != n or q.shape[2] != self._wk.shape[2]:
            raise ValueError(f"q must be ({n}, T, {self._wk.shape[2]})")
        k_scales = _as_head_scales(k_scale, n)
        v_scales = _as_head_scales(v_scale, n)
        s, h = tokens.shape[1], tokens.shape[2]
        t, d = q.shape[1], q.shape[2]
        dk = self._wk.shape[2]
        cfg = self.config
        k_count = cfg.resolve_top_k(s)
        n_tiles = cfg.n_tiles(s)

        # ------------------------------------------- stages 1+2: DLZS + SADS
        # Prediction and selection run tile by tile: the full (N*T, S) score
        # matrix is never built, and the bits (indices, per-head op tallies)
        # are those of the golden predict -> select_stack pipeline.
        # The coordinated tiling: the sorter's segments ARE the Bc tiles,
        # identical for every head in the batch (shared (S, Bc) grid).
        sorter = SadsSorter(cfg.sads_for(n_tiles))
        obs = get_telemetry()
        with obs.span(
            "stage.predict_select_fused",
            attrs={"rows": n * t, "s": s},
            hist="sofa_stage_predict_select_fused_seconds",
        ):
            prep, stack = FUSED.run_stacked(
                self.predictor,
                sorter,
                tokens,
                q,
                k_count,
                cache=cache,
                cache_keys=cache_keys,
            )
        head_ops = prep.head_ops
        pred_dram, pred_sram = prediction_trace_bytes(cfg, s, h, dk, t)
        kk = stack.indices.shape[1]
        selected = stack.indices.reshape(n, t, kk)
        sads_compare = stack.compare_rows.reshape(n, t)
        sads_sram = sads_trace_sram(cfg, t, k_count)

        # ------------------------------------------- stage 3: on-demand KV + SU-FA
        with obs.span(
            "stage.kv_gather",
            attrs={"rows": n * t, "k": kk},
            hist="sofa_stage_kv_gather_seconds",
        ):
            sel_mask = np.zeros((n, s), dtype=bool)
            np.put_along_axis(sel_mask, selected.reshape(n, t * kk), True, axis=1)
            head_idx, tok_idx = np.nonzero(sel_mask)  # per head, ascending tokens
            unique_counts = sel_mask.sum(axis=1)
            # Slab row of each selected (head, token): the number of selected
            # entries before it in the head-major mask, i.e. its position in
            # (head_idx, tok_idx).
            slab_row = (np.cumsum(sel_mask, axis=None) - 1).reshape(n, s)
            index = slab_row[np.arange(n)[:, None, None], selected].reshape(n * t, kk)

            toks_sel = tokens[head_idx, tok_idx]  # (U, H)
            keys = det_gathered_project(toks_sel, self._wk, head_idx) * k_scales[head_idx, None]
            if v is None:
                values = (
                    det_gathered_project(toks_sel, self._wv, head_idx)
                    * v_scales[head_idx, None]
                )
            else:
                v_arr = np.asarray(v, dtype=np.float64)
                if v_arr.ndim != 3 or v_arr.shape[:2] != (n, s):
                    raise ValueError(f"value caches must be ({n}, {s}, Dv)")
                values = v_arr[head_idx, tok_idx]
            dv = values.shape[1]
        with obs.span(
            "stage.stream",
            attrs={"rows": n * t, "k": kk},
            hist="sofa_stage_stream_seconds",
        ):
            stream = stream_selected(
                q.reshape(n * t, d),
                keys,
                values,
                index,
                order=UpdateOrder.DESCENDING if cfg.sufa.descending else UpdateOrder.ASCENDING,
                max_assurance=cfg.sufa.max_assurance,
                tile_cols=cfg.tile_cols,
                kernel=cfg.sufa.kernel,
            )
        outputs = stream.output.reshape(n, t, dv)
        sufa_ops_rows = {
            op: counts.reshape(n, t) for op, counts in stream.op_rows.items()
        }
        triggers = stream.trigger_rows.reshape(n, t).sum(axis=1)

        # ------------------------------- per-head accounting (bookkeeping only)
        per_head: list[SofaAttentionResult] = []
        for i in range(n):
            stage1 = StageTrace(
                "dlzs_prediction", head_ops[i], pred_dram, pred_sram
            )
            sads_ops = OpCounter()
            sads_ops.add_op("compare", float(sads_compare[i].sum()))
            stage2 = StageTrace(
                "sads_topk",
                sads_ops,
                0.0,  # Pre-Atten tiles never leave SRAM in the tiled dataflow
                sads_sram,
            )
            u = int(unique_counts[i])
            kv_ops = matmul_ops(u, h, dk)
            if v is None:
                kv_ops = kv_ops + matmul_ops(u, h, self._wv.shape[2])
            sufa_ops = OpCounter()
            for op, counts in sufa_ops_rows.items():
                sufa_ops.add_op(op, float(counts[i].sum()))
            formal_dram, formal_sram = formal_trace_bytes(cfg, u, h, t, d, dk, dv)
            stage3 = StageTrace(
                "sufa_formal", kv_ops + sufa_ops, formal_dram, formal_sram
            )
            result = SofaAttentionResult(
                output=outputs[i],
                selected=selected[i],
                stages=[stage1, stage2, stage3],
                assurance_triggers=int(triggers[i]),
            )
            result._row_len = s
            per_head.append(result)

        return BatchedSofaResult(
            outputs=outputs, selected=selected, per_head=per_head
        )
