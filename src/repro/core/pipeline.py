"""The cross-stage coordinated tiled pipeline (the SOFA end-to-end flow).

This module fuses the three dynamic-sparsity stages under one tiling grid
(Fig. 6): a row of S keys is covered by Tc tiles of width Bc, and the *same*
tiles serve as

* DLZS prediction units of work (one K_hat/A_hat tile at a time),
* SADS sub-segments (each tile selects its top-(k/Tc) share), and
* SU-FA processing blocks (selected keys stream through in sorted order).

Consequences modeled here:

* **No intermediate DRAM traffic** - a Pre-Atten tile (T x Bc) lives entirely
  in SRAM and is consumed by the tile's sorter before the next tile arrives;
  the full (T, S) Pre-Atten/Atten matrices are never materialized off-chip.
  The accounting that proves it feeds Fig. 20(a).
* **On-demand KV generation** - only keys/values that survive selection are
  generated at formal precision (``K = x W_k`` etc. for selected tokens
  only), eliminating the wasted projection work of generate-everything
  baselines.
* **Fine-grained stage overlap** - per-tile latencies feed the hw pipeline
  model; the functional result here is exact regardless of overlap.

This module is the single-head operator; ``repro.engine`` executes whole
``(batch * heads)`` stacks through the same stages in fused NumPy ops, with
bit-for-bit identical per-head results (the float paths route through the
batch-invariant primitives in ``repro.numerics.linalg``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attention.reference import masked_attention
from repro.attention.topk import indices_to_mask
from repro.core.config import SofaConfig
from repro.core.dlzs import DlzsPredictor
from repro.core.sads import SadsSorter
from repro.core.sufa import UpdateOrder, sorted_updating_attention
from repro.numerics.complexity import OpCounter, matmul_ops
from repro.numerics.linalg import det_matmul


def prediction_trace_bytes(
    cfg: SofaConfig, s: int, h: int, dk: int, t: int
) -> tuple[float, float]:
    """(dram, sram) bytes of the DLZS stage - shared with the batched engine."""
    pred_bits = cfg.dlzs.token_bits
    dram = float(s) * h * (pred_bits // 8)  # token stream
    dram += h * dk * 0.5  # 4-bit LZ codes
    sram = float(t) * cfg.tile_cols * 2 + cfg.tile_cols * h
    return dram, sram


def sads_trace_sram(cfg: SofaConfig, t: int, k_count: int) -> float:
    """SRAM high-water mark of the SADS stage (its DRAM traffic is zero)."""
    return float(t) * cfg.tile_cols * 2 + float(t) * k_count * 4


def formal_trace_bytes(
    cfg: SofaConfig, u: int, h: int, t: int, d: int, dk: int, dv: int
) -> tuple[float, float]:
    """(dram, sram) bytes of the on-demand-KV + SU-FA stage.

    ``u`` is the number of unique selected tokens (the re-read set).
    """
    dram = (
        u * h * 1.0  # re-read selected tokens (8-bit)
        + float(t) * d * 2  # Q stream (16-bit)
        + float(t) * dv * 2  # output write
    )
    sram = float(t) * d * 2 + 2 * cfg.tile_cols * dk * 2 + float(t) * (dv + 2) * 2
    return dram, sram


@dataclass
class StageTrace:
    """Per-stage accounting of one pipeline run.

    ``dram_bytes`` follows the tiled dataflow: intermediates stay on chip, so
    only true inputs/outputs appear.  ``sram_peak_bytes`` is the high-water
    mark of live tile state.
    """

    name: str
    ops: OpCounter
    dram_bytes: float
    sram_peak_bytes: float


@dataclass
class SofaAttentionResult:
    """Full result of the SOFA attention pipeline.

    Attributes
    ----------
    output:
        ``(T, D)`` sparse attention output (exact over the selected set).
    selected:
        ``(T, k)`` selected key indices in descending estimated score.
    stages:
        Per-stage op/memory traces (prediction, sorting, formal).
    assurance_triggers:
        Max-Ensuring circuit activations inside SU-FA.
    reference_mask:
        Boolean mask equivalent of ``selected`` for fidelity checks.
    """

    output: np.ndarray
    selected: np.ndarray
    stages: list[StageTrace]
    assurance_triggers: int

    @property
    def total_ops(self) -> OpCounter:
        total = OpCounter()
        for st in self.stages:
            total = total + st.ops
        return total

    @property
    def total_dram_bytes(self) -> float:
        return sum(st.dram_bytes for st in self.stages)

    @property
    def reference_mask(self) -> np.ndarray:
        s = int(self.selected.max()) + 1 if self.selected.size else 0
        return indices_to_mask(self.selected, max(s, self._row_len))

    _row_len: int = 0


class SofaAttention:
    """The SOFA attention operator: DLZS -> SADS -> SU-FA under shared tiling.

    Construction pre-converts the key projection weights (offline step);
    :meth:`__call__` executes the online tiled pipeline for one attention
    head given token activations and the query matrix.
    """

    def __init__(self, wk: np.ndarray, wv: np.ndarray, config: SofaConfig | None = None):
        self.config = config or SofaConfig()
        self.predictor = DlzsPredictor(wk, self.config.dlzs)
        self._wk = np.asarray(wk, dtype=np.float64)
        self._wv = np.asarray(wv, dtype=np.float64)

    def __call__(
        self,
        tokens: np.ndarray,
        q: np.ndarray,
        k_scale: float = 1.0,
        v_scale: float = 1.0,
        v: np.ndarray | None = None,
    ) -> SofaAttentionResult:
        """Run the pipeline: predict, select, and compute sparse attention.

        Parameters
        ----------
        tokens:
            ``(S, H)`` token activations (integer-range; the pre-compute
            stage quantizes internally).
        q:
            ``(T, D)`` formal-precision query matrix.
        k_scale / v_scale:
            Scales applied to the on-demand generated K/V (the model
            substrate folds normalization constants here).
        v:
            Optional ``(S, Dv)`` pre-computed value matrix (a serving value
            cache).  When given, SU-FA consumes it directly and the
            on-demand generation (and its op charge) covers keys only.
        """
        tokens = np.asarray(tokens, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        s = tokens.shape[0]
        t = q.shape[0]
        cfg = self.config
        k_count = cfg.resolve_top_k(s)
        n_tiles = cfg.n_tiles(s)

        # ------------------------------------------- stages 1+2: DLZS + SADS
        # The golden models, called directly: the full (T, S) score matrix
        # is built here.  The batched engine streams it tile by tile instead
        # (repro.kernels.predict_select_fused) with the same bits.
        pred = self.predictor.predict(tokens, q)
        # The coordinated tiling: the sorter's segments ARE the Bc tiles.
        sorter = SadsSorter(cfg.sads_for(n_tiles))
        stack = sorter.select_stack(pred.a_hat, k_count)
        selected = stack.indices

        pred_dram, pred_sram = prediction_trace_bytes(
            cfg, s, tokens.shape[1], self._wk.shape[1], t
        )
        stage1 = StageTrace("dlzs_prediction", pred.ops, pred_dram, pred_sram)
        sads_ops = OpCounter()
        sads_ops.add_op("compare", float(stack.compare_rows.sum()))
        stage2 = StageTrace(
            "sads_topk",
            sads_ops,
            0.0,  # Pre-Atten tiles never leave SRAM in the tiled dataflow
            sads_trace_sram(cfg, t, k_count),
        )

        # ------------------------------------------- stage 3: on-demand KV + SU-FA
        unique_tokens = np.unique(selected)
        k_mat = np.zeros((s, self._wk.shape[1]))
        k_mat[unique_tokens] = det_matmul(tokens[unique_tokens], self._wk) * k_scale
        kv_ops = matmul_ops(unique_tokens.size, tokens.shape[1], self._wk.shape[1])
        if v is None:
            v_mat = np.zeros((s, self._wv.shape[1]))
            v_mat[unique_tokens] = det_matmul(tokens[unique_tokens], self._wv) * v_scale
            kv_ops = kv_ops + matmul_ops(
                unique_tokens.size, tokens.shape[1], self._wv.shape[1]
            )
        else:
            v_mat = np.asarray(v, dtype=np.float64)
            if v_mat.ndim != 2 or v_mat.shape[0] != s:
                raise ValueError("value cache must be (S, Dv)")

        sufa = sorted_updating_attention(
            q,
            k_mat,
            v_mat,
            selected,
            order=UpdateOrder.DESCENDING if cfg.sufa.descending else UpdateOrder.ASCENDING,
            max_assurance=cfg.sufa.max_assurance,
            tile_cols=cfg.tile_cols,
        )
        formal_dram, formal_sram = formal_trace_bytes(
            cfg,
            unique_tokens.size,
            tokens.shape[1],
            t,
            q.shape[1],
            self._wk.shape[1],
            v_mat.shape[1],
        )
        stage3 = StageTrace(
            "sufa_formal", kv_ops + sufa.ops, formal_dram, formal_sram
        )

        result = SofaAttentionResult(
            output=sufa.output,
            selected=selected,
            stages=[stage1, stage2, stage3],
            assurance_triggers=sufa.assurance_triggers,
        )
        result._row_len = s
        return result

    def reference_output(
        self,
        tokens: np.ndarray,
        q: np.ndarray,
        selected: np.ndarray,
        k_scale: float = 1.0,
        v_scale: float = 1.0,
    ) -> np.ndarray:
        """Exact masked attention over the same selected set (golden model)."""
        tokens = np.asarray(tokens, dtype=np.float64)
        k_mat = tokens @ self._wk * k_scale
        v_mat = tokens @ self._wv * v_scale
        mask = indices_to_mask(selected, tokens.shape[0])
        return masked_attention(q, k_mat, v_mat, mask)


def sofa_attention(
    tokens: np.ndarray,
    q: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    config: SofaConfig | None = None,
    k_scale: float = 1.0,
    v_scale: float = 1.0,
) -> SofaAttentionResult:
    """Functional one-shot wrapper around :class:`SofaAttention`."""
    op = SofaAttention(wk, wv, config)
    return op(tokens, q, k_scale=k_scale, v_scale=v_scale)
