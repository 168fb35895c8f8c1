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
  built.  Heads keyed into a decode cache read the projected rows it
  holds (one ``np.take`` through their chains' block tables) and project
  only rows it does not hold yet, so a decode session projects each row
  once.
* **SU-FA** streams all ``N*T`` rows through the sorted-updating core in
  lockstep (:func:`repro.core.sufa.stream_selected`), gathering K/V from
  the slabs tile by tile, mirroring how the hardware's PE columns share
  one K/V stream across rows.

Failure semantics follow the fusion: with ``max_assurance=False`` a
mispredicted ordering in *any* head aborts the whole call (streaming state
advances per step for the full stack), so callers needing per-head fault
isolation - like :class:`~repro.engine.serving.SofaEngine` - serve such
requests unbatched.

The mapping to the paper's Fig. 6 tiling grid is unchanged, and it stays
per head: each head has its own ``(S, tile_cols)`` grid, so heads of
different ``S`` share one call (decode sessions of different lengths).  A
head's SADS sub-segments are its own Bc tiles - ``n_tiles(S)`` of them,
with its own bounds, quotas and ``k`` - and they are the tiles its SU-FA
stream consumes.  Every head's tokens and ``K_hat`` rows are kept at its
own length (``K_hat`` is one head-major ``(sum S, D')`` array), and a head
takes part only in its own segments, so a call's work and memory follow
the sum of the heads' lengths, not heads times the longest one.
``selected`` of the stacked result is padded to the largest ``k`` with
``-1``; each ``per_head`` result carries exactly its own ``k`` columns.
SU-FA streams once per distinct ``k``, so every row streams its own
selection under the unchanged stream contract.
Batching adds a fourth reuse axis (heads) on top of the paper's
three-stage reuse without touching the per-head dataflow - which is why
the result is **bit-for-bit** identical to running
:class:`repro.core.pipeline.SofaAttention` per head, including the
per-head :class:`~repro.core.pipeline.StageTrace` accounting.
"""

from __future__ import annotations

import hashlib
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
    from repro.engine.paged import PagedDecodeCache


@dataclass
class BatchedSofaResult:
    """Output of one fused multi-head pipeline execution.

    ``per_head[i]`` is a full :class:`SofaAttentionResult` (output, selected
    indices, three stage traces, assurance triggers) equal to what the
    sequential operator reports for head ``i``.
    """

    outputs: np.ndarray  # (N, T, Dv)
    selected: np.ndarray  # (N, T, max k); -1 past a head's own k
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
        self._digests: dict[bool, list[str]] = {}

    @property
    def n_heads(self) -> int:
        return self._wk.shape[0]

    def _projection_digests(self, with_values: bool) -> list[str]:
        """Per head, a digest of the float matrices its stored projection
        rows are made with: ``wk`` and ``wv``, or ``wk`` alone when value
        caches are supplied.  The decode cache keeps projections per
        digest, so rows made with other weights are never read."""
        digests = self._digests.get(with_values)
        if digests is None:
            mats = (self._wk, self._wv) if with_values else (self._wk,)
            digests = []
            for i in range(self.n_heads):
                h = hashlib.sha1()
                for mat in mats:
                    h.update(str(mat[i].shape).encode())
                    h.update(np.ascontiguousarray(mat[i]))
                digests.append(h.hexdigest())
            self._digests[with_values] = digests
        return digests

    def _project_through_cache(
        self,
        cache: "PagedDecodeCache",
        chains: list,
        toks_sel: np.ndarray,
        head_idx: np.ndarray,
        tok_idx: np.ndarray,
        with_values: bool,
    ) -> np.ndarray:
        """Raw ``K|V`` projections (``K`` alone without values) of the
        selected rows, ``(U, Dk [+ Dv])``.

        Keyed heads' rows are read from the cache's projection arena
        through their chains' block tables; every row found nowhere is
        projected here, per row as always, and written back.  A row's
        projection depends only on the row and its head's matrix, so the
        stored rows are the bits projecting them again would give.
        """
        mats = (self._wk, self._wv) if with_values else (self._wk,)
        width = sum(m.shape[2] for m in mats)
        gathered = cache.gather_projected(
            chains, self._projection_digests(with_values), width, head_idx, tok_idx
        )
        kv = gathered.rows
        need = np.flatnonzero(~gathered.found)
        if need.size:
            x, rows_head = toks_sel[need], head_idx[need]
            lo = 0
            for mat in mats:
                hi = lo + mat.shape[2]
                kv[need, lo:hi] = det_gathered_project(x, mat, rows_head)
                lo = hi
            cache.store_projected(gathered, need, kv[need])
        return kv

    def __call__(
        self,
        tokens: "np.ndarray | Sequence[np.ndarray]",
        q: np.ndarray,
        k_scale: float | np.ndarray = 1.0,
        v_scale: float | np.ndarray = 1.0,
        v: "np.ndarray | Sequence[np.ndarray] | None" = None,
        cache: "PagedDecodeCache | None" = None,
        cache_keys: Sequence[Hashable | None] | None = None,
    ) -> BatchedSofaResult:
        """Run the fused pipeline for the whole head stack.

        Parameters
        ----------
        tokens:
            Per-head token activations: N ``(S_i, H)`` arrays, whose
            lengths may differ, or one ``(N, S, H)`` stack.
        q:
            ``(N, T, D)`` per-head query matrices.
        k_scale / v_scale:
            Scalar or ``(N,)`` per-head K/V generation scales.
        v:
            Optional per-head value caches, N ``(S_i, Dv)`` arrays or one
            ``(N, S, Dv)`` stack; when given the on-demand value generation
            is skipped (serving decode reuses the cache), matching
            ``SofaAttention(..., v=v[i])`` per head.
        cache / cache_keys:
            Optional decode-step cache and one key (or ``None``) per head;
            keyed heads reuse/extend their quantized ``K_hat`` state across
            calls (see :mod:`repro.engine.cache`).  Results stay bit-for-bit
            identical to the uncached call.
        """
        n = self.n_heads
        h, dk = self._wk.shape[1], self._wk.shape[2]
        heads = [np.asarray(x, dtype=np.float64) for x in tokens]
        if len(heads) != n or any(x.ndim != 2 or x.shape[1] != h for x in heads):
            raise ValueError(f"tokens must be {n} (S, {h}) arrays")
        q = np.asarray(q, dtype=np.float64)
        if q.ndim != 3 or q.shape[0] != n or q.shape[2] != dk:
            raise ValueError(f"q must be ({n}, T, {dk})")
        k_scales = _as_head_scales(k_scale, n)
        v_scales = _as_head_scales(v_scale, n)
        t, d = q.shape[1], q.shape[2]
        cfg = self.config
        seq_lens = np.array([x.shape[0] for x in heads], dtype=np.int64)
        s_max = int(seq_lens.max())
        k_counts = np.array([cfg.resolve_top_k(int(s)) for s in seq_lens], dtype=np.int64)
        n_tiles = np.array([cfg.n_tiles(int(s)) for s in seq_lens], dtype=np.int64)

        # ------------------------------------------- stages 1+2: DLZS + SADS
        # Prediction and selection run tile by tile: the full (N*T, S) score
        # matrix is never built, and the bits (indices, per-head op tallies)
        # are those of the golden predict -> select_stack pipeline.
        # The coordinated tiling: each head's sorter segments ARE its own Bc
        # tiles (n_tiles(S_i) of them), so heads of different S share a call.
        sorter = SadsSorter(cfg.sads)
        obs = get_telemetry()
        with obs.span(
            "stage.predict_select_fused",
            attrs={"rows": n * t, "s": s_max},
            hist="sofa_stage_predict_select_fused_seconds",
        ):
            prep, stack = FUSED.run_stacked(
                self.predictor,
                sorter,
                heads,
                q,
                k_counts,
                cache=cache,
                cache_keys=cache_keys,
                n_segments=n_tiles,
            )
        head_ops = prep.head_ops
        kk = stack.indices.shape[1]  # the largest k; shorter rows pad with -1
        selected = stack.indices.reshape(n, t, kk)
        sads_compare = stack.compare_rows.reshape(n, t)

        # ------------------------------------------- stage 3: on-demand KV + SU-FA
        with obs.span(
            "stage.kv_gather",
            attrs={"rows": n * t, "k": kk},
            hist="sofa_stage_kv_gather_seconds",
        ):
            # One mask over every head's tokens back to back, laid out as
            # K_hat's rows; the last slot absorbs the -1 padding of rows
            # with a smaller k.
            starts = prep.starts
            n_tokens = int(seq_lens.sum())
            flat_sel = np.where(selected < 0, n_tokens, selected + starts[:, None, None])
            sel_mask = np.zeros(n_tokens + 1, dtype=bool)
            sel_mask[flat_sel] = True
            pos = np.flatnonzero(sel_mask[:n_tokens])  # per head, ascending tokens
            head_idx = np.searchsorted(starts, pos, side="right") - 1
            tok_idx = pos - starts[head_idx]
            unique_counts = np.bincount(head_idx, minlength=n)
            # Slab row of each selected (head, token): the number of selected
            # entries before it in the head-major mask, i.e. its position in
            # (head_idx, tok_idx).
            slab_row = np.cumsum(sel_mask) - 1
            index = slab_row[flat_sel].reshape(n * t, kk)
            head_tok = np.split(tok_idx, np.cumsum(unique_counts)[:-1])

            toks_sel = np.concatenate([x[idx] for x, idx in zip(heads, head_tok)])  # (U, H)
            chains = prep.chains
            if chains is not None and any(c is not None for c in chains):
                kv = self._project_through_cache(
                    cache, chains, toks_sel, head_idx, tok_idx, v is None
                )
                keys = kv[:, :dk] * k_scales[head_idx, None]
                if v is None:
                    values = kv[:, dk:] * v_scales[head_idx, None]
            else:
                keys = det_gathered_project(toks_sel, self._wk, head_idx) * k_scales[head_idx, None]
                if v is None:
                    values = (
                        det_gathered_project(toks_sel, self._wv, head_idx)
                        * v_scales[head_idx, None]
                    )
            if v is not None:
                caches = [np.asarray(x, dtype=np.float64) for x in v]
                if len(caches) != n or any(
                    c.ndim != 2 or c.shape != (x.shape[0], caches[0].shape[1])
                    for c, x in zip(caches, heads)
                ):
                    raise ValueError(f"value caches must be {n} (S, Dv) arrays")
                values = np.concatenate([c[idx] for c, idx in zip(caches, head_tok)])
            dv = values.shape[1]
        with obs.span(
            "stage.stream",
            attrs={"rows": n * t, "k": kk},
            hist="sofa_stage_stream_seconds",
        ):
            # One stream call per distinct k: a row streams exactly its own
            # selection under the stream's usual (R, k) contract.
            q_rows = q.reshape(n * t, d)
            k_rows = np.repeat(k_counts, t)
            out_rows = np.empty((n * t, dv))
            trigger_rows = np.empty(n * t, dtype=np.int64)
            op_rows: dict[str, np.ndarray] = {}
            for k_count in sorted(set(k_counts.tolist())):
                rows = np.flatnonzero(k_rows == k_count)
                stream = stream_selected(
                    q_rows[rows],
                    keys,
                    values,
                    index[rows, :k_count],
                    order=UpdateOrder.DESCENDING if cfg.sufa.descending else UpdateOrder.ASCENDING,
                    max_assurance=cfg.sufa.max_assurance,
                    tile_cols=cfg.tile_cols,
                )
                out_rows[rows] = stream.output
                trigger_rows[rows] = stream.trigger_rows
                for op, counts in stream.op_rows.items():
                    op_rows.setdefault(op, np.empty(n * t))[rows] = counts
        outputs = out_rows.reshape(n, t, dv)
        sufa_ops_rows = {op: counts.reshape(n, t) for op, counts in op_rows.items()}
        triggers = trigger_rows.reshape(n, t).sum(axis=1)

        # ------------------------------- per-head accounting (bookkeeping only)
        per_head: list[SofaAttentionResult] = []
        for i in range(n):
            s, k_count, u = int(seq_lens[i]), int(k_counts[i]), int(unique_counts[i])
            pred_dram, pred_sram = prediction_trace_bytes(cfg, s, h, dk, t)
            stage1 = StageTrace(
                "dlzs_prediction", head_ops[i], pred_dram, pred_sram
            )
            sads_ops = OpCounter()
            sads_ops.add_op("compare", float(sads_compare[i].sum()))
            stage2 = StageTrace(
                "sads_topk",
                sads_ops,
                0.0,  # Pre-Atten tiles never leave SRAM in the tiled dataflow
                sads_trace_sram(cfg, t, k_count),
            )
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
                selected=np.ascontiguousarray(selected[i, :, :k_count]),
                stages=[stage1, stage2, stage3],
                assurance_triggers=int(triggers[i]),
            )
            result._row_len = s
            per_head.append(result)

        return BatchedSofaResult(
            outputs=outputs, selected=selected, per_head=per_head
        )
