"""Multi-layer inference runner: a full Transformer served by the SOFA engine.

Ties the substrates together for end-to-end studies: every attention head of
every layer runs the DLZS -> SADS -> SU-FA pipeline, and the runner
aggregates per-layer operation counts, selection statistics and fidelity
against the dense forward pass.

Since the serving engine landed, the runner is also its first production
consumer: each layer submits all of its heads to a shared
:class:`~repro.engine.serving.SofaEngine` as independent
:class:`~repro.engine.serving.AttentionRequest` objects.  The engine's
scheduler groups them onto one ``(S, tile_cols)`` tiling grid and executes
the whole layer as a single fused :class:`~repro.engine.batched.
BatchedSofaAttention` call - exactly how a deployment would amortize the
cross-stage grid over concurrent traffic.  Inside a Transformer the head's
K rows double as the pre-compute token stream (identity key projection) and
the real V matrix rides along as the request's value cache.

:class:`SparseDecodeSession` extends this to autoregressive decode: it
keeps per-layer K/V stacks, forwards only the new positions each step, and
serves every head's attention through the engine's **decode-step cache**
(``cache_key=(session, layer, head)``), so the DLZS phase-1.1 state of the
unchanged context prefix is reused instead of re-quantized - with results
bit-identical to uncached serving.

Both consumers accept an :class:`~repro.cluster.serving.EngineCluster` as
a drop-in ``engine`` - including one running over the **socket transport**
with workers on other hosts (``EngineCluster(transport="socket",
worker_addresses=[...], supervisor=...)``).  Nothing here changes for
that: the cluster serves the same submit/flush/futures surface, the codec
round-trips every tensor bit-exactly over frames, and supervision
(heartbeats, auto-respawn/reconnect) keeps the worker fleet healthy while
this module just awaits its futures - so a multi-host deployment is a
constructor argument, not a code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.attention.metrics import output_relative_error
from repro.core.config import SofaConfig
from repro.engine.serving import AttentionRequest, SofaEngine

if TYPE_CHECKING:  # annotation-only: keep repro.model import light
    from repro.cluster import EngineCluster
from repro.model.layers import layer_norm, merge_heads
from repro.model.transformer import Transformer
from repro.numerics.complexity import OpCounter


@dataclass
class LayerStats:
    """Per-layer aggregate across heads."""

    layer: int
    ops: OpCounter
    mean_selected_fraction: float
    mean_union_fraction: float


@dataclass
class SparseInferenceReport:
    """Outcome of one sparse forward pass.

    ``output`` is the sparse model output; ``relative_error`` compares it to
    the dense forward on the same inputs; ``layers`` holds per-layer stats.
    """

    output: np.ndarray
    dense_output: np.ndarray
    layers: list[LayerStats] = field(default_factory=list)

    @property
    def relative_error(self) -> float:
        return output_relative_error(self.output, self.dense_output)

    @property
    def total_ops(self) -> OpCounter:
        total = OpCounter()
        for layer in self.layers:
            total = total + layer.ops
        return total


class SparseInferenceRunner:
    """Runs a :class:`Transformer` with engine-served SOFA sparse attention.

    Parameters
    ----------
    model:
        The dense numpy Transformer (golden model for fidelity).
    config:
        Base SOFA configuration; ``tile_cols_per_layer`` (when given)
        overrides the tile width layer by layer, mirroring the DSE's
        layer-specific tiling.
    engine:
        Optional shared :class:`SofaEngine` - or an
        :class:`~repro.cluster.serving.EngineCluster`, which serves the
        same submit/flush/futures surface from sharded worker processes
        (local children or, via ``transport="socket"``, supervised
        standalone workers on this or other hosts) - by default the
        runner owns a single engine, so callers can inspect
        ``runner.engine.stats`` for batching behavior.
    """

    def __init__(
        self,
        model: Transformer,
        config: SofaConfig | None = None,
        tile_cols_per_layer: list[int] | None = None,
        engine: SofaEngine | EngineCluster | None = None,
    ):
        self.model = model
        self.config = config or SofaConfig(tile_cols=32, top_k=0.25)
        n_layers = model.config.n_layers
        if tile_cols_per_layer is not None and len(tile_cols_per_layer) != n_layers:
            raise ValueError("need one tile width per layer")
        self.tile_cols_per_layer = tile_cols_per_layer
        self.engine = engine or SofaEngine(config=self.config)
        self._identity: dict[int, np.ndarray] = {}

    def _layer_config(self, layer_idx: int) -> SofaConfig:
        if self.tile_cols_per_layer is None:
            return self.config
        return replace(self.config, tile_cols=self.tile_cols_per_layer[layer_idx])

    def _layer_attention(self, layer_idx: int, stats: list[LayerStats]):
        """Build the whole-layer batched attention hook for one layer."""
        cfg = self._layer_config(layer_idx)

        def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
            n_heads, s, dh = q.shape
            eye = self._identity.setdefault(dh, np.eye(dh))
            # One request per head: K rows are the token stream under an
            # identity key projection; the true V rides as a value cache.
            futures = self.engine.submit_many(
                [
                    AttentionRequest(
                        tokens=k[h], q=q[h], wk=eye, wv=eye, v=v[h], config=cfg
                    )
                    for h in range(n_heads)
                ]
            )
            self.engine.flush()

            entry = stats[layer_idx]
            outputs = []
            for future in futures:
                res = future.result()
                outputs.append(res.output)
                for stage in res.stages:
                    entry.ops = entry.ops + stage.ops
                entry.mean_selected_fraction += res.selected.shape[1] / s
                entry.mean_union_fraction += np.unique(res.selected).size / s
            return np.stack(outputs)

        return attention

    def run(self, x: np.ndarray) -> SparseInferenceReport:
        """Sparse forward with per-layer stats; dense forward for reference."""
        n_layers = self.model.config.n_layers
        stats = [
            LayerStats(layer=i, ops=OpCounter(), mean_selected_fraction=0.0,
                       mean_union_fraction=0.0)
            for i in range(n_layers)
        ]

        # Run layer by layer so each layer gets its own attention hook.
        dense = x.copy()
        sparse = x.copy()
        n_heads = self.model.config.n_heads
        for i, block in enumerate(self.model.blocks):
            dense = block(dense)
            sparse = block(sparse, batched_attention_fn=self._layer_attention(i, stats))
            stats[i].mean_selected_fraction /= n_heads
            stats[i].mean_union_fraction /= n_heads
        dense = layer_norm(dense)
        sparse = layer_norm(sparse)
        return SparseInferenceReport(output=sparse, dense_output=dense, layers=stats)


@dataclass
class DecodeStepReport:
    """Outcome of one decode step.

    ``output`` holds the final-normalized hidden states of the *new*
    positions only; ``seq_len`` is the total context length after the step.
    ``cache_hits``/``cache_misses`` are the decode-step-cache lookups this
    step performed (hits skip re-quantizing the context prefix).
    """

    output: np.ndarray
    seq_len: int
    cache_hits: int = 0
    cache_misses: int = 0


class SparseDecodeSession:
    """Autoregressive decode served through the engine's decode-step cache.

    The session keeps per-layer K/V stacks (the model substrate's KV cache)
    and, each :meth:`step`, forwards only the newly appended positions: every
    layer projects the new rows, extends its K/V stacks, and submits one
    :class:`AttentionRequest` per head with ``cache_key=(session_id, layer,
    head)``.  Because a head's K rows double as the SOFA token stream and
    earlier rows never change, the engine's :class:`~repro.engine.paged.
    PagedDecodeCache` reuses the quantized ``K_hat`` prefix from the previous
    step - the serving analogue of keeping the predicted-key SRAM resident
    across decode steps.  Outputs are bit-identical to running the same
    requests uncached (``use_cache=False``).

    Note the session computes attention for new positions over the *whole*
    context (the substrate's attention is bidirectional over the submitted
    rows); earlier positions' outputs are never revisited, which is the
    standard causal-decode contract.
    """

    def __init__(
        self,
        model: Transformer,
        config: SofaConfig | None = None,
        engine: SofaEngine | EngineCluster | None = None,
        session_id: str | None = None,
        use_cache: bool = True,
    ):
        self.model = model
        self.config = config or SofaConfig(tile_cols=32, top_k=0.25)
        # The session touches n_layers*n_heads cache entries in a fixed scan
        # order every step; an LRU smaller than that working set would evict
        # each entry right before its next lookup (0% hits), so a
        # session-owned engine sizes its cache to hold the whole session.
        working_set = model.config.n_layers * model.config.n_heads
        self.engine = engine or SofaEngine(
            config=self.config, cache_entries=max(256, 2 * working_set)
        )
        self.session_id = session_id or f"decode-session-{id(self):x}"
        self.use_cache = use_cache
        n_layers = model.config.n_layers
        self._k: list[np.ndarray | None] = [None] * n_layers
        self._v: list[np.ndarray | None] = [None] * n_layers
        self._identity: dict[int, np.ndarray] = {}

    @property
    def seq_len(self) -> int:
        """Tokens decoded so far (0 before the first step/prefill)."""
        first = self._k[0] if self._k else None
        return 0 if first is None else first.shape[1]

    def prefill(self, x: np.ndarray) -> DecodeStepReport:
        """Ingest the prompt: one step covering all prompt positions."""
        return self.step(x)

    def step(self, x_new: np.ndarray) -> DecodeStepReport:
        """Append embeddings ``x_new`` (``(T_new, hidden)`` or ``(hidden,)``)
        and return the final hidden states of the new positions."""
        x_new = np.asarray(x_new, dtype=np.float64)
        if x_new.ndim == 1:
            x_new = x_new[None, :]
        if x_new.ndim != 2 or x_new.shape[1] != self.model.config.hidden:
            raise ValueError(
                f"expected (T_new, {self.model.config.hidden}) embeddings, "
                f"got {x_new.shape}"
            )
        # Engine stats.cache is a live counter object, the cluster's a
        # point-in-time merged snapshot - capture scalars, re-read after.
        before = self.engine.stats.cache
        hits0, misses0 = before.hits, before.misses

        cur = x_new
        for i, block in enumerate(self.model.blocks):
            q, k, v = block.attn.project_qkv(layer_norm(cur))
            if self._k[i] is None:
                k_full, v_full = k, v
            else:
                k_full = np.concatenate([self._k[i], k], axis=1)
                v_full = np.concatenate([self._v[i], v], axis=1)
            self._k[i], self._v[i] = k_full, v_full

            dh = q.shape[2]
            eye = self._identity.setdefault(dh, np.eye(dh))
            futures = self.engine.submit_many(
                [
                    AttentionRequest(
                        tokens=k_full[h],
                        q=q[h],
                        wk=eye,
                        wv=eye,
                        v=v_full[h],
                        config=self.config,
                        cache_key=(self.session_id, i, h) if self.use_cache else None,
                    )
                    for h in range(k_full.shape[0])
                ]
            )
            self.engine.flush()
            heads = np.stack([f.result().output for f in futures])
            cur = cur + block.attn.wo(merge_heads(heads))
            cur = cur + block.ffn(layer_norm(cur))

        after = self.engine.stats.cache
        return DecodeStepReport(
            output=layer_norm(cur),
            seq_len=self.seq_len,
            cache_hits=after.hits - hits0,
            cache_misses=after.misses - misses0,
        )

    def close(self) -> int:
        """End the session: drop its decode-cache entries; returns how many.

        Goes through the engine/cluster ``invalidate_cache`` surface, so a
        cluster-backed session drops its state on every worker.
        """
        return self.engine.invalidate_cache(self.session_id)
