"""SOFA reproduction: compute-memory optimized sparsity acceleration via
cross-stage coordinated tiling (MICRO 2024).

The package is organised as a stack of substrates topped by the paper's
contribution:

``repro.numerics``
    Fixed-point arithmetic, leading-zero counting circuits, softmax references
    and the arithmetic-complexity model used for every operation count.
``repro.model``
    A numpy Transformer substrate: model configurations, layers, a
    FLOPs/bytes profiler and synthetic attention workload generators.
``repro.attention``
    Dense attention, FlashAttention-1/2 simulators with operation counting,
    and the classic whole-row dynamic-sparsity baseline.
``repro.core``
    The SOFA algorithms: DLZS prediction, SADS distributed sorting, SU-FA
    sorted-updating FlashAttention, the cross-stage tiled pipeline and the
    Bayesian-optimisation design-space exploration.
``repro.kernels``
    Execution kernels bit-for-bit equal to the golden models: the fused
    DLZS->SADS predict+select path the batched engine runs.  SU-FA has one
    serving stream, the tile-blocked ``repro.core.sufa.stream_selected``;
    its per-key golden model ``stream_selected_reference`` lives beside it
    in ``repro.core.sufa`` for the tests.
``repro.engine``
    The batched execution layer: a fused multi-head operator bit-identical
    to the per-head pipeline, and a serving frontend with a request queue,
    shape-batching scheduler and per-request futures.
``repro.cluster``
    The sharded serving tier: an ``EngineCluster`` of engine workers
    behind pluggable transports (local processes or socket-framed
    standalone workers across hosts) with one routing rule (a cache key
    picks its worker, any other request goes to the least busy one),
    cross-request dedup, failure re-routing and opt-in supervision
    (heartbeats, auto-respawn/reconnect) and autoscaling (spawn/retire
    workers from queue-depth and latency signals), plus an
    ``AsyncSofaClient`` for asyncio serving loops.
``repro.gateway``
    The HTTP front door: an asyncio JSON server over ``AsyncSofaClient``
    with per-tenant token-bucket rate limits, a bounded priority queue
    with a deadline-only overbook band, deadline-aware shedding
    (429/503 + Retry-After), ``/metrics`` (merged Prometheus view) and
    ``/healthz`` - responses bit-identical to direct Python calls.
    ``docs/architecture.md`` walks one request through the whole stack.
``repro.obs``
    The telemetry plane: a metrics registry (counters/gauges/latency
    histograms, JSON snapshots and Prometheus text), request-lifecycle
    span tracing with Chrome trace-event export stitched across the
    cluster's process line, and a global switch (``SOFA_TELEMETRY=1``)
    that makes every hook a no-op when off - serving stays bit-identical
    either way.
``repro.hw``
    A cycle-approximate model of the SOFA accelerator: engines, SRAM/DRAM,
    RASS scheduling and area/power accounting.
``repro.baselines``
    Device models (A100 GPU, TPU) and the published SOTA accelerator specs.
``repro.experiments``
    One module per paper table/figure, regenerating its rows.
"""

from repro.cluster import AsyncSofaClient, EngineCluster
from repro.core.config import SofaConfig
from repro.core.dlzs import DlzsPredictor
from repro.core.pipeline import SofaAttention, sofa_attention
from repro.core.sads import SadsSorter
from repro.core.sufa import sorted_updating_attention
from repro.engine import AttentionRequest, BatchedSofaAttention, SofaEngine

__version__ = "1.9.0"

__all__ = [
    "SofaConfig",
    "SofaAttention",
    "sofa_attention",
    "DlzsPredictor",
    "SadsSorter",
    "sorted_updating_attention",
    "AsyncSofaClient",
    "BatchedSofaAttention",
    "EngineCluster",
    "SofaEngine",
    "AttentionRequest",
    "__version__",
]
