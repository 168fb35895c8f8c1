"""``repro.engine``: batched multi-head execution and serving for SOFA.

The paper's pipeline is defined per attention head; production traffic is a
stream of many heads from many requests arriving over time.  This package
scales the functional model along that axis:

:class:`~repro.engine.batched.BatchedSofaAttention`
    Fused DLZS -> SADS -> SU-FA over a ``(batch * heads)`` stack with no
    per-head Python loop in any compute stage, bit-for-bit equal to the
    sequential :class:`~repro.core.pipeline.SofaAttention` per head.
:class:`~repro.engine.serving.SofaEngine`
    A request queue with a continuously-batching, starvation-free scheduler
    (``max_wait_batches``/deadline admission) and per-request futures -
    the software analogue of the accelerator's head scheduler.
:class:`~repro.engine.paged.PagedDecodeCache`
    Keyed reuse of quantized ``K_hat``/DLZS prediction state across decode
    steps of a growing sequence, with explicit invalidation and exact
    hit/miss accounting.  Entries are decomposed into a refcounted
    content-addressed block pool with cross-sequence prefix sharing, a
    hard RAM budget enforced by disk spill, and restart survival through
    ``persist()``.
:mod:`repro.engine.codec`
    The explicit wire codec (requests/results as plain built-ins,
    bit-exact tensor round-trips) that carries work to ``repro.cluster``
    worker processes.
"""

from repro.engine.batched import BatchedSofaAttention, BatchedSofaResult
from repro.engine.cache import (
    CacheStats,
    DecodeCacheEntry,
    DecodeCacheView,
    prefix_matches,
)
from repro.engine.codec import (
    decode_request,
    decode_result,
    encode_request,
    encode_result,
    request_fingerprint,
)
from repro.engine.paged import PagedDecodeCache
from repro.engine.serving import (
    AttentionFuture,
    AttentionRequest,
    BatchRecord,
    EngineStats,
    SofaEngine,
    validate_request,
)

__all__ = [
    "BatchedSofaAttention",
    "BatchedSofaResult",
    "AttentionFuture",
    "AttentionRequest",
    "BatchRecord",
    "CacheStats",
    "DecodeCacheEntry",
    "DecodeCacheView",
    "EngineStats",
    "PagedDecodeCache",
    "SofaEngine",
    "decode_request",
    "decode_result",
    "encode_request",
    "encode_result",
    "prefix_matches",
    "request_fingerprint",
    "validate_request",
]
