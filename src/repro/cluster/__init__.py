"""``repro.cluster``: the sharded multi-process serving tier.

Scaling past one process is the ROADMAP's next rung: even with the
tile-blocked SU-FA stream (:func:`repro.core.sufa.stream_selected`), a single
:class:`~repro.engine.serving.SofaEngine` caps at one core's compute and
one decode-cache budget regardless of batching.  This package shards
the request stream across worker processes - the software analogue of the
paper's parallel hardware lanes (RASS balancing heads across lanes, STAR
tiling across spatial lanes, Occamy partitioning across chiplets):

:class:`~repro.cluster.serving.EngineCluster`
    N engine workers behind one frontend: one routing rule (a cache key
    picks its worker, any other request goes to the least busy one),
    cross-request dedup of bit-identical requests,
    aggregated :class:`~repro.cluster.serving.ClusterStats`, graceful
    worker-failure handling (in-flight requests re-route, never drop),
    and opt-in supervision (heartbeats, auto-respawn/reconnect).
:mod:`repro.cluster.transport`
    The pluggable transports, one framed channel each: ``local``
    (``multiprocessing`` children on socketpairs) and ``socket`` (TCP to
    standalone workers, on this host or others - multi-host sharding).
:class:`~repro.cluster.supervisor.WorkerSupervisor`
    Heartbeat liveness plus bounded-exponential-backoff respawn (local
    workers) / reconnect (remote workers), with in-flight replay.
:class:`~repro.cluster.supervisor.PoolAutoscaler`
    Opt-in autoscaling (``EngineCluster(autoscaler=...)``): the pool
    grows under sustained queue-depth/p99 pressure and drains idle
    workers back down, with hysteresis and min/max bounds.
:class:`~repro.cluster.aio.AsyncSofaClient`
    ``async``/``await`` over the same futures, for asyncio serving loops.
:mod:`repro.cluster.routing`
    The routing rule, :func:`~repro.cluster.routing.route`:
    rendezvous-hashed cache keys and fewest-in-flight placement over a
    dynamic worker-id set.
:mod:`repro.cluster.worker`
    The worker loop (a socketpair child or ``python -m
    repro.cluster.worker --listen HOST:PORT``) and wire protocol.

The engine's parity contract crosses the process boundary intact: every
result is bit-identical - outputs, selections, op counts - to the same
request served by a single sequential engine, regardless of transport,
which worker served it, how it was routed, or whether a worker died
mid-stream (and was respawned).
"""

from repro.cluster.aio import AsyncSofaClient
from repro.cluster.serving import (
    ClusterError,
    ClusterFuture,
    ClusterStats,
    EngineCluster,
    WorkerStats,
    WorkerUnavailableError,
)
from repro.cluster.supervisor import (
    AutoscalerConfig,
    PoolAutoscaler,
    SupervisorConfig,
    WorkerSupervisor,
)
from repro.cluster.transport import (
    TRANSPORTS,
    ClusterTransport,
    LocalTransport,
    SocketTransport,
    make_transport,
)

__all__ = [
    "AsyncSofaClient",
    "AutoscalerConfig",
    "ClusterError",
    "ClusterFuture",
    "ClusterStats",
    "ClusterTransport",
    "EngineCluster",
    "LocalTransport",
    "PoolAutoscaler",
    "SocketTransport",
    "SupervisorConfig",
    "TRANSPORTS",
    "WorkerStats",
    "WorkerSupervisor",
    "WorkerUnavailableError",
    "make_transport",
]
