"""Routing policies: which engine worker serves which request.

The cluster's routing decision is the software twin of RASS's head-to-lane
assignment: the accelerator balances head-level work across parallel
compute lanes, the cluster balances request-level work across engine
worker processes.  Four policies are provided:

``round_robin``
    Cycle over the live workers.  Baseline fairness, no affinity.
``shape_affinity``
    Requests sharing one engine batch key ``(T, H, Dk, Dv, config)`` land
    on the same worker, so they join the same shape group there and
    execute as one fused call (the paper's Fig. 6 grid reuse, preserved
    across the process boundary).  ``S`` is not in the key, as in the
    engine: each head keeps its own ``(S, tile_cols)`` grid inside the
    call, so decode sessions of different lengths share a worker.
``cache_affinity``
    Requests carrying a ``cache_key`` stick to the worker holding their
    decode-step-cache state; keyless requests fall back to shape affinity.
    Decode streams hit their cached ``K_hat`` prefix this way, and the
    aggregate cache capacity of the cluster becomes the *sum* of the
    workers' caches instead of one process's bound.
``least_loaded``
    Greedy least-outstanding-work assignment, reusing the exact
    :class:`~repro.hw.scheduler.rass.LaneLoadBalancer` accounting the
    hardware scheduler model applies to lanes (cost unit: ``S * T``, the
    tile-grid area a request covers).

Affinity policies use rendezvous (highest-random-weight) hashing over the
*live* worker set: when a worker dies, only the keys it owned remap - the
survivors keep their assignments, so a failure does not cold-start every
cache in the cluster.  The same property covers supervision's recovery
path: a reconnected remote worker registers under a **fresh** worker id
(its engine state did not survive the session), and rendezvous hashing
guarantees the new id only takes keys from the dead one plus a fair
share - every key a survivor owned stays put.  Worker ids are therefore
*dynamic*: policies accept any live id set, not a fixed ``range(n)``.
All policies are deterministic (hashes are content digests, not Python's
salted ``hash``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from repro.hw.scheduler.rass import LaneLoadBalancer

#: Names accepted by :func:`make_policy` / ``EngineCluster(routing=...)``.
POLICIES = ("round_robin", "shape_affinity", "cache_affinity", "least_loaded")


@dataclass(frozen=True)
class RequestInfo:
    """The routing-relevant view of one encoded request.

    ``shape_key`` is a canonical byte encoding of the engine batch key
    (requests with equal ``shape_key`` would batch together inside one
    engine); ``cache_key`` the encoded decode-cache key (``None`` when the
    request is uncached); ``cost`` the ``S * T`` work estimate.
    """

    shape_key: bytes
    cache_key: bytes | None
    cost: float

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "RequestInfo":
        """The routing view of a request encoded by
        :func:`~repro.engine.codec.encode_request`.

        ``shape_key`` matches ``SofaEngine``'s batch key: ``S`` is left
        out of it (requests of any length batch together), but stays in
        ``cost``.
        """
        s, h = payload["tokens"][2]
        t, dk = payload["q"][2]
        wv_cols = payload["wv"][2][1]
        has_v = payload["value_cache"] is not None
        dv = payload["value_cache"][2][1] if has_v else wv_cols
        shape_key = repr((t, h, dk, dv, wv_cols, has_v, payload["config"])).encode()
        return cls(
            shape_key=shape_key,
            cache_key=payload["cache_key"],
            cost=float(s) * float(t),
        )


def _rendezvous(key: bytes, live: list[int]) -> int:
    """Highest-random-weight choice of a worker for ``key`` among ``live``."""
    if not live:
        raise ValueError("no live worker to route to")
    best, best_score = live[0], b""
    for worker in live:
        score = hashlib.sha256(b"%d|" % worker + key).digest()
        if score > best_score:
            best, best_score = worker, score
    return best


class RoundRobinPolicy:
    """Cycle over the live ids in ascending order.

    The cursor remembers the last id handed out, so the cycle is stable
    under membership churn (deaths, respawns, fresh ids from reconnects):
    the next pick is always the smallest live id above the cursor,
    wrapping to the smallest overall.
    """

    name = "round_robin"

    def __init__(self, n_workers: int):
        self.n_workers = n_workers
        self._last = -1

    def route(self, info: RequestInfo, live: list[int]) -> int:
        if not live:
            raise ValueError("no live worker to route to")
        ordered = sorted(live)
        for worker in ordered:
            if worker > self._last:
                self._last = worker
                return worker
        self._last = ordered[0]
        return ordered[0]

    def retire(self, worker: int, cost: float) -> None:
        """Round-robin tracks no outstanding load."""


class ShapeAffinityPolicy:
    name = "shape_affinity"

    def __init__(self, n_workers: int):
        self.n_workers = n_workers

    def route(self, info: RequestInfo, live: list[int]) -> int:
        return _rendezvous(info.shape_key, live)

    def retire(self, worker: int, cost: float) -> None:
        """Affinity policies track no outstanding load."""


class CacheAffinityPolicy:
    name = "cache_affinity"

    def __init__(self, n_workers: int):
        self.n_workers = n_workers

    def route(self, info: RequestInfo, live: list[int]) -> int:
        if info.cache_key is not None:
            return _rendezvous(info.cache_key, live)
        return _rendezvous(info.shape_key, live)

    def retire(self, worker: int, cost: float) -> None:
        """Affinity policies track no outstanding load."""


class LeastLoadedPolicy:
    """RASS lane balancing applied to worker processes.

    Outstanding load per worker is tracked in ``S * T`` cost units by the
    shared :class:`LaneLoadBalancer`; the cluster retires a request's cost
    when its result (or error) arrives.
    """

    name = "least_loaded"

    def __init__(self, n_workers: int):
        self.balancer = LaneLoadBalancer(n_lanes=n_workers)

    def route(self, info: RequestInfo, live: list[int]) -> int:
        # Reconnected workers join under fresh ids past the original
        # range; grow the lane accounting to cover them (new lanes start
        # at zero outstanding load, which is exactly true of a fresh
        # worker).
        self.balancer.ensure_lanes(max(live) + 1)
        return self.balancer.pick(info.cost, eligible=live)

    def retire(self, worker: int, cost: float) -> None:
        self.balancer.ensure_lanes(worker + 1)
        self.balancer.retire(worker, cost)


def make_policy(name: str, n_workers: int):
    """Build the named routing policy for an ``n_workers``-wide cluster."""
    table = {
        "round_robin": RoundRobinPolicy,
        "shape_affinity": ShapeAffinityPolicy,
        "cache_affinity": CacheAffinityPolicy,
        "least_loaded": LeastLoadedPolicy,
    }
    if name not in table:
        raise ValueError(f"unknown routing policy {name!r}; expected one of {POLICIES}")
    return table[name](n_workers)
