"""Routing: which engine worker serves which request.

The cluster's routing decision is the software twin of RASS's head-to-lane
assignment: the accelerator balances head-level work across parallel
compute lanes, the cluster balances request-level work across engine
worker processes.  One rule, :func:`route`, covers every request:

* A request carrying a ``cache_key`` goes to the worker its key hashes to,
  so a decode stream keeps hitting the worker holding its cached
  ``K_hat`` prefix, and the cluster's aggregate cache capacity is the
  *sum* of the workers' caches instead of one process's bound.
* Any other request goes to the live worker with the fewest requests in
  flight, ties to the lowest id - so a burst alternates over the workers
  and a worker the autoscaler adds takes traffic at once.

Keys use rendezvous (highest-random-weight) hashing over the *live* worker
set: when a worker dies, only the keys it owned remap - the survivors keep
their assignments, so a failure does not cold-start every cache in the
cluster.  The same property covers supervision's recovery path: a
reconnected remote worker registers under a **fresh** worker id (its
engine state did not survive the session), and rendezvous hashing
guarantees the new id only takes keys from the dead one plus a fair share
- every key a survivor owned stays put.  Worker ids are therefore
*dynamic*: :func:`route` accepts any live id set, not a fixed
``range(n)``.  The hash is a content digest, not Python's salted ``hash``,
so routing is deterministic across processes and runs.
"""

from __future__ import annotations

import hashlib
from typing import Mapping


def route(
    cache_key: bytes | None, live: list[int], in_flight: Mapping[int, int]
) -> int:
    """The worker id among ``live`` that serves one request.

    ``cache_key`` is the request's encoded decode-cache key (``None`` for
    an uncached request); ``in_flight`` maps each live worker id to the
    number of requests dispatched to it and not yet resolved.
    """
    if not live:
        raise ValueError("no live worker to route to")
    if cache_key is None:
        return min(live, key=lambda worker: (in_flight[worker], worker))
    best, best_score = live[0], b""
    for worker in live:
        score = hashlib.sha256(b"%d|" % worker + cache_key).digest()
        if score > best_score:
            best, best_score = worker, score
    return best
