"""Gateway overload bench: graceful shedding + autoscale vs naive queueing.

The gateway's whole argument is behavior *past* capacity, so this bench
drives an open-loop arrival stream (posts fire on a timer, not after the
previous reply - real clients do not politely wait) at a multiple of the
measured single-worker service rate, through three phases:

``unloaded``
    Sequential posts against an idle 1-worker cluster: the baseline
    latency distribution (``p99_unloaded`` anchors the acceptance bar
    below) and the capacity, the best requests/sec over
    ``CAPACITY_WINDOWS`` consecutive closed-loop windows of those posts.
``overload/unprotected``
    Same cluster, but the gateway's queue bound is effectively removed
    (huge ``max_queue``, no deadlines, no autoscaler) and arrivals run at
    ``OVERLOAD_FACTOR``x the measured capacity.  The admission queue
    grows for as long as the drive lasts (the recorded
    ``queue_depth_samples`` show it), and completed-request p99 degrades
    to queue-wait territory - every client is slow, none are refused.
``overload/protected``
    Same arrival stream, but the full protection stack: a token bucket
    sized to the deployment's measured capacity, deadlines sized to the
    unloaded p99, a bounded queue, a dispatch cap, and the cluster
    autoscaler enabled (fed the admission backlog through the gateway's
    queue-depth hook).  Requests the deployment cannot serve inside the
    latency budget are answered promptly (429/503 + Retry-After)
    instead of queued; served-request p99 must stay under
    ``2 x p99_unloaded`` - the SLO the deadline encodes - at a sustained
    fraction of capacity.

Two numbers are gated in CI (``check_bench_regression.py``):

* ``overload_p99_bound_ratio`` = ``2 * p99_unloaded / p99_protected`` -
  an intra-run *ratio* >= 1.0 when the bound holds;
* ``protected_completed_rps`` - served throughput under protection (a
  *rate*: hardware-class dependent, gated with the wide knob).

Client-side costs share the event loop with the server here, so request
bodies are pre-encoded once and cycled - the drive spends its loop time
on arrivals, not on re-serializing identical tensors.

Run as a script to record ``BENCH_gateway.json``:

    PYTHONPATH=src python benchmarks/bench_gateway.py [--quick]

``--quick`` (or ``SOFA_BENCH_QUICK=1``) shrinks the drive window and
warmup for CI smoke runs and records ``BENCH_gateway_quick.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import sys
import time

import pytest

from repro.cluster import AsyncSofaClient, AutoscalerConfig, EngineCluster
from repro.core.config import SofaConfig
from repro.gateway import (
    GatewayClient,
    GatewayConfig,
    SofaGateway,
    TenantPolicy,
)
from repro.utils.rng import make_rng

#: Shapes chosen compute-heavy and payload-light (tall q, small token
#: grid): engine time dominates JSON codec time, so "capacity" means the
#: worker pool, not the HTTP parser.  quick/full differ only in how long
#: the overload drive runs and how many unloaded samples anchor p99.
WORKLOAD = {
    False: dict(s=2048, t=48, h=8, dk=64, n_unloaded=41, drive_s=6.0),
    True: dict(s=2048, t=48, h=8, dk=64, n_unloaded=21, drive_s=2.0),
}
#: Capacity is the best rate over this many consecutive windows of the
#: unloaded posts.  A slow stretch (a busy neighbour process, a collector
#: pause) lowers the windows it lands in, never the best one, so the
#: overload drive's offered rate stays above what the worker serves and
#: the unprotected queue always builds.  A mean over all posts swung
#: 9.7-25 rps between runs on a 2-CPU VM; at the low end the "overload"
#: was no overload and built no backlog.
CAPACITY_WINDOWS = 4
N_UNIQUE_BODIES = 10
CFG = SofaConfig(tile_cols=32, top_k=0.25)

#: Arrival rate as a multiple of measured single-worker capacity.
OVERLOAD_FACTOR = 1.75

#: A tenant policy that never rate-limits: this bench studies the queue
#: and deadline paths, so the bucket must stay out of the way.
UNLIMITED = TenantPolicy(rate=1e9, burst=1e9)


def _encoded_bodies(w: dict, n: int, seed: int = 23, **extra) -> list[bytes]:
    """``n`` pre-encoded request bodies cycling a small unique set."""
    rng = make_rng(seed)
    unique = []
    for i in range(min(n, N_UNIQUE_BODIES)):
        body = {
            "tokens": rng.integers(-100, 100, size=(w["s"], w["h"]))
            .astype(float).tolist(),
            "q": rng.normal(size=(w["t"], w["dk"])).tolist(),
            "wk": rng.normal(size=(w["h"], w["dk"])).tolist(),
            "wv": rng.normal(size=(w["h"], w["dk"])).tolist(),
            "tag": f"bench-{i}",
            **extra,
        }
        unique.append(json.dumps(body).encode())
    return [unique[i % len(unique)] for i in range(n)]


def _quantile(samples: list[float], q: float) -> float:
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


async def _post(port: int, raw: bytes) -> tuple[int, float]:
    """One request on its own connection; returns (status, latency_s)."""
    t0 = time.perf_counter()
    async with GatewayClient("127.0.0.1", port) as http:
        status, _, _resp = await http.request("POST", "/v1/attention", raw)
    return status, time.perf_counter() - t0


async def _drive_open_loop(
    gateway: SofaGateway, bodies: list[bytes], offered_rps: float
) -> tuple[list[tuple[int, float]], list[int]]:
    """Fire posts on a fixed timer; sample queued work while driving.

    The depth samples count every admitted-but-unanswered request -
    admission queue plus what the dispatcher already pushed into the
    backend - since that is the backlog an unprotected gateway lets
    grow without bound.
    """
    backend = gateway.client.backend

    def backlog() -> int:
        return gateway._admission.depth + backend.pending

    interval = 1.0 / offered_rps
    tasks: list[asyncio.Task] = []
    depth_samples: list[int] = []
    start = time.perf_counter()
    for i, raw in enumerate(bodies):
        due = start + i * interval
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(_post(gateway.port, raw)))
        if i % max(1, len(bodies) // 24) == 0:
            depth_samples.append(backlog())
    outcomes = await asyncio.gather(*tasks)
    return list(outcomes), depth_samples


async def _measure(quick: bool) -> dict:
    w = WORKLOAD[quick]

    # ------------------------------------------------------------- unloaded
    cluster = EngineCluster(n_workers=1, config=CFG)
    async with AsyncSofaClient(cluster) as client:
        async with SofaGateway(
            client, config=GatewayConfig(default_tenant=UNLIMITED)
        ) as gateway:
            latencies = []
            async with GatewayClient("127.0.0.1", gateway.port) as http:
                for raw in _encoded_bodies(w, w["n_unloaded"]):
                    t0 = time.perf_counter()
                    status, _, _resp = await http.request(
                        "POST", "/v1/attention", raw
                    )
                    assert status == 200
                    latencies.append(time.perf_counter() - t0)
    # Warmup distorts the first request (imports, allocator); drop it.
    latencies = latencies[1:]
    p99_unloaded = _quantile(latencies, 0.99)
    size = len(latencies) // CAPACITY_WINDOWS
    window_rps = [
        size / sum(latencies[i * size : (i + 1) * size])
        for i in range(CAPACITY_WINDOWS)
    ]
    unloaded = {
        "n": len(latencies),
        "requests_per_sec": len(latencies) / sum(latencies),
        "window_requests_per_sec": window_rps,
        "p50_s": _quantile(latencies, 0.50),
        "p99_s": p99_unloaded,
    }
    capacity = max(window_rps)
    offered = OVERLOAD_FACTOR * capacity
    n_posts = int(offered * w["drive_s"])

    # -------------------------------------------------- overload, unprotected
    # No queue bound, no deadlines, no autoscaler: every arrival queues,
    # and the backlog (depth samples) grows for as long as the drive does.
    cluster = EngineCluster(n_workers=1, config=CFG)
    async with AsyncSofaClient(cluster) as client:
        async with SofaGateway(
            client,
            config=GatewayConfig(
                max_queue=10_000_000, default_tenant=UNLIMITED
            ),
        ) as gateway:
            t0 = time.perf_counter()
            outcomes, depths = await _drive_open_loop(
                gateway, _encoded_bodies(w, n_posts), offered
            )
            elapsed = time.perf_counter() - t0
    done = [lat for status, lat in outcomes if status == 200]
    unprotected = {
        "offered_rps": offered,
        "n_posts": n_posts,
        "completed": len(done),
        "completed_rps": len(done) / elapsed,
        "p50_s": _quantile(done, 0.50),
        "p99_s": _quantile(done, 0.99),
        "queue_depth_samples": depths,
        "peak_queue_depth": max(depths),
        # includes the post-drive drain of everything that queued
        "total_s": elapsed,
    }

    # ---------------------------------------------------- overload, protected
    # Three mechanisms compose, each bounding one latency term.  The
    # token bucket is sized to ~3/4 of measured capacity: a served
    # request then runs on a system with real headroom instead of one
    # pinned at 100% utilization, where service time itself degrades
    # (worker processes timeshare cores with the event loop).  The
    # deadline bounds queue wait for what the bucket admits, and
    # max_inflight=1 bounds dispatch wait to one service time.  The
    # autoscaler sees demand through the admission-backlog hook; on
    # multi-core hosts the extra workers turn refused requests back into
    # served ones, and everywhere the scale event itself is recorded.
    # Half of capacity: steady-state admissions arrive spaced wider than
    # one service time, so a served request rarely queues behind another
    # and the deployment keeps scheduling headroom (on shared cores,
    # service time itself degrades as utilization approaches 1).  The
    # burst of 2 deliberately lets back-to-back pairs through: the
    # second of a pair overruns its deadline waiting and sheds at pop -
    # the deadline converting would-be tail latency into a fast 503.
    admit_rate = 0.5 * capacity
    deadline_ms = 1000.0 * max(0.25 * p99_unloaded, 0.01)
    scaler = AutoscalerConfig(
        min_workers=1,
        max_workers=2 if quick else 3,
        # With max_inflight=1 the cluster's own in-flight count saturates
        # at one: any standing admission backlog at all means demand
        # exceeds what the dispatch cap lets the pool see.  The deadline
        # sheds backlog within ~one service time, so pressure shows up
        # as brief depth spikes - act on the first hot tick (no hold)
        # and let the cooldown do the flap damping.
        queue_high=0.9,
        queue_low=0.2,
        hold_up_s=0.0,
        hold_down_s=30.0,
        cooldown_s=0.25,
    )
    cluster = EngineCluster(
        n_workers=1, config=CFG, supervisor=True, autoscaler=scaler
    )
    async with AsyncSofaClient(cluster) as client:
        async with SofaGateway(
            client,
            config=GatewayConfig(
                max_queue=64,
                default_tenant=TenantPolicy(rate=admit_rate, burst=2.0),
            ),
            max_inflight=1,
        ) as gateway:
            t0 = time.perf_counter()
            outcomes, depths = await _drive_open_loop(
                gateway,
                _encoded_bodies(w, n_posts, deadline_ms=deadline_ms),
                offered,
            )
            elapsed = time.perf_counter() - t0
            stats = cluster.stats
    served = [lat for status, lat in outcomes if status == 200]
    shed = [lat for status, lat in outcomes if status == 503]
    limited = [lat for status, lat in outcomes if status == 429]
    p99_protected = _quantile(served, 0.99)
    protected = {
        "offered_rps": offered,
        "n_posts": n_posts,
        "admit_rate_rps": admit_rate,
        "deadline_ms": deadline_ms,
        "completed": len(served),
        "shed": len(shed),
        "rate_limited": len(limited),
        "completed_rps": len(served) / elapsed,
        "p50_s": _quantile(served, 0.50),
        "p99_s": p99_protected,
        "shed_response_p99_s": _quantile(shed, 0.99) if shed else None,
        "queue_depth_samples": depths,
        "peak_queue_depth": max(depths),
        "scale_ups": stats.n_scale_ups,
        "workers_final": stats.n_workers,
        "total_s": elapsed,
    }

    return {
        "bench": "gateway_overload",
        "quick": quick,
        "workload": {**w, "overload_factor": OVERLOAD_FACTOR},
        "unloaded": unloaded,
        "overload_unprotected": unprotected,
        "overload_protected": protected,
        # The acceptance bar: >= 1.0 when protected p99 holds under
        # 2x the unloaded p99 at an arrival rate where the unprotected
        # queue grows without bound.  Gated as a ratio.
        "overload_p99_bound_ratio": 2.0 * p99_unloaded / p99_protected,
        # Served throughput under protection; gated as a rate.
        "protected_completed_rps": protected["completed_rps"],
    }


def measure_gateway_overload(quick: bool = False) -> dict:
    return asyncio.run(_measure(quick))


@pytest.mark.gateway
def test_gateway_overload_protection_quick():
    """Structural acceptance on the quick drive: the unprotected queue
    visibly builds a backlog, protection sheds instead of queueing, and
    the autoscaler reacts.  Wall-clock ratios are evidence (the BENCH
    artifacts, gated in CI), not test assertions - shared runners jitter
    beyond any honest latency bar."""
    record = measure_gateway_overload(quick=True)
    unprotected = record["overload_unprotected"]
    protected = record["overload_protected"]
    # Every arrival queued - nothing was refused - and the backlog grew
    # well past anything the protected queue would tolerate.
    assert unprotected["completed"] == unprotected["n_posts"]
    assert unprotected["peak_queue_depth"] > 2 * protected["peak_queue_depth"]
    # Protection answered every request - served, refused at the bucket,
    # or shed - and the refusal paths actually engaged.
    answered = (
        protected["completed"] + protected["shed"] + protected["rate_limited"]
    )
    assert answered == protected["n_posts"]
    assert protected["shed"] + protected["rate_limited"] > 0
    assert protected["completed"] > 0
    # The pool grew under pressure (via the admission-backlog hook).
    assert protected["scale_ups"] >= 1


def main() -> None:
    quick = "--quick" in sys.argv[1:] or os.environ.get("SOFA_BENCH_QUICK") == "1"
    record = measure_gateway_overload(quick=quick)
    if not quick and record["overload_p99_bound_ratio"] < 1.0:
        raise SystemExit(
            "protected overload p99 broke the 2x-unloaded bound: ratio "
            f"{record['overload_p99_bound_ratio']:.3f} < 1.0"
        )
    here = pathlib.Path(__file__).resolve().parent
    out = here / ("BENCH_gateway_quick.json" if quick else "BENCH_gateway.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
