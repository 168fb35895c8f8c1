"""Serving demo: batching, decode caching, and the cluster tier.

Simulates production traffic against :class:`~repro.engine.serving.SofaEngine`
in seven acts:

1. **Continuous batching** - requests arrive in waves *between* scheduling
   rounds; new arrivals join not-yet-executed shape groups, under-full
   groups age out after ``max_wait_batches`` rounds, and a deadline forces
   a lonely shape through without batch-mates (the starvation bound);
   every result is bit-identical to the per-head operator.
2. **Decode-step cache** - a growing sequence re-submitted step by step
   with a ``cache_key`` reuses its quantized ``K_hat`` prefix instead of
   re-running DLZS phase 1.1 over the whole context.
3. **Cluster tier** - an asyncio loop drives a 2-worker
   :class:`~repro.cluster.EngineCluster` through the
   :class:`~repro.cluster.AsyncSofaClient`: sharded worker processes,
   cross-request dedup, a mid-stream worker crash survived by re-routing -
   and every awaited result still bit-identical to the sequential operator.
4. **Socket transport + supervision** - the same cluster over
   ``transport="socket"``: standalone worker processes behind TCP
   listeners (the multi-host topology; here spawned on localhost),
   length-prefixed checksummed frames carrying the same codec payloads,
   and a :class:`~repro.cluster.SupervisorConfig`-driven supervisor that
   heartbeats the workers, survives a hard kill mid-stream, auto-respawns
   the dead worker, and serves post-respawn traffic - bit-identical
   throughout.
5. **Paged cache, shared prefixes** - many sessions decoding off one
   system prompt through the engine's block-pool decode store
   (:class:`~repro.engine.paged.PagedDecodeCache`): the prompt's blocks
   are pooled once and refcounted across sessions, divergence is
   copy-on-write, a byte budget is held by spilling cold blocks to disk
   instead of dropping entries - and every output stays bit-identical to
   the uncached computation.
6. **Telemetry plane** - the same 2-worker socket cluster with
   ``SOFA_TELEMETRY=1``: every request produces a stitched trace
   (frontend ``cluster.request``/``cluster.rpc`` spans and the worker's
   ``worker.request``/``engine.batch``/``stage.*`` spans share one trace
   id across the process line), exported as Chrome trace-event JSON you
   can open in Perfetto, plus a merged frontend+worker metrics snapshot
   with per-request latency quantiles - all without moving a single
   output bit.
7. **HTTP gateway** - the front door over a 2-worker socket cluster:
   two tenants (a high-priority ``pro`` plan and a tightly rate-limited
   ``free`` plan) flood :class:`~repro.gateway.SofaGateway` with more
   concurrent requests than the pool can absorb.  Admission control
   answers the excess *fast* (429 for the free tenant's exhausted token
   bucket, 503 + Retry-After when the bounded queue fills, deadline
   sheds at dispatch), the admission backlog feeds the cluster's
   autoscaler through :meth:`~repro.cluster.EngineCluster.
   set_queue_depth_hook` so the pool grows mid-burst, every completed
   response is bit-identical to the sequential operator after its JSON
   round trip, and one ``GET /metrics`` scrape reads the whole story
   back in Prometheus text.

Run:  python examples/serving_engine.py
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import tempfile
import time

import numpy as np

import repro.obs as obs
from repro import (
    AsyncSofaClient,
    AttentionRequest,
    EngineCluster,
    SofaAttention,
    SofaConfig,
    SofaEngine,
)
from repro.cluster import AutoscalerConfig, SupervisorConfig
from repro.gateway import GatewayClient, GatewayConfig, SofaGateway, TenantPolicy
from repro.utils.rng import make_rng


def make_wave(rng: np.random.Generator, n_requests: int, tag: str) -> list[AttentionRequest]:
    """A mixed request wave: two sequence lengths, per-head weights.

    Both lengths share batches: each head keeps its own tiling grid.
    """
    requests = []
    for i in range(n_requests):
        s = 256 if i % 3 else 128  # two lengths interleaved
        h, d, t = 32, 32, 8
        requests.append(
            AttentionRequest(
                tokens=rng.integers(-100, 100, size=(s, h)).astype(np.float64),
                q=rng.normal(size=(t, d)),
                wk=rng.normal(size=(h, d)),
                wv=rng.normal(size=(h, d)),
                tag=f"{tag}-{i}",
            )
        )
    return requests


def act_continuous(rng: np.random.Generator) -> None:
    print("\n[1] continuous batching: waves admitted between rounds")
    print("-" * 60)
    engine = SofaEngine(
        SofaConfig(tile_cols=32, top_k=0.15), max_batch_heads=8, max_wait_batches=2
    )
    requests, futures = [], []
    for wave in range(3):
        wave_reqs = make_wave(rng, 6, f"wave{wave}")
        requests += wave_reqs
        futures += engine.submit_many(wave_reqs)
        records = engine.step()
        print(
            f"  wave {wave}: +{len(wave_reqs)} requests -> "
            f"{len(records)} batch(es) ready, {engine.pending} pending"
        )
    # a lonely shape (its own T) with a deadline in the past: executes
    # next round alone
    lonely = AttentionRequest(
        tokens=rng.integers(-100, 100, size=(192, 32)).astype(np.float64),
        q=rng.normal(size=(4, 32)),
        wk=rng.normal(size=(32, 32)),
        wv=rng.normal(size=(32, 32)),
        deadline=time.monotonic() - 1.0,
    )
    requests.append(lonely)
    futures.append(engine.submit(lonely))
    records = engine.run_until_drained()
    print(f"  drained: {len(records)} more batch(es), {engine.pending} pending")
    for rec in engine.stats.batches:
        print(
            f"    - {rec.n_heads:2d} heads (T={rec.n_queries}, longest S={rec.seq_len}, "
            f"Bc={rec.tile_cols}) after {rec.waited_rounds} round(s) waited"
        )
    assert all(f.done() for f in futures)
    print(f"  mean heads per batch    : {engine.stats.mean_batch_heads:.1f}")
    exact = all(
        f.result().output.tobytes()
        == SofaAttention(r.wk, r.wv, engine.config)(r.tokens, r.q).output.tobytes()
        for r, f in zip(requests, futures)
    )
    print(f"  bit-identical vs seq    : {exact}")


def act_decode_cache(rng: np.random.Generator) -> None:
    print("\n[2] decode-step cache: growing sequence, K_hat prefix reuse")
    print("-" * 60)
    config = SofaConfig(tile_cols=32, top_k=0.25)
    h, d, t = 48, 48, 1
    wk = rng.normal(size=(h, d))
    wv = rng.normal(size=(h, d))
    context = rng.integers(-100, 100, size=(256, h)).astype(np.float64)

    def decode_loop(use_cache: bool) -> tuple[float, SofaEngine]:
        engine = SofaEngine(config, max_batch_heads=4)
        tokens = context
        t0 = time.perf_counter()
        for step in range(24):
            new = rng_steps[step]
            tokens = np.concatenate([tokens, new])
            fut = engine.submit(
                AttentionRequest(
                    tokens=tokens,
                    q=rng_queries[step],
                    wk=wk,
                    wv=wv,
                    cache_key="seq-0" if use_cache else None,
                )
            )
            engine.flush()
            fut.result()
        return time.perf_counter() - t0, engine

    rng_steps = [rng.integers(-100, 100, size=(1, h)).astype(np.float64) for _ in range(24)]
    rng_queries = [rng.normal(size=(t, d)) for _ in range(24)]
    cold_s, _ = decode_loop(use_cache=False)
    warm_s, engine = decode_loop(use_cache=True)
    cache = engine.stats.cache
    print(f"  decode steps            : 24 (context 256 -> {256 + 24})")
    print(f"  uncached loop           : {cold_s * 1e3:8.1f} ms")
    print(f"  cached loop             : {warm_s * 1e3:8.1f} ms "
          f"({cold_s / warm_s:.2f}x)")
    print(f"  cache hits/misses       : {cache.hits}/{cache.misses} "
          f"(invalidations {cache.invalidations})")
    print(f"  prefix rows reused      : {cache.rows_reused} "
          f"(appended {cache.rows_appended})")


def act_cluster(rng: np.random.Generator) -> None:
    print("\n[3] cluster tier: async frontend over 2 sharded worker processes")
    print("-" * 60)
    config = SofaConfig(tile_cols=32, top_k=0.15)
    requests = make_wave(rng, 12, "async")
    # one bit-identical duplicate rides along: dedup shares its execution
    requests.insert(
        1,
        AttentionRequest(
            tokens=requests[0].tokens, q=requests[0].q,
            wk=requests[0].wk, wv=requests[0].wv, tag="duplicate",
        ),
    )
    sequential = [SofaAttention(r.wk, r.wv, config)(r.tokens, r.q) for r in requests]

    async def serve() -> None:
        async with AsyncSofaClient(
            EngineCluster(n_workers=2, config=config)
        ) as client:
            cluster = client.backend
            # a burst of concurrent coroutines, one per request
            results = await client.map(requests[:7])
            # a worker dies with work in flight: stall it, queue the crash
            # behind the stall, keep submitting - nothing is dropped
            cluster.stall_worker(0, 0.3)
            cluster.crash_worker(0, hard=False, wait=False)
            results += await client.map(requests[7:])
            stats = cluster.stats
            exact = all(
                a.output.tobytes() == b.output.tobytes()
                and np.array_equal(a.selected, b.selected)
                for a, b in zip(sequential, results)
            )
            print(f"  requests awaited        : {len(results)} "
                  f"(deduped {stats.n_deduped})")
            print(f"  bit-identical vs seq    : {exact}")
            print(f"  worker failures         : {stats.n_worker_failures} "
                  f"(re-routed {stats.n_rerouted}, errors {stats.n_errors})")
            print(f"  served per worker       : "
                  f"{[w.n_requests for w in stats.workers]} "
                  f"(alive {[w.alive for w in stats.workers]})")

    asyncio.run(serve())


def act_socket_supervised(rng: np.random.Generator) -> None:
    print("\n[4] socket transport: supervised standalone workers, kill + respawn")
    print("-" * 60)
    config = SofaConfig(tile_cols=32, top_k=0.15)
    requests = make_wave(rng, 10, "socket")
    sequential = [SofaAttention(r.wk, r.wv, config)(r.tokens, r.q) for r in requests]

    supervisor = SupervisorConfig(
        heartbeat_interval_s=0.05,  # demo pace; production defaults are 1s/10s
        heartbeat_timeout_s=5.0,
        backoff_initial_s=0.02,
    )
    with EngineCluster(
        n_workers=2,
        config=config,
        transport="socket",  # workers are standalone TCP-framed processes
        supervisor=supervisor,
    ) as cluster:
        first = cluster.run(requests[:5])
        cluster.crash_worker(0, hard=True)  # SIGKILL the worker process
        second = cluster.run(requests[5:])  # survivor absorbs the stream
        deadline = time.monotonic() + 20.0
        while cluster.stats.n_respawns < 1 and time.monotonic() < deadline:
            cluster.poll(0.05)  # supervision respawns the dead slot
        third = cluster.run(requests)  # post-respawn traffic on both workers
        stats = cluster.stats
        exact = all(
            a.output.tobytes() == b.output.tobytes()
            and np.array_equal(a.selected, b.selected)
            for a, b in zip(sequential + sequential, first + second + third)
        )
        print(f"  transport               : {stats.transport} "
              f"(length-prefixed frames, crc32-checked)")
        print(f"  requests served         : {stats.n_completed} "
              f"(errors {stats.n_errors})")
        print(f"  worker failures         : {stats.n_worker_failures} "
              f"(respawns {stats.n_respawns}, "
              f"heartbeat timeouts {stats.n_heartbeat_timeouts})")
        print(f"  workers live            : {stats.live_workers}/2 "
              f"after the kill-and-respawn drill")
        print(f"  bit-identical vs seq    : {exact}")


def act_paged_cache(rng: np.random.Generator) -> None:
    print("\n[5] paged cache: sessions sharing a system prompt, spill under budget")
    print("-" * 60)
    config = SofaConfig(tile_cols=32, top_k=0.25)
    h, d, n_sessions, steps = 48, 48, 6, 4
    wk = rng.normal(size=(h, d))
    wv = rng.normal(size=(h, d))
    prompt = rng.integers(-100, 100, size=(256, h)).astype(np.float64)
    prompt[2, 7] = 120.0  # the loudest token lives in the shared prompt, so
    # every session quantizes with one scale: their prefix state is
    # bit-identical and the paged store's content hashing pools it.

    uncached = SofaEngine(config, max_batch_heads=4)
    paged = SofaEngine(
        config,
        max_batch_heads=4,
        cache_block_tokens=32,
        # One monolithic session's worth: only sharing + spill can hold all 6.
        cache_bytes=prompt.shape[0] * (h * 16 + d * 8),
    )
    sessions = [prompt.copy() for _ in range(n_sessions)]
    exact = True
    for step in range(steps):
        for i in range(n_sessions):
            sessions[i] = np.concatenate(
                [sessions[i], rng.integers(-80, 80, size=(1, h)).astype(np.float64)]
            )
            q = rng.normal(size=(1, d))
            base = dict(tokens=sessions[i], q=q, wk=wk, wv=wv)
            got = paged.run([AttentionRequest(**base, cache_key=f"chat-{i}")])[0]
            ref = uncached.run([AttentionRequest(**base)])[0]
            exact &= got.output.tobytes() == ref.output.tobytes()
    cache = paged.cache.stats
    budget = paged.cache.max_bytes
    print(f"  sessions x decode steps : {n_sessions} x {steps} "
          f"(shared prompt {prompt.shape[0]} tokens)")
    print(f"  bit-identical vs uncached: {exact}")
    print(f"  cache hits/misses       : {cache.hits}/{cache.misses} "
          f"(prefix rows reused {cache.rows_reused})")
    print(f"  block pool              : {cache.resident_blocks} resident "
          f"({cache.shared_blocks} shared across sessions, "
          f"{cache.spilled_blocks} spilled)")
    print(f"  RAM budget held         : {cache.resident_bytes} <= {budget} bytes "
          f"(spill loads {cache.spill_loads}, evictions {cache.evictions})")
    paged.shutdown()
    uncached.shutdown()


def act_telemetry(rng: np.random.Generator) -> None:
    print("\n[6] telemetry plane: stitched traces + metrics from a 2-worker cluster")
    print("-" * 60)
    config = SofaConfig(tile_cols=32, top_k=0.15)
    requests = make_wave(rng, 6, "traced")
    sequential = [SofaAttention(r.wk, r.wv, config)(r.tokens, r.q) for r in requests]

    # The env var (not just the in-process switch) so the spawned worker
    # processes inherit the verdict and ship their spans/registries home
    # on the stats channel.
    os.environ[obs.ENV_VAR] = "1"
    obs.reset_telemetry()
    try:
        with EngineCluster(
            n_workers=2, config=config, transport="socket"
        ) as cluster:
            results = cluster.run(requests)
            stats = cluster.stats
            telemetry = obs.get_telemetry()
            spans = telemetry.tracer.spans()
            trace = telemetry.tracer.chrome_trace()
            worker_snaps = [w.telemetry for w in stats.workers if w.telemetry]
            merged = obs.merge_snapshots(
                telemetry.registry.snapshot(), *worker_snaps
            )
    finally:
        del os.environ[obs.ENV_VAR]
        obs.reset_telemetry()

    exact = all(
        a.output.tobytes() == b.output.tobytes()
        and np.array_equal(a.selected, b.selected)
        for a, b in zip(sequential, results)
    )
    roots = [s for s in spans if s["name"] == "cluster.request"]
    stitched = sum(
        1
        for root in roots
        if any(
            s["name"] == "worker.request" and s["trace_id"] == root["trace_id"]
            for s in spans
        )
    )
    out_dir = pathlib.Path(tempfile.mkdtemp(prefix="sofa-telemetry-"))
    (out_dir / "trace.json").write_text(json.dumps(trace) + "\n")
    (out_dir / "metrics.json").write_text(json.dumps(merged, indent=2) + "\n")
    latency = merged["histograms"]["sofa_engine_request_latency_seconds"]
    print(f"  bit-identical vs seq    : {exact} (telemetry perturbs nothing)")
    print(f"  spans collected         : {len(spans)} across "
          f"{len({s['pid'] for s in spans})} processes "
          f"({len(roots)} requests, {stitched} stitched to a worker span)")
    print(f"  request latency         : p50 {latency['p50'] * 1e3:.1f} ms / "
          f"p99 {latency['p99'] * 1e3:.1f} ms "
          f"(n={latency['count']}, from the merged worker registries)")
    print(f"  frames over the wire    : "
          f"{merged['counters'].get('sofa_transport_frames_sent_total', 0):.0f} sent / "
          f"{merged['counters'].get('sofa_transport_frames_received_total', 0):.0f} received")
    print(f"  chrome trace (Perfetto) : {out_dir / 'trace.json'}")
    print(f"  metrics snapshot        : {out_dir / 'metrics.json'}")


def act_gateway(rng: np.random.Generator) -> None:
    print("\n[7] HTTP gateway: mixed-tenant overload, shedding + autoscale")
    print("-" * 60)
    config = SofaConfig(tile_cols=32, top_k=0.15)
    requests = make_wave(rng, 24, "http")
    sequential = [SofaAttention(r.wk, r.wv, config)(r.tokens, r.q) for r in requests]

    def body(i: int, tenant: str, deadline_ms: float) -> dict:
        r = requests[i]
        return {
            "tokens": r.tokens.tolist(), "q": r.q.tolist(),
            "wk": r.wk.tolist(), "wv": r.wv.tolist(),
            "tenant": tenant, "deadline_ms": deadline_ms,
        }

    gw_config = GatewayConfig(
        max_queue=6,          # small on purpose: the flood must hit the bound
        overbook_factor=2.0,  # ...but deadline-carrying requests may overbook
        tenants={
            "pro": TenantPolicy(rate=500.0, burst=50.0, priority=0),
            "free": TenantPolicy(rate=2.0, burst=2.0, priority=2),
        },
    )
    # Demo-pace autoscaler: act on the first hot observation (hold_up_s=0)
    # so one burst is enough to watch the pool grow; production holds are
    # seconds, not zero.
    scaler = AutoscalerConfig(
        min_workers=2, max_workers=3, queue_high=1.0, queue_low=0.1,
        hold_up_s=0.0, hold_down_s=60.0, cooldown_s=0.0,
    )

    async def serve() -> None:
        cluster = EngineCluster(
            n_workers=2, config=config, transport="socket",
            supervisor=True, autoscaler=scaler,
        )
        async with AsyncSofaClient(cluster) as client:
            async with SofaGateway(
                client, gw_config, max_inflight=2
            ) as gateway:

                async def post(i: int, tenant: str, deadline_ms: float):
                    # One connection per in-flight request: the keep-alive
                    # client is deliberately not a pipelining one.
                    async with GatewayClient("127.0.0.1", gateway.port) as c:
                        return i, await c.attention(body(i, tenant, deadline_ms))

                # The flood: every request at once, tenants interleaved,
                # every one sheddable (a deadline makes overbooking legal).
                outcomes = await asyncio.gather(*[
                    post(i, "free" if i % 3 == 2 else "pro", 10_000.0)
                    for i in range(len(requests))
                ])

                by_status: dict[int, int] = {}
                exact = True
                for i, (status, _headers, reply) in outcomes:
                    by_status[status] = by_status.get(status, 0) + 1
                    if status == 200:
                        got = np.asarray(reply["output"], dtype=np.float64)
                        exact &= got.tobytes() == sequential[i].output.tobytes()
                stats = cluster.stats
                async with GatewayClient("127.0.0.1", gateway.port) as c:
                    scrape = await c.metrics()
                    health_status, health = await c.healthz()

                print(f"  concurrent flood        : {len(requests)} requests, "
                      f"2 tenants, queue bound {gw_config.max_queue} "
                      f"(overbook x{gw_config.overbook_factor})")
                print(f"  responses by status     : "
                      + ", ".join(f"{n}x {s}" for s, n in sorted(by_status.items())))
                print(f"  completed bit-identical : {exact} "
                      f"(float64 survives the JSON round trip)")
                print(f"  autoscale               : {stats.n_scale_ups} scale-up(s), "
                      f"pool now {len(stats.workers)} worker slot(s) "
                      f"[{health_status} /healthz, "
                      f"{len(health['live_workers'])} live]")
                wanted = {
                    "sofa_gateway_requests_total",
                    "sofa_gateway_completed_total",
                    "sofa_gateway_rate_limited_total",
                    "sofa_gateway_shed_queue_total",
                    "sofa_gateway_shed_deadline_total",
                    "sofa_gateway_request_latency_seconds_count",
                }
                print("  /metrics scrape (one Prometheus text page, merged "
                      "gateway + worker registries):")
                for line in scrape.splitlines():
                    if line.split(" ")[0] in wanted:
                        print(f"    {line}")
        cluster.shutdown()

    asyncio.run(serve())


def main() -> None:
    rng = make_rng(11)
    print("SOFA serving engine demo")
    print("=" * 60)
    act_continuous(rng)
    act_decode_cache(rng)
    act_cluster(rng)
    act_socket_supervised(rng)
    act_paged_cache(rng)
    act_telemetry(rng)
    act_gateway(rng)


if __name__ == "__main__":
    main()
