"""Engine bench: batched serving, continuous streams, caching, clustering.

Three measurements, three artifacts:

* ``BENCH_engine.json`` (PR 1): requests/sec of the fused batched engine vs
  a Python loop of per-head ``SofaAttention`` calls.  Acceptance anchor: on
  an 8-head batch the engine must at least match the loop.  PR 8 added
  per-request latency quantiles (p50/p90/p99) read from the telemetry
  plane's ``sofa_engine_request_latency_seconds`` histogram.
* ``BENCH_engine_continuous.json``: the continuous serving paths - one
  mixed-length stream through the engine (requests/sec, checked bit for
  bit against per-head ``SofaAttention``), and a growing-sequence decode
  loop with the decode-step cache cold vs warm.  Every path must stay
  bit-identical; the cached decode loop must record a real speedup (it
  skips re-quantizing the context prefix).
  The same artifact carries a ``heap`` block: minor page faults and
  system time per warm prefill-shaped call (S=2048, T=128, 2 heads),
  measured in a fresh interpreter so no earlier allocation shapes the
  heap.  An engine process that keeps its freed heap faults ~0 pages per
  call; one that hands it back to the kernel faults thousands.  The block
  also records ``stream_peak_mb``, the tracemalloc peak of one warm
  prefill-shaped ``stream_selected`` call (2 x 128 query rows, 205
  selected keys each, 64-wide keys and values): SU-FA gathers its keys
  and values in cache-sized row blocks, so the peak stays near one block
  set, not a whole-stack gather.
* ``BENCH_cluster.json`` (``--cluster N``): worker-count scaling of the
  sharded :class:`~repro.cluster.EngineCluster` on a decode stream of
  many concurrent sequences under a **fixed per-worker decode-cache
  budget**.  One worker cannot hold the whole working set (its LRU
  thrashes on the round-robin sequence scan: 0% hits), while the sharded
  tier's aggregate cache capacity is the sum of the workers' -
  routing by ``cache_key`` pins each sequence to one worker, whose
  shard then fits.  On a single CPU the recorded scaling is therefore the
  *cache-capacity* win alone (every process shares one core); on
  multi-core hosts the worker processes additionally run their CPU-bound
  engines in parallel, compounding the ratio.  Every worker count must
  stay bit-identical to single-engine serving.

Run as a script to record them:

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        [--quick] [--cluster N]

``--quick`` (or ``SOFA_BENCH_QUICK=1``) shrinks shapes for CI smoke runs;
``--cluster N`` measures worker counts (1, 2, 4) up to ``N``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
import repro.obs as obs
from repro.cluster import EngineCluster
from repro.core.config import SofaConfig
from repro.core.pipeline import SofaAttention
from repro.engine import AttentionRequest, SofaEngine
from repro.utils.rng import make_rng

N_HEADS = 8
SEQ_LEN = 256
N_QUERIES = 16
HIDDEN = 32
HEAD_DIM = 32
CONFIG = SofaConfig(tile_cols=32, top_k=0.15)

#: Continuous-serving workload (full / --quick).
STREAM_SHAPES = {False: (256, 128), True: (96, 64)}  # two S classes
STREAM_REQUESTS = {False: 32, True: 8}
DECODE_CONTEXT = {False: 512, True: 64}
DECODE_STEPS = {False: 16, True: 4}
DECODE_HIDDEN = {False: 128, True: 24}
CONTINUOUS_CONFIG = SofaConfig(tile_cols=64, top_k=0.1)


def _make_requests(seed: int = 21) -> list[AttentionRequest]:
    rng = make_rng(seed)
    return [
        AttentionRequest(
            tokens=rng.integers(-100, 100, size=(SEQ_LEN, HIDDEN)).astype(np.float64),
            q=rng.normal(size=(N_QUERIES, HEAD_DIM)),
            wk=rng.normal(size=(HIDDEN, HEAD_DIM)),
            wv=rng.normal(size=(HIDDEN, HEAD_DIM)),
        )
        for _ in range(N_HEADS)
    ]


def _run_engine(requests: list[AttentionRequest]):
    engine = SofaEngine(CONFIG, max_batch_heads=N_HEADS)
    return engine.run(requests)


def _run_sequential(requests: list[AttentionRequest]):
    return [SofaAttention(r.wk, r.wv, CONFIG)(r.tokens, r.q) for r in requests]


def _requests_per_sec(fn, requests, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(requests)
        best = min(best, time.perf_counter() - t0)
    return len(requests) / best


def _bit_identical(a_results, b_results) -> bool:
    """The parity predicate every path must satisfy: same output bits, same
    selected indices, request by request."""
    return all(
        a.output.tobytes() == b.output.tobytes()
        and np.array_equal(a.selected, b.selected)
        for a, b in zip(a_results, b_results)
    )


def _engine_request_latency() -> dict:
    """Per-request latency quantiles of one engine pass over the workload,
    read from the telemetry plane's latency histogram (submit to resolve,
    queueing included - what a caller actually waits)."""
    obs.reset_telemetry(enabled=True)
    try:
        _run_engine(_make_requests())
        snap = obs.get_telemetry().registry.snapshot()
        hist = snap["histograms"]["sofa_engine_request_latency_seconds"]
    finally:
        obs.reset_telemetry()  # back to the environment's verdict
    return {
        "p50_s": hist["p50"],
        "p90_s": hist["p90"],
        "p99_s": hist["p99"],
        "count": hist["count"],
    }


def measure() -> dict:
    """One full measurement: both paths plus a parity confirmation."""
    requests = _make_requests()
    engine_results = _run_engine(requests)
    sequential_results = _run_sequential(requests)
    exact = _bit_identical(sequential_results, engine_results)
    seq_rps = _requests_per_sec(_run_sequential, requests)
    eng_rps = _requests_per_sec(_run_engine, requests)
    return {
        "bench": "engine_throughput",
        "workload": {
            "n_heads": N_HEADS,
            "seq_len": SEQ_LEN,
            "n_queries": N_QUERIES,
            "hidden": HIDDEN,
            "head_dim": HEAD_DIM,
            "tile_cols": CONFIG.tile_cols,
            "top_k": CONFIG.top_k,
        },
        "sequential_requests_per_sec": seq_rps,
        "engine_requests_per_sec": eng_rps,
        "speedup": eng_rps / seq_rps,
        "engine_request_latency": _engine_request_latency(),
        "bit_identical": exact,
    }


# --------------------------------------------------- continuous serving bench
def _make_stream(quick: bool, seed: int = 31) -> list[AttentionRequest]:
    rng = make_rng(seed)
    shapes = STREAM_SHAPES[quick]
    h, d, t = 32, 32, 8
    return [
        AttentionRequest(
            tokens=rng.integers(-100, 100, size=(shapes[i % 2], h)).astype(np.float64),
            q=rng.normal(size=(t, d)),
            wk=rng.normal(size=(h, d)),
            wv=rng.normal(size=(h, d)),
        )
        for i in range(STREAM_REQUESTS[quick])
    ]


def _stream_through(requests: list[AttentionRequest]):
    with SofaEngine(CONTINUOUS_CONFIG, max_batch_heads=8) as engine:
        # Warm-up pass outside the timed region: builds the per-weight
        # operators, so the stream is measured at steady state rather than
        # on first-call setup cost.
        engine.run(requests)
        t0 = time.perf_counter()
        results = engine.run(requests)
        spent = time.perf_counter() - t0
    return results, len(requests) / spent


def _decode_loop(quick: bool, use_cache: bool, seed: int = 41):
    rng = make_rng(seed)
    h = DECODE_HIDDEN[quick]
    steps = DECODE_STEPS[quick]
    context = rng.integers(-100, 100, size=(DECODE_CONTEXT[quick], h)).astype(
        np.float64
    )
    news = [rng.integers(-100, 100, size=(1, h)).astype(np.float64) for _ in range(steps)]
    queries = [rng.normal(size=(1, h)) for _ in range(steps)]
    wk = rng.normal(size=(h, h))
    wv = rng.normal(size=(h, h))
    engine = SofaEngine(CONTINUOUS_CONFIG)
    tokens = context
    outputs = []
    t0 = time.perf_counter()
    for i in range(steps):
        tokens = np.concatenate([tokens, news[i]])
        future = engine.submit(
            AttentionRequest(
                tokens=tokens,
                q=queries[i],
                wk=wk,
                wv=wv,
                cache_key="decode-seq" if use_cache else None,
            )
        )
        engine.flush()
        outputs.append(future.result())
    return time.perf_counter() - t0, outputs, engine


# ---------------------------------------------------------------- heap bench
#: Warm prefill-shaped calls: the ``prefill_long`` batch shape (S, T, H,
#: Dk and heads per call), after warm-up calls that build the operator.
HEAP_SHAPE = dict(s=2048, t=128, h=64, dk=64, heads=2)
HEAP_WARMUP_CALLS = 3
HEAP_CALLS = 10

_HEAP_PROBE = """
import json, resource, sys, tracemalloc
import numpy as np
from repro import SofaConfig, SofaEngine
from repro.core.sufa import stream_selected
from repro.engine import AttentionRequest

shape, warmup, calls = json.loads(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(0)
tokens = rng.standard_normal((shape["s"], shape["h"]))
heads = [
    (rng.standard_normal((shape["t"], shape["dk"])),
     rng.standard_normal((shape["h"], shape["dk"])),
     rng.standard_normal((shape["h"], shape["dk"])))
    for _ in range(shape["heads"])
]
engine = SofaEngine(SofaConfig(tile_cols=64, top_k=0.1))

def call():
    futures = [engine.submit(AttentionRequest(tokens=tokens, q=q, wk=wk, wv=wv))
               for q, wk, wv in heads]
    engine.flush()
    for future in futures:
        future.result()

for _ in range(warmup):
    call()
before = resource.getrusage(resource.RUSAGE_SELF)
for _ in range(calls):
    call()
after = resource.getrusage(resource.RUSAGE_SELF)

# One warm stream call of the batch's shape: heads * T query rows over the
# heads * S slab rows, each row's top 10% by exact score, descending.
rows, slab = shape["heads"] * shape["t"], shape["heads"] * shape["s"]
q_rows = rng.standard_normal((rows, shape["dk"]))
keys = rng.standard_normal((slab, shape["dk"]))
values = rng.standard_normal((slab, shape["dk"]))
index = np.argsort(-(q_rows @ keys.T), axis=1)[:, : round(0.1 * shape["s"])]
stream_selected(q_rows, keys, values, index, tile_cols=64)
tracemalloc.start()
stream_selected(q_rows, keys, values, index, tile_cols=64)
stream_peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({
    "minor_faults_per_call": (after.ru_minflt - before.ru_minflt) / calls,
    "sys_ms_per_call": (after.ru_stime - before.ru_stime) * 1e3 / calls,
    "stream_peak_mb": stream_peak / 1e6,
}))
"""


def measure_heap() -> dict:
    """Page faults and system time per warm prefill-shaped engine call, and
    the peak traced memory of one warm prefill-shaped stream call, measured
    in a fresh interpreter (``resource`` needs a POSIX host)."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _HEAP_PROBE, json.dumps(HEAP_SHAPE),
         str(HEAP_WARMUP_CALLS), str(HEAP_CALLS)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    return {
        "shape": HEAP_SHAPE,
        "warmup_calls": HEAP_WARMUP_CALLS,
        "calls": HEAP_CALLS,
        **json.loads(out.splitlines()[-1]),
    }


def measure_continuous(quick: bool = False) -> dict:
    """One mixed-length stream through the engine, plus cold vs warm
    decode caching."""
    requests = _make_stream(quick)
    results, rps = _stream_through(requests)
    sequential = [
        SofaAttention(r.wk, r.wv, CONTINUOUS_CONFIG)(r.tokens, r.q) for r in requests
    ]
    stream_exact = _bit_identical(sequential, results)

    cold_s, cold_out, _ = _decode_loop(quick, use_cache=False)
    warm_s, warm_out, engine = _decode_loop(quick, use_cache=True)
    decode_exact = _bit_identical(cold_out, warm_out)
    cache = engine.stats.cache
    return {
        "bench": "engine_continuous",
        "quick": quick,
        "stream": {
            "n_requests": len(requests),
            "seq_lens": sorted(set(STREAM_SHAPES[quick])),
            "sync_requests_per_sec": rps,
            "bit_identical": stream_exact,
        },
        "decode": {
            "context_len": DECODE_CONTEXT[quick],
            "steps": DECODE_STEPS[quick],
            "hidden": DECODE_HIDDEN[quick],
            "uncached_s": cold_s,
            "cached_s": warm_s,
            "cached_speedup": cold_s / warm_s,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_invalidations": cache.invalidations,
            "rows_reused": cache.rows_reused,
            "bit_identical": decode_exact,
        },
        "heap": measure_heap(),
    }


# ------------------------------------------------------------- cluster bench
#: Cluster decode-stream workload (full / --quick): N_SEQ concurrent decode
#: sequences scanned round-robin, each worker capped at CLUSTER_CACHE
#: decode-cache entries (the fixed per-process memory budget that makes
#: aggregate capacity scale with workers).
CLUSTER_N_SEQ = {False: 48, True: 8}
CLUSTER_STEPS = {False: 6, True: 3}
CLUSTER_CONTEXT = {False: 512, True: 48}
CLUSTER_HIDDEN = {False: 192, True: 24}
CLUSTER_DK = {False: 64, True: 16}
CLUSTER_CACHE = {False: 24, True: 5}
CLUSTER_WORKER_COUNTS = (1, 2, 4)
CLUSTER_REPEATS = 3
CLUSTER_CONFIG = SofaConfig(tile_cols=64, top_k=0.05)


def _cluster_workload(quick: bool, seed: int = 61):
    rng = make_rng(seed)
    h, dk = CLUSTER_HIDDEN[quick], CLUSTER_DK[quick]
    wk = rng.normal(size=(h, dk)).astype(np.float32)
    wv = rng.normal(size=(h, dk)).astype(np.float32)
    tokens = [
        rng.integers(-100, 100, size=(CLUSTER_CONTEXT[quick], h)).astype(np.float32)
        for _ in range(CLUSTER_N_SEQ[quick])
    ]
    return wk, wv, tokens


def _cluster_stream(
    frontend, quick: bool, tokens, wk, wv, n_steps: int, seed_base: int
):
    """Drive ``n_steps`` decode rounds over every sequence; returns results.

    ``frontend`` is anything with the engine call surface (a
    ``SofaEngine`` or an ``EngineCluster``) - the same stream drives both,
    which is what makes the parity comparison meaningful.  ``tokens`` is
    mutated (sequences grow), so callers pass per-run copies.
    """
    h, dk = CLUSTER_HIDDEN[quick], CLUSTER_DK[quick]
    results = []
    for step in range(n_steps):
        futures = []
        for i in range(len(tokens)):
            step_rng = make_rng(seed_base + step * len(tokens) + i)
            tokens[i] = np.concatenate(
                [tokens[i], step_rng.integers(-100, 100, size=(1, h)).astype(np.float32)]
            )
            futures.append(
                frontend.submit(
                    AttentionRequest(
                        tokens=tokens[i],
                        q=step_rng.normal(size=(1, dk)),
                        wk=wk,
                        wv=wv,
                        cache_key=f"seq-{i}",
                    )
                )
            )
        frontend.flush()
        results.extend(f.result() for f in futures)
    return results


def measure_cluster(quick: bool = False, max_workers: int = 4) -> dict:
    """Worker-count scaling of the sharded tier on the decode stream.

    Every worker count serves the *same* request stream; outputs must be
    bit-identical to a single engine serving it (the parity predicate of
    every other path in this file).  Timing is best-of-``CLUSTER_REPEATS``
    steady-state passes (operators built, caches in steady state).
    """
    wk, wv, base_tokens = _cluster_workload(quick)
    n_seq, steps = CLUSTER_N_SEQ[quick], CLUSTER_STEPS[quick]
    counts = [w for w in CLUSTER_WORKER_COUNTS if w <= max_workers]

    # Parity reference: one engine, same per-process cache budget.
    ref_engine = SofaEngine(
        CLUSTER_CONFIG, max_batch_heads=16, cache_entries=CLUSTER_CACHE[quick]
    )
    ref = _cluster_stream(
        ref_engine, quick, [t.copy() for t in base_tokens], wk, wv, steps, 10_000
    )

    points = []
    exact = True
    for n_workers in counts:
        with EngineCluster(
            n_workers=n_workers,
            config=CLUSTER_CONFIG,
            cache_entries=CLUSTER_CACHE[quick],
            max_batch_heads=16,
            dedup=False,  # growing sequences never repeat bit-identically
        ) as cluster:
            got = _cluster_stream(
                cluster, quick, [t.copy() for t in base_tokens], wk, wv, steps, 10_000
            )
            exact = exact and _bit_identical(ref, got)
            # Steady-state timing: sequences keep growing across repeats
            # (a handful of appended rows against a long context), so every
            # pass runs the warm cache-affinity regime; best-of damps the
            # scheduler noise of shared hosts.
            tokens = [t.copy() for t in base_tokens]
            _cluster_stream(cluster, quick, tokens, wk, wv, steps, 20_000)  # warm
            hits0 = cluster.stats.cache.hits
            best = float("inf")
            for repeat in range(CLUSTER_REPEATS):
                t0 = time.perf_counter()
                _cluster_stream(
                    cluster, quick, tokens, wk, wv, steps, 30_000 + repeat * 10_000
                )
                best = min(best, time.perf_counter() - t0)
            cache = cluster.stats.cache
            lookups = n_seq * steps * CLUSTER_REPEATS
            points.append(
                {
                    "workers": n_workers,
                    "requests_per_sec": n_seq * steps / best,
                    "steady_hit_rate": (cache.hits - hits0) / lookups,
                    "evictions": cache.evictions,
                }
            )
    ref_engine.shutdown()

    by_workers = {p["workers"]: p["requests_per_sec"] for p in points}
    top = max(counts)
    return {
        "bench": "engine_cluster",
        "quick": quick,
        "mechanism": (
            "fixed per-worker decode-cache budget; cache-key sharding "
            "multiplies aggregate cache capacity (single-CPU hosts measure "
            "this alone; multi-core hosts add process parallelism of the "
            "workers' CPU-bound engines)"
        ),
        "workload": {
            "n_sequences": n_seq,
            "steps_per_pass": steps,
            "context_len": CLUSTER_CONTEXT[quick],
            "hidden": CLUSTER_HIDDEN[quick],
            "head_dim": CLUSTER_DK[quick],
            "cache_entries_per_worker": CLUSTER_CACHE[quick],
        },
        "points": points,
        "scaling_vs_single_worker": {
            str(w): by_workers[w] / by_workers[1] for w in counts
        },
        "speedup_max_workers_vs_1": by_workers[top] / by_workers[1],
        "bit_identical": exact,
    }


def test_engine_throughput(benchmark):
    requests = _make_requests()
    results = benchmark(_run_engine, requests)
    assert len(results) == N_HEADS


def test_engine_at_least_matches_sequential_on_8_heads():
    requests = _make_requests()
    assert _bit_identical(_run_sequential(requests), _run_engine(requests))
    # The wall-clock anchor (engine >= sequential loop) only gates
    # uncontended local runs, at best-of-5 to ride out scheduler noise.
    # Shared CI runners jitter far beyond any honest headroom, so there the
    # recorded measurement (BENCH_engine.json, bench-smoke artifact) is the
    # evidence and bit parity above is the hard assertion.
    if not os.environ.get("CI"):
        seq_rps = _requests_per_sec(_run_sequential, requests, repeats=5)
        eng_rps = _requests_per_sec(_run_engine, requests, repeats=5)
        assert eng_rps >= seq_rps, (
            f"batched path slower than sequential: {eng_rps / seq_rps:.2f}x"
        )


def test_continuous_paths_stay_bit_identical_quick():
    """The engine stream and cached decode must not move a single bit."""
    record = measure_continuous(quick=True)
    assert record["stream"]["bit_identical"]
    assert record["decode"]["bit_identical"]
    # every step after the first extends the cached prefix
    assert record["decode"]["cache_hits"] == DECODE_STEPS[True] - 1
    assert record["decode"]["cache_misses"] == 1


@pytest.mark.cluster
def test_cluster_scaling_stays_bit_identical_quick():
    """Every worker count serves the stream bit-identically to one engine."""
    record = measure_cluster(quick=True, max_workers=2)
    assert record["bit_identical"]
    assert [p["workers"] for p in record["points"]] == [1, 2]
    # the fixed per-worker budget must actually bind on one worker
    # (otherwise the scaling mechanism being measured is absent)
    assert record["points"][0]["steady_hit_rate"] < 0.5
    assert record["points"][1]["steady_hit_rate"] > record["points"][0]["steady_hit_rate"]


def main() -> None:
    args = sys.argv[1:]
    quick = "--quick" in args or os.environ.get("SOFA_BENCH_QUICK") == "1"
    cluster_workers = 0
    if "--cluster" in args:
        at = args.index("--cluster")
        if at + 1 >= len(args) or not args[at + 1].isdigit():
            raise SystemExit("usage: --cluster N  (max worker count, e.g. 4)")
        cluster_workers = int(args[at + 1])
    here = pathlib.Path(__file__).resolve().parent
    if not quick:
        # The PR-1 measurement has no tiny-shape mode; quick runs (CI smoke)
        # skip it and keep the committed BENCH_engine.json untouched.
        record = measure()
        (here / "BENCH_engine.json").write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))
    continuous = measure_continuous(quick=quick)
    if not continuous["decode"]["bit_identical"] or not continuous["stream"]["bit_identical"]:
        raise SystemExit("continuous serving paths diverged from the sequential engine")
    # Quick runs (CI smoke, local sanity) must not clobber the committed
    # full-shape evidence - they record to a _quick sibling instead.
    continuous_out = here / (
        "BENCH_engine_continuous_quick.json" if quick else "BENCH_engine_continuous.json"
    )
    continuous_out.write_text(json.dumps(continuous, indent=2) + "\n")
    print(json.dumps(continuous, indent=2))
    cluster_out = None
    if cluster_workers:
        record = measure_cluster(quick=quick, max_workers=cluster_workers)
        if not record["bit_identical"]:
            raise SystemExit("cluster serving diverged from the single engine")
        cluster_out = here / (
            "BENCH_cluster_quick.json" if quick else "BENCH_cluster.json"
        )
        cluster_out.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))
    if not quick:
        print(f"\nwrote {here / 'BENCH_engine.json'}")
    print(f"wrote {continuous_out}")
    if cluster_out:
        print(f"wrote {cluster_out}")


if __name__ == "__main__":
    main()
