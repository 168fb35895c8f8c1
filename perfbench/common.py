"""Measurement helpers shared by the benchmark workloads.

Nothing here imports the ``repro`` package: these helpers time, count and
format, so the same code measures any version of the program.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import re
import resource
import statistics
import time
from typing import Callable, Iterable

import numpy as np

#: Metric names: a letter or digit, then at most 63 of ``[A-Za-z0-9_.-]``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A percentile is reported only when this many samples lie beyond it.
SAMPLES_BEYOND = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` if it fits the metric-name grammar, else raise."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def samples_beyond(n: int, percent: int) -> int:
    """Samples strictly above the nearest-rank ``percent``-th percentile of ``n``.

    Integer arithmetic on purpose: ``0.9 * 100`` is not exactly 90 in
    floating point, and the rank must not wobble with it.
    """
    if not 0 < percent < 100:
        raise ValueError("percent must lie in (0, 100)")
    rank = -(-percent * n // 100)  # ceil(percent * n / 100), 1-based
    return n - rank


def percentile(samples: list[float], percent: int) -> float:
    """Nearest-rank percentile; raises unless ``SAMPLES_BEYOND`` samples lie past it."""
    n = len(samples)
    beyond = samples_beyond(n, percent)
    if beyond < SAMPLES_BEYOND:
        raise ValueError(
            f"p{percent} of {n} samples has only {beyond} beyond it "
            f"(need {SAMPLES_BEYOND})"
        )
    return sorted(samples)[n - beyond - 1]


def self_time(total: float, children: Iterable[float]) -> float:
    """A layer's own time: its total minus the time its child calls took.

    Children run inside the parent, so the difference is non-negative up
    to clock resolution; a clearly negative one means the ledger wrapped
    something that is not a child and is an error.
    """
    own = total - sum(children)
    if own < -1e-6 * max(1.0, abs(total)):
        raise ValueError(f"children exceed their parent ({own:.3g} s)")
    return max(own, 0.0)


def min_samples(percent: int = 90) -> int:
    """Smallest sample count that supports the nearest-rank ``percent``-th percentile."""
    n = 1
    while samples_beyond(n, percent) < SAMPLES_BEYOND:
        n += 1
    return n


def calib_probe() -> float:
    """Milliseconds for a fixed pure-Python plus NumPy loop (no repo code).

    Timed beside every run so that host drift can be told from a
    regression; it never rescales or gates a metric.
    """
    data = np.random.default_rng(0).standard_normal((192, 192))
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc + i * i) % 1_000_003
    mat = data
    for _ in range(20):
        mat = np.tanh(mat @ data * 1e-2)
        np.sort(mat, axis=1)
    elapsed = time.perf_counter() - t0
    if acc < 0 or not np.isfinite(mat).all():  # keep the work observable
        raise AssertionError("calibration probe produced garbage")
    return elapsed * 1e3


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def blas_threads() -> dict[str, object]:
    """The BLAS/OpenMP thread settings this process runs with.

    The environment variables are pinned before NumPy loads; the OpenBLAS
    pool size is read back from the loaded library where it can be found.
    """
    info: dict[str, object] = {
        var: os.environ.get(var)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["openblas_threads"] = int(fn())
                return info
    info["openblas_threads"] = None
    return info


def median_setup(build: Callable[[], object], teardown: Callable[[object], None],
                 repeats: int) -> tuple[float, object]:
    """Build ``repeats`` times; returns (median seconds, the last stack).

    Every stack but the last is torn down; the last one serves the run.
    """
    times: list[float] = []
    stack = None
    for _ in range(repeats):
        if stack is not None:
            teardown(stack)
        t0 = time.perf_counter()
        stack = build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), stack


def error_frac(failed: int, attempted: int) -> float:
    """Rule-of-succession failure estimate ``(failed + 1) / (attempted + 2)``.

    Stays above zero when nothing failed (a gated metric must never read
    0), and falls towards the raw ``failed / attempted`` as runs grow; the
    raw counts are reported beside it.
    """
    return (failed + 1) / (attempted + 2)


def metric(value: float, unit: str) -> dict[str, object]:
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value!r}")
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, dict[str, object]]) -> str:
    for name in metrics:
        check_metric_name(name)
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })


#: End-to-end metrics, reported on every workload with ``--trace 0``.
END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "error_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics, reported on every workload with ``--trace 1``; a
#: layer the workload does not reach reads 0.  ``_ms``/``_us`` are means
#: per call of the wrapped function.
PER_LAYER = {
    "stage.project_ms": "ms",
    "stage.predict_ms": "ms",
    "stage.select_ms": "ms",
    "stage.predict_select_ms": "ms",
    "stage.stream_ms": "ms",
    "operator.call_ms": "ms",
    "operator.bookkeeping_ms": "ms",
    "stage.predict_gops": "Gop/s",
    "stage.select_gops": "Gop/s",
    "stage.formal_gops": "Gop/s",
    "kernel.ops_per_head": "count",
    "kernel.dram_mb_per_head": "MB",
    "engine.submit_us": "us",
    "engine.queue_wait_ms": "ms",
    "engine.execute_ms": "ms",
    "engine.batch_heads": "count",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.hit_rate": "fraction",
    "cache.rows_reused_frac": "fraction",
    "cache.resident_mb": "MB",
    "cache.shared_blocks": "count",
    "gateway.self_ms": "ms",
    "gateway.decode_ms": "ms",
    "gateway.encode_ms": "ms",
    "gateway.body_kb": "kB",
    "gateway.admission_rejects": "count",
    "cluster.rpc_ms": "ms",
    "cluster.submit_ms": "ms",
    "cluster.tax_ms": "ms",
    "codec.encode_ms": "ms",
    "codec.decode_ms": "ms",
    "aio.polls_per_request": "count",
    "host.calib_ms": "ms",
    "bench.trace_overhead": "ratio",
}
