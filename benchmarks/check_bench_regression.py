"""Bench regression gate: fresh quick-bench JSON vs committed baselines.

CI's bench-smoke job re-records the ``*_quick`` benchmark artifacts on
every push; recording alone only proves the benches *run*.  This script
makes them a **regression gate**: it compares the freshly produced
``BENCH_*_quick.json`` files against the committed baselines (snapshotted
before the benches overwrite them) and fails when a tracked throughput or
speedup metric dropped by more than the tolerance.

Tracked metrics (higher is better for all but the heap ceilings):

====================================  =======================================
file                                  metric
====================================  =======================================
``BENCH_engine_continuous_quick``     ``stream.sync_requests_per_sec`` - the
                                      continuous-batching engine's serving
                                      rate on the mixed-shape stream.
``BENCH_cluster_quick``               best ``requests_per_sec`` across the
                                      recorded worker counts - the sharded
                                      tier's decode-stream rate.
``BENCH_sufa_quick``                  worst ``blocked_vs_seed_loop`` across
                                      the kernel grid - the tile-blocked
                                      SU-FA kernel's speedup over the seed
                                      per-key loop (a *ratio*, so it is
                                      hardware-class independent).
``BENCH_sufa_quick``                  ``engine.blocked_requests_per_sec`` -
                                      end-to-end engine rate on the blocked
                                      kernel.
``BENCH_sufa_quick``                  worst ``fused_vs_unfused`` across the
                                      fused predict+select grid - the fused
                                      kernel's speedup over the unfused
                                      golden stages (intra-run *ratio*).
``BENCH_sufa_quick``                  ``fused_engine.fused_requests_per_sec``
                                      - end-to-end engine rate (the engine
                                      always runs the fused predict+select
                                      kernel) on the long-selection stream.
``BENCH_cache_quick``                 ``paged.steady_hit_rate`` - the paged
                                      store's hit rate on the shared-prefix
                                      stream under byte pressure (a budget
                                      below the monolithic working set; a
                                      drop means sharing or spill broke).
``BENCH_obs_quick``                   ``obs_overhead_ratio`` - telemetry-
                                      enabled vs -disabled serving rate on
                                      the long-selection stream (a *ratio*
                                      near 1.0; a drop means the obs plane
                                      grew a hot-path cost).
``BENCH_cache_quick``                 ``paged_vs_uncached_requests_per_sec``
                                      - the paged store's serving-rate win
                                      over the uncached engine on that
                                      stream.  Nominally a ratio, but the
                                      two engines are timed in *separate*
                                      phases, so runner contention can
                                      skew it asymmetrically - gated with
                                      the wider rate knob.
``BENCH_gateway_quick``               ``overload_p99_bound_ratio`` - how far
                                      the gateway's served-request p99
                                      under overload protection sits below
                                      2x the unloaded p99 (>= 1.0 = bound
                                      held).  Unloaded and protected
                                      phases are timed separately, so it
                                      gets the wider rate knob.
``BENCH_gateway_quick``               ``protected_completed_rps`` - served
                                      throughput the protected gateway
                                      sustains during the overload drive.
``BENCH_projection_quick``            worst ``projection_vs_einsum`` across
                                      the workload shapes - the per-row
                                      BLAS KV projection's speedup over
                                      the einsum loop it replaced
                                      (intra-run *ratio*).
``BENCH_engine_continuous_quick``     ``heap.minor_faults_per_call`` - page
                                      faults per warm prefill-shaped engine
                                      call.  Lower is better, and it is
                                      gated against an absolute *ceiling*,
                                      not the baseline: an engine process
                                      that keeps its freed heap faults ~0
                                      pages per call, one that returns it
                                      to the kernel faults thousands.
``BENCH_engine_continuous_quick``     ``heap.stream_peak_mb`` - tracemalloc
                                      peak of one warm prefill-shaped SU-FA
                                      stream call, against an absolute
                                      *ceiling*: row-blocked K/V gathers
                                      peak near 1.3 MB, whole-stack
                                      gathers near 9.2 MB.  A count of
                                      bytes, not a timing, so it holds
                                      across hosts.
====================================  =======================================

Tolerances: a metric regresses when ``fresh < (1 - tolerance) * baseline``.
Metrics come in two kinds with separate knobs:

* **ratio** metrics (the kernel speedups) are intra-run comparisons, so
  they are hardware-class independent; the default ``--tolerance 0.2``
  (20%) sits far above honest run-to-run jitter and far below the 4.5-7.6x
  wins being guarded.
* **rate** metrics (raw requests/sec) carry the baseline machine's speed
  in their units.  On the recording machine 20% is the right bar; on a
  *different* hardware class (committed dev-box baselines vs shared CI
  runners) an honest run can sit well below the baseline, so CI passes a
  wider ``--rate-tolerance`` (documented in the workflow) that still
  catches order-of-magnitude collapses (a lost kernel default, an
  accidentally quadratic path) without flaking on runner drift.
  Re-record the committed ``*_quick`` baselines (run the benches with
  ``--quick`` and commit the JSON) whenever the reference machine
  changes, then tighten.

Improvements never fail the gate; the baselines are a floor, not a pin.
**ceiling** metrics ignore both knobs: they fail when the fresh value
exceeds the fixed limit in :data:`CEILINGS`.

Usage (what CI's bench-smoke job does):

    cp benchmarks/BENCH_*_quick.json /tmp/bench-baseline/   # before benches
    python benchmarks/bench_engine_throughput.py --quick --cluster 2
    python benchmarks/bench_kernel_sufa.py --quick
    python benchmarks/bench_projection.py --quick
    python benchmarks/check_bench_regression.py \
        --baseline /tmp/bench-baseline --fresh benchmarks

Exit status 0 = no regression; 1 = at least one tracked metric regressed
(or a tracked file/metric is missing - schema drift must be explicit, not
silently ungated).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Callable


def _stream_sync_rps(record: dict[str, Any]) -> float:
    return float(record["stream"]["sync_requests_per_sec"])


def _cluster_best_rps(record: dict[str, Any]) -> float:
    return max(float(p["requests_per_sec"]) for p in record["points"])


def _sufa_min_kernel_speedup(record: dict[str, Any]) -> float:
    return min(float(k["blocked_vs_seed_loop"]) for k in record["kernels"])


def _sufa_engine_rps(record: dict[str, Any]) -> float:
    return float(record["engine"]["blocked_requests_per_sec"])


def _sufa_min_fused_speedup(record: dict[str, Any]) -> float:
    return min(float(k["fused_vs_unfused"]) for k in record["fused"])


def _sufa_fused_engine_rps(record: dict[str, Any]) -> float:
    return float(record["fused_engine"]["fused_requests_per_sec"])


def _obs_overhead_ratio(record: dict[str, Any]) -> float:
    return float(record["obs_overhead_ratio"])


def _cache_paged_hit_rate(record: dict[str, Any]) -> float:
    return float(record["paged"]["steady_hit_rate"])


def _cache_paged_vs_uncached_rps(record: dict[str, Any]) -> float:
    return float(record["paged_vs_uncached_requests_per_sec"])


def _gateway_p99_bound_ratio(record: dict[str, Any]) -> float:
    return float(record["overload_p99_bound_ratio"])


def _gateway_protected_rps(record: dict[str, Any]) -> float:
    return float(record["protected_completed_rps"])


def _projection_min_speedup(record: dict[str, Any]) -> float:
    return min(float(p["projection_vs_einsum"]) for p in record["points"])


def _heap_minor_faults(record: dict[str, Any]) -> float:
    return float(record["heap"]["minor_faults_per_call"])


def _heap_stream_peak_mb(record: dict[str, Any]) -> float:
    return float(record["heap"]["stream_peak_mb"])


#: (file name, human metric name, extractor, kind).  "ratio" metrics are
#: intra-run speedups (hardware-class independent, tight tolerance), "rate"
#: metrics are raw requests/sec (honest only against a same-class baseline
#: - see module docstring); both are higher-is-better.  "ceiling" metrics
#: are lower-is-better and capped by their :data:`CEILINGS` entry.
#: Extractors raise KeyError/ValueError on schema drift.
METRICS: list[tuple[str, str, Callable[[dict[str, Any]], float], str]] = [
    (
        "BENCH_engine_continuous_quick.json",
        "stream.sync_requests_per_sec",
        _stream_sync_rps,
        "rate",
    ),
    (
        "BENCH_cluster_quick.json",
        "max(points[].requests_per_sec)",
        _cluster_best_rps,
        "rate",
    ),
    (
        "BENCH_sufa_quick.json",
        "min(kernels[].blocked_vs_seed_loop)",
        _sufa_min_kernel_speedup,
        "ratio",
    ),
    (
        "BENCH_sufa_quick.json",
        "engine.blocked_requests_per_sec",
        _sufa_engine_rps,
        "rate",
    ),
    (
        "BENCH_sufa_quick.json",
        "min(fused[].fused_vs_unfused)",
        _sufa_min_fused_speedup,
        "ratio",
    ),
    (
        "BENCH_sufa_quick.json",
        "fused_engine.fused_requests_per_sec",
        _sufa_fused_engine_rps,
        "rate",
    ),
    (
        "BENCH_obs_quick.json",
        "obs_overhead_ratio",
        _obs_overhead_ratio,
        "ratio",
    ),
    (
        "BENCH_cache_quick.json",
        "paged.steady_hit_rate",
        _cache_paged_hit_rate,
        "ratio",
    ),
    # Separate-phase timing: contention skews it like a raw rate does.
    (
        "BENCH_cache_quick.json",
        "paged_vs_uncached_requests_per_sec",
        _cache_paged_vs_uncached_rps,
        "rate",
    ),
    # Also separate-phase (quiet unloaded run vs loaded protected run).
    (
        "BENCH_gateway_quick.json",
        "overload_p99_bound_ratio",
        _gateway_p99_bound_ratio,
        "rate",
    ),
    (
        "BENCH_gateway_quick.json",
        "protected_completed_rps",
        _gateway_protected_rps,
        "rate",
    ),
    (
        "BENCH_projection_quick.json",
        "min(points[].projection_vs_einsum)",
        _projection_min_speedup,
        "ratio",
    ),
    (
        "BENCH_engine_continuous_quick.json",
        "heap.minor_faults_per_call",
        _heap_minor_faults,
        "ceiling",
    ),
    (
        "BENCH_engine_continuous_quick.json",
        "heap.stream_peak_mb",
        _heap_stream_peak_mb,
        "ceiling",
    ),
]

#: Absolute limits of the "ceiling" metrics.  A warm prefill-shaped call
#: faults ~0 pages with the engine's heap policy and ~2,700 without it; a
#: warm prefill-shaped stream call peaks near 1.3 MB with row-blocked
#: gathers and near 9.2 MB with whole-stack ones.
CEILINGS = {"heap.minor_faults_per_call": 64.0, "heap.stream_peak_mb": 2.0}

#: Default allowed drop before the gate fails (0.2 = 20%).
DEFAULT_TOLERANCE = 0.2


def compare(
    baseline_dir: pathlib.Path,
    fresh_dir: pathlib.Path,
    tolerance: float = DEFAULT_TOLERANCE,
    rate_tolerance: float | None = None,
) -> tuple[list[str], list[str]]:
    """Evaluate every tracked metric; returns (report lines, failures).

    ``tolerance`` applies to ratio metrics; ``rate_tolerance`` (default:
    same as ``tolerance``) to raw requests/sec metrics.
    """
    if rate_tolerance is None:
        rate_tolerance = tolerance
    lines: list[str] = []
    failures: list[str] = []
    cache: dict[pathlib.Path, dict[str, Any]] = {}

    def load(path: pathlib.Path) -> dict[str, Any] | None:
        if path not in cache:
            if not path.is_file():
                return None
            cache[path] = json.loads(path.read_text())
        return cache[path]

    for file_name, metric_name, extract, kind in METRICS:
        label = f"{file_name}: {metric_name}"
        allowed = rate_tolerance if kind == "rate" else tolerance
        base_record = load(baseline_dir / file_name)
        fresh_record = load(fresh_dir / file_name)
        if base_record is None or fresh_record is None:
            missing = baseline_dir if base_record is None else fresh_dir
            failures.append(f"{label}: missing {missing / file_name}")
            continue
        try:
            base = extract(base_record)
            fresh = extract(fresh_record)
        except (KeyError, IndexError, TypeError, ValueError) as error:
            failures.append(f"{label}: schema drift ({error!r})")
            continue
        if kind == "ceiling":
            limit = CEILINGS[metric_name]
            verdict = "ok" if fresh <= limit else "REGRESSED"
            lines.append(
                f"{verdict:>9}  {label} [{kind}]: baseline {base:.4g} -> "
                f"fresh {fresh:.4g} (ceiling {limit:.4g})"
            )
            if verdict != "ok":
                failures.append(f"{label}: {fresh:.4g} exceeds ceiling {limit:.4g}")
            continue
        if base <= 0:
            failures.append(f"{label}: non-positive baseline {base!r}")
            continue
        ratio = fresh / base
        verdict = "ok" if ratio >= 1.0 - allowed else "REGRESSED"
        lines.append(
            f"{verdict:>9}  {label} [{kind}]: baseline {base:.4g} -> "
            f"fresh {fresh:.4g} ({ratio:.2f}x, floor {1.0 - allowed:.2f}x)"
        )
        if verdict != "ok":
            failures.append(
                f"{label}: dropped to {ratio:.2f}x of baseline "
                f"(tolerance allows >= {1.0 - allowed:.2f}x)"
            )
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    here = pathlib.Path(__file__).resolve().parent
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=here,
        help="directory holding the baseline BENCH_*_quick.json (default: "
        "this benchmarks/ directory, i.e. the committed files)",
    )
    parser.add_argument(
        "--fresh",
        type=pathlib.Path,
        default=here,
        help="directory holding the freshly recorded BENCH_*_quick.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional drop for ratio (speedup) metrics "
        "(default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--rate-tolerance",
        type=float,
        default=None,
        help="allowed fractional drop for raw requests/sec metrics "
        "(default: same as --tolerance; widen when baseline and fresh "
        "runs come from different hardware classes)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    if args.rate_tolerance is not None and not 0.0 <= args.rate_tolerance < 1.0:
        parser.error("--rate-tolerance must be in [0, 1)")
    lines, failures = compare(
        args.baseline, args.fresh, args.tolerance, args.rate_tolerance
    )
    for line in lines:
        print(line)
    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nbench regression gate passed ({len(lines)} metric(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
