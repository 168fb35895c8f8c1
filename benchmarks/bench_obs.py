"""Telemetry-overhead bench: the obs plane must be nearly free when on.

The ``repro.obs`` plane compiles to no-ops when disabled, but the honest
question is what it costs when **enabled**: every request on the hot path
then pays counters, latency histograms, and span starts/ends across the
engine's submit/batch/stage layers.  This bench serves the PR-7
long-selection stream (the fused predict+select workload of
``bench_kernel_sufa.measure_fused_engine`` - the heaviest per-request
path in the repo) through one ``SofaEngine`` twice per round, toggling
the global telemetry switch between the passes, and records

    ``obs_overhead_ratio`` = enabled requests/sec / disabled requests/sec

an intra-run *ratio* (hardware-class independent, like the kernel
speedups).  The acceptance bar on the full workload is >= 0.97 - i.e.
under 3% overhead with the full plane live.  Timing interleaves the two
switch states round-robin (``_harness.best_of_interleaved``: host-load
drift then penalizes both sides).  Outputs
must be bit-identical across the toggle - the standing parity contract -
and a full run aborts if they are not.

Run as a script to record ``BENCH_obs.json``:

    PYTHONPATH=src python benchmarks/bench_obs.py [--quick]

``--quick`` (or ``SOFA_BENCH_QUICK=1``) shrinks shapes for CI smoke runs
and records to ``BENCH_obs_quick.json`` so the committed full-shape
evidence stays untouched.  The quick artifact's ratio is gated by
``check_bench_regression.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

import numpy as np

import repro.obs as obs
from _harness import best_of_interleaved
from repro.core.config import SofaConfig
from repro.engine import AttentionRequest, SofaEngine
from repro.utils.rng import make_rng

#: The PR-7 long-selection stream (full / --quick): kk = top_k * s = 512
#: selected keys per query row on the full shapes, served by the engine's
#: fused predict+select kernel - the configuration whose throughput
#: ``bench_kernel_sufa`` gates, and therefore the stream where telemetry
#: overhead would hurt most visibly.
WORKLOAD = {
    False: dict(s=4096, t=128, n=4, h=64, dk=64, top_k=0.125, tile_cols=64),
    True: dict(s=1024, t=32, n=4, h=64, dk=64, top_k=0.125, tile_cols=64),
}
REPEATS = {False: 7, True: 2}

#: Full-run acceptance floor for ``obs_overhead_ratio`` (< 3% overhead).
OVERHEAD_FLOOR = 0.97


def _make_requests(w: dict, seed: int = 47) -> list[AttentionRequest]:
    rng = make_rng(seed)
    return [
        AttentionRequest(
            tokens=rng.integers(-100, 100, size=(w["s"], w["h"])).astype(np.float64),
            q=rng.normal(size=(w["t"], w["dk"])),
            wk=rng.normal(size=(w["h"], w["dk"])),
            wv=rng.normal(size=(w["h"], w["dk"])),
        )
        for _ in range(w["n"])
    ]


def _fingerprints(results):
    return [
        (
            r.output.tobytes(),
            r.selected.tobytes(),
            tuple(sorted(r.total_ops.counts.items())),
        )
        for r in results
    ]


def measure_obs_overhead(quick: bool = False) -> dict:
    """Enabled vs disabled serving rate on the long-selection stream.

    One engine serves both switch states, so the only difference between
    the timed passes is the telemetry flag itself.  The plane is reset
    *before* the engine is built (operators capture the singleton at
    build time) and restored to the environment's verdict afterwards.
    """
    w = WORKLOAD[quick]
    requests = _make_requests(w)
    telemetry = obs.reset_telemetry(enabled=False)
    engine = SofaEngine(
        SofaConfig(tile_cols=w["tile_cols"], top_k=w["top_k"]),
        max_batch_heads=8,
    )
    try:
        # Parity across the toggle, measured before any timing: the plane
        # must not move a single output bit, selection index, or op count.
        ref = _fingerprints(engine.run(requests))  # also warms the operators
        obs.enable()
        got = _fingerprints(engine.run(requests))
        obs.disable()
        exact = ref == got

        def run_disabled():
            obs.disable()
            engine.run(requests)

        def run_enabled():
            obs.enable()
            engine.run(requests)

        times = best_of_interleaved(
            {"disabled": run_disabled, "enabled": run_enabled}, REPEATS[quick]
        )
        snapshot = telemetry.registry.snapshot()
        n_spans = len(telemetry.tracer.spans())
    finally:
        engine.shutdown()
        obs.reset_telemetry()  # back to the environment's verdict

    latency = snapshot["histograms"]["sofa_engine_request_latency_seconds"]
    n = w["n"]
    return {
        "bench": "obs_overhead",
        "quick": quick,
        "workload": {**w, "kernel": "fused predict+select", "repeats": REPEATS[quick]},
        "disabled_requests_per_sec": n / times["disabled"],
        "enabled_requests_per_sec": n / times["enabled"],
        # rps ratio == time ratio inverted: intra-run, hardware-independent
        "obs_overhead_ratio": times["disabled"] / times["enabled"],
        "bit_identical": exact,
        # proof the enabled passes exercised the full plane, not a stub
        "enabled_plane_observed": {
            "requests_total": snapshot["counters"]["sofa_engine_requests_total"],
            "request_latency_p50_s": latency["p50"],
            "request_latency_p99_s": latency["p99"],
            "stage_histograms": sorted(
                name
                for name in snapshot["histograms"]
                if name.startswith("sofa_stage_")
            ),
            "spans_recorded": n_spans,
        },
    }


def test_obs_overhead_parity_and_coverage_quick():
    """The toggle must not move a bit, and the enabled plane must have
    genuinely observed the stream it did not perturb.  Wall-clock ratios
    are evidence (BENCH artifacts, gated in CI), not test assertions -
    shared runners jitter beyond any honest overhead bar."""
    record = measure_obs_overhead(quick=True)
    assert record["bit_identical"]
    seen = record["enabled_plane_observed"]
    # the enabled passes ran the stream at least twice (parity + repeats)
    assert seen["requests_total"] >= 2 * WORKLOAD[True]["n"]
    assert seen["request_latency_p99_s"] >= seen["request_latency_p50_s"] > 0.0
    assert "sofa_stage_predict_select_fused_seconds" in seen["stage_histograms"]
    assert "sofa_stage_stream_seconds" in seen["stage_histograms"]
    assert seen["spans_recorded"] > 0


def main() -> None:
    quick = "--quick" in sys.argv[1:] or os.environ.get("SOFA_BENCH_QUICK") == "1"
    record = measure_obs_overhead(quick=quick)
    if not record["bit_identical"]:
        raise SystemExit("telemetry toggle changed served outputs")
    if not quick and record["obs_overhead_ratio"] < OVERHEAD_FLOOR:
        raise SystemExit(
            f"telemetry overhead above the bar: ratio "
            f"{record['obs_overhead_ratio']:.3f} < {OVERHEAD_FLOOR}"
        )
    here = pathlib.Path(__file__).resolve().parent
    out = here / ("BENCH_obs_quick.json" if quick else "BENCH_obs.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
