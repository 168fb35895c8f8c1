"""Bench regression gate tests: the CI tier must catch a real drop.

``benchmarks/check_bench_regression.py`` is what turns the bench-smoke
job from "the benches ran" into "the recorded speedups survived".  These
tests feed it synthetic baseline/fresh pairs: equal numbers and jitter
inside the tolerance pass, an injected >20% drop fails (the acceptance
drill), and a missing file or drifted schema fails loudly instead of
silently ungating a metric.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

_BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", _BENCH_DIR / "check_bench_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_bench_regression", module)
    spec.loader.exec_module(module)
    return module


def _write_quick_artifacts(directory: pathlib.Path, scale: float = 1.0,
                           kernel_scale: float | None = None,
                           faults: float = 0.2,
                           stream_peak_mb: float = 1.3) -> None:
    """A minimal, schema-faithful set of quick bench artifacts."""
    directory.mkdir(parents=True, exist_ok=True)
    kernel_scale = scale if kernel_scale is None else kernel_scale
    (directory / "BENCH_engine_continuous_quick.json").write_text(json.dumps({
        "stream": {"sync_requests_per_sec": 1000.0 * scale},
        "decode": {"cached_speedup": 1.1},
        "heap": {"minor_faults_per_call": faults, "stream_peak_mb": stream_peak_mb},
    }))
    (directory / "BENCH_cluster_quick.json").write_text(json.dumps({
        "points": [
            {"workers": 1, "requests_per_sec": 900.0 * scale},
            {"workers": 2, "requests_per_sec": 1100.0 * scale},
        ],
    }))
    (directory / "BENCH_sufa_quick.json").write_text(json.dumps({
        "kernels": [
            {"blocked_vs_seed_loop": 7.5 * kernel_scale},
            {"blocked_vs_seed_loop": 6.8 * kernel_scale},
        ],
        "engine": {"blocked_requests_per_sec": 800.0 * scale},
        "fused": [
            {"fused_vs_unfused": 1.2 * kernel_scale},
        ],
        "fused_engine": {"fused_requests_per_sec": 25.0 * scale},
    }))
    # telemetry overhead is an intra-run ratio (enabled vs disabled rps)
    (directory / "BENCH_obs_quick.json").write_text(json.dumps({
        "obs_overhead_ratio": 1.0 * kernel_scale,
        "bit_identical": True,
    }))
    # hit rate gates as a ratio metric, the paged-vs-uncached rps as a rate
    (directory / "BENCH_cache_quick.json").write_text(json.dumps({
        "paged": {"steady_hit_rate": 1.0 * kernel_scale},
        "paged_vs_uncached_requests_per_sec": 1.4 * scale,
    }))
    # gateway overload protection: both separate-phase, both gated as rates
    (directory / "BENCH_gateway_quick.json").write_text(json.dumps({
        "overload_p99_bound_ratio": 1.2 * scale,
        "protected_completed_rps": 9.0 * scale,
    }))
    # KV projection: per-row BLAS vs the einsum loop, an intra-run ratio
    (directory / "BENCH_projection_quick.json").write_text(json.dumps({
        "points": [
            {"projection_vs_einsum": 3.0 * kernel_scale},
            {"projection_vs_einsum": 4.0 * kernel_scale},
        ],
    }))


def test_identical_numbers_pass(gate, tmp_path):
    _write_quick_artifacts(tmp_path / "base")
    _write_quick_artifacts(tmp_path / "fresh")
    assert gate.main(
        ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    ) == 0


def test_jitter_inside_tolerance_passes(gate, tmp_path):
    _write_quick_artifacts(tmp_path / "base")
    _write_quick_artifacts(tmp_path / "fresh", scale=0.85)  # -15% < 20%
    assert gate.main(
        ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    ) == 0


def test_improvement_never_fails(gate, tmp_path):
    _write_quick_artifacts(tmp_path / "base")
    _write_quick_artifacts(tmp_path / "fresh", scale=3.0)
    assert gate.main(
        ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    ) == 0


def test_injected_throughput_regression_fails(gate, tmp_path, capsys):
    """The acceptance drill: a synthetic >20% requests/sec drop must fail."""
    _write_quick_artifacts(tmp_path / "base")
    _write_quick_artifacts(tmp_path / "fresh", scale=0.75, kernel_scale=1.0)
    code = gate.main(
        ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "REGRESSED" not in err  # verdict lines go to stdout
    assert "sync_requests_per_sec" in err and "dropped" in err


def test_injected_kernel_speedup_regression_fails(gate, tmp_path, capsys):
    """A kernel-speedup collapse fails even when raw rates hold."""
    _write_quick_artifacts(tmp_path / "base")
    _write_quick_artifacts(tmp_path / "fresh", scale=1.0, kernel_scale=0.6)
    assert gate.main(
        ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    ) == 1
    assert "blocked_vs_seed_loop" in capsys.readouterr().err


def test_rate_tolerance_widens_only_rate_metrics(gate, tmp_path):
    """Cross-hardware runs widen the requests/sec floor without loosening
    the hardware-independent kernel-speedup gate."""
    _write_quick_artifacts(tmp_path / "base")
    _write_quick_artifacts(tmp_path / "fresh", scale=0.65, kernel_scale=1.0)
    args = ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    assert gate.main(args) == 1  # default: rates share the 20% floor
    assert gate.main(args + ["--rate-tolerance", "0.5"]) == 0
    # a collapsed speedup ratio is NOT excused by the rate knob
    _write_quick_artifacts(tmp_path / "ratio-drop", scale=1.0, kernel_scale=0.6)
    assert gate.main(
        ["--baseline", str(tmp_path / "base"),
         "--fresh", str(tmp_path / "ratio-drop"),
         "--rate-tolerance", "0.9"]
    ) == 1


def test_heap_faults_gate_on_an_absolute_ceiling(gate, tmp_path, capsys):
    """Page faults per warm call are lower-is-better and capped by a fixed
    ceiling: a rise from ~0 stays green below it, and no tolerance knob
    excuses a fresh value above it."""
    _write_quick_artifacts(tmp_path / "base")
    args = ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    _write_quick_artifacts(tmp_path / "fresh", faults=40.0)
    assert gate.main(args) == 0
    _write_quick_artifacts(tmp_path / "fresh", faults=2736.0)
    assert gate.main(args + ["--tolerance", "0.9", "--rate-tolerance", "0.9"]) == 1
    assert "minor_faults_per_call" in capsys.readouterr().err


def test_stream_peak_gates_on_an_absolute_ceiling(gate, tmp_path, capsys):
    """The stream call's traced peak is capped at 2 MB whatever the knobs:
    row-blocked gathers pass, a whole-stack gather (~9 MB) fails."""
    _write_quick_artifacts(tmp_path / "base")
    args = ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    _write_quick_artifacts(tmp_path / "fresh", stream_peak_mb=1.9)
    assert gate.main(args) == 0
    _write_quick_artifacts(tmp_path / "fresh", stream_peak_mb=9.2)
    assert gate.main(args + ["--tolerance", "0.9", "--rate-tolerance", "0.9"]) == 1
    assert "stream_peak_mb" in capsys.readouterr().err


def test_tolerance_is_configurable(gate, tmp_path):
    _write_quick_artifacts(tmp_path / "base")
    _write_quick_artifacts(tmp_path / "fresh", scale=0.75)
    args = ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    assert gate.main(args + ["--tolerance", "0.3"]) == 0
    assert gate.main(args + ["--tolerance", "0.1"]) == 1


def test_missing_artifact_fails_loudly(gate, tmp_path, capsys):
    _write_quick_artifacts(tmp_path / "base")
    _write_quick_artifacts(tmp_path / "fresh")
    (tmp_path / "fresh" / "BENCH_sufa_quick.json").unlink()
    assert gate.main(
        ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    ) == 1
    assert "missing" in capsys.readouterr().err


def test_schema_drift_fails_loudly(gate, tmp_path, capsys):
    _write_quick_artifacts(tmp_path / "base")
    _write_quick_artifacts(tmp_path / "fresh")
    (tmp_path / "fresh" / "BENCH_cluster_quick.json").write_text(
        json.dumps({"points": []})
    )
    assert gate.main(
        ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    ) == 1
    assert "schema drift" in capsys.readouterr().err


def test_committed_baselines_are_tracked_and_self_consistent(gate):
    """The real committed artifacts must satisfy the gate against
    themselves (every tracked file exists, every metric extracts)."""
    lines, failures = gate.compare(_BENCH_DIR, _BENCH_DIR)
    assert not failures, failures
    assert len(lines) == len(gate.METRICS)
