"""Engine heap policy: freed NumPy temporaries are reused, not re-faulted.

Without the policy glibc maps each large temporary of a prefill batch
fresh and hands it back on free, so every warm call faults ~2,700 pages
in again.  The subprocess test measures that count in a fresh interpreter
through the engine bench's probe; the unit tests pin down the policy's
contract with a fake ``mallopt``.
"""

import importlib.util
import pathlib
import platform

import pytest

from repro.engine import heap
from repro.engine.serving import SofaEngine

_BENCH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "bench_engine_throughput.py"
)

#: Faults allowed per warm call: ~0 with the policy, ~2,700 without it.
MAX_FAULTS_PER_CALL = 64


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench_engine_throughput", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or heap._libc_mallopt() is None,
    reason="the heap policy needs glibc's mallopt",
)
def test_warm_prefill_calls_fault_no_pages_back_in():
    """After three warm-up calls of a prefill batch (S=2048, T=128, two
    heads), each further call faults almost no pages."""
    record = _bench_module().measure_heap()
    assert record["minor_faults_per_call"] < MAX_FAULTS_PER_CALL, record


class _FakeMallopt:
    def __init__(self, returns: int):
        self.returns = returns
        self.calls: list[tuple[int, int]] = []

    def __call__(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return self.returns


def _fresh_process(monkeypatch, mallopt) -> list[int]:
    """Forget the process's outcome and serve ``mallopt`` as libc's;
    returns a list that grows by one per libc lookup."""
    lookups: list[int] = []

    def lookup():
        lookups.append(1)
        return mallopt

    monkeypatch.setattr(heap, "_applied", None)
    monkeypatch.setattr(heap, "_libc_mallopt", lookup)
    return lookups


def test_engine_sets_both_thresholds_once_per_process(monkeypatch):
    mallopt = _FakeMallopt(returns=1)
    lookups = _fresh_process(monkeypatch, mallopt)
    SofaEngine().shutdown()
    assert mallopt.calls == [
        (heap.M_MMAP_THRESHOLD, 32 << 20),
        (heap.M_TRIM_THRESHOLD, 64 << 20),
    ]
    SofaEngine().shutdown()
    assert heap.keep_heap_warm() is True
    assert len(mallopt.calls) == 2 and len(lookups) == 1


def test_policy_does_nothing_without_mallopt(monkeypatch):
    lookups = _fresh_process(monkeypatch, None)
    assert heap.keep_heap_warm() is False
    assert heap.keep_heap_warm() is False
    assert len(lookups) == 1


def test_refused_mmap_threshold_leaves_trim_threshold_alone(monkeypatch):
    """Setting one threshold alone is slower than glibc's default, so a
    refused first call must not be followed by the second."""
    mallopt = _FakeMallopt(returns=0)
    _fresh_process(monkeypatch, mallopt)
    assert heap.keep_heap_warm() is False
    assert heap.keep_heap_warm() is False
    assert mallopt.calls == [(heap.M_MMAP_THRESHOLD, 32 << 20)]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc hosts only")
def test_glibc_mallopt_is_found():
    """Otherwise the fault test above would skip on the hosts it is for."""
    assert heap._libc_mallopt() is not None
