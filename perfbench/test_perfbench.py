"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from common import (
    END_TO_END,
    PER_LAYER,
    check_metric_name,
    error_frac,
    min_samples,
    percentile,
    samples_beyond,
    self_time,
)
from inputs import decode_inputs, gateway_inputs, prefill_inputs

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------- percentiles
def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    assert min_samples(99) == 1000
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 90) == 90.0
    assert percentile(samples, 50) == 50.0
    with pytest.raises(ValueError):
        percentile(samples[:99], 90)


def test_percentile_ignores_sample_order():
    rng = np.random.default_rng(0)
    samples = list(rng.standard_normal(250))
    shuffled = list(rng.permutation(samples))
    assert percentile(samples, 90) == percentile(shuffled, 90)
    assert percentile(samples, 50) <= percentile(samples, 90)


# --------------------------------------------------------------- self time
def test_self_time_subtracts_children():
    assert self_time(10.0, [3.0, 4.0]) == pytest.approx(3.0)
    assert self_time(5.0, []) == 5.0
    # Children equal to the parent up to clock resolution leave zero.
    assert self_time(1.0, [0.5, 0.5 + 1e-9]) == 0.0


def test_self_time_rejects_children_larger_than_parent():
    with pytest.raises(ValueError):
        self_time(1.0, [0.7, 0.7])


# ------------------------------------------------------------- metric names
@pytest.mark.parametrize("name", ["a", "9lives", "stage.project_ms", "a-b_c.d", "x" * 64])
def test_good_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "x" * 65, "ms/s", "é"])
def test_bad_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)


def test_error_frac_is_never_zero():
    assert error_frac(0, 998) == pytest.approx(1 / 1000)
    assert error_frac(3, 10) > 3 / 12


# ---------------------------------------------------------- seeded inputs
def _hash(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _prefill(seed: int) -> str:
    inp = prefill_inputs(seed, n_contexts=2)
    return _hash(inp.wk, inp.wv, *(a for ctx in inp.contexts for a in ctx))


def _decode(seed: int) -> str:
    inp = decode_inputs(seed)
    sessions = [inp.session(sid) for sid in range(3)]
    schedule = inp.schedule()
    steps = [a for s in sessions for _ in range(2) for a in s.step()]
    ends = [schedule.ending(sessions) for _ in range(12)]
    return _hash(inp.wk, inp.wv, inp.prompt, *steps, repr(ends).encode())


def _gateway(seed: int) -> str:
    inp = gateway_inputs(seed, n_bodies=2)
    return _hash(inp.wk, inp.wv, *inp.tokens, *inp.q, *inp.bodies)


@pytest.mark.parametrize("make", [_prefill, _decode, _gateway])
def test_same_seed_gives_identical_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_decode_prompt_holds_the_quantisation_maximum():
    inp = decode_inputs(3)
    session = inp.session(0)
    peak = np.abs(inp.prompt).max()
    for _ in range(50):
        tokens, _ = session.step()
    assert np.abs(tokens[inp.prompt.shape[0]:]).max() < peak


def test_gateway_bodies_are_distinct():
    inp = gateway_inputs(5, n_bodies=4)
    assert len(set(inp.bodies)) == 4


# ------------------------------------------------------------------ ledger
def test_ledger_restores_every_target_and_leaves_kernels_alone():
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import TARGETS, Ledger, _registry_snapshot, _resolve

    before = {(p, a): vars(_resolve(p))[a] for p, a, _ in TARGETS}
    kernels = _registry_snapshot()
    with Ledger():
        for path, attr, _ in TARGETS:
            assert vars(_resolve(path))[attr] is not before[(path, attr)]
        assert _registry_snapshot() == kernels
    assert {(p, a): vars(_resolve(p))[a] for p, a, _ in TARGETS} == before
