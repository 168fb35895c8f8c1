"""Timing helpers shared by the benchmark scripts."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time


def best_of_interleaved(fns: dict, repeats: int, min_sample_s: float = 0.0) -> dict:
    """Best-of per-call timing with the candidates interleaved round-robin.

    Interleaving exposes every implementation to the same allocator and
    cache drift within each round, so slow host phases penalize all of
    them instead of whichever happened to run last.

    With ``min_sample_s``, one sample of a candidate times as many
    back-to-back calls as one untimed call says fill that long, and counts
    their mean: a call far shorter than the host's scheduling jitter is
    then timed over a window the jitter cannot dominate.
    """
    calls = dict.fromkeys(fns, 1)
    if min_sample_s > 0:
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            calls[name] = max(math.ceil(min_sample_s / (time.perf_counter() - t0)), 1)
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            for _ in range(calls[name]):
                fn()
            best[name] = min(best[name], (time.perf_counter() - t0) / calls[name])
    return best


def fresh_process_medians(
    script: str, sides: tuple[str, ...], samples: int = 3, args: tuple[str, ...] = ()
) -> dict[str, dict]:
    """Time each side in ``samples`` fresh interpreters; per-key medians.

    A process's heap layout, and the host's state while it runs, can move
    a short timing by more than many code changes do, so one process is
    one sample.  Sample ``i`` runs
    ``script --sample SIDE *args`` once per side, the sides alternating;
    the child prints a JSON object of timings (seconds by key) as its last
    stdout line.  Returns, per side, ``{"median": {key: s}, "runs": [...]}``.
    The children import from the same path as this process.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for _ in range(samples):
        for side in sides:
            out = subprocess.run(
                [sys.executable, script, "--sample", side, *args],
                env=env, check=True, capture_output=True, text=True,
            ).stdout
            runs[side].append(json.loads(out.strip().splitlines()[-1]))
    return {
        side: {
            "median": {
                key: statistics.median(run[key] for run in side_runs)
                for key in side_runs[0]
            },
            "runs": side_runs,
        }
        for side, side_runs in runs.items()
    }
