"""Timing helpers shared by the benchmark scripts."""

from __future__ import annotations

import math
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
