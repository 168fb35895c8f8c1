"""Timing helpers shared by the benchmark scripts."""

from __future__ import annotations

import time


def best_of_interleaved(fns: dict, repeats: int) -> dict:
    """Best-of timing with the candidates interleaved round-robin.

    Interleaving exposes every implementation to the same allocator and
    cache drift within each round, so slow host phases penalize all of
    them instead of whichever happened to run last.
    """
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best
