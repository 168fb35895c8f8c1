"""KV projection bench: per-row fixed-shape BLAS vs the einsum loop.

The formal stage projects K and V only for the tokens SADS kept
(:func:`repro.numerics.linalg.det_gathered_project`: selected token rows,
each times its own head's projection matrix).  Rows must be
batch-invariant, so one fused gemm over the stack is ruled out.  Two
batch-invariant forms are timed on the shapes the perfbench workloads
feed it:

* ``einsum`` - ``np.einsum("ck,kn->cn", optimize=False)`` per head run,
  numpy's non-BLAS loop that accumulates each output over ``k`` in order.
  It was the shipped contraction before the stacked form and is kept
  inline here as the baseline (the way ``bench_kernel_sufa.py`` keeps its
  ``seed-loop``);
* ``blas`` - the shipped ``det_gathered_project``: every row its own
  ``(1, K) @ (K, N)`` BLAS call.

Workloads (rows, K -> N, head runs):

* ``prefill_long``: ~4k selected rows, 64 -> 64, 2 head runs;
* ``decode_shared``: ~1.9k selected rows, 128 -> 64, 16 head runs.

Recorded per workload: the wall time of each form, ``projection_vs_einsum``
(einsum time / blas time; a same-host ratio, so it is hardware-class
independent) and ``rows_invariant``: every row of the stacked call equals
that row projected alone, bit for bit.  The two forms sum in different
orders, so they agree to float tolerance only (``max_abs_diff_vs_einsum``).

Each form is timed in ``SAMPLES`` fresh interpreters, the forms
alternating (``_harness.fresh_process_medians``): one process's heap
layout, and the host's state while it runs, can move these millisecond
timings by more than the gate's tolerance, so a time is the median over
processes of each process's best-of-``REPEATS``.  The ``decode_shared``
point also depends on the BLAS thread count (recorded as
``blas_threads``): its per-row calls run slower on two OpenBLAS threads
than on one.

Run as a script to record ``BENCH_projection.json``:

    PYTHONPATH=src python benchmarks/bench_projection.py [--quick]

``--quick`` (or ``SOFA_BENCH_QUICK=1``) takes fewer timing rounds and
records to ``BENCH_projection_quick.json``, the file CI's bench
regression gate reads.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

import numpy as np

from _harness import best_of_interleaved, fresh_process_medians
from repro.numerics.linalg import det_gathered_project
from repro.utils.rng import make_rng

#: name -> (rows, K, N, head runs).
WORKLOADS = {
    "prefill_long": (4096, 64, 64, 2),
    "decode_shared": (1900, 128, 64, 16),
}
REPEATS = {False: 50, True: 25}
#: fresh interpreters per form
SAMPLES = 3


def gathered_project_einsum(
    x: np.ndarray, w: np.ndarray, row_matrix: np.ndarray
) -> np.ndarray:
    """The einsum-loop projection: one non-BLAS contraction per head run."""
    out = np.empty((x.shape[0], w.shape[2]))
    boundaries = np.flatnonzero(np.diff(row_matrix)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [x.shape[0]]))
    for start, stop in zip(starts, stops):
        out[start:stop] = np.einsum(
            "ck,kn->cn", x[start:stop], w[int(row_matrix[start])], optimize=False
        )
    return out


def _operands(rows: int, k: int, n: int, heads: int, seed: int = 31):
    """Head-sorted token rows (integer-valued, as the engine's tokens are)
    and one projection matrix per head."""
    rng = make_rng(seed)
    x = rng.integers(-100, 100, size=(rows, k)).astype(np.float64)
    w = rng.normal(size=(heads, k, n))
    row_matrix = np.sort(rng.integers(0, heads, size=rows))
    return x, w, row_matrix


def _rows_invariant(x, w, row_matrix, stacked: np.ndarray) -> bool:
    """Each stacked row equals that row projected alone."""
    return all(
        det_gathered_project(x[i : i + 1], w, row_matrix[i : i + 1]).tobytes()
        == stacked[i : i + 1].tobytes()
        for i in range(x.shape[0])
    )


FORMS = {"einsum": gathered_project_einsum, "blas": det_gathered_project}


def sample(form: str, quick: bool) -> dict[str, float]:
    """One process's best-of-``REPEATS`` time of ``form`` per workload."""
    project = FORMS[form]
    times = {}
    for name, (rows, k, n, heads) in WORKLOADS.items():
        x, w, row_matrix = _operands(rows, k, n, heads)
        times[name] = best_of_interleaved(
            {form: lambda: project(x, w, row_matrix)}, REPEATS[quick]
        )[form]
    return times


def measure(quick: bool = False) -> dict:
    timed = fresh_process_medians(
        __file__, tuple(FORMS), SAMPLES, ("--quick",) if quick else ()
    )
    points = []
    for name, (rows, k, n, heads) in WORKLOADS.items():
        x, w, row_matrix = _operands(rows, k, n, heads)
        stacked = det_gathered_project(x, w, row_matrix)
        baseline = gathered_project_einsum(x, w, row_matrix)
        einsum_s, blas_s = (timed[form]["median"][name] for form in FORMS)
        points.append(
            {
                "workload": name,
                "rows": rows,
                "k": k,
                "n": n,
                "head_runs": int(np.count_nonzero(np.diff(row_matrix))) + 1,
                "einsum_s": einsum_s,
                "blas_s": blas_s,
                "einsum_samples_s": [run[name] for run in timed["einsum"]["runs"]],
                "blas_samples_s": [run[name] for run in timed["blas"]["runs"]],
                "projection_vs_einsum": einsum_s / blas_s,
                "rows_invariant": _rows_invariant(x, w, row_matrix, stacked),
                "max_abs_diff_vs_einsum": float(np.max(np.abs(stacked - baseline))),
                "max_abs_value": float(np.max(np.abs(baseline))),
            }
        )
    return {
        "bench": "projection",
        "quick": quick,
        "repeats": REPEATS[quick],
        "samples": SAMPLES,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "note": (
            "einsum is the pre-stacked KV projection (numpy's non-BLAS "
            "loop), kept inline as the baseline; blas is the shipped "
            "det_gathered_project, one fixed-shape (1, K) @ (K, N) BLAS "
            "call per row.  Each form's time is the median over "
            "`samples` fresh processes of a best-of-`repeats`; "
            "projection_vs_einsum = einsum_s / blas_s."
        ),
        "points": points,
    }


# ------------------------------------------------------------ pytest hooks
def test_projection_rows_invariant_and_close_to_einsum_quick():
    for name, (rows, k, n, heads) in WORKLOADS.items():
        x, w, row_matrix = _operands(rows // 8, k, n, heads)
        stacked = det_gathered_project(x, w, row_matrix)
        assert _rows_invariant(x, w, row_matrix, stacked), name
        np.testing.assert_allclose(
            stacked, gathered_project_einsum(x, w, row_matrix), rtol=1e-12, atol=1e-9
        )


def main() -> None:
    quick = "--quick" in sys.argv[1:] or os.environ.get("SOFA_BENCH_QUICK") == "1"
    if "--sample" in sys.argv[1:]:
        print(json.dumps(sample(sys.argv[sys.argv.index("--sample") + 1], quick)))
        return
    record = measure(quick=quick)
    if not all(p["rows_invariant"] for p in record["points"]):
        raise SystemExit("projection rows depend on their batch-mates")
    here = pathlib.Path(__file__).resolve().parent
    out = here / ("BENCH_projection_quick.json" if quick else "BENCH_projection.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
