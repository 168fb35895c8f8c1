"""Benchmark of the SOFA serving stack: prefill, cached decode, HTTP path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload prefill_long --seed 1 --seconds 25 --trace 0

Workloads (closed loops, see ``workloads.py`` and ``README.md``):
``prefill_long``, ``decode_shared`` and ``gateway_payload``.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer ledger instead.  The
line before it reports the BLAS thread setting, the host calibration
probe around the timed window, and sample counts.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits non-zero before printing a result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and in the worker it forks: a
# second OpenBLAS thread burns CPU without speeding decode up, and makes
# timings depend on what else the host runs.  Must precede NumPy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("prefill_long", "decode_shared", "gateway_payload")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from common import blas_threads, result_line
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    result, info = workload.run(args.seconds, bool(args.trace))
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                blas=blas_threads())
    print(json.dumps({"info": info}))
    print(result_line(**result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
