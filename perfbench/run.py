#!/usr/bin/env python3
"""Benchmark entry point: run one workload and print its result as JSON.

    python3 perfbench/run.py --workload mc-experiments --seed 0 --seconds 35 --trace 0

Run from any directory; the package is imported from ``src/`` of the
checkout this file lives in, and outputs go to ``.perfbench_out/`` there.
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries the run's detail record (output
digests, inputs digest, per-op figures, machine).  With ``--trace 1`` the
metrics are the per-layer ones and the spans of the first traced pass are
written to ``.perfbench_out/spans-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = ".perfbench_out"
WORKLOAD_NAMES = ("mc-experiments", "blackbox-estimators", "large-n")


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must precede numpy's import."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = os.path.join(SRC, "evidkit", "__init__.py")
    if not os.path.isfile(package):
        print(f"perfbench: no evidkit sources at {package}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, SRC)
    import evidkit
    import harness
    if os.path.dirname(os.path.abspath(evidkit.__file__)) != os.path.dirname(package):
        print(f"perfbench: imported evidkit from {evidkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Relative paths keep the CLI outputs (which embed their argv) identical
    # across checkouts, so their digests compare.
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
    summary, detail = harness.run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir=OUT_DIR,
        spans_path=spans if args.trace else None)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
