#!/usr/bin/env python3
"""Print every metric of every workload by name, with units.

    python3 perfbench/report.py --seed 0 --seconds 35

For each workload this runs ``run.py`` twice in fresh processes: untraced
for the end-to-end metrics, the timings in seconds and the run figures
(failure share, accuracy, error-bound misses, output digests), then traced
for the per-layer metrics and ``trace.overhead_share``.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc-experiments", "blackbox-estimators", "large-n")


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def _row(name, value, unit, note=""):
    print(f"  {name:<50} {value:>16.6g} {unit:<6} {note}".rstrip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)

    for workload in WORKLOADS:
        summary, detail = run(workload, args.seed, args.seconds, 0)
        print(f"== {workload}  seed {args.seed}  correct={summary['correct']}  "
              f"ops attempted {summary['attempted']}, failed {summary['failed']}  "
              f"({detail['passes']} passes of {detail['ops_per_pass']} ops)")
        print("end-to-end (untraced):")
        for name, metric in summary["metrics"].items():
            note = (f"over {detail['ops_per_pass']} ops, median of {detail['passes']} passes each"
                    if name.startswith("op_p") else "")
            _row(name, metric["value"], metric["unit"], note)
        traced_summary, traced = run(workload, args.seed, args.seconds, 1)
        units = {name: m["unit"] for name, m in traced_summary["metrics"].items()}
        print("timings in seconds (untraced; they move with the host's speed):")
        seconds = {name: value for name, value in detail["timings"].items()
                   if not name.endswith("_rel")}
        for name, value in seconds.items():
            _row(name, value, units[name])
        print("run figures (deterministic for a seed):")
        for name, value in detail["figures"].items():
            _row(name, value, units[name])
        print(f"per-layer (traced, {traced['traced_passes']} traced passes):")
        for name, metric in traced_summary["metrics"].items():
            if name in seconds or name in detail["figures"]:
                continue
            _row(name, metric["value"], metric["unit"])
        print("output sha256:")
        for name, digest in detail["output_sha256"].items():
            print(f"  {name:<50} {digest}")
        print(f"inputs sha256: {detail['inputs_sha256']}")
        print()
    print("machine:", json.dumps(detail["machine"], sort_keys=True))


if __name__ == "__main__":
    main()
