"""Every workload end to end and traced, in one command:

  python3 perfbench/report.py [--seed N]

For each workload this runs run.py twice with the same seed, untraced
and traced, and prints the six end-to-end metrics with their units, the
per-layer metrics, and the tracing overhead: the traced median operation
time against the untraced one.  Both runs do exactly one round (the
untraced one with --seconds 0), so that they time the same operations,
equally warm.  All workloads take about five and a half minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    *notes, last = proc.stdout.strip().splitlines()
    return notes, json.loads(last)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    for workload in WORKLOADS:
        plain_notes, plain = run(workload, args.seed, 0)
        traced_notes, traced = run(workload, args.seed, 1)
        print("\n".join(plain_notes))
        print("\n".join(traced_notes[1:]))
        untraced_p50 = plain["metrics"]["op_s.p50"]["value"]
        traced_p50 = traced["metrics"]["trace.op_s.p50"]["value"]
        print(f"  tracing overhead: median operation {traced_p50:.4f} s "
              f"traced against {untraced_p50:.4f} s untraced "
              f"({100 * (traced_p50 / untraced_p50 - 1):+.1f}%)")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
