"""cubicmoduli benchmark: one workload, one seed, one result line.

  python3 perfbench/run.py --workload catalog-cli --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Each workload runs in a process of its own (workloads.py), single
threaded, as a closed loop with one client: the next operation starts
when the previous one returns.

With --trace 0 the run reports the end-to-end metrics.  The set-up is
made several times (LIMITS), each in a fresh process, with a start-up
kernel process (reference.py) before the first and after each, and
setup_s is the median set-up time scaled by the kernels around it.  One
more process then measures as many whole rounds as fit in --seconds, at
least one.  With --trace 1 one process
wraps the package's layers (tracing.py), runs exactly one round and
reports the per-layer metrics; --seconds is then unused, so that the
counts repeat exactly for a seed.

The last line of standard output is the JSON result; the lines before it
are the same numbers for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# workload -> (set-ups per run, deadline of the whole run in seconds).
# A set-up of the first two takes about 0.2 s, so eleven cost little and
# steady the median; one audit-bigprime round takes 40 to 60 s.  A
# lattice-psl2-11 set-up includes the 5 s closure of psl2-11, and a run
# takes about 110 s (traced, with one set-up, about 90 s), which a slow
# spell of a shared machine can stretch past 170 s.
LIMITS = {
    "catalog-cli": (11, 170),
    "audit-bigprime": (11, 170),
    "lattice-psl2-11": (3, 300),
}


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # set and dict orders feed the traced counts, which must repeat
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _timeout(deadline):
    return max(1.0, deadline - time.monotonic())


def _spawn(args, deadline, extra=()):
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--started", repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=_timeout(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"no result from the workload process:\n"
                         f"{proc.stdout}{proc.stderr}")


def _setups(args, repeats, deadline):
    """(set-up seconds, mean of the start-up kernel seconds before and
    after it) for each of `repeats` set-ups."""
    def startup():
        try:
            return reference.time_startup(_env(), ROOT, _timeout(deadline))
        except subprocess.TimeoutExpired:
            raise BenchError("the start-up kernel did not finish in time")
        except subprocess.CalledProcessError as e:
            raise BenchError(f"the start-up kernel failed:\n{e.stderr}")

    before, setups = startup(), []
    for _ in range(repeats):
        setup_s = _spawn(args, deadline, ["--setup-only"])["setup_s"]
        after = startup()
        setups.append((setup_s, (before + after) / 2))
        before = after
    return setups


def end_to_end(res, setups):
    """The end-to-end metrics from the workload process's result and the
    set-ups' (seconds, start-up kernel seconds).  Every time is scaled to
    the nominal speed of a reference kernel (reference.py); the text
    lines give the wall-clock figures beside them."""
    nominal = reference.NOMINAL_S[res["kernel"]]
    raw = res["op_s"]
    samples = reference.scale(raw, res["ref_s"], nominal)
    n = len(samples)
    q = tail_percentile(n)
    # per round, its operations over its summed scaled time; the median
    # over rounds, so that one slow round does not move it
    round_s, first = [], 0
    for count in res["round_ops"]:
        round_s.append(sum(samples[first:first + count]))
        first += count
    scaled_setups = [s * reference.NOMINAL_S["startup"] / ref
                     for s, ref in setups]
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "ops_per_s": (statistics.median(
            count / t for count, t in zip(res["round_ops"], round_s)), "1/s"),
        "op_s.p50": (percentile(samples, 0.5), "s"),
        "op_s.p90": (percentile(samples, q), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        "ok_ratio": ((n - res["failed"]) / n, "ratio"),
    }
    notes = [
        f"times scaled to the {res['kernel']} kernel at {nominal} s; "
        f"its median here {statistics.median(res['ref_s']):.5f} s "
        f"(range {min(res['ref_s']):.5f}-{max(res['ref_s']):.5f})",
        f"setup_s: median of {len(setups)} set-ups; wall "
        f"{statistics.median(s for s, _ in setups):.4f} s",
        f"op_s.p50 over {n} operations in {len(round_s)} round(s); wall "
        f"{percentile(raw, 0.5):.4f} s",
        f"op_s.p90 is the p{100 * q:g} of {n} operations; wall "
        f"{percentile(raw, q):.4f} s",
        f"fail_ratio {res['failed'] / n:.4f} ({res['failed']} of {n} failed)",
    ]
    return metrics, notes


def _print_result(args, res, metrics, notes):
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:34s} {shown} {unit}")
    for note in notes:
        print(f"  {note}")
    for failure in res["failures"]:
        print(f"  FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": len(res["op_s"]),
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cubicmoduli" / "__init__.py").is_file():
        print(f"error: no cubicmoduli package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    repeats, limit_s = LIMITS[args.workload]
    deadline = time.monotonic() + limit_s
    try:
        if args.trace:
            res = _spawn(args, deadline)
            metrics = res["per_layer"]
            notes = [f"{'layer span':34s} {'calls':>8s} {'busy s':>10s} "
                     f"{'self s':>10s}"]
            notes += [f"{name:34s} {calls:8d} {busy:10.4f} {own:10.4f}"
                      for name, calls, busy, own in res["layers"]]
            notes.append(f"spans written to {res['spans_file']}")
        else:
            setups = _setups(args, repeats, deadline)
            res = _spawn(args, deadline)
            metrics, notes = end_to_end(res, setups)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _print_result(args, res, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
