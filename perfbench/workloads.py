"""The benchmark's workloads, run in-process against the cubicmoduli
package, and the golden checks on their outputs.

Each workload is a sequence of rounds.  A round is a fixed multiset of
operations in a seeded order, so every run measures the same work
whatever the seed, and the seed changes only the order:

  catalog-cli      every catalog entry except psl2-11, once as
                   `audit <e> --json` and once as `invariants <e>`,
                   each an in-process cli.main call with stdout captured
  audit-bigprime   the same entries at each prime of prime_pool(), once
                   with each probe seed of PROBE_SEEDS,
                   as `audit <e> --prime P --seed S --json`
  lattice-psl2-11  one lattice_report() of the psl2-11 group, which the
                   set-up loads

Run as a script, this file is one workload process (run.py starts it):

  python3 perfbench/workloads.py --workload W --seed N --seconds S
      --trace 0|1 --started T [--setup-only]

It prints one JSON object: with --setup-only the set-up time, which
includes interpreter start and imports because T is time.monotonic()
just before the process was started; otherwise the operation times, the
reference kernel times (reference.py) and the failures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

import reference
import tracing
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
TRACE_DIR = HERE / "out"

WORKLOADS = ("catalog-cli", "audit-bigprime", "lattice-psl2-11")
# the reference kernel (reference.py) each workload's times are scaled by
KERNEL = {"catalog-cli": "exact", "audit-bigprime": "array",
          "lattice-psl2-11": "exact"}
LATTICE_ENTRY = "psl2-11"
# audit-bigprime draws its primes from here; at p = 43 one scan walks
# 3.5M points, against 2801 at the default p = 7
BIG_PRIME_RANGE = range(31, 44)
# A round audits each entry at each prime with each of these probe seeds:
# 84 operations, 40 to 60 s, so that one round is a run and the runs of a
# comparison fit its time budget on a slow machine.  The seeds are fixed:
# drawn from the workload seed, they changed a round's scans from 81 to
# 93 and its speed by up to 30% between workload seeds.
PROBE_SEEDS = (0, 1)
AUDIT_FIELDS = ("dim_U", "commutant_dim", "dim_moduli", "dim_special",
                "criterion_holds")


def load_golden(path=GOLDEN) -> dict:
    return json.loads(Path(path).read_text())


def prime_pool(golden) -> list:
    """Primes P in BIG_PRIME_RANGE such that every entry's spanning-form
    conductor divides P - 1, so that the probe can reduce every family
    mod P.  The test is the probe's own choose_prime."""
    from cubicmoduli.errors import BadPrimeError
    from cubicmoduli.smoothprobe import choose_prime

    conductor = math.lcm(*(e["spanning_conductor"]
                           for e in golden["entries"].values()))
    pool = []
    for p in BIG_PRIME_RANGE:
        try:
            pool.append(choose_prime(conductor, floor=p, ceiling=p))
        except BadPrimeError:
            pass
    return pool


def rounds(workload: str, seed: int, golden):
    """Endless generator of rounds (lists of argv tuples).  The same
    workload and seed give the same sequence."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    entries = sorted(golden["entries"])
    pool = prime_pool(golden)
    while True:
        if workload == "catalog-cli":
            ops = ([("audit", e, "--json") for e in entries]
                   + [("invariants", e) for e in entries])
        elif workload == "audit-bigprime":
            ops = [("audit", e, "--prime", str(p), "--seed", str(s),
                    "--json")
                   for e in entries for p in pool for s in PROBE_SEEDS]
        else:
            ops = [("lattice", LATTICE_ENTRY)]
        rng.shuffle(ops)
        yield ops


def check_output(argv, output, golden) -> list:
    """Mismatches between one operation's output and the golden values;
    empty when the output is right."""
    command, entry = argv[0], argv[1]
    if command == "lattice":
        return _check_lattice(output, golden)
    rc, out = output
    if rc != 0:
        return [f"exit code {rc}"]
    want = golden["entries"][entry]
    if command == "invariants":
        lines = out.splitlines()
        dim = want["dim_U"]
        problems = []
        if lines[:1] != [f"dimension {dim}"] or len(lines) != dim + 1:
            problems.append(f"expected a basis of dimension {dim}, got "
                            f"{lines[:1]} and {len(lines) - 1} forms")
        basis = golden["invariant_bases"].get(entry)
        if basis is not None and sorted(lines[1:]) != basis:
            problems.append(f"basis {sorted(lines[1:])} != {basis}")
        return problems
    got = json.loads(out)
    problems = [f"{k}: got {got.get(k)!r}, want {want[k]!r}"
                for k in AUDIT_FIELDS if got.get(k) != want[k]]
    status = str(got.get("nonempty")).split("(")[0]
    if status != want["nonempty"]:
        problems.append(f"nonempty: got {status!r}, "
                        f"want {want['nonempty']!r}")
    if "--prime" in argv:
        prime = int(argv[argv.index("--prime") + 1])
        if got.get("provenance", {}).get("prime") != prime:
            problems.append(f"probe prime: got "
                            f"{got.get('provenance', {}).get('prime')!r}, "
                            f"want {prime}")
    return problems


def _check_lattice(rows, golden) -> list:
    from cubicmoduli import audit

    nodes = audit.lattice_nodes(rows)
    got = {label: [dim_m, dim_z, crit]
           for label, _, dim_m, dim_z, crit in nodes.values()}
    want = golden["lattice_psl2_11"]
    if got == want:
        return []
    return [f"lattice node {k}: got {got.get(k)}, want {want.get(k)}"
            for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]


class Runner:
    """Executes operations against the package and checks each result.
    Construction is the workload's untimed preparation."""

    def __init__(self, workload: str, golden, tracer=None):
        from cubicmoduli import audit, catalog, cli

        self.golden = golden
        self._audit, self._cli = audit, cli
        self.group = (catalog.load(LATTICE_ENTRY)
                      if workload == "lattice-psl2-11" else None)
        self._call = (tracer.span("op", self._invoke) if tracer
                      else self._invoke)

    def _invoke(self, argv):
        if argv[0] == "lattice":
            return self._audit.lattice_report(self.group)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self._cli.main(list(argv))
            except SystemExit as e:
                rc = e.code
        return rc, out.getvalue()

    def run(self, argv):
        """(seconds, problems) for one operation; an exception, a nonzero
        exit or a golden mismatch each give a nonempty problem list."""
        start = time.perf_counter()
        try:
            output = self._call(argv)
        except Exception as e:
            return time.perf_counter() - start, [f"{type(e).__name__}: {e}"]
        elapsed = time.perf_counter() - start
        try:
            return elapsed, check_output(argv, output, self.golden)
        except (ValueError, KeyError, TypeError) as e:
            return elapsed, [f"unreadable output: {type(e).__name__}: {e}"]


# glibc's malloc_trim; other C libraries have none
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0)


def settle():
    """Bring the process back to the same state after an operation: free
    its cyclic garbage and give the freed heap back to the system.  A
    command run from the shell starts in a fresh process; without this,
    an operation's page faults would depend on which one ran before it,
    and so on the seed."""
    gc.collect()
    _MALLOC_TRIM(0)


def measure(runner, schedule, seconds: float | None, kernel: str):
    """Run as many whole rounds as fit in `seconds` by the mean round
    time so far, at least one; exactly one when seconds is None.  The
    process is settled and the reference kernel timed after every
    operation.  Returns
    (op seconds, kernel seconds, failures, operations of each round)."""
    samples, ref_s, failures, round_ops = [], [], [], []
    start = time.perf_counter()
    for ops in schedule:
        for argv in ops:
            elapsed, problems = runner.run(argv)
            samples.append(elapsed)
            settle()
            ref_s.append(reference.time_kernel(kernel))
            if problems:
                failures.append({"op": " ".join(argv), "problems": problems})
        round_ops.append(len(ops))
        spent = time.perf_counter() - start
        if seconds is None or spent + spent / len(round_ops) > seconds:
            break
    return samples, ref_s, failures, round_ops


def _package_path_ok() -> bool:
    import cubicmoduli

    return Path(cubicmoduli.__file__).resolve().is_relative_to(ROOT / "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not _package_path_ok():
        print("cubicmoduli is not imported from this checkout's src/",
              file=sys.stderr)
        return 2
    golden = load_golden()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    runner = Runner(args.workload, golden, tracer)
    schedule = rounds(args.workload, args.seed, golden)
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    kernel = KERNEL[args.workload]

    # a traced run does one round, so its counts repeat exactly per seed
    samples, ref_s, failures, round_ops = measure(
        runner, schedule, None if tracer else args.seconds, kernel)
    result = {
        "kernel": kernel,
        "op_s": samples,
        "ref_s": ref_s,
        "round_ops": round_ops,
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        layers = tracing.per_layer_metrics(tracer)
        scaled = reference.scale(samples, ref_s, reference.NOMINAL_S[kernel])
        layers["trace.op_s.p50"] = (percentile(scaled, 0.5), "s")
        result["per_layer"] = layers
        result["layers"] = tracing.layer_table(tracer)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
