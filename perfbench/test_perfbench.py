"""Self-tests of the benchmark:  python3 -m pytest -q perfbench"""

import copy
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stats import _betainc, percentile, tail_percentile  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


def first_rounds(workload, seed, golden, count=2):
    schedule = workloads.rounds(workload, seed, golden)
    return [next(schedule) for _ in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_operations(workload, golden):
    assert (first_rounds(workload, 11, golden)
            == first_rounds(workload, 11, golden))


@pytest.mark.parametrize("workload, per_entry",
                         [("catalog-cli", 2), ("audit-bigprime", 6)])
def test_seed_changes_order_not_work(workload, per_entry, golden):
    a, b = (first_rounds(workload, s, golden, 1)[0] for s in (1, 2))
    assert a != b
    assert sorted(a) == sorted(b)
    assert len(a) == per_entry * len(golden["entries"])


def test_big_primes_satisfy_conductor_condition(golden):
    assert workloads.prime_pool(golden) == [31, 37, 43]
    for argv in first_rounds("audit-bigprime", 1, golden, 1)[0]:
        p = int(argv[argv.index("--prime") + 1])
        conductor = golden["entries"][argv[1]]["spanning_conductor"]
        assert p in (31, 37, 43)
        assert (p - 1) % conductor == 0


def test_golden_conductors_match_the_package(golden):
    from cubicmoduli import catalog
    from cubicmoduli.invariants import invariant_basis
    from cubicmoduli.smoothprobe import form_conductor

    for entry, want in golden["entries"].items():
        space = invariant_basis(catalog.load(entry))
        n = math.lcm(1, *(form_conductor(f) for f in space.spanning))
        assert n == want["spanning_conductor"], entry


def test_wrong_golden_value_is_caught_and_counted(golden):
    bad = copy.deepcopy(golden)
    bad["entries"]["c2-sign"]["dim_U"] = 18  # the right value is 19
    runner = workloads.Runner("catalog-cli", bad)
    ops = [("audit", "c2-sign", "--json"), ("invariants", "c2-sign"),
           ("audit", "trivial", "--json"),
           ("audit", "no-such-entry", "--json")]
    samples, ref_s, failures, round_ops = workloads.measure(
        runner, [ops], None, "exact")
    assert len(samples) == len(ref_s) == 4 and round_ops == [4]
    assert [f["op"] for f in failures] == [
        "audit c2-sign --json", "invariants c2-sign",
        "audit no-such-entry --json"]
    assert "dim_U" in failures[0]["problems"][0]
    assert failures[2]["problems"] == ["exit code 2"]


def test_self_time_on_synthetic_span_tree():
    # a[0,10] holds b[1,4] (which holds c[2,3]), b[5,6] and a[6.5,7.5]
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0], ["a", 6.5, 7.5, 0]]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 1.0, 1.0]
    assert tracing.layer_self(spans, "a") == 6.0
    assert tracing.layer_self(spans, "b") == 3.0
    assert tracing.layer_busy(spans, "a") == 10.0  # nested a counted once
    assert tracing.layer_busy(spans, "b") == 4.0
    assert tracing.layer_calls(spans, "a") == 2


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * 2)
    counted = tracer.counter("calls", lambda x: x)
    assert outer(1) == 4 and counted(5) == 5 and counted(6) == 6
    assert tracer.spans == [["outer", 0.0, 3.0, None], ["inner", 1.0, 2.0, 0]]
    assert tracer.counts["calls"] == 2


def test_install_rebinds_imported_names_and_restores():
    from cubicmoduli import audit, cli, invariants, linalg
    from cubicmoduli.cyclo import Cyclotomic

    originals = (audit.invariant_basis, invariants.rref, linalg.rref,
                 Cyclotomic.__mul__, Cyclotomic.__rmul__)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert audit.invariant_basis is invariants.invariant_basis
        assert audit.invariant_basis is not originals[0]
        assert invariants.rref is linalg.rref is not originals[1]
        assert Cyclotomic.__mul__ is Cyclotomic.__rmul__
        assert Cyclotomic.__mul__ is not originals[3]
        cli.main(["invariants", "trivial"])
    finally:
        restore()
    assert (audit.invariant_basis, invariants.rref, linalg.rref,
            Cyclotomic.__mul__, Cyclotomic.__rmul__) == originals
    names = {sp[0] for sp in tracer.spans}
    assert {"cli.main", "catalog.load", "groups.generate",
            "invariants.invariant_basis", "linalg.rref"} <= names


def test_tail_percentile():
    assert tail_percentile(1) == 0.5
    assert tail_percentile(40) == 0.75
    assert tail_percentile(200) == 0.9


def test_harrell_davis_percentile():
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([2.0] * 9, 0.9) == pytest.approx(2.0)
    assert percentile([3, 1, 2, 4], 0.5) == pytest.approx(2.5)
    tail = percentile(list(range(100)), 0.9)
    assert 88 < tail < 91
    # I_x(1, 1) = x, I_x(a, b) = 1 - I_(1-x)(b, a), I_(1/2)(a, a) = 1/2
    assert _betainc(1, 1, 0.3) == pytest.approx(0.3)
    assert _betainc(2.5, 40.1, 0.07) == pytest.approx(
        1 - _betainc(40.1, 2.5, 0.93))
    assert _betainc(42.5, 42.5, 0.5) == pytest.approx(0.5)


def test_scale_follows_the_reference_kernel_locally():
    # the kernel takes 2 units for ten operations, then 4: the machine
    # halved its speed, and the operations took twice as long with it
    ref = [2.0] * 10 + [4.0] * 10
    ops = [1.0] * 10 + [2.0] * 10
    scaled = reference.scale(ops, ref, nominal=2.0, window=2)
    assert scaled[:8] == [1.0] * 8 and scaled[-8:] == [1.0] * 8
    assert reference.scale([3.0], [6.0], nominal=2.0) == [1.0]
    with pytest.raises(ValueError):
        reference.scale([1.0, 2.0], [1.0], nominal=1.0)


@pytest.mark.parametrize("kernel", sorted(reference.KERNELS))
def test_reference_kernels_do_fixed_work(kernel):
    assert reference.KERNELS[kernel]() == reference.EXPECTED[kernel]
    assert reference.time_kernel(kernel) > 0
    assert set(workloads.KERNEL.values()) <= set(reference.KERNELS)
