import copy
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from cubicmoduli import audit, catalog, smoothprobe
from cubicmoduli.errors import BadPrimeError
from cubicmoduli.groups import MatrixGroup
from cubicmoduli.invariants import (
    MONOMIAL_INDEX,
    MONOMIALS,
    N_VARS,
    CubicForm,
    invariant_basis,
)
from cubicmoduli.linalg import int_array, root_of_unity_mod
from cubicmoduli.smoothprobe import (
    ProbeResult,
    ScanResult,
    choose_prime,
    form_conductor,
    probe_nonempty,
    reduce_columns,
    reduce_forms,
    singular_scan,
    torus_strata_certified,
)

import fixtures as fx
from helpers_math import brute_force_scan, macaulay_rank

KLEIN = CubicForm.parse("x0*x1^2 + x1*x2^2 + x2*x3^2 + x3*x4^2 + x4*x0^2")
FERMAT = CubicForm.parse("x0^3 + x1^3 + x2^3 + x3^3 + x4^3")


def test_prime_reduction_values():
    # 3 is the smallest primitive root mod 7, the image of zeta_6
    assert root_of_unity_mod(6, 7) == 3
    # E(3) -> 3^2 = 2 mod 7, a primitive cube root
    assert root_of_unity_mod(3, 7) == 2
    form = CubicForm.parse("E(3)*x0^3 - x1^3")
    row = reduce_forms([form], 7)[0]
    assert (row[0], row[MONOMIAL_INDEX[(0, 3, 0, 0, 0)]]) == (2, 6)
    with pytest.raises(BadPrimeError):
        root_of_unity_mod(11, 7)
    with pytest.raises(BadPrimeError):
        reduce_forms([CubicForm.parse("E(11)*x0^3")], 7)


def test_each_form_drops_its_own_denominator():
    # over one common denominator the first form would be multiplied by
    # 7 and vanish mod 7
    forms = [CubicForm.parse("x0^3 + 2*x1^3 + E(3)*x3^3"),
             CubicForm.parse("x0^3/7 + x2^3")]
    rows = reduce_forms(forms, 7)
    expected = [[0] * len(MONOMIALS) for _ in forms]
    x = MONOMIAL_INDEX
    expected[0][x[(3, 0, 0, 0, 0)]] = 1
    expected[0][x[(0, 3, 0, 0, 0)]] = 2
    expected[0][x[(0, 0, 0, 3, 0)]] = 2  # E(3) -> 2 mod 7
    expected[1][x[(3, 0, 0, 0, 0)]] = 1  # 7 * x2^3 vanishes
    assert rows.tolist() == expected
    assert reduce_forms(forms[::-1], 7).tolist() == expected[::-1]
    # integer rows and forms mix; a form vanishing mod p is rejected
    mixed = reduce_forms([[1] + [0] * 34, forms[1]], 7)
    assert mixed.tolist() == [[1] + [0] * 34, expected[1]]
    with pytest.raises(BadPrimeError, match="vanishes identically"):
        reduce_forms([forms[0], CubicForm.parse("7*x0^3")], 7)


def test_probe_takes_one_conductor_pass(monkeypatch):
    space = invariant_basis(MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B]))
    real = smoothprobe.conductor_of
    calls = []

    def counted(values):
        calls.append(1)
        return real(values)

    monkeypatch.setattr(smoothprobe, "conductor_of", counted)
    probe = probe_nonempty(space, trials=20, seed=0)
    assert probe.prime == 7 and probe.certified
    assert len(calls) == 1


def test_prime_validation():
    with pytest.raises(BadPrimeError):
        reduce_forms([FERMAT], 6)
    with pytest.raises(BadPrimeError):
        reduce_forms([FERMAT], 3)
    with pytest.raises(BadPrimeError):
        singular_scan(FERMAT.scale(7), 7)
    # the chart grid p^4 must stay below 2^28: 127 is the largest prime
    assert reduce_forms([FERMAT], 127).shape == (1, 35)
    with pytest.raises(BadPrimeError, match="too large"):
        reduce_forms([FERMAT], 131)
    with pytest.raises(BadPrimeError, match="too large"):
        singular_scan(FERMAT, 131)


def test_choose_prime():
    assert choose_prime(1) == 7
    assert choose_prime(3) == 7
    assert choose_prime(5) == 11
    assert choose_prime(11) == 23
    assert choose_prime(12) == 13
    with pytest.raises(BadPrimeError):
        choose_prime(60)


def test_fermat_smooth_at_7():
    res = singular_scan(FERMAT, 7)
    assert res.smooth
    assert res.points == 2801
    assert res.first_singular is None


def test_klein_smooth_at_23():
    res = singular_scan(KLEIN, 23)
    assert res.smooth
    assert res.points == 292561


def test_scan_takes_integer_coefficients():
    # the probe hands its reduced samples over as integers
    for form in (KLEIN, FERMAT, CubicForm.parse("x0^3 + x1^3 + x2^3")):
        coeffs = [int(c.as_rational()) for c in form.coefficients]
        for p in (7, 13):
            assert singular_scan(coeffs, p) == singular_scan(form, p)
            shifted = [c + 5 * p for c in coeffs]
            assert singular_scan(shifted, p) == singular_scan(form, p)


def test_klein_smooth_at_7_too():
    assert singular_scan(KLEIN, 7).smooth


def test_cone_is_caught():
    cone = CubicForm.parse("x0^3 + x1^3 + x2^3 + x3^3")
    res = singular_scan(cone, 7)
    assert not res.smooth
    assert res.first_singular == (0, 0, 0, 0, 1)
    assert res.points == 2801


def test_lone_partial_with_x4_squared():
    # dF/dx4 = 3 x4^2 is the only partial, and no other is left to
    # filter the prefixes by: singular wherever x4 = 0
    res = singular_scan(CubicForm.parse("x4^3"), 7)
    assert (res.points, res.first_singular) == (1, (1, 0, 0, 0, 0))


def test_scan_is_deterministic():
    cone = CubicForm.parse("x0^3 + x1^3 + x3^3 + x0*x1*x4")
    a = singular_scan(cone, 11)
    b = singular_scan(cone, 11)
    assert a == b


# singular at (+-sqrt(3):1:0:0:0): rational over F_11, where 3 = 5^2, but
# not over F_7, where 3 is not a square
CONJUGATE_PAIR_SINGULAR = CubicForm.parse(
    "x0^2*x2 - 3*x1^2*x2 + x2^3 + x3^3 + x4^3 + x2^2*x3")


@pytest.mark.parametrize("prime", [
    11,
    pytest.param(7, marks=pytest.mark.xfail(
        strict=True,
        reason="the scan sees only F_p-rational points; ROADMAP item 1 "
               "replaces it as a certificate by the Jacobian rank test")),
])
def test_scan_finds_singular_point_off_the_rational_points(prime):
    assert not singular_scan(CONJUGATE_PAIR_SINGULAR, prime).smooth


def test_cone_family_never_certifies():
    g = MatrixGroup.generate([fx.Z3C4_A, fx.Z3C4_B])
    space = invariant_basis(g)
    member = CubicForm.zero()
    for b in space.basis:
        member = member + b
    res = singular_scan(member, 7)
    assert not res.smooth
    assert res.first_singular == (0, 0, 1, 0, 0)

    probe = probe_nonempty(space, prime=7, trials=5, seed=0)
    assert not probe.certified
    assert probe.witness is None
    assert probe.scan is not None and not probe.scan.smooth
    assert 1 <= probe.scans <= 5
    assert probe.points >= probe.scan.points


def test_probe_certifies_generic_family():
    g = MatrixGroup.generate([fx.C5_REGULAR])
    space = invariant_basis(g)
    assert form_conductor(space.basis[0]) == 1
    probe = probe_nonempty(space, trials=20, seed=0)
    assert probe.certified
    assert probe.prime == 7
    assert probe.scan.smooth
    assert probe.witness is not None


def test_probe_picks_split_prime():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    space = invariant_basis(g)
    # basis has E(3) coefficients, so the default prime must be 1 mod 3
    probe = probe_nonempty(space, trials=20, seed=0)
    assert probe.prime == 7
    assert probe.certified


def test_probe_counts_the_scans_it_makes():
    g = MatrixGroup.generate([fx.C5_REGULAR])
    space = invariant_basis(g)
    probe = probe_nonempty(space, trials=20, seed=0)
    assert probe.certified and probe.trials == 20
    # the first sample is singular at (0:0:1:0:0), the 2745th point; the
    # second passes after all 2801
    assert (probe.scans, probe.points) == (2, 2745 + 2801)

    empty = probe_nonempty(space, trials=0)
    assert (empty.scans, empty.points, empty.scan) == (0, 0, None)


# ----------------------------------------------------------------------
# the scan against a point-by-point walk of P^4(F_p)

def _walk(coeffs, p):
    """The scan's definition in plain Python: the points of P^4(F_p)
    chart by chart (first nonzero coordinate scaled to 1), each chart in
    lexicographic order, stopping at the first point where all five
    partials vanish mod p."""
    partials = []
    for i in range(N_VARS):
        terms = []
        for c, m in zip(coeffs, MONOMIALS):
            if c and m[i]:
                d = list(m)
                d[i] -= 1
                terms.append((c * m[i], d))
        partials.append(terms)
    seen = 0
    for chart in range(N_VARS):
        for rest in itertools.product(range(p), repeat=N_VARS - 1 - chart):
            point = (0,) * chart + (1,) + rest
            seen += 1
            if all(sum(c * _power_product(point, d) for c, d in terms) % p
                   == 0 for terms in partials):
                return ScanResult(p, False, seen, point)
    return ScanResult(p, True, seen, None)


def _power_product(point, expo):
    out = 1
    for x, e in zip(point, expo):
        if e:
            out *= x ** e
    return out


def _substitute(coeffs, chart, shifts, p):
    """Coefficients of F with x_j replaced by x_j + shifts[j] * x_chart
    for every j > chart."""
    out = [0] * len(MONOMIALS)
    for c, m in zip(coeffs, MONOMIALS):
        if not c:
            continue
        poly = {(0,) * N_VARS: c}
        for j in range(N_VARS):
            lin = {j: 1}
            if j > chart and shifts[j]:
                lin[chart] = shifts[j]
            for _ in range(m[j]):
                grown = {}
                for e, v in poly.items():
                    for var, w in lin.items():
                        e2 = e[:var] + (e[var] + 1,) + e[var + 1:]
                        grown[e2] = (grown.get(e2, 0) + v * w) % p
                poly = grown
        for e, v in poly.items():
            out[MONOMIAL_INDEX[e]] = (out[MONOMIAL_INDEX[e]] + v) % p
    return out


X3_ONE = {(1, 0, 0, 1, 1), (1, 0, 0, 2, 0)}


def _random_cubic(rng, p, kind):
    """Seeded test cubics mod p:
    dense    every coefficient random
    sparse   three to eight random monomials
    cone     one or two variables missing (two give a line of singular
             points in one chart)
    line     x3 and x4 missing: every partial vanishes on charts 3 and 4
    late     singular at a random point of chart 2, 3 or 4 and at no
             point of charts 0 and 1
    flat     no monomial divisible by x4^2: every partial is linear in x4
    every    x0 only in x0*x1*(linear form in x1..x4): dF/dx0 vanishes
             for every x4 over each prefix with x1 = 0
    square   a*x0*(x4 + linear form in x1..x3)^2 plus a form in x1..x4:
             dF/dx0 is a square in x4, a double root at every prefix
    x4-cube  x4 only in a*x4^3: no partial but dF/dx4 has x4, so the
             pairs' resultants in x3 vanish identically
    x3-flat  no monomial divisible by x3^2 or x3*x4: no partial has an
             x3*x4 or x3^2 term, so the resultants have no x3^3 term
    x3-one   x3 only in x0*x3*x4 and x0*x3^2: of the partials only dF/dx0
             has an x3*x4 or x3^2 term, so again no resultant has an
             x3^3 term, and few partials are free of x4 anywhere
    binomial two random monomials
    monomial one random monomial; x4^3 leaves one partial, 3*x4^2,
             and no form linear in x4 to filter the prefixes with
    """
    while True:
        if kind == "dense":
            coeffs = [rng.randrange(p) for _ in MONOMIALS]
        elif kind == "sparse":
            coeffs = [0] * len(MONOMIALS)
            for i in rng.sample(range(len(MONOMIALS)), rng.randint(3, 8)):
                coeffs[i] = rng.randrange(1, p)
        elif kind == "cone":
            missing = rng.sample(range(N_VARS), rng.randint(1, 2))
            coeffs = [0 if any(m[v] for v in missing) else rng.randrange(p)
                      for m in MONOMIALS]
        elif kind == "line":
            coeffs = [0 if m[3] or m[4] else rng.randrange(p)
                      for m in MONOMIALS]
        elif kind == "flat":
            coeffs = [0 if m[4] >= 2 else rng.randrange(p)
                      for m in MONOMIALS]
        elif kind == "every":
            coeffs = [rng.randrange(p) if m[0] == 0 or (m[0] == 1 and m[1])
                      else 0 for m in MONOMIALS]
            if not any(c for c, m in zip(coeffs, MONOMIALS) if m[0]):
                continue
        elif kind == "x4-cube":
            coeffs = [0 if m[4] else rng.randrange(p) for m in MONOMIALS]
            coeffs[MONOMIAL_INDEX[(0, 0, 0, 0, 3)]] = rng.randrange(1, p)
        elif kind == "x3-flat":
            coeffs = [0 if m[3] >= 2 or (m[3] and m[4]) else rng.randrange(p)
                      for m in MONOMIALS]
        elif kind == "x3-one":
            coeffs = [rng.randrange(p) if not m[3] or m in X3_ONE else 0
                      for m in MONOMIALS]
        elif kind in ("binomial", "monomial"):
            coeffs = [0] * len(MONOMIALS)
            for i in rng.sample(range(len(MONOMIALS)),
                                2 if kind == "binomial" else 1):
                coeffs[i] = rng.randrange(1, p)
        elif kind == "square":
            coeffs = [0 if m[0] else rng.randrange(p) for m in MONOMIALS]
            a = rng.randrange(1, p)
            linear = [0] + [rng.randrange(p) for _ in range(3)] + [1]
            for i, j in itertools.product(range(1, N_VARS), repeat=2):
                expo = [1, 0, 0, 0, 0]
                expo[i] += 1
                expo[j] += 1
                k = MONOMIAL_INDEX[tuple(expo)]
                coeffs[k] = (coeffs[k] + a * linear[i] * linear[j]) % p
        else:
            # no monomial with x_k^2 or x_k^3 makes e_k singular; the
            # substitution moves that point within chart k
            chart = rng.choice((2, 3, 4))
            coeffs = [0 if m[chart] >= 2 else rng.randrange(p)
                      for m in MONOMIALS]
            shifts = [rng.randrange(p) for _ in range(N_VARS)]
            coeffs = _substitute(coeffs, chart, shifts, p)
        if not any(coeffs):
            continue
        if kind == "late":
            ref = _walk(coeffs, p)
            if ref.smooth or ref.first_singular.index(1) < 2:
                continue
        return coeffs


@pytest.mark.parametrize("kind", ["dense", "sparse", "cone", "line",
                                  "late", "flat", "every", "square",
                                  "x4-cube", "x3-flat", "x3-one",
                                  "binomial", "monomial"])
@pytest.mark.parametrize("prime,count", [(5, 12), (7, 6), (11, 2)])
def test_scan_matches_point_by_point_walk(prime, count, kind):
    rng = random.Random(f"{prime}/{kind}")
    for _ in range(count):
        coeffs = _random_cubic(rng, prime, kind)
        assert singular_scan(CubicForm(coeffs), prime) == \
            _walk(coeffs, prime), coeffs


# ----------------------------------------------------------------------
# the scan against every partial evaluated at every point

def _witness_in_chart(rng, p, chart):
    """A seeded cubic mod p whose first singular point lies in the given
    chart (2, 3 or 4), with the reference scan's result.  Chart 4 is the
    point e_4; chart 3 is the p points over e_3, the scan's last prefix;
    chart 2 is the points over e_2, the last point of P^2, which the
    last block of P^2 rows holds."""
    while True:
        if chart == 4:
            # a cone over a cubic surface, singular at its vertex e_4
            coeffs = [0 if m[4] else rng.randrange(p) for m in MONOMIALS]
        else:
            coeffs = [0 if m[chart] >= 2 else rng.randrange(p)
                      for m in MONOMIALS]
            shifts = [rng.randrange(p) for _ in range(N_VARS)]
            coeffs = _substitute(coeffs, chart, shifts, p)
        if not any(coeffs):
            continue
        ref = brute_force_scan(coeffs, p)
        if not ref.smooth and ref.first_singular.index(1) == chart:
            return coeffs, ref


@pytest.mark.parametrize("one_row", [False, True],
                         ids=["blocks", "one-row-blocks"])
@pytest.mark.parametrize("prime", [5, 7, 11, 13])
def test_scan_matches_brute_force(prime, one_row, monkeypatch):
    if one_row:
        monkeypatch.setattr(smoothprobe, "SCAN_BLOCK_PREFIXES", 1)
    rng = random.Random(f"brute/{prime}")
    cases = [(coeffs, brute_force_scan(coeffs, prime))
             for kind in ("dense", "sparse") for _ in range(4)
             for coeffs in [_random_cubic(rng, prime, kind)]]
    cases += [_witness_in_chart(rng, prime, chart) for chart in (2, 3, 4)]
    # forms whose prefix filter falls back from a cubic in x3
    cases += [(coeffs, brute_force_scan(coeffs, prime))
              for kind in ("x4-cube", "x3-flat", "x3-one", "flat",
                           "binomial")
              for _ in range(2)
              for coeffs in [_random_cubic(rng, prime, kind)]]
    for coeffs, ref in cases:
        assert singular_scan(coeffs, prime) == ref, coeffs
    witnesses = {ref.first_singular[:3] for _, ref in cases
                 if not ref.smooth}
    assert {(0, 0, 1), (0, 0, 0)} <= witnesses
    assert (0, 0, 0, 0, 1) in {ref.first_singular for _, ref in cases}


# ----------------------------------------------------------------------
# the probe reads the Reynolds columns as it would the exact forms

ROUTE_PRIMES = (5, 7, 11, 13, 31, 37, 43)


@pytest.fixture(scope="module")
def spaces():
    return {e: invariant_basis(catalog.load(e)) for e in catalog.entry_ids()}


def _outcome(fn):
    try:
        return fn()
    except BadPrimeError as e:
        return f"BadPrimeError: {e}"


def test_columns_reduce_as_the_spanning_forms(spaces):
    errors = set()
    for entry, space in spaces.items():
        for p in ROUTE_PRIMES:
            got = _outcome(lambda: reduce_columns(*space.columns, p))
            want = _outcome(lambda: reduce_forms(space.spanning, p))
            if isinstance(want, str):
                errors.add(want)
                assert got == want, (entry, p)
            else:
                assert got[0] == p, (entry, p)
                assert got[1].tolist() == want.tolist(), (entry, p)
    # the conductor check is among those met
    assert any("does not divide" in e for e in errors)


def test_probe_reads_columns_as_the_exact_forms(spaces):
    def probe_all(spaces):
        return [_outcome(lambda: probe_nonempty(space, prime=p, seed=seed))
                for space in spaces for p in (None, 5, 13)
                for seed in (0, 1)]

    twins = []
    for space in spaces.values():
        if not space.dimension:
            continue
        # the same space with its columns read off its exact spanning
        # forms, over their own conductor, as reduce_forms reads them
        forms = space.spanning
        n = math.lcm(1, *map(form_conductor, forms))
        array, den = int_array([f.coefficients for f in forms], n)
        twin = copy.copy(space)
        twin.columns = (array, den, n)
        twins.append((space, twin))
    got = probe_all(space for space, _ in twins)
    assert probe_all(twin for _, twin in twins) == got
    assert any(isinstance(r, ProbeResult) and r.certified for r in got)
    assert any(isinstance(r, str) for r in got)


def test_audit_builds_no_exact_spanning_forms(monkeypatch):
    made = []
    real = audit.invariant_basis

    def recorded(group):
        made.append(real(group))
        return made[-1]

    monkeypatch.setattr(audit, "invariant_basis", recorded)
    for entry in catalog.entry_ids():
        audit.check_criterion(catalog.load(entry), entry)
    # a chosen prime is checked where the probe does not run, too
    audit.check_criterion(catalog.load("z3-z4"), "z3-z4", prime=7)
    audit.check_criterion(catalog.load("alt5-sixpoint"), "alt5-sixpoint",
                          prime=43)
    assert len(made) == len(catalog.entry_ids()) + 2
    assert all("spanning" not in space.__dict__ for space in made)


# ----------------------------------------------------------------------
# the probe's walk at a large prime, as computed by the array scan that
# walked every point of a chart at once; any later scan kernel must
# reproduce it

@pytest.mark.parametrize("entry,seed,expected", [
    # (certified, scans, points, last scan's points, its witness)
    ("alt5-sixpoint", 0, (True, 1, 3500201, 3500201, None)),
    ("alt5-sixpoint", 1, (True, 2, 146366 + 3500201, 3500201, None)),
    ("trivial", 0, (True, 1, 3500201, 3500201, None)),
    ("trivial", 1, (True, 1, 3500201, 3500201, None)),
])
def test_probe_walk_at_43_is_pinned(entry, seed, expected):
    space = invariant_basis(catalog.load(entry))
    probe = probe_nonempty(space, prime=43, seed=seed)
    assert (probe.certified, probe.scans, probe.points, probe.scan.points,
            probe.scan.first_singular) == expected


# singular forms at larger primes, with the results of the array scan
# that walked every point of a chart at once
PINNED_SCANS = [
    (31, "24*x0^3 + 2*x0^2*x1 + 20*x0^2*x2 + 2*x0^2*x3 + 12*x0^2*x4"
         " + 12*x0*x1^2 + 20*x0*x1*x2 + 4*x0*x1*x3 + 14*x0*x1*x4"
         " + 9*x0*x2^2 + 20*x0*x2*x3 + 13*x0*x2*x4 + 16*x0*x3^2"
         " + 7*x0*x3*x4 + 6*x0*x4^2 + 18*x1^3 + 27*x1^2*x2 + 7*x1^2*x3"
         " + 12*x1*x2^2 + 30*x1*x2*x3 + 13*x1*x2*x4 + 5*x1*x3^2"
         " + 29*x1*x3*x4 + 9*x2^3 + 26*x2^2*x3 + x2^2*x4 + 3*x2*x3^2"
         " + 28*x2*x3*x4 + 13*x2*x4^2 + 19*x3^3 + 15*x3^2*x4"
         " + 13*x3*x4^2 + 5*x4^3",
     953486, (0, 0, 1, 5, 18)),
    (31, "17*x0^2*x1 + 6*x0*x1^2 + 24*x0*x1*x2 + 6*x0*x1*x4 + x0*x2*x4"
         " + 10*x3^2*x4",
     28025, (1, 0, 29, 5, 0)),
    (37, "12*x0^3 + 36*x0^2*x1 + 26*x0^2*x2 + 22*x0^2*x3 + 13*x0^2*x4"
         " + 8*x0*x1^2 + 17*x0*x1*x2 + 18*x0*x1*x3 + 13*x0*x1*x4"
         " + 33*x0*x2^2 + 12*x0*x2*x3 + 3*x0*x2*x4 + 33*x0*x3^2"
         " + 28*x0*x3*x4 + 28*x1^3 + 32*x1^2*x2 + 5*x1^2*x3"
         " + 24*x1^2*x4 + 29*x1*x2^2 + 29*x1*x2*x3 + 22*x1*x2*x4"
         " + 6*x1*x3*x4 + 10*x2^3 + 34*x2^2*x3 + 10*x2^2*x4"
         " + 9*x2*x3^2 + 24*x2*x3*x4 + 2*x3^3 + 30*x3^2*x4",
     1926221, (0, 0, 0, 0, 1)),
    (37, "14*x0^2*x1 + 28*x0^2*x3 + 18*x0*x4^2 + 8*x2^2*x4",
     1874162, (0, 1, 0, 0, 0)),
    (43, "10*x0^3 + 32*x0^2*x1 + 21*x0^2*x2 + 35*x0^2*x3 + 35*x0^2*x4"
         " + 31*x0*x1^2 + 34*x0*x1*x2 + 3*x0*x1*x3 + 28*x0*x1*x4"
         " + 17*x0*x2^2 + 35*x0*x2*x3 + 24*x0*x2*x4 + 12*x0*x3^2"
         " + 14*x0*x3*x4 + 15*x0*x4^2 + 13*x1^3 + 38*x1^2*x2"
         " + 4*x1^2*x3 + 37*x1^2*x4 + 17*x1*x2^2 + 17*x1*x2*x3"
         " + 19*x1*x2*x4 + 23*x1*x3^2 + 4*x1*x3*x4 + 19*x1*x4^2"
         " + 28*x2^3 + 21*x2^2*x3 + 27*x2^2*x4 + 35*x2*x3^2"
         " + 27*x2*x3*x4 + 38*x2*x4^2 + 37*x3^3 + 2*x3^2*x4"
         " + 34*x3*x4^2 + 31*x4^3",
     3500188, (0, 0, 0, 1, 30)),
    (43, "25*x0^2*x4 + 9*x0*x1*x4 + 25*x0*x2*x3 + 27*x0*x3^2 + 6*x1^2*x2"
         " + 25*x1*x2^2 + 8*x1*x2*x4 + 13*x2*x4^2",
     3419418, (0, 1, 0, 14, 14)),
    # p = 127, as computed by the scan that solved one partial for x4
    # at every point of P^3
    (127, "124*x0^3 + 98*x0^2*x1 + 123*x0^2*x2 + 20*x0^2*x3"
          " + 101*x0^2*x4 + 31*x0*x1^2 + 120*x0*x1*x2 + 99*x0*x1*x3"
          " + 22*x0*x1*x4 + 45*x0*x2^2 + 45*x0*x2*x3 + 100*x0*x2*x4"
          " + 82*x0*x3^2 + 5*x0*x3*x4 + 125*x0*x4^2 + 49*x1^3"
          " + 66*x1^2*x2 + 71*x1^2*x3 + 116*x1^2*x4 + 119*x1*x2^2"
          " + 27*x1*x2*x3 + 66*x1*x2*x4 + 122*x1*x3^2 + 62*x1*x3*x4"
          " + 24*x1*x4^2 + 5*x2^3 + 67*x2^2*x3 + 32*x2^2*x4"
          " + 97*x2*x3^2 + 54*x2*x3*x4 + 20*x2*x4^2 + 23*x3^3"
          " + 7*x3^2*x4 + 107*x3*x4^2 + 47*x4^3",
     260716227, (0, 1, 35, 55, 85)),
    (127, "28*x0^2*x4 + 53*x0*x1*x2 + 47*x1^3 + 26*x2^2*x4"
          " + 107*x2*x3^2 + 29*x2*x3*x4",
     262209216, (0, 0, 0, 1, 62)),
]


@pytest.mark.parametrize("prime,text,points,witness", PINNED_SCANS)
def test_singular_scan_at_large_primes_is_pinned(prime, text, points,
                                                 witness):
    assert singular_scan(CubicForm.parse(text), prime) == ScanResult(
        prime, False, points, witness)


@pytest.mark.parametrize("kind", ["dense", "x4-cube", "x3-flat", "x3-one"])
def test_scan_searches_o_p2_prefixes(kind, monkeypatch):
    # the prefix filter leaves at most three values of x3 over each
    # point of P^2, and e_3, whether a pair's resultant is a cubic in
    # x3 (dense) or not; a walk of all p^3 + p^2 + p + 1 points of P^3
    # would send 81,400 prefixes at p = 43
    p = 43
    rng = random.Random(f"route/{kind}")
    coeffs = _random_cubic(rng, p, kind)
    real = smoothprobe._first_candidate
    searched = []

    def counted(a0, B, C, prefix, p):
        searched.append(len(prefix))
        return real(a0, B, C, prefix, p)

    monkeypatch.setattr(smoothprobe, "_first_candidate", counted)
    singular_scan(coeffs, p)
    assert 0 < sum(searched) <= 3 * (p * p + p + 1) + 1


@pytest.mark.parametrize("p", [5, 7, 11, 13, 43, 127])
def test_cubic_root_table_matches_brute_force(p):
    roots = smoothprobe._cubic_tables(p)[1]
    z = np.arange(p)
    for b in range(p):
        # value[c, z] = z^3 + b z + c mod p
        value = (z ** 3 + b * z + np.arange(p)[:, None]) % p
        for c in range(p):
            listed = [int(v) for v in roots[b, c] if v >= 0]
            assert listed == np.flatnonzero(value[c] == 0).tolist(), (b, c)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_roots_in_x3_match_brute_force(p):
    # every cubic y^3 + a y^2 + b y + c and every quadratic mod p
    a, b, c = np.indices((p, p, p), dtype=np.int16).reshape(3, -1)
    y = np.arange(p)
    cubic = smoothprobe._cubic_roots_in_y(a, b, c, p)
    value = (((y + a[:, None]) * y + b[:, None]) * y + c[:, None]) % p
    for i in range(len(a)):
        assert sorted(v for v in cubic[i].tolist() if v >= 0) == \
            np.flatnonzero(value[i] == 0).tolist()
    roots, every = smoothprobe._quadratic_roots_in_y(np.stack((a, b, c)), p)
    value = ((a[:, None] * y + b[:, None]) * y + c[:, None]) % p
    for i in range(len(a)):
        found = set(roots[i].tolist()) - {-1}
        zeros = set(np.flatnonzero(value[i] == 0).tolist())
        assert every[i] == (a[i] == b[i] == c[i] == 0)
        if a[i] == b[i] == 0:
            assert found == set()  # a constant
        else:
            assert zeros <= found <= zeros | {0}


def _traced_peak_mib(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_scan_memory_at_the_largest_prime():
    # the array scan over the p^4 points of a chart peaked at 1.24 GiB,
    # the scan over all of P^3 at once at 89 MiB, in blocks about
    # 21 MiB, and in blocks that solve 3 x4^2 (A != 0) first, not
    # 3 x0^2 (p candidates at each prefix with x0 = 0), about 1 MiB
    res, peak = _traced_peak_mib(lambda: singular_scan(FERMAT, 127))
    assert res.smooth
    assert res.points == 262209281
    assert peak < 2


def test_dense_scan_memory_at_43():
    rng = random.Random("dense/43")
    coeffs = [rng.randrange(43) for _ in MONOMIALS]
    res, peak = _traced_peak_mib(lambda: singular_scan(coeffs, 43))
    assert res.points == 3500201
    # the array scan over the p^4 points of a chart peaked at 10.2 MiB;
    # the blocked scan at about 0.55 MiB
    assert peak < 2


# ----------------------------------------------------------------------
# the torus-strata certificate against the degree-6 Macaulay rank

# a prime below 2^31 for the rank; the monomial families have conductor 1
RANK_PRIME = 2147483629
MONOMIAL_FAMILIES = ["c2-sign", "c3-balanced", "c3-double", "c3xc3",
                     "c5-regular", "family-43", "fermat-cyclic",
                     "klein-four", "trivial", "z11-klein"]
SPANS_NOT_MONOMIAL = ["alt4-klein", "alt5-sixpoint", "z11-z5-klein",
                      "psl2-11"]


class _Columns:
    """An invariant space as the certificate reads it: its columns, one
    form per row of `forms`, each a {monomial: coefficient} map."""

    def __init__(self, forms):
        array = np.zeros((len(forms), len(MONOMIALS), 1), dtype=np.int64)
        for k, form in enumerate(forms):
            for expo, c in form.items():
                array[k, MONOMIAL_INDEX[expo], 0] = c
        self.columns = (array, 1, 1)


def _monomials(*expos):
    return _Columns([{expo: 1} for expo in expos])


def _general_rank(expos, rng):
    """The Macaulay rank of the member with random nonzero coefficients
    mod RANK_PRIME on the given monomials."""
    coeffs = [0] * len(MONOMIALS)
    for expo in expos:
        coeffs[MONOMIAL_INDEX[expo]] = rng.randrange(1, RANK_PRIME)
    return macaulay_rank(coeffs, RANK_PRIME)


def test_torus_strata_certify_exactly_the_monomial_families(spaces):
    certified = [e for e, space in spaces.items()
                 if torus_strata_certified(space)]
    assert certified == MONOMIAL_FAMILIES
    rng = random.Random("monomial families")
    for entry in certified:
        assert _general_rank(spaces[entry].monomial_support(), rng) == 210, \
            entry
    for entry in SPANS_NOT_MONOMIAL:
        assert not torus_strata_certified(spaces[entry]), entry


def test_torus_strata_certified_systems_are_smooth():
    rng = random.Random("random monomial systems")
    certified = 0
    for _ in range(60):
        expos = rng.sample(MONOMIALS, rng.randrange(3, 14))
        if torus_strata_certified(_monomials(*expos)):
            certified += 1
            assert _general_rank(expos, rng) == 210, expos
    assert certified >= 5


def test_torus_strata_refuse_a_singular_family():
    singular = [(3, 0, 0, 0, 0), (0, 3, 0, 0, 0), (0, 0, 3, 0, 0),
                (1, 0, 0, 1, 1)]
    # every member is singular at e_3: x3 occurs only in x0*x3*x4
    assert not torus_strata_certified(_monomials(*singular))
    rng = random.Random("singular family")
    assert _general_rank(singular, rng) < 210
    coeffs = [int(expo in singular) for expo in MONOMIALS]
    assert singular_scan(coeffs, 7) == ScanResult(7, False, 2794,
                                                  (0, 0, 0, 1, 0))
    smooth = singular + [(0, 0, 0, 3, 0), (0, 0, 0, 0, 3)]
    assert torus_strata_certified(_monomials(*smooth))
    assert _general_rank(smooth, rng) == 210


def test_torus_strata_need_monomial_columns():
    # the five cubes and x0*x1*x2 pass as monomials; summed in pairs into
    # columns of two monomials each, the same support is refused
    expos = [tuple(3 * (k == i) for k in range(N_VARS))
             for i in range(N_VARS)] + [(1, 1, 1, 0, 0)]
    assert torus_strata_certified(_monomials(*expos))
    pairs = _Columns([{expos[k]: 1, expos[k + 1]: 1}
                      for k in range(0, len(expos), 2)])
    assert not torus_strata_certified(pairs)


@pytest.mark.parametrize("entry", SPANS_NOT_MONOMIAL)
def test_audit_probes_the_families_strata_cannot_certify(entry):
    r = audit.check_criterion(catalog.load(entry), entry)
    assert r.nonempty.status == "Certified"
    assert r.provenance["certificate"] == "scan"
    assert r.provenance["prime"] is not None
    assert r.provenance["probe_scans"] >= 1


@pytest.mark.parametrize("entry", MONOMIAL_FAMILIES)
def test_audit_certifies_monomial_families_without_a_scan(entry,
                                                          monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned")

    monkeypatch.setattr(audit, "probe_nonempty", no_scan)
    r = audit.check_criterion(catalog.load(entry), entry)
    assert str(r.nonempty) == ("Certified(torus-strata certificate: the "
                               "general member is smooth)")
    assert r.provenance["certificate"] == "torus-strata"
    assert (r.provenance["prime"], r.provenance["probe_scans"],
            r.provenance["probe_points"]) == (None, 0, 0)
