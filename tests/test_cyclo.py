"""Exact cyclotomic arithmetic: canonical forms, field axioms, text format."""

import cmath
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from cubicmoduli.cyclo import (
    MAX_CONDUCTOR,
    Cyclotomic,
    _descent_system,
    _power_table,
    _prime_factors,
    cyclo,
    cyclotomic_polynomial,
    from_power_basis,
    parse_cyclo,
    root_of_unity,
    rref,
)
from cubicmoduli.invariants import CubicForm

from helpers_math import dense_rref

E = root_of_unity


def random_value(rng, conductors=(1, 3, 4, 5, 8, 9, 11, 12)):
    n = rng.choice(conductors)
    value = cyclo(0)
    for _ in range(rng.randrange(1, 4)):
        coeff = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        value = value + cyclo(coeff) * E(n, rng.randrange(n))
    return value


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is the totient
    for n in (5, 7, 8, 9, 10, 11, 15, 33):
        deg = len(cyclotomic_polynomial(n)) - 1
        assert deg == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_roots_of_unity_basic_identities():
    assert E(1) == 1
    assert E(2) == -1 and E(2).conductor == 1
    assert E(4) ** 2 == -1
    assert E(3) ** 3 == 1
    assert 1 + E(3) + E(3) ** 2 == 0
    for n in range(2, 30):
        assert sum((E(n, k) for k in range(n)), cyclo(0)) == 0


def test_conductor_is_minimal():
    # zeta_6 lives in Q(zeta_3) since zeta_6 = -zeta_3^2
    z6 = E(6)
    assert z6.conductor == 3
    assert z6 == -E(3) ** 2
    # a sum that collapses to a rational
    assert (E(5) + E(5, 2) + E(5, 3) + E(5, 4)).conductor == 1
    assert E(12) ** 3 == E(4)
    assert (E(12) ** 4).conductor == 3


def test_every_root_of_unity_descends_to_its_minimal_conductor():
    # zeta_n^k written over the zeta_n basis goes through every descent
    # table of n, the coprime-factor ones (n = 15, 21, 35, 60, ...) too
    for n in range(1, 61):
        for k in range(n):
            m = n // math.gcd(n, k)
            if m % 4 == 2:
                m //= 2
            value = from_power_basis(n, _power_table(n)[k])
            assert value.conductor == m, (n, k)


def test_same_value_two_routes_same_representation():
    a = E(3) * E(5)
    b = E(15, 8)
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) == str(b)


def test_hash_of_rational_values_is_the_rational_hash():
    for q in (0, 1, -1, 7, -7, Fraction(-3, 4)):
        assert hash(cyclo(q)) == hash(q)
    # equal values reached along different routes hash equal
    assert E(3) + E(3) ** 2 == -1
    assert hash(E(3) + E(3) ** 2) == hash(cyclo(-1)) == hash(-1)
    assert hash(E(4) ** 2) == hash(-1)
    assert hash(cyclo(Fraction(6, 8))) == hash(parse_cyclo("3/4"))
    assert hash(E(12) ** 4) == hash(E(3))
    assert hash((E(5) + 1) - E(5)) == hash(1)


def test_hash_of_rationals_with_any_denominator():
    # the rational hash is computed without a Fraction; it must agree
    # with Fraction's for every sign, size and denominator, including
    # multiples of the hash modulus, which have no inverse mod it
    modulus = sys.hash_info.modulus
    rng = random.Random(11)
    samples = [(a, b) for a in (1, -1, 2, -7, 2 ** 70 + 1, -(3 ** 50))
               for b in (2, 3, 10 ** 6, 2 ** 61, modulus, 2 * modulus,
                         3 ** 41)]
    samples += [(rng.randrange(-10 ** 30, 10 ** 30), rng.randrange(2, 10 ** 30))
                for _ in range(200)]
    for a, b in samples:
        q = Fraction(a, b)
        assert hash(cyclo(q)) == hash(q), q
        assert hash(cyclo(q)) == hash(cyclo(a) / b)


def test_roots_of_unity_of_twice_an_odd_conductor():
    # for n = 2 mod 4, zeta_n^k is built as +-zeta_(n/2)^j; it must equal
    # the value read off the conductor-n power table
    for n in range(2, MAX_CONDUCTOR + 1, 4):
        for k in range(n):
            assert E(n, k) == from_power_basis(n, _power_table(n)[k]), (n, k)


def test_gauss_sum_square_is_minus_eleven():
    # oracle: (sum of zeta_11^r over the squares r mod 11) = (-1+sqrt(-11))/2,
    # so s = 1 + 2*(that sum) squares to -11
    squares = sorted({(k * k) % 11 for k in range(1, 11)})
    assert squares == [1, 3, 4, 5, 9]
    s = cyclo(1)
    for r in squares:
        s = s + 2 * E(11, r)
    assert s * s == -11
    assert s.conjugate() == -s


def test_inverse_examples():
    assert (1 + E(3)).inverse() == -E(3)
    assert cyclo(Fraction(-3, 7)).inverse() == Fraction(-7, 3)
    with pytest.raises(ZeroDivisionError):
        cyclo(0).inverse()
    rng = random.Random(7)
    for _ in range(40):
        x = random_value(rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == 1


@pytest.mark.parametrize("n", [5, 7, 11, 12, 60, 105, 119, 120])
def test_inverse_at_the_conductor(n):
    # dense values that need all of Q(zeta_n), and the sparse 1 + zeta_n:
    # the inverse descends through the subfields, one prime at a time
    sparse = 1 + E(n)
    assert sparse * sparse.inverse() == 1
    rng = random.Random(n)
    found = 0
    while found < 4:
        x = sum((Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) * E(n, k)
                 for k in range(n)), cyclo(0))
        if x.conductor == n:
            found += 1
            assert x * x.inverse() == 1


def test_field_axioms_on_samples():
    rng = random.Random(20)
    for _ in range(60):
        a, b, c = (random_value(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a


def test_conjugation_and_galois():
    rng = random.Random(31)
    for _ in range(30):
        a, b = random_value(rng), random_value(rng)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert a.conjugate().conjugate() == a
    assert E(7).galois(2) == E(7) ** 2
    with pytest.raises(ValueError):
        E(6).galois(3)  # conductor normalizes to 3, and gcd(3,3) != 1


def test_norm_is_rational():
    # product over a full Galois orbit is fixed by the whole group
    for n, k in ((5, 1), (8, 3), (9, 2), (12, 7)):
        x = 1 + E(n, k)
        prod = cyclo(1)
        for t in range(1, x.conductor + 1):
            if math.gcd(t, x.conductor) == 1:
                prod = prod * x.galois(t)
        assert prod.is_rational()


def test_complex_embedding_matches():
    for n in (3, 5, 7, 11):
        got = complex(E(n))
        want = cmath.exp(2j * cmath.pi / n)
        assert abs(got - want) < 1e-9


def test_printing_examples():
    assert str(cyclo(0)) == "0"
    assert str(cyclo(Fraction(-1, 2))) == "-1/2"
    assert str(E(3)) == "E(3)"
    # the power basis stops at phi(n)-1, so zeta_3^2 rewrites as -1-zeta_3
    assert str(E(3) ** 2) == "-1 - E(3)"
    assert str(E(11, 3) * Fraction(-1, 2) + 2) == "2 - 1/2*E(11)^3"
    assert str(1 + E(3)) == "1 + E(3)"


def test_parse_examples():
    assert parse_cyclo("-1/2*E(11)^3 + 2") == 2 - Fraction(1, 2) * E(11, 3)
    assert parse_cyclo("E(4)^2") == -1
    assert parse_cyclo("2 - E(3)") == 2 - E(3)
    assert parse_cyclo("(1 + E(3))^2") == (1 + E(3)) ** 2
    assert parse_cyclo("E(8)^-1") == E(8, 7)
    # the grammar is the one CubicForm.parse uses, so division by a
    # constant works anywhere in a term
    assert parse_cyclo("E(3)/2") == Fraction(1, 2) * E(3)
    assert parse_cyclo("2^3/4") == 2
    assert parse_cyclo("3/2^2") == Fraction(3, 4)  # '^' binds tighter
    assert parse_cyclo("-(1 - E(4))^-2 + 3 ") == 3 - (1 - E(4)) ** -2
    assert parse_cyclo("1/(1 + E(119))") * (1 + E(119)) == 1
    # powers at their bounds: 3 for a polynomial, MAX_CONDUCTOR for a
    # number
    assert CubicForm.parse("(x0 + x1)^3") == CubicForm.parse(
        "x0^3 + 3*x0^2*x1 + 3*x0*x1^2 + x1^3")
    assert parse_cyclo(f"2^{MAX_CONDUCTOR}") == 2 ** MAX_CONDUCTOR
    assert parse_cyclo(f"2^-{MAX_CONDUCTOR}") == Fraction(1, 2 ** MAX_CONDUCTOR)
    assert parse_cyclo("0^0") == 1 and parse_cyclo("(x0 - x0)^5") == 0


@pytest.mark.parametrize("text", [
    "E(3) +", "2 ** 3", "1/0", "0^-1", "x0", "E(3)/(x1 - x1)", "", "E(0)",
    "2 3", "E3", "y",
    # above MAX_CONDUCTOR: rejected before its tables are built
    "E(1212)",
])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_cyclo(text)


@pytest.mark.parametrize("nest, sign", [
    (lambda k: "(" * k + "E(3)" + ")" * k, lambda k: 1),
    (lambda k: "-" * k + "E(3)", lambda k: (-1) ** k),
], ids=["parentheses", "signs"])
def test_nesting_depth_is_bounded(nest, sign):
    assert parse_cyclo(nest(100)) == sign(100) * E(3)
    for k in (101, 3000):
        with pytest.raises(ValueError, match="nest more than 100 deep"):
            parse_cyclo(nest(k))


@pytest.mark.parametrize("parse, text", [
    # a power of a polynomial above 3 cannot be a cubic
    (CubicForm.parse, "(x0+x1+x2+x3+x4)^100"),
    (CubicForm.parse, "x0^4"),
    # a power of a number is bounded by MAX_CONDUCTOR either way
    (parse_cyclo, "2^121"),
    (parse_cyclo, "2^-121"),
    (parse_cyclo, "2^10000000000"),
    (parse_cyclo, "0^10000000000"),
    (parse_cyclo, "E(3)^121"),
    (parse_cyclo, "E(3)^-121"),
    (parse_cyclo, "E(120)^10000000000"),
])
def test_powers_are_bounded_before_they_are_formed(parse, text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="power"):
        parse(text)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("n", [*range(1, 14), 60, 120])
def test_root_powers_parse_to_the_power(n):
    # E(n)^k is read as one row of the power table; the exact power is
    # the oracle, for n = 2 mod 4 too, and |k| past MAX_CONDUCTOR keeps
    # its message
    root = E(n)
    for k in range(-n, 2 * n + 1):
        if abs(k) <= MAX_CONDUCTOR:
            assert parse_cyclo(f"E({n})^{k}") == root ** k
        else:
            with pytest.raises(ValueError) as exc:
                parse_cyclo(f"E({n})^{k}")
            assert str(exc.value) == (f"power {k} of a number; |k| at most "
                                      f"{MAX_CONDUCTOR}")


def _fraction_str(x):
    """The printed form of x spelled with Fraction coefficients: the
    reference for Cyclotomic.__str__, which builds no Fraction."""
    n, num, den = x.conductor, x._num, x._den
    if n == 1:
        return str(Fraction(num[0], den))
    parts = []
    for i, v in enumerate(num):
        if v:
            c = abs(Fraction(v, den))
            power = f"E({n})" if i == 1 else f"E({n})^{i}"
            body = str(c) if i == 0 else power if c == 1 else f"{c}*{power}"
            parts.append(("-" if v < 0 else "+", body))
    sign, text = parts[0]
    text = ("-" if sign == "-" else "") + text
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def test_str_matches_fraction_printing():
    rng = random.Random(17)
    for _ in range(300):
        x = random_value(rng, conductors=(1, 3, 4, 5, 7, 8, 9, 11, 12, 15))
        x = x * Fraction(rng.randrange(-9, 10), rng.randrange(1, 40))
        assert str(x) == _fraction_str(x)


def test_print_parse_round_trip():
    rng = random.Random(99)
    for _ in range(120):
        x = random_value(rng, conductors=(1, 3, 4, 5, 7, 8, 9, 11, 12, 15, 33))
        assert parse_cyclo(str(x)) == x


def test_rational_interop():
    assert cyclo(3) + Fraction(1, 2) == Fraction(7, 2)
    assert hash(cyclo(Fraction(7, 2))) == hash(Fraction(7, 2))
    assert (E(3) - E(3)) == 0
    assert cyclo(5).as_rational() == 5
    with pytest.raises(ValueError):
        E(3).as_rational()


def _sparse_rows(rng, n_rows, n_cols, zeros, entry):
    """Rows with about the share zeros of their entries 0, one row of
    zeros, and one row a combination of two others (a rank deficit)."""
    rows = [[entry() if rng.random() >= zeros else entry() * 0
             for _ in range(n_cols)] for _ in range(n_rows)]
    rows[rng.randrange(n_rows)] = [entry() * 0 for _ in range(n_cols)]
    a, b = rng.sample(range(n_rows), 2)
    f, g = entry(), entry()
    rows.append([f * x + g * y for x, y in zip(rows[a], rows[b])])
    rng.shuffle(rows)
    return rows


def _rref_cases():
    rng = random.Random(24)
    entries = {
        "fraction": lambda: Fraction(rng.randrange(-5, 6),
                                     rng.randrange(1, 4)),
        "cyclotomic": lambda: random_value(rng, conductors=(1, 3, 4, 12)),
    }
    for kind, entry in entries.items():
        for zeros in (0.0, 0.3, 0.6, 0.9):
            for _ in range(6):
                n_rows, n_cols = rng.randrange(2, 8), rng.randrange(1, 10)
                rows = _sparse_rows(rng, n_rows, n_cols, zeros, entry)
                for width in (None, rng.randrange(n_cols + 1)):
                    yield f"{kind}-{zeros}", rows, width
    for n in (3, 5, 11, 12, 60, 120):
        for p in _prime_factors(n):
            aug, phi_m = _descent_system(n, n // p)
            yield f"descent-{n}-{n // p}", aug, phi_m


def test_rref_matches_dense_oracle():
    # the elimination over each row's nonzero entries against dense
    # Gauss-Jordan with the same pivot rule: the same rank, pivots and
    # rows, and the rows list reduced in place
    for name, rows, width in _rref_cases():
        rows_in = [list(row) for row in rows]
        rank, reduced, pivots = rref(rows_in, width)
        assert reduced is rows_in, name
        assert (rank, reduced, pivots) == dense_rref(
            [list(row) for row in rows], width), name
