"""Exact row reduction, commutant dimensions mod p, and the boundary
between exact values and integer rows."""

import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cubicmoduli import audit, catalog, invariants, linalg
from cubicmoduli.cyclo import _is_prime, cyclo, from_power_basis, root_of_unity
from cubicmoduli.errors import BadPrimeError
from cubicmoduli.linalg import (
    RANK_PRIME_ATTEMPTS,
    RANK_PRIME_CEILING,
    RANK_PRIME_FLOOR,
    _widen,
    conductor_of,
    exact_values,
    int_array,
    pivots_mod_p,
    primes_one_mod,
    rank_mod_p,
    root_of_unity_mod,
    rref,
    split_primes,
)
from helpers_math import (Matrix, commutant_of, gauss_jordan_pivots,
                          random_cyclo, random_matrix)

E = root_of_unity


def test_matrix_basics():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert (a * b).row(0) == (cyclo(2), cyclo(1))
    assert a * Matrix.identity(2) == a
    assert (a + b) - b == a
    assert a.transpose().transpose() == a
    assert a.trace() == 5
    assert Matrix.diagonal([1, 2, 3])[1, 1] == 2
    assert Matrix.scalar(3, E(3)) == Matrix.diagonal([E(3)] * 3)
    assert Matrix.scalar(3, E(3)) != Matrix.identity(3)


def test_rref_rank_one_cyclotomic():
    # second row is zeta_3^2 times the first
    m = Matrix([[1, E(3)], [E(3) ** 2, 1]])
    r, red, pivots = rref(m)
    assert r == 1
    assert pivots == (0,)
    assert red[0] == [cyclo(1), E(3)]


def test_rref_identity_and_zero():
    ident = Matrix.identity(4)
    r, red, pivots = rref(ident)
    assert r == 4 and Matrix(red) == ident and pivots == (0, 1, 2, 3)
    zero = Matrix([[0, 0], [0, 0], [0, 0]])
    assert rref(zero)[0] == 0


def test_rref_is_idempotent_and_rank_transpose():
    rng = random.Random(5)
    for _ in range(25):
        m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        r, red, pivots = rref(m)
        r2, red2, pivots2 = rref(red)
        assert (r, red, pivots) == (r2, red2, pivots2)
        assert r == rref(m.transpose())[0]


def test_inverse():
    m = Matrix([[1, E(3)], [0, 1]])
    inv = m.inverse()
    assert m * inv == inv * m == Matrix.identity(2)
    with pytest.raises(ZeroDivisionError):
        Matrix([[1, 1], [1, 1]]).inverse()
    rng = random.Random(11)
    found = 0
    while found < 10:
        m = random_matrix(rng, 3, 3)
        if rref(m)[0] < 3:
            continue
        found += 1
        assert m * m.inverse() == Matrix.identity(3)


def test_commutant_dimension_examples():
    ident = Matrix.identity(5)
    assert commutant_of([ident]) == 25
    # distinct diagonal entries leave only the diagonal matrices
    reg5 = Matrix.diagonal([1, E(5), E(5) ** 2, E(5) ** 3, E(5) ** 4])
    assert commutant_of([reg5]) == 5
    # eigenvalue blocks of sizes 2 and 3 give 4 + 9
    two_three = Matrix.diagonal([E(3), E(3), 1, 1, 1])
    assert commutant_of([two_three]) == 13
    # adding a swap inside the 3-block cuts it further
    swap = Matrix([
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
    ])
    assert commutant_of([two_three, swap]) == 4 + 5


def test_commutant_matches_block_structure_randomly():
    rng = random.Random(29)
    for _ in range(10):
        # random diagonal with repeated eigenvalues: commutant is the sum
        # of squares of the multiplicities
        eigs = [rng.choice([0, 1, 2]) for _ in range(5)]
        m = Matrix.diagonal([E(3) ** e for e in eigs])
        want = sum(eigs.count(v) ** 2 for v in set(eigs))
        assert commutant_of([m]) == want


def exact_commutant_dimension(mats):
    """d*d minus the exact rank of the stacked systems X*g - g*X = 0."""
    d = mats[0].rows
    rows = []
    for g in mats:
        for i in range(d):
            for j in range(d):
                row = [cyclo(0)] * (d * d)
                for k in range(d):
                    row[i * d + k] = row[i * d + k] + g[k, j]
                    row[k * d + j] = row[k * d + j] - g[i, k]
                rows.append(row)
    return d * d - rref(rows)[0]


def random_system(rng, n):
    """One or two 5x5 matrices over Q(zeta_n) whose commutant is not
    always the generic one: P D P^-1 with D diagonal with repeated
    eigenvalues and P a random integer matrix, alone, next to a
    polynomial in it, next to another matrix diagonal in the same basis,
    or next to a random matrix."""
    while True:
        p = Matrix([[rng.randrange(-2, 3) for _ in range(5)]
                    for _ in range(5)])
        if rref(p)[0] == 5:
            break
    p_inv = p.inverse()
    values = [1, 2, E(n) if n > 1 else -1]

    def conj_diag():
        return p * Matrix.diagonal(
            [rng.choice(values) for _ in range(5)]) * p_inv

    first = conj_diag()
    kind = rng.randrange(4)
    if kind == 0:
        return [first]
    if kind == 1:
        return [first, first * first + first]
    if kind == 2:
        return [first, conj_diag()]
    return [first, random_matrix(rng, 5, 5, (n,))]


@pytest.mark.parametrize("n", [1, 3, 11])
def test_commutant_mod_p_matches_exact_nullity(n):
    rng = random.Random(100 + n)
    seen = set()
    for _ in range(6):
        mats = random_system(rng, n)
        want = exact_commutant_dimension(mats)
        assert commutant_of(mats) == want
        seen.add(want)
    assert len(seen) >= 3


def test_commutant_mod_p_is_never_below_the_exact_value():
    # 1 + p is 1 mod p: the reduction is the identity, whose commutant
    # is everything, while the exact commutant is 4*4 + 1
    p = split_primes(1)[0]
    m = Matrix.diagonal([1, 1, 1, 1, 1 + p])
    assert exact_commutant_dimension([m]) == 17
    assert commutant_of([m], prime=p) == 25
    q = next(r for r in split_primes(1) if r != p and (r - 1) % 11)
    assert commutant_of([m], prime=q) == 17
    # E(11) has no image mod a prime that is not 1 mod 11
    with pytest.raises(BadPrimeError):
        commutant_of([Matrix.scalar(5, E(11))], prime=q)


def test_split_primes_are_the_first_attempts_of_primes_one_mod():
    for n in (1, 3, 12, 660):
        want = tuple(itertools.islice(
            primes_one_mod(n, RANK_PRIME_FLOOR, RANK_PRIME_CEILING),
            RANK_PRIME_ATTEMPTS))
        assert len(want) == RANK_PRIME_ATTEMPTS
        for _ in range(2):  # computed, then memoized
            assert split_primes(n) == want


def test_split_primes_and_roots_mod_p():
    for n in (1, 3, 11, 12, 20):
        primes = list(itertools.islice(split_primes(n), 3))
        assert primes == sorted(primes)
        for p in primes:
            assert 2 ** 30 <= p < 2 ** 31 and (p - 1) % n == 0
            w = root_of_unity_mod(n, p)
            assert pow(w, n, p) == 1
            assert all(pow(w, k, p) != 1 for k in range(1, n))
    # zeta_n -> g^((p-1)/n), g the smallest primitive root mod p
    for p in range(5, 128):
        if not _is_prime(p):
            continue
        g = next(a for a in range(2, p)
                 if len({pow(a, k, p) for k in range(1, p)}) == p - 1)
        for n in range(1, p):
            if (p - 1) % n == 0:
                assert root_of_unity_mod(n, p) == pow(g, (p - 1) // n, p)


def test_rank_mod_p():
    p = 7
    m = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 5], [1, 3, 8]], dtype=np.int64)
    assert rank_mod_p(m, p) == 2
    assert rank_mod_p(np.zeros((3, 4), dtype=np.int64), p) == 0
    assert rank_mod_p(np.eye(4, dtype=np.int64), p) == 4
    # rank 2 over Q, rank 1 mod 7: the second row is 1 + 7 times the first
    m = np.array([[1, 2, 3], [8, 16, 24]], dtype=np.int64) % p
    assert rank_mod_p(m, p) == 1


def test_pivots_mod_p():
    p = 7
    # column 1 is twice column 0, and column 3 is column 0 plus column 2
    m = np.array([[1, 2, 0, 1], [0, 0, 1, 1], [3, 6, 5, 8 % p]],
                 dtype=np.int64)
    assert pivots_mod_p(m.copy(), p) == (0, 2)
    assert rank_mod_p(m, p) == 2
    assert pivots_mod_p(np.zeros((2, 3), dtype=np.int64), p) == ()


def test_entries_of_every_kind_construct_equal_objects():
    from cubicmoduli.invariants import CubicForm

    values = [0, 1, -3, Fraction(2, 3), E(3), E(3) * Fraction(-1, 2)]
    kinds = [[0, 1, -3, Fraction(2, 3), "E(3)", "-1/2*E(3)"],
             ["0", "1", "-3", "2/3", "E(3)", "-1/2*E(3)"],
             [Fraction(0), Fraction(1), Fraction(-3), Fraction(2, 3),
              E(3), E(3) * Fraction(-1, 2)],
             [cyclo(v) for v in values]]
    mats = [Matrix([row[:3], row[3:]]) for row in kinds]
    assert all(m == mats[-1] for m in mats)
    assert all(type(v) is type(E(3)) for m in mats for v in m.data)
    assert mats[0].data == tuple(cyclo(v) for v in values)
    forms = [CubicForm(row + [0] * 29) for row in kinds]
    assert all(f == forms[-1] for f in forms)
    assert forms[0].coefficients[:6] == tuple(cyclo(v) for v in values)
    with pytest.raises(AssertionError, match="ragged"):
        Matrix([[1, 2], [3]])


# ----------------------------------------------------------------------
# pivots mod p against Gauss-Jordan elimination on Python ints

# a split prime near 2^31, as the rank kernels use, and small ones
PIVOT_PRIMES = [7, 31, 2147483647]


def _seeded_matrices(p):
    """Seeded matrices mod p of every shape the kernel meets: dense,
    sparse, rank-deficient, tall, wide, with leading zero columns and
    with every entry near p - 1."""
    rng = np.random.default_rng(p)
    out = []
    for rows, cols in [(1, 1), (5, 5), (12, 9), (9, 12), (60, 8), (5, 40),
                       (35, 35)]:
        dense = rng.integers(0, p, size=(rows, cols))
        sparse = dense * (rng.random((rows, cols)) < 0.15)
        k = max(1, min(rows, cols) // 2)
        # rank at most k, a product made on Python ints: in int64 the
        # products of residues near 2^31 would overflow
        deficient = (rng.integers(0, p, size=(rows, k)).astype(object)
                     @ rng.integers(0, p, size=(k, cols)).astype(object)) % p
        leading = dense.copy()
        leading[:, :cols // 2] = 0
        near = p - 1 - rng.integers(0, min(p, 3), size=(rows, cols))
        out += [dense, sparse, deficient, leading, near]
    return [m.astype(np.int64) for m in out]


@pytest.mark.parametrize("p", PIVOT_PRIMES)
def test_pivots_mod_p_match_gauss_jordan(p):
    for m in _seeded_matrices(p):
        given = m.copy()
        assert pivots_mod_p(m, p) == gauss_jordan_pivots(m, p), m.shape
        # the input is left as it was
        assert np.array_equal(m, given)


def test_pivots_mod_p_match_gauss_jordan_on_an_audit_pass(monkeypatch):
    """Every matrix that the audit of the 15 catalog entries hands the
    pivot kernel, from the invariant dimension and the commutant."""
    real = linalg.pivots_mod_p
    seen = []

    def recorded(m, p):
        seen.append((m.copy(), p))
        return real(m, p)

    monkeypatch.setattr(linalg, "pivots_mod_p", recorded)
    monkeypatch.setattr(invariants, "pivots_mod_p", recorded)
    for entry in catalog.entry_ids():
        audit.dims_dual_route(catalog.load(entry))
    assert len(seen) >= 30
    for m, p in seen:
        assert real(m.copy(), p) == gauss_jordan_pivots(m, p)


# ----------------------------------------------------------------------
# the boundary between exact values and integer rows


def _values_back(values, n):
    """exact_values of int_array(values, n), arranged in values' shape,
    with the array's dtype."""
    array, den = int_array(values, n)
    shape = array.shape[:-1]
    got, codes = exact_values(den, array.reshape(-1, array.shape[-1]), n)
    flat = [got[c] for c in codes]
    for size in reversed(shape[1:]):
        flat = [flat[i:i + size] for i in range(0, len(flat), size)]
    return flat, array.dtype


@pytest.mark.parametrize("field", range(1, 25))
def test_root_rows_and_pair_tables_hold_the_roots(field):
    # every root of unity of Q(zeta_field) once, by exponent, and
    # zeta_n^a zeta_field^b for every n dividing field
    roots = linalg._root_rows(field)
    m = len(roots)
    assert m == math.lcm(2, field) == len(set(map(tuple, roots.tolist())))
    assert [from_power_basis(field, row) for row in roots.tolist()] == [
        root_of_unity(m, e) for e in range(m)]
    assert not roots.flags.writeable
    for n in (n for n in range(1, field + 1) if field % n == 0):
        pairs = linalg._pair_table(n, field)
        assert not pairs.flags.writeable
        assert [[from_power_basis(field, v) for v in row]
                for row in pairs.tolist()] == [
            [root_of_unity(n, a) * root_of_unity(field, b)
             for b in range(pairs.shape[1])] for a in range(len(pairs))]


@pytest.mark.parametrize("values", [
    [[1, 2], [3]], [[[1], [2]], [[3], [4, 5]]]])
def test_int_array_rejects_ragged_values(values):
    # a ValueError, under python -O too, where an assert would not run
    with pytest.raises(ValueError, match="ragged"):
        int_array(values, 1)


def test_exact_values_of_int_array_give_the_values_back():
    # each matrix over one conductor in 1..12, scaled so that its array
    # stays in int64 (scale 1, denominators 2^40) or needs Python ints
    # (numerators 3^40 and 5^30)
    rng = random.Random(17)
    scales = [1, Fraction(1, 2 ** 40), 3 ** 40, Fraction(5 ** 30, 7 ** 20)]
    dtypes = {}
    for _ in range(60):
        c, scale = rng.randrange(1, 13), rng.choice(scales)
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 5)
        values = [[random_cyclo(rng, [c]) * scale for _ in range(cols)]
                  for _ in range(rows)]
        n = conductor_of(v for row in values for v in row)
        got, dtype = _values_back(values, n)
        assert got == values
        dtypes.setdefault(scale, set()).add(dtype)
        # a flat sequence and a stack of them, over a multiple of n
        assert _values_back(values[0], 2 * n)[0] == values[0]
        assert _values_back([values, values], n)[0] == [values, values]
    assert dtypes == {1: {np.dtype(np.int64)},
                      Fraction(1, 2 ** 40): {np.dtype(np.int64)},
                      3 ** 40: {np.dtype(object)},
                      Fraction(5 ** 30, 7 ** 20): {np.dtype(object)}}


def test_int_array_stores_int64_exactly_below_2_62():
    edge = 1 << 62
    for big, dtype in [(edge - 1, np.int64), (edge, object),
                       (-(edge - 1), np.int64), (-edge, object),
                       # fits int64, but np.abs would wrap it
                       (-(1 << 63), object)]:
        array, den = int_array([cyclo(1), cyclo(big)], 1)
        assert (array.dtype, den) == (dtype, 1)
        assert array[:, 0].tolist() == [1, big]
    # scaled to the common denominator 2: 2 * (2^61 - 1) stays below the
    # edge, 2 * 2^61 is on it
    for big, dtype in [((1 << 61) - 1, np.int64), (1 << 61, object)]:
        array, den = int_array([cyclo(Fraction(1, 2)), cyclo(big)], 1)
        assert (array.dtype, den) == (dtype, 2)
        assert array[:, 0].tolist() == [1, 2 * big]


def test_exact_values_key_repeats_once_across_chunks():
    # 5000 rows of 7 distinct (den, row) pairs span three chunks of 2048;
    # the same rows on Python ints are keyed by tuples, and agree
    rng = np.random.default_rng(3)
    pairs = rng.integers(-3, 4, size=(7, 3))
    pick = rng.integers(0, 7, size=5000)
    dens = np.array([1, 2, 3, 1, 2, 3, 5])[pick]
    got, codes = exact_values(dens, pairs[pick], 4)
    want = [from_power_basis(4, row, den)
            for den, row in zip(dens.tolist(), pairs[pick].tolist())]
    assert [got[c] for c in codes] == want
    assert len(got) == len(set(got))
    assert exact_values(dens.astype(object), pairs[pick].astype(object),
                        4) == (got, codes)
    # one denominator for every row, past int64
    big = 1 << 70
    got, codes = exact_values(big, pairs[pick], 4)
    assert [got[c] for c in codes] == [from_power_basis(4, row, big)
                                       for row in pairs[pick].tolist()]


def test_widen_keeps_int64_below_2_63():
    a, b = np.arange(3), np.arange(3).astype(object)
    kept = _widen((1 << 63) - 1, a, b)
    assert kept[0] is a and kept[1] is b
    widened = _widen(1 << 63, a, b)
    assert [x.dtype for x in widened] == [object, object]
    assert widened[1] is b and widened[0].tolist() == a.tolist()


def test_the_overflow_rule_lives_in_linalg_alone():
    """Only linalg decides when int64 suffices: no other module of the
    package promotes an array to Python ints or spells the 2^62 and 2^63
    bounds itself."""
    src = Path(linalg.__file__).parent
    pattern = re.compile(r"\.astype\(object\)|1\s*<<\s*6[23]\b")
    offending = [f"{path.name}:{k}: {line.strip()}"
                 for path in sorted(src.glob("*.py"))
                 if path.name != "linalg.py"
                 for k, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert not offending, offending


def test_groups_hold_rows_only():
    """An element has one representation in the package, its integer
    rows: no module defines or names an exact Matrix class (the oracle
    lives in the tests)."""
    src = Path(linalg.__file__).parent
    offending = [f"{path.name}:{k}: {line.strip()}"
                 for path in sorted(src.glob("*.py"))
                 for k, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"\bMatrix\b", line)]
    assert not offending, offending
