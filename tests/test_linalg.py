"""Exact row reduction and commutant dimensions mod p."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from cubicmoduli.cyclo import _is_prime, cyclo, root_of_unity
from cubicmoduli.errors import BadPrimeError
from cubicmoduli.linalg import (
    RANK_PRIME_ATTEMPTS,
    RANK_PRIME_CEILING,
    RANK_PRIME_FLOOR,
    Matrix,
    commutant_dimension,
    pivots_mod_p,
    primes_one_mod,
    rank_mod_p,
    root_of_unity_mod,
    rref,
    split_primes,
)
from helpers_math import random_cyclo, random_matrix

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
    assert red.row(0) == (cyclo(1), E(3))


def test_rref_identity_and_zero():
    ident = Matrix.identity(4)
    r, red, pivots = rref(ident)
    assert r == 4 and red == ident and pivots == (0, 1, 2, 3)
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
    assert commutant_dimension([ident]) == 25
    # distinct diagonal entries leave only the diagonal matrices
    reg5 = Matrix.diagonal([1, E(5), E(5) ** 2, E(5) ** 3, E(5) ** 4])
    assert commutant_dimension([reg5]) == 5
    # eigenvalue blocks of sizes 2 and 3 give 4 + 9
    two_three = Matrix.diagonal([E(3), E(3), 1, 1, 1])
    assert commutant_dimension([two_three]) == 13
    # adding a swap inside the 3-block cuts it further
    swap = Matrix([
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
    ])
    assert commutant_dimension([two_three, swap]) == 4 + 5


def test_commutant_matches_block_structure_randomly():
    rng = random.Random(29)
    for _ in range(10):
        # random diagonal with repeated eigenvalues: commutant is the sum
        # of squares of the multiplicities
        eigs = [rng.choice([0, 1, 2]) for _ in range(5)]
        m = Matrix.diagonal([E(3) ** e for e in eigs])
        want = sum(eigs.count(v) ** 2 for v in set(eigs))
        assert commutant_dimension([m]) == want


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
    return d * d - rref(Matrix(rows))[0]


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
        assert commutant_dimension(mats) == want
        seen.add(want)
    assert len(seen) >= 3


def test_commutant_mod_p_is_never_below_the_exact_value():
    # 1 + p is 1 mod p: the reduction is the identity, whose commutant
    # is everything, while the exact commutant is 4*4 + 1
    p = split_primes(1)[0]
    m = Matrix.diagonal([1, 1, 1, 1, 1 + p])
    assert exact_commutant_dimension([m]) == 17
    assert commutant_dimension([m], prime=p) == 25
    q = next(r for r in split_primes(1) if r != p and (r - 1) % 11)
    assert commutant_dimension([m], prime=q) == 17
    # E(11) has no image mod a prime that is not 1 mod 11
    with pytest.raises(BadPrimeError):
        commutant_dimension([Matrix.scalar(5, E(11))], prime=q)


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
