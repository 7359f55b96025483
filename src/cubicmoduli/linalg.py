"""Dense linear algebra over cyclotomic fields, exact and mod p.

Sized for this project: matrices up to 35x35 (the space of cubic
monomials in five variables) and commutant systems on 5x5 unknowns.
Exact row reduction of a Matrix is `cyclo.rref` on its rows.

The matrix kernels work on one integer-array form of a list of
matrices (`int_array`): entry (i, j) of matrix k becomes the integer
coefficients of its value on the zeta_n power basis, over one common
denominator.  This module is the package's one map to F_p, for the
commutant, the character route's multiplicities and the smoothness
probe alike: `reduce_mod_p` sends zeta_n to g^((p-1)/n), g the
smallest primitive root mod p, so zeta_m = zeta_n^(n/m) has one image
whatever n it is written over.  The commutant dimension is a rank mod
a split prime p = 1 mod n near 2^30.  Reduction mod p can only lower a
rank, so the F_p value is an upper bound for the exact commutant
dimension; the audit certifies it against the character inner product
<chi, chi>.

The table of zeta_n^(a + b) on the power basis (`_pair_table`), through
which the closure and the substitution kernel multiply coefficient
rows, lives here with the overflow bound they share (`_big`).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .cyclo import (
    ZERO,
    ONE,
    Cyclotomic,
    _is_prime,
    _power_table,
    _prime_factors,
    cyclo,
    power_basis,
    rref as _rref,
)
from .errors import BadPrimeError

# rank primes stay below 2^31, so that a product of two residues fits
# an int64; they start at 2^30, where a prime that lowers a rank of
# these small systems is very unlikely
RANK_PRIME_FLOOR = 1 << 30
RANK_PRIME_CEILING = 1 << 31
# split primes tried for a certified rank before a shortfall is
# reported as an inconsistency
RANK_PRIME_ATTEMPTS = 4
# an int64 product is formed only when a bound proves that it fits
_INT64_LIMIT = 1 << 63
# the bound below which int_array keeps coefficients in int64
_INT62 = 1 << 62


def _big(array) -> int:
    return int(np.abs(array).max()) if array.size else 0


@functools.cache
def _pair_table(n: int):
    """(phi(n), phi(n), phi(n)) int64, read-only: entry (a, b) holds
    zeta_n^(a + b) on the power basis.  For a coefficient vector y,
    y @ table is the matrix of multiplication by y (row a holds zeta_n^a
    y), so the product of x and y is x @ (y @ table)."""
    table = np.array(_power_table(n), dtype=np.int64)
    phi = table.shape[1]
    pairs = table[(np.arange(phi)[:, None] + np.arange(phi)) % n]
    pairs.flags.writeable = False
    return pairs


class Matrix:
    """Immutable matrix with Cyclotomic entries, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_of_entries):
        data = []
        widths = []
        for row in rows_of_entries:
            entries = [v if isinstance(v, Cyclotomic) else cyclo(v)
                       for v in row]
            data += entries
            widths.append(len(entries))
        assert widths, "matrix needs at least one row"
        assert widths.count(widths[0]) == len(widths), "ragged rows"
        object.__setattr__(self, "rows", len(widths))
        object.__setattr__(self, "cols", widths[0])
        object.__setattr__(self, "data", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def scalar(n: int, value) -> "Matrix":
        v = cyclo(value)
        return Matrix([[v if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(values) -> "Matrix":
        vals = [cyclo(v) for v in values]
        n = len(vals)
        return Matrix([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, key) -> Cyclotomic:
        i, j = key
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[Cyclotomic, ...]:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[Cyclotomic, ...]:
        return self.data[j::self.cols]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            assert self.cols == other.rows, "shape mismatch"
            out = []
            for i in range(self.rows):
                lhs = self.row(i)
                row = []
                for j in range(other.cols):
                    acc = ZERO
                    for k, a in enumerate(lhs):
                        if a:
                            b = other.data[k * other.cols + j]
                            if b:
                                acc = acc + a * b
                    row.append(acc)
                out.append(row)
            return Matrix(out)
        v = cyclo(other)
        return Matrix([[x * v for x in self.row(i)] for i in range(self.rows)])

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix([
            [a + b for a, b in zip(self.row(i), other.row(i))]
            for i in range(self.rows)
        ])

    def __sub__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix([
            [a - b for a, b in zip(self.row(i), other.row(i))]
            for i in range(self.rows)
        ])

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.cols)])

    def trace(self) -> Cyclotomic:
        assert self.rows == self.cols
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def inverse(self) -> "Matrix":
        assert self.rows == self.cols
        n = self.rows
        aug = Matrix([
            list(self.row(i)) + [ONE if j == i else ZERO for j in range(n)]
            for i in range(n)
        ])
        rank, red, pivots = rref(aug)
        if pivots[:n] != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix([red.row(i)[n:] for i in range(n)])

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def rref(m: Matrix):
    """Reduced row echelon form by `cyclo.rref`: (rank, reduced_matrix,
    pivot_columns), deterministic for a given input."""
    rank, rows, pivots = _rref([list(m.row(i)) for i in range(m.rows)])
    return rank, Matrix(rows), pivots


def int_array(mats, n: int):
    """(array, den): the matrices on the zeta_n power basis, n a multiple
    of every entry's conductor.  array[k, i, j] holds the phi(n) integer
    coefficients of den * mats[k][i, j]; den > 0 is the least common
    denominator.  The dtype is int64 when every coefficient fits below
    2^62, and Python ints (object) otherwise."""
    # keyed by identity: equal values held as one object (the zeros,
    # shared entries) convert once, without hashing a Cyclotomic
    coeffs = {}
    for m in mats:
        for v in m.data:
            if id(v) not in coeffs:
                coeffs[id(v)] = power_basis(v, n)
    den = math.lcm(*(vd for _, vd in coeffs.values()))
    scaled = {k: num if vd == den else [x * (den // vd) for x in num]
              for k, (num, vd) in coeffs.items()}
    big = max(abs(x) for num in scaled.values() for x in num)
    array = np.array([[scaled[id(v)] for v in m.data] for m in mats],
                     dtype=np.int64 if big < _INT62 else object)
    return array.reshape(len(mats), mats[0].rows, mats[0].cols, -1), den


def conductor_of(values) -> int:
    """The least n with every one of the cyclotomic values in Q(zeta_n)."""
    return math.lcm(1, *(v.conductor for v in values))


def primes_one_mod(n: int, floor: int, ceiling: int):
    """The odd primes p = 1 mod n in [floor, ceiling), ascending."""
    step = n if n % 2 == 0 else 2 * n  # p - 1 is even
    p = floor + (1 - floor) % step
    while p < ceiling:
        if _is_prime(p):
            yield p
        p += step


@functools.lru_cache(maxsize=256)
def split_primes(n: int) -> tuple[int, ...]:
    """The first RANK_PRIME_ATTEMPTS primes p = 1 mod n in [2^30, 2^31),
    ascending: the primes a certified rank is tried at.  Memoized per n,
    since each one costs primality tests from 2^30 upwards and every
    class profile and rank asks for them."""
    return tuple(itertools.islice(
        primes_one_mod(n, RANK_PRIME_FLOOR, RANK_PRIME_CEILING),
        RANK_PRIME_ATTEMPTS))


@functools.lru_cache(maxsize=256)
def root_of_unity_mod(n: int, p: int) -> int:
    """The image of zeta_n in F_p, p prime: g^((p-1)/n) for g the
    smallest primitive root mod p.  g is found from the prime factors of
    p - 1, so this stays cheap for p near 2^31.  Raises BadPrimeError
    unless n divides p - 1."""
    if (p - 1) % n:
        raise BadPrimeError(f"conductor {n} does not divide p-1 = {p - 1}")
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return pow(g, (p - 1) // n, p)
    raise BadPrimeError(f"{p} has no primitive root; not prime?")


def reduce_mod_p(array, n: int, p: int):
    """An int_array (its denominator dropped) mod p, zeta_n sent to
    root_of_unity_mod(n, p): int64 residues, one axis shorter."""
    w = root_of_unity_mod(n, p)
    powers = np.array([pow(w, k, p) for k in range(array.shape[-1])],
                      dtype=np.int64)
    # each product is below p^2 < 2^62 and is reduced before the sum
    return ((array % p).astype(np.int64) * powers % p).sum(axis=-1) % p


def pivots_mod_p(m, p: int) -> tuple:
    """The pivot columns of an int64 matrix with entries in [0, p), p a
    prime below 2^31: left to right, each column that is independent mod
    p of the columns before it.  Their number is the rank mod p.  Each
    pivot updates only the rows below it that are nonzero in its
    column; every other row is left as it is."""
    m = m[m.any(axis=1)]
    pivots = []
    for col in range(m.shape[1]):
        rank = len(pivots)
        nonzero = m[rank:, col].nonzero()[0]
        if not len(nonzero):
            continue
        pivot = rank + nonzero[0]
        if pivot != rank:
            # the row at rank is zero in col, so the swap moves no row
            # that the update below must reach
            m[[rank, pivot]] = m[[pivot, rank]]
        pivots.append(col)
        if len(nonzero) > 1:
            rows = rank + nonzero[1:]
            m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
            # each product is below p^2 < 2^62
            m[rows] = (m[rows] - m[rows, col][:, None] * m[rank]) % p
        if len(pivots) == len(m):
            break
    return tuple(pivots)


def rank_mod_p(m, p: int) -> int:
    """Rank of an int64 matrix with entries in [0, p), p < 2^31."""
    return len(pivots_mod_p(m, p))


def commutant_dimension(array, n: int, prime: int | None = None) -> int:
    """Dimension over F_p of the d x d matrices commuting with each matrix
    of an `int_array` over zeta_n: d*d minus the rank mod p of the stacked
    systems (I (x) g^T - g (x) I) vec(X) = 0, that is X*g = g*X.

    p must be a prime below 2^31 with p = 1 mod n; by default it is the
    first of split_primes(n).  The result is at least the exact
    (characteristic-zero) dimension and equals it unless p divides one
    of the system's minors.  The array's denominator is dropped: a
    nonzero multiple of g has the same commutant."""
    assert len(array), "need at least one matrix"
    d = array.shape[1]
    if prime is None:
        prime = split_primes(n)[0]
    elif not (_is_prime(prime) and prime < RANK_PRIME_CEILING):
        raise BadPrimeError(f"{prime} is not a prime below 2^31")
    g = reduce_mod_p(array, n, prime)
    eye = np.eye(d, dtype=np.int64)
    # row (i, j), column (a, b) of the system for one g:
    # delta(i, a) * g[b, j] - g[i, a] * delta(j, b)
    system = (np.einsum("ia,kbj->kijab", eye, g)
              - np.einsum("kia,jb->kijab", g, eye)) % prime
    return d * d - rank_mod_p(system.reshape(-1, d * d), prime)
