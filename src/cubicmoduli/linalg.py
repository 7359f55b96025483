"""Dense linear algebra over cyclotomic fields, exact and mod p.

Sized for this project: matrices up to 35x35 (the space of cubic
monomials in five variables) and commutant systems on 5x5 unknowns.
Exact row reduction (`rref`) is `cyclo.rref` on lists of rows.

This module is the package's one boundary between exact values and
integer rows.  `int_array` puts exact values, nested to any shape, on
the zeta_n power basis over one common denominator
(`over_common_denominator`, which also serves a group's own rows), and
`exact_values` makes integer rows exact again, once per distinct row.
Rows are int64 while every coefficient is below 2^62, and Python ints
(object) past it.  Each kernel that multiplies them states a bound on
what it computes, and `_widen` moves its arrays to Python ints when the
bound reaches 2^63.  It is also the package's one map to F_p, for the
commutant, the character route's multiplicities and the smoothness
probe alike: `reduce_mod_p` sends zeta_n to g^((p-1)/n), g the
smallest primitive root mod p, so zeta_m = zeta_n^(n/m) has one image
whatever n it is written over.  The commutant dimension is a rank mod
a split prime p = 1 mod n near 2^30.  Reduction mod p can only lower a
rank, so the F_p value is an upper bound for the exact commutant
dimension; the audit certifies it against the character inner product
<chi, chi>.

The roots of unity on the power basis live here too, the one reader of
`cyclo`'s power table outside `cyclo`: `_root_rows(c)`, every root of
unity in Q(zeta_c) by exponent, and `_pair_table`, zeta_n^a
zeta_field^b, through which the closure and the substitution kernel
multiply coefficient rows.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .cyclo import (
    _is_prime,
    _power_table,
    _prime_factors,
    from_power_basis,
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
def _root_rows(c: int):
    """(m, phi(c)) int64, read-only, m = lcm(2, c) the number of roots
    of unity in Q(zeta_c): row e holds zeta_m^e on the zeta_c power
    basis.  For even c that is the power table; for odd c, zeta_2c^(2j)
    is row j of it and zeta_2c^(2j + c) = -zeta_c^j."""
    table = np.array(_power_table(c), dtype=np.int64)
    if c % 2:
        table = np.stack([table, -np.roll(table, -(c + 1) // 2, axis=0)],
                         axis=1).reshape(2 * c, -1)
    table.flags.writeable = False
    return table


@functools.cache
def _pair_table(n: int, field: int | None = None):
    """(phi(n), phi(field), phi(field)) int64, read-only, n dividing
    field (n when not given): entry (a, b) holds zeta_field^(a field/n +
    b), that is zeta_n^a times zeta_field^b, on the zeta_field power
    basis.  For field = n and a coefficient vector y, y @ table is the
    matrix of multiplication by y (row a holds zeta_n^a y), so the
    product of x and y is x @ (y @ table)."""
    field = field or n
    table = np.array(_power_table(field), dtype=np.int64)
    exponents = (np.arange(len(_power_table(n)[0]))[:, None] * (field // n)
                 + np.arange(table.shape[1]))
    pairs = table[exponents % field]
    pairs.flags.writeable = False
    return pairs


def rref(rows):
    """Reduced row echelon form of rows of exact values by `cyclo.rref`:
    (rank, reduced rows as lists, pivot_columns), the pivot rows first,
    deterministic for a given input.  The given rows are left as they
    are."""
    return _rref(list(rows))


def int_array(values, n: int):
    """(array, den): exact values, nested lists or tuples of any shape,
    on the zeta_n power basis, n a multiple of every value's conductor.
    array[..., :] holds the phi(n) integer coefficients of den times the
    value at [...]; den > 0 is the least common denominator, and the
    dtype is `over_common_denominator`'s."""
    shape, flat = [], [values]
    while isinstance(flat[0], (list, tuple)):
        shape.append(len(flat[0]))
        if set(map(len, flat)) != {shape[-1]}:
            raise ValueError("ragged values")
        flat = list(itertools.chain.from_iterable(flat))
    # keyed by identity: equal values held as one object (the zeros,
    # shared entries) convert once, without hashing a Cyclotomic
    ids = list(map(id, flat))
    basis = {key: power_basis(v, n) for key, v in dict(zip(ids, flat)).items()}
    # int64 where every coefficient fits it, -2^63 left out, which np.abs
    # cannot negate; over_common_denominator applies the 2^62 rule
    big = max(map(abs, itertools.chain.from_iterable(
        num for num, _ in basis.values())))
    nums, dens = zip(*map(basis.__getitem__, ids))
    array, den = over_common_denominator(
        np.array(nums, dtype=np.int64 if big < _INT64_LIMIT else object), dens)
    return array.reshape(*shape, -1), den


def over_common_denominator(nums, dens):
    """(array, den): the integer arrays nums[k] over the denominators
    dens[k] as one array over one denominator, den > 0 the least common
    one.  The dtype is int64 when every coefficient of the result is
    below 2^62, and Python ints (object) otherwise."""
    den = math.lcm(*dens)
    scale = [den // x for x in dens]
    big = max(scale, default=1)
    shape = (-1,) + (1,) * (nums.ndim - 1)
    if nums.dtype != object and _big(nums) * big < _INT62:
        if big == 1:  # every one over den already
            return nums, den
        return nums * np.array(scale, dtype=np.int64).reshape(shape), den
    nums = nums.astype(object) * np.array(scale, dtype=object).reshape(shape)
    return (nums.astype(np.int64) if _big(nums) < _INT62 else nums), den


def exact_values(dens, rows, n: int):
    """(values, codes): the rows of a 2-D integer array on the zeta_n
    power basis, over dens (one int for all rows, or one per row), as
    exact values: each distinct (den, row) once, in order of first
    appearance, and per row its index into values.  The keys, bytes of
    an int64 row or tuples of Python ints, are made 2048 rows at a time,
    so the per-row work runs in C and few keys are held at once."""
    if isinstance(dens, int):
        dens = np.full(len(rows), dens,
                       dtype=np.int64 if dens < _INT64_LIMIT else object)
    as_bytes = dens.dtype != object and rows.dtype != object
    distinct, codes = {}, []
    for start in range(0, len(rows), 2048):
        pairs = np.concatenate([dens[start:start + 2048, None],
                                rows[start:start + 2048]], axis=1)
        keys = (_row_bytes(pairs) if as_bytes
                else list(map(tuple, pairs.tolist())))
        for key in dict.fromkeys(keys):
            distinct.setdefault(key, len(distinct))
        codes += map(distinct.__getitem__, keys)
    pairs = list(distinct)
    if as_bytes and pairs:
        pairs = np.frombuffer(b"".join(pairs), dtype=np.int64).reshape(
            len(pairs), -1).tolist()
    return [from_power_basis(n, pair[1:], pair[0]) for pair in pairs], codes


def _row_bytes(array) -> list:
    """Each row of a 2-D int64 array as its bytes, in one pass."""
    array = np.ascontiguousarray(array)
    as_bytes = np.dtype((np.void, array.itemsize * array.shape[1]))
    return array.view(as_bytes).ravel().tolist()


def _widen(bound: int, *arrays):
    """The arrays as they are when bound, the bound a kernel states on
    every value it computes from them, is below 2^63, so that int64
    cannot overflow; otherwise on Python ints (object)."""
    if bound < _INT64_LIMIT:
        return arrays
    return tuple(a if a.dtype == object else a.astype(object)
                 for a in arrays)


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
