"""Smoothness checks for cubic threefolds by reduction mod p.

A cubic with cyclotomic coefficients reduces to F_p once its conductor
divides p - 1, through linalg's one map to F_p (`reduce_mod_p`).  The
one reduction, `reduce_columns`, reads forms off an integer array on a
power basis over a common denominator, the form in which an
`InvariantSpace` keeps its Reynolds columns, so the probe reduces them
without building an exact form.  Each form drops its own denominator:
a rescale changes neither the zero locus nor smoothness, and p in a
denominator then cannot stop the reduction.  Exact values are made for
the distinct nonzero entries alone (`linalg.exact_values`; a catalog
family has a handful): they give the forms' conductor, and on its power
basis (`linalg.int_array`) their residues.  `reduce_forms` puts exact
forms into that array form (`linalg.int_array`) and reduces them alike.

The projective points of P^4(F_p) are walked chart by chart: chart k
holds the points whose first nonzero coordinate is x_k, scaled to 1.
A point is singular when all five partials vanish; for p != 3 the Euler
relation 3F = sum x_i dF/dx_i makes F itself vanish there too, so the
partials are the whole test.  Charts are scanned in order and points
inside a chart in lexicographic order, so the first singular point
found is a deterministic witness.

In that order P^m is P^(m-1) with each point x followed by x_m = 0, 1,
..., p - 1, and then the point e_m.  So P^4 is every point of P^3 (its
"prefixes") times the p values of t = x4, and then e_4; and P^3 is
every point of P^2 times the p values of y = x3, and then e_3.  Each
partial is a quadric, A t^2 + B t + C with A its x4^2 coefficient, B
linear and C quadratic in the prefix.  A partial P_0 with A_0 != 0 goes
first where there is one, and each other P_j is replaced by
L_j = A_0 P_j - A_j P_0, which has no t^2 term; P_0 and the L_j have
the zeros of the partials.  With no such P_0 the L_j are the partials.
Their parts in x0, x1, x2 are evaluated once over the p^2 + p + 1
points x of P^2, growing them one coordinate at a time as above.  Over
x, L_j = b_j t + c_j with b_j linear and c_j quadratic in y.

Two L_j with a common root t make D = b_j c_k - b_k c_j vanish, a cubic
in y whose y^3 coefficient does not depend on x.  Where some pair has
it nonzero, D made monic and depressed (y = z - a/3, p >= 5) has its at
most three roots read off a cached table of the roots of z^3 + b z + c
over F_p, filled in O(p^2).  Otherwise each point of P^2 takes the
first polynomial in y that does not vanish identically there (c_j
where b_j = 0 for every y, then each pair's D), at most three
roots again, and a point where all of them vanish keeps every y.  This
filter is only a necessary condition: it leaves O(p^2) candidate
prefixes in place of the p^3 + p^2 + p + 1 of P^3, and e_3 is one more.

The exact search then takes the candidates in scan order, in chunks of
whole points of P^2 (about SCAN_BLOCK_PREFIXES prefixes): P_0 is
solved for t by the square roots of F_p when A_0 != 0 (as t = -C/B,
or every t where B = C = 0, when no partial has A != 0), and the L_j
are evaluated only at the (prefix, t) this leaves.  The least survivor
of the first chunk with one is the first singular point, and the scan
stops there; with none, e_4 is singular exactly when every A is 0.
No array over P^3 or P^4 is built.

A reduction that is smooth over the algebraic closure of F_p proves the
characteristic-zero cubic with the same (lifted) coefficients smooth.
The scan, however, only sees the F_p-rational points: a cubic can be
singular at a conjugate pair of points defined over F_(p^2) and still
pass.  So a passing scan means "no rational singular point", and the
probe's certificate is not yet a proof.

A family spanned by monomials, such as that of a diagonal group, needs
no prime and no scan: `torus_strata_certified` proves its general
member smooth from the monomials alone (Bertini off the base locus, a
quasi-smoothness count on each torus stratum of it), or refuses, which
proves nothing, and the probe runs as before.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from .cyclo import _is_prime
from .errors import BadPrimeError
from .invariants import MONOMIALS, N_VARS, CubicForm
from .linalg import (conductor_of, exact_values, int_array, primes_one_mod,
                     reduce_mod_p)

DEFAULT_PRIME_FLOOR = 7
DEFAULT_PRIME_CEILING = 31
# the probe's default sample count and random seed
DEFAULT_TRIALS = 20
DEFAULT_SEED = 0
# P^4(F_p) has about p^4 points, kept below this bound.  The scan holds
# arrays over the points of P^2 and over one chunk of candidate
# prefixes at a time, in int16 (values below 2 p^2 + p) and int32
# (below 3 p^3), exact for every p under the bound.  At p = 127, the
# largest prime below it, one scan of the Fermat cubic takes 3-4 ms
# and peaks at about 1.3 MiB (tracemalloc, the tables of F_p built in
# it): every partial but 3 x4^2 lacks x4, so their c_j leave no
# candidate prefix but e_3
MAX_CHART_POINTS = 1 << 28
# the exact search takes the candidate prefixes (points of P^3) in
# chunks of whole points of P^2 with at most this many: this many over
# 3 points, or over p where a point keeps every value of x3.  At p <= 43
# every array of a scan then stays below glibc's mmap threshold
# (128 KiB), so consecutive scans reuse heap memory
SCAN_BLOCK_PREFIXES = 8192


def _check_prime(p: int) -> None:
    """BadPrimeError unless p is a prime, p >= 5 and p^4 <
    MAX_CHART_POINTS."""
    if not _is_prime(p):
        raise BadPrimeError(f"{p} is not prime")
    if p < 5:
        raise BadPrimeError(
            f"p={p} is too small; the scan needs p >= 5 and p != 3")
    if p ** (N_VARS - 1) >= MAX_CHART_POINTS:
        raise BadPrimeError(
            f"p={p} is too large; the scan's chart grid p^4 must stay "
            f"below 2^28, so p <= 127")


def reduce_columns(array, den: int, n: int, prime: int | None = None):
    """(prime, rows): forms mod prime, read off an integer array.  array
    is (c, 35, phi(n)): row k holds den times form k's coefficients on
    the zeta_n power basis, as `InvariantSpace.columns` keeps them.
    rows is (c, 35) int64.

    Divided by the gcd of den and its entries, a form is its least
    multiple with integral coefficients, so each form drops its own
    denominator.  Exact values are made for the distinct nonzero
    entries alone; their conductor is the forms' conductor, and prime
    defaults to `choose_prime` of it.  This is every check on the scan
    prime: BadPrimeError unless it is a prime, p >= 5, p^4 <
    MAX_CHART_POINTS, the forms' conductor divides p - 1
    (root_of_unity_mod checks that) and no form vanishes identically
    mod p."""
    share = np.gcd.reduce(array, axis=(1, 2), initial=den)
    array = array // share[:, None, None]
    nonzero = array.any(axis=-1)
    values, at = exact_values(1, array[nonzero], n)
    conductor = conductor_of(values)
    if prime is None:
        prime = choose_prime(conductor)
    _check_prime(prime)
    rows = np.zeros(nonzero.shape, dtype=np.int64)
    if values:
        # algebraic integers: integer coefficients, over 1, on any power
        # basis
        nums, _ = int_array(values, conductor)
        rows[nonzero] = reduce_mod_p(nums, conductor, prime)[at]
    if not rows.any(axis=1).all():
        raise BadPrimeError(f"form vanishes identically mod {prime}")
    return prime, rows


def reduce_forms(forms, p: int):
    """(len(forms), 35) int64: each form mod p, a form being a CubicForm
    or its 35 coefficients as integers.  The CubicForms are put on one
    power basis (`int_array`) and go through `reduce_columns`, so each
    drops its own denominator; the checks on p are the same."""
    rows = np.zeros((len(forms), len(MONOMIALS)), dtype=np.int64)
    exact = [i for i, f in enumerate(forms) if isinstance(f, CubicForm)]
    if exact:
        n = conductor_of(c for i in exact for c in forms[i].coefficients)
        array, den = int_array([forms[i].coefficients for i in exact], n)
        rows[exact] = reduce_columns(array, den, n, p)[1]
    else:
        _check_prime(p)
    for i, form in enumerate(forms):
        if not isinstance(form, CubicForm):
            rows[i] = np.remainder(form, p)
            if not rows[i].any():
                raise BadPrimeError(f"form vanishes identically mod {p}")
    return rows


def choose_prime(conductor: int,
                 floor: int = DEFAULT_PRIME_FLOOR,
                 ceiling: int = DEFAULT_PRIME_CEILING) -> int:
    """The least prime p = 1 mod conductor with floor <= p <= ceiling."""
    for p in primes_one_mod(conductor, floor, ceiling + 1):
        return p
    raise BadPrimeError(
        f"no prime in [{floor}, {ceiling}] is 1 mod {conductor}"
    )


def form_conductor(form: CubicForm) -> int:
    return conductor_of(form.coefficients)


@dataclass(frozen=True)
class ScanResult:
    prime: int
    smooth: bool
    points: int
    first_singular: tuple | None


def _derivative_tensor():
    """(35, 5 * 5 * 5) integers: row m holds dx^m/dx_i, for i = 0..4 in
    turn, as an upper triangular 5 x 5 matrix q, the quadric being the
    sum of q[a, b] x_a x_b over a <= b."""
    out = np.zeros((len(MONOMIALS), N_VARS, N_VARS, N_VARS), dtype=np.int64)
    for m, expo in enumerate(MONOMIALS):
        for i in range(N_VARS):
            if expo[i]:
                d = list(expo)
                d[i] -= 1
                a, b = [v for v in range(N_VARS) for _ in range(d[v])]
                out[m, i, a, b] = expo[i]
    return out.reshape(len(MONOMIALS), -1)


_DERIVATIVE = _derivative_tensor()


@functools.cache
def _field_tables(p):
    """(r, square, root, inverse), int16 arrays of p entries: the
    elements r of F_p, the square of each, a square root of each (-1
    for a non-square) and each inverse (0 for 0)."""
    r = np.arange(p, dtype=np.int16)
    square = r * r % p
    root = np.full(p, -1, dtype=np.int16)
    root[square] = r
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)],
                       dtype=np.int16)
    tables = r, square, root, inverse
    for table in tables:  # every scan mod p shares them
        table.flags.writeable = False
    return tables


@functools.cache
def _cubic_tables(p):
    """(depress, roots), int16 tables for the cubics y^3 + a y^2 + b y
    + c over F_p, p >= 5.  With s = a/3 and y = z - s such a cubic is
    z^3 + P z + (c + Q), where depress[a, b] holds P = b - 3s^2,
    Q = 2s^3 - bs and s, mod p.  roots[P, c] lists the roots z in F_p
    of z^3 + P z + c, ascending, padded with -1; each z and P give one
    c, so it is filled in p steps of p entries."""
    # in int16 every product stays below p^2 and every sum in
    # (-p^2, 2 p^2)
    r = _field_tables(p)[0]
    s = r[:, None] * pow(3, -1, p) % p
    depress = np.empty((p, p, 3), dtype=np.int16)
    depress[..., 0] = (r - 3 * (s * s % p)) % p
    depress[..., 1] = (2 * (s * s % p) * s - r * s) % p
    depress[..., 2] = s
    roots = np.full((p, p, 3), -1, dtype=np.int16)
    filled = np.zeros((p, p), dtype=np.intp)
    for z in range(p):
        c = (-z ** 3 % p - r * z) % p  # one c for each P
        roots[r, c, filled[r, c]] = z
        filled[r, c] += 1
    depress.flags.writeable = roots.flags.writeable = False
    return depress, roots


def _flat_index(a, b, p):
    """a p + b as one intp array: the row of entry (a, b) of a (p, p, 3)
    table reshaped to (p^2, 3).  numpy would convert a pair of int16
    index arrays to intp one by one."""
    flat = a.astype(np.intp)
    flat *= p
    flat += b
    return flat


def _add_coordinate(q, m, quad, lin, p):
    """The quadrics q (upper triangular 5 x 5, entries in [0, p)) over
    the points x + c e_m, c = 0, ..., p - 1 in turn for each point x of
    P^(m-1) in quad and lin, as (quad, lin) again.

    Over P^(m-1), quad (len(q), N) holds sum q[a, b] x_a x_b over
    a <= b < m and lin (len(q), 5 - m, N), for each coordinate u >= m,
    the linear form sum q[a, u] x_a over a < m.  Adding x_m = c makes
    each value grow by q's entries at (m, m) or (m, u), and lin loses
    its row for u = m.  Inputs and outputs are in [0, p): before its
    reduction every value stays below 2 p^2 + p."""
    L = len(q)
    y, square = _field_tables(p)[:2]
    block = lin[:, 0, :, None] * y
    block += quad[:, :, None]
    block += q[:, m, m, None, None] * square
    block %= p
    grown = lin[:, 1:, :, None] + q[:, m, m + 1:, None, None] * y
    grown %= p
    return block.reshape(L, -1), grown.reshape(L, N_VARS - 1 - m, -1)


def _plane_tables(q, p):
    """(len(q), 3, p^2 + p + 2) int16 in [0, p): the quadrics q over
    the points x of P^2 in scan order and then e_3, written with
    t = x4 and y = x3 as

        A t^2 + (b(x) + beta y) t + c(x) + g(x) y + delta y^2,

    A, beta and delta being q's entries at (4, 4), (3, 4) and (3, 3),
    the same at every point.  Column x holds g(x), c(x) and b(x).  The
    column of e_3 holds 0, delta and beta: at y = 0 it gives the values
    at e_3.

    The tables are grown one coordinate at a time (`_add_coordinate`),
    each e_m after the points it follows, with q's entries at (m, m)
    and (m, u) as its values."""
    quad, lin = _add_coordinate(q, 1, q[:, 0, 0, None], q[:, 0, 1:, None],
                                p)
    quad = np.concatenate((quad, q[:, 1, 1, None]), axis=1)
    lin = np.concatenate((lin, q[:, 1, 2:, None]), axis=2)
    quad, lin = _add_coordinate(q, 2, quad, lin, p)
    n = quad.shape[1]
    T = np.empty((len(q), 3, n + 2), dtype=np.int16)
    T[:, ::2, :n] = lin
    T[:, 1, :n] = quad
    # e_2 and e_3; q is upper triangular, so q[:, 3, 2] is 0
    T[:, :, n] = q[:, 2, [3, 2, 4]]
    T[:, :, n + 1] = q[:, 3, 2:]
    return T


def _cubic_roots_in_y(a, b, c, p):
    """(N, 3) int16: the roots y in F_p of y^3 + a y^2 + b y + c, one
    cubic per entry of a, b and c (int16 in [0, p)), padded with -1,
    read off `_cubic_tables` as z - s."""
    depress, roots = (t.reshape(-1, 3) for t in _cubic_tables(p))
    P, Q, s = depress[_flat_index(a, b, p)].T
    z = roots[_flat_index(P, (c + Q) % p, p)]
    y = z - s[:, None]
    y %= p
    y[z < 0] = -1
    return y


def _quadratic_roots_in_y(coef, p):
    """(roots, every) for the quadratics coef[0] y^2 + coef[1] y +
    coef[2] mod p, one per column of coef (3, N) int16 in [0, p): roots
    (N, 3) holds values of y, padded with -1, among them every root, and
    every marks the quadratics that vanish identically.  A quadratic f
    is solved as the cubic y f / a, or y^2 f / b when a = 0, which adds
    the root y = 0; a nonzero constant has no root."""
    # where a = 0, coef[[1, 2, 0]] is b, c, 0
    a, b, c = np.where(coef[0] == 0, coef[[1, 2, 0]], coef)
    inverse = _field_tables(p)[3]
    unit = inverse[a]
    roots = _cubic_roots_in_y(b * unit % p, c * unit % p, 0, p)
    roots[a == 0] = -1
    return roots, ~coef.any(axis=0)


# the pairs j < k of up to five rows
_PAIRS = [list(itertools.combinations(range(n), 2))
          for n in range(N_VARS + 1)]


def _resultants(beta, delta, T, j, k, p):
    """(len(j), 3, N) in [0, p), or (3, N) for one pair: for each pair
    of rows j, k of the tables T (`_plane_tables`) of quadrics L linear
    in t = x4, and beta and delta their x3 x4 and x3^2 coefficients,
    b_j c_k - b_k c_j as a cubic in y over T's N columns, less its y^3
    term beta_j delta_k - beta_k delta_j: its coefficients of y^2, y
    and 1.  In int16 every product stays below p^2 and every sum in
    (-2 p^2, 2 p^2)."""
    Tj, Tk = T[j], T[k]
    D = np.empty_like(Tj)
    D[..., 0, :] = (delta[k, None] * Tj[..., 2, :]
                    - delta[j, None] * Tk[..., 2, :])
    D[..., 1:, :] = (Tj[..., 2, None, :] * Tk[..., :2, :]
                     - Tk[..., 2, None, :] * Tj[..., :2, :])
    D[..., :2, :] += (beta[j, None, None] * Tk[..., :2, :]
                      - beta[k, None, None] * Tj[..., :2, :])
    return D % p


def _prefix_filter(L, T, p):
    """(roots, every) as `_quadratic_roots_in_y` gives them: for each
    column x of T, values y of x3 among which is every y where the
    quadrics L, all linear in t = x4, have a common zero (x, y, t).  T
    holds their tables (`_plane_tables`).

    Write L_j = b_j t + c_j.  Two of them with a common root t have
    D = b_j c_k - b_k c_j = 0, a cubic in y whose y^3 coefficient
    beta_j delta_k - beta_k delta_j is the same at every point.  The
    first pair where it is nonzero leaves at most three values of y at
    each point.  Without one, each point takes the first polynomial in
    y that does not vanish identically there: c_j where b_j = 0 for
    every y, then each pair's D.  A point where all vanish keeps every
    y."""
    beta, delta = L[:, 3, 4], L[:, 3, 3]
    b_, d_ = beta.tolist(), delta.tolist()
    for j, k in _PAIRS[len(L)]:
        cube = (b_[j] * d_[k] - b_[k] * d_[j]) % p
        if cube:
            a, b, c = (_resultants(beta, delta, T, j, k, p)
                       * pow(cube, -1, p) % p)
            return (_cubic_roots_in_y(a, b, c, p),
                    np.zeros(T.shape[2], dtype=bool))
    return _quadratic_roots_in_y(_first_nonvanishing(beta, delta, T, p), p)


def _first_nonvanishing(beta, delta, T, p):
    """(3, N) int16 in [0, p): for each column x of the tables T of
    `_prefix_filter`, the coefficients of y^2, y and 1 of the first
    polynomial in y that does not vanish identically there, c_j where
    b_j = 0 for every y and then each pair's D; zero where all vanish.
    Its index arrays are freed when it returns, before the roots are
    read off the tables."""
    j, k = np.array(_PAIRS[len(T)], dtype=np.intp).reshape(-1, 2).T
    chosen = np.zeros((3, T.shape[2]), dtype=np.int16)
    fit = ((T[:, 2] == 0) & (beta == 0)[:, None]
           & (T[:, :2].any(axis=1) | (delta != 0)[:, None]))
    got = fit.any(axis=0)
    x = got.nonzero()[0]
    # the first row that fits, as an argmin: a bool argmax would page in
    # library code (64 KiB of RSS) that no other step of a scan runs
    if len(x):  # there is no fit without an L
        rows = (~fit).argmin(axis=0)[x]
        chosen[0, x] = delta[rows]
        chosen[1:, x] = T[rows, :2, x].T
    # the pairs over the points still open, a block of them at a time
    left = (~got).nonzero()[0] if len(j) else x[:0]
    for s in range(0, len(left), SCAN_BLOCK_PREFIXES):
        x = left[s:s + SCAN_BLOCK_PREFIXES]
        D = _resultants(beta, delta, T[:, :, x], j, k, p)
        chosen[:, x] = D[(~D.any(axis=1)).argmin(axis=0), :,
                         np.arange(len(x))].T
    return chosen


def _candidates(roots, every, p):
    """(x, y) for the prefixes that the exact search looks at: for each
    column x of the tables in turn, the values y in roots[x], or every
    y where every[x] is set.  In chunks of whole columns, at most
    SCAN_BLOCK_PREFIXES prefixes each, or one column."""
    start = 0
    while start < len(roots):
        stop = start + max(1, SCAN_BLOCK_PREFIXES // 3)
        full = every[start:stop].nonzero()[0]
        if len(full):
            stop = start + max(1, SCAN_BLOCK_PREFIXES // p)
            full = full[full < stop - start] + start
        x, k = (roots[start:stop] >= 0).nonzero()
        x += start
        y = roots[x, k]
        if len(full):
            x = np.concatenate((x, np.repeat(full, p)))
            y = np.concatenate((y, np.tile(_field_tables(p)[0],
                                           len(full))))
        yield x, y
        start = stop


_SIGNS = np.array([1, -1], dtype=np.int16)


def _first_candidate(a0, B, C, prefix, p):
    """The least index prefix[i] * p + t, over the columns i of B and C
    and t in F_p, at which the quadric a0 t^2 + B[0] t + C[0] and the
    linear forms B[j] t + C[j] (j >= 1) all vanish mod p; None when
    there is none."""
    elements, _, root, inverse = _field_tables(p)
    # the candidates (i, t) where the first vanishes; in int16, every
    # product here stays below 2 p^2
    b, c = B[0] % p, C[0] % p
    if a0:
        r = root[(b * b - 4 * a0 % p * c) % p]
        i = (r >= 0).nonzero()[0]
        # both roots of each, a double root twice
        t = ((r[i, None] * _SIGNS - b[i, None]) * inverse[2 * a0 % p]
             % p).ravel()
        i = i.repeat(2)
    else:
        line = b.nonzero()[0]
        every = ((b == 0) & (c == 0)).nonzero()[0]
        i = np.concatenate((line, np.repeat(every, p)))
        t = np.concatenate((-c[line] * inverse[b[line]] % p,
                            np.tile(elements, len(every))))
    # the others there, in int32: each value stays below 3 p^3
    t = t.astype(np.int32)
    keep = ((B[1:, i] * t + C[1:, i]) % p == 0).all(axis=0)
    hits = (prefix[i] * p + t)[keep]
    return int(hits.min()) if len(hits) else None


def _scan_point(index, p):
    """The point of P^4(F_p) at `index` in scan order."""
    tail = []
    for m in range(N_VARS - 1, 0, -1):
        if index == (p ** (m + 1) - 1) // (p - 1) - 1:  # e_m, P^m's last
            return (0,) * m + (1,) + tuple(reversed(tail))
        index, c = divmod(index, p)
        tail.append(c)
    return (1,) + tuple(reversed(tail))


def singular_scan(form, prime: int) -> ScanResult:
    """Walk P^4(F_p) for a point where every partial vanishes.

    `form` is a CubicForm or its 35 coefficients as integers, as for
    `reduce_forms`.

    `smooth` is True when no F_p-rational point is singular; singular
    points over extensions of F_p are not seen.  Otherwise the first
    singular point in scan order is the witness.  `points` counts the
    points walked up to and including the witness, or all of P^4(F_p).
    """
    p = prime
    q = (reduce_forms([form], p)[0] @ _DERIVATIVE % p).astype(np.int16)
    q = q.reshape(N_VARS, N_VARS, N_VARS)
    # a nonzero form mod p >= 5 has a nonzero partial; a zero partial
    # vanishes everywhere and is left out.  A partial P_0 with A != 0
    # goes first where there is one, and each other P_j is replaced by
    # L_j = A_0 P_j - A_j P_0, linear in t: the zeros stay the same
    q = q[q.reshape(N_VARS, -1).any(axis=1)]
    q = q[np.argsort(q[:, -1, -1] == 0, kind="stable")]
    a0 = int(q[0, -1, -1])
    if a0:
        q[1:] = (a0 * q[1:] - q[1:, -1, -1, None, None] * q[0]) % p
    T = _plane_tables(q, p)
    square = _field_tables(p)[1]
    linear = int(a0 != 0)
    roots, every = _prefix_filter(q[linear:], T[linear:], p)
    roots[-1], every[-1] = (0, -1, -1), False  # e_3 has y = 0 alone
    for x, y in _candidates(roots, every, p):
        # in int16 B stays below p^2 + p and C below 2 p^2 + p
        Tx = T[:, :, x]
        B = Tx[:, 2] + q[:, 3, 4, None] * y
        C = Tx[:, 1] + Tx[:, 0] * y + q[:, 3, 3, None] * square[y]
        index = _first_candidate(a0, B, C, x * p + y, p)
        if index is not None:
            break
    else:
        index = (p ** N_VARS - 1) // (p - 1) - 1  # e_4, the last point
        if a0:  # at e_4 each partial is its A
            return ScanResult(prime=p, smooth=True, points=index + 1,
                              first_singular=None)
    return ScanResult(prime=p, smooth=False, points=index + 1,
                      first_singular=_scan_point(index, p))


@dataclass(frozen=True)
class ProbeResult:
    certified: bool
    prime: int
    trials: int  # samples requested
    # F_p weights over space.spanning of the smooth member found
    witness: tuple | None
    scan: ScanResult | None  # the last scan made
    scans: int  # scans actually made
    points: int  # sum of the scans' points


def probe_nonempty(space, prime: int | None = None,
                   trials: int = DEFAULT_TRIALS,
                   seed: int = DEFAULT_SEED) -> ProbeResult:
    """Search for a smooth member of the family spanned by the basis.

    Random F_p coefficient vectors are tried against the reduced
    spanning forms until one passes `singular_scan`.  That member has
    no F_p-rational singular point, which is evidence, not a proof, of
    smooth members in characteristic zero.  Exhausting the trials
    proves nothing.  A sample whose weights or reduced member vanish is
    drawn but not scanned, so `scans` can be below `trials`.
    """
    if not space.dimension:
        return ProbeResult(False, prime or 0, 0, None, None, 0, 0)
    p, reduced = reduce_columns(*space.columns, prime)
    rng = random.Random(seed)

    last = None
    scans = points = 0
    for _ in range(trials):
        weights = [rng.randrange(p) for _ in reduced]
        if not any(weights):
            continue
        member = np.array(weights) @ reduced % p
        if not member.any():
            continue
        result = singular_scan(member, p)
        last = result
        scans += 1
        points += result.points
        if result.smooth:
            return ProbeResult(True, p, trials, tuple(weights), result,
                               scans, points)
    return ProbeResult(False, p, trials, None, last, scans, points)


def _strata_tables():
    """(inside, linear, size) over the subsets I of the variables, each
    a 5-bit mask: inside[m, I] when monomial m uses only variables of
    I, linear[m, e, I] when e is outside I and m is x_e times a quadric
    in the variables of I, and size[I] = |I|."""
    masks = np.arange(1 << N_VARS)
    inside = np.zeros((len(MONOMIALS), len(masks)), dtype=bool)
    linear = np.zeros((len(MONOMIALS), N_VARS, len(masks)), dtype=bool)
    for m, expo in enumerate(MONOMIALS):
        support = sum(1 << i for i in range(N_VARS) if expo[i])
        inside[m] = support & ~masks == 0
        for e in range(N_VARS):
            if expo[e] == 1:
                linear[m, e] = support & ~masks == 1 << e
    size = np.array([bin(mask).count("1") for mask in masks.tolist()])
    return inside, linear, size


_INSIDE, _LINEAR, _STRATUM_SIZE = _strata_tables()


def torus_strata_certified(space) -> bool:
    """Whether the general member of a monomial family is smooth, proven
    from its monomials alone; False where the rule does not apply or
    does not settle it, which proves nothing.

    The family must be spanned by monomials: every spanning column of
    the Reynolds array (`space.columns`) has one nonzero coefficient.
    Its general member F = sum c_m m is smooth off the base locus by
    Bertini's theorem in characteristic zero.  The base locus is a union
    of torus strata T_I, the points whose nonzero coordinates are
    exactly those in I, and holds T_I when no system monomial uses only
    the variables of I.  On such a T_I the only partials of F that do
    not vanish identically are the g_e = dF/dx_e, e not in I, that sum
    the system monomials x_I^M x_e; they have disjoint coefficients and
    no monomial vanishes on T_I.  So the general F is smooth on T_I when
    some g_e is a single monomial, or when at least |I| of them are
    nonzero: singularity at a given point of T_I is then at least |I|
    independent linear conditions on the c_m, and T_I has dimension
    |I| - 1.  This is Iano-Fletcher's quasi-smoothness
    criterion ("Working with weighted complete intersections", 2000,
    Thm 8.1) on a monomial linear system: sufficient, not necessary."""
    rows = space.columns[0].any(axis=-1)
    if not len(rows) or (rows.sum(axis=1) != 1).any():
        return False
    system = rows.any(axis=0)
    base = ~_INSIDE[system].any(axis=0)
    terms = _LINEAR[system].sum(axis=0)  # (e, I): monomials in g_e
    passes = ((terms == 1).any(axis=0)
              | ((terms > 0).sum(axis=0) >= _STRATUM_SIZE))
    return bool((passes | ~base)[1:].all())  # I = {} is no stratum
