"""Smoothness checks for cubic threefolds by reduction mod p.

A cubic with cyclotomic coefficients reduces to F_p once its conductor
divides p - 1, through linalg's one map to F_p (`reduce_mod_p`).  The
one reduction, `reduce_columns`, reads forms off an integer array on a
power basis over a common denominator, the form in which an
`InvariantSpace` keeps its Reynolds columns, so the probe reduces them
without building an exact form.  Each form drops its own denominator:
a rescale changes neither the zero locus nor smoothness, and p in a
denominator then cannot stop the reduction.  Exact values are made for
the distinct nonzero entries alone (a catalog family has a handful),
and they give the forms' conductor and their residues.  `reduce_forms`
puts exact forms into that array form and reduces them the same way.

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
every point of P^2 times the p values of x3, and then e_3.  Each
partial is a quadric, A t^2 + B(x) t + C(x) with A its x4^2
coefficient, B linear and C quadratic in the prefix x.  The parts of B
and C in x0, x1, x2 are evaluated once over the p^2 + p + 1 points of
P^2, growing them one coordinate at a time as above.  x3 is then added
over a block of consecutive points of P^2 at a time, about
SCAN_BLOCK_PREFIXES prefixes, and the block is searched before the next
one is built; e_3 comes last, as a block of its own.  No array over
P^3 or P^4 is built, and a block's temporaries are small enough that
the allocator hands the same memory back for the next block instead
of mapping fresh pages.

In a block, one partial is solved for t at every prefix, one with
A != 0 where there is one: by the square roots of F_p (a table of p
entries) when A != 0, as t = -C/B where B != 0 when A = 0, and for
every t where B = C = 0.  That leaves about one candidate point per
prefix, and at most two when A != 0; the other partials are evaluated only
at the candidates left, by looking up their B and C.  The blocks run in
scan order, so the least candidate of the first block with one left is
the first singular point, and the scan stops there.

A reduction that is smooth over the algebraic closure of F_p proves the
characteristic-zero cubic with the same (lifted) coefficients smooth.
The scan, however, only sees the F_p-rational points: a cubic can be
singular at a conjugate pair of points defined over F_(p^2) and still
pass.  So a passing scan means "no rational singular point", and the
probe's certificate is not yet a proof.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .cyclo import _is_prime, from_power_basis, power_basis
from .errors import BadPrimeError
from .invariants import MONOMIALS, N_VARS, CubicForm
from .linalg import (Matrix, conductor_of, int_array, primes_one_mod,
                     reduce_mod_p)

DEFAULT_PRIME_FLOOR = 7
DEFAULT_PRIME_CEILING = 31
# P^4(F_p) has about p^4 points, kept below this bound.  The scan holds
# arrays over the points of P^2 and over one block of P^3 at a time, in
# int16 (values of size below 2 p^2) and int32 (below 3 p^3), exact for
# every p under the bound.  At p = 127, the largest prime below it, one
# scan of the Fermat cubic walks 256 blocks in about 0.13 s and peaks
# at about 1 MiB (tracemalloc): the partial it solves first is 3 x4^2,
# which has A != 0 and so leaves at most two candidates per prefix
MAX_CHART_POINTS = 1 << 28
# about this many prefixes (points of P^3) make one block of the scan:
# whole runs of p, one run per point of P^2.  For a dense form a block's
# arrays then hold a few tens of KiB each, below glibc's mmap threshold
# (128 KiB), so the next block reuses them from the heap
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
    distinct = {}
    at = [distinct.setdefault(tuple(v), len(distinct))
          for v in array[nonzero].tolist()]
    values = [from_power_basis(n, v) for v in distinct]
    conductor = conductor_of(values)
    if prime is None:
        prime = choose_prime(conductor)
    _check_prime(prime)
    rows = np.zeros(nonzero.shape, dtype=np.int64)
    if values:
        # algebraic integers: integer coefficients on any power basis
        nums = np.array([power_basis(v, conductor)[0] for v in values],
                        dtype=object)
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
        array, den = int_array(
            [Matrix([forms[i].coefficients for i in exact])], n)
        rows[exact] = reduce_columns(array[0], den, n, p)[1]
    else:
        _check_prime(p)
    for i, form in enumerate(forms):
        if not isinstance(form, CubicForm):
            rows[i] = [int(c) % p for c in form]
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
    """(root, inverse), int16 arrays of p entries: a square root of each
    element of F_p (-1 for a non-square) and each inverse (0 for 0)."""
    r = np.arange(p, dtype=np.int16)
    root = np.full(p, -1, dtype=np.int16)
    root[r * r % p] = r
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)],
                       dtype=np.int16)
    # every scan mod p shares them
    root.flags.writeable = inverse.flags.writeable = False
    return root, inverse


def _add_coordinate(q, m, quad, lin, p):
    """The quadrics q (upper triangular 5 x 5, entries in [0, p)) over
    the points x + c e_m, c = 0, ..., p - 1 in turn for each point x of
    P^(m-1) in quad and lin, as (quad, lin) again.

    Over P^(m-1), quad (len(q), N) holds sum q[a, b] x_a x_b over
    a <= b < m and lin (len(q), 5 - m, N), for each coordinate u >= m,
    the linear form sum q[a, u] x_a over a < m.  Adding x_m = c makes
    each value grow by q's entries at (m, m) or (m, u), and lin loses
    its row for u = m.  The inputs are reduced mod p first, so every
    value stays below 2 p^2."""
    L = len(q)
    y = np.arange(p, dtype=np.int16)
    quad, lin = quad % p, lin % p
    block = lin[:, 0, :, None] * y
    block += quad[:, :, None]
    block += q[:, m, m, None, None] * (y * y % p) % p
    grown = lin[:, 1:, :, None] + q[:, m, m + 1:, None, None] * y
    return block.reshape(L, -1), grown.reshape(L, N_VARS - 1 - m, -1)


def _blocks(q, p):
    """(offset, B, C) for each block of prefixes, in scan order: the
    quadrics q written as A t^2 + B(x) t + C(x) with t = x4, B and C
    (len(q), k) int16 over the block's k prefixes x, and offset the
    index of the block's first point of P^4.

    The tables over P^2 are built once, each e_m (m = 1, 2) after the
    points it follows, with q's entries at (m, m) and (m, u) as its
    values.  A block then adds x3 to SCAN_BLOCK_PREFIXES // p
    consecutive points of P^2 (at least one); e_3 is the last block."""
    quad = q[:, 0, 0, None]
    lin = q[:, 0, 1:, None]
    for m in (1, 2):
        quad, lin = _add_coordinate(q, m, quad, lin, p)
        quad = np.concatenate((quad, q[:, m, m, None]), axis=1)
        lin = np.concatenate((lin, q[:, m, m + 1:, None]), axis=2)
    rows = max(1, SCAN_BLOCK_PREFIXES // p)
    for start in range(0, quad.shape[1], rows):
        C, B = _add_coordinate(q, 3, quad[:, start:start + rows],
                               lin[:, :, start:start + rows], p)
        yield start * p * p, B[:, 0], C
    yield quad.shape[1] * p * p, q[:, 3, 4, None], q[:, 3, 3, None]


def _first_candidate(a, B, C, p):
    """The least index prefix * p + t, over the prefixes of B and C and
    t in F_p, at which every quadric A t^2 + B t + C vanishes mod p, A
    the entry of a; None when there is none."""
    root, inverse = _field_tables(p)
    # the candidates (prefix, t) where the first partial vanishes; in
    # int16, every product here stays below 2 p^2
    a0 = int(a[0])
    b, c = B[0] % p, C[0] % p
    if a0:
        d = b * b
        d -= 4 * a0 % p * c
        d %= p
        r = root[d]
        one, two = np.flatnonzero(r >= 0), np.flatnonzero(r > 0)
        prefix = np.concatenate((one, two))
        t = (np.concatenate((r[one] - b[one], -r[two] - b[two]))
             * inverse[2 * a0 % p] % p)
    else:
        line = np.flatnonzero(b)
        every = np.flatnonzero((b == 0) & (c == 0))
        prefix = np.concatenate((line, np.repeat(every, p)))
        t = np.concatenate((-c[line] * inverse[b[line]] % p,
                            np.tile(np.arange(p, dtype=np.int16),
                                    len(every))))
    # the other partials, in int32: each value stays below 3 p^3
    t = t.astype(np.int32)
    for j in range(1, len(a)):
        if not len(prefix):
            return None
        value = (a[j] * t + B[j][prefix]) * t + C[j][prefix]
        keep = value % p == 0
        prefix, t = prefix[keep], t[keep]
    return int((prefix * p + t).min()) if len(prefix) else None


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
    # vanishes everywhere and is left out.  A partial with A != 0 goes
    # first where there is one: solved for t it leaves at most two
    # candidates per prefix.  The witness is the least candidate that
    # every partial keeps, so the order does not change it
    q = q[q.reshape(N_VARS, -1).any(axis=1)]
    q = q[np.argsort(q[:, -1, -1] == 0, kind="stable")]
    a = q[:, -1, -1]
    for offset, B, C in _blocks(q, p):
        index = _first_candidate(a, B, C, p)
        if index is not None:
            index += offset
            break
    else:
        last = offset + p  # e_4 follows e_3's p points
        if a.any():  # at e_4 each partial is its A
            return ScanResult(prime=p, smooth=True, points=last + 1,
                              first_singular=None)
        index = last
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


def probe_nonempty(space, prime: int | None = None, trials: int = 20,
                   seed: int = 0) -> ProbeResult:
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
