"""Smoothness checks for cubic threefolds by reduction mod p.

A cubic with cyclotomic coefficients reduces to F_p once its conductor
divides p - 1, through linalg's one map to F_p (`int_array`, then
`reduce_mod_p`).  Each form drops its own denominator: a rescale changes
neither the zero locus nor smoothness, and p in a denominator then
cannot stop the reduction.

The projective points of P^4(F_p) are walked chart by chart: chart k
holds the points whose first nonzero coordinate is x_k, scaled to 1.
A point is singular when all five partials vanish; for p != 3 the Euler
relation 3F = sum x_i dF/dx_i makes F itself vanish there too, so the
partials are the whole test.  Charts are scanned in order and points
inside a chart in lexicographic order, so the first singular point
found is a deterministic witness.

Each partial is a quadric.  On chart k it is restricted once, with
x_k = 1 and x_0..x_(k-1) = 0, to a polynomial of degree <= 2 in the
free coordinates, held as at most six p x p tables, one per pair of
free coordinates.  One partial that does not vanish on the chart is
summed over the whole chart grid by broadcasting its tables; it
vanishes at about p^(free-1) of the p^free points.  Only those
survivors are passed to the other partials, one at a time, by table
lookups, and the chart is done as soon as none survive.  The smallest
surviving index is the first singular point in scan order.

A reduction that is smooth over the algebraic closure of F_p proves the
characteristic-zero cubic with the same (lifted) coefficients smooth.
The scan, however, only sees the F_p-rational points: a cubic can be
singular at a conjugate pair of points defined over F_(p^2) and still
pass.  So a passing scan means "no rational singular point", and the
probe's certificate is not yet a proof.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .cyclo import _is_prime
from .errors import BadPrimeError
from .invariants import MONOMIALS, N_VARS, CubicForm
from .linalg import (Matrix, conductor_of, int_array, primes_one_mod,
                     reduce_mod_p)

DEFAULT_PRIME_FLOOR = 7
DEFAULT_PRIME_CEILING = 31
# the scan holds arrays over a chart grid of p^4 points; at p = 127, the
# largest prime below this bound, one scan peaks at about 1.3 GiB
MAX_CHART_POINTS = 1 << 28


def reduce_forms(forms, p: int):
    """(len(forms), 35) int64: each form mod p, a form being a CubicForm
    or its 35 coefficients as integers; a CubicForm's own denominator is
    dropped.  This is every check on the scan prime: BadPrimeError unless
    p is a prime, p >= 5, p^4 < MAX_CHART_POINTS, the forms' conductor
    divides p - 1 (root_of_unity_mod checks that) and no form vanishes
    identically mod p."""
    if not _is_prime(p):
        raise BadPrimeError(f"{p} is not prime")
    if p < 5:
        raise BadPrimeError(
            f"p={p} is too small; the scan needs p >= 5 and p != 3")
    if p ** (N_VARS - 1) >= MAX_CHART_POINTS:
        raise BadPrimeError(
            f"p={p} is too large; the scan's chart grid p^4 must stay "
            f"below 2^28, so p <= 127")
    n = conductor_of(c for f in forms if isinstance(f, CubicForm)
                     for c in f.coefficients)
    rows = []
    for form in forms:
        if isinstance(form, CubicForm):
            array, _ = int_array([Matrix([form.coefficients])], n)
            row = reduce_mod_p(array, n, p).reshape(-1)
        else:
            row = np.array([int(c) % p for c in form], dtype=np.int64)
        if not row.any():
            raise BadPrimeError(f"form vanishes identically mod {p}")
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, len(MONOMIALS))


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


# the 15 quadratic monomials x_a*x_b (a <= b) that the partials are made of
_QUADS = [(a, b) for a in range(N_VARS) for b in range(a, N_VARS)]


def _derivative_tensor():
    """(35, 5 * 15) integers: row m holds the multiple of each quadratic
    monomial in dx^m/dx_i, for i = 0..4 in turn."""
    out = np.zeros((len(MONOMIALS), N_VARS, len(_QUADS)), dtype=np.int64)
    for m, expo in enumerate(MONOMIALS):
        for i in range(N_VARS):
            if expo[i]:
                d = list(expo)
                d[i] -= 1
                a, b = [v for v in range(N_VARS) for _ in range(d[v])]
                out[m, i, _QUADS.index((a, b))] = expo[i]
    return out.reshape(len(MONOMIALS), -1)


def _chart_layout(chart):
    """How a partial restricted to a chart splits into small tables.

    On chart k < 4, x_k = 1 and x_0..x_(k-1) = 0, so each quadratic
    monomial becomes a monomial of degree <= 2 in the free coordinates
    x_(k+1)..x_4 (axes 0..free-1 of the chart's grid), or vanishes.
    The tables ("factors") are indexed by the pairs of free axes (by the
    one free axis on chart 3); a monomial goes into the first factor
    whose axes cover the ones it uses, at the slot of its exponents on
    those axes.  Returns the factors' axes, the slots' exponents and the
    0/1 matrix (15, factors * slots) taking quadratic-monomial
    coefficients to slot coefficients.
    """
    free = N_VARS - 1 - chart
    # pairs ordered by their larger axis, so that a running sum over
    # them stays below the full grid size for as long as it can
    factors = (sorted(itertools.combinations(range(free), 2),
                      key=lambda pair: pair[::-1]) if free >= 2
               else [(0,)])
    slots = [e for e in itertools.product(range(3), repeat=len(factors[0]))
             if sum(e) <= 2]
    spread = np.zeros((len(_QUADS), len(factors) * len(slots)),
                      dtype=np.int64)
    for q, (a, b) in enumerate(_QUADS):
        if a < chart:
            continue
        expo = [0] * free
        for v in (a, b):
            if v > chart:
                expo[v - chart - 1] += 1
        used = {t for t in range(free) if expo[t]}
        j = next(j for j, axes in enumerate(factors) if used <= set(axes))
        slot = slots.index(tuple(expo[t] for t in factors[j]))
        spread[q, j * len(slots) + slot] = 1
    return factors, slots, spread


_DERIVATIVE = _derivative_tensor()
_LAYOUTS = [_chart_layout(chart) for chart in range(N_VARS - 1)]
_LAST = _QUADS.index((N_VARS - 1, N_VARS - 1))


def _slot_tables(slots, p):
    """(slots, p^arity): each slot's monomial evaluated on the grid of
    its factor's axes, mod p."""
    arity = len(slots[0])
    axes = np.indices((p,) * arity, dtype=np.int64).reshape(1, arity, -1)
    return (axes ** np.array(slots)[:, :, None]).prod(axis=1) % p


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
    partials = ((reduce_forms([form], p)[0] @ _DERIVATIVE) % p
                ).reshape(N_VARS, -1)

    points_seen = 0
    for chart, (factors, slots, spread) in enumerate(_LAYOUTS):
        free = N_VARS - 1 - chart
        grid = (p,) * free
        arity = len(slots[0])
        restricted = (partials @ spread) % p
        tables = (restricted.reshape(-1, len(slots))
                  @ _slot_tables(slots, p)) % p
        tables = tables.reshape((N_VARS, len(factors)) + (p,) * arity)
        live = [i for i in range(N_VARS) if tables[i].any()]
        if live:
            # every table entry is below p, so the sum fits the smallest
            # type that holds len(factors) * (p - 1)
            first = tables[live[0]].astype(
                np.min_scalar_type(len(factors) * (p - 1)))
            total = 0
            for axes, table in zip(factors, first):
                shape = [1] * free
                for t in axes:
                    shape[t] = p
                total = total + table.reshape(shape)
            survivors = np.flatnonzero(total % p == 0)
        else:
            # every partial vanishes on the chart: its first point is
            # singular
            survivors = np.arange(1)
        ys = np.unravel_index(survivors, grid)
        for i in live[1:]:
            if not len(survivors):
                break
            value = sum(table[tuple(ys[t] for t in axes)]
                        for axes, table in zip(factors, tables[i]))
            keep = value % p == 0
            survivors = survivors[keep]
            ys = tuple(y[keep] for y in ys)

        if len(survivors):
            witness = ((0,) * chart + (1,)
                       + tuple(int(y[0]) for y in ys))
            return ScanResult(
                prime=p,
                smooth=False,
                points=points_seen + int(survivors[0]) + 1,
                first_singular=witness,
            )
        points_seen += p ** free

    # the last chart is the single point e_4, where each partial is its
    # x4^2 coefficient
    points_seen += 1
    if partials[:, _LAST].any():
        return ScanResult(prime=p, smooth=True, points=points_seen,
                          first_singular=None)
    return ScanResult(prime=p, smooth=False, points=points_seen,
                      first_singular=(0,) * (N_VARS - 1) + (1,))


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
    forms = space.spanning
    if prime is None:
        prime = choose_prime(conductor_of(
            c for f in forms for c in f.coefficients))
    reduced = reduce_forms(forms, prime)
    rng = random.Random(seed)
    p = prime

    last = None
    scans = points = 0
    for _ in range(trials):
        weights = [rng.randrange(p) for _ in forms]
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
