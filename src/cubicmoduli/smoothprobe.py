"""Smoothness checks for cubic threefolds by reduction mod p.

A cubic with cyclotomic coefficients reduces to F_p once p is split
enough: every coefficient conductor must divide p - 1.  The reduction
sends the root of unity E(n) to g^((p-1)/n) where g is the smallest
primitive root mod p; using one g for all conductors keeps the images
compatible the way the E(n) system itself is.

The projective points of P^4(F_p) are walked chart by chart: chart k
holds the points whose first nonzero coordinate is x_k, scaled to 1.
A point is singular when all five partials vanish; for p != 3 the Euler
relation 3F = sum x_i dF/dx_i makes F itself vanish there too, so the
partials are the whole test.  Charts are scanned in order and points
inside a chart in lexicographic order, so the first singular point
found is a deterministic witness.

A reduction that is smooth over the algebraic closure of F_p proves the
characteristic-zero cubic with the same (lifted) coefficients smooth.
The scan, however, only sees the F_p-rational points: a cubic can be
singular at a conjugate pair of points defined over F_(p^2) and still
pass.  So a passing scan means "no rational singular point", and the
probe's certificate is not yet a proof.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .cyclo import Cyclotomic, _is_prime, cyclo
from .errors import BadPrimeError
from .invariants import MONOMIALS, N_VARS, CubicForm

DEFAULT_PRIME_FLOOR = 7
DEFAULT_PRIME_CEILING = 31


def smallest_primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise BadPrimeError(f"{p} has no primitive root; not prime?")


class PrimeReduction:
    """Reduction of cyclotomic numbers to F_p via the smallest primitive
    root."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise BadPrimeError(f"{p} is not prime")
        if p < 5:
            raise BadPrimeError(
                f"p={p} is too small; the scan needs p >= 5 and p != 3"
            )
        self.p = p
        self.root = smallest_primitive_root(p)

    def reduce(self, value: Cyclotomic) -> int:
        value = cyclo(value)
        n = value.conductor
        if (self.p - 1) % n:
            raise BadPrimeError(
                f"conductor {n} does not divide p-1 = {self.p - 1}"
            )
        z = pow(self.root, (self.p - 1) // n, self.p)
        acc = 0
        zi = 1
        for fr in value.coefficients():
            if fr:
                den = fr.denominator % self.p
                if den == 0:
                    raise BadPrimeError(
                        f"p={self.p} divides a coefficient denominator"
                    )
                acc = (acc + fr.numerator * pow(den, -1, self.p) * zi)
            zi = zi * z % self.p
        return acc % self.p

    def reduce_form(self, form: CubicForm) -> tuple:
        out = tuple(self.reduce(c) for c in form.coefficients)
        if not any(out):
            raise BadPrimeError(
                f"form vanishes identically mod {self.p}"
            )
        return out


def choose_prime(conductor: int,
                 floor: int = DEFAULT_PRIME_FLOOR,
                 ceiling: int = DEFAULT_PRIME_CEILING) -> int:
    for p in range(floor, ceiling + 1):
        if _is_prime(p) and (p - 1) % conductor == 0:
            return p
    raise BadPrimeError(
        f"no prime in [{floor}, {ceiling}] is 1 mod {conductor}"
    )


def form_conductor(form: CubicForm) -> int:
    n = 1
    for c in form.coefficients:
        n = math.lcm(n, c.conductor)
    return n


@dataclass(frozen=True)
class ScanResult:
    prime: int
    smooth: bool
    points: int
    first_singular: tuple | None


def _partials(coeffs_mod_p):
    """Per variable: list of (coefficient mod p, exponent tuple) for the
    derivative, coefficients folded but not reduced to a canonical poly
    since the monomial list has no duplicates anyway."""
    out = []
    for i in range(N_VARS):
        terms = []
        for expo, c in zip(MONOMIALS, coeffs_mod_p):
            if c and expo[i]:
                d = list(expo)
                d[i] -= 1
                terms.append((c * expo[i], tuple(d)))
        out.append(terms)
    return out


def singular_scan(form: CubicForm, prime: int) -> ScanResult:
    """Walk P^4(F_p) for a point where every partial vanishes.

    `smooth` is True when no F_p-rational point is singular; singular
    points over extensions of F_p are not seen.  Otherwise the first
    singular point in scan order is the witness.
    """
    red = PrimeReduction(prime)
    coeffs = red.reduce_form(form)
    partials = _partials(coeffs)
    p = prime

    points_seen = 0
    for chart in range(N_VARS):
        free = N_VARS - 1 - chart
        if free:
            grid = np.indices((p,) * free, dtype=np.int64).reshape(free, -1)
        else:
            grid = np.zeros((0, 1), dtype=np.int64)
        count = grid.shape[1]
        coords = np.zeros((N_VARS, count), dtype=np.int64)
        coords[chart] = 1
        for row in range(free):
            coords[chart + 1 + row] = grid[row]

        pows = {}

        def power(var, e):
            if e == 0:
                return None
            key = (var, e)
            if key not in pows:
                pows[key] = coords[var] ** e
            return pows[key]

        singular = np.ones(count, dtype=bool)
        for terms in partials:
            value = np.zeros(count, dtype=np.int64)
            for c, expo in terms:
                t = np.full(count, c, dtype=np.int64)
                for var, e in enumerate(expo):
                    pw = power(var, e)
                    if pw is not None:
                        t = t * pw
                value += t
            singular &= (value % p) == 0
            if not singular.any():
                break

        if singular.any():
            idx = int(np.argmax(singular))
            witness = tuple(int(coords[i, idx]) for i in range(N_VARS))
            return ScanResult(
                prime=p,
                smooth=False,
                points=points_seen + idx + 1,
                first_singular=witness,
            )
        points_seen += count

    return ScanResult(prime=p, smooth=True, points=points_seen,
                      first_singular=None)


@dataclass(frozen=True)
class ProbeResult:
    certified: bool
    prime: int
    trials: int
    witness: tuple | None  # coefficients of the smooth member found
    scan: ScanResult | None


def probe_nonempty(space, prime: int | None = None, trials: int = 20,
                   seed: int = 0) -> ProbeResult:
    """Search for a smooth member of the family spanned by the basis.

    Random F_p coefficient vectors are tried against the reduced
    spanning forms until one passes `singular_scan`.  That member has
    no F_p-rational singular point, which is evidence, not a proof, of
    smooth members in characteristic zero.  Exhausting the trials
    proves nothing.
    """
    if not space.basis:
        return ProbeResult(False, prime or 0, 0, None, None)
    forms = space.spanning
    if prime is None:
        n = 1
        for b in forms:
            n = math.lcm(n, form_conductor(b))
        prime = choose_prime(n)
    red = PrimeReduction(prime)
    # A rational rescale changes neither the zero locus nor smoothness,
    # so denominators are cleared first; otherwise a spanning form can
    # put the chosen prime into a denominator.
    reduced = [red.reduce_form(_clear_denominators(b)) for b in forms]
    rng = random.Random(seed)
    p = prime

    last = None
    for _ in range(trials):
        weights = [rng.randrange(p) for _ in reduced]
        if not any(weights):
            continue
        coeffs = [
            sum(w * rb[i] for w, rb in zip(weights, reduced)) % p
            for i in range(35)
        ]
        if not any(coeffs):
            continue
        result = _scan_reduced(coeffs, p)
        last = result
        if result.smooth:
            return ProbeResult(True, p, trials, tuple(weights), result)
    return ProbeResult(False, p, trials, None, last)


def _clear_denominators(form: CubicForm) -> CubicForm:
    den = 1
    for c in form.coefficients:
        if c:
            for q in c.coefficients():
                den = math.lcm(den, q.denominator)
    return form if den == 1 else form.scale(den)


def _scan_reduced(coeffs, p) -> ScanResult:
    form = CubicForm(list(coeffs))
    return singular_scan(form, p)
