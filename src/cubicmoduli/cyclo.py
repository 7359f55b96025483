"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is a polynomial in zeta_n = exp(2*pi*i/n) with rational
coefficients, stored on the power basis 1, zeta, ..., zeta^(phi(n)-1)
modulo the n-th cyclotomic polynomial Phi_n.  Every value is kept at its
minimal conductor: after each operation the representation descends to the
smallest m | n whose field contains the value, so equality and hashing are
plain structural comparisons and two computation routes to the same number
produce the same object state.

Coefficients are integer vectors over one positive denominator; Phi_n is
monic with integer coefficients, so reduction never leaves the integers.
Division uses the same multiplication and Galois action: x times its
conjugates over a maximal subfield Q(zeta_m) lies there, and the inverse
descends to it, one prime of the conductor at a time, down to Q.

The package's one exact elimination lives here too: `rref` does
Gauss-Jordan elimination on rows of Fractions or Cyclotomics with
deterministic first-nonzero pivoting, over each row's nonzero entries
only, and inverts a pivot entry once per pivot row (not at all when it
is 1), so exact divisions stay rare.  The subfield descent tables and
`linalg.rref` both call it.

Text format: E(n) denotes zeta_n, E(n)^k its k-th power, and a value is a
sum of terms with rational literals, e.g. "-1/2*E(11)^3 + 2".  str() and
parse_cyclo round-trip exactly.  The package's one expression parser
lives here: parse_polynomial reads polynomials in x0, x1, ... with such
coefficients, parse_cyclo is the same parser with the result required to
be a number, and CubicForm.parse adds the degree-3 and x0..x4 checks.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # exact long division of integer polynomials, den monic, low-to-high coeffs
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for top in range(len(num) - 1, len(den) - 2, -1):
        c = num[top]
        if c:
            shift = top - (len(den) - 1)
            out[shift] = c
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    assert not any(num), "division was not exact"
    return out


@functools.cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low to high, computed by dividing x^n - 1 by
    the Phi_d of all proper divisors d of n.  Cached per conductor."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@functools.cache
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    # row j is x^j reduced mod Phi_n, for j in range(n)
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for i in range(deg):
                cur[i] -= lead * phi[i]
    return tuple(rows)


def rref(rows: list[list], width: int | None = None):
    """Reduced row echelon form of a list of rows of Fractions or
    Cyclotomics, pivoting only in the first width columns (all of them by
    default; the descent tables pivot on the subfield columns only).
    Returns (rank, rows, pivot_columns), the rows reduced in place, the
    pivot rows first.  Each pivot is the first row with a nonzero entry
    in its column, so the result is deterministic for a given input.

    Each row is also kept as a map from column to its nonzero entry,
    and the elimination runs over those entries only: a pivot row is
    scaled on its nonzero entries, and subtracted from another row on
    them, so zero entries are neither tested again nor normalized.  The
    row lists, copies of the given ones, receive every value the
    elimination computes, zeros that cancel included."""
    rows[:] = [list(row) for row in rows]
    nonzero = [{c: v for c, v in enumerate(row) if v} for row in rows]
    pivots = []
    rank = 0
    for col in range(len(rows[0]) if width is None else width):
        pivot = next((r for r in range(rank, len(rows)) if col in nonzero[r]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        nonzero[rank], nonzero[pivot] = nonzero[pivot], nonzero[rank]
        row, entries = rows[rank], nonzero[rank]
        if entries[col] != 1:  # a pivot of 1 leaves its row as it is
            inv = 1 / entries[col]
            for c, v in entries.items():
                row[c] = entries[c] = v * inv
        entries = tuple(entries.items())
        for r in range(len(rows)):
            f = nonzero[r].get(col) if r != rank else None
            if f is None:
                continue
            target, other = rows[r], nonzero[r]
            for c, b in entries:
                target[c] = v = target[c] - f * b
                if v:
                    other[c] = v
                else:
                    del other[c]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rank, rows, tuple(pivots)


class _Descent:
    """Rewrites coefficient vectors from Q(zeta_n) onto the zeta_m power
    basis for one maximal subfield m = n / p, or reports failure.

    Built once per (n, m) from the row reduction of [E | I] on the
    columns of E, which are the zeta_m basis powers expressed over the
    zeta_n basis.  Consistency rows are checked first so a failed attempt
    is one short dot product in the typical case.
    """

    __slots__ = ("m", "cons", "pivot")

    def __init__(self, n: int, m: int):
        self.m = m
        aug, phi_m = _descent_system(n, m)
        phi_n = len(aug)
        rank, aug, _ = rref(aug, phi_m)
        assert rank == phi_m, "subfield basis must be independent"

        def as_int_row(row):
            den = math.lcm(*[v.denominator for v in row]) if row else 1
            return tuple(int(v * den) for v in row), den

        self.cons = tuple(
            as_int_row(aug[r][phi_m:])[0] for r in range(rank, phi_n)
        )
        self.pivot = tuple(as_int_row(aug[r][phi_m:]) for r in range(rank))

    def apply(self, num):
        for row in self.cons:
            if sum(r * v for r, v in zip(row, num) if v):
                return None
        dens = [den for _, den in self.pivot]
        lcm = math.lcm(*dens)
        out = [
            sum(r * v for r, v in zip(row, num) if v) * (lcm // den)
            for row, den in self.pivot
        ]
        return out, lcm


def _descent_system(n: int, m: int):
    """([E | I], phi(m)): the Fraction rows that `_Descent` reduces on
    their first phi(m) columns, E's columns being the zeta_m basis
    powers over the zeta_n basis."""
    table = _power_table(n)
    phi_n = len(table[0])
    phi_m = len(_power_table(m)[0])
    cols = [table[(j * (n // m)) % n] for j in range(phi_m)]
    return [
        [Fraction(cols[j][i]) for j in range(phi_m)]
        + [Fraction(1 if k == i else 0) for k in range(phi_n)]
        for i in range(phi_n)
    ], phi_m


@functools.cache
def _descents(n: int):
    return tuple(_Descent(n, n // p) for p in reversed(_prime_factors(n)))


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the first twelve primes as witnesses, which is
    exact for every p below 3.3 * 10^24."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _prime_factors(m: int) -> list[int]:
    """The distinct prime factors of m >= 1, ascending."""
    out, q = [], 2
    while m > 1:
        if _is_prime(m):
            return out + [m]
        while m % q:
            q += 1
        out.append(q)
        while m % q == 0:
            m //= q
    return out


def _accumulate(out, values, n: int, step: int, offset: int = 0):
    """out plus the i-th of values times zeta_n^(offset + i*step), for
    each i: rows of `_power_table(n)` added into out in place."""
    table = _power_table(n)
    for i, v in enumerate(values):
        if v:
            row = table[(offset + i * step) % n]
            for k, r in enumerate(row):
                if r:
                    out[k] += v * r
    return out


def _normalize(n, num, den):
    # num: list[int] of length phi(n), den: positive int
    while n > 1:
        if not any(num[1:]):
            n, num = 1, [num[0]]
            break
        for solver in _descents(n):
            res = solver.apply(num)
            if res is not None:
                out, extra = res
                n, num, den = solver.m, out, den * extra
                break
        else:
            break
    g = den
    for v in num:
        g = math.gcd(g, v)
        if g == 1:
            break
    if g > 1:
        den //= g
        num = [v // g for v in num]
    return n, tuple(num), den


class Cyclotomic:
    """An exact number in some Q(zeta_n), kept at minimal conductor."""

    __slots__ = ("_n", "_num", "_den")

    def __init__(self, value=0):
        c = cyclo(value)
        self._n, self._num, self._den = c._n, c._num, c._den

    @staticmethod
    def _make(n, num, den):
        if den < 0:
            den = -den
            num = [-v for v in num]
        n, num, den = _normalize(n, list(num), den)
        self = object.__new__(Cyclotomic)
        self._n, self._num, self._den = n, num, den
        return self

    # ------------------------------------------------------------------
    # basic structure

    @property
    def conductor(self) -> int:
        return self._n

    def coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients over the power basis of Q(zeta_conductor)."""
        return tuple(Fraction(v, self._den) for v in self._num)

    def is_zero(self) -> bool:
        return self._n == 1 and self._num[0] == 0

    def is_rational(self) -> bool:
        return self._n == 1

    def as_rational(self) -> Fraction:
        if self._n != 1:
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    # ------------------------------------------------------------------
    # arithmetic

    def _promoted(self, n):
        # coefficient vector of self over the zeta_n basis, n multiple of
        # the own conductor; denominator is unchanged
        if n == self._n:
            return list(self._num)
        return _accumulate([0] * len(_power_table(n)[0]), self._num, n,
                           n // self._n)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = math.lcm(self._n, other._n)
        a, b = self._promoted(n), other._promoted(n)
        da, db = self._den, other._den
        if da == db:
            return Cyclotomic._make(n, [x + y for x, y in zip(a, b)], da)
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        return Cyclotomic._make(n, [x * fa + y * fb for x, y in zip(a, b)], den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(Cyclotomic)
        out._n, out._num, out._den = self._n, tuple(-v for v in self._num), self._den
        return out

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._n == 1:
            if self._num[0] == 0:
                return ZERO
            return Cyclotomic._make(
                other._n,
                [self._num[0] * v for v in other._num],
                self._den * other._den,
            )
        if other._n == 1:
            if other._num[0] == 0:
                return ZERO
            return Cyclotomic._make(
                self._n,
                [other._num[0] * v for v in self._num],
                self._den * other._den,
            )
        n = math.lcm(self._n, other._n)
        a, b = self._promoted(n), other._promoted(n)
        deg = len(a)
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = _accumulate(conv[:deg], conv[deg:], n, 1, deg)
        return Cyclotomic._make(n, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse down the subfield tower: x^-1 = others *
        (x * others)^-1, others the product of the conjugates sigma_t(x),
        t = 1 mod m, t != 1, coprime to the conductor n, m = n / q for the
        largest prime q | n; x * others, the norm to Q(zeta_m), lies there."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self._n == 1:
            sign = 1 if self._num[0] > 0 else -1
            return Cyclotomic._make(1, [self._den * sign], abs(self._num[0]))
        m = self._n // _prime_factors(self._n)[-1]
        others = ONE
        for t in range(1 + m, self._n, m):
            if math.gcd(t, self._n) == 1:
                others = others * self.galois(t)
        return others * (self * others).inverse()

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.inverse() if other == ONE else other * self.inverse()

    # ------------------------------------------------------------------
    # Galois action

    def galois(self, t: int) -> "Cyclotomic":
        """Image under zeta_n -> zeta_n^t, for t coprime to the conductor."""
        n = self._n
        if n == 1:
            return self
        t %= n
        if math.gcd(t, n) != 1:
            raise ValueError(f"exponent {t} not coprime to conductor {n}")
        out = _accumulate([0] * len(self._num), self._num, n, t)
        return Cyclotomic._make(n, out, self._den)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(self._n - 1) if self._n > 1 else self

    # ------------------------------------------------------------------
    # comparisons, hashing, formatting

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self._n == other._n
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        if self._n == 1:
            a, b = self._num[0], self._den
            if b == 1:
                return hash(a)
            # the documented hash of the rational a/b (coprime, b > 0),
            # which Fraction(a, b) also returns, without building one
            try:
                h = hash(hash(abs(a)) * pow(b, -1, _HASH_MODULUS))
            except ValueError:  # b is a multiple of the modulus
                h = _HASH_INF
            h = h if a >= 0 else -h
            return -2 if h == -1 else h
        return hash((self._n, self._num, self._den))

    def __bool__(self):
        return self._n != 1 or self._num[0] != 0

    def __complex__(self):
        tau = 2.0 * math.pi / self._n
        re = sum(
            v * math.cos(tau * i) for i, v in enumerate(self._num)
        ) / self._den
        im = sum(
            v * math.sin(tau * i) for i, v in enumerate(self._num)
        ) / self._den
        return complex(re, im)

    def __str__(self):
        if self._n == 1:
            return _ratio(self._num[0], self._den)
        parts = []
        for i, v in enumerate(self._num):
            if not v:
                continue
            body = _ratio(abs(v), self._den)
            if i:
                power = f"E({self._n})" if i == 1 else f"E({self._n})^{i}"
                body = power if body == "1" else f"{body}*{power}"
            parts.append(("-" if v < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Cyclotomic({str(self)!r})"


def _ratio(a: int, b: int) -> str:
    """str(Fraction(a, b)) for b > 0, without building the Fraction."""
    g = math.gcd(a, b)
    return str(a // g) if b == g else f"{a // g}/{b // g}"


def _coerce(value):
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, int):
        return Cyclotomic._make(1, [value], 1)
    if isinstance(value, Fraction):
        return Cyclotomic._make(1, [value.numerator], value.denominator)
    return NotImplemented


def cyclo(value) -> Cyclotomic:
    """Coerce an int, Fraction, E-notation string or Cyclotomic."""
    if isinstance(value, str):
        return parse_cyclo(value)
    got = _coerce(value)
    if got is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")
    return got


def power_basis(value: Cyclotomic, n: int) -> tuple[list[int], int]:
    """(num, den) with value = sum_k num[k] * zeta_n^k / den, for n a
    multiple of the conductor; den > 0 and num is a list of ints."""
    return value._promoted(n), value._den


def from_power_basis(n: int, num, den: int = 1) -> Cyclotomic:
    """The value sum_k num[k] * zeta_n^k / den, num of length phi(n)."""
    return Cyclotomic._make(n, list(num), den)


def root_of_unity(n: int, k: int = 1) -> Cyclotomic:
    """zeta_n^k as an exact value."""
    if n < 1:
        raise ValueError("conductor must be positive")
    k %= n
    if n % 4 == 2:
        # zeta_2m = -zeta_m^((m+1)/2) for odd m, so the value never needs
        # the conductor-n tables
        m = n // 2
        value = root_of_unity(m, k * ((m + 1) // 2))
        return -value if k % 2 else value
    return Cyclotomic._make(n, list(_power_table(n)[k]), 1)


ZERO = Cyclotomic._make(1, [0], 1)
ONE = Cyclotomic._make(1, [1], 1)


# ----------------------------------------------------------------------
# parsing
#
# One grammar serves numbers and forms alike:
#
#     expr   := ['+'] term (('+' | '-') term)*
#     term   := factor (('*' | '/') factor)*
#     factor := '-' factor | atom ['^' ['-'] integer]
#     atom   := integer | 'E(' integer ')' | x<k> | '(' expr ')'
#
# A polynomial in x0, x1, ... maps each monomial, a sorted tuple of
# (variable index, exponent) pairs with () for the constant term, to its
# nonzero coefficient.  Division and negative powers take numbers only.
# Coefficients stay Fractions until a root of unity enters them.

_TOKEN = re.compile(r"\d+|E|x(?:0|[1-9]\d*)|[-+*/^()]")

# the largest n of an E(n) the parser accepts; see parse_polynomial
MAX_CONDUCTOR = 120


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != "".join(text.split()):
        raise ValueError(f"bad character in {text!r}")
    return tokens


def _collect(terms) -> dict:
    """Sum (monomial, coefficient) pairs, dropping zero coefficients."""
    out = {}
    for m, c in terms:
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return a or b
    exps = dict(a)
    for v, k in b:
        exps[v] = exps.get(v, 0) + k
    return tuple(sorted(exps.items()))


def _poly_mul(a: dict, b: dict) -> dict:
    return _collect((_mono_mul(ma, mb), ca * cb)
                    for ma, ca in a.items() for mb, cb in b.items())


def _negate(poly: dict) -> dict:
    return {m: -c for m, c in poly.items()}


def _number(poly: dict, what: str):
    if any(poly.keys() - {()}):
        raise ValueError(f"{what} must be a number, not a polynomial")
    return poly.get((), 0)


def _nonzero(poly: dict, what: str):
    value = _number(poly, what)
    if not value:
        raise ValueError("division by zero")
    return value


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def nested(self, parse) -> dict:
        # one level of '(' or unary '-': bounded at 100 so that deep input
        # fails with a ValueError well inside Python's recursion limit
        if self.depth == 100:
            raise ValueError("parentheses and signs nest more than 100 deep")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def integer(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ValueError(f"expected an integer, got {tok!r}")
        return int(tok)

    def expr(self) -> dict:
        if self.peek() == "+":
            self.take()
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = _collect([*value.items(),
                              *(rhs if op == "+" else _negate(rhs)).items()])
        return value

    def term(self) -> dict:
        value = self.factor()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                value = _poly_mul(value, self.factor())
            else:
                value = _poly_mul(value, {(): 1 / _nonzero(
                    self.factor(), "a divisor")})
        return value

    def factor(self) -> dict:
        if self.peek() == "-":
            self.take()
            return _negate(self.nested(self.factor))
        if self.peek() == "E":
            return self.root_power()
        base = self.atom()
        if self.peek() != "^":
            return base
        k, negative = self.exponent(polynomial=any(base))
        if negative:
            return {(): _nonzero(base, "a negative power's base") ** k}
        if () in base and len(base) == 1:
            return {(): base[()] ** k}
        out = {(): Fraction(1)}
        for _ in range(k):
            out = _poly_mul(out, base)
        return out

    def root_power(self) -> dict:
        """E(n) and its power, if any: E(n)^k is one row of the power
        table, without a product."""
        self.take("E")
        self.take("(")
        n = self.integer()
        self.take(")")
        if not 1 <= n <= MAX_CONDUCTOR:
            raise ValueError(f"E({n}): n must be in [1, {MAX_CONDUCTOR}]")
        k = self.exponent()[0] if self.peek() == "^" else 1
        return {(): root_of_unity(n, k)}

    def exponent(self, polynomial: bool = False) -> tuple[int, bool]:
        """'^' ['-'] integer: (k, whether '-' was read), bounded before
        any product is formed: a cubic needs no power above 3 of a
        polynomial, and |k| above MAX_CONDUCTOR only grows a number."""
        self.take("^")
        negative = self.peek() == "-"
        if negative:
            self.take()
        k = -self.integer() if negative else self.integer()
        if polynomial:
            if k > 3:
                raise ValueError(
                    f"power {k} of a polynomial; at most 3 is allowed")
        elif abs(k) > MAX_CONDUCTOR:
            raise ValueError(
                f"power {k} of a number; |k| at most {MAX_CONDUCTOR}")
        return k, negative

    def atom(self) -> dict:
        tok = self.take()
        if tok == "(":
            value = self.nested(self.expr)
            self.take(")")
            return value
        if tok.isdigit():
            return _collect([((), Fraction(int(tok)))])
        if tok[0] == "x":
            return {((int(tok[1:]), 1),): Fraction(1)}
        raise ValueError(f"unexpected token {tok!r}")


def parse_polynomial(text: str) -> dict:
    """The polynomial in x0, x1, ... with cyclotomic coefficients written
    in text, as {monomial: nonzero coefficient}; a monomial is a sorted
    tuple of (variable index, exponent) pairs, () for the constant term.
    Raises ValueError on malformed text.

    E(n) takes 1 <= n <= MAX_CONDUCTOR = 120, ten times the catalog's
    largest conductor (12), and a larger n fails before its tables are
    built: they cost about phi(n)^3 exact operations, so E(119) parses in
    0.13 s and E(1212) in 3.2 s (2-vCPU VM, Python 3.11.7).  E(n) for
    n = 2 mod 4 is built from the tables of n/2.  A power of a base with
    a variable term is at most 3, and of a number at most MAX_CONDUCTOR
    in absolute value; both are checked before any product is formed.
    Parentheses and unary minus signs nest at most 100 deep together, so
    that deep input is a ValueError, not a RecursionError."""
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input in {text!r} at {parser.peek()!r}")
    return {m: cyclo(c) for m, c in value.items()}


def parse_cyclo(text: str) -> Cyclotomic:
    """The number written in text, e.g. "-1/2*E(11)^3 + 2"."""
    return cyclo(_number(parse_polynomial(text), repr(text)))
