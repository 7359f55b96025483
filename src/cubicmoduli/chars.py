"""Class functions and character arithmetic.

A ClassStructure records just enough about a finite group to do character
computations: class sizes, element orders, and where the power maps g ->
g^k send each class for k = 2, 3, 5.  Those powers are exactly what the
symmetric power formulas need:

    sym^2 chi(g) = (chi(g)^2 + chi(g^2)) / 2
    sym^3 chi(g) = (chi(g)^3 + 3 chi(g) chi(g^2) + 2 chi(g^3)) / 6

so a character table row plus the structure determines the dimension of
the invariants in the cubic forms without ever touching matrices.  That
gives an independent route to numbers that are also computed directly
from matrix actions elsewhere.

A class function is held as integer rows (`ClassFunction`): row c holds
the coefficients of den times its value on class c on the zeta_n power
basis, over one positive denominator den.  A product of two class
functions is one product per class through the table of zeta_n^(a + b)
(`linalg._pair_table`); complex conjugation, and writing a value over a
larger conductor, are one product with a cached table each.  An inner
product is sizes @ (a * conj b) over the group order, and a value is
rational exactly when its coefficients past the first are zero.  The
rows are int64 while a bound proves that no product or sum overflows,
and Python ints (object arrays) past it.  Exact values
(`ClassFunction.values`) are made on first use only.

For a matrix group, the trace character's rows are the class trace sums
(`MatrixGroup.class_trace_rows`), and the determinant character's are
rows of the power table read off the eigenvalue profiles of the class
representatives (`MatrixGroup.class_profiles`, built from those same
traces): on a class with eigenvalue zeta_o^k of multiplicity m, the
determinant is zeta_o^(sum k*m), so no matrix determinant is computed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclo import Cyclotomic, _power_table, cyclo, from_power_basis
from .errors import GroupMismatchError, NonIntegralCharacterError
from .linalg import (_INT64_LIMIT, Matrix, _big, _pair_table, conductor_of,
                     int_array)


@dataclass(frozen=True)
class ClassStructure:
    order: int
    sizes: tuple[int, ...]
    element_orders: tuple[int, ...]
    power_maps: tuple[tuple[int, tuple[int, ...]], ...]  # ((k, map), ...)

    def __post_init__(self):
        assert sum(self.sizes) == self.order, "class sizes must sum to the order"
        assert self.sizes[0] == 1 and self.element_orders[0] == 1, (
            "identity class must come first"
        )
        n = len(self.sizes)
        assert len(self.element_orders) == n
        for k, pmap in self.power_maps:
            assert len(pmap) == n and all(0 <= c < n for c in pmap), (
                f"power map for k={k} malformed"
            )

    @property
    def n_classes(self) -> int:
        return len(self.sizes)

    def power_map(self, k: int) -> tuple[int, ...]:
        for kk, pmap in self.power_maps:
            if kk == k:
                return pmap
        raise KeyError(f"no power map for k={k}")


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """A class function with values in Q(zeta_n): row c of `rows`, an
    integer array of shape (classes, phi(n)), holds the power-basis
    coefficients of den times the value on class c, den > 0."""

    structure: ClassStructure
    n: int
    rows: np.ndarray
    den: int = 1

    def __post_init__(self):
        assert len(self.rows) == self.structure.n_classes

    @functools.cached_property
    def values(self) -> tuple[Cyclotomic, ...]:
        """The exact value on each class."""
        return tuple(from_power_basis(self.n, row, self.den)
                     for row in self.rows.tolist())

    @functools.cached_property
    def big(self) -> int:
        """The largest absolute value of a coefficient in rows."""
        return _big(self.rows)

    def at_power(self, k: int) -> "ClassFunction":
        """The class function g -> f(g^k)."""
        return ClassFunction(self.structure, self.n,
                             self.rows[list(self.structure.power_map(k))],
                             self.den)

    def over(self, n: int) -> "ClassFunction":
        """The same class function on the zeta_n power basis, n a
        multiple of self.n."""
        return self if n == self.n else self._substituted(n, 1)

    def tensor(self, other: "ClassFunction") -> "ClassFunction":
        return _product(self, other)

    def conjugate(self) -> "ClassFunction":
        if self.rows.shape[1] == 1:  # rational values
            return self
        return self._substituted(self.n, -1)

    def _substituted(self, n: int, t: int) -> "ClassFunction":
        """The values under zeta_(self.n) -> zeta_n^(t n / self.n): the
        rows times `_substitution_table`."""
        table, big = _substitution_table(self.n, n, t)
        rows = self.rows
        if len(table) * self.big * big >= _INT64_LIMIT:
            rows, table = rows.astype(object), table.astype(object)
        return ClassFunction(self.structure, n, rows @ table, self.den)


@functools.cache
def _substitution_table(m: int, n: int, t: int):
    """(table, largest absolute entry), for m | n: the table is
    (phi(m), phi(n)) int64, read-only, and row k holds zeta_n^(t k n/m)
    on the power basis.  Rows of coefficients over zeta_m times it are
    their values under zeta_m -> zeta_n^(t n/m): the same values over
    zeta_n for t = 1, their complex conjugates for t = -1."""
    table = _power_table(n)
    out = np.array([table[t * k * (n // m) % n]
                    for k in range(len(_power_table(m)[0]))], dtype=np.int64)
    out.flags.writeable = False
    return out, _big(out)


@functools.cache
def _multiplication_table(n: int):
    """(table, largest absolute entry): `linalg._pair_table(n)` as a
    (phi(n), phi(n)^2) matrix; y @ table, reshaped to (phi, phi), is the
    matrix of multiplication by y."""
    table = _pair_table(n)
    return table.reshape(len(table), -1), _big(table)


def _product(a: ClassFunction, b: ClassFunction) -> ClassFunction:
    """The class function a * b, one product per class: a scaling where
    one of them is rational (one coefficient per class), and otherwise
    x @ (y @ pair table) per class over the lcm of the conductors.  On
    Python ints where a bound does not prove that int64 holds it."""
    _same_structure(a, b)
    if a.rows.shape[1] == 1:
        a, b = b, a
    if b.rows.shape[1] == 1:
        n, x, y = a.n, a.rows, b.rows
        if a.big * b.big >= _INT64_LIMIT:
            x, y = x.astype(object), y.astype(object)
        rows = x * y
    else:
        n = math.lcm(a.n, b.n)
        a, b = a.over(n), b.over(n)
        table, big = _multiplication_table(n)
        phi = len(table)
        x, y = a.rows, b.rows
        if phi * phi * a.big * b.big * big >= _INT64_LIMIT:
            x, y, table = (v.astype(object) for v in (x, y, table))
        rows = (x[:, None, :] @ (y @ table).reshape(-1, phi, phi))[:, 0]
    return ClassFunction(a.structure, n, rows, a.den * b.den)


def _combination(*terms):
    """The rows of the sum of k * f over the (k, f) terms, class
    functions f on one power basis; on Python ints where a bound does
    not prove that int64 holds it."""
    # a factor past int64 must not meet an int64 array, even a zero one
    if sum(abs(k) * max(1, f.big) for k, f in terms) >= _INT64_LIMIT:
        return sum(k * f.rows.astype(object) for k, f in terms)
    return sum(k * f.rows for k, f in terms)


def _same_structure(a: ClassFunction, b: ClassFunction):
    if a.structure != b.structure:
        raise GroupMismatchError(
            "class functions live on different class structures"
        )


def class_function(structure: ClassStructure, values) -> ClassFunction:
    row = Matrix([values])
    n = conductor_of(row.data)
    array, den = int_array([row], n)
    return ClassFunction(structure, n, array[0, 0], den)


def trivial_character(structure: ClassStructure) -> ClassFunction:
    return ClassFunction(structure, 1,
                         np.ones((structure.n_classes, 1), dtype=np.int64))


def sym_square(chi: ClassFunction) -> ClassFunction:
    d = chi.den
    rows = _combination((1, _product(chi, chi)), (d, chi.at_power(2)))
    return ClassFunction(chi.structure, chi.n, rows, 2 * d * d)


def sym_cube(chi: ClassFunction) -> ClassFunction:
    d = chi.den
    rows = _combination((1, _product(_product(chi, chi), chi)),
                        (3 * d, _product(chi, chi.at_power(2))),
                        (2 * d * d, chi.at_power(3)))
    return ClassFunction(chi.structure, chi.n, rows, 6 * d ** 3)


def inner_product(a: ClassFunction, b: ClassFunction) -> Fraction:
    terms = _product(a, b.conjugate())
    st = a.structure
    sizes, rows = np.array(st.sizes, dtype=np.int64), terms.rows
    if st.order * terms.big >= _INT64_LIMIT:
        sizes, rows = sizes.astype(object), rows.astype(object)
    acc = (sizes @ rows).tolist()
    den = terms.den * st.order
    if any(acc[1:]):
        raise NonIntegralCharacterError(
            "inner product is not rational: "
            f"{from_power_basis(terms.n, acc, den)}")
    return Fraction(acc[0], den)


def multiplicity(a: ClassFunction, b: ClassFunction) -> int:
    value = inner_product(a, b)
    if value.denominator != 1 or value < 0:
        raise NonIntegralCharacterError(
            f"inner product {value} is not a nonnegative integer; "
            "inputs are not characters of the same group"
        )
    return int(value)


def character_of(group) -> ClassFunction:
    """Trace character of a matrix group in its given representation."""
    rows, den = group.class_trace_rows
    return ClassFunction(group.class_structure(), group.conductor, rows, den)


def det_character(group) -> ClassFunction:
    """Determinant of a matrix group in its given representation: on a
    class whose profile has eigenvalue zeta_o^k with multiplicity m, the
    product of the eigenvalues, zeta_o^e with e = sum k*m, a row of the
    power table of n, the least common order of these roots."""
    roots = [(prof.order, sum(k * m for k, m in prof.mults))
             for prof in group.class_profiles()]
    n = math.lcm(1, *(o // math.gcd(o, e) for o, e in roots))
    table = _power_table(n)
    rows = np.array([table[e * n // o % n] for o, e in roots],
                    dtype=np.int64)
    return ClassFunction(group.class_structure(), n, rows)


def dim_invariant_cubics(chi: ClassFunction) -> int:
    """Dimension of the degree-3 invariants of the dual action, i.e. the
    multiplicity of the trivial character in sym^3 of chi."""
    return multiplicity(sym_cube(chi), trivial_character(chi.structure))


def dim_special_subvariety(chi: ClassFunction,
                           det_chi: ClassFunction) -> int:
    """Dimension of the subspace cutting out the distinguished subvariety
    of the invariant cubics: the trivial multiplicity in
    sym^2(det tensor chi)."""
    return multiplicity(sym_square(det_chi.tensor(chi)),
                        trivial_character(chi.structure))


def commutant_dimension_from_character(chi: ClassFunction) -> int:
    """dim of the algebra commuting with the representation, computed as
    the character norm <chi, chi>."""
    return multiplicity(chi, chi)


@dataclass(frozen=True)
class AbstractCharDatum:
    """A class structure plus selected character rows, for groups handled
    without an explicit matrix model."""

    name: str
    structure: ClassStructure
    class_names: tuple[str, ...]
    characters: dict

    def character(self, name: str) -> ClassFunction:
        return self.characters[name]


def psl2_11_datum() -> AbstractCharDatum:
    """Class data for the simple group of order 660 and its two degree-5
    characters.

    Classes are ordered 1a 2a 3a 5a 5b 6a 11a 11b.  Power maps follow
    from which exponents are squares: mod 5 the nonsquare 2 swaps the two
    order-5 classes, mod 11 the squares are {1,3,4,5,9} so cubing and
    fifth powers fix each order-11 class while squaring swaps them.  The
    irrational value alpha = sum of E(11)^s over the squares s satisfies
    alpha^2 + alpha + 3 = 0.
    """
    structure = ClassStructure(
        order=660,
        sizes=(1, 55, 110, 132, 132, 110, 60, 60),
        element_orders=(1, 2, 3, 5, 5, 6, 11, 11),
        power_maps=(
            (2, (0, 0, 2, 4, 3, 2, 7, 6)),
            (3, (0, 1, 0, 4, 3, 1, 6, 7)),
            (5, (0, 1, 2, 0, 0, 5, 6, 7)),
        ),
    )
    alpha = cyclo("E(11) + E(11)^3 + E(11)^4 + E(11)^5 + E(11)^9")
    beta = alpha.conjugate()
    chi1 = class_function(structure, [1] * 8)
    chi2 = class_function(structure, [5, 1, -1, 0, 0, 1, alpha, beta])
    chi3 = class_function(structure, [5, 1, -1, 0, 0, 1, beta, alpha])
    return AbstractCharDatum(
        name="order-660 simple group",
        structure=structure,
        class_names=("1a", "2a", "3a", "5a", "5b", "6a", "11a", "11b"),
        characters={"chi1": chi1, "chi2": chi2, "chi3": chi3},
    )
