"""Class functions and the character route to the audit's dimensions.

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

A class function is integer rows, `linalg.int_array`'s form: row c
holds the power-basis coefficients over zeta_n of den times its value on
class c.  `class_function` is the one place that puts exact values on
rows, and `values` makes them exact on first use, for printing and the
catalog contract.  `residues(p)` is the one map to F_p
(`linalg.reduce_mod_p`), cached, and `conjugate` sends zeta_n to its
inverse on the rows.

The three dimensions that the audit checks (`dim_invariant_cubics`,
`commutant_dimension_from_character`, `dim_special_subvariety`) make no
exact value: each applies its formula and (1/|G|) sum_c |c| f(c) to the
residues mod the first split prime p of the lcm of their conductors.
For a character of degree d the multiplicity is an integer in
[0, C(d+2, 3)], [0, d^2] or [0, C(d+1, 2)]; with that bound below p
(p > 2^30) the residue is the integer itself, one outside the range
proves that the input is no character (`NonIntegralCharacterError`),
and a bound not below p is refused (`BadPrimeError`).  A denominator
divisible by p moves on to the next split prime.  `groups` reads
eigenvalue multiplicities off the same residues of the trace character.

A matrix group's trace character is its own (`MatrixGroup.character`);
its determinant character, the product of the eigenvalues in each class
profile, is a root of unity: a row of `linalg._root_rows`.  No matrix
determinant and no exact value is computed.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .cyclo import Cyclotomic, cyclo
from .errors import (BadPrimeError, GroupMismatchError,
                     NonIntegralCharacterError)
from .linalg import (_big, _root_rows, _widen, conductor_of, exact_values,
                     int_array, reduce_mod_p, split_primes)


@dataclass(frozen=True)
class ClassStructure:
    order: int
    sizes: tuple[int, ...]
    element_orders: tuple[int, ...]
    power_maps: tuple[tuple[int, tuple[int, ...]], ...]  # ((k, map), ...)

    def __post_init__(self):
        if sum(self.sizes) != self.order:
            raise ValueError("class sizes must sum to the order")
        if self.sizes[0] != 1 or self.element_orders[0] != 1:
            raise ValueError("identity class must come first")
        n = len(self.sizes)
        if len(self.element_orders) != n:
            raise ValueError("one element order per class")
        for k, pmap in self.power_maps:
            if len(pmap) != n or not all(0 <= c < n for c in pmap):
                raise ValueError(f"power map for k={k} malformed")

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
    """rows[c] holds the phi(n) power-basis coefficients over zeta_n of
    den times the value on class c, den > 0.  Equal class functions can
    differ in n and den, so compare their `values`."""

    structure: ClassStructure
    rows: np.ndarray
    den: int
    n: int
    _residues: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if len(self.rows) != self.structure.n_classes:
            raise ValueError(f"{len(self.rows)} values for "
                             f"{self.structure.n_classes} classes")

    @functools.cached_property
    def values(self) -> tuple[Cyclotomic, ...]:
        """The exact values, made on first use."""
        values, codes = exact_values(self.den, self.rows, self.n)
        return tuple(map(values.__getitem__, codes))

    def residues(self, p: int):
        """Per class, its value mod p (int64 in [0, p)), zeta_n sent to
        root_of_unity_mod(n, p); p = 1 mod n does not divide den."""
        if p not in self._residues:
            self._residues[p] = (reduce_mod_p(self.rows, self.n, p)
                                 * pow(self.den, -1, p) % p)
        return self._residues[p]

    def conjugate(self) -> "ClassFunction":
        """zeta_n^k sent to zeta_n^(-k): the rows times the rows of
        zeta_n^(-k), zeta_m^(-k m/n) among the roots of unity."""
        roots = _root_rows(self.n)
        m = len(roots)
        flip = roots[-np.arange(roots.shape[1]) * (m // self.n) % m]
        rows, flip = _widen(_big(self.rows) * _big(flip) * len(flip),
                            self.rows, flip)
        return ClassFunction(self.structure, rows @ flip, self.den, self.n)


def _same_structure(a: ClassFunction, b: ClassFunction):
    if a.structure != b.structure:
        raise GroupMismatchError(
            "class functions live on different class structures"
        )


def class_function(structure: ClassStructure, values) -> ClassFunction:
    """The class function of the given values, on rows at their conductor."""
    values = [cyclo(v) for v in values]
    n = conductor_of(values)
    return ClassFunction(structure, *int_array(values, n), n)


def trivial_character(structure: ClassStructure) -> ClassFunction:
    return class_function(structure, [1] * structure.n_classes)


def character_of(group) -> ClassFunction:
    """Trace character of a matrix group in its given representation."""
    return group.character


def det_character(group) -> ClassFunction:
    """Determinant of a matrix group in its given representation: the
    product zeta_m^(sum k*m_k) of the eigenvalues zeta_m^k of a class's
    profile.  It lies in Q(zeta_c), c the conductor, so it is zeta_m^e,
    row e of the roots of unity in Q(zeta_c), m = lcm(2, c)."""
    c = group.conductor
    roots = _root_rows(c)
    m = len(roots)
    e = [sum(k * mult for k, mult in prof.mults) * m // prof.order % m
         for prof in group.class_profiles()]
    return ClassFunction(group.class_structure(), roots[e], 1, c)


def _degree(f: ClassFunction) -> int:
    """f(1), the degree when f is a character: a nonnegative integer."""
    head, *rest = f.rows[0].tolist()
    d, r = divmod(head, f.den)
    if any(rest) or r or d < 0:
        raise NonIntegralCharacterError(
            f"value {f.values[0]} at the identity is not the degree of a "
            "character")
    return d


def _multiplicity_mod_p(fs, formula, divisor: int, bound: int) -> int:
    """(1/(divisor |G|)) sum_c |c| h(c) mod p, h = formula(*r) on the
    residues r[i] = fs[i].residues(p) as lists, p the first split prime
    of the lcm of the fs' conductors that divides neither their
    denominators nor divisor * |G|.  For characters the result is an
    integer in [0, bound], so bound < p makes the residue the integer
    itself; a residue past bound raises NonIntegralCharacterError.  A
    bound not below p, or no usable split prime, raises BadPrimeError."""
    st = fs[0].structure
    den = math.prod(f.den for f in fs)
    primes = split_primes(math.lcm(*(f.n for f in fs)))
    for p in primes:
        if bound >= p:
            raise BadPrimeError(
                f"a multiplicity bounded by {bound} cannot be read mod {p}")
        if den * divisor * st.order % p == 0:
            continue
        h = formula(*(f.residues(p).tolist() for f in fs))
        value = (sum(map(operator.mul, st.sizes, h))
                 * pow(divisor * st.order, -1, p) % p)
        if value > bound:
            raise NonIntegralCharacterError(
                f"multiplicity is {value} mod {p}, not an integer in "
                f"[0, {bound}]; the input is not a character")
        return value
    raise BadPrimeError(
        f"each of the split primes {primes} divides a denominator of "
        "the values or the group order")


def _six_sym_cube(st: ClassStructure, x: list) -> list:
    """6 sym^3 f on integers x, f's residues, class by class."""
    p2, p3 = st.power_map(2), st.power_map(3)
    return [v ** 3 + 3 * v * x[p2[c]] + 2 * x[p3[c]]
            for c, v in enumerate(x)]


def _two_sym_square(st: ClassStructure, x: list) -> list:
    """2 sym^2 f on integers x, f's residues, class by class."""
    p2 = st.power_map(2)
    return [v * v + x[p2[c]] for c, v in enumerate(x)]


def dim_invariant_cubics(chi: ClassFunction) -> int:
    """Dimension of the degree-3 invariants of the dual action, i.e. the
    multiplicity of the trivial character in sym^3 of chi, an integer in
    [0, C(d+2, 3)] for d = chi(1), read mod a split prime."""
    return _multiplicity_mod_p(
        [chi], functools.partial(_six_sym_cube, chi.structure), 6,
        math.comb(_degree(chi) + 2, 3))


def dim_special_subvariety(chi: ClassFunction,
                           det_chi: ClassFunction) -> int:
    """Dimension of the subspace cutting out the distinguished subvariety
    of the invariant cubics: the trivial multiplicity in
    sym^2(det tensor chi), an integer in [0, C(d+1, 2)] for d the degree
    of det tensor chi, read mod a split prime."""
    _same_structure(chi, det_chi)
    d = _degree(det_chi) * _degree(chi)
    return _multiplicity_mod_p(
        [det_chi, chi],
        lambda det, x: _two_sym_square(chi.structure,
                                       list(map(operator.mul, det, x))),
        2, math.comb(d + 1, 2))


def commutant_dimension_from_character(chi: ClassFunction) -> int:
    """dim of the algebra commuting with the representation, computed as
    the character norm <chi, chi>, an integer in [0, d^2] for d =
    chi(1), read mod a split prime."""
    return _multiplicity_mod_p(
        [chi, chi.conjugate()], lambda x, y: map(operator.mul, x, y), 1,
        _degree(chi) ** 2)


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
