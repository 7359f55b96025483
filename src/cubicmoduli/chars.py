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

A class function holds its exact values (`ClassFunction.values`), and
`sym_square`, `sym_cube`, `tensor`, `conjugate` and `inner_product` are
the formulas above, class by class, in exact arithmetic.  The three
dimensions that the audit checks (`dim_invariant_cubics`,
`commutant_dimension_from_character`, `dim_special_subvariety`) make no
exact product: each reduces the values once mod the first split prime p
of their conductor (`linalg.int_array`, `linalg.reduce_mod_p`), applies
its formula and (1/|G|) sum_c |c| f(c) to the residues, and reads the
multiplicity off the residue.  For a character of degree d that
multiplicity is an integer in [0, C(d+2, 3)], [0, d^2] or
[0, C(d+1, 2)]; with that bound below p (p > 2^30) the residue is the
integer itself, and a residue outside the range proves that the input
is not a character (`NonIntegralCharacterError`).  A bound not below p
is refused (`BadPrimeError`), and a value with p in its denominator
moves the reading on to the next split prime.  This is the argument by
which `groups` reads eigenvalue multiplicities off the class traces.

For a matrix group, the trace character comes from the class traces and
the determinant character from the eigenvalue profiles of the class
representatives (`MatrixGroup.class_profiles`, built from those same
traces): the determinant is the product of the eigenvalues, so no
matrix determinant is computed.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import Cyclotomic, cyclo, root_of_unity
from .errors import (BadPrimeError, GroupMismatchError,
                     NonIntegralCharacterError)
from .linalg import (Matrix, conductor_of, int_array, reduce_mod_p,
                     split_primes)


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


@dataclass(frozen=True)
class ClassFunction:
    structure: ClassStructure
    values: tuple[Cyclotomic, ...]

    def __post_init__(self):
        assert len(self.values) == self.structure.n_classes

    def tensor(self, other: "ClassFunction") -> "ClassFunction":
        _same_structure(self, other)
        return ClassFunction(self.structure, tuple(
            a * b for a, b in zip(self.values, other.values)
        ))

    def conjugate(self) -> "ClassFunction":
        return ClassFunction(self.structure, tuple(
            v.conjugate() for v in self.values
        ))


def _same_structure(a: ClassFunction, b: ClassFunction):
    if a.structure != b.structure:
        raise GroupMismatchError(
            "class functions live on different class structures"
        )


def class_function(structure: ClassStructure, values) -> ClassFunction:
    return ClassFunction(structure, tuple(cyclo(v) for v in values))


def trivial_character(structure: ClassStructure) -> ClassFunction:
    return class_function(structure, [1] * structure.n_classes)


def sym_square(chi: ClassFunction) -> ClassFunction:
    p2 = chi.structure.power_map(2)
    half = Fraction(1, 2)
    values = tuple(
        (chi.values[c] * chi.values[c] + chi.values[p2[c]]) * half
        for c in range(chi.structure.n_classes)
    )
    return ClassFunction(chi.structure, values)


def sym_cube(chi: ClassFunction) -> ClassFunction:
    p2 = chi.structure.power_map(2)
    p3 = chi.structure.power_map(3)
    sixth = Fraction(1, 6)
    values = []
    for c in range(chi.structure.n_classes):
        v = chi.values[c]
        values.append(
            (v * v * v + v * chi.values[p2[c]] * 3 + chi.values[p3[c]] * 2)
            * sixth
        )
    return ClassFunction(chi.structure, tuple(values))


def inner_product(a: ClassFunction, b: ClassFunction) -> Fraction:
    _same_structure(a, b)
    st = a.structure
    acc = cyclo(0)
    for c in range(st.n_classes):
        acc = acc + a.values[c] * b.values[c].conjugate() * st.sizes[c]
    acc = acc * Fraction(1, st.order)
    if not acc.is_rational():
        raise NonIntegralCharacterError(
            f"inner product is not rational: {acc}"
        )
    return acc.as_rational()


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
    return ClassFunction(group.class_structure(), group.class_traces())


def det_character(group) -> ClassFunction:
    """Determinant of a matrix group in its given representation: on a
    class whose profile has eigenvalue zeta_n^k with multiplicity m, the
    product of the eigenvalues, zeta_n^(sum k*m)."""
    values = tuple(
        root_of_unity(prof.order, sum(k * m for k, m in prof.mults))
        for prof in group.class_profiles()
    )
    return ClassFunction(group.class_structure(), values)


def _degree(f: ClassFunction) -> int:
    """f(1), the degree when f is a character: a nonnegative integer."""
    value = f.values[0]
    d = value.as_rational() if value.is_rational() else None
    if d is None or d.denominator != 1 or d < 0:
        raise NonIntegralCharacterError(
            f"value {value} at the identity is not the degree of a "
            "character")
    return int(d)


def _multiplicity_mod_p(fs, formula, divisor: int, bound: int) -> int:
    """(1/(divisor |G|)) sum_c |c| h(c) mod p, where h = formula(*r) is
    computed on r[i], the residues of fs[i]'s values: lists of ints in
    [0, p), zeta_n sent to root_of_unity_mod(n, p), n the values'
    conductor.  The values are reduced once, and read mod the first
    split prime p of n that divides neither their denominator nor
    divisor * |G|.  For characters the result is an integer in
    [0, bound], so bound < p makes the residue the integer itself; a
    residue past bound raises NonIntegralCharacterError.  A bound not
    below p, or no usable split prime, raises BadPrimeError."""
    st = fs[0].structure
    values = [v for f in fs for v in f.values]
    n = conductor_of(values)
    array, den = int_array([Matrix([values])], n)
    primes = split_primes(n)
    for p in primes:
        if bound >= p:
            raise BadPrimeError(
                f"a multiplicity bounded by {bound} cannot be read mod {p}")
        if den * divisor * st.order % p == 0:
            continue
        r = (reduce_mod_p(array[0, 0], n, p) * pow(den, -1, p) % p).tolist()
        k = st.n_classes
        h = formula(*(r[i:i + k] for i in range(0, len(r), k)))
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
