import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cubicmoduli import catalog
from cubicmoduli.chars import (
    _six_sym_cube,
    character_of,
    class_function,
    commutant_dimension_from_character,
    det_character,
    dim_invariant_cubics,
    dim_special_subvariety,
    inner_product,
    multiplicity,
    psl2_11_datum,
    sym_cube,
    sym_square,
    trivial_character,
)
from cubicmoduli.cyclo import cyclo
from cubicmoduli.errors import (BadPrimeError, GroupMismatchError,
                                NonIntegralCharacterError)
from cubicmoduli.groups import MatrixGroup
from cubicmoduli.linalg import Matrix, int_array, reduce_mod_p, split_primes

import fixtures as fx
from helpers_math import commutant_of


def test_trivial_group_counts():
    g = MatrixGroup.generate([Matrix.identity(5)])
    chi = character_of(g)
    assert dim_invariant_cubics(chi) == 35
    assert multiplicity(sym_square(chi), trivial_character(chi.structure)) == 15
    assert commutant_dimension_from_character(chi) == 25


def test_sym_power_values_on_cyclic():
    g = MatrixGroup.generate([fx.C2_GEN])
    chi = character_of(g)
    s3 = sym_cube(chi)
    # values must be (35, 3): (1 + 3*1*5 + 2*1)/6 = 3 on the involution
    assert [v.as_rational() for v in s3.values] == [35, 3]
    assert dim_invariant_cubics(chi) == 19
    s2 = sym_square(chi)
    assert [v.as_rational() for v in s2.values] == [15, 3]


def test_abstract_datum_orthogonality():
    datum = psl2_11_datum()
    chi1 = datum.character("chi1")
    chi2 = datum.character("chi2")
    chi3 = datum.character("chi3")
    assert inner_product(chi1, chi1) == 1
    assert inner_product(chi2, chi2) == 1
    assert inner_product(chi3, chi3) == 1
    assert inner_product(chi2, chi3) == 0
    assert inner_product(chi2, chi1) == 0
    assert chi3.values == chi2.conjugate().values


def test_abstract_datum_cubic_counts():
    datum = psl2_11_datum()
    chi2 = datum.character("chi2")
    one = trivial_character(datum.structure)
    assert multiplicity(sym_cube(chi2), one) == 1
    # determinant character of a perfect group is trivial
    assert dim_special_subvariety(chi2, one) == 0
    assert multiplicity(sym_square(chi2), one) == 0
    assert dim_invariant_cubics(datum.character("chi3")) == 1


def test_matrix_group_matches_character_route():
    for gens in ([fx.KLEIN_D, fx.KLEIN_P],
                 [fx.ALT4_A, fx.ALT4_B],
                 [fx.ALT5_A, fx.ALT5_B],
                 [fx.C6_GEN, fx.D12_FLIP],
                 [fx.Z3C4_A, fx.Z3C4_B]):
        g = MatrixGroup.generate(gens)
        chi = character_of(g)
        assert commutant_dimension_from_character(chi) == \
            commutant_of(g.elements)


def test_order55_group_values():
    g = MatrixGroup.generate([fx.KLEIN_D, fx.KLEIN_P])
    chi = character_of(g)
    det = det_character(g)
    assert commutant_dimension_from_character(chi) == 1
    assert dim_invariant_cubics(chi) == 1
    assert all(v == 1 for v in det.values)
    assert dim_special_subvariety(chi, det) == 0


def test_alt4_values():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    chi = character_of(g)
    det = det_character(g)
    assert all(v == 1 for v in det.values)
    assert dim_invariant_cubics(chi) == 5
    assert commutant_dimension_from_character(chi) == 3
    assert dim_special_subvariety(chi, det) == 2


def test_alt5_values():
    g = MatrixGroup.generate([fx.ALT5_A, fx.ALT5_B])
    chi = character_of(g)
    det = det_character(g)
    assert [v.as_rational() for v in det.values] == [1] * len(det.values)
    assert dim_invariant_cubics(chi) == 2
    assert commutant_dimension_from_character(chi) == 1
    assert dim_special_subvariety(chi, det) == 1


@pytest.mark.parametrize("entry, values", [
    ("z3-z4", ["1", "-1", "1", "E(4)", "-E(4)", "-1"]),
    ("c3-double", ["1", "E(3)", "-1 - E(3)"]),
])
def test_det_character_values(entry, values):
    assert [str(v) for v in det_character(catalog.load(entry)).values] \
        == values


def _leibniz_det(m):
    total = cyclo(0)
    for perm in itertools.permutations(range(m.rows)):
        term = cyclo(1)
        for i, j in enumerate(perm):
            term = term * m[i, j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total + (-term if inversions % 2 else term)
    return total


@pytest.mark.parametrize("entry", [
    "c2-sign", "c3-double", "fermat-cyclic", "klein-four", "z3-z4",
    "alt4-klein", "alt5-sixpoint", "z11-z5-klein",
])
def test_det_character_is_the_determinant(entry):
    g = catalog.load(entry)
    det = det_character(g)
    assert det.values == tuple(
        _leibniz_det(g.elements[c.rep_index]) for c in g.classes)


def test_structure_mismatch_rejected():
    a = character_of(MatrixGroup.generate([fx.C2_GEN]))
    b = character_of(MatrixGroup.generate([fx.C3_BALANCED]))
    with pytest.raises(GroupMismatchError):
        inner_product(a, b)
    with pytest.raises(GroupMismatchError):
        a.tensor(b)


def test_non_character_rejected():
    g = MatrixGroup.generate([fx.C2_GEN])
    st = g.class_structure()
    fake = class_function(st, [Fraction(1, 2), 0])
    with pytest.raises(NonIntegralCharacterError):
        multiplicity(fake, trivial_character(st))
    # inner products that are rational but fractional still come through
    assert inner_product(fake, trivial_character(st)) == Fraction(1, 4)


# ----------------------------------------------------------------------
# the three dimensions, read mod a split prime, against the exact
# multiplicities of the per-class formulas

def _assert_residues_match_exact(chi, det):
    one = trivial_character(chi.structure)
    assert dim_invariant_cubics(chi) == multiplicity(sym_cube(chi), one)
    assert commutant_dimension_from_character(chi) == multiplicity(chi, chi)
    assert dim_special_subvariety(chi, det) == multiplicity(
        sym_square(det.tensor(chi)), one)


@pytest.mark.parametrize("entry", catalog.entry_ids())
def test_rows_match_exact_formulas_on_the_catalog(entry):
    g = catalog.load(entry)
    _assert_residues_match_exact(character_of(g), det_character(g))


@pytest.fixture(scope="module")
def psl2_11_lattice_rows():
    """Every row of the psl2-11 lattice, restricted from the group."""
    g = catalog.load("psl2-11")
    return [g.subgroup(rec.generator_indices)
            for rec in g.subgroups_two_generated()]


def test_rows_match_exact_formulas_on_the_psl2_11_lattice(
        psl2_11_lattice_rows):
    assert len(psl2_11_lattice_rows) == 16
    for sub in psl2_11_lattice_rows:
        _assert_residues_match_exact(character_of(sub), det_character(sub))


def test_rows_match_exact_formulas_on_the_abstract_datum():
    # chi2 and chi3 of degree 5 twist chi to degree 25: still a character
    datum = psl2_11_datum()
    for a, b in itertools.product(["chi1", "chi2", "chi3"], repeat=2):
        _assert_residues_match_exact(datum.character(a), datum.character(b))


def test_rows_past_int64_take_python_ints():
    # the exact cube of a value over 2^40 is over 6 * 2^120, past int64,
    # so reduce_mod_p reads it on Python ints; its residues are those of
    # the cube formula on the values' residues
    datum = psl2_11_datum()
    st = datum.structure
    alpha = datum.character("chi2").values[6]
    big = Fraction(3 ** 30, 2 ** 40)
    chi = class_function(st, [big, 1, -1, 0, big * alpha, 1, alpha, -big])
    p = split_primes(11)[0]

    def residues(values):
        array, den = int_array([Matrix([values])], 11)
        return array.dtype, reduce_mod_p(array[0, 0], 11, p) * pow(
            den, -1, p) % p

    dtype, x = residues(chi.values)
    cube_dtype, cube = residues(sym_cube(chi).values)
    assert (dtype, cube_dtype) == (np.int64, object)
    assert (cube * 6 % p).tolist() == [v % p for v in _six_sym_cube(
        st, x.tolist())]
    # chi(1) is no degree, so no dimension reads it
    for read in (dim_invariant_cubics, commutant_dimension_from_character,
                 lambda f: dim_special_subvariety(f, datum.character("chi2")),
                 lambda f: dim_special_subvariety(datum.character("chi2"), f)):
        with pytest.raises(NonIntegralCharacterError, match="identity"):
            read(chi)


def _three_dimensions(chi, det):
    return [lambda: dim_invariant_cubics(chi),
            lambda: commutant_dimension_from_character(chi),
            lambda: dim_special_subvariety(chi, det)]


@pytest.mark.parametrize("kind, match", [
    ("half", "identity"), ("E(3) chi", "identity"),
    ("no integral multiplicity", "not an integer in"),
])
def test_non_characters_rejected_by_the_three_dimensions(kind, match):
    g = catalog.load("c2-sign")
    chi, st = character_of(g), g.class_structure()
    w = cyclo("E(3)")
    fake = {"half": [Fraction(1, 2), 0],
            "E(3) chi": [w * v for v in chi.values],
            # norm 25/2, sym^3 multiplicity 35/2, sym^2 multiplicity 35/4
            "no integral multiplicity": [5, 0]}[kind]
    for read in _three_dimensions(class_function(st, fake), det_character(g)):
        with pytest.raises(NonIntegralCharacterError, match=match):
            read()


def test_a_denominator_divisible_by_the_prime_moves_on():
    st = catalog.load("c2-sign").class_structure()
    one = trivial_character(st)
    primes = split_primes(1)
    fake = class_function(st, [5, Fraction(1, primes[0])])
    for read in _three_dimensions(fake, one):
        with pytest.raises(NonIntegralCharacterError,
                           match=f"mod {primes[1]},"):
            read()
    # past the last split prime there is no prime to read it at
    fake = class_function(st, [5, Fraction(1, math.prod(primes))])
    for read in _three_dimensions(fake, one):
        with pytest.raises(BadPrimeError, match="divides a denominator"):
            read()


def test_a_bound_not_below_the_prime_is_refused():
    # 2^16 times the trivial character: a character whose multiplicities
    # may reach d^2 = 2^32 and C(d+1, 2) > 2^31, past every split prime
    st = catalog.load("c2-sign").class_structure()
    big = class_function(st, [1 << 16, 1 << 16])
    for read in _three_dimensions(big, trivial_character(st)):
        with pytest.raises(BadPrimeError, match="cannot be read mod"):
            read()
