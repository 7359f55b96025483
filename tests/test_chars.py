import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from cubicmoduli import catalog
from cubicmoduli.chars import (
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
from cubicmoduli.errors import GroupMismatchError, NonIntegralCharacterError
from cubicmoduli.groups import MatrixGroup
from cubicmoduli.linalg import Matrix

import fixtures as fx
from helpers_math import (commutant_of, exact_inner_product, exact_sym_cube,
                          exact_sym_square)


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
# the row arithmetic against the exact per-class formulas

def _assert_inner_product_matches(a, b):
    exact = exact_inner_product(a, b)
    if exact.is_rational():
        assert inner_product(a, b) == exact.as_rational()
    else:
        with pytest.raises(NonIntegralCharacterError,
                           match=re.escape(f"not rational: {exact}")):
            inner_product(a, b)


def _assert_rows_match_exact_formulas(chi, other):
    """sym^2, sym^3, conjugates, the tensor with other and the inner
    products that the audit takes, each against the exact formula on
    the exact values."""
    one = trivial_character(chi.structure)
    assert sym_square(chi).values == exact_sym_square(chi)
    assert sym_cube(chi).values == exact_sym_cube(chi)
    assert chi.conjugate().values == tuple(v.conjugate() for v in chi.values)
    twisted = other.tensor(chi)
    assert twisted.values == tuple(
        a * b for a, b in zip(other.values, chi.values))
    assert sym_square(twisted).values == exact_sym_square(twisted)
    for a, b in [(chi, chi), (sym_cube(chi), one),
                 (sym_square(twisted), one), (chi, other), (other, chi),
                 (chi, one)]:
        _assert_inner_product_matches(a, b)


@pytest.mark.parametrize("entry", catalog.entry_ids())
def test_rows_match_exact_formulas_on_the_catalog(entry):
    g = catalog.load(entry)
    _assert_rows_match_exact_formulas(character_of(g), det_character(g))


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
        _assert_rows_match_exact_formulas(character_of(sub),
                                          det_character(sub))


def test_rows_match_exact_formulas_on_the_abstract_datum():
    datum = psl2_11_datum()
    for a, b in itertools.product(["chi1", "chi2", "chi3"], repeat=2):
        _assert_rows_match_exact_formulas(datum.character(a),
                                          datum.character(b))


def test_rows_past_int64_take_python_ints():
    datum = psl2_11_datum()
    alpha = datum.character("chi2").values[6]
    big = Fraction(3 ** 30, 2 ** 40)
    chi = class_function(datum.structure,
                         [big, 1, -1, 0, big * alpha, 1, alpha, -big])
    assert chi.rows.dtype == np.int64 and chi.den == 2 ** 40
    # the cube's denominator, 6 * 2^120, and its numerators need more
    # than 64 bits
    assert sym_cube(chi).rows.dtype == object
    _assert_rows_match_exact_formulas(chi, datum.character("chi3"))
    _assert_rows_match_exact_formulas(datum.character("chi2"), chi)
