import random

import pytest

from cubicmoduli.cyclo import cyclo, root_of_unity
from cubicmoduli.errors import CapExceededError, NotFiniteError
from cubicmoduli.groups import (
    MatrixGroup,
    eigen_profile,
    fingerprint_label,
    matrix_order,
)
from cubicmoduli.linalg import Matrix

import fixtures as fx


def test_closure_orders():
    assert MatrixGroup.generate([fx.C3_BALANCED]).order == 3
    assert MatrixGroup.generate([fx.C5_REGULAR]).order == 5
    assert MatrixGroup.generate([fx.C6_GEN]).order == 6
    assert MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B]).order == 12
    assert MatrixGroup.generate([fx.Z3C4_A, fx.Z3C4_B]).order == 12
    assert MatrixGroup.generate([fx.KLEIN_D, fx.KLEIN_P]).order == 55
    assert MatrixGroup.generate([fx.ALT5_A, fx.ALT5_B]).order == 60
    assert MatrixGroup.generate([fx.FAM43_A, fx.FAM43_B]).order == 9
    assert MatrixGroup.generate([Matrix.identity(5)]).order == 1


def test_infinite_generator_rejected():
    with pytest.raises(NotFiniteError):
        MatrixGroup.generate([Matrix.scalar(5, cyclo(2))])


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        MatrixGroup.generate([fx.ALT5_A, fx.ALT5_B], cap=30)


def test_generation_is_deterministic():
    g1 = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    g2 = MatrixGroup.generate([fx.ALT4_B, fx.ALT4_A])
    assert g1.elements == g2.elements
    assert g1.identity_index == g2.identity_index
    assert [c.members for c in g1.classes] == [c.members for c in g2.classes]


def test_index_arithmetic_matches_matrices():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    rng = random.Random(7)
    for _ in range(40):
        i = rng.randrange(g.order)
        j = rng.randrange(g.order)
        assert g.elements[g.mult(i, j)] == g.elements[i] * g.elements[j]
    for i in range(g.order):
        inv = g.inverse_index(i)
        assert (g.elements[i] * g.elements[inv]).is_identity()
        assert matrix_order(g.elements[i]) == g.element_order(i)


def test_alt4_class_data():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    sizes = [c.size for c in g.classes]
    orders = [c.element_order for c in g.classes]
    assert sizes == [1, 3, 4, 4]
    assert orders == [1, 2, 3, 3]
    # the two order-3 classes are swapped by squaring
    assert g.classes[2].power_class(2) == 3
    assert g.classes[3].power_class(2) == 2
    assert g.classes[1].power_class(3) == 1


def test_order55_class_data():
    g = MatrixGroup.generate([fx.KLEIN_D, fx.KLEIN_P])
    sizes = sorted(c.size for c in g.classes)
    assert sizes == [1, 5, 5, 11, 11, 11, 11]
    orders = sorted(c.element_order for c in g.classes)
    assert orders == [1, 5, 5, 5, 5, 11, 11]
    st = g.class_structure()
    assert st.order == 55 and sum(st.sizes) == 55


def test_eigen_profiles():
    p = eigen_profile(fx.C5_REGULAR)
    assert p.order == 5
    assert p.as_dict() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}

    p = eigen_profile(fx.C3_BALANCED)
    assert (p.order, p.as_dict()) == (3, {0: 1, 1: 2, 2: 2})

    p = eigen_profile(fx.KLEIN_P)
    assert (p.order, p.as_dict()) == (5, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1})

    p = eigen_profile(Matrix.identity(5))
    assert (p.order, p.as_dict()) == (1, {0: 5})

    p = eigen_profile(fx.C2_GEN)
    assert (p.order, p.as_dict()) == (2, {0: 3, 1: 2})


def test_profiles_cover_dimension():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    for i in range(g.order):
        prof = g.eigen_profile_of(i)
        assert prof.dimension() == 5
        assert prof == eigen_profile(g.elements[i])


def test_projective_faithfulness_and_saturation():
    alt4 = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    assert alt4.is_projectively_faithful()

    scalars = MatrixGroup.generate([Matrix.scalar(5, root_of_unity(3))])
    assert not scalars.is_projectively_faithful()


def test_subgroup_scan_order55():
    g = MatrixGroup.generate([fx.KLEIN_D, fx.KLEIN_P])
    recs = g.subgroups_two_generated()
    labels = [r.label for r in recs]
    assert labels == ["1", "Z/5", "Z/11", "Z/11:Z/5"]
    by_label = {r.label: r for r in recs}
    assert by_label["Z/11:Z/5"].order == 55
    assert by_label["Z/11"].order == 11


def test_subgroup_scan_alt4():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    recs = g.subgroups_two_generated()
    labels = [r.label for r in recs]
    assert labels == ["1", "Z/2", "Z/3", "Z/2xZ/2", "Alt(4)"]
    orders = [r.order for r in recs]
    assert orders == [1, 2, 3, 4, 12]


def test_fingerprint_labels():
    assert fingerprint_label((1, True, ((1, 1),))) == "1"
    assert fingerprint_label((7, True, ((1, 1), (7, 6)))) == "Z/7"
    assert fingerprint_label(
        (12, False, ((1, 1), (2, 1), (3, 2), (4, 6), (6, 2)))) == "Z/3:Z/4"
