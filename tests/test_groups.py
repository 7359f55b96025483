import functools
import gc
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from cubicmoduli import catalog
from cubicmoduli.audit import check_criterion
from cubicmoduli.cyclo import cyclo, root_of_unity
from cubicmoduli.errors import CapExceededError, NotFiniteError
from cubicmoduli.groups import (
    MatrixGroup,
    _RightMultiplication,
    _times,
    fingerprint_label,
)
from cubicmoduli.linalg import Matrix

import fixtures as fx
from helpers_math import exact_closure, matrix_profile


@functools.lru_cache(maxsize=None)
def _entry_group(name):
    return catalog.load(name)


@functools.lru_cache(maxsize=None)
def _entry_oracle(name):
    # psl2-11's exact closure takes seconds: build each entry's once
    return exact_closure(list(catalog.load_entry(name).generators))


def _assert_matches_exact_closure(g, oracle):
    elements, rmul, identity_index, conductor = oracle
    assert g.order == len(elements)
    assert list(g.elements) == elements
    assert [g.row(j) for j in range(g.order)] == rmul
    assert g.identity_index == identity_index
    assert g.conductor == conductor


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
    # the powers of 2 leave int64 after 62 steps
    with pytest.raises(NotFiniteError):
        MatrixGroup.generate([Matrix.scalar(5, cyclo(2))])
    # a unipotent matrix: small entries, int64 up to the order bound
    unipotent = Matrix([[1 if j in (i, i + 1) else 0 for j in range(5)]
                        for i in range(5)])
    with pytest.raises(NotFiniteError):
        MatrixGroup.generate([fx.KLEIN_P, unipotent])


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        MatrixGroup.generate([fx.ALT5_A, fx.ALT5_B], cap=30)
    # the cap bounds the order: a group of exactly cap elements is fine
    assert MatrixGroup.generate([fx.ALT5_A, fx.ALT5_B], cap=60).order == 60
    with pytest.raises(CapExceededError):
        MatrixGroup.generate([fx.ALT5_A, fx.ALT5_B], cap=59)


@pytest.mark.parametrize("name", catalog.entry_ids())
def test_closure_matches_exact_products(name):
    g = _entry_group(name)
    _assert_matches_exact_closure(g, _entry_oracle(name))


def test_closure_with_rational_conjugation():
    # conjugating the shift by diag(1, 2, 4, 1, 1) gives it entries 1/2
    # and 4, and its square the entry 1/4: element denominators are not
    # the generators', and products must be brought to lowest terms
    gens = fx.conjugated([fx.KLEIN_D, fx.KLEIN_P], 1, 2, 4, 1, 1)
    g = MatrixGroup.generate(gens)
    _assert_matches_exact_closure(g, exact_closure(gens))

    def den(m):
        return math.lcm(*(c.denominator for v in m.data
                          for c in v.coefficients()))

    assert sorted({den(m) for m in gens}) == [1, 2]
    assert sorted({den(m) for m in g.elements}) == [1, 2, 4]


@pytest.mark.parametrize("scale", [10 ** 6, 10 ** 12])
def test_closure_past_the_int64_bound(scale):
    # scale 10^6: the generators fit int64 but a product of two elements
    # may not, so the closure holds int64 and Python-int blocks side by
    # side, and an element must get one key in either; scale 10^12:
    # not even the generators fit, so it runs on Python ints throughout
    gens = fx.conjugated([fx.KLEIN_D, fx.KLEIN_P], 1, scale, 1, 1, 1)
    step = _RightMultiplication(gens[1], 1)
    assert (step.matrix.dtype == object) == (scale > 10 ** 6)
    _, nums = _times(*step.element, step)
    assert nums.dtype == object
    g = MatrixGroup.generate(gens)
    assert g.order == 55
    _assert_matches_exact_closure(g, exact_closure(gens))


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
        assert g.elements[i] * g.elements[inv] == Matrix.identity(5)
        assert matrix_profile(g.elements[i])[0] == g.element_order(i)


def test_powers_match_matrix_powers():
    g = _entry_group("alt5-sixpoint")
    for i in range(g.order):
        powers = g.powers(i)
        assert (len(powers) == g.element_order(i)
                == matrix_profile(g.elements[i])[0])
        power = Matrix.identity(5)
        for j in powers:
            assert g.elements[j] == power
            power = power * g.elements[i]


def test_power_index_reduces_the_exponent_mod_the_order():
    g = _entry_group("alt5-sixpoint")
    for i in range(g.order):
        n = g.element_order(i)
        assert g.power_index(i, -1) == g.inverse_index(i)
        assert g.power_index(i, n) == g.identity_index
        assert g.power_index(i, 2 * n + 1) == i
        assert (g.elements[i] * g.elements[g.power_index(i, -1)]
                == Matrix.identity(5))


@pytest.mark.parametrize("name", catalog.entry_ids())
def test_word_walk_above_the_table_limit_matches_the_table(name):
    # the BFS-word walk is the only product route at every order; the
    # oracle's table of exact products checks it
    g = _entry_group(name)
    _, rmul, identity_index, _ = _entry_oracle(name)
    if g.order <= 60:
        pairs = [(i, j) for i in range(g.order) for j in range(g.order)]
    else:
        rng = random.Random(11)
        pairs = [(rng.randrange(g.order), rng.randrange(g.order))
                 for _ in range(2000)]
    assert [g.mult(i, j) for i, j in pairs] == [rmul[j][i] for i, j in pairs]
    for j in sorted({j for _, j in pairs}):
        assert g.row(j) == rmul[j]
    for i in range(g.order):
        powers = [identity_index]
        while rmul[i][powers[-1]] != identity_index:
            powers.append(rmul[i][powers[-1]])
        assert g.element_order(i) == len(powers)
        assert rmul[g.inverse_index(i)][i] == identity_index


def test_fermat_automorphism_group_above_the_table_limit():
    # {diag(zeta_3^a) : sum a = 0 mod 3} x| S_5, the projective
    # automorphism group of the Fermat cubic
    def permutation(images):
        return Matrix([[1 if images[j] == i else 0 for j in range(5)]
                       for i in range(5)])

    g = MatrixGroup.generate([fx.diag(fx.W, fx.W ** 2, 1, 1, 1),
                              permutation([1, 0, 2, 3, 4]),
                              permutation([1, 2, 3, 4, 0])])
    assert g.order == 9720
    start = time.perf_counter()
    report = check_criterion(g, "fermat")
    elapsed = time.perf_counter() - start
    assert len(g.classes) == 36
    assert (report.dim_U, report.commutant_dim) == (1, 1)
    assert (report.dim_moduli, report.dim_special) == (0, 0)
    assert report.criterion_holds is True
    assert str(report.cyclic_locus).startswith("CertifiedYes(")
    assert elapsed < 1.0


def test_closure_memory_is_linear_in_the_order():
    # psl2-11 (order 660): the group keeps its integer arrays and one
    # row per generator, about 1.5 MiB; an order x order table of
    # indices would add about 3 MiB more
    gens = list(catalog.load_entry("psl2-11").generators)
    MatrixGroup.generate(gens)  # the conductor's power tables, cached
    gc.collect()
    tracemalloc.start()
    try:
        g = MatrixGroup.generate(gens)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 660
    assert retained < 2.5 * 2 ** 20


def test_alt4_class_data():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    sizes = [c.size for c in g.classes]
    orders = [c.element_order for c in g.classes]
    assert sizes == [1, 3, 4, 4]
    assert orders == [1, 2, 3, 3]
    # the two order-3 classes are swapped by squaring
    structure = g.class_structure()
    assert structure.power_map(2)[2:] == (3, 2)
    assert structure.power_map(3)[1] == 1


def test_order55_class_data():
    g = MatrixGroup.generate([fx.KLEIN_D, fx.KLEIN_P])
    sizes = sorted(c.size for c in g.classes)
    assert sizes == [1, 5, 5, 11, 11, 11, 11]
    orders = sorted(c.element_order for c in g.classes)
    assert orders == [1, 5, 5, 5, 5, 11, 11]
    st = g.class_structure()
    assert st.order == 55 and sum(st.sizes) == 55


def _profile(prof):
    """An EigenProfile in the oracle's form: (order, {k: mult})."""
    return prof.order, prof.as_dict()


def test_eigen_profiles():
    # the oracle on hand-checked matrices, and the class route on the
    # groups they generate
    for m, want in [
            (fx.C5_REGULAR, (5, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1})),
            (fx.C3_BALANCED, (3, {0: 1, 1: 2, 2: 2})),
            (fx.KLEIN_P, (5, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1})),
            (Matrix.identity(5), (1, {0: 5})),
            (fx.C2_GEN, (2, {0: 3, 1: 2}))]:
        assert matrix_profile(m) == want
        g = MatrixGroup.generate([m])
        assert _profile(g.eigen_profile_of(g.generator_indices[0])) == want


def test_closure_with_a_denominator_past_int64():
    # a reflection with entries (N^2 - 1)/(N^2 + 1) and 2N/(N^2 + 1):
    # the numerators are small next to N^2, but the denominator alone
    # leaves int64
    big = 10 ** 20
    a = Fraction(big ** 2 - 1, big ** 2 + 1)
    b = Fraction(2 * big, big ** 2 + 1)
    reflection = Matrix([[a, b, 0, 0, 0], [b, -a, 0, 0, 0], [0, 0, 1, 0, 0],
                         [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    gens = [reflection, fx.diag(-1, -1, fx.W, 1, 1)]
    g = MatrixGroup.generate(gens)
    assert g.order == 12
    _assert_matches_exact_closure(g, exact_closure(gens))


@pytest.mark.parametrize("name", catalog.entry_ids())
def test_class_profiles_match_matrix_powers(name):
    g = _entry_group(name)
    for c, prof in zip(g.classes, g.class_profiles()):
        m = g.elements[c.rep_index]
        assert _profile(prof) == matrix_profile(m)


def test_subgroup_class_profiles_match_matrix_powers():
    g = _entry_group("z11-z5-klein")
    for rec in g.subgroups_two_generated():
        sub = MatrixGroup.generate(
            [g.elements[i] for i in rec.generator_indices])
        assert sub.order == rec.order
        for c, prof in zip(sub.classes, sub.class_profiles()):
            assert _profile(prof) == matrix_profile(
                sub.elements[c.rep_index])


def test_profiles_cover_dimension():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    for i in range(g.order):
        prof = g.eigen_profile_of(i)
        assert prof.dimension() == 5
        assert _profile(prof) == matrix_profile(g.elements[i])


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


def test_subgroup_scan_above_its_limit_is_a_cap_error():
    from cubicmoduli.groups import SUBGROUP_SCAN_LIMIT

    z11 = root_of_unity(11)
    gens = [Matrix.diagonal([z11 if i == k else 1 for i in range(5)])
            for k in range(3)]
    g = MatrixGroup.generate(gens)
    assert g.order == 1331 > SUBGROUP_SCAN_LIMIT
    with pytest.raises(CapExceededError, match="scan limit"):
        g.subgroups_two_generated()
