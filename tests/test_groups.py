import functools
import gc
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from cubicmoduli import catalog, groups
from cubicmoduli.audit import check_criterion
from cubicmoduli.chars import character_of
from cubicmoduli.cyclo import cyclo, root_of_unity
from cubicmoduli.errors import CapExceededError, NotFiniteError
from cubicmoduli.groups import (
    MatrixGroup,
    _RightMultiplication,
    _times,
    fingerprint_label,
)
import fixtures as fx
from helpers_math import Matrix, exact_closure, exact_elements, matrix_profile


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
    assert list(exact_elements(g)) == elements
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


def _walks(monkeypatch):
    """Calls of the exact power walk, one generator each, from now on."""
    calls = []
    real = groups._check_order

    def spy(step, identity):
        calls.append(step)
        return real(step, identity)

    monkeypatch.setattr(groups, "_check_order", spy)
    return calls


def test_order_bound_exits(monkeypatch):
    message = r"^element order exceeds bound {}; not a finite group element$"
    walks = _walks(monkeypatch)
    # a closure within the bound reads its generators' orders off its
    # rows, with no power walk
    assert MatrixGroup.generate([fx.ALT5_A, fx.ALT5_B]).order == 60
    assert walks == []
    # Alt(4) closes four levels deep, past bound 3, so the exact walk
    # runs; its generators have orders 3 and 2, and it closes
    monkeypatch.setattr(groups, "ORDER_BOUND", 3)
    assert MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B]).order == 12
    assert len(walks) == 2
    # C5 closes four levels deep: its order 5 is read off the closure
    monkeypatch.setattr(groups, "ORDER_BOUND", 4)
    with pytest.raises(NotFiniteError, match=message.format(4)):
        MatrixGroup.generate([fx.C5_REGULAR])
    assert len(walks) == 2
    with pytest.raises(NotFiniteError, match=message.format(4)):
        MatrixGroup.generate([fx.ALT5_A, fx.ALT5_B])
    monkeypatch.setattr(groups, "ORDER_BOUND", 5)
    assert MatrixGroup.generate([fx.C5_REGULAR]).order == 5


def test_unbounded_order_wins_over_the_cap(monkeypatch):
    # the closure of the powers of 2 reaches the cap long before the
    # order bound: the walk at the cap still reports infinite order
    walks = _walks(monkeypatch)
    with pytest.raises(NotFiniteError):
        MatrixGroup.generate([Matrix.scalar(5, cyclo(2))], cap=30)
    assert len(walks) == 1
    # and past the bound the walk stops the closure before the cap
    monkeypatch.setattr(groups, "ORDER_BOUND", 20)
    with pytest.raises(NotFiniteError, match="exceeds bound 20"):
        MatrixGroup.generate([Matrix.scalar(5, cyclo(2))])
    assert len(walks) == 2



def test_singular_generator_rejected():
    # a singular matrix closes to a finite set, but no power of it is the
    # identity: its row never comes back to the identity
    message = (r"^element order exceeds bound 1000; "
               r"not a finite group element$")
    nilpotent = Matrix([[1 if j == i + 1 else 0 for j in range(5)]
                        for i in range(5)])
    for gens in ([Matrix.scalar(5, cyclo(0))],
                 [Matrix([[1 if i == j < 4 else 0 for j in range(5)]
                          for i in range(5)])],
                 [nilpotent],
                 [fx.KLEIN_P, nilpotent]):
        with pytest.raises(NotFiniteError, match=message):
            MatrixGroup.generate(gens)


@pytest.mark.parametrize("gens, message", [
    ([], "need at least one generator"),
    ([[[1, 0, 0], [0, 1, 0]]], "generators must be square"),
    ([[[1, 0], [0]]], "generators must be square"),
], ids=["empty", "non-square", "ragged"])
def test_malformed_generators_are_value_errors(gens, message):
    # raised, not asserted, so that they hold under python -O too
    with pytest.raises(ValueError, match=message):
        MatrixGroup.generate(gens)

def _assert_conjugation_rows(g):
    # the rows read down the BFS tree against the word-walk products
    for gi, row in zip(g.generator_indices, g._conjugation_rows):
        by_ginv = g.row(g.inverse_index(gi))
        assert row == [by_ginv[g.mult(gi, x)] for x in range(g.order)]


@pytest.mark.parametrize("name", catalog.entry_ids())
def test_conjugation_rows_match_products(name):
    _assert_conjugation_rows(_entry_group(name))


def test_conjugation_rows_of_lattice_rows_and_fermat():
    g = _entry_group("psl2-11")
    records = g.subgroups_two_generated()
    assert len(records) == 16
    for rec in records:
        _assert_conjugation_rows(g.subgroup(rec.generator_indices))
    _assert_conjugation_rows(MatrixGroup.generate(fx.FERMAT_GENS))


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
    assert sorted({den(m) for m in exact_elements(g)}) == [1, 2, 4]


@pytest.mark.parametrize("scale", [10 ** 6, 10 ** 12])
def test_closure_past_the_int64_bound(scale):
    # scale 10^6: the generators fit int64 but a product of two elements
    # may not, so the closure holds int64 and Python-int blocks side by
    # side, and an element must get one key in either; scale 10^12:
    # not even the generators fit, so it runs on Python ints throughout
    gens = fx.conjugated([fx.KLEIN_D, fx.KLEIN_P], 1, scale, 1, 1, 1)
    step = _RightMultiplication([list(gens[1])], 1)
    assert (step.matrix.dtype == object) == (scale > 10 ** 6)
    _, nums = _times(*step.element, step)
    assert nums.dtype == object
    g = MatrixGroup.generate(gens)
    assert g.order == 55
    _assert_matches_exact_closure(g, exact_closure(gens))


def test_generation_is_deterministic():
    g1 = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    g2 = MatrixGroup.generate([fx.ALT4_B, fx.ALT4_A])
    assert exact_elements(g1) == exact_elements(g2)
    assert g1.identity_index == g2.identity_index
    assert [c.members for c in g1.classes] == [c.members for c in g2.classes]


def test_index_arithmetic_matches_matrices():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    elements = exact_elements(g)
    rng = random.Random(7)
    for _ in range(40):
        i = rng.randrange(g.order)
        j = rng.randrange(g.order)
        assert elements[g.mult(i, j)] == elements[i] * elements[j]
    for i in range(g.order):
        inv = g.inverse_index(i)
        assert elements[i] * elements[inv] == Matrix.identity(5)
        assert matrix_profile(elements[i])[0] == g.element_order(i)


def test_powers_match_matrix_powers():
    g = _entry_group("alt5-sixpoint")
    elements = exact_elements(g)
    for i in range(g.order):
        powers = g.powers(i)
        assert (len(powers) == g.element_order(i)
                == matrix_profile(elements[i])[0])
        power = Matrix.identity(5)
        for j in powers:
            assert elements[j] == power
            power = power * elements[i]


def test_power_index_reduces_the_exponent_mod_the_order():
    g = _entry_group("alt5-sixpoint")
    elements = exact_elements(g)
    for i in range(g.order):
        n = g.element_order(i)
        assert g.power_index(i, -1) == g.inverse_index(i)
        assert g.power_index(i, n) == g.identity_index
        assert g.power_index(i, 2 * n + 1) == i
        assert (elements[i] * elements[g.power_index(i, -1)]
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
    g = MatrixGroup.generate(fx.FERMAT_GENS)
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
    elements = exact_elements(g)
    for c, prof in zip(g.classes, g.class_profiles()):
        m = elements[c.rep_index]
        assert _profile(prof) == matrix_profile(m)


def test_subgroup_class_profiles_match_matrix_powers():
    g = _entry_group("z11-z5-klein")
    for rec in g.subgroups_two_generated():
        sub = g.subgroup(rec.generator_indices)
        assert sub.order == rec.order
        elements = exact_elements(sub)
        for c, prof in zip(sub.classes, sub.class_profiles()):
            assert _profile(prof) == matrix_profile(elements[c.rep_index])


@pytest.mark.parametrize("name", ["psl2-11", "z11-z5-klein", "alt4-klein",
                                  "alt5-sixpoint"])
def test_subgroup_restriction_matches_reclosure(name):
    # a lattice row restricted from the parent's tables against the
    # closure of its generators' exact matrices: the same elements in the
    # same order, the same tables, class data and audit
    g = _entry_group(name)
    elements = exact_elements(g)
    for rec in g.subgroups_two_generated():
        sub = g.subgroup(rec.generator_indices)
        closed = MatrixGroup.generate(
            [elements[i] for i in rec.generator_indices])
        assert exact_elements(sub) == exact_elements(closed)
        assert sub.conductor == g.conductor
        assert (sub.generator_indices, sub.identity_index) == \
            (closed.generator_indices, closed.identity_index)
        assert sub._steps == closed._steps
        assert sub.classes == closed.classes
        # values, not rows: the subgroup keeps its parent's conductor
        assert character_of(sub).values == character_of(closed).values
        assert sub.class_profiles() == closed.class_profiles()
        assert (check_criterion(sub, rec.label)
                == check_criterion(closed, rec.label))


def test_profiles_cover_dimension():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    elements = exact_elements(g)
    for i in range(g.order):
        prof = g.eigen_profile_of(i)
        assert prof.dimension() == 5
        assert _profile(prof) == matrix_profile(elements[i])


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
