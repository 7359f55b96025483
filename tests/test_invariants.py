import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cubicmoduli import catalog, invariants, linalg
from cubicmoduli.chars import character_of, dim_invariant_cubics
from cubicmoduli.cyclo import cyclo, root_of_unity
from cubicmoduli.errors import ContractViolationError
from cubicmoduli.groups import MatrixGroup
from cubicmoduli.invariants import (
    MONOMIALS,
    CubicForm,
    invariant_basis,
    monomial_str,
)
from cubicmoduli.linalg import int_array, rref, split_primes

import fixtures as fx
from helpers_math import (
    Matrix,
    act,
    dense_rref,
    exact_elements,
    exact_reynolds,
    exact_substitution,
    matrix_rows,
    random_cyclo,
    substituted,
    substitution_matrix,
)

KLEIN = "x0*x1^2 + x1*x2^2 + x2*x3^2 + x3*x4^2 + x4*x0^2"
FERMAT = "x0^3 + x1^3 + x2^3 + x3^3 + x4^3"


def test_monomial_order():
    assert MONOMIALS[0] == (3, 0, 0, 0, 0)
    assert MONOMIALS[-1] == (0, 0, 0, 0, 3)
    assert len(set(MONOMIALS)) == 35
    assert monomial_str((1, 2, 0, 0, 0)) == "x0*x1^2"
    assert monomial_str((0, 0, 1, 1, 1)) == "x2*x3*x4"


def test_parse_and_print():
    f = CubicForm.parse(KLEIN)
    assert f.coefficient((1, 2, 0, 0, 0)) == 1
    assert f.coefficient((2, 0, 0, 0, 1)) == 1
    assert len(f.support()) == 5
    assert CubicForm.parse(str(f)) == f

    g = CubicForm.parse("2*x0^3 - E(3)*x1*x2*x3 + x4^3/2")
    assert g.coefficient((3, 0, 0, 0, 0)) == 2
    assert g.coefficient((0, 1, 1, 1, 0)) == -cyclo("E(3)")
    assert CubicForm.parse(str(g)) == g

    with pytest.raises(ValueError):
        CubicForm.parse("x0^2")
    with pytest.raises(ValueError):
        CubicForm.parse("x0^2*x1^2")
    with pytest.raises(ValueError):
        CubicForm.parse("x0 x1 x2")
    with pytest.raises(ValueError):
        CubicForm.parse("y0^3")

    # the grammar parse_cyclo uses: constants divide anywhere in a term
    h = CubicForm.parse("E(3)/2*x1^3 - (x0 + x1)^2*x2 + 2^-1*x0^3")
    assert h.coefficient((0, 3, 0, 0, 0)) == cyclo("1/2*E(3)")
    assert h.coefficient((1, 1, 1, 0, 0)) == -2
    assert h.coefficient((3, 0, 0, 0, 0)) == cyclo("1/2")


@pytest.mark.parametrize("count", [0, 34, 36])
def test_cubic_form_needs_35_coefficients(count):
    # a ValueError, under python -O too, where an assert would not run
    with pytest.raises(ValueError, match="35 coefficients"):
        CubicForm([1] * count)


@pytest.mark.parametrize("text", [
    "x5^3", "y0^3", "x0/x1", "x0^-1*x1^4", "x0^3/0", "1/0", "E(3) +",
    "2 ** 3", "x0^3 + 1", "x00^3",
])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        CubicForm.parse(text)


def test_action_on_monomial():
    # the cyclic shift sends e_j to e_{j-1}, so on forms x0*x1^2 moves
    # to x4*x0^2
    f = CubicForm.parse("x0*x1^2")
    assert act(fx.KLEIN_P, f) == CubicForm.parse("x4*x0^2")


def test_klein_form_is_preserved():
    f = CubicForm.parse(KLEIN)
    assert act(fx.KLEIN_D, f) == f
    assert act(fx.KLEIN_P, f) == f


def _applied(S, form):
    """The form with coefficient vector S * coeffs(form)."""
    return CubicForm((S * Matrix([[c] for c in form.coefficients])).column(0))


def test_action_is_homomorphism():
    # the kernel's composites against products of the exact reference
    rng = random.Random(11)
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    elements = exact_elements(g)
    f = CubicForm.parse("x0^3 + 2*x1*x2^2 - x3*x4^2 + x2*x3*x4")
    for _ in range(6):
        a = elements[rng.randrange(g.order)]
        b = elements[rng.randrange(g.order)]
        product = exact_substitution(a) * exact_substitution(b)
        assert act(a, act(b, f)) == act(a * b, f) == _applied(product, f)
        assert substitution_matrix(a * b) == product


_FORMS = [CubicForm.parse(s) for s in (
    "x0^3 + 2*x1*x2^2 - x3*x4^2 + x2*x3*x4",
    "E(3)*x0*x1*x2 - 1/2*x3^3 + x0*x4^2 - E(5)^2*x1^2*x4",
)]


@pytest.mark.parametrize("gens", [
    *(list(catalog.load_entry(e).generators) for e in catalog.entry_ids()),
    fx.conjugated([fx.KLEIN_D, fx.KLEIN_P], 1, 10 ** 6, 1, 1, 1),
    fx.conjugated([fx.KLEIN_D, fx.KLEIN_P], 1, 10 ** 12, 1, 1, 1),
], ids=[*catalog.entry_ids(), "klein-55-large", "klein-55-huge"])
def test_substitution_kernel_matches_exact_substitution(gens):
    group = MatrixGroup.generate(gens)
    for g, i in zip(gens, group.generator_indices):
        S = exact_substitution(g)
        assert substitution_matrix(g) == S
        for f in _FORMS:
            image = _applied(S, f)
            assert act(g, f) == image
            assert invariants.fixed_by(group, i, [f]) == (image == f)


def _fixed_by_against_exact(group, form, indices):
    # the integer test against the exact combination of the kernel's
    # images, under the elements of the given indices; returns how many
    # of them fix form
    got = [invariants.fixed_by(group, i, [form]) for i in indices]
    want = [substituted(*group.arrays([group.inverse_index(i)]),
                        group.conductor, form) == form for i in indices]
    assert got == want
    return sum(got)


@pytest.mark.parametrize("entry", [
    e for e in catalog.entry_ids() if catalog.load_entry(e).fixed_form])
def test_fixed_by_matches_exact_substitution(entry):
    group = catalog.load(entry)
    form = catalog.load_entry(entry).fixed_form
    # every element fixes the contract's form; the exact oracle checks
    # all of them up to order 55, and of psl2-11's 660 (2.5 s for all)
    # the identity, the generators and 30 others
    everything = range(group.order)
    assert all(invariants.fixed_by(group, i, [form]) for i in everything)
    indices = (everything if group.order <= 55 else sorted(
        {group.identity_index, *group.generator_indices,
         *random.Random(5).sample(everything, 30)}))
    assert _fixed_by_against_exact(group, form, indices) == len(indices)
    # E(3) times the form is fixed too, compared over Q(zeta_lcm)
    scaled = form.scale(root_of_unity(3))
    assert _fixed_by_against_exact(group, scaled, indices) == len(indices)
    # the form changed at one coefficient: the identity fixes it, and
    # some element does not
    for change in (1, root_of_unity(3)):
        coeffs = list(form.coefficients)
        coeffs[0] = coeffs[0] + change
        fixing = _fixed_by_against_exact(group, CubicForm(coeffs), indices)
        assert 0 < fixing < len(indices)


def test_fixed_by_on_invariants_outside_the_field():
    # alt4-klein's invariants have coefficients in Q(zeta_3); combined
    # with powers of E(7) they are read in Q(zeta_21), where the images'
    # roots of unity zeta_3^a must become zeta_21^(7a)
    group = catalog.load("alt4-klein")
    basis = invariant_basis(group).basis
    assert len(basis) == 5
    form = CubicForm.zero()
    for k, b in enumerate(basis):
        form = form + b.scale(root_of_unity(7, k))
    everything = range(group.order)
    assert _fixed_by_against_exact(group, form, everything) == group.order
    changed = form + CubicForm.parse("E(7)*x0*x1*x2")
    assert 0 < _fixed_by_against_exact(group, changed, everything) < 12


@pytest.mark.parametrize("scale", [(1, 2, 4, 1, 1), (1, 10 ** 12, 1, 1, 1)],
                         ids=["rational", "past-int64"])
def test_fixed_by_on_a_rational_conjugate(scale):
    # g' = t g t^-1 fixes F(t^-1 x) when g fixes F
    group = MatrixGroup.generate(fx.conjugated([fx.KLEIN_D, fx.KLEIN_P],
                                               *scale))
    form = act(fx.diag(*scale), CubicForm.parse(KLEIN))
    assert form != CubicForm.parse(KLEIN)
    everything = range(group.order)
    assert _fixed_by_against_exact(group, form, everything) == 55
    changed = form + CubicForm.parse("x0^3")
    assert 0 < _fixed_by_against_exact(group, changed, everything) < 55


def test_fixes_compares_past_int64():
    # S R = s_den R with s_den * R past int64 while R itself fits: the
    # comparison must not wrap around in int64
    R = np.zeros((35, 1, 1), dtype=np.int64)
    R[0, 0, 0] = 4
    S = np.zeros((35, 1, 1), dtype=np.int64)
    S[0, 0, 0] = 1 << 62
    assert invariants._fixes(S, 1 << 62, R, [0], 1)
    assert not invariants._fixes(S, (1 << 62) + 1, R, [0], 1)


def test_trivial_group_has_everything():
    g = MatrixGroup.generate([Matrix.identity(5)])
    space = invariant_basis(g)
    assert space.dimension == 35
    assert space.contains(CubicForm.parse(KLEIN))


def test_sign_group_dimension():
    g = MatrixGroup.generate([fx.C2_GEN])
    assert invariant_basis(g).dimension == 19


def test_klein_group_invariants():
    g = MatrixGroup.generate([fx.KLEIN_D, fx.KLEIN_P])
    space = invariant_basis(g)
    assert space.dimension == 1
    assert space.basis[0] == CubicForm.parse(KLEIN)


# x1 -> x0 + x1
_SHEAR = fx.from_cols((1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                      (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


@pytest.mark.parametrize("gens", [
    # a diagonal element of order 11 folds the sum over 5 cosets
    [fx.KLEIN_D, fx.KLEIN_P],
    # the only non-identity diagonal elements have order 2
    [fx.ALT4_A, fx.ALT4_B],
    # the identity is the only diagonal element: the plain sum
    [fx.KLEIN_P],
    # dense and not monomial: 60 representatives, 125 products a column
    [fx.ALT5_A, fx.ALT5_B],
    # entries 1/2, 3 and 2/3 next to E(3): a common denominator of 6
    fx.conjugated([fx.ALT4_A, fx.ALT4_B], 1, 1, 2, 1, 3),
    # entries 10^6 and 10^-6: each fits int64, their products do not,
    # so the accumulation runs on Python ints
    fx.conjugated([fx.KLEIN_D, fx.KLEIN_P], 1, 10 ** 6, 1, 1, 1),
    # entries 10^12 and 10^-12: not even the entries fit int64
    fx.conjugated([fx.KLEIN_D, fx.KLEIN_P], 1, 10 ** 12, 1, 1, 1),
    # every cubic monomial has weight 3 mod 9 under E(9): R = 0
    [Matrix.scalar(5, root_of_unity(9))],
    # an order-11 element that is not diagonal: all 35 monomials over
    # Q(zeta_11) survive, summed in several blocks of monomials and of
    # elements
    [_SHEAR * fx.KLEIN_D * _SHEAR.inverse()],
], ids=["klein-55", "alt4", "cyclic-shift", "alt5", "alt4-rational",
        "klein-55-large", "klein-55-huge", "scalar-9", "z11-sheared"])
def test_reynolds_operator_is_the_group_average(gens):
    g = MatrixGroup.generate(gens)
    elements = exact_elements(g)
    total = exact_substitution(elements[0])
    for m in elements[1:]:
        total = total + exact_substitution(m)
    assert exact_reynolds(g) == total * Fraction(1, g.order)


@pytest.mark.parametrize("scale, den, dtype", [
    pytest.param((1, 10 ** 6, 1, 1, 1), 10 ** 6, np.int64,
                 id="1000000-int64"),
    pytest.param((1, 10 ** 12, 1, 1, 1), 10 ** 12, object,
                 id="1000000000000-object"),
    # element denominators 1, 2 and 4, over one common denominator
    pytest.param((1, 2, 4, 1, 1), 4, np.int64, id="rational-1-2-4"),
])
def test_large_entries_take_the_python_int_path(scale, den, dtype):
    g = MatrixGroup.generate(fx.conjugated([fx.KLEIN_D, fx.KLEIN_P], *scale))
    elements = exact_elements(g)
    arrays, got_den = int_array(list(map(matrix_rows, elements)),
                                g.conductor)
    assert got_den == den and arrays.dtype == dtype
    # the group's own arrays are int_array's, for any index set
    for indices in (range(g.order),
                    [g.inverse_index(i) for i in range(0, g.order, 3)]):
        got, got_den = g.arrays(indices)
        want, want_den = int_array(
            [matrix_rows(elements[i]) for i in indices], g.conductor)
        assert got_den == want_den and got.dtype == want.dtype
        assert np.array_equal(got, want)
    if max(scale) >= 10 ** 6:
        # a product of three entries alone leaves the int64 range, so
        # the Reynolds sum must not run in int64
        assert int(abs(arrays).max()) ** 3 >= 2 ** 63


def test_nine_element_diagonal_group():
    g = MatrixGroup.generate([fx.FAM43_A, fx.FAM43_B])
    space = invariant_basis(g)
    expected = [CubicForm.parse(s) for s in (
        "x0^3", "x0*x2*x3", "x1^3", "x2^3", "x3^3", "x4^3",
    )]
    assert list(space.basis) == expected
    assert space.split_variable() == 1
    assert space.missing_variables() == ()


def test_order12_cone_group():
    g = MatrixGroup.generate([fx.Z3C4_A, fx.Z3C4_B])
    space = invariant_basis(g)
    expected = [CubicForm.parse(s) for s in (
        "x0^3", "x0^2*x1", "x0*x1^2", "x0*x3*x4",
        "x1^3", "x1*x3*x4", "x3^3 + x4^3",
    )]
    assert list(space.basis) == expected
    assert space.missing_variables() == (2,)
    assert space.split_variable() is None


def test_alt4_invariants():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    space = invariant_basis(g)
    assert space.dimension == 5
    for s in ("x0^3", "x1^3", "x2*x3*x4",
              "x0*x2^2 + E(3)^2*x0*x3^2 + E(3)*x0*x4^2",
              "x1*x2^2 + E(3)*x1*x3^2 + E(3)^2*x1*x4^2"):
        assert space.contains(CubicForm.parse(s)), s
    assert not space.contains(CubicForm.parse(FERMAT))


def test_membership_on_a_non_monomial_family():
    # membership is read at the pivots of the echelon basis: a form that
    # agrees with a member there but not elsewhere must be out, as the
    # rank of the basis with the form appended says
    space = invariant_basis(catalog.load("alt5-sixpoint"))
    rows = [list(b.coefficients) for b in space.basis]
    pivots = rref(rows)[2]
    rng = random.Random(5)
    member = CubicForm.zero()
    for b in space.basis:
        assert space.contains(b)
        member = member + b.scale(random_cyclo(rng))
    assert space.contains(member)
    assert rref([*rows, member.coefficients])[0] == len(rows)
    for j in range(35):
        if j in pivots:
            continue
        off = list(member.coefficients)
        off[j] = off[j] + 1
        assert not space.contains(CubicForm(off))
        assert rref([*rows, off])[0] == len(rows) + 1
    # with no basis rows only the zero form is in
    zero = invariant_basis(MatrixGroup.generate(
        [Matrix.scalar(5, root_of_unity(9))]))
    assert zero.contains(CubicForm.zero())
    assert not zero.contains(CubicForm.parse(FERMAT))


def test_dimension_matches_character_route():
    for gens in ([fx.ALT4_A, fx.ALT4_B],
                 [fx.ALT5_A, fx.ALT5_B],
                 [fx.Z3C4_A, fx.Z3C4_B],
                 [fx.KLEIN_FOUR_A, fx.KLEIN_FOUR_B],
                 [fx.C6_GEN],
                 [fx.C6_GEN, fx.D12_FLIP]):
        g = MatrixGroup.generate(gens)
        assert invariant_basis(g).dimension == \
            dim_invariant_cubics(character_of(g))


def test_alt5_invariants():
    g = MatrixGroup.generate([fx.ALT5_A, fx.ALT5_B])
    space = invariant_basis(g)
    assert space.dimension == 2


def test_empty_or_full_support_helpers():
    g = MatrixGroup.generate([fx.C5_REGULAR])
    space = invariant_basis(g)
    assert space.dimension == 7
    assert space.variable_support() == (0, 1, 2, 3, 4)


def _read_off_echelon_basis(basis):
    """(dimension, missing variables, split variable) of the span of an
    echelon basis, from the monomials its forms use."""
    support = {e for f in basis for e in f.support()}
    missing = tuple(i for i in range(5) if not any(e[i] for e in support))
    cubes = [tuple(3 if k == i else 0 for k in range(5)) for i in range(5)]
    split = next((i for i in range(5)
                  if [e for e in support if e[i]] == [cubes[i]]), None)
    return len(basis), missing, split


def _read_off_space(space):
    return (space.dimension, space.missing_variables(),
            space.split_variable())


def _assert_matches_transpose_echelon_basis(g, space):
    """The space against the row reduction of R^T, R the exact Reynolds
    operator: the same basis, the same values read off it, and R's
    nonzero columns as the spanning forms."""
    R = exact_reynolds(g)
    rank_, reduced, _ = dense_rref([list(R.column(j)) for j in range(35)])
    basis = tuple(CubicForm(reduced[i]) for i in range(rank_))
    assert space.basis == basis
    assert _read_off_space(space) == _read_off_echelon_basis(basis)
    columns = [CubicForm(R.column(j)) for j in range(35)]
    assert list(space.spanning) == [f for f in columns if f]


@pytest.mark.parametrize("entry", catalog.entry_ids())
def test_space_read_off_the_array_matches_the_echelon_basis(entry):
    g = catalog.load(entry)
    _assert_matches_transpose_echelon_basis(g, invariant_basis(g))


@pytest.mark.parametrize("gens", [
    fx.conjugated([fx.ALT4_A, fx.ALT4_B], 1, 1, 2, 1, 3),
    fx.conjugated([fx.KLEIN_D, fx.KLEIN_P], 1, 10 ** 6, 1, 1, 1),
    fx.conjugated([fx.KLEIN_D, fx.KLEIN_P], 1, 10 ** 12, 1, 1, 1),
    [Matrix.scalar(5, root_of_unity(9))],
], ids=["alt4-rational", "klein-55-large", "klein-55-huge", "scalar-9"])
def test_space_on_python_ints_matches_the_echelon_basis(gens):
    g = MatrixGroup.generate(gens)
    _assert_matches_transpose_echelon_basis(g, invariant_basis(g))


@pytest.fixture(scope="module")
def psl2_11_rows():
    """The subgroups of order at most 60 in the psl2-11 lattice, one per
    conjugacy class, restricted from the group as the lattice audits
    them."""
    g = catalog.load("psl2-11")
    return [g.subgroup(rec.generator_indices)
            for rec in g.subgroups_two_generated() if rec.order <= 60]


def test_psl2_11_rows_match_their_echelon_bases(psl2_11_rows):
    assert len(psl2_11_rows) == 15
    for sub in psl2_11_rows:
        space = invariant_basis(sub)
        # the exact echelon basis, built by row reduction of spanning
        # forms independent mod p, its exact rank checked against the
        # dimension read mod p
        assert _read_off_space(space) == _read_off_echelon_basis(space.basis)
        assert space.dimension == dim_invariant_cubics(character_of(sub))


def _kernel_calls(group, space) -> int:
    """The substitution sums invariant_basis makes: the Reynolds sum
    only when a coset besides <h> exists (<h> itself is the identity on
    the surviving monomials), and one check per distinct non-identity
    generator when the space is not zero."""
    h_order = invariants._diagonal_of_largest_order(group)[0]
    gens = set(group.generator_indices) - {group.identity_index}
    return ((group.order > h_order)
            + (len(gens) if space.monomial_support() else 0))


def _assert_int64_kernel_matches_python_ints(monkeypatch, groups):
    """Every substitution sum that invariant_basis makes on the groups,
    the Reynolds sum and the generator checks, runs on int64 and equals
    the same sum on Python ints."""
    real = invariants._sum_of_images
    calls = []

    def recorded(arrays, factors, n):
        out = real(arrays, factors, n)
        calls.append((arrays, factors, n, out))
        return out

    monkeypatch.setattr(invariants, "_sum_of_images", recorded)
    expected = 0
    for g in groups:
        expected += _kernel_calls(g, invariant_basis(g))
    assert len(calls) == expected
    for arrays, factors, n, out in calls:
        assert out.dtype == np.int64
        assert np.array_equal(out, real(arrays.astype(object), factors, n))


@pytest.mark.parametrize("entry", catalog.entry_ids())
def test_catalog_sums_stay_in_int64(monkeypatch, entry):
    _assert_int64_kernel_matches_python_ints(monkeypatch,
                                             [catalog.load(entry)])


def test_psl2_11_row_sums_stay_in_int64(monkeypatch, psl2_11_rows):
    _assert_int64_kernel_matches_python_ints(monkeypatch, psl2_11_rows)


@pytest.mark.parametrize("gens, limit", [
    # 60 coset representatives over Q(zeta_11)
    (list(catalog.load_entry("psl2-11").generators), 1.5 * 2 ** 20),
    # 3240 coset representatives
    (fx.FERMAT_GENS, 4 * 2 ** 20),
], ids=["psl2-11", "fermat"])
def test_reynolds_sum_memory_is_bounded(gens, limit):
    # the kernel works in blocks of monomials and of representatives;
    # summed in one piece, its temporaries would grow with the number
    # of representatives
    g = MatrixGroup.generate(gens)
    invariant_basis(g)  # the group's and the conductor's tables, cached
    gc.collect()
    tracemalloc.start()
    try:
        invariant_basis(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit


@pytest.mark.parametrize("load", [
    lambda: MatrixGroup.generate([fx.KLEIN_D, fx.KLEIN_P]),
    # G = <h>: R is the fold's identity term alone, with no Reynolds
    # kernel call
    lambda: catalog.load("c5-regular"),
], ids=["klein", "c5-regular"])
def test_perturbed_reynolds_sums_are_caught(monkeypatch, load):
    g = load()
    real = invariants._reynolds_array

    def perturbed(group):
        # add row k of R to a row m whose column is zero: R becomes
        # (I + E_mk) R, so rank and trace stay and only the operator
        # check can see it
        R, den = real(group)
        rows = set(np.flatnonzero(R.any(axis=(1, 2))))
        cols = set(np.flatnonzero(R.any(axis=(0, 2))))
        k = min(rows)
        m = min(set(range(35)) - rows - cols)
        R[m] += R[k]
        return R, den

    monkeypatch.setattr(invariants, "_reynolds_array", perturbed)
    with pytest.raises(ContractViolationError, match="moves under"):
        invariant_basis(g)


def test_rank_deficit_moves_to_the_next_prime(monkeypatch):
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    first, second = itertools.islice(split_primes(g.conductor), 2)
    real = invariants.pivots_mod_p
    calls = []

    def short_at_first(m, p):
        calls.append(p)
        pivots = real(m, p)
        return pivots[:-1] if p == first else pivots

    monkeypatch.setattr(invariants, "pivots_mod_p", short_at_first)
    space = invariant_basis(g)
    assert calls == [first, second]
    assert space.rank_primes == (first, second)
    assert space.dimension == 5
    assert len(space.basis) == 5


def test_rank_short_at_every_prime_is_a_contract_violation(monkeypatch):
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    real = invariants.pivots_mod_p
    monkeypatch.setattr(invariants, "pivots_mod_p",
                        lambda m, p: real(m, p)[:-1])
    with pytest.raises(ContractViolationError, match="trace 5 but rank 4"):
        invariant_basis(g)


@pytest.mark.parametrize("entry", catalog.entry_ids())
def test_audit_builds_no_exact_basis(monkeypatch, entry):
    from cubicmoduli.audit import check_criterion

    g = catalog.load(entry)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    monkeypatch.setattr(invariants, "rref", counted("rref", invariants.rref))
    check_criterion(g, group_id=entry)
    assert calls == []
    # nor exact element matrices: the group holds integer rows only
    assert not hasattr(g, "elements")
