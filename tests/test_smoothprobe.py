import pytest

from cubicmoduli.errors import BadPrimeError
from cubicmoduli.groups import MatrixGroup
from cubicmoduli.invariants import CubicForm, invariant_basis
from cubicmoduli.smoothprobe import (
    PrimeReduction,
    choose_prime,
    form_conductor,
    probe_nonempty,
    singular_scan,
)

import fixtures as fx

KLEIN = CubicForm.parse("x0*x1^2 + x1*x2^2 + x2*x3^2 + x3*x4^2 + x4*x0^2")
FERMAT = CubicForm.parse("x0^3 + x1^3 + x2^3 + x3^3 + x4^3")


def test_prime_reduction_values():
    red = PrimeReduction(7)
    assert red.root == 3
    # E(3) -> 3^2 = 2 mod 7, a primitive cube root
    from cubicmoduli.cyclo import cyclo
    assert red.reduce(cyclo("E(3)")) == 2
    assert red.reduce(cyclo("1/2")) == 4
    assert red.reduce(cyclo(-1)) == 6
    with pytest.raises(BadPrimeError):
        red.reduce(cyclo("E(11)"))
    with pytest.raises(BadPrimeError):
        red.reduce(cyclo("1/7"))


def test_prime_validation():
    with pytest.raises(BadPrimeError):
        PrimeReduction(6)
    with pytest.raises(BadPrimeError):
        PrimeReduction(3)
    with pytest.raises(BadPrimeError):
        singular_scan(FERMAT.scale(7), 7)


def test_choose_prime():
    assert choose_prime(1) == 7
    assert choose_prime(3) == 7
    assert choose_prime(5) == 11
    assert choose_prime(11) == 23
    assert choose_prime(12) == 13
    with pytest.raises(BadPrimeError):
        choose_prime(60)


def test_fermat_smooth_at_7():
    res = singular_scan(FERMAT, 7)
    assert res.smooth
    assert res.points == 2801
    assert res.first_singular is None


def test_klein_smooth_at_23():
    res = singular_scan(KLEIN, 23)
    assert res.smooth
    assert res.points == 292561


def test_klein_smooth_at_7_too():
    assert singular_scan(KLEIN, 7).smooth


def test_cone_is_caught():
    cone = CubicForm.parse("x0^3 + x1^3 + x2^3 + x3^3")
    res = singular_scan(cone, 7)
    assert not res.smooth
    assert res.first_singular == (0, 0, 0, 0, 1)
    assert res.points == 2801


def test_scan_is_deterministic():
    cone = CubicForm.parse("x0^3 + x1^3 + x3^3 + x0*x1*x4")
    a = singular_scan(cone, 11)
    b = singular_scan(cone, 11)
    assert a == b


# singular at (+-sqrt(3):1:0:0:0): rational over F_11, where 3 = 5^2, but
# not over F_7, where 3 is not a square
CONJUGATE_PAIR_SINGULAR = CubicForm.parse(
    "x0^2*x2 - 3*x1^2*x2 + x2^3 + x3^3 + x4^3 + x2^2*x3")


@pytest.mark.parametrize("prime", [
    11,
    pytest.param(7, marks=pytest.mark.xfail(
        strict=True,
        reason="the scan sees only F_p-rational points; ROADMAP item 1 "
               "replaces it as a certificate by the Jacobian rank test")),
])
def test_scan_finds_singular_point_off_the_rational_points(prime):
    assert not singular_scan(CONJUGATE_PAIR_SINGULAR, prime).smooth


def test_cone_family_never_certifies():
    g = MatrixGroup.generate([fx.Z3C4_A, fx.Z3C4_B])
    space = invariant_basis(g)
    member = CubicForm.zero()
    for b in space.basis:
        member = member + b
    res = singular_scan(member, 7)
    assert not res.smooth
    assert res.first_singular == (0, 0, 1, 0, 0)

    probe = probe_nonempty(space, prime=7, trials=5, seed=0)
    assert not probe.certified
    assert probe.witness is None
    assert probe.scan is not None and not probe.scan.smooth


def test_probe_certifies_generic_family():
    g = MatrixGroup.generate([fx.C5_REGULAR])
    space = invariant_basis(g)
    assert form_conductor(space.basis[0]) == 1
    probe = probe_nonempty(space, trials=20, seed=0)
    assert probe.certified
    assert probe.prime == 7
    assert probe.scan.smooth
    assert probe.witness is not None


def test_probe_picks_split_prime():
    g = MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])
    space = invariant_basis(g)
    # basis has E(3) coefficients, so the default prime must be 1 mod 3
    probe = probe_nonempty(space, trials=20, seed=0)
    assert probe.prime == 7
    assert probe.certified
