import itertools

import pytest

from cubicmoduli import linalg
from cubicmoduli.audit import (
    check_criterion,
    cyclic_locus_flag,
    dims_dual_route,
    lattice_csv,
    lattice_nodes,
    lattice_report,
    lattice_text,
    liftability_check,
)
from cubicmoduli.cyclo import root_of_unity
from cubicmoduli.errors import InconsistencyError, NotProjectivelyFaithfulError
from cubicmoduli.groups import MatrixGroup
from cubicmoduli.linalg import RANK_PRIME_ATTEMPTS, Matrix

import fixtures as fx


def audit(gens, **kw):
    if gens:
        g = MatrixGroup.generate(gens)
    else:
        g = MatrixGroup.generate([Matrix.identity(5)])
    return check_criterion(g, **kw)


def test_trivial_group():
    r = audit([], group_id="trivial")
    assert (r.dim_U, r.commutant_dim) == (35, 25)
    assert (r.dim_moduli, r.dim_special) == (10, 15)
    assert r.criterion_holds is False
    assert r.nonempty.status == "Certified"
    assert not r.liftability_violations


def test_small_cyclic_nodes():
    r = audit([fx.C2_GEN])
    assert (r.dim_moduli, r.dim_special) == (6, 9)

    r = audit([fx.C3_BALANCED])
    assert (r.dim_moduli, r.dim_special) == (4, 5)

    r = audit([fx.C5_REGULAR])
    assert (r.dim_moduli, r.dim_special) == (2, 3)
    assert not r.liftability_violations

    r = audit([fx.KLEIN_FOUR_A, fx.KLEIN_FOUR_B])
    assert (r.dim_moduli, r.dim_special) == (4, 6)
    assert r.criterion_holds is False


def test_unbalanced_pair_from_remark():
    r = audit([fx.C3_DOUBLE])
    assert (r.dim_moduli, r.dim_special) == (1, 3)
    assert r.criterion_holds is False

    r = audit([fx.C3_LINE_A, fx.C3_LINE_B])
    assert (r.dim_moduli, r.dim_special) == (1, 1)
    assert r.criterion_holds is True
    assert r.cyclic_locus.certified


def test_cyclic_locus_generator():
    r = audit([fx.C3_LINE_A])
    assert r.dim_U == 21
    assert r.commutant_dim == 17
    assert r.dim_moduli == 4
    assert r.cyclic_locus.certified
    assert "Diag(zeta3,1,1,1,1)" in r.cyclic_locus.reason


def test_alt4_report():
    r = audit([fx.ALT4_A, fx.ALT4_B], group_id="alt4")
    assert (r.dim_U, r.commutant_dim) == (5, 3)
    assert (r.dim_moduli, r.dim_special) == (2, 2)
    assert r.criterion_holds is True
    assert not r.liftability_violations
    assert r.nonempty.status == "Certified"


def test_alt5_report():
    r = audit([fx.ALT5_A, fx.ALT5_B], group_id="alt5")
    assert (r.dim_moduli, r.dim_special) == (1, 1)
    assert r.criterion_holds is True
    assert not r.cyclic_locus.certified


def test_cone_family_withholds_moduli():
    r = audit([fx.Z3C4_A, fx.Z3C4_B], group_id="cone")
    assert r.dim_U == 7
    assert r.dim_moduli is None
    assert r.criterion_holds is None
    assert r.nonempty.status == "EmptyCertified"
    assert "x2" in r.nonempty.reason
    assert not r.liftability_violations


def test_split_variable_family():
    r = audit([fx.FAM43_A, fx.FAM43_B], group_id="fam43")
    assert r.dim_U == 6
    assert r.cyclic_locus.certified
    assert "x1" in r.cyclic_locus.reason


def test_liftability_violations():
    g = MatrixGroup.generate([fx.diag(-1, -1, -1, 1, 1)])
    violations = liftability_check(g)
    assert len(violations) == 1 and "order-2" in violations[0]
    r = check_criterion(g)
    assert r.nonempty.status == "EmptyCertified"
    assert "liftability" in r.nonempty.reason
    assert r.dim_moduli is None

    g = MatrixGroup.generate([fx.diag(fx.I4, 1, 1, 1, 1)])
    violations = liftability_check(g)
    assert any("order-4" in v for v in violations)

    g = MatrixGroup.generate([fx.diag(fx.Z5, fx.Z5, 1, 1, 1)])
    violations = liftability_check(g)
    assert any("order-5" in v for v in violations)

    assert liftability_check(
        MatrixGroup.generate([fx.ALT4_A, fx.ALT4_B])) == []
    assert liftability_check(MatrixGroup.generate([fx.C5_REGULAR])) == []


def test_order55_group_report():
    g = MatrixGroup.generate([fx.KLEIN_D, fx.KLEIN_P])
    r = check_criterion(g, group_id="klein55")
    assert (r.dim_U, r.commutant_dim) == (1, 1)
    assert (r.dim_moduli, r.dim_special) == (0, 0)
    assert r.criterion_holds is True
    assert r.nonempty.status == "Certified"


def test_scalars_rejected():
    g = MatrixGroup.generate([Matrix.scalar(5, root_of_unity(3))])
    with pytest.raises(NotProjectivelyFaithfulError):
        check_criterion(g)


def test_probe_evidence_in_report():
    g = MatrixGroup.generate([fx.C5_REGULAR])
    # one sample, singular at (0:0:1:0:0) after 2745 of the 2801 points
    r = check_criterion(g, trials=1, seed=0)
    assert r.nonempty.status == "Inconclusive"
    assert r.nonempty.reason == ("no smooth member in 1 scans of 1 samples "
                                 "mod 7; last singular point (0:0:1:0:0)")
    assert (r.provenance["probe_scans"], r.provenance["probe_points"]) == \
        (1, 2745)
    assert r.dim_moduli is None

    r = check_criterion(g, seed=0)
    assert r.nonempty.status == "Certified"
    assert (r.provenance["probe_scans"], r.provenance["probe_points"]) == \
        (2, 2745 + 2801)


def test_lattice_on_order55():
    g = MatrixGroup.generate([fx.KLEIN_D, fx.KLEIN_P])
    rows = lattice_report(g)
    assert [row.label for row in rows] == ["1", "Z/5", "Z/11", "Z/11:Z/5"]
    numbers = [(row.report.dim_moduli, row.report.dim_special)
               for row in rows]
    assert numbers == [(10, 15), (2, 3), (0, 0), (0, 0)]
    verdicts = [row.report.criterion_holds for row in rows]
    assert verdicts == [False, False, True, True]

    nodes = lattice_nodes(rows)
    assert len(nodes) == 4

    csv = lattice_csv(rows)
    assert csv.splitlines()[0] == "node,order,type,dim_M,dim_Z,criterion"
    assert "Z/11:Z/5" in csv
    text = lattice_text(rows)
    assert "Z/11" in text and "=" in text


def test_lattice_row_of_the_wrong_order_is_inconsistent(monkeypatch):
    g = MatrixGroup.generate([fx.KLEIN_D, fx.KLEIN_P])
    trivial = MatrixGroup.generate([Matrix.identity(5)])
    # every proper subgroup's closure comes out trivial
    monkeypatch.setattr(MatrixGroup, "generate",
                        classmethod(lambda cls, gens: trivial))
    with pytest.raises(InconsistencyError,
                       match="closure of its generators has order 1"):
        lattice_report(g)


def test_cyclic_locus_flag_routes():
    g = MatrixGroup.generate([fx.C3_LINE_A])
    assert cyclic_locus_flag(g).certified

    g = MatrixGroup.generate([fx.C5_REGULAR])
    flag = cyclic_locus_flag(g)
    assert not flag.certified
    assert flag.reason is None


def skew_rank(monkeypatch, shift_at):
    """Make rank_mod_p at the prime p return shift_at(p) more than the
    true rank, so the commutant mod p comes out shift_at(p) lower."""
    real = linalg.rank_mod_p

    def skewed(m, p):
        return real(m, p) + shift_at(p)

    monkeypatch.setattr(linalg, "rank_mod_p", skewed)


def test_rank_excess_moves_to_the_next_prime(monkeypatch):
    g = MatrixGroup.generate([fx.KLEIN_D])
    first, second = itertools.islice(linalg.split_primes(g.conductor), 2)
    # a rank one short at the first prime: the commutant reads one more
    skew_rank(monkeypatch, lambda p: -1 if p == first else 0)
    dim_u, comm, _, _, primes = dims_dual_route(g)
    assert (dim_u, comm) == (5, 5)
    assert primes == [first, second]
    r = check_criterion(g)
    assert r.commutant_dim == 5
    assert r.provenance["rank_primes"] == [first, second]


def test_rank_excess_at_every_prime_is_inconsistent(monkeypatch):
    g = MatrixGroup.generate([fx.KLEIN_D])
    skew_rank(monkeypatch, lambda p: -1)
    calls = []
    real = linalg.commutant_dimension

    def counted(mats, prime=None):
        calls.append(prime)
        return real(mats, prime)

    monkeypatch.setattr("cubicmoduli.audit.commutant_dimension", counted)
    with pytest.raises(InconsistencyError, match="primes"):
        dims_dual_route(g)
    assert calls == list(itertools.islice(
        linalg.split_primes(g.conductor), RANK_PRIME_ATTEMPTS))


def test_rank_deficit_is_inconsistent(monkeypatch):
    g = MatrixGroup.generate([fx.KLEIN_D])
    first = linalg.split_primes(g.conductor)[0]
    # a rank one too large cannot come from a reduction mod p: the first
    # prime already fails, without trying another
    skew_rank(monkeypatch, lambda p: 1)
    with pytest.raises(InconsistencyError,
                       match=f"rank mod {first} says 4, characters say 5"):
        dims_dual_route(g)


def test_negative_moduli_dimension_is_inconsistent(monkeypatch):
    from cubicmoduli import audit as audit_module

    real = audit_module.dims_dual_route

    def commutant_too_large(group):
        dim_u, _, chi, space, primes = real(group)
        return dim_u, dim_u + 1, chi, space, primes

    monkeypatch.setattr(audit_module, "dims_dual_route", commutant_too_large)
    with pytest.raises(InconsistencyError, match="negative"):
        audit([])
