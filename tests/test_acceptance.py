"""End-to-end suite pinning the headline numbers.

Each test freezes one block of results: moduli and special-subvariety
dimensions for the built-in groups, the exact invariant bases where they
matter, the abstract character computation for the order-660 simple
group, catalog-wide consistency properties, the finite-field smoothness
scans, and the full subgroup lattice of the order-660 matrix group.
Everything is exact integer or exact form equality; the only tolerance
anywhere is a wall-clock bound on one scan.
"""

import time

import pytest

from cubicmoduli import catalog
from cubicmoduli.audit import check_criterion, lattice_nodes, lattice_report
from cubicmoduli.chars import (
    character_of,
    commutant_dimension_from_character,
    dim_invariant_cubics,
    dim_special_subvariety,
    psl2_11_datum,
    trivial_character,
)
from cubicmoduli.invariants import CubicForm, invariant_basis
from cubicmoduli.linalg import rref
from cubicmoduli.smoothprobe import probe_nonempty, singular_scan

from helpers_math import (commutant_of, exact_elements, inner_product,
                          multiplicity, sym_cube, sym_square)

KLEIN = CubicForm.parse("x0*x1^2 + x1*x2^2 + x2*x3^2 + x3*x4^2 + x4*x0^2")
FERMAT = CubicForm.parse("x0^3 + x1^3 + x2^3 + x3^3 + x4^3")


@pytest.fixture(scope="module")
def load_group():
    """Cached catalog loader so the order-660 closure is built once."""
    cache = {}

    def get(entry_id):
        if entry_id not in cache:
            cache[entry_id] = catalog.load(entry_id)
        return cache[entry_id]

    return get


def spans_rank(forms):
    return rref([list(f.coefficients) for f in forms])[0]


def test_01_diagonal_and_root_node_dimensions(load_group):
    expected = {
        "trivial": (10, 15),
        "c2-sign": (6, 9),
        "c3-balanced": (4, 5),
        "c5-regular": (2, 3),
        "klein-four": (4, 6),
    }
    for entry_id, (dim_m, dim_z) in expected.items():
        r = check_criterion(load_group(entry_id), group_id=entry_id)
        assert r.dim_moduli == dim_m
        assert r.dim_special == dim_z
        assert r.criterion_holds is False


def test_02_order55_tower_dimensions(load_group):
    for entry_id in ("z11-klein", "z11-z5-klein"):
        r = check_criterion(load_group(entry_id), group_id=entry_id)
        assert r.dim_moduli == 0
        assert r.dim_special == 0
        assert r.criterion_holds is True

    rows = lattice_report(load_group("z11-z5-klein"))
    got = {row.label: (row.report.dim_moduli, row.report.dim_special,
                       row.report.criterion_holds)
           for row in rows}
    assert got == {
        "1": (10, 15, False),
        "Z/5": (2, 3, False),
        "Z/11": (0, 0, True),
        "Z/11:Z/5": (0, 0, True),
    }


def test_03_tetrahedral_entry_and_deformations(load_group):
    g = load_group("alt4-klein")
    r = check_criterion(g, group_id="alt4-klein")
    assert r.dim_U == 5
    assert r.commutant_dim == 3
    assert r.dim_moduli == 2
    assert r.dim_special == 2
    assert r.criterion_holds is True

    space = invariant_basis(g)
    members = [
        CubicForm.parse("x0^3"),
        CubicForm.parse("x1^3"),
        CubicForm.parse("x2*x3*x4"),
        CubicForm.parse("x0*x2^2 + E(3)^2*x0*x3^2 + E(3)*x0*x4^2"),
        CubicForm.parse("x1*x2^2 + E(3)*x1*x3^2 + E(3)^2*x1*x4^2"),
    ]
    for f in members:
        assert space.contains(f)
    # the five members span the whole invariant space
    assert spans_rank(members) == 5 == space.dimension


def test_04_icosahedral_permutation_model(load_group):
    g = load_group("alt5-sixpoint")
    # degree-5 character values, matched to classes by order and size
    table = {(1, 1): 5, (2, 15): 1, (3, 20): -1, (5, 12): 0}
    assert g.order == 60
    elements = exact_elements(g)
    for c in g.classes:
        trace = elements[c.rep_index].trace()
        assert trace == table[(c.element_order, c.size)]

    r = check_criterion(g, group_id="alt5-sixpoint")
    assert r.dim_U == 2
    assert r.commutant_dim == 1
    assert r.dim_moduli == 1
    assert r.dim_special == 1
    assert r.criterion_holds is True


def test_05_degree5_character_datum_order660():
    datum = psl2_11_datum()
    one = trivial_character(datum.structure)
    for name in ("chi2", "chi3"):
        chi = datum.character(name)
        assert inner_product(chi, chi) == 1
        assert multiplicity(sym_cube(chi), one) == 1
        # determinant of a degree-5 character of a simple group is trivial
        assert multiplicity(sym_square(chi), one) == 0
        assert dim_special_subvariety(chi, one) == 0


def test_06_cone_family_seven_dimensional(load_group):
    g = load_group("z3-z4")
    space = invariant_basis(g)
    members = [CubicForm.parse(t) for t in (
        "x0^3", "x0^2*x1", "x0*x1^2", "x1^3",
        "x0*x3*x4", "x1*x3*x4", "x3^3 + x4^3",
    )]
    assert space.dimension == 7
    for f in members:
        assert space.contains(f)
    assert spans_rank(members) == 7
    assert space.missing_variables() == (2,)

    r = check_criterion(g, group_id="z3-z4")
    assert r.nonempty.status == "EmptyCertified"
    assert "x2" in r.nonempty.reason
    assert r.dim_moduli is None
    assert r.criterion_holds is None


def test_07_six_monomial_family_cyclic_locus(load_group):
    g = load_group("family-43")
    space = invariant_basis(g)
    assert sorted(str(f) for f in space.basis) == sorted([
        "x0^3", "x1^3", "x2^3", "x3^3", "x4^3", "x0*x2*x3",
    ])
    r = check_criterion(g, group_id="family-43")
    assert r.cyclic_locus.certified
    assert "x1" in r.cyclic_locus.reason
    assert "x1^3" in r.cyclic_locus.reason


def test_08_double_versus_split_order3_pair(load_group):
    r = check_criterion(load_group("c3-double"), group_id="c3-double")
    assert r.dim_moduli == 1
    assert r.dim_special == 3
    assert r.criterion_holds is False

    h = load_group("c3xc3")
    space = invariant_basis(h)
    chi = character_of(h)
    # both routes for both ingredients of dim M
    assert space.dimension == dim_invariant_cubics(chi) == 12
    assert (commutant_of(catalog.load_entry("c3xc3").generators)
            == commutant_dimension_from_character(chi) == 11)
    r = check_criterion(h, group_id="c3xc3")
    assert r.dim_moduli == 1
    assert r.dim_special == 1
    assert r.criterion_holds is True


def test_09_cyclic_cover_moduli_dimension(load_group):
    r = check_criterion(load_group("fermat-cyclic"), group_id="fermat-cyclic")
    assert r.dim_moduli == 4


def test_10_catalog_wide_consistency_properties(load_group):
    ids = catalog.entry_ids()
    assert len(ids) == 15
    for entry_id in ids:
        g = load_group(entry_id)
        chi = character_of(g)
        space = invariant_basis(g)
        assert space.dimension == dim_invariant_cubics(chi)
        assert (commutant_of(catalog.load_entry(entry_id).generators)
                == commutant_dimension_from_character(chi))
        assert sum(c.size for c in g.classes) == g.order
        for i in range(g.order):
            prof = g.eigen_profile_of(i)
            assert all(m > 0 for _, m in prof.mults)
            assert prof.dimension() == 5


def test_11_finite_field_smoothness_scans(load_group):
    fermat = singular_scan(FERMAT, 7)
    assert fermat.smooth
    assert fermat.points == 2801

    start = time.perf_counter()
    klein = singular_scan(KLEIN, 23)
    elapsed = time.perf_counter() - start
    assert klein.smooth
    assert klein.points == 292561
    assert elapsed < 5.0

    # the cone family never yields a smooth sample, and the structural
    # check pins the reason down to the missing variable
    space = invariant_basis(load_group("z3-z4"))
    probe = probe_nonempty(space, trials=5)
    assert not probe.certified
    r = check_criterion(load_group("z3-z4"), group_id="z3-z4")
    assert r.nonempty.status == "EmptyCertified"
    assert "cone" in r.nonempty.reason and "x2" in r.nonempty.reason


def test_12_full_subgroup_lattice_order660(load_group):
    g = load_group("psl2-11")
    rows = lattice_report(g)
    # every row is restricted from the group's tables: no exact matrices
    assert "elements" not in vars(g)
    nodes = lattice_nodes(rows)
    got = {label: (dim_m, dim_z, crit)
           for label, order, dim_m, dim_z, crit in nodes.values()}
    assert got == {
        "1": (10, 15, False),
        "Z/2": (6, 9, False),
        "Z/3": (4, 5, False),
        "Z/2xZ/2": (4, 6, False),
        "Z/5": (2, 3, False),
        "Z/6": (2, 3, False),
        "Sym(3)": (3, 4, False),
        "D10": (2, 3, False),
        "D12": (2, 3, False),
        "Z/11": (0, 0, True),
        "Alt(4)": (2, 2, True),
        "Z/11:Z/5": (0, 0, True),
        "Alt(5)": (1, 1, True),
        "PSL(2,11)": (0, 0, True),
    }

    # the invariant pair of the order-60 node contains the distinguished
    # cubic fixed by the whole group
    rec = next(r for r in g.subgroups_two_generated() if r.label == "Alt(5)")
    space = invariant_basis(g.subgroup(rec.generator_indices))
    assert space.dimension == 2
    assert space.contains(KLEIN)
