"""Shared sampling helpers and exact reference routes for the test suite."""

import itertools
import math
from fractions import Fraction

import numpy as np

from cubicmoduli.cyclo import cyclo, from_power_basis, root_of_unity
from cubicmoduli.invariants import (
    MONOMIALS,
    N_VARS,
    _exact,
    _factors,
    _reynolds_array,
    _substituted,
    _sum_of_images,
)
from cubicmoduli.linalg import (Matrix, commutant_dimension, conductor_of,
                                int_array, pivots_mod_p)
from cubicmoduli.smoothprobe import ScanResult


def random_cyclo(rng, conductors=(1, 3, 4, 5, 8, 9, 12)):
    n = rng.choice(conductors)
    value = cyclo(0)
    for _ in range(rng.randrange(1, 4)):
        coeff = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        value = value + cyclo(coeff) * root_of_unity(n, rng.randrange(n))
    return value


def random_matrix(rng, rows, cols, conductors=(1, 3, 4)):
    return Matrix([
        [random_cyclo(rng, conductors) for _ in range(cols)]
        for _ in range(rows)
    ])


def exact_closure(generators):
    """Reference closure by exact products: (elements in canonical order,
    rmul with rmul[j][i] the index of e_i * e_j, identity index,
    conductor).  Breadth-first from the identity, multiplying on the
    right by each generator; the canonical order sorts on printed
    entries."""
    d = generators[0].rows
    elements = [Matrix.identity(d)]
    index = {elements[0]: 0}
    parent = [None]
    by_gen = [[] for _ in generators]  # by_gen[g][i]: index of e_i * g
    head = 0
    while head < len(elements):
        for gi, g in enumerate(generators):
            y = elements[head] * g
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                parent.append((head, gi))
            by_gen[gi].append(index[y])
        head += 1
    order = len(elements)
    # row a: i -> index of e_i * e_a, composed along the BFS tree
    rows = [list(range(order))]
    for p, gi in parent[1:]:
        rows.append([by_gen[gi][i] for i in rows[p]])
    new_to_old = sorted(range(order),
                        key=lambda i: [str(v) for v in elements[i].data])
    old_to_new = {old: new for new, old in enumerate(new_to_old)}
    rmul = [[old_to_new[rows[a][old]] for old in new_to_old]
            for a in new_to_old]
    conductor = math.lcm(*(v.conductor for m in elements for v in m.data))
    return ([elements[i] for i in new_to_old], rmul, old_to_new[0],
            conductor)


def gauss_jordan_pivots(m, p):
    """Reference pivot columns mod p by Gauss-Jordan elimination on
    Python ints: each pivot row scaled to 1 and its column cleared in
    every other row, above and below.  The pivots are the columns that
    are independent mod p of the columns before them."""
    rows = [[int(v) % p for v in row] for row in np.asarray(m).tolist()]
    width = len(rows[0]) if rows else 0
    pivots = []
    for col in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inverse = pow(rows[r][col], -1, p)
        rows[r] = [v * inverse % p for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                rows[i] = [(a - f * b) % p for a, b in zip(row, rows[r])]
        pivots.append(col)
    return tuple(pivots)


def commutant_of(mats, prime=None):
    """`commutant_dimension` of exact matrices: their `int_array` over
    the conductor of their entries."""
    n = conductor_of(v for m in mats for v in m.data)
    return commutant_dimension(int_array(mats, n)[0], n, prime)


def exact_profile(n, traces, dim):
    """{k: multiplicity of zeta_n^k} from the traces of g^0 .. g^(n-1),
    as (1/n) * sum_j t_j zeta_n^(-jk) in exact arithmetic."""
    mults = {}
    for k in range(n):
        acc = cyclo(0)
        for j, t in enumerate(traces):
            acc = acc + t * root_of_unity(n, -j * k)
        value = (acc * Fraction(1, n)).as_rational()
        assert value.denominator == 1 and 0 <= value <= dim
        if value:
            mults[k] = int(value)
    assert sum(mults.values()) == dim
    return mults


def matrix_profile(m):
    """Reference eigenvalue profile by exact matrix powers: (order n,
    {k: multiplicity of zeta_n^k}), from the traces of m^0 .. m^(n-1)
    as `exact_profile` reads them.  n is the least k with m^k the
    identity."""
    traces, power = [], Matrix.identity(m.rows)
    while not traces or power != Matrix.identity(m.rows):
        assert len(traces) < 1000, "order above 1000"
        traces.append(power.trace())
        power = power * m
    n = len(traces)
    return n, exact_profile(n, traces, m.rows)


def exact_reynolds(group):
    """The group average of the substitution matrices, exact: the
    integer array of the package's `_reynolds_array` as numbers."""
    R, den = _reynolds_array(group)
    return Matrix([[from_power_basis(group.conductor, coeffs, den)
                    for coeffs in row] for row in R.tolist()])


def _product(a: dict, b: dict) -> dict:
    """The product of two forms held as {ascending variable indices:
    nonzero coefficient}, exact."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, cyclo(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def exact_substitution(g):
    """Reference substitution matrix by exact products: the 35x35 S with
    S * coeffs(F) = coeffs(F(g^-1 x)), g^-1 by Matrix.inverse.  Column j
    is the image of monomial j with x_i replaced by the linear form of
    row i of g^-1, expanded as a product of three linear forms."""
    def factors(expo):
        return tuple(i for i, e in enumerate(expo) for _ in range(e))

    inv = g.inverse()
    d = inv.rows
    linear = [{(j,): inv[i, j] for j in range(d) if inv[i, j]}
              for i in range(d)]
    index = {factors(e): k for k, e in enumerate(MONOMIALS)}
    columns = []
    for expo in MONOMIALS:
        p, q, r = factors(expo)
        column = [cyclo(0)] * len(MONOMIALS)
        image = _product(_product(linear[p], linear[q]), linear[r])
        for key, value in image.items():
            column[index[key]] = value
        columns.append(column)
    return Matrix([list(row) for row in zip(*columns)])


def _inverse_array(g):
    """(A, den, n): g^-1, by Matrix.inverse, as a one-element `int_array`
    over zeta_n, n the conductor of its entries."""
    inv = g.inverse()
    n = conductor_of(inv.data)
    return (*int_array([inv], n), n)


def act(g, form):
    """The substituted form F(g^-1 x): the package's kernel
    (`invariants._substituted`) on the array of the exact inverse of g."""
    return _substituted(*_inverse_array(g), form)


def substitution_matrix(g):
    """The 35x35 S with S * coeffs(F) = coeffs(F(g^-1 x)): the images of
    all 35 monomials under the package's kernel (`_sum_of_images`) on the
    array of the exact inverse of g, made exact."""
    A, den, n = _inverse_array(g)
    images = _sum_of_images(A, [_factors(e) for e in MONOMIALS], n)
    return Matrix([[_exact(n, value, den ** 3) for value in row]
                   for row in images.transpose(1, 0, 2).tolist()])


def brute_force_scan(coeffs, p):
    """Reference singular scan: all five partials of the cubic with
    integer coefficients evaluated at every point of P^4(F_p), in the
    scan's order (chart by chart, the first nonzero coordinate scaled to
    1, each chart in lexicographic order), and the first point where all
    of them vanish mod p as the witness."""
    charts = []
    for chart in range(N_VARS):
        rest = list(itertools.product(range(p), repeat=N_VARS - 1 - chart))
        block = np.zeros((len(rest), N_VARS), dtype=np.int64)
        block[:, chart] = 1
        block[:, chart + 1:] = np.array(rest, dtype=np.int64).reshape(
            len(rest), -1)
        charts.append(block)
    points = np.concatenate(charts)
    singular = np.ones(len(points), dtype=bool)
    for i in range(N_VARS):
        value = np.zeros(len(points), dtype=np.int64)
        for c, expo in zip(coeffs, MONOMIALS):
            if c % p and expo[i]:
                d = list(expo)
                d[i] -= 1
                term = np.full(len(points), c * expo[i] % p, dtype=np.int64)
                for v, e in enumerate(d):
                    term = term * points[:, v] ** e % p
                value += term
        singular &= value % p == 0
    hits = np.flatnonzero(singular)
    if not len(hits):
        return ScanResult(p, True, len(points), None)
    first = int(hits[0])
    return ScanResult(p, False, first + 1,
                      tuple(int(x) for x in points[first]))


def _monomials_of_degree(d):
    return sorted({tuple(picks.count(i) for i in range(N_VARS))
                   for picks in itertools.combinations_with_replacement(
                       range(N_VARS), d)}, reverse=True)


def macaulay_rank(coeffs, p):
    """Rank mod p, p a prime below 2^31, of the degree-6 Macaulay matrix
    of the cubic with 35 integer coefficients: the 70 quartic monomials
    times each of its 5 partials, as rows over the 210 sextic monomials.
    The rank is 210 exactly when the partials have no common zero over
    the algebraic closure of F_p (Macaulay: the Jacobian ideal of a
    smooth cubic fills every degree from 6 on), so 210 proves the cubic
    smooth mod p, and then its lift smooth in characteristic zero."""
    sextic = {e: k for k, e in enumerate(_monomials_of_degree(6))}
    rows = []
    for quartic in _monomials_of_degree(4):
        for i in range(N_VARS):
            row = np.zeros(len(sextic), dtype=np.int64)
            for c, expo in zip(coeffs, MONOMIALS):
                if c % p and expo[i]:
                    e = tuple(a + b - (v == i) for v, (a, b)
                              in enumerate(zip(expo, quartic)))
                    row[sextic[e]] = c * expo[i] % p
            rows.append(row)
    return len(pivots_mod_p(np.array(rows), p))
