"""Shared sampling helpers and exact reference routes for the test suite."""

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from cubicmoduli.chars import ClassFunction, _same_structure, class_function
from cubicmoduli.cyclo import (ONE, ZERO, Cyclotomic, cyclo,
                               from_power_basis, root_of_unity)
from cubicmoduli.errors import NonIntegralCharacterError
from cubicmoduli.invariants import (
    MONOMIALS,
    N_VARS,
    _factors,
    CubicForm,
    _reynolds_array,
    _sum_of_images,
)
from cubicmoduli.linalg import (commutant_dimension, conductor_of,
                                exact_values, int_array, pivots_mod_p, rref)
from cubicmoduli.smoothprobe import ScanResult


class Matrix:
    """Immutable matrix with Cyclotomic entries, row-major: the exact
    oracle that the package's integer rows are checked against.
    Iterating over it gives its rows, so `MatrixGroup.generate` takes a
    Matrix as it is."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_of_entries):
        data = []
        widths = []
        for row in rows_of_entries:
            entries = [v if isinstance(v, Cyclotomic) else cyclo(v)
                       for v in row]
            data += entries
            widths.append(len(entries))
        assert widths, "matrix needs at least one row"
        assert widths.count(widths[0]) == len(widths), "ragged rows"
        object.__setattr__(self, "rows", len(widths))
        object.__setattr__(self, "cols", widths[0])
        object.__setattr__(self, "data", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def scalar(n: int, value) -> "Matrix":
        v = cyclo(value)
        return Matrix([[v if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(values) -> "Matrix":
        vals = [cyclo(v) for v in values]
        n = len(vals)
        return Matrix([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, key) -> Cyclotomic:
        i, j = key
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def __iter__(self):
        return map(self.row, range(self.rows))

    def column(self, j: int) -> tuple:
        return self.data[j::self.cols]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            assert self.cols == other.rows, "shape mismatch"
            out = []
            for i in range(self.rows):
                lhs = self.row(i)
                row = []
                for j in range(other.cols):
                    acc = ZERO
                    for k, a in enumerate(lhs):
                        if a:
                            b = other.data[k * other.cols + j]
                            if b:
                                acc = acc + a * b
                    row.append(acc)
                out.append(row)
            return Matrix(out)
        v = cyclo(other)
        return Matrix([[x * v for x in self.row(i)] for i in range(self.rows)])

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix([
            [a + b for a, b in zip(self.row(i), other.row(i))]
            for i in range(self.rows)
        ])

    def __sub__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix([
            [a - b for a, b in zip(self.row(i), other.row(i))]
            for i in range(self.rows)
        ])

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.cols)])

    def trace(self) -> Cyclotomic:
        assert self.rows == self.cols
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def inverse(self) -> "Matrix":
        assert self.rows == self.cols
        n = self.rows
        rank, red, pivots = rref([
            list(self.row(i)) + [ONE if j == i else ZERO for j in range(n)]
            for i in range(n)
        ])
        if pivots[:n] != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix([red[i][n:] for i in range(n)])

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def exact_elements(group):
    """Every element of the group as an exact Matrix, in index order:
    its rows (`arrays`) made exact by `exact_values`."""
    d = group.dim
    array, den = group.arrays(range(group.order))
    values, codes = exact_values(den, array.reshape(-1, array.shape[-1]),
                                 group.conductor)
    entries = list(map(values.__getitem__, codes))
    return tuple(Matrix([entries[i:i + d] for i in range(e, e + d * d, d)])
                 for e in range(0, len(entries), d * d))


def random_cyclo(rng, conductors=(1, 3, 4, 5, 8, 9, 12)):
    n = rng.choice(conductors)
    value = cyclo(0)
    for _ in range(rng.randrange(1, 4)):
        coeff = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        value = value + cyclo(coeff) * root_of_unity(n, rng.randrange(n))
    return value


def matrix_rows(m):
    """The entries of a Matrix (or of its rows) as its rows, the nested
    values that `int_array` takes."""
    return list(m)


def random_matrix(rng, rows, cols, conductors=(1, 3, 4)):
    return Matrix([
        [random_cyclo(rng, conductors) for _ in range(cols)]
        for _ in range(rows)
    ])


def exact_closure(generators):
    """Reference closure by exact products: (elements in canonical order,
    rmul with rmul[j][i] the index of e_i * e_j, identity index,
    conductor).  Breadth-first from the identity, multiplying on the
    right by each generator (a Matrix or its rows); the canonical order
    sorts on printed entries."""
    generators = list(map(Matrix, generators))
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


def dense_rref(rows, width=None):
    """Reference for `cyclo.rref`, the same interface and pivot rule:
    Gauss-Jordan elimination on dense rows of Fractions or Cyclotomics,
    each pivot the first row with a nonzero entry in its column, every
    entry of every row tested and combined."""
    pivots = []
    rank = 0
    for col in range(len(rows[0]) if width is None else width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv if v else v for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b if b else a
                           for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rank, rows, tuple(pivots)


def commutant_of(mats, prime=None):
    """`commutant_dimension` of exact matrices, each a Matrix or its
    rows: their `int_array` over the conductor of their entries."""
    rows = list(map(matrix_rows, mats))
    n = conductor_of(v for m in rows for row in m for v in row)
    return commutant_dimension(int_array(rows, n)[0], n, prime)


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


# the character formulas in exact arithmetic, class by class: the
# oracle that the package's residue route (`chars._multiplicity_mod_p`)
# is checked against

def tensor(a: ClassFunction, b: ClassFunction) -> ClassFunction:
    _same_structure(a, b)
    return class_function(a.structure, map(operator.mul, a.values, b.values))


def sym_square(chi: ClassFunction) -> ClassFunction:
    p2 = chi.structure.power_map(2)
    v = chi.values
    return class_function(chi.structure, [
        (x * x + v[p2[c]]) * Fraction(1, 2) for c, x in enumerate(v)])


def sym_cube(chi: ClassFunction) -> ClassFunction:
    p2 = chi.structure.power_map(2)
    p3 = chi.structure.power_map(3)
    v = chi.values
    return class_function(chi.structure, [
        (x * x * x + x * v[p2[c]] * 3 + v[p3[c]] * 2) * Fraction(1, 6)
        for c, x in enumerate(v)])


def inner_product(a: ClassFunction, b: ClassFunction) -> Fraction:
    _same_structure(a, b)
    st = a.structure
    acc = cyclo(0)
    for c in range(st.n_classes):
        acc = acc + a.values[c] * b.values[c].conjugate() * st.sizes[c]
    acc = acc * Fraction(1, st.order)
    if not acc.is_rational():
        raise NonIntegralCharacterError(
            f"inner product is not rational: {acc}"
        )
    return acc.as_rational()


def multiplicity(a: ClassFunction, b: ClassFunction) -> int:
    value = inner_product(a, b)
    if value.denominator != 1 or value < 0:
        raise NonIntegralCharacterError(
            f"inner product {value} is not a nonnegative integer; "
            "inputs are not characters of the same group"
        )
    return int(value)


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
    S * coeffs(F) = coeffs(F(g^-1 x)), g^-1 by Matrix.inverse, g a
    Matrix or its rows.  Column j is the image of monomial j with x_i
    replaced by the linear form of row i of g^-1, expanded as a product
    of three linear forms."""
    def factors(expo):
        return tuple(i for i, e in enumerate(expo) for _ in range(e))

    inv = Matrix(g).inverse()
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
    over zeta_n, n the conductor of its entries; g a Matrix or its
    rows."""
    inv = Matrix(g).inverse()
    n = conductor_of(inv.data)
    return (*int_array([matrix_rows(inv)], n), n)


def substituted(A, den, n, form):
    """F(g^-1 x), exact, for A, den the `int_array` of g^-1 over zeta_n:
    the images of F's monomials from the package's kernel
    (`_sum_of_images`), over den^3, combined with F's coefficients in
    exact arithmetic."""
    terms = [(m, c) for m, c in enumerate(form.coefficients) if c]
    images = _sum_of_images(A, [_factors(MONOMIALS[m]) for m, _ in terms],
                            n).tolist()
    coeffs = [cyclo(0)] * len(MONOMIALS)
    for (_, c), image in zip(terms, images):
        for m, value in enumerate(image):
            if any(value):
                coeffs[m] = coeffs[m] + c * from_power_basis(n, value,
                                                             den ** 3)
    return CubicForm(coeffs)


def act(g, form):
    """The substituted form F(g^-1 x): `substituted` on the array of the
    exact inverse of g."""
    return substituted(*_inverse_array(g), form)


def substitution_matrix(g):
    """The 35x35 S with S * coeffs(F) = coeffs(F(g^-1 x)): the images of
    all 35 monomials under the package's kernel (`_sum_of_images`) on the
    array of the exact inverse of g, made exact."""
    A, den, n = _inverse_array(g)
    images = _sum_of_images(A, [_factors(e) for e in MONOMIALS], n)
    values, codes = exact_values(den ** 3, images.transpose(1, 0, 2)
                                 .reshape(35 * 35, -1), n)
    entries = list(map(values.__getitem__, codes))
    return Matrix([entries[i:i + 35] for i in range(0, len(entries), 35)])


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
