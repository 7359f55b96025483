"""Cubic forms in five variables and group actions on them.

A cubic form lives on the fixed basis of the 35 degree-3 monomials in
x0..x4, ordered lexicographically by exponent vector, largest first, so
x0^3 is index 0 and x4^3 is index 34.  A matrix g acts by substitution
on the dual side, (g . F)(x) = F(g^-1 x), which makes the action a left
action and matches how symmetries of a hypersurface in projective space
compose.

The invariant subspace of a finite group is computed from the Reynolds
operator, the average of all substitution matrices, built in one loop:
the sum is folded through the cosets of the diagonal element h of
largest order, whose own average kills every monomial of nonzero
h-weight, so only the surviving monomials are expanded, once per coset
representative.  When the identity is the only diagonal element the
fold is the plain sum.

The loop runs on integer arrays (`linalg.int_array`): each
representative's inverse is a (5, 5, phi(n)) array of coefficients on
the zeta_n power basis over one common denominator, n the group's
conductor.  For a surviving monomial x_p*x_q*x_r the products
A[p, a] * A[q, b] * A[r, c] of one nonzero entry from each factor's row
(at most 125 of them) are formed as integer polynomials in zeta_n and
added into one accumulator, one representative at a time.  Only at the
end are the 125 products collapsed onto the 35 monomials, reduced mod
Phi_n, divided by the denominator and turned into exact numbers, one
per nonzero entry.  int64 is used when a bound on the sums, computed
from the input, proves it cannot overflow; otherwise the same code runs
on Python ints.

Forms are read by the package's one expression parser
(`cyclo.parse_polynomial`); `CubicForm.parse` only adds the check that
every term is a cubic monomial in x0..x4.

Row reduction of the transpose gives a canonical echelon basis.  Every
returned basis form is re-checked against the generators by exact
substitution (`_expand_monomial`, the route behind `act` and
`substitution_matrix`), which shares no code with the integer arrays,
so a wrong average cannot slip through.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cyclo import (
    Cyclotomic,
    _power_table,
    cyclo,
    from_power_basis,
    parse_polynomial,
    root_of_unity,
)
from .errors import ContractViolationError
from .linalg import Matrix, int_array, rref, solve_in_span

N_VARS = 5


def _all_monomials():
    out = set()
    for picks in itertools.combinations_with_replacement(range(N_VARS), 3):
        e = [0] * N_VARS
        for i in picks:
            e[i] += 1
        out.add(tuple(e))
    return tuple(sorted(out, reverse=True))


MONOMIALS = _all_monomials()
MONOMIAL_INDEX = {e: i for i, e in enumerate(MONOMIALS)}
assert len(MONOMIALS) == 35 and MONOMIALS[0] == (3, 0, 0, 0, 0)


def _factors(expo) -> tuple:
    """The variable indices of a monomial with multiplicity, ascending."""
    return tuple(i for i, e in enumerate(expo) for _ in range(e))


def _collapse_order():
    """The 125 products x_a*x_b*x_c, flat index 25*a + 5*b + c, sorted
    by the monomial they equal, and where each monomial's run starts."""
    mono = []
    for abc in itertools.product(range(N_VARS), repeat=3):
        expo = [0] * N_VARS
        for i in abc:
            expo[i] += 1
        mono.append(MONOMIAL_INDEX[tuple(expo)])
    order = sorted(range(N_VARS ** 3), key=lambda t: mono[t])
    starts = [k for k, t in enumerate(order)
              if k == 0 or mono[t] != mono[order[k - 1]]]
    return np.array(order), np.array(starts)


_BY_MONOMIAL, _MONOMIAL_STARTS = _collapse_order()

_ZERO = cyclo(0)


def monomial_str(expo) -> str:
    parts = []
    for i, e in enumerate(expo):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


class CubicForm:
    """Homogeneous cubic in x0..x4 with exact cyclotomic coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(cyclo(c) for c in coeffs)
        assert len(coeffs) == 35
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CubicForm is immutable")

    @staticmethod
    def zero() -> "CubicForm":
        return CubicForm([0] * 35)

    @staticmethod
    def parse(text: str) -> "CubicForm":
        """The cubic written in text, e.g. "x0^3 - E(3)/2*x1*x2*x3"."""
        coeffs = [_ZERO] * 35
        for mono, c in parse_polynomial(text).items():
            expo = [0] * N_VARS
            for v, k in mono:
                if v >= N_VARS:
                    raise ValueError(f"x{v} is not one of x0..x{N_VARS - 1}")
                expo[v] = k
            if sum(expo) != 3:
                raise ValueError(
                    f"not homogeneous of degree 3: term {monomial_str(expo)}"
                )
            coeffs[MONOMIAL_INDEX[tuple(expo)]] = c
        return CubicForm(coeffs)

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def coefficient(self, expo) -> Cyclotomic:
        return self._coeffs[MONOMIAL_INDEX[tuple(expo)]]

    def support(self) -> tuple:
        return tuple(e for e, c in zip(MONOMIALS, self._coeffs) if c)

    def variable_support(self) -> tuple:
        used = set()
        for e, c in zip(MONOMIALS, self._coeffs):
            if c:
                used.update(i for i in range(N_VARS) if e[i])
        return tuple(sorted(used))

    def __add__(self, other):
        return CubicForm([a + b for a, b in
                          zip(self._coeffs, other._coeffs)])

    def scale(self, s) -> "CubicForm":
        s = cyclo(s)
        return CubicForm([a * s for a in self._coeffs])

    def __bool__(self):
        return any(self._coeffs)

    def __eq__(self, other):
        return isinstance(other, CubicForm) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for e, c in zip(MONOMIALS, self._coeffs):
            if not c:
                continue
            mono = monomial_str(e)
            if c == 1:
                term = mono
            elif c == -1:
                term = f"-{mono}"
            else:
                cs = str(c)
                if "+" in cs or ("-" in cs[1:]) or "/" in cs:
                    cs = f"({cs})"
                term = f"{cs}*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return f"CubicForm({self})"


# ----------------------------------------------------------------------
# group action

def _inverse_rows(g_inv: Matrix):
    return [[g_inv[i, j] for j in range(N_VARS)] for i in range(N_VARS)]


def _expand_monomial(rows, expo) -> dict:
    """Image of the monomial with exponents expo when x_i is replaced by
    the linear form rows[i]."""
    p, q, r = _factors(expo)
    out = {}
    row_q = rows[q]
    row_r = rows[r]
    for j1, c1 in enumerate(rows[p]):
        if not c1:
            continue
        for j2, c2 in enumerate(row_q):
            if not c2:
                continue
            c12 = c1 * c2
            for j3, c3 in enumerate(row_r):
                if not c3:
                    continue
                e = [0] * N_VARS
                e[j1] += 1
                e[j2] += 1
                e[j3] += 1
                key = tuple(e)
                prev = out.get(key)
                term = c12 * c3
                out[key] = term if prev is None else prev + term
    return out


def act(g: Matrix, form: CubicForm) -> CubicForm:
    """The substituted form F(g^-1 x)."""
    return _act_with_rows(_inverse_rows(g.inverse()), form)


def fixed_by(group, g: Matrix, forms) -> bool:
    """Whether act(g, F) == F for every form F, g an element of group;
    g^-1 is read from the group's table, not computed by an exact
    matrix inverse."""
    rows = _inverse_rows(group.elements[group.inverse_index(group.index(g))])
    return all(_act_with_rows(rows, f) == f for f in forms)


def _act_with_rows(rows, form: CubicForm) -> CubicForm:
    total = {}
    for expo, coeff in zip(MONOMIALS, form.coefficients):
        if not coeff:
            continue
        for key, value in _expand_monomial(rows, expo).items():
            term = coeff * value
            prev = total.get(key)
            total[key] = term if prev is None else prev + term
    coeffs = [_ZERO] * 35
    for key, value in total.items():
        coeffs[MONOMIAL_INDEX[key]] = value
    return CubicForm(coeffs)


def substitution_matrix(g: Matrix) -> Matrix:
    """35x35 matrix S with S * coeffs(F) = coeffs(F(g^-1 x))."""
    rows = _inverse_rows(g.inverse())
    cols = []
    for expo in MONOMIALS:
        image = _expand_monomial(rows, expo)
        col = [_ZERO] * 35
        for key, value in image.items():
            col[MONOMIAL_INDEX[key]] = value
        cols.append(col)
    return Matrix([[cols[j][i] for j in range(35)] for i in range(35)])


def _diagonal_of_largest_order(group):
    """The diagonal element h of largest order n (the identity when no
    other element is diagonal) and its exponents: entry i of h is
    zeta_n^k_i."""
    best = None
    for i, m in enumerate(group.elements):
        if any(m[a, b] for a in range(N_VARS) for b in range(N_VARS)
               if a != b):
            continue
        n = group.element_order(i)
        if best is None or n > best[0]:
            best = (n, i)
    n, h_idx = best
    h = group.elements[h_idx]
    roots = {root_of_unity(n, k): k for k in range(n)}
    return n, h_idx, [roots[h[i, i]] for i in range(N_VARS)]


def reynolds_operator(group) -> Matrix:
    """Average of the substitution matrices over the whole group.

    The sum is folded through the left cosets of <h>, h the diagonal
    element of largest order n.  S_h scales the monomial x^a by a power
    of zeta_n with exponent -sum a_i k_i, so averaging over <h> kills
    every column whose h-weight is nonzero mod n and fixes the rest.
    Since S_(r h^k) = S_r S_h^k, the group average on a surviving column
    is the average of S_r over the coset representatives r alone.  With
    h the identity this is the plain sum over every element.
    """
    n, h_idx, exps = _diagonal_of_largest_order(group)
    surviving = [j for j, expo in enumerate(MONOMIALS)
                 if sum(a * k for a, k in zip(expo, exps)) % n == 0]

    # left coset representatives of <h>
    h_powers = [group.identity_index]
    cur = h_idx
    while cur != group.identity_index:
        h_powers.append(cur)
        cur = group.mult(cur, h_idx)
    seen = [False] * group.order
    reps = []
    for i in range(group.order):
        if seen[i]:
            continue
        reps.append(i)
        for p in h_powers:
            seen[group.mult(i, p)] = True

    arrays, den = int_array(
        [group.elements[group.inverse_index(r)] for r in reps],
        group.conductor)
    sums = _sum_of_images(arrays, [_factors(MONOMIALS[j]) for j in surviving],
                          group.conductor)
    den = den ** 3 * len(reps)
    data = [[_ZERO] * 35 for _ in range(35)]
    for s, m in zip(*np.nonzero((sums != 0).any(axis=-1))):
        data[m][surviving[s]] = from_power_basis(
            group.conductor, sums[s, m].tolist(), den)
    return Matrix(data)


def _convolve(a, b):
    """Row-wise products of integer polynomials: a and b hold one
    polynomial per row, coefficients low to high."""
    la, lb = a.shape[1], b.shape[1]
    out = np.zeros((len(a), la + lb - 1), dtype=np.result_type(a, b))
    for i in range(lb):
        out[:, i:i + la] += a * b[:, i:i + 1]
    return out


def _sum_of_images(arrays, factors, n):
    """(len(factors), 35, phi(n)) integers: for each monomial, given by
    its factors (p, q, r), the sum over the substitutions x_i ->
    sum_k A[i, k] x_k, A one of arrays, of its image, on the zeta_n
    power basis.

    Per representative, only the products A[p, a] A[q, b] A[r, c] whose
    three entries are nonzero are formed (one per monomial for a
    monomial matrix, at most 125), and each is added at (monomial, a, b,
    c) of one accumulator, so no temporary grows with the number of
    arrays."""
    p, q, r = np.array(factors, dtype=np.intp).reshape(-1, 3).T
    phi = arrays.shape[-1]
    table = _power_table(n)
    mod_phi = np.array([table[e % n] for e in range(3 * phi - 2)],
                      dtype=np.int64)
    # |entry| <= big, so a product of three has coefficients of size at
    # most phi^2 * big^3; 6 products share a monomial and len(arrays)
    # representatives add up before 3 * phi - 2 terms are reduced
    big = int(np.abs(arrays).max())
    bound = (len(arrays) * 6 * phi ** 2 * big ** 3
             * (3 * phi - 2) * int(np.abs(mod_phi).max()))
    if bound >= 1 << 63:
        arrays = arrays.astype(object)
        mod_phi = mod_phi.astype(object)
    acc = np.zeros((len(factors), N_VARS, N_VARS, N_VARS, 3 * phi - 2),
                   dtype=arrays.dtype)
    for A in arrays:
        nonzero = (A != 0).any(axis=-1)
        s, a, b, c = np.nonzero(nonzero[p, :, None, None]
                                & nonzero[q, None, :, None]
                                & nonzero[r, None, None, :])
        acc[s, a, b, c] += _convolve(_convolve(A[p[s], a], A[q[s], b]),
                                     A[r[s], c])
    flat = acc.reshape(len(factors), N_VARS ** 3, 3 * phi - 2)
    collapsed = np.add.reduceat(flat[:, _BY_MONOMIAL], _MONOMIAL_STARTS,
                                axis=1)
    return collapsed @ mod_phi


class InvariantSpace:
    """Echelonized basis of the invariant cubics of a group.

    `spanning` carries the nonzero images of the monomials under the
    averaging operator: the same space, but with coefficients whose
    denominators divide the group order times the entry denominators.
    The echelon basis can pick up huge numerators from pivot division,
    which makes its reduction mod p degenerate for unlucky primes; the
    raw images do not have that problem, so the smoothness probe
    samples from them instead."""

    def __init__(self, basis, spanning=()):
        self.basis = tuple(basis)
        self.spanning = tuple(spanning) if spanning else self.basis

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, form: CubicForm) -> bool:
        if not self.basis:
            return not form
        rows = [list(b.coefficients) for b in self.basis]
        return solve_in_span(rows, list(form.coefficients))

    def variable_support(self) -> tuple:
        used = set()
        for b in self.basis:
            used.update(b.variable_support())
        return tuple(sorted(used))

    def missing_variables(self) -> tuple:
        used = self.variable_support()
        return tuple(i for i in range(N_VARS) if i not in used)

    def monomial_support(self) -> tuple:
        out = set()
        for b in self.basis:
            out.update(b.support())
        return tuple(sorted(out, reverse=True))

    def split_variable(self):
        """Smallest variable index i such that x_i^3 occurs in the space
        but no other monomial containing x_i does; None when there is no
        such variable.  Such a variable splits every member into
        c*x_i^3 plus a cubic in the remaining variables."""
        support = self.monomial_support()
        for i in range(N_VARS):
            cube = tuple(3 if k == i else 0 for k in range(N_VARS))
            has_cube = cube in support
            touched_elsewhere = any(
                e[i] and e != cube for e in support
            )
            if has_cube and not touched_elsewhere:
                return i
        return None


def invariant_basis(group) -> InvariantSpace:
    """Canonical basis of the cubics fixed by every element of the group:
    row reduction of the transpose of the Reynolds operator, then an
    independent re-check of each basis form against the generators."""
    R = reynolds_operator(group)
    rank_, reduced, _ = rref(R.transpose())
    trace = R.trace().as_rational()
    if trace != rank_:
        raise ContractViolationError(
            f"averaging operator has trace {trace} but rank {rank_}"
        )
    basis = []
    for i in range(rank_):
        basis.append(CubicForm(reduced.row(i)))
    spanning = []
    for j in range(len(MONOMIALS)):
        col = CubicForm(list(R.column(j)))
        if col:
            spanning.append(col)
    space = InvariantSpace(basis, spanning)
    for g in group.generators:
        if not fixed_by(group, g, space.basis):
            raise ContractViolationError(
                "claimed invariant moves under a generator"
            )
    return space
