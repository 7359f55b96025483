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

The loop runs on integer arrays, read from the group
(`MatrixGroup.arrays`, the closure's own arrays in the form of
`linalg.int_array`): each representative's inverse is a (5, 5, phi(n))
array of coefficients on the zeta_n power basis over one common
denominator, n the group's conductor.  For a surviving monomial
x_p*x_q*x_r the products A[p, a] * A[q, b] * A[r, c] of one nonzero
entry from each factor's row (at most 125 of them) are formed as
integer polynomials in zeta_n and added into one accumulator, one
representative at a time.  Only at the end are the 125 products
collapsed onto the 35 monomials and reduced mod Phi_n.  int64 is used
when a bound on the sums, computed from the input, proves it cannot
overflow; otherwise the same code runs on Python ints.  This kernel,
`_sum_of_images`, is the package's only substitution: `fixed_by` runs
it on the array of one g^-1 and makes exact values from its output.

Forms are read by the package's one expression parser
(`cyclo.parse_polynomial`); `CubicForm.parse` only adds the check that
every term is a cubic monomial in x0..x4.

The space is read off the integer array R of that operator, and
nothing exact is built that no output prints.  R's nonzero columns span
U^G; the space keeps them as integers (`InvariantSpace.columns`), which
the smoothness probe reduces mod p as they are, and makes them exact
forms on first use only (`spanning`).  Its nonzero rows are the
monomial support, exact on integers, which `missing_variables` and
`split_variable` read.  Its rank mod the first split prime p = 1 mod
n near 2^30 is the dimension, certified by the exact trace of R, which
is an integer because R is a projection.  Reduction mod p can only
lower a rank, so a shortfall moves on to the next split prime and an
excess is a contract violation.

One check per generator g shows that the columns are invariant:
S_g R = R, with the columns of S_g on the support of R computed by the
same kernel from the array of g^-1 (read from the group's tables), over
den^3.  The check shares the triple-product kernel with R, so it does
not test the kernel; it does test the fold through the cosets of <h>,
the set of surviving columns, the coset representatives and the
summation.  The kernel itself is pinned against exact substitution in
the tests, and the dimension against the character count (the audit
does that); with both, the columns of R are all of U^G.  The product
S_g R runs on integer arrays mod Phi_n, in int64 under an overflow
bound as above.

The canonical echelon basis is built by exact row reduction on first
use only (`InvariantSpace.basis`: `invariants`, `selftest` and library
callers): of dimension-many spanning forms that are independent mod p,
whose reduced echelon form is that of the whole space.
"""

from __future__ import annotations

import functools
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
from .groups import _big, _orbit
from .linalg import (
    Matrix,
    pivots_mod_p,
    reduce_mod_p,
    rref,
    split_primes,
)

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
        coeffs = tuple([c if isinstance(c, Cyclotomic) else cyclo(c)
                        for c in coeffs])
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

def _substituted(A, den, n, form: CubicForm) -> CubicForm:
    """F(g^-1 x) for A, den the array of g^-1 over zeta_n: the images of
    F's monomials from the kernel, over den^3, combined exactly with F's
    coefficients."""
    terms = [(c, _factors(e)) for e, c in zip(MONOMIALS, form.coefficients)
             if c]
    images = _sum_of_images(A, [f for _, f in terms], n).tolist()
    coeffs = [_ZERO] * 35
    for (c, _), image in zip(terms, images):
        for m, value in enumerate(image):
            if any(value):
                coeffs[m] = coeffs[m] + c * from_power_basis(n, value,
                                                             den ** 3)
    return CubicForm(coeffs)


def fixed_by(group, i: int, forms) -> bool:
    """Whether F(g^-1 x) == F for every form F, g the element of index i
    of group; g^-1 is read from the group's arrays, not computed by an
    exact matrix inverse."""
    A, den = group.arrays([group.inverse_index(i)])
    return all(_substituted(A, den, group.conductor, f) == f for f in forms)


def _diagonal_of_largest_order(group):
    """The diagonal element h of largest order n (the identity when no
    other element is diagonal) and its exponents: entry i of h is
    zeta_n^k_i."""
    h_idx = max(group.diagonal_indices(), key=group.element_order)
    n = group.element_order(h_idx)
    array, den = group.arrays([h_idx])
    roots = {root_of_unity(n, k): k for k in range(n)}
    return n, h_idx, [
        roots[from_power_basis(group.conductor, array[0, i, i].tolist(), den)]
        for i in range(N_VARS)]


def _reynolds_array(group):
    """(R, den): the group average of the substitution matrices on the
    zeta_n power basis, n the group's conductor.  R is a (35, 35,
    phi(n)) integer array and R[m, j] holds the coefficients of den
    times entry (m, j).

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

    # left coset representatives of <h>: the coset of i is its orbit
    # under right multiplication by h
    by_h = group.row(h_idx)
    reps, seen = [], set()
    for i in range(group.order):
        if i not in seen:
            reps.append(i)
            seen.update(_orbit(i, [by_h.__getitem__]))

    arrays, den = group.arrays([group.inverse_index(r) for r in reps])
    sums = _sum_of_images(arrays, [_factors(MONOMIALS[j]) for j in surviving],
                          group.conductor)
    R = np.zeros((35, 35, sums.shape[-1]), dtype=sums.dtype)
    R[:, surviving] = sums.transpose(1, 0, 2)
    return R, den ** 3 * len(reps)


def _exact(n, coeffs: list, den) -> Cyclotomic:
    """The value of integer coefficients on the zeta_n power basis over
    den."""
    return from_power_basis(n, coeffs, den) if any(coeffs) else _ZERO


def _reduction_table(n, length):
    """(length, phi(n)) int64: row e holds zeta_n^e on the power basis."""
    table = _power_table(n)
    return np.array([table[e % n] for e in range(length)], dtype=np.int64)


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
    mod_phi = _reduction_table(n, 3 * phi - 2)
    # |entry| <= big, so a product of three has coefficients of size at
    # most phi^2 * big^3; 6 products share a monomial and len(arrays)
    # representatives add up before 3 * phi - 2 terms are reduced
    bound = (len(arrays) * 6 * phi ** 2 * _big(arrays) ** 3
             * (3 * phi - 2) * _big(mod_phi))
    if bound >= 1 << 63:
        arrays = arrays.astype(object)
        mod_phi = mod_phi.astype(object)
    acc = np.zeros((len(factors), N_VARS, N_VARS, N_VARS, 3 * phi - 2),
                   dtype=arrays.dtype)
    for A in arrays:
        nonzero = (A != 0).any(axis=-1)
        found = np.nonzero(nonzero[p, :, None, None]
                           & nonzero[q, None, :, None]
                           & nonzero[r, None, None, :])
        # in blocks of 512 products, each temporary stays below glibc's
        # 128 KiB mmap threshold (phi <= 10), so its pages come from the
        # heap again instead of being faulted in afresh on every call
        for k in range(0, len(found[0]), 512):
            s, a, b, c = (x[k:k + 512] for x in found)
            acc[s, a, b, c] += _convolve(_convolve(A[p[s], a], A[q[s], b]),
                                         A[r[s], c])
    flat = acc.reshape(len(factors), N_VARS ** 3, 3 * phi - 2)
    collapsed = np.add.reduceat(flat[:, _BY_MONOMIAL], _MONOMIAL_STARTS,
                                axis=1)
    return collapsed @ mod_phi


def _fixes(S, s_den, R, support, n) -> bool:
    """Whether S R = s_den * R on the zeta_n power basis.  R is an
    integer array of shape (35, c, phi) whose rows vanish off the
    indices in support, and S, of shape (35, len(support), phi), holds
    the columns of a substitution matrix at those indices."""
    phi = S.shape[-1]
    mod_phi = _reduction_table(n, 2 * phi - 1)
    # a coefficient of S R is a sum of len(support) * phi products
    # before 2 * phi - 1 of them are reduced
    bound = max(len(support) * phi * _big(S) * _big(R) * (2 * phi - 1)
                * _big(mod_phi), s_den * _big(R))
    if bound >= 1 << 63:
        S, R, mod_phi = (a.astype(object) for a in (S, R, mod_phi))
    out = np.zeros((35, R.shape[1], 2 * phi - 1), dtype=np.result_type(S, R))
    rows = R[support].reshape(len(support), -1)
    for a in range(phi):
        out[:, :, a:a + phi] += (S[:, :, a] @ rows).reshape(35, -1, phi)
    return np.array_equal(out @ mod_phi, s_den * R)


class InvariantSpace:
    """The invariant cubics of a group.

    `columns` holds the nonzero columns of the integer Reynolds array
    as (array, den, n): array, of shape (c, 35, phi(n)), holds den times
    the c nonzero images of monomials under the averaging operator on
    the zeta_n power basis, n the group's conductor.  The smoothness probe
    reduces them mod p as they are (`smoothprobe.reduce_columns`).
    `spanning`, the same images as exact forms, with denominators
    dividing the group order times the entry denominators, is built on
    first use only.  `basis`, the canonical echelon basis of the space,
    is built by exact row reduction on first use.  Its pivot divisions
    can bring huge numerators, which make a reduction mod p degenerate
    for unlucky primes, so only printing and membership tests use it.
    `rank_primes` are the split primes at which `dimension` was read,
    in order."""

    def __init__(self, columns, independent, support, rank_primes=()):
        self.columns = columns
        # indices into spanning of dimension-many forms, independent
        # mod a prime and so in characteristic zero too
        self._independent = tuple(independent)
        self._support = tuple(sorted(support, reverse=True))
        self.rank_primes = tuple(rank_primes)

    @functools.cached_property
    def spanning(self) -> tuple:
        array, den, n = self.columns
        return tuple(CubicForm([_exact(n, coeffs, den) for coeffs in form])
                     for form in array.tolist())

    @property
    def dimension(self) -> int:
        return len(self._independent)

    @functools.cached_property
    def basis(self) -> tuple:
        """Row reduction of the independent spanning forms, which span
        the space, so their reduced echelon form is its canonical
        basis."""
        if not self._independent:
            return ()
        rank_, reduced, _ = rref(Matrix(
            [self.spanning[i].coefficients for i in self._independent]))
        if rank_ != self.dimension:
            raise ContractViolationError(
                f"invariant space has dimension {self.dimension} but its "
                f"independent forms have rank {rank_}")
        return tuple(CubicForm(reduced.row(i)) for i in range(rank_))

    def contains(self, form: CubicForm) -> bool:
        """Whether form lies in the space: each row of the echelon basis
        has a 1 at its pivot, its first nonzero coefficient, where every
        other row is 0, so subtracting each row times form's coefficient
        there leaves zero exactly for the members."""
        rest = form.coefficients
        for row in self.basis:
            coeffs = row.coefficients
            at_pivot = rest[next(i for i, c in enumerate(coeffs) if c)]
            if at_pivot:
                rest = [r - at_pivot * c for r, c in zip(rest, coeffs)]
        return not any(rest)

    def variable_support(self) -> tuple:
        return tuple(i for i in range(N_VARS)
                     if any(e[i] for e in self._support))

    def missing_variables(self) -> tuple:
        used = self.variable_support()
        return tuple(i for i in range(N_VARS) if i not in used)

    def monomial_support(self) -> tuple:
        return self._support

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
    """The cubics fixed by every element of the group, read off the
    integer Reynolds array R: its nonzero columns span the space, its
    nonzero rows are the monomial support, and its rank mod a split
    prime, certified by the exact trace, is the dimension.  One check
    per generator g, S_g R = R with S_g from the same kernel on the
    array of g^-1, shows that the columns are invariant."""
    R, den = _reynolds_array(group)
    n = group.conductor
    diagonal = np.arange(35)
    trace = _exact(n, R[diagonal, diagonal].sum(axis=0).tolist(), den)
    if not (trace.is_rational() and trace.as_rational().denominator == 1):
        raise ContractViolationError(
            f"averaging operator has trace {trace}, not an integer")
    trace = int(trace.as_rational())
    R = R[:, np.flatnonzero(R.any(axis=(0, 2)))]
    support = np.flatnonzero(R.any(axis=(1, 2)))

    independent, primes = (), []
    if len(support):
        factors = [_factors(MONOMIALS[m]) for m in support]
        # each distinct generator once; the identity fixes R anyway
        gens = dict.fromkeys(group.generator_indices)
        gens.pop(group.identity_index, None)
        for i in gens:
            A, a_den = group.arrays([group.inverse_index(i)])
            # the images of the support's monomials are the columns of
            # S_g there, over a_den^3
            S = _sum_of_images(A, factors, n)
            if not _fixes(S.transpose(1, 0, 2), a_den ** 3, R, support, n):
                raise ContractViolationError(
                    "averaging operator moves under a generator")
        for p in split_primes(n):
            primes.append(p)
            independent = pivots_mod_p(reduce_mod_p(R, n, p), p)
            if len(independent) >= trace:
                break
    if len(independent) != trace:
        raise ContractViolationError(
            f"averaging operator has trace {trace} but rank "
            f"{len(independent)} mod the primes {primes}")

    return InvariantSpace((R.transpose(1, 0, 2), den, n), independent,
                          [MONOMIALS[m] for m in support], primes)
