"""Cubic forms in five variables and group actions on them.

A cubic form lives on the fixed basis of the 35 degree-3 monomials in
x0..x4, ordered lexicographically by exponent vector, largest first, so
x0^3 is index 0 and x4^3 is index 34.  A matrix g acts by substitution
on the dual side, (g . F)(x) = F(g^-1 x), which makes the action a left
action and matches how symmetries of a hypersurface in projective space
compose.

The invariant subspace of a finite group is computed from the Reynolds
operator, the average of all substitution matrices, built as one sum:
the sum is folded through the cosets of the diagonal element h of
largest order, whose own average kills every monomial of nonzero
h-weight, so only the surviving monomials are expanded, once per coset
representative.  On the surviving monomials the coset <h> itself is
the identity, so its term is added as a diagonal and only the other
representatives go through the kernel: a group that is <h> makes no
kernel call at all.  When the identity is the only diagonal element the
fold is the plain sum.

The sum runs on integer arrays, read from the group
(`MatrixGroup.arrays`, the closure's own arrays in the form of
`linalg.int_array`): each representative's inverse is a (5, 5, phi(n))
array of coefficients on the zeta_n power basis over one common
denominator, n the group's conductor.  Products in Q(zeta_n) go through
one cached table of zeta_n^(a + b) on the power basis
(`linalg._pair_table`): an entry times the table is the phi x phi
matrix of multiplication by that entry, so a product is a matmul and
comes out reduced mod Phi_n.  For a surviving monomial x_p*x_q*x_r the
pair products A[p, a] * A[q, b] of every representative are one batched
matmul, and their products with the third factor A[r, c], summed over
the representatives, one matmul that contracts over (representative,
coefficient).  The 125 products x_a*x_b*x_c are then collapsed onto the
35 monomials.  Blocks of monomials and of representatives keep every
temporary below 128 KiB, whatever the number of representatives.  int64
is used when a bound on the sums, computed from the input, proves it
cannot overflow; otherwise `linalg._widen` runs the same code on Python
ints.  This kernel, `_sum_of_images`, is the package's only
substitution: `fixed_by` runs it on the array of one g^-1 and combines
its output with the form's coefficients, put on integer rows by
`linalg.int_array`, through the pair table of n and the form's field.

Forms are read by the package's one expression parser
(`cyclo.parse_polynomial`); `CubicForm.parse` only adds the check that
every term is a cubic monomial in x0..x4.

The space is read off the integer array R of that operator, and
nothing exact is built that no output prints.  R's nonzero columns span
U^G; the space keeps them as integers (`InvariantSpace.columns`), which
the smoothness probe reduces mod p as they are, and makes them exact
forms on first use only (`spanning`, by `linalg.exact_values`).  Its
nonzero rows are the monomial support, exact on integers, which
`missing_variables` and `split_variable` read.  Its rank mod the first split prime p = 1 mod
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
S_g R runs on integer arrays mod Phi_n, under an overflow bound too.

The canonical echelon basis is built by exact row reduction on first
use only (`InvariantSpace.basis`: `invariants`, `selftest` and library
callers): of dimension-many spanning forms that are independent mod p,
whose reduced echelon form is that of the whole space.  Exact values
are made only for their nonzero coefficients, the reduction runs on the
columns of the monomial support, and `cyclo.rref` eliminates over each
row's nonzero entries only.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .cyclo import ONE, Cyclotomic, cyclo, parse_polynomial
from .errors import ContractViolationError
from .groups import _orbit
from .linalg import (
    _big,
    _pair_table,
    _root_rows,
    _widen,
    conductor_of,
    exact_values,
    int_array,
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


# per monomial, its exponent vector and its factors, as (35, 5) and
# (35, 3) intp arrays
_EXPONENTS = np.array(MONOMIALS, dtype=np.intp)
_FACTORS = np.array([_factors(e) for e in MONOMIALS], dtype=np.intp)


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
_MINUS_ONE = -ONE


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
        if len(coeffs) != 35:
            raise ValueError(f"a cubic form has 35 coefficients, not "
                             f"{len(coeffs)}")
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
        parts = []
        for e, c in zip(MONOMIALS, self._coeffs):
            if not c:
                continue
            mono = monomial_str(e)
            if c == ONE:
                term = mono
            elif c == _MINUS_ONE:
                term = f"-{mono}"
            else:
                cs = str(c)
                if "+" in cs or ("-" in cs[1:]) or "/" in cs:
                    cs = f"({cs})"
                term = f"{cs}*{mono}"
            parts.append(term)
        if not parts:
            return "0"
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

def fixed_by(group, i: int, forms) -> bool:
    """Whether F(g^-1 x) == F for every form F, g the element of index i
    of group; g^-1 is read from the group's arrays, not computed by an
    exact matrix inverse.  The test runs on integer rows: the kernel's
    images of F's monomials, over den^3 on the zeta_n power basis, are
    combined with F's coefficients, on the power basis of the least
    field Q(zeta_f) that holds both, through the table of
    zeta_f^(a f/n + b), and compared with den^3 times F's coefficients."""
    A, den = group.arrays([group.inverse_index(i)])
    n = group.conductor
    for form in forms:
        terms = [m for m, c in enumerate(form.coefficients) if c]
        if not terms:
            continue
        values = [form.coefficients[m] for m in terms]
        field = math.lcm(n, conductor_of(values))
        C = int_array(values, field)[0]
        R = np.zeros((35, 1, C.shape[-1]), dtype=C.dtype)
        R[terms, 0] = C
        # the images of F's monomials are the columns of S_g there, over
        # den^3
        S = _sum_of_images(A, _FACTORS[terms], n)
        if not _fixes(S.transpose(1, 0, 2), den ** 3, R, terms, n, field):
            return False
    return True


def _diagonal_of_largest_order(group):
    """The diagonal element h of largest order n (the identity when no
    other element is diagonal) and its exponents: entry i of h is
    zeta_n^k_i."""
    h_idx = max(group.diagonal_indices(), key=group.element_order)
    n = group.element_order(h_idx)
    roots = _root_rows(group.conductor)
    array, den = group.arrays([h_idx])
    diagonal = array[0, range(N_VARS), range(N_VARS)] // den
    # entry i is row e of the roots, zeta_m^e of order dividing n, so m
    # divides e * n
    _, e = (diagonal[:, None] == roots).all(axis=2).nonzero()
    return n, h_idx, (e * n // len(roots) % n).tolist()


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

    The representative of <h> itself is a power of h, which fixes the
    surviving monomials: its term is den^3 on their diagonal, added
    without the kernel, which sums over the other representatives only.
    """
    n, h_idx, exps = _diagonal_of_largest_order(group)
    surviving = (_EXPONENTS @ exps % n == 0).nonzero()[0]

    # left coset representatives of <h>: the coset of i is its orbit
    # under right multiplication by h; each coset's representative is
    # its smallest index, so the one of <h> need not be the identity
    by_h = group.row(h_idx)
    reps, seen = [], set()
    for i in range(group.order):
        if i not in seen:
            reps.append(i)
            seen.update(_orbit(i, [by_h.__getitem__]))
    in_h = set(group.powers(h_idx))

    # a power of h, in lowest terms, has denominator 1 (its entries are
    # roots of unity), so the other representatives' common denominator
    # is that of all of them
    arrays, den = group.arrays([group.inverse_index(r) for r in reps
                                if r not in in_h])
    identity = den ** 3
    if len(arrays):
        sums = _sum_of_images(arrays, _FACTORS[surviving], group.conductor)
    else:
        sums = np.zeros((len(surviving), 35, arrays.shape[-1]),
                        dtype=np.int64)
    sums, = _widen(_big(sums) + identity, sums)
    R = np.zeros((35, 35, sums.shape[-1]), dtype=sums.dtype)
    R[:, surviving] = sums.transpose(1, 0, 2)
    R[surviving, surviving, 0] += identity
    return R, identity * len(reps)


def _sum_of_images(arrays, factors, n):
    """(len(factors), 35, phi(n)) integers: for each monomial, given by
    its factors (p, q, r), the sum over the substitutions x_i ->
    sum_k A[i, k] x_k, A one of arrays, of its image, on the zeta_n
    power basis.

    With M_A[i, j] = A[i, j] @ pair table, the matrix of multiplication
    by entry (i, j), the image of x_p*x_q*x_r is sum_abc (A[p, a] @
    M_A[q, b]) @ M_A[r, c] x_a*x_b*x_c: the pair products of every
    representative are one batched matmul, and their products with the
    third factor, summed over the representatives, one matmul that
    contracts over (representative, coefficient).  Blocks of monomials
    and of representatives keep every temporary small, whatever the
    number of arrays."""
    p, q, r = np.array(factors, dtype=np.intp).reshape(-1, 3).T
    phi = arrays.shape[-1]
    table = _pair_table(n).reshape(phi, phi * phi)
    # |entry| <= big and |table| <= t bound a multiplication matrix by
    # phi * big * t, a pair product by phi^2 * big^2 * t and a triple
    # product by phi^4 * big^3 * t^2; len(arrays) of them add up at each
    # product x_a*x_b*x_c, and 6 products share a monomial
    arrays, table = _widen(6 * len(arrays) * phi ** 4 * _big(arrays) ** 3
                           * _big(table) ** 2, arrays, table)
    # blocks of sb monomials and kb representatives keep every
    # temporary at 2^14 values at most, 128 KiB, below glibc's mmap
    # threshold, so its pages come from the heap again instead of being
    # faulted in afresh on every call: the sums hold 125 * phi values
    # per monomial, and per representative M holds 25 * phi^2, a
    # gathered factor 5 * phi^2 per monomial and the pair products
    # 25 * phi per monomial
    sb = max(1, min(len(factors), (1 << 14) // (125 * phi)))
    kb = max(1, (1 << 14) // max(25 * phi * phi, 5 * sb * phi * phi,
                                 25 * sb * phi))
    out = np.empty((len(factors), 35, phi), dtype=arrays.dtype)
    for s0 in range(0, len(factors), sb):
        ps, qs, rs = (x[s0:s0 + sb] for x in (p, q, r))
        acc = np.zeros((len(ps), 25, N_VARS * phi), dtype=arrays.dtype)
        for k0 in range(0, len(arrays), kb):
            A = arrays[k0:k0 + kb]
            k = len(A)
            # M[k, i, m, j, o]: coefficient o of zeta_n^m * A[k, i, j]
            M = (A.reshape(-1, phi) @ table).reshape(
                k, N_VARS, N_VARS, phi, phi).transpose(0, 1, 3, 2, 4)
            # pairs[k, s, a, (b, m)]: coefficient m of A[p, a] * A[q, b]
            pairs = A[:, ps] @ M[:, qs].reshape(k, -1, phi, N_VARS * phi)
            # rows (s, a, b) and columns (c, o) of the triple products,
            # contracted over (k, m)
            acc += (pairs.reshape(k, -1, 25, phi).transpose(1, 2, 0, 3)
                    .reshape(-1, 25, k * phi)
                    @ M[:, rs].transpose(1, 0, 2, 3, 4)
                    .reshape(-1, k * phi, N_VARS * phi))
        flat = acc.reshape(-1, N_VARS ** 3, phi)
        out[s0:s0 + sb] = np.add.reduceat(flat[:, _BY_MONOMIAL],
                                          _MONOMIAL_STARTS, axis=1)
    return out


def _fixes(S, s_den, R, support, n, field=None) -> bool:
    """Whether S R = s_den * R.  R is an integer array of shape (35, c,
    phi(field)) on the zeta_field power basis, field a multiple of n (n
    when not given), whose rows vanish off the indices in support, and
    S, of shape (35, len(support), phi(n)) on the zeta_n power basis,
    holds the columns of a substitution matrix at those indices."""
    phi, phi_r = S.shape[-1], R.shape[-1]
    # entry (b, a) of the table: zeta_field^b * zeta_n^a
    table = _pair_table(n, field).transpose(1, 0, 2).reshape(
        phi_r, phi * phi_r)
    # a coefficient of a multiplication matrix of R is a sum of phi_r
    # products, and one of S R a sum of len(support) * phi products of
    # a coefficient of S with one of those
    S, R, table = _widen(max(len(support) * phi * phi_r * _big(S) * _big(R)
                             * _big(table), s_den * _big(R)), S, R, table)
    rows = R[support]
    # M[j, a, c, o]: coefficient o of zeta_n^a * R[j, c]
    M = (rows.reshape(-1, phi_r) @ table).reshape(
        len(support), -1, phi, phi_r).transpose(0, 2, 1, 3)
    out = S.reshape(35, -1) @ M.reshape(len(support) * phi, -1)
    return np.array_equal(out.reshape(R.shape), s_den * R)


class InvariantSpace:
    """The invariant cubics of a group.

    `columns` holds the nonzero columns of the integer Reynolds array
    as (array, den, n): array, of shape (c, 35, phi(n)), holds den times
    the c nonzero images of monomials under the averaging operator on
    the zeta_n power basis, n the group's conductor.  The smoothness probe
    reduces them mod p as they are (`smoothprobe.reduce_columns`).
    `spanning`, the same images as exact forms, with denominators
    dividing the group order times the entry denominators, is built on
    first use only, exact values for the nonzero coefficients alone.
    `basis`, the canonical echelon basis of the space, is built by exact
    row reduction of the independent forms on the support's columns, on
    first use.  Its pivot divisions can bring huge numerators, which make
    a reduction mod p degenerate for unlucky primes, so only printing and
    membership tests use it.
    `rank_primes` are the split primes at which `dimension` was read,
    in order."""

    def __init__(self, columns, independent, support, rank_primes=()):
        self.columns = columns
        # indices into spanning of dimension-many forms, independent
        # mod a prime and so in characteristic zero too
        self._independent = tuple(independent)
        self._support = tuple(sorted(support, reverse=True))
        self.rank_primes = tuple(rank_primes)

    def _coefficients(self, indices) -> list:
        """The columns of the given indices as lists of 35 exact
        coefficients; only the nonzero ones are built, the others are
        one shared zero."""
        array, den, n = self.columns
        array = array[list(indices)]
        out = [[_ZERO] * 35 for _ in range(len(array))]
        ks, ms = array.any(axis=2).nonzero()
        values, codes = exact_values(den, array[ks, ms], n)
        for k, m, code in zip(ks.tolist(), ms.tolist(), codes):
            out[k][m] = values[code]
        return out

    @functools.cached_property
    def spanning(self) -> tuple:
        return tuple(map(CubicForm,
                         self._coefficients(range(len(self.columns[0])))))

    @property
    def dimension(self) -> int:
        return len(self._independent)

    @functools.cached_property
    def basis(self) -> tuple:
        """Row reduction of the independent spanning forms, which span
        the space, so their reduced echelon form is its canonical
        basis.  The forms vanish off the monomial support, so only the
        support's columns are reduced, in the same order."""
        if not self._independent:
            return ()
        support = [MONOMIAL_INDEX[e] for e in self._support]
        rank_, reduced, _ = rref(
            [[coeffs[m] for m in support]
             for coeffs in self._coefficients(self._independent)])
        if rank_ != self.dimension:
            raise ContractViolationError(
                f"invariant space has dimension {self.dimension} but its "
                f"independent forms have rank {rank_}")
        basis = []
        for i in range(rank_):
            coeffs = [_ZERO] * 35
            for m, v in zip(support, reduced[i]):
                coeffs[m] = v
            basis.append(CubicForm(coeffs))
        return tuple(basis)

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
    # an integer: a multiple of den times 1 on the power basis
    trace_row = R[diagonal, diagonal].sum(axis=0)
    trace, *rest = trace_row.tolist()
    if any(rest) or trace % den:
        raise ContractViolationError(
            "averaging operator has trace "
            f"{exact_values(den, trace_row[None], n)[0][0]}, not an integer")
    trace //= den
    R = R[:, R.any(axis=(0, 2)).nonzero()[0]]
    support = R.any(axis=(1, 2)).nonzero()[0]

    independent, primes = (), []
    if len(support):
        factors = _FACTORS[support]
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
