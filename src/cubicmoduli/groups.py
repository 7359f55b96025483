"""Finite matrix groups over cyclotomic fields.

Groups are built by breadth-first closure from generators, on integer
arrays.  With n the conductor of the generators' entries (which is also
the group's), an element is a positive denominator and an integer array
of the power-basis coefficients of its entries over Q(zeta_n), in
lowest terms, so the pair is a canonical dict key.  Right
multiplication by a generator is one integer matrix, and each BFS level
multiplies its whole frontier by it in one product.  The products run
on int64 while a bound proves they cannot overflow, and on Python ints
(object arrays) past it; an element's key does not depend on which of
the two holds it.  The group keeps these arrays, in canonical
order, as its only element representation: `arrays` hands any index set
to the invariant kernels in the form of `linalg.int_array`, and class
traces, scalar and diagonal elements are read off them in one numpy
pass each.  Exact matrices (`elements`) are built on first use only,
one exact value per distinct entry.

After the closure every group operation is an integer lookup on the
tables it built: the generators' indices, one right-multiplication row
per generator and the BFS tree.  At every order, a product e_i * e_j
pushes e_i through e_j's BFS word, and e_j's whole row composes the
generator rows along it, so no table of order^2 indices is kept
(psl2-11's closure retains about 1.5 MiB).  Powers are cached once per
element and give orders and inverses; one orbit walk gives conjugacy
classes, conjugacy orbits of subgroups and subgroup closures.
Eigenvalue profiles come from the class traces: each multiplicity is a
small integer, computed mod a split prime.

Elements get a canonical order (lexicographic on the printed entries),
which makes every derived report reproducible across runs and generator
orderings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cyclo import (Cyclotomic, _power_table, from_power_basis, power_basis,
                    root_of_unity)
from .errors import CapExceededError, NonIntegralCharacterError, NotFiniteError
from .linalg import (Matrix, conductor_of, int_array, root_of_unity_mod,
                     split_primes)
from .chars import ClassStructure

DEFAULT_CAP = 20000
# an element whose order exceeds this is taken to have infinite order
ORDER_BOUND = 1000
# the largest group order subgroups_two_generated is sized for
SUBGROUP_SCAN_LIMIT = 1000


@dataclass(frozen=True)
class ConjClass:
    """One conjugacy class: sorted member indices and representative
    (the smallest member)."""

    rep_index: int
    members: tuple[int, ...]
    element_order: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class EigenProfile:
    """Multiset of eigenvalues of a finite-order matrix, recorded as
    multiplicities of zeta_order^k."""

    order: int
    mults: tuple[tuple[int, int], ...]  # ((exponent, multiplicity), ...)

    def as_dict(self) -> dict[int, int]:
        return dict(self.mults)

    def dimension(self) -> int:
        return sum(m for _, m in self.mults)

    def __str__(self):
        parts = []
        for k, m in self.mults:
            root = "1" if k == 0 else str(root_of_unity(self.order, k))
            parts.append(f"{root}:{m}" if m > 1 else root)
        return "(" + ", ".join(parts) + ")"


def _profile_from_traces(n: int, traces: list[Cyclotomic], dim: int) -> EigenProfile:
    """mult(zeta_n^k) = (1/n) * sum_j t_j zeta_n^(-jk) for the traces t_j
    of the powers g^j.  Each multiplicity is an integer in [0, dim], so
    it is computed mod the first split prime p of lcm(n, conductor):
    p > dim makes the residue the integer itself."""
    m = math.lcm(n, conductor_of(traces))
    p = split_primes(m)[0]
    w = root_of_unity_mod(m, p)
    w_powers = [pow(w, e, p) for e in range(len(_power_table(m)[0]))]
    residues = []
    for t in traces:
        num, den = power_basis(t, m)
        residues.append(sum(c * x for c, x in zip(num, w_powers))
                        * pow(den, -1, p) % p)
    zeta = pow(w, m // n, p)
    inv_n = pow(n, -1, p)
    mults = []
    for k in range(n):
        step = pow(zeta, -k, p)
        acc, x = 0, 1
        for r in residues:
            acc += r * x
            x = x * step % p
        value = acc * inv_n % p
        if value > dim:
            raise NonIntegralCharacterError(
                f"eigenvalue multiplicity of zeta_{n}^{k} is {value} mod "
                f"{p}, not an integer in [0, {dim}]")
        if value:
            mults.append((k, value))
    total = sum(v for _, v in mults)
    if total != dim:
        raise NonIntegralCharacterError(
            f"profile multiplicities sum to {total}, not {dim}")
    return EigenProfile(n, tuple(mults))


@dataclass(frozen=True)
class SubgroupRecord:
    """A two-generated subgroup up to conjugacy."""

    element_indices: tuple[int, ...]
    generator_indices: tuple[int, int]
    fingerprint: tuple
    label: str

    @property
    def order(self) -> int:
        return len(self.element_indices)


class MatrixGroup:
    def __init__(self, *, dens, nums, generators, generator_indices, steps,
                 parent, identity_index, conductor):
        # internal; use MatrixGroup.generate
        self._dens = dens  # per element: its positive denominator
        self._nums = nums  # per element: its (d, d, phi) numerators
        self.generators: tuple[Matrix, ...] = generators
        self.generator_indices: tuple[int, ...] = generator_indices
        self._steps = steps  # per-generator right-multiplication rows
        self._parent = parent  # (parent index, generator index), BFS tree
        self.identity_index = identity_index
        self.conductor = conductor
        self.order = len(dens)
        self.dim = generators[0].rows
        self._powers = {}
        self._class_traces = None
        self._class_profiles = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def generate(cls, generators, cap: int = DEFAULT_CAP) -> "MatrixGroup":
        gens = [g if isinstance(g, Matrix) else Matrix(g) for g in generators]
        assert gens, "need at least one generator"
        d = gens[0].rows
        assert all(g.rows == g.cols == d for g in gens), "generators must be square"
        # every product of the generators lies in Q(zeta_n), and the
        # generators are elements, so n is also the group's conductor
        n = conductor_of(v for g in gens for v in g.data)
        steps = [_RightMultiplication(g, n) for g in gens]
        identity = _identity(d, len(_power_table(n)[0]))
        for step in steps:
            _check_order(step, identity)  # raises NotFiniteError when unbounded

        blocks = [identity]  # (dens, nums) of the elements, in index order
        index = {_keys(*identity)[0]: 0}
        parent = [(-1, -1)]  # (parent index, generator index), BFS tree
        rmul_gen = [[] for _ in gens]  # per generator: index of e_i * g
        level = 0
        while level < len(blocks):
            # the frontier: the elements the last level found
            dens = np.concatenate([b[0] for b in blocks[level:]])
            nums = np.concatenate([b[1] for b in blocks[level:]])
            base = len(parent) - len(dens)
            level = len(blocks)
            for gi, step in enumerate(steps):
                pdens, pnums = _times(dens, nums, step)
                fresh = []
                for x, key in enumerate(_keys(pdens, pnums)):
                    y = index.get(key)
                    if y is None:
                        y = len(parent)
                        if y >= cap:
                            raise CapExceededError(
                                f"closure exceeded cap {cap}; raise the cap if intended"
                            )
                        index[key] = y
                        parent.append((base + x, gi))
                        fresh.append(x)
                    rmul_gen[gi].append(y)
                if fresh:
                    blocks.append((pdens[fresh], pnums[fresh]))

        order = len(parent)
        dens = np.concatenate([b[0] for b in blocks])
        nums = np.concatenate([b[1] for b in blocks])
        values, codes = _distinct_entries(dens, nums, d, n)
        texts = [str(v) for v in values]
        sort_keys = [[texts[c] for c in row] for row in codes]
        # canonical order: lexicographic on printed entries
        new_to_old = np.array(sorted(range(order), key=lambda i: sort_keys[i]),
                              dtype=np.intp)
        old_to_new = np.empty(order, dtype=np.intp)
        old_to_new[new_to_old] = np.arange(order)
        return cls(
            dens=dens[new_to_old],
            nums=nums[new_to_old].reshape(order, d, d, -1),
            generators=tuple(gens),
            generator_indices=tuple(int(old_to_new[row[0]]) for row in rmul_gen),
            steps=[old_to_new[r][new_to_old].tolist() for r in rmul_gen],
            parent=[(-1, -1) if p < 0 else (int(old_to_new[p]), gi)
                    for p, gi in (parent[old] for old in new_to_old.tolist())],
            identity_index=int(old_to_new[0]),
            conductor=n,
        )

    # ------------------------------------------------------------------
    # elements

    def arrays(self, indices):
        """(array, den) for the elements of the given indices, as
        `linalg.int_array` gives them: array[k, i, j] holds the phi(n)
        power-basis coefficients of den times entry (i, j) of the k-th,
        den > 0 the least common denominator.  The dtype is int64 when
        every coefficient fits below 2^62, and Python ints (object)
        otherwise."""
        indices = list(indices)
        dens = self._dens[indices].tolist()
        den = math.lcm(*dens)
        scale = np.array([den // x for x in dens], dtype=object)
        scale = scale.reshape(-1, 1, 1, 1)
        nums = self._nums[indices]
        if nums.dtype != object and _big(nums) * _big(scale) < _INT62:
            return nums * scale.astype(np.int64), den
        nums = nums.astype(object) * scale
        return (nums.astype(np.int64) if _big(nums) < _INT62 else nums), den

    @functools.cached_property
    def elements(self) -> tuple[Matrix, ...]:
        """Every element as an exact matrix, in index order; built on
        first use."""
        values, codes = _distinct_entries(self._dens, self._nums, self.dim,
                                          self.conductor)
        d = self.dim
        return tuple(Matrix([[values[c] for c in row[i:i + d]]
                             for i in range(0, d * d, d)]) for row in codes)

    def diagonal_indices(self) -> list[int]:
        """The indices of the diagonal elements, in index order."""
        off = ~np.eye(self.dim, dtype=bool)
        return np.flatnonzero(
            (self._nums[:, off] == 0).all(axis=(1, 2))).tolist()

    # ------------------------------------------------------------------
    # index arithmetic

    def _word(self, j: int) -> list[int]:
        """The generators whose rows, in this order, take e to e_j."""
        word = []
        while j != self.identity_index:
            j, gi = self._parent[j]
            word.append(gi)
        return word[::-1]

    def mult(self, i: int, j: int) -> int:
        """The index of e_i * e_j: e_i pushed through e_j's BFS word,
        one generator row at a time."""
        for gi in self._word(j):
            i = self._steps[gi][i]
        return i

    def row(self, j: int) -> list[int]:
        """The right-multiplication row of e_j: entry i is the index of
        e_i * e_j, composed from the generator rows along e_j's word."""
        row = list(range(self.order))
        for gi in self._word(j):
            row = list(map(self._steps[gi].__getitem__, row))
        return row

    def powers(self, i: int) -> tuple[int, ...]:
        """(e, g, g^2, ..., g^(k-1)) for g = e_i of order k."""
        got = self._powers.get(i)
        if got is None:
            steps = [self._steps[gi] for gi in self._word(i)]
            got = [self.identity_index]
            j = i
            while j != self.identity_index:
                got.append(j)
                for step in steps:
                    j = step[j]
            got = self._powers[i] = tuple(got)
        return got

    def element_order(self, i: int) -> int:
        return len(self.powers(i))

    def inverse_index(self, i: int) -> int:
        return self.powers(i)[-1]

    def power_index(self, i: int, k: int) -> int:
        """The index of e_i^k, for any integer k."""
        powers = self.powers(i)
        return powers[k % len(powers)]

    # ------------------------------------------------------------------
    # conjugacy classes

    @functools.cached_property
    def classes(self) -> tuple[ConjClass, ...]:
        """The conjugacy classes, ordered by element order, size and
        representative."""
        steps = [row.__getitem__ for row in self._conjugation_rows]
        assigned = [False] * self.order
        raw = []
        for start in range(self.order):
            if not assigned[start]:
                members = tuple(sorted(_orbit(start, steps)))
                for x in members:
                    assigned[x] = True
                raw.append(members)
        raw.sort(key=lambda m: (self.element_order(m[0]), len(m), m[0]))
        return tuple(ConjClass(rep_index=members[0], members=members,
                               element_order=self.element_order(members[0]))
                     for members in raw)

    @functools.cached_property
    def _class_of(self) -> list[int]:
        """Per element, the index of its conjugacy class."""
        class_of = [0] * self.order
        for cid, c in enumerate(self.classes):
            for x in c.members:
                class_of[x] = cid
        return class_of

    @functools.cached_property
    def _conjugation_rows(self) -> list[list[int]]:
        """Per generator g, the row mapping x to the index of g x g^-1."""
        return [[by_ginv[self.mult(g, x)] for x in range(self.order)]
                for g, by_ginv in ((g, self.row(self.inverse_index(g)))
                                   for g in self.generator_indices)]

    # ------------------------------------------------------------------
    # characters and profiles support

    def class_structure(self) -> ClassStructure:
        cl = self.classes
        return ClassStructure(
            order=self.order,
            sizes=tuple(c.size for c in cl),
            element_orders=tuple(c.element_order for c in cl),
            power_maps=tuple(
                (k, tuple(self._class_of[self.power_index(c.rep_index, k)]
                          for c in cl))
                for k in (2, 3, 5)),
        )

    def class_traces(self) -> tuple[Cyclotomic, ...]:
        """The trace of each class representative, exact: the sum of its
        diagonal rows of power-basis coefficients over its
        denominator."""
        if self._class_traces is None:
            reps = [c.rep_index for c in self.classes]
            d = range(self.dim)
            sums = self._nums[reps][:, d, d].sum(axis=1)
            self._class_traces = tuple(
                from_power_basis(self.conductor, row, den) for row, den in
                zip(sums.tolist(), self._dens[reps].tolist()))
        return self._class_traces

    def class_profiles(self) -> tuple[EigenProfile, ...]:
        """Eigenvalue profile of each class representative, in class
        order."""
        if self._class_profiles is None:
            self._class_profiles = tuple(
                self.eigen_profile_of(c.rep_index) for c in self.classes
            )
        return self._class_profiles

    def eigen_profile_of(self, i: int) -> EigenProfile:
        """Profile of element i using class data: trace(g^j) is the class
        trace of the j-th power, so no matrix powers are needed."""
        by_class = self.class_traces()
        traces = [by_class[self._class_of[j]] for j in self.powers(i)]
        return _profile_from_traces(len(traces), traces, self.dim)

    # ------------------------------------------------------------------
    # structural predicates

    def scalar_indices(self) -> list[int]:
        """The indices of the scalar elements: diagonal, with equal
        diagonal entries."""
        d = range(self.dim)
        diagonal = self.diagonal_indices()
        entries = self._nums[diagonal][:, d, d]
        equal = (entries == entries[:, :1]).all(axis=(1, 2))
        return [i for i, eq in zip(diagonal, equal.tolist()) if eq]

    def is_projectively_faithful(self) -> bool:
        """True when the identity is the only scalar matrix in the group,
        i.e. the map to PGL is injective."""
        return all(
            i == self.identity_index for i in self.scalar_indices()
        )

    # ------------------------------------------------------------------
    # subgroup lattice support

    def subgroups_two_generated(self) -> list[SubgroupRecord]:
        """All subgroups generated by at most two elements, up to
        conjugacy in this group, with deterministic representatives."""
        if self.order > SUBGROUP_SCAN_LIMIT:
            raise CapExceededError(
                f"group of order {self.order} is above the subgroup scan "
                f"limit {SUBGROUP_SCAN_LIMIT}")

        # distinct cyclic subgroups with one generator each
        cyclic = {}
        for i in range(self.order):
            cyclic.setdefault(frozenset(self.powers(i)), i)
        rows = {i: self.row(i) for i in cyclic.values()}

        # s -> g s g^-1 for each generator g
        conj = [lambda s, row=row: frozenset(map(row.__getitem__, s))
                for row in self._conjugation_rows]

        # one representative cyclic subgroup per conjugacy orbit
        cyclic_reps = []
        placed = set()
        for s in sorted(cyclic, key=lambda s: tuple(sorted(s))):
            if s not in placed:
                placed.update(_orbit(s, conj))
                cyclic_reps.append(s)

        seen_seeds = set()
        subgroups = {}
        for a_set in cyclic_reps:
            a = cyclic[a_set]
            for b_set, b in cyclic.items():
                seed = a_set | b_set
                if seed in seen_seeds:
                    continue
                seen_seeds.add(seed)
                # right multiplication by a and b reaches every word in
                # them, which is the whole subgroup <a, b>
                h = frozenset(_orbit(self.identity_index,
                                     [rows[a].__getitem__,
                                      rows[b].__getitem__]))
                subgroups.setdefault(h, (a, b))

        # dedupe up to conjugacy, keeping the lexicographically least set
        records = []
        handled = set()
        for h in sorted(subgroups, key=lambda s: (len(s), tuple(sorted(s)))):
            if h in handled:
                continue
            orbit = _orbit(h, conj)
            handled.update(orbit)
            rep = min(orbit, key=lambda s: tuple(sorted(s)))
            a, b = subgroups[h]
            fp = self._fingerprint(rep, self.mult(a, b) == self.mult(b, a))
            records.append(SubgroupRecord(
                element_indices=tuple(sorted(rep)),
                generator_indices=(a, b),
                fingerprint=fp,
                label=fingerprint_label(fp),
            ))
        records.sort(key=lambda r: (r.order, r.label, r.element_indices))
        return records

    def _fingerprint(self, members, abelian: bool) -> tuple:
        orders = {}
        for i in members:
            o = self.element_order(i)
            orders[o] = orders.get(o, 0) + 1
        return (len(members), abelian, tuple(sorted(orders.items())))


def _orbit(start, steps) -> list:
    """Everything reached from start by repeatedly applying the maps in
    steps, breadth first."""
    seen = {start}
    orbit = [start]
    for x in orbit:
        for step in steps:
            y = step(x)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


# an int64 product is formed only when a bound proves that it fits
_INT64_LIMIT = 1 << 63
# the bound below which linalg.int_array keeps coefficients in int64
_INT62 = 1 << 62


def _big(array) -> int:
    return int(np.abs(array).max()) if array.size else 0


class _RightMultiplication:
    """Right multiplication by one generator g on integer arrays.

    An element X is a positive denominator and a numerator row holding
    the phi(n) power-basis coefficients of each entry, row-major.  With
    g = num / den, X * g has numerator X_num @ matrix (rows reshaped to
    d x d*phi) and denominator X_den * den: row (k, a), column (j, c) of
    matrix is coefficient c of zeta_n^a * num[k, j]."""

    __slots__ = ("den", "matrix", "big", "element")

    def __init__(self, g: Matrix, n: int):
        array, den = int_array([g], n)
        num = array[0]
        d, _, phi = num.shape
        table = np.array(_power_table(n), dtype=np.int64)
        # coefficient c of zeta^(a + b)
        shift = table[(np.arange(phi)[:, None] + np.arange(phi)) % n]
        if (phi * int(np.abs(num).max()) * int(np.abs(table).max())
                >= _INT64_LIMIT or den >= _INT64_LIMIT):
            num, shift = num.astype(object), shift.astype(object)
        matrix = np.einsum("kjb,abc->kajc", num, shift).reshape(d * phi, -1)
        self.den = den
        self.matrix = matrix
        self.big = int(np.abs(matrix).max())
        self.element = _lowest_terms(np.array([den], dtype=num.dtype),
                                     num.reshape(1, -1))


def _lowest_terms(dens, nums):
    """Each numerator row and its denominator divided by their gcd."""
    g = np.gcd(np.gcd.reduce(nums, axis=1), dens)
    return dens // g, nums // g[:, None]


def _times(dens, nums, step: _RightMultiplication):
    """The products X * g of the elements X = nums[i] / dens[i] with the
    generator of step, in lowest terms.  The product runs on int64 when
    a bound proves that no coefficient and no denominator can overflow,
    and on Python ints (object arrays) otherwise."""
    width = step.matrix.shape[0]
    if nums.dtype != object and (
            step.matrix.dtype == object
            or int(np.abs(nums).max()) * step.big * width >= _INT64_LIMIT
            or int(dens.max()) * step.den >= _INT64_LIMIT):
        dens, nums = dens.astype(object), nums.astype(object)
    out = (nums.reshape(-1, width) @ step.matrix).reshape(len(nums), -1)
    return _lowest_terms(dens * step.den, out)


def _identity(d: int, phi: int):
    num = np.zeros((d, d, phi), dtype=np.int64)
    num[range(d), range(d), 0] = 1
    return np.ones(1, dtype=np.int64), num.reshape(1, -1)


def _keys(dens, nums) -> list:
    """One dict key per element; equal keys mean equal elements, since
    elements are in lowest terms over one basis.  A row that fits int64
    is keyed by its int64 bytes whatever the dtype of its array, so the
    int64 and Python-int blocks of one closure share keys."""
    if nums.dtype != object:
        return [(den, row.tobytes()) for den, row in zip(dens.tolist(), nums)]
    return [_object_key(den, row)
            for den, row in zip(dens.tolist(), nums.tolist())]


def _object_key(den: int, row: list):
    try:
        return den, np.array(row, dtype=np.int64).tobytes()
    except OverflowError:
        return den, tuple(row)


def _check_order(step: _RightMultiplication, identity):
    """Raise NotFiniteError unless some power g^k, k <= ORDER_BOUND, of
    the generator of step is the identity."""
    power = step.element
    k = 1
    while not (power[0][0] == 1 and np.array_equal(power[1], identity[1])):
        power = _times(*power, step)
        k += 1
        if k > ORDER_BOUND:
            raise NotFiniteError(f"element order exceeds bound {ORDER_BOUND}; "
                                 "not a finite group element")


def _distinct_entries(dens, nums, d: int, n: int):
    """(values, codes): each distinct entry of the elements once, as an
    exact value, and per element the indices into values of its d*d
    entries, row-major."""
    distinct = {}
    codes = []
    for den, num in zip(dens.tolist(), nums):
        codes.append([distinct.setdefault((den, tuple(entry)), len(distinct))
                      for entry in num.reshape(d * d, -1).tolist()])
    return [from_power_basis(n, num, den) for den, num in distinct], codes


_LABELS = {
    (4, True, ((1, 1), (2, 3))): "Z/2xZ/2",
    (6, False, ((1, 1), (2, 3), (3, 2))): "Sym(3)",
    (9, True, ((1, 1), (3, 8))): "Z/3xZ/3",
    (10, False, ((1, 1), (2, 5), (5, 4))): "D10",
    (12, False, ((1, 1), (2, 3), (3, 8))): "Alt(4)",
    (12, False, ((1, 1), (2, 7), (3, 2), (6, 2))): "D12",
    (12, False, ((1, 1), (2, 1), (3, 2), (4, 6), (6, 2))): "Z/3:Z/4",
    (55, False, ((1, 1), (5, 44), (11, 10))): "Z/11:Z/5",
    (60, False, ((1, 1), (2, 15), (3, 20), (5, 24))): "Alt(5)",
    (660, False, ((1, 1), (2, 55), (3, 110), (5, 264), (6, 110), (11, 120))):
        "PSL(2,11)",
}


def fingerprint_label(fp: tuple) -> str:
    order, abelian, orders = fp
    if order == 1:
        return "1"
    got = _LABELS.get(fp)
    if got:
        return got
    if (order, orders[-1][0]) == (order, order):
        return f"Z/{order}"
    if abelian:
        return f"Ab{order}"
    return f"G{order}"
