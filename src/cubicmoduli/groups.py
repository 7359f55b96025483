"""Finite matrix groups over cyclotomic fields.

Groups are built by breadth-first closure from generators, on integer
arrays.  With n the conductor of the generators' entries (which is also
the group's), an element is a positive denominator and an integer array
of the power-basis coefficients of its entries over Q(zeta_n), in lowest
terms, so the pair is a canonical dict key.  Right multiplication by the
generators is one stack of integer matrices, one per generator, and each
BFS level multiplies its whole frontier by all of them in one product,
generator-major.  The products run on int64 while a bound proves they
cannot overflow, and on Python ints past it (`linalg._widen`); an
element's key does not depend on which of the two holds it.  The closure
is the one pass over the generators: each generator's order is the
length of its row's cycle through the identity, read off after the
closure (a singular generator's row never comes back to the identity,
and is NotFiniteError like an order above ORDER_BOUND).  The exact walk
over a generator's powers runs only when the closure cannot show the
orders itself, when it gets deeper than ORDER_BOUND levels or reaches
the cap, so that an element of infinite order still fails fast, and
with NotFiniteError before CapExceededError.
Generators come in as square sequences of rows of values, and the
group keeps these arrays, in canonical order, as its only element
representation: `arrays` hands any index set to the invariant kernels in
the form of `linalg.int_array`, over one denominator
(`linalg.over_common_denominator`), and the trace character
(`character`, a `chars.ClassFunction` on integer rows), scalar and
diagonal elements are read off them in one numpy pass each.  Exact
values are made for the canonical order alone (`linalg.exact_values`,
one per distinct entry).

A group is its closure tables: the generators' indices and one
right-multiplication row per generator; the BFS tree is read off the
rows.  Every group operation is an integer lookup on them: e_i * e_j
pushes e_i through e_j's BFS word, and e_j's whole row composes the
generator rows along it, so no order^2 table is kept (psl2-11's closure
retains about 1.5 MiB).  Left multiplication by g is one pass down the
BFS tree, parents first (g e_x = (g e_parent(x)) s for x = parent(x) s),
which gives the conjugation rows that the classes walk.  Powers are
cached per element and give orders and inverses; one orbit walk gives
classes, subgroup orbits and subgroups.  A subgroup is restricted from
its parent (`subgroup`), with the parent's conductor: its entries lie in
Q(zeta_conductor), not always the least such field.  Eigenvalue profiles
come from the trace character's residues mod a split prime
(`ClassFunction.residues`), each multiplicity a small integer.

Elements get a canonical order (lexicographic on the printed entries),
which makes every derived report reproducible across runs and generator
orderings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cyclo import cyclo, root_of_unity
from .errors import CapExceededError, NonIntegralCharacterError, NotFiniteError
from .linalg import (_big, _pair_table, _row_bytes, _widen,
                     conductor_of, exact_values, int_array,
                     over_common_denominator, root_of_unity_mod,
                     split_primes)
from .chars import ClassFunction, ClassStructure

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


def _profile_from_traces(n: int, residues, p: int, dim: int) -> EigenProfile:
    """mult(zeta_n^k) = (1/n) * sum_j t_j zeta_n^(-jk) for the traces t_j
    of the powers g^j, given as their residues mod a prime p = 1 mod n
    (int64, in [0, p)), with zeta_n sent to root_of_unity_mod(n, p).
    Each multiplicity is an integer in [0, dim], so p > dim makes the
    residue the integer itself.  The sum is one product per
    multiplicity, each term reduced mod p before the sum."""
    inverse = pow(root_of_unity_mod(n, p), -1, p)
    powers = np.array([pow(inverse, e, p) for e in range(n)], dtype=np.int64)
    exponents = np.outer(np.arange(n), np.arange(n)) % n
    values = ((powers[exponents] * residues % p).sum(axis=1) % p
              * pow(n, -1, p) % p).tolist()
    mults = []
    for k, value in enumerate(values):
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
    def __init__(self, *, dens, nums, generator_indices, steps,
                 identity_index, conductor):
        # internal; use MatrixGroup.generate or MatrixGroup.subgroup
        self._dens = dens  # per element: its positive denominator
        self._nums = nums  # per element: its (d, d, phi) numerators
        self.generator_indices: tuple[int, ...] = generator_indices
        self._steps = steps  # per-generator right-multiplication rows
        # BFS tree: per element (parent, generator), and the elements
        # parents first
        self._parent, self._queue = _tree(steps, identity_index)
        self.identity_index = identity_index
        self.conductor = conductor  # every entry lies in Q(zeta_conductor)
        self.order = len(dens)
        self.dim = nums.shape[1]
        self._powers = {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def generate(cls, generators, cap: int = DEFAULT_CAP) -> "MatrixGroup":
        """The group that the generators generate, each a square
        sequence of rows of values that `cyclo.cyclo` accepts."""
        gens = [[list(map(cyclo, row)) for row in g] for g in generators]
        if not gens:
            raise ValueError("need at least one generator")
        d = len(gens[0])
        if not d or any(len(g) != d or any(len(row) != d for row in g)
                        for g in gens):
            raise ValueError("generators must be square")
        # every product of the generators lies in Q(zeta_n), and the
        # generators are elements, so n is also the group's conductor
        n = conductor_of(v for g in gens for row in g for v in row)
        dens, nums, rmul = _closure(gens, n, cap)
        order = len(dens)
        new_to_old = _canonical_order(dens, nums, d, n)
        old_to_new = np.empty(order, dtype=np.intp)
        old_to_new[new_to_old] = np.arange(order)
        return cls(
            dens=dens[new_to_old],
            nums=nums[new_to_old].reshape(order, d, d, -1),
            generator_indices=tuple(old_to_new[rmul[:, 0]].tolist()),
            steps=old_to_new[rmul][:, new_to_old].tolist(),
            identity_index=int(old_to_new[0]),
            conductor=n,
        )

    def subgroup(self, gens) -> "MatrixGroup":
        """The subgroup generated by the elements of the given indices:
        the orbit of the identity under their rows, in this group's index
        order (canonical for it too, both sorting on printed entries),
        with this group's arrays, relabelled rows and conductor."""
        rows = [self.row(g) for g in gens]
        members = sorted(_orbit(self.identity_index,
                                [row.__getitem__ for row in rows]))
        local = dict(zip(members, range(len(members))))
        return MatrixGroup(
            dens=self._dens[members], nums=self._nums[members],
            generator_indices=tuple(local[g] for g in gens),
            steps=[[local[row[x]] for x in members] for row in rows],
            identity_index=local[self.identity_index],
            conductor=self.conductor,
        )

    # ------------------------------------------------------------------
    # elements

    def arrays(self, indices):
        """(array, den) for the elements of the given indices, as
        `linalg.int_array` gives them: array[k, i, j] holds the phi(n)
        power-basis coefficients of den times entry (i, j) of the k-th,
        over `linalg.over_common_denominator`."""
        indices = list(indices)
        return over_common_denominator(self._nums[indices],
                                       self._dens[indices].tolist())

    def diagonal_indices(self) -> list[int]:
        """The indices of the diagonal elements, in index order."""
        off = ~np.eye(self.dim, dtype=bool)
        return (self._nums[:, off] == 0).all(axis=(1, 2)).nonzero()[0].tolist()

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
        """Per generator g, the row mapping x to the index of g x g^-1.
        g x is read down the BFS tree, parents first: with x = parent(x)
        times a generator s, g x = (g parent(x)) s is one lookup in s's
        row.  Then g^-1's row multiplies on the right."""
        rows = []
        for g in self.generator_indices:
            left = [0] * self.order
            left[self.identity_index] = g
            for x in self._queue[1:]:
                p, gi = self._parent[x]
                left[x] = self._steps[gi][left[p]]
            by_ginv = self.row(self.inverse_index(g))
            rows.append([by_ginv[y] for y in left])
        return rows

    # ------------------------------------------------------------------
    # characters and profiles support

    def class_structure(self) -> ClassStructure:
        return self._class_structure

    @functools.cached_property
    def _class_structure(self) -> ClassStructure:
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

    @functools.cached_property
    def character(self) -> ClassFunction:
        """The trace character: per class, its representative's diagonal
        rows summed, over `linalg.over_common_denominator`, in lowest
        terms.  A trace is an algebraic integer, on the integral power
        basis of Z[zeta_n], so den is 1 whatever the entries' own
        denominators."""
        reps = [c.rep_index for c in self.classes]
        d = range(self.dim)
        diagonal = self._nums[reps][:, d, d]
        diagonal, = _widen(_big(diagonal) * self.dim, diagonal)
        rows, den = over_common_denominator(diagonal.sum(axis=1),
                                            self._dens[reps].tolist())
        g = math.gcd(den, *rows.ravel().tolist())
        return ClassFunction(self.class_structure(), rows // g, den // g,
                             self.conductor)

    def class_profiles(self) -> tuple[EigenProfile, ...]:
        """Eigenvalue profile of each class representative, in class
        order."""
        return self._class_profiles

    @functools.cached_property
    def _class_profiles(self) -> tuple[EigenProfile, ...]:
        return tuple(self.eigen_profile_of(c.rep_index) for c in self.classes)

    def eigen_profile_of(self, i: int) -> EigenProfile:
        """Profile of element i using class data: trace(g^j) is the class
        trace of the j-th power, so no matrix powers are needed.  The
        traces are read mod the first split prime p of lcm(order of g,
        conductor)."""
        powers = self.powers(i)
        n = len(powers)
        p = split_primes(math.lcm(n, self.conductor))[0]
        residues = self.character.residues(p)
        class_of = self._class_of
        return _profile_from_traces(
            n, residues[[class_of[j] for j in powers]], p, self.dim)

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


def _closure(gens, n: int, cap: int):
    """(dens, nums, rmul): the elements that gens (each a list of rows
    of exact values) generate, breadth first from the identity (index
    0), each a denominator and a numerator row on the zeta_n power
    basis, and per generator g the row rmul[g] of the index of e_i * g.  Raises CapExceededError past
    cap elements, and NotFiniteError for a generator of order above
    ORDER_BOUND."""
    d = len(gens[0])
    step = _RightMultiplication(gens, n)
    identity = _identity(d, step.matrix.shape[-1] // d)

    def check_orders():
        # the exact power walk, only where the closure cannot read the
        # orders: raises NotFiniteError when one is unbounded
        for g in gens:
            _check_order(_RightMultiplication([g], n), identity)

    blocks = [identity]  # (dens, nums) of the elements, in index order
    index = {_keys(*identity)[0]: 0}
    found = []  # per level: the index of e_x * g, generator-major
    # each block is one BFS level, the frontier of the next
    for depth, (dens, nums) in enumerate(blocks):
        # words longer than the bound: a generator of order above it, or
        # of infinite order, would show only here, so the exact walk
        # decides
        if depth == ORDER_BOUND + 1:
            check_orders()
        pdens, pnums = _times(dens, nums, step)
        new = len(index)
        ys, fresh = [], []
        for x, key in enumerate(_keys(pdens, pnums)):
            y = index.setdefault(key, new)
            if y == new:
                new += 1
                fresh.append(x)
            ys.append(y)
        if new > cap:
            check_orders()  # NotFiniteError wins over the cap
            raise CapExceededError(
                f"closure exceeded cap {cap}; raise the cap if intended")
        found.append(np.array(ys, dtype=np.intp).reshape(len(gens), -1))
        if fresh:
            blocks.append((pdens[fresh], pnums[fresh]))

    rmul = np.concatenate(found, axis=1)
    for row in rmul.tolist():
        # the generator's order is the length of its row's cycle through
        # the identity; a singular generator's row never returns to it
        k, x = 1, row[0]
        while x and k <= ORDER_BOUND:
            k, x = k + 1, row[x]
        if x or k > ORDER_BOUND:
            raise _unbounded()
    return (np.concatenate([b[0] for b in blocks]),
            np.concatenate([b[1] for b in blocks]), rmul)


def _canonical_order(dens, nums, d: int, n: int):
    """The indices of the elements in canonical order: lexicographic on
    their printed entries, row-major, which is lexicographic on each
    entry's rank among the distinct printed texts."""
    values, codes = exact_values(np.repeat(dens, d * d),
                                 nums.reshape(len(dens) * d * d, -1), n)
    texts = [str(v) for v in values]
    rank = {t: r for r, t in enumerate(sorted(set(texts)))}
    ranks = list(map(rank.__getitem__, texts))
    ranked = list(map(ranks.__getitem__, codes))
    sort_keys = [ranked[i:i + d * d] for i in range(0, len(ranked), d * d)]
    return np.array(sorted(range(len(dens)), key=sort_keys.__getitem__),
                    dtype=np.intp)


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


def _tree(steps, root: int):
    """(parent, queue): per element, (parent index, generator index) in
    the BFS tree of the rows in steps from root, (-1, -1) at root, which
    gives shortest words; and the elements in BFS order, parents
    first."""
    parent = [None] * len(steps[0])
    parent[root] = (-1, -1)
    queue = [root]
    for x in queue:
        for gi, step in enumerate(steps):
            y = step[x]
            if parent[y] is None:
                parent[y] = (x, gi)
                queue.append(y)
    return parent, queue


class _RightMultiplication:
    """Right multiplication by every generator at once on integer arrays.

    An element X is a positive denominator and a numerator row holding
    the phi(n) power-basis coefficients of each entry, row-major.  With
    generator g = num / den, X * g has numerator X_num @ matrix[g] (rows
    reshaped to d x d*phi) and denominator X_den * den: row (k, a),
    column (j, c) of matrix[g] is coefficient c of zeta_n^a * num[k, j].
    `element` holds the generators themselves, as elements, and `big`
    and `den` bound the matrices' coefficients and the denominators."""

    __slots__ = ("dens", "matrix", "big", "den", "element")

    def __init__(self, gens, n: int):
        array, den = int_array(gens, n)
        count, d, _, phi = array.shape
        array, = _widen(den, array)
        # each generator in lowest terms, over its own denominator
        dens, nums = _lowest_terms(np.full(count, den, dtype=array.dtype),
                                   array.reshape(count, -1))
        # coefficient c of zeta^(a + b)
        shift = _pair_table(n)
        dens, nums, shift = _widen(
            max(phi * _big(nums) * _big(shift), _big(dens)), dens, nums, shift)
        self.dens = dens
        self.matrix = np.einsum("gkjb,abc->gkajc",
                                nums.reshape(count, d, d, phi),
                                shift).reshape(count, d * phi, d * phi)
        self.big = _big(self.matrix)
        self.den = _big(dens)
        self.element = dens, nums


def _lowest_terms(dens, nums):
    """Each numerator row and its denominator divided by their gcd; nums
    is divided in place.  A row over denominator 1, or with gcd 1, is in
    lowest terms already: the divisions, the costly part, are skipped
    when every row is."""
    if (dens == 1).all():
        return dens, nums
    g = np.gcd(np.gcd.reduce(nums, axis=1), dens)
    if (g == 1).all():
        return dens, nums
    np.floor_divide(nums, g[:, None], out=nums)
    return dens // g, nums


def _times(dens, nums, step: _RightMultiplication):
    """The products X * g of the elements X = nums[i] / dens[i] with each
    generator g of step, in lowest terms, generator-major: every
    element times the first generator, then times the second, and so
    on, under a bound on every coefficient and denominator
    (`linalg._widen`)."""
    count, width, _ = step.matrix.shape
    dens, nums = _widen(max(_big(nums) * step.big * width,
                            int(dens.max()) * step.den), dens, nums)
    # one matmul per generator, stacked: (count, len(nums) * d, width)
    out = np.matmul(nums.reshape(-1, width), step.matrix)
    return _lowest_terms((step.dens[:, None] * dens).reshape(-1),
                         out.reshape(count * len(nums), -1))


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
        return list(zip(dens.tolist(), _row_bytes(nums)))
    return [_object_key(den, row)
            for den, row in zip(dens.tolist(), nums.tolist())]


def _object_key(den: int, row: list):
    try:
        return den, np.array(row, dtype=np.int64).tobytes()
    except OverflowError:
        return den, tuple(row)


def _unbounded() -> NotFiniteError:
    return NotFiniteError(f"element order exceeds bound {ORDER_BOUND}; "
                          "not a finite group element")


def _check_order(step: _RightMultiplication, identity):
    """Raise NotFiniteError unless some power g^k, k <= ORDER_BOUND, of
    the one generator of step is the identity."""
    power = step.element
    k = 1
    while not (power[0][0] == 1 and np.array_equal(power[1], identity[1])):
        power = _times(*power, step)
        k += 1
        if k > ORDER_BOUND:
            raise _unbounded()


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
