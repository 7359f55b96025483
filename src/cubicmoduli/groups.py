"""Finite matrix groups over cyclotomic fields.

Groups are built by breadth-first closure from generators.  Elements are
exact matrices; once the closure is known, a right-multiplication index
table turns products, inverses, orders, conjugacy classes and subgroup
scans into integer lookups, so the expensive matrix arithmetic happens
only once per element.

Elements get a canonical order (lexicographic on the printed entries),
which makes every derived report reproducible across runs and generator
orderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import Cyclotomic, cyclo, root_of_unity
from .errors import CapExceededError, NotFiniteError
from .linalg import Matrix, conductor_of
from .chars import ClassStructure

DEFAULT_CAP = 20000
# an element whose order exceeds this is taken to have infinite order
ORDER_BOUND = 1000
# the largest group order subgroups_two_generated is sized for
SUBGROUP_SCAN_LIMIT = 1000
_TABLE_LIMIT = 4096


@dataclass(frozen=True)
class ConjClass:
    """One conjugacy class: sorted member indices, representative (the
    smallest member), and where powers land."""

    rep_index: int
    members: tuple[int, ...]
    element_order: int
    power_classes: tuple[tuple[int, int], ...]  # ((k, class index), ...)

    @property
    def size(self) -> int:
        return len(self.members)

    def power_class(self, k: int) -> int:
        for kk, ci in self.power_classes:
            if kk == k:
                return ci
        raise KeyError(k)


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


def matrix_order(m: Matrix) -> int:
    power = m
    n = 1
    while not power.is_identity():
        power = power * m
        n += 1
        if n > ORDER_BOUND:
            raise NotFiniteError(f"element order exceeds bound {ORDER_BOUND}; "
                                 "not a finite group element")
    return n


def eigen_profile(m: Matrix) -> EigenProfile:
    """Eigenvalue multiset of a finite-order matrix from the traces of its
    powers: mult(zeta_n^k) = (1/n) * sum_j trace(m^j) zeta_n^(-jk)."""
    n = matrix_order(m)
    traces = []
    power = Matrix.identity(m.rows)
    for _ in range(n):
        traces.append(power.trace())
        power = power * m
    return _profile_from_traces(n, traces, m.rows)


def _profile_from_traces(n: int, traces: list[Cyclotomic], dim: int) -> EigenProfile:
    roots = [root_of_unity(n, k) for k in range(n)]
    mults = []
    total = 0
    for k in range(n):
        acc = cyclo(0)
        for j, t in enumerate(traces):
            if t:
                acc = acc + t * roots[(-j * k) % n]
        value = (acc * Fraction(1, n)).as_rational()
        assert value.denominator == 1 and value >= 0, (
            f"eigenvalue multiplicity came out as {value}"
        )
        if value:
            mults.append((k, int(value)))
            total += int(value)
    assert total == dim, f"profile multiplicities sum to {total}, not {dim}"
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
    def __init__(self, *, elements, generators, rmul, identity_index, conductor):
        # internal; use MatrixGroup.generate
        self.elements: tuple[Matrix, ...] = elements
        self.generators: tuple[Matrix, ...] = generators
        self._rmul = rmul  # list of per-element right-multiplication rows, or None
        self.identity_index = identity_index
        self.conductor = conductor
        self.dim = elements[0].rows
        self._key2idx = {_element_key(m): i for i, m in enumerate(elements)}
        self._orders = None
        self._classes = None
        self._class_of = None
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
        for g in gens:
            matrix_order(g)  # raises NotFiniteError when unbounded

        identity = Matrix.identity(d)
        elements = [identity]
        key2idx = {_element_key(identity): 0}
        parent = [(-1, -1)]  # (parent index, generator index), BFS tree
        rmul_gen = [[] for _ in gens]  # per generator: index of e_i * g
        for rows in rmul_gen:
            rows.append(None)
        head = 0
        while head < len(elements):
            x = elements[head]
            for gi, g in enumerate(gens):
                y = x * g
                key = _element_key(y)
                yi = key2idx.get(key)
                if yi is None:
                    yi = len(elements)
                    if yi >= cap:
                        raise CapExceededError(
                            f"closure exceeded cap {cap}; raise the cap if intended"
                        )
                    elements.append(y)
                    key2idx[key] = yi
                    parent.append((head, gi))
                    for rows in rmul_gen:
                        rows.append(None)
                rmul_gen[gi][head] = yi
            head += 1

        order = len(elements)
        # canonical order: lexicographic on printed entries
        sort_keys = [tuple(str(v) for v in m.data) for m in elements]
        new_to_old = sorted(range(order), key=lambda i: sort_keys[i])
        old_to_new = [0] * order
        for new, old in enumerate(new_to_old):
            old_to_new[old] = new

        rmul = None
        if order <= _TABLE_LIMIT:
            rmul_old = [None] * order
            rmul_old[0] = list(range(order))
            for child in range(1, order):
                p, gi = parent[child]
                base = rmul_old[p]
                row = rmul_gen[gi]
                rmul_old[child] = [row[base[i]] for i in range(order)]
            rmul = [None] * order
            for old_a in range(order):
                src = rmul_old[old_a]
                rmul[old_to_new[old_a]] = [
                    old_to_new[src[new_to_old[j]]] for j in range(order)
                ]

        sorted_elements = tuple(elements[old] for old in new_to_old)
        return cls(
            elements=sorted_elements,
            generators=tuple(gens),
            rmul=rmul,
            identity_index=old_to_new[0],
            conductor=conductor_of(v for m in sorted_elements for v in m.data),
        )

    # ------------------------------------------------------------------
    # index arithmetic

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, m: Matrix):
        return self._key2idx.get(_element_key(m))

    def mult(self, i: int, j: int) -> int:
        if self._rmul is not None:
            return self._rmul[j][i]
        got = self.index(self.elements[i] * self.elements[j])
        assert got is not None
        return got

    def inverse_index(self, i: int) -> int:
        return self._inverse_of(i)

    def element_order(self, i: int) -> int:
        e = self.identity_index
        if i == e:
            return 1
        n = 1
        j = i
        while j != e:
            j = self.mult(j, i)
            n += 1
        return n

    def power_index(self, i: int, k: int) -> int:
        out = self.identity_index
        for _ in range(k):
            out = self.mult(out, i)
        return out

    # ------------------------------------------------------------------
    # conjugacy classes

    @property
    def classes(self) -> tuple[ConjClass, ...]:
        if self._classes is None:
            self._compute_classes()
        return self._classes

    def _compute_classes(self):
        order = self.order
        gen_idx = [self.index(g) for g in self.generators]
        inv_gen = [self._inverse_of(i) for i in gen_idx]
        assigned = [-1] * order
        raw_classes = []
        for start in range(order):
            if assigned[start] >= 0:
                continue
            cid = len(raw_classes)
            orbit = [start]
            assigned[start] = cid
            frontier = [start]
            while frontier:
                nxt = []
                for x in frontier:
                    for gi, g in enumerate(gen_idx):
                        y = self.mult(self.mult(g, x), inv_gen[gi])
                        if assigned[y] < 0:
                            assigned[y] = cid
                            orbit.append(y)
                            nxt.append(y)
                frontier = nxt
            raw_classes.append(tuple(sorted(orbit)))

        infos = []
        for members in raw_classes:
            rep = members[0]
            infos.append((self.element_order(rep), len(members), rep, members))
        order_key = sorted(range(len(infos)), key=lambda c: infos[c][:3])
        relabel = {old: new for new, old in enumerate(order_key)}

        sorted_members = [infos[old][3] for old in order_key]
        class_of = [0] * order
        for new_cid, members in enumerate(sorted_members):
            for x in members:
                class_of[x] = new_cid

        classes = []
        for new_cid, members in enumerate(sorted_members):
            rep = members[0]
            powers = tuple(
                (k, class_of[self.power_index(rep, k)]) for k in (2, 3, 5)
            )
            classes.append(ConjClass(
                rep_index=rep,
                members=members,
                element_order=infos[order_key[new_cid]][0],
                power_classes=powers,
            ))
        self._classes = tuple(classes)
        self._class_of = class_of

    def _inverse_of(self, i: int) -> int:
        e = self.identity_index
        j = i
        prev = e
        while j != e:
            prev, j = j, self.mult(j, i)
        # prev * i = e, and inverses are two-sided in a group
        return prev if i != e else e

    # ------------------------------------------------------------------
    # characters and profiles support

    def class_structure(self) -> ClassStructure:
        cl = self.classes
        return ClassStructure(
            order=self.order,
            sizes=tuple(c.size for c in cl),
            element_orders=tuple(c.element_order for c in cl),
            power_maps=tuple(
                (k, tuple(c.power_class(k) for c in cl)) for k in (2, 3, 5)
            ),
        )

    def class_traces(self) -> tuple[Cyclotomic, ...]:
        if self._class_traces is None:
            self._class_traces = tuple(
                self.elements[c.rep_index].trace() for c in self.classes
            )
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
        n = self.element_order(i)
        traces = []
        by_class = self.class_traces()
        j = self.identity_index
        for _ in range(n):
            traces.append(by_class[self._class_of[j]])
            j = self.mult(j, i)
        return _profile_from_traces(n, traces, self.dim)

    # ------------------------------------------------------------------
    # structural predicates

    def scalar_indices(self) -> list[int]:
        return [i for i, m in enumerate(self.elements) if m.is_scalar()]

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
        assert self.order <= SUBGROUP_SCAN_LIMIT, (
            "subgroup scan sized for small groups")
        assert self._rmul is not None
        e = self.identity_index
        order = self.order

        # distinct cyclic subgroups with one generator each
        cyclic = {}
        for i in range(order):
            powers = [e]
            j = i
            while j != e:
                powers.append(j)
                j = self.mult(j, i)
            cyclic.setdefault(frozenset(powers), i)

        gen_idx = [self.index(g) for g in self.generators]
        inv_gen = [self._inverse_of(i) for i in gen_idx]

        def conj_set(s, gi):
            g, ginv = gen_idx[gi], inv_gen[gi]
            return frozenset(self.mult(self.mult(g, x), ginv) for x in s)

        def conjugacy_orbit(s):
            seen = {s}
            frontier = [s]
            while frontier:
                nxt = []
                for cur in frontier:
                    for gi in range(len(gen_idx)):
                        img = conj_set(cur, gi)
                        if img not in seen:
                            seen.add(img)
                            nxt.append(img)
                frontier = nxt
            return seen

        # one representative cyclic subgroup per conjugacy orbit
        cyclic_reps = []
        placed = set()
        for s in sorted(cyclic, key=lambda s: tuple(sorted(s))):
            if s in placed:
                continue
            orbit = conjugacy_orbit(s)
            placed |= orbit
            cyclic_reps.append(s)

        def closure(seed):
            # right multiplication by the seed reaches every product of
            # seed elements, which is the whole subgroup
            gens_here = [self._rmul[g] for g in seed]
            members = {e}
            frontier = [e]
            while frontier:
                nxt = []
                for x in frontier:
                    for row in gens_here:
                        y = row[x]
                        if y not in members:
                            members.add(y)
                            nxt.append(y)
                frontier = nxt
            return frozenset(members)

        seen_seeds = set()
        subgroups = {}
        for a_set in cyclic_reps:
            a = cyclic[a_set]
            for b_set, b in cyclic.items():
                seed = a_set | b_set
                if seed in seen_seeds:
                    continue
                seen_seeds.add(seed)
                h = closure(seed)
                subgroups.setdefault(h, (a, b))

        # dedupe up to conjugacy, keeping the lexicographically least set
        records = []
        handled = set()
        for h in sorted(subgroups, key=lambda s: (len(s), tuple(sorted(s)))):
            if h in handled:
                continue
            orbit = conjugacy_orbit(h)
            handled |= orbit
            rep = min(orbit, key=lambda s: tuple(sorted(s)))
            gens_pair = subgroups.get(h)
            fp = self._fingerprint(rep)
            records.append(SubgroupRecord(
                element_indices=tuple(sorted(rep)),
                generator_indices=gens_pair,
                fingerprint=fp,
                label=fingerprint_label(fp),
            ))
        records.sort(key=lambda r: (r.order, r.label, r.element_indices))
        return records

    def _fingerprint(self, member_set) -> tuple:
        members = sorted(member_set)
        orders = {}
        for i in members:
            o = self.element_order(i)
            orders[o] = orders.get(o, 0) + 1
        abelian = all(
            self.mult(i, j) == self.mult(j, i)
            for i in members for j in members if i < j
        )
        return (len(members), abelian, tuple(sorted(orders.items())))


def _element_key(m: Matrix):
    return m.data


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
