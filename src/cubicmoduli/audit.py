"""Per-group audit pipeline and lattice-wide reports.

check_criterion assembles everything known about one group: the
dimension of its invariant cubics (exact, from the Reynolds average,
and compared with the character count), the commutant dimension (a rank
mod a split prime, certified by the character inner product <chi, chi>),
whether the family of invariant cubics has smooth members, the moduli
dimension when that is settled, the dimension of the special
subvariety, and the verdict of the equality criterion between the two.

Reduction mod p can only lower a rank, so the F_p commutant dimension is
never below the exact one, which is <chi, chi>.  Equality certifies the
value; an excess means p divides a minor of the system, and the next
split prime is tried; a deficit is an inconsistency between the routes.

The moduli dimension formula dim U - dim C is only meaningful when the
family contains a smooth member, so dim_moduli is withheld (None), not
reported as a number, unless non-emptiness is certified.  Emptiness
itself is certified in three ways: an eigenvalue-profile obstruction on
elements of order 2, 4 or 5 (a liftability violation), no invariant
cubics at all, or a variable missing from the whole family (every
member is then a cone).  Non-emptiness is
certified in two ways, and never refuted by them.  A family spanned by
monomials whose torus strata pass `torus_strata_certified` has a smooth
general member: a proof, from the monomials alone, with no prime and no
scan.  Otherwise the random smoothness probe searches for a member with
no F_p-rational singular point: evidence, not a proof.  The report's
provenance names the route (`certificate`: "torus-strata", "scan" or
None when not certified).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import __version__
from .chars import (
    character_of,
    commutant_dimension_from_character,
    det_character,
    dim_invariant_cubics,
    dim_special_subvariety,
)
from .errors import (
    BadPrimeError,
    InconsistencyError,
    NotProjectivelyFaithfulError,
)
from .groups import EigenProfile, MatrixGroup
from .invariants import InvariantSpace, invariant_basis
from .linalg import commutant_dimension, split_primes
from .smoothprobe import (DEFAULT_SEED, DEFAULT_TRIALS, probe_nonempty,
                          reduce_columns, torus_strata_certified)


@dataclass(frozen=True)
class CyclicLocusFlag:
    certified: bool
    reason: str | None = None

    def __str__(self):
        return f"CertifiedYes({self.reason})" if self.certified else "Unknown"


@dataclass(frozen=True)
class NonemptyStatus:
    status: str  # "Certified" | "Inconclusive" | "EmptyCertified"
    reason: str | None = None

    def __str__(self):
        if self.reason:
            return f"{self.status}({self.reason})"
        return self.status


@dataclass(frozen=True)
class AuditReport:
    group_id: str
    order: int
    projectively_faithful: bool
    dim_U: int
    commutant_dim: int
    dim_moduli: int | None
    dim_special: int
    criterion_holds: bool | None
    cyclic_locus: CyclicLocusFlag
    liftability_violations: tuple
    nonempty: NonemptyStatus
    provenance: dict = field(compare=False)

    def as_dict(self) -> dict:
        return {
            "group_id": self.group_id,
            "order": self.order,
            "projectively_faithful": self.projectively_faithful,
            "dim_U": self.dim_U,
            "commutant_dim": self.commutant_dim,
            "dim_moduli": self.dim_moduli,
            "dim_special": self.dim_special,
            "criterion_holds": self.criterion_holds,
            "cyclic_locus": str(self.cyclic_locus),
            "liftability_violations": list(self.liftability_violations),
            "nonempty": str(self.nonempty),
            "provenance": self.provenance,
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def as_text(self) -> str:
        lines = [
            f"group            {self.group_id}",
            f"order            {self.order}",
            f"proj. faithful   {self.projectively_faithful}",
            f"dim U            {self.dim_U}",
            f"commutant dim    {self.commutant_dim}",
            f"dim moduli       "
            f"{'withheld' if self.dim_moduli is None else self.dim_moduli}",
            f"dim special      {self.dim_special}",
            f"criterion        "
            f"{'undetermined' if self.criterion_holds is None else self.criterion_holds}",
            f"cyclic locus     {self.cyclic_locus}",
            f"nonempty         {self.nonempty}",
        ]
        if self.liftability_violations:
            lines.append("liftability:")
            for v in self.liftability_violations:
                lines.append(f"  - {v}")
        else:
            lines.append("liftability      no violations")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# individual checks

_ADMISSIBLE_ORDER2 = ({0: 4, 1: 1}, {0: 3, 1: 2})  # exponents of -1 = zeta_2


def liftability_check(group: MatrixGroup) -> list:
    """Necessary eigenvalue-profile conditions for the family to contain
    a smooth member.  A violation certifies the family has none.

    Order-2 elements must have eigenvalues (-1,1,1,1,1) or
    (-1,-1,1,1,1); order-4 elements must not have (i,1,1,1,1) or
    (-i,1,1,1,1); order-5 elements must have (1, z5, z5^2, z5^3, z5^4).
    """
    violations = []
    for c, prof in zip(group.classes, group.class_profiles()):
        n = c.element_order
        if n not in (2, 4, 5):
            continue
        d = prof.as_dict()
        if n == 2 and d not in _ADMISSIBLE_ORDER2:
            violations.append(
                f"order-2 element (index {c.rep_index}) has profile {prof}; "
                "allowed: one or two eigenvalues -1"
            )
        elif n == 4 and d in ({0: 4, 1: 1}, {0: 4, 3: 1}):
            violations.append(
                f"order-4 element (index {c.rep_index}) has profile {prof}; "
                "(+-i,1,1,1,1) cannot act on a smooth cubic"
            )
        elif n == 5 and d != {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}:
            violations.append(
                f"order-5 element (index {c.rep_index}) has profile {prof}; "
                "must be (1,z,z^2,z^3,z^4)"
            )
    return violations


def _cyclic_witness_profile(prof: EigenProfile) -> bool:
    """True for eigenvalues lambda*(1,1,1,1,w) with w a primitive cube
    root of unity: two distinct eigenvalues, multiplicities 4 and 1,
    ratio of order 3.  The condition is invariant under scaling, which
    is why testing the group elements themselves covers the whole
    scalar saturation."""
    if len(prof.mults) != 2:
        return False
    (k1, m1), (k2, m2) = prof.mults
    if {m1, m2} != {1, 4}:
        return False
    n = prof.order
    diff = (k1 - k2) % n
    return n // math.gcd(n, diff) == 3


def cyclic_locus_flag(group: MatrixGroup,
                      space: InvariantSpace | None = None) -> CyclicLocusFlag:
    """One-sided certificate that the invariant family lies in the locus
    of cyclic cubic threefolds (triple covers of P^3).

    Route one: some element of the scalar saturation <G, zeta_3*id> has
    eigenvalues (1,1,1,1,zeta_3^(+-1)) up to scalar.  Every element of
    the saturation is a scalar multiple of an element of G and the test
    ignores scalars, so scanning G itself is equivalent.  Route two: a
    split variable in the invariant family.  No certificate means
    Unknown, never no.
    """
    for c, prof in zip(group.classes, group.class_profiles()):
        if _cyclic_witness_profile(prof):
            return CyclicLocusFlag(
                True,
                f"element (index {c.rep_index}) has profile {prof}, "
                "a scalar multiple of Diag(zeta3,1,1,1,1)",
            )
    if space is None:
        space = invariant_basis(group)
    split = space.split_variable()
    if split is not None:
        return CyclicLocusFlag(
            True,
            f"x{split} appears only as x{split}^3; members are cyclic "
            f"covers branched along a cubic surface in the other variables",
        )
    return CyclicLocusFlag(False)


def dims_dual_route(group: MatrixGroup):
    """dim U and commutant dim, each checked against the character route.

    Returns (dim U, commutant dim, chi, space, rank primes), the last
    being the split primes tried for the commutant, in order."""
    space = invariant_basis(group)
    chi = character_of(group)
    dim_u_matrix = space.dimension
    dim_u_char = dim_invariant_cubics(chi)
    if dim_u_matrix != dim_u_char:
        raise InconsistencyError(
            f"invariant dimension: averaging says {dim_u_matrix}, "
            f"characters say {dim_u_char}"
        )
    comm_char = commutant_dimension_from_character(chi)
    gens, _ = group.arrays(group.generator_indices)
    primes = []
    for p in split_primes(group.conductor):
        primes.append(p)
        comm_matrix = commutant_dimension(gens, group.conductor, p)
        if comm_matrix == comm_char:
            return dim_u_matrix, comm_matrix, chi, space, primes
        if comm_matrix < comm_char:
            raise InconsistencyError(
                f"commutant dimension: rank mod {p} says {comm_matrix}, "
                f"characters say {comm_char}"
            )
    raise InconsistencyError(
        f"commutant dimension: characters say {comm_char}, but the rank "
        f"mod each of the primes {primes} leaves more"
    )


def check_criterion(group: MatrixGroup, group_id: str = "group",
                    prime: int | None = None, trials: int = DEFAULT_TRIALS,
                    seed: int = DEFAULT_SEED) -> AuditReport:
    faithful = group.is_projectively_faithful()
    if not faithful:
        raise NotProjectivelyFaithfulError(
            f"{group_id}: contains nontrivial scalar matrices; audit the "
            "projective representative instead"
        )

    dim_u, comm, chi, space, rank_primes = dims_dual_route(group)
    dim_z = dim_special_subvariety(chi, det_character(group))
    violations = tuple(liftability_check(group))
    locus = cyclic_locus_flag(group, space)

    probe = certificate = None
    if violations:
        nonempty = NonemptyStatus(
            "EmptyCertified", "liftability violation: " + violations[0]
        )
    elif dim_u == 0:
        nonempty = NonemptyStatus("EmptyCertified", "no invariant cubics")
    elif space.missing_variables():
        missing = ", ".join(f"x{i}" for i in space.missing_variables())
        nonempty = NonemptyStatus(
            "EmptyCertified",
            f"every member is a cone: variable(s) {missing} never occur",
        )
    elif torus_strata_certified(space):
        certificate = "torus-strata"
        nonempty = NonemptyStatus(
            "Certified",
            "torus-strata certificate: the general member is smooth",
        )
    else:
        try:
            probe = probe_nonempty(space, prime=prime, trials=trials,
                                   seed=seed)
        except BadPrimeError as e:
            # only a prime the probe picks may leave it inconclusive
            if prime is not None:
                raise
            nonempty = NonemptyStatus("Inconclusive", f"no usable prime: {e}")
        if probe is not None:
            if probe.certified:
                certificate = "scan"
                nonempty = NonemptyStatus(
                    "Certified",
                    f"smooth member found mod {probe.prime}",
                )
            else:
                reason = (f"no smooth member in {probe.scans} scans of "
                          f"{probe.trials} samples mod {probe.prime}")
                if probe.scan is not None:
                    point = ":".join(map(str, probe.scan.first_singular))
                    reason += f"; last singular point ({point})"
                nonempty = NonemptyStatus("Inconclusive", reason)
    if prime is not None and probe is None:
        # a chosen prime must be usable even where the probe never ran;
        # where it ran, it made the same checks
        reduce_columns(*space.columns, prime)

    if nonempty.status == "Certified":
        dim_moduli = dim_u - comm
        if dim_moduli < 0:
            raise InconsistencyError(
                f"{group_id}: dim U = {dim_u} is below the commutant "
                f"dimension {comm}, so dim M would be negative")
        criterion = dim_moduli == dim_z
    else:
        dim_moduli = None
        criterion = None

    provenance = {
        "version": __version__,
        "seed": seed,
        "trials": trials,
        "prime": probe.prime if probe is not None else prime,
        "rank_primes": rank_primes,
        "space_rank_primes": list(space.rank_primes),
        "certificate": certificate,
        "probe_scans": probe.scans if probe is not None else 0,
        "probe_points": probe.points if probe is not None else 0,
    }
    return AuditReport(
        group_id=group_id,
        order=group.order,
        projectively_faithful=faithful,
        dim_U=dim_u,
        commutant_dim=comm,
        dim_moduli=dim_moduli,
        dim_special=dim_z,
        criterion_holds=criterion,
        cyclic_locus=locus,
        liftability_violations=violations,
        nonempty=nonempty,
        provenance=provenance,
    )


# ----------------------------------------------------------------------
# lattice reports

@dataclass(frozen=True)
class LatticeRow:
    label: str
    order: int
    fingerprint: tuple
    report: AuditReport


def lattice_report(group: MatrixGroup) -> list[LatticeRow]:
    """Audit one representative of every conjugacy class of subgroups
    generated by at most two elements, each restricted from the group's
    tables, in the order of the subgroup scan."""
    rows = []
    for rec in group.subgroups_two_generated():
        sub = (group if rec.order == group.order
               else group.subgroup(rec.generator_indices))
        rows.append(LatticeRow(
            label=rec.label,
            order=rec.order,
            fingerprint=rec.fingerprint,
            report=check_criterion(sub, group_id=rec.label),
        ))
    return rows


def lattice_nodes(rows: list[LatticeRow]) -> dict:
    """Collapse conjugacy classes with the same isomorphism fingerprint
    into one node each, checking that the numbers agree."""
    nodes = {}
    for row in rows:
        key = row.fingerprint
        summary = (row.label, row.order, row.report.dim_moduli,
                   row.report.dim_special, row.report.criterion_holds)
        if key in nodes and nodes[key] != summary:
            raise InconsistencyError(
                f"same subgroup type, different numbers: "
                f"{nodes[key]} vs {summary}"
            )
        nodes[key] = summary
    return nodes


def lattice_csv(rows: list[LatticeRow]) -> str:
    out = ["node,order,type,dim_M,dim_Z,criterion"]
    for i, row in enumerate(rows):
        r = row.report
        dm = "" if r.dim_moduli is None else r.dim_moduli
        crit = "" if r.criterion_holds is None else str(r.criterion_holds).lower()
        out.append(f"{i},{row.order},{row.label},{dm},{r.dim_special},{crit}")
    return "\n".join(out) + "\n"


def lattice_text(rows: list[LatticeRow]) -> str:
    header = f"{'type':<12} {'order':>5} {'dim M':>6} {'dim Z':>6} criterion"
    lines = [header, "-" * len(header)]
    for row in rows:
        r = row.report
        dm = "-" if r.dim_moduli is None else str(r.dim_moduli)
        if r.dim_moduli is None:
            crit = "?"
        elif r.dim_moduli == r.dim_special:
            crit = "="
        elif r.dim_moduli < r.dim_special:
            crit = "<"
        else:
            crit = ">"
        lines.append(
            f"{row.label:<12} {row.order:>5} {dm:>6} {r.dim_special:>6} "
            f"{crit:>9}"
        )
    return "\n".join(lines)
