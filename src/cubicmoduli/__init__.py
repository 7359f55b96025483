"""Exact invariant theory for cubic threefolds with finite symmetry.

Given a finite group of 5x5 matrices over cyclotomic fields, the package
computes the dimension of the family of invariant cubic forms, the moduli
dimension of that family, the dimension of the associated special
subvariety of the period domain, and decides whether the two agree.
Invariant bases, averaging operators and class traces are exact; the
commutant dimension is a rank mod a large prime, accepted only when it
equals the character inner product <chi, chi>, and the invariant
dimension is the averaging operator's rank mod such a prime, accepted
only when it equals the operator's exact trace.
"""

__version__ = "0.1.0"

from .cyclo import (
    Cyclotomic,
    cyclo,
    cyclotomic_polynomial,
    parse_cyclo,
    root_of_unity,
)
from .errors import (
    BadPrimeError,
    CapExceededError,
    ContractViolationError,
    CubicModuliError,
    GroupMismatchError,
    InconsistencyError,
    NonIntegralCharacterError,
    NotFiniteError,
    NotProjectivelyFaithfulError,
    ParseError,
)
from .linalg import Matrix
from .groups import (
    ConjClass,
    EigenProfile,
    MatrixGroup,
    SubgroupRecord,
    eigen_profile,
    fingerprint_label,
    matrix_order,
)
from .chars import (
    AbstractCharDatum,
    ClassFunction,
    ClassStructure,
    character_of,
    commutant_dimension_from_character,
    det_character,
    dim_invariant_cubics,
    dim_special_subvariety,
    inner_product,
    multiplicity,
    psl2_11_datum,
    sym_cube,
    sym_square,
    trivial_character,
)
from .invariants import (
    CubicForm,
    InvariantSpace,
    act,
    invariant_basis,
    reynolds_operator,
    substitution_matrix,
)
from .smoothprobe import (
    ProbeResult,
    ScanResult,
    choose_prime,
    form_conductor,
    probe_nonempty,
    singular_scan,
)
from .audit import (
    AuditReport,
    CyclicLocusFlag,
    LatticeRow,
    NonemptyStatus,
    check_criterion,
    cyclic_locus_flag,
    dims_dual_route,
    lattice_csv,
    lattice_nodes,
    lattice_report,
    lattice_text,
    liftability_check,
)
from .catalog import CatalogEntry, entry_ids, load, load_entry

__all__ = [
    "Cyclotomic",
    "cyclo",
    "cyclotomic_polynomial",
    "parse_cyclo",
    "root_of_unity",
    "BadPrimeError",
    "CapExceededError",
    "ContractViolationError",
    "CubicModuliError",
    "GroupMismatchError",
    "InconsistencyError",
    "NonIntegralCharacterError",
    "NotFiniteError",
    "NotProjectivelyFaithfulError",
    "ParseError",
    "Matrix",
    "ConjClass",
    "EigenProfile",
    "MatrixGroup",
    "SubgroupRecord",
    "eigen_profile",
    "fingerprint_label",
    "matrix_order",
    "AbstractCharDatum",
    "ClassFunction",
    "ClassStructure",
    "character_of",
    "commutant_dimension_from_character",
    "det_character",
    "dim_invariant_cubics",
    "dim_special_subvariety",
    "inner_product",
    "multiplicity",
    "psl2_11_datum",
    "sym_cube",
    "sym_square",
    "trivial_character",
    "CubicForm",
    "InvariantSpace",
    "act",
    "invariant_basis",
    "reynolds_operator",
    "substitution_matrix",
    "ProbeResult",
    "ScanResult",
    "choose_prime",
    "form_conductor",
    "probe_nonempty",
    "singular_scan",
    "AuditReport",
    "CyclicLocusFlag",
    "LatticeRow",
    "NonemptyStatus",
    "check_criterion",
    "cyclic_locus_flag",
    "dims_dual_route",
    "lattice_csv",
    "lattice_nodes",
    "lattice_report",
    "lattice_text",
    "liftability_check",
    "CatalogEntry",
    "entry_ids",
    "load",
    "load_entry",
    "__version__",
]
