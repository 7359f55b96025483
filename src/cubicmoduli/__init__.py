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

# the README's library block, and the error the command line catches;
# every other name is imported from its own module
from . import catalog
from .audit import check_criterion
from .errors import CubicModuliError
from .invariants import invariant_basis

__all__ = ["catalog", "check_criterion", "invariant_basis",
           "CubicModuliError", "__version__"]
