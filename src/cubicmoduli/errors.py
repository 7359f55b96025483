"""Exception types shared across the package."""


class CubicModuliError(Exception):
    """Base class for all package errors."""


class NotFiniteError(CubicModuliError):
    """An element has infinite order (or order beyond the configured bound)."""


class CapExceededError(CubicModuliError):
    """Group closure exceeded the element cap."""


class GroupMismatchError(CubicModuliError):
    """Class functions over different class structures were combined."""


class NonIntegralCharacterError(CubicModuliError):
    """A multiplicity that must be a nonnegative integer came out otherwise."""


class NotProjectivelyFaithfulError(CubicModuliError):
    """The group contains nontrivial scalars, so the moduli dimension
    formula does not apply to it as given."""


class BadPrimeError(CubicModuliError):
    """The requested prime cannot host the reduction or the scan."""


class ParseError(CubicModuliError):
    """A catalog file or formula string could not be parsed."""


class ContractViolationError(CubicModuliError):
    """A catalog entry failed its validation contract on load."""


class InconsistencyError(CubicModuliError):
    """Two independent computation routes disagreed; refusing to pick one."""
