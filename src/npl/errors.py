"""Shared exception taxonomy.

Every precondition failure in the library raises one of these, so callers
(and the CLI) can map failures to diagnostics uniformly.
"""


class NplError(Exception):
    """Base class for all library errors."""


class FieldMismatch(NplError):
    """Operands live in different prime fields."""


class SpaceMismatch(NplError):
    """A polynomial or vector does not fit the declared polynomial space."""


class ArityMismatch(NplError):
    """Wrong number of inputs for a circuit, substitution, or functional."""


class TermCapExceeded(NplError):
    """A polynomial product grew past the fixed monomial cap."""


class DescriptorInvalid(NplError):
    """A family descriptor fails its class-specific validation."""


class CharacteristicTooSmall(NplError):
    """The field characteristic is too small for the requested operation."""


class OrderOutOfRange(NplError):
    """Derivative order outside [0, deg]."""


class DimensionCapExceeded(NplError):
    """A requested matrix exceeds the configured dimension cap."""


class MinorOutOfRange(NplError):
    """A minor selection does not fit inside the matrix."""


class EnumerationBudgetExceeded(NplError):
    """An exhaustive enumeration would exceed its point budget."""


class ClauseTooWide(NplError):
    """A CNF clause has more than three literals."""
