"""Exception types shared across the package."""


class CycleModError(Exception):
    """Base class for all cyclemod errors."""


class OutOfRange(CycleModError, ValueError):
    """A parameter fell outside its documented domain."""


class NotInvertible(CycleModError, ArithmeticError):
    """Inversion requested for a non-unit (a multiple of 3)."""


class WidthMismatch(CycleModError, ValueError):
    """An entropy token is too narrow to encode the residue."""


class SourceUnavailable(CycleModError, RuntimeError):
    """The requested entropy source cannot be opened on this platform."""
