"""Exception types shared across the library."""


class QoptError(Exception):
    """Base class for library-specific failures."""


class DegenerateOverlapError(QoptError, ValueError):
    """The matrix coupling two Hermite families is numerically singular."""


class CausticError(QoptError, ValueError):
    """Propagator requested too close to a focal time (sin arg eps ~ 0)."""


class ResourceLimitError(QoptError, RuntimeError):
    """A requested table would exceed its fixed size cap."""


class NonFiniteError(QoptError, ArithmeticError):
    """A result that must be a finite number overflowed or turned NaN."""


class ConventionError(QoptError, RuntimeError):
    """An internal consistency check failed (signals a convention bug)."""
