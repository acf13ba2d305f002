"""Exception hierarchy shared by all skeintails modules.

The distinctions matter: a ``PrecisionError`` ("not enough computed
coefficients to decide") must never be conflated with a plain ``False``
comparison, and a ``ConsistencyError`` (an exact division left a remainder)
is a bug signal, never a user error.
"""


class SkeinError(Exception):
    """Base class for all skeintails errors."""


class DomainError(SkeinError, ValueError):
    """Arguments outside an operation's stated domain."""


class DivergentProductError(DomainError):
    """Infinite product with a factor that does not tend to 1 (e.g. c <= 0)."""


class RepresentationError(SkeinError, ValueError):
    """A value cannot be represented in the requested form.

    Typical case: a v-Laurent polynomial whose relative exponents are not
    divisible by 4 cannot be viewed as a power series in q = v**4.
    """


class PrecisionError(SkeinError):
    """A comparison was requested beyond the computed order of a series."""


class CapacityError(SkeinError):
    """An input exceeds a fixed size or work limit of the engine."""


class ConsistencyError(SkeinError):
    """An internal exactness assertion failed (non-zero remainder, etc.)."""
