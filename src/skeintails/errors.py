"""Exception hierarchy shared by all skeintails modules, and
``read_params``, the one reader of named parameters: every verify check,
named series, graph family and chain parity declares its parameters as
rows it reads.  It lives here because every entry point loads this module.

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


def read_params(name: str, declared: dict, params: dict, as_given=()) -> dict:
    """The parameters of ``name`` read from ``params`` by its rows, before
    anything is built.

    ``declared`` gives each parameter, in read order, as (default, least,
    most), None where there is none.  Each is taken from ``params`` or its
    default (a missing one without a default raises ``KeyError``) and read
    with ``int()``, except the keys in ``as_given``; then each is held to
    its least and most, and a key of ``params`` that ``declared`` does not
    name is refused.
    """
    values = {}
    for key, (default, _, _) in declared.items():
        if key not in params and default is None:
            raise KeyError(key)
        value = params.get(key, default)
        values[key] = value if key in as_given else int(value)
    for key, (_, least, most) in declared.items():
        value = values[key]
        if least is not None and value < least:
            raise DomainError(f"{key} must be >= {least}, got {value}")
        if most is not None and value > most:
            raise CapacityError(f"{key} {value} exceeds limit {most}")
    for key in params:
        if key not in declared:
            raise DomainError(f"unknown parameter {key!r} for {name}")
    return values
