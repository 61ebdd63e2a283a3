"""Exceptions and the JSON integer test shared across the package."""


class InputError(ValueError):
    """Raised when user-supplied data violates a documented precondition."""


class UnsupportedError(RuntimeError):
    """Raised when an operation is outside the supported parameter range."""


class NotAnInvolution(InputError):
    """Raised by lattice.fixed_and_antifixed when its kernel ranks show that
    the isometry is not an involution."""


def is_json_int(x) -> bool:
    """Whether x is a JSON integer: json.load gives bool for true/false, a
    bool subclass of int, and float for any number with a point or exponent."""
    return isinstance(x, int) and not isinstance(x, bool)
