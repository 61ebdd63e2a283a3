"""Exceptions shared across the package."""


class InputError(ValueError):
    """Raised when user-supplied data violates a documented precondition."""


class UnsupportedError(RuntimeError):
    """Raised when an operation is outside the supported parameter range."""


class NotAnInvolution(InputError):
    """Raised by lattice.fixed_and_antifixed when its kernel ranks show that
    the isometry is not an involution."""
