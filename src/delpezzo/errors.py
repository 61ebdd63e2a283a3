"""Exceptions and the JSON integer tests shared across the package."""


class InputError(ValueError):
    """Raised when user-supplied data violates a documented precondition."""


class UnsupportedError(RuntimeError):
    """Raised when an operation is outside the supported parameter range."""


def is_json_int(x) -> bool:
    """Whether x is a JSON integer: json.load gives bool for true/false, a
    bool subclass of int, and float for any number with a point or exponent."""
    return isinstance(x, int) and not isinstance(x, bool)


def all_json_ints(values) -> bool:
    """Whether every one of values is a JSON integer (is_json_int).  One
    pass collects the types; only when some type other than int appears
    (an int subclass, which bool is, or anything else) is each value
    tested on its own."""
    values = tuple(values)
    return set(map(type, values)) <= {int} or all(map(is_json_int, values))
