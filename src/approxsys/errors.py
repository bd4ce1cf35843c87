"""Exception types shared across the package, and the argument rules that raise them."""


class ApproxSysError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ApproxSysError):
    """An exact operation was applied outside its domain (e.g. division by zero)."""


class DimensionError(ApproxSysError):
    """Point dimensions do not match the ambient dimension they are used with."""


class FormatError(ApproxSysError):
    """Malformed external input: rational literals, formula files, reports, command lines."""


class SearchTimeout(ApproxSysError):
    """A budgeted search exhausted its step budget before certifying a result.

    By design this outcome is indistinguishable from "the named point lies
    outside the function's domain" and from "the name is invalid": the search
    is only ever budget-bounded.
    """

    def __init__(self, budget: int):
        super().__init__(f"search budget of {budget} steps exhausted")
        self.budget = budget


def at_least(least: int, **args):
    """DomainError "<name> must be at least <least>, got <value>" on the
    first argument below `least`; arguments that are None are unset."""
    for name, value in args.items():
        if value is not None and value < least:
            raise DomainError(f"{name} must be at least {least}, got {value}")


def same_dim(left: str, left_dim: int, right: str, right_dim: int):
    """DimensionError "<left> has dimension <d>, <right> has dimension <e>"
    unless the two dimensions agree: the one matching-dimension rule."""
    if left_dim != right_dim:
        raise DimensionError(f"{left} has dimension {left_dim}, {right} has dimension {right_dim}")


def positive_dim(dim: int) -> int:
    """dim itself; DimensionError unless it is at least 1."""
    if dim < 1:
        raise DimensionError(f"dimension must be at least 1, got {dim}")
    return dim
