"""Exception types shared across the package, and the one check of an integer setting or index."""

import numpy as np


class ContractViolation(ValueError):
    """An operation was called with arguments that break its contract."""


class IntegrityError(RuntimeError):
    """Stored data is internally inconsistent (e.g. corrupted bit packing)."""


def _is_int(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_int(name: str, value, minimum: int) -> int:
    """An integer ``value`` >= ``minimum``, as an int; else ContractViolation."""
    if not _is_int(value) or value < minimum:
        raise ContractViolation(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_index(name: str, value, size: int) -> int:
    """An integer ``value`` in ``[0, size)``, as an int; else ContractViolation.

    The integer test is :func:`require_int`'s, so ``0.5`` and ``True`` are not indices.
    """
    if type(value) is int and 0 <= value < size:  # decode's case, at a third of the full test's cost
        return value
    if not _is_int(value) or not 0 <= value < size:
        raise ContractViolation(f"{name} {value!r} outside [0, {size}): {name} must be an integer in that range")
    return int(value)
