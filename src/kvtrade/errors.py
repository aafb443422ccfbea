"""Exception types shared across the package, and the one check of an integer setting."""

import numpy as np


class ContractViolation(ValueError):
    """An operation was called with arguments that break its contract."""


class IntegrityError(RuntimeError):
    """Stored data is internally inconsistent (e.g. corrupted bit packing)."""


def require_int(name: str, value, minimum: int) -> int:
    """An integer ``value`` (a bool is not one) >= ``minimum``, as an int; else ContractViolation."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ContractViolation(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
