"""Exception types shared across the package, the one check of an integer setting or index,
the one check of an argument's kind, and the test of a real-valued setting.

Every public callable checks each argument's kind where it first reads it (:func:`require_type`),
so one of another kind raises ContractViolation naming it; docstrings do not repeat that rule.
"""

import os
from enum import Enum

import numpy as np


class ContractViolation(ValueError):
    """An operation was called with arguments that break its contract."""


class IntegrityError(RuntimeError):
    """Stored data is internally inconsistent (e.g. corrupted bit packing)."""


def _is_int(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A Python or numpy real number; a bool is not one."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _got(value) -> str:
    """``value`` as a message shows it: its repr, or its type's name for a long repr (an array, a cache)."""
    got = repr(value)
    return type(value).__name__ if len(got) > 40 or "\n" in got else got


def require_int(name: str, value, minimum: int) -> int:
    """An integer ``value`` >= ``minimum``, as an int; else ContractViolation."""
    if not _is_int(value) or value < minimum:
        raise ContractViolation(f"{name} must be an integer >= {minimum}, got {_got(value)}")
    return int(value)


def require_index(name: str, value, size: int) -> int:
    """An integer ``value`` in ``[0, size)``, as an int; else ContractViolation.

    The integer test is :func:`require_int`'s, so ``0.5`` and ``True`` are not indices.
    """
    if type(value) is int and 0 <= value < size:  # decode's case, at a third of the full test's cost
        return value
    if not _is_int(value) or not 0 <= value < size:
        raise ContractViolation(f"{name} {_got(value)} outside [0, {size}): {name} must be an integer in that range")
    return int(value)


def _wrong_kind(name: str, what: str, value) -> ContractViolation:
    """The one wrong-kind message: ``{name} must be {what}, got {value}`` (:func:`_got`)."""
    return ContractViolation(f"{name} must be {what}, got {_got(value)}")


def require_type(name: str, value, kinds, what: str | None = None):
    """``value`` when it is an instance of ``kinds`` (a type or a tuple of types); else ContractViolation,
    saying it must be ``what`` (by default the kinds' names, "a Layout member" for an enum)."""
    if isinstance(value, kinds):
        return value
    names = ("None" if kind is type(None) else f"a {kind.__name__}" + " member" * issubclass(kind, Enum)
             for kind in (kinds if isinstance(kinds, tuple) else (kinds,)))
    raise _wrong_kind(name, what or " or ".join(names), value)


def require_items(name: str, items, kinds, what: str | None = None) -> tuple:
    """``items`` as a tuple when it is a list or tuple of ``kinds`` instances; else :func:`require_type`'s error."""
    if isinstance(items, (list, tuple)) and all(isinstance(item, kinds) for item in items):
        return tuple(items)
    raise _wrong_kind(name, what or f"a sequence of {kinds.__name__}", items)


def require_path(name: str, value):
    """A ``str`` or ``os.PathLike`` path; else ContractViolation (``open()`` would take an int for a descriptor)."""
    return require_type(name, value, (str, os.PathLike), "a path")
