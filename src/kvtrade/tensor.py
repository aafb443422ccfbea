"""Dense float32 matrices and the few linear-algebra ops the engine needs.

Everything downstream (quantization, eviction scoring, the attention-only
model) works on plain 2-D ``numpy.float32`` arrays in row-major order.
Batch size is fixed at 1 throughout. Decode stores and reads a layer's
heads as ``(heads, rows, head_dim)`` stacks: :func:`concat_rows` joins two
stacks, appending to every head at once, and :func:`matmul` takes two
matrices or two equal stacks, a stacked product equal to the 2-D products
head by head, bit for bit.

Arithmetic runs in 32-bit floats. Storage *accounting* elsewhere still
charges 16 bits per full-precision element; keeping the math in float32
means numeric-error analysis stays about quantization, not half-precision
arithmetic.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

# A Matrix is a 2-D float32 ndarray; matmul rejects a product that is not finite.
Matrix = np.ndarray
_FLOAT32 = np.dtype(np.float32)


def as_matrix(m, name: str, ndim: int = 2) -> Matrix:
    """An ``ndim``-D ndarray of numbers as float32 (inf past its range, no warning); else ContractViolation."""
    if not isinstance(m, np.ndarray) or m.ndim != ndim:
        raise ContractViolation(f"{name} must be a {ndim}-D array")
    if m.dtype is _FLOAT32:  # a builtin dtype is a singleton: the cheapest test
        return m
    if m.dtype.kind not in "biuf":  # booleans, integers and floats
        raise ContractViolation(f"{name} must hold numbers, got dtype {m.dtype}")
    with np.errstate(over="ignore"):
        return m.astype(np.float32)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for two matrices (:func:`as_matrix`), or ``a[i] @ b[i]`` for every i
    of two equal stacks, 3-D float32 arrays whose products equal the 2-D ones bit for bit.

    Raises ContractViolation for other operands, on an inner-dimension mismatch,
    or when the product is not finite (an overflow raises, rather than warns).
    Repeated calls on identical inputs are bit-identical within one environment.
    """
    if getattr(a, "ndim", 2) == 3:  # one getattr: the cheapest test that leaves a 2-D product no slower
        _require_stacks(a, b, "matmul")
        if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
            raise ContractViolation(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    else:
        a = as_matrix(a, "a")
        b = as_matrix(b, "b")
        if a.shape[1] != b.shape[0]:
            raise ContractViolation(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = a @ b
    if not np.isfinite(out).all():
        raise ContractViolation("matmul produced non-finite elements")
    return out


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax with per-row max subtraction for stability.

    Each output row sums to 1 within 1e-6; an all-equal row yields the
    uniform distribution. The accumulation runs in float64 and is cast
    back to float32. An entry may be -inf (weight 0, prefill's mask); a row
    whose maximum is not finite (NaN, +inf or all -inf) raises ContractViolation.
    """
    m = as_matrix(m, "m")
    if m.size == 0:
        raise ContractViolation("softmax_rows requires a nonempty matrix")
    x = m.astype(np.float64)
    peaks = x.max(axis=1, keepdims=True)
    if np.count_nonzero(np.isfinite(peaks)) < len(peaks):  # count_nonzero: cheaper than .all() here
        raise ContractViolation("softmax_rows needs a finite maximum in every row")
    x -= peaks
    # in place: one float64 temporary per call, which keeps prefill's blocks
    # reusing freed memory instead of faulting in fresh pages for each
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x.astype(np.float32)


def concat_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack b's rows below a's, head by head: two stacks, 3-D float32 arrays of
    one head count and width, joined along the row axis into a new stack.

    Other operands, or mismatched head counts or widths, raise ContractViolation.
    """
    _require_stacks(a, b, "concat_rows")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ContractViolation(f"concat_rows stack mismatch: {a.shape} vs {b.shape}")
    return np.concatenate((a, b), axis=1)


def _require_stacks(a, b, op: str) -> None:
    """ContractViolation unless ``a`` and ``b`` are both 3-D float32 arrays."""
    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.ndim == b.ndim == 3
            and a.dtype is _FLOAT32 and b.dtype is _FLOAT32):
        raise ContractViolation(f"a stacked {op} takes two 3-D float32 arrays")
