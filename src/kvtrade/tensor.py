"""Dense float32 matrices and the few linear-algebra ops the engine needs.

Everything downstream (quantization, eviction scoring, the attention-only
model) works on plain 2-D ``numpy.float32`` arrays in row-major order.
Batch size is fixed at 1 throughout, so multi-head state is represented as
explicit per-layer/per-head matrices rather than higher-rank tensors.

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


def as_matrix(m, name: str) -> Matrix:
    """A 2-D ndarray of numbers as float32 (inf past its range, no warning); else ContractViolation."""
    if not isinstance(m, np.ndarray) or m.ndim != 2:
        raise ContractViolation(f"{name} must be a 2-D array")
    if m.dtype is _FLOAT32:  # a builtin dtype is a singleton: the cheapest test
        return m
    if m.dtype.kind not in "biuf":  # booleans, integers and floats
        raise ContractViolation(f"{name} must hold numbers, got dtype {m.dtype}")
    with np.errstate(over="ignore"):
        return m.astype(np.float32)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product a @ b.

    Raises ContractViolation on an inner-dimension mismatch, or when the
    product is not finite (an overflow raises, rather than warns). Repeated
    calls on identical inputs are bit-identical within one environment.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ContractViolation(
            f"matmul dimension mismatch: {a.shape} x {b.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = a @ b
    if not np.isfinite(out).all():
        raise ContractViolation("matmul produced non-finite elements")
    return out


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax with per-row max subtraction for stability.

    Each output row sums to 1 within 1e-6; an all-equal row yields the
    uniform distribution. The accumulation runs in float64 and is cast
    back to float32.
    """
    m = as_matrix(m, "m")
    if m.size == 0:
        raise ContractViolation("softmax_rows requires a nonempty matrix")
    x = m.astype(np.float64)
    x -= x.max(axis=1, keepdims=True)
    # in place: one float64 temporary per call, which keeps prefill's blocks
    # reusing freed memory instead of faulting in fresh pages for each
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x.astype(np.float32)


def concat_rows(a: Matrix, b: Matrix) -> Matrix:
    """Stack b's rows below a's. Column counts must match."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ContractViolation(
            f"concat_rows column mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return np.concatenate([a, b], axis=0)
