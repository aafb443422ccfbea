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

# A Matrix is a 2-D float32 ndarray; these helpers keep construction and the
# "finite after every public op" invariant in one place.
Matrix = np.ndarray


def matrix(data) -> Matrix:
    """Build a validated 2-D float32 matrix from nested sequences or an array."""
    m = np.asarray(data, dtype=np.float32)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ContractViolation(f"matrix must be 2-D, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ContractViolation("matrix contains non-finite elements")
    return np.ascontiguousarray(m)


def zeros(rows: int, cols: int) -> Matrix:
    return np.zeros((rows, cols), dtype=np.float32)


def _check(m: Matrix, name: str) -> Matrix:
    if not isinstance(m, np.ndarray) or m.ndim != 2:
        raise ContractViolation(f"{name} must be a 2-D array")
    if m.dtype != np.float32:
        m = m.astype(np.float32)
    return m


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product a @ b.

    Raises ContractViolation on an inner-dimension mismatch. Repeated calls
    on identical inputs are bit-identical within one environment.
    """
    a = _check(a, "a")
    b = _check(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ContractViolation(
            f"matmul dimension mismatch: {a.shape} x {b.shape}"
        )
    out = a @ b
    if out.size and not np.all(np.isfinite(out)):
        raise ContractViolation("matmul produced non-finite elements")
    return out


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax with per-row max subtraction for stability.

    Each output row sums to 1 within 1e-6; an all-equal row yields the
    uniform distribution. The accumulation runs in float64 and is cast
    back to float32.
    """
    m = _check(m, "m")
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
    a = _check(a, "a")
    b = _check(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ContractViolation(
            f"concat_rows column mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return np.concatenate([a, b], axis=0)
