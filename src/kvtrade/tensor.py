"""Dense float32 matrices and the few linear-algebra ops the engine needs.

Everything downstream (quantization, eviction scoring, the attention-only
model) works on plain 2-D ``numpy.float32`` arrays in row-major order.
Batch size is fixed at 1 throughout. Decode stores and reads a layer's
heads as ``(heads, rows, head_dim)`` stacks, which :func:`concat_rows`
joins, appending to every head at once; :func:`matmul` takes two matrices.

Every product the engine makes ends in one check, :func:`require_finite`:
:func:`matmul` checks its operands at each call, enters the error state
that lets an overflow through silently and checks its result; a caller
whose operands were checked once at its boundary, as a decode step's are,
enters that error state once and makes bare ``@`` products through the same
result check. Prefill's head workers do the same, each entering the error
state itself (numpy keeps it per thread), and softmax through
:func:`softmax_rows_into`, which writes into a caller's buffers with the
steps of :func:`softmax_rows`; neither calls a name a single-threaded
profiler may rebind. :func:`blas_threads` reads the thread count of numpy's
bundled OpenBLAS (the library is looked up once per process), which
decides whether prefill holds a pool of head workers at all.

Arithmetic runs in 32-bit floats. Storage *accounting* elsewhere still
charges 16 bits per full-precision element; keeping the math in float32
means numeric-error analysis stays about quantization, not half-precision
arithmetic.
"""

from __future__ import annotations

import functools

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


def as_row(value, width: int, name: str) -> Matrix:
    """``value`` shaped ``(width,)`` or ``(1, width)``, as a ``(1, width)`` matrix
    (:func:`as_matrix`); a ragged sequence or another shape raises ContractViolation."""
    try:
        row = np.asarray(value)
    except ValueError:  # a ragged row, such as [1, [2], 3, 4]
        raise ContractViolation(f"{name} must hold numbers, got a ragged sequence") from None
    if row.shape == (width,):
        row = row.reshape(1, width)
    elif row.shape != (1, width):  # a (1, width) row, decode's, is taken as it is: no view
        raise ContractViolation(f"{name} must be shaped ({width},) or (1, {width}), got {row.shape}")
    return as_matrix(row, name)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for two matrices (:func:`as_matrix`).

    Raises ContractViolation for other operands, on an inner-dimension mismatch,
    or when the product is not finite (an overflow raises, rather than warns).
    Repeated calls on identical inputs are bit-identical within one environment.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ContractViolation(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(a @ b, "matmul")


def require_finite(out: np.ndarray, op: str) -> np.ndarray:
    """``out`` itself, a product ``op`` made; ContractViolation naming ``op`` unless every element is finite."""
    # count_nonzero, not .all(): about 0.4 us cheaper on decode's one-row products
    if np.count_nonzero(np.isfinite(out)) < out.size:
        raise ContractViolation(f"{op} produced non-finite elements")
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
    _normalise_rows(x)
    return x.astype(np.float32)


def softmax_rows_into(m: Matrix, out: Matrix, work: np.ndarray) -> None:
    """:func:`softmax_rows` of ``m``, a nonempty float32 matrix, written into ``out``,
    a float32 array of its shape, through ``work``, a C-contiguous float64 array of
    its shape: the same steps, bit for bit, with no temporary of ``m``'s size.
    """
    np.copyto(work, m)
    _normalise_rows(work)
    np.copyto(out, work)


def _normalise_rows(x: np.ndarray) -> None:
    """The softmax of every row of ``x``, a C-contiguous float64 matrix, in place;
    ContractViolation unless every row's maximum is finite."""
    # the ufuncs ndarray.max and ndarray.sum reduce with, called without their wrappers
    peaks = np.maximum.reduce(x, axis=1, keepdims=True)
    if np.count_nonzero(np.isfinite(peaks)) < len(peaks):  # count_nonzero: cheaper than .all() here
        raise ContractViolation("softmax_rows needs a finite maximum in every row")
    x -= peaks
    # in place: no temporary of x's size, which keeps memory reused instead
    # of faulting in fresh pages at each call
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=1, keepdims=True)


def blas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS runs a product on now, or None
    where there is no such library (a numpy built against another BLAS)."""
    getter = _openblas_thread_getter()
    return None if getter is None else getter()


@functools.cache
def _openblas_thread_getter():
    """The thread-count getter under ``numpy.libs/*openblas*``, or None; looked up at the first call."""
    # imported here: importing kvtrade loads no more modules
    import ctypes
    from pathlib import Path

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter
    return None


def concat_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack b's rows below a's, head by head: two stacks, 3-D float32 arrays of
    one head count and width, joined along the row axis into a new stack.

    Other operands, or mismatched head counts or widths, raise ContractViolation.
    """
    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.ndim == b.ndim == 3
            and a.dtype is _FLOAT32 and b.dtype is _FLOAT32):
        raise ContractViolation("concat_rows takes two 3-D float32 arrays")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ContractViolation(f"concat_rows stack mismatch: {a.shape} vs {b.shape}")
    return np.concatenate((a, b), axis=1)
