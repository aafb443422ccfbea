"""Group-wise low-bit min-max quantization of K/V matrices.

Supports the two grouping layouts used by KV-cache quantizers: per-token
(groups run along the channel axis inside one token row, FlexGen style) and
per-channel (groups run along the token axis inside one channel column, the
KIVI key layout). Elements whose magnitude exceeds an optional threshold are
kept at full precision in a sparse sidecar instead of being grouped.

Each group of values ``G`` is stored as ``round((G - z) / s)`` with
``z = min(G)``, ``s = (max(G) - min(G)) / (2**bits - 1)``; codes are packed
little-endian at the configured bit width, each group starting on a byte
boundary. Constant groups take ``s = 0`` and all-zero codes, and dequantize
back to ``z`` exactly.

A quantized block (:class:`QuantizedTensor`) holds each code once, in its
packed byte stream, beside three per-group arrays: length, zero point and
scale. Every block operation works on the whole block at once. The
per-group functions (``quantize_group``, ``dequantize_group``,
``pack_codes``, ``unpack_codes``) are the reference the tests compare the
block operations against.

Byte accounting convention (used for every budget-parity figure in the
package): packed code bytes, plus 2 bytes of scale/zero metadata per group,
plus 6 bytes per outlier (4-byte packed position, 2-byte value charge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ContractViolation, IntegrityError
from .tensor import Matrix

SUPPORTED_BITS = (2, 4, 8)

GROUP_METADATA_BYTES = 2
OUTLIER_BYTES = 6


class Layout(str, Enum):
    """Grouping direction for a single matrix."""

    PER_TOKEN = "per_token"
    PER_CHANNEL = "per_channel"


@dataclass(frozen=True)
class QuantConfig:
    bits: int
    group_size: int = 64
    layout: Layout = Layout.PER_TOKEN
    outlier_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.bits not in SUPPORTED_BITS:
            raise ContractViolation(f"bits must be one of {SUPPORTED_BITS}, got {self.bits}")
        if self.group_size < 1:
            raise ContractViolation("group_size must be >= 1")
        if self.outlier_threshold is not None and self.outlier_threshold < 0:
            raise ContractViolation("outlier_threshold must be nonnegative")


@dataclass(frozen=True)
class QuantGroup:
    """One quantized group: integer codes plus its (scale, zero_point) pair."""

    codes: np.ndarray  # uint8, values in [0, 2**bits - 1]
    zero_point: float
    scale: float
    length: int


@dataclass(frozen=True, eq=False)
class QuantizedTensor:
    """A quantized matrix: packed codes, per-group arrays, outlier sidecar.

    Groups are in layout order: run by run, and inside a run in element
    order with outliers skipped. ``lengths``, ``zero_points`` and ``scales``
    hold one entry per group and are read-only, so blocks can be shared.
    ``packed_codes`` holds every code exactly once, one byte-aligned run per
    group. ``outliers`` is sorted by (row, col) and stores exact float32
    values. Construction raises IntegrityError when these parts disagree,
    or when a zero point, scale or outlier value is not finite or a scale
    is negative.
    """

    shape: tuple[int, int]
    bits: int
    group_size: int
    layout: Layout
    lengths: np.ndarray
    zero_points: np.ndarray
    scales: np.ndarray
    packed_codes: bytes
    outliers: tuple[tuple[int, int, float], ...] = field(default=())

    def __post_init__(self) -> None:
        for name, dtype in (("lengths", np.int64), ("zero_points", np.float64), ("scales", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype).reshape(-1)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.bits not in SUPPORTED_BITS:
            raise IntegrityError(f"bits must be one of {SUPPORTED_BITS}, got {self.bits}")
        if not len(self.lengths) == len(self.zero_points) == len(self.scales):
            raise IntegrityError("per-group arrays differ in length")
        if (self.lengths < 1).any():
            raise IntegrityError("every group must hold at least one code")
        finite = np.isfinite(self.zero_points).all() and np.isfinite(self.scales).all()
        if not finite or (self.scales < 0).any():
            raise IntegrityError("zero points and scales must be finite, scales nonnegative")
        rows, cols = self.shape
        total = int(self.lengths.sum()) + len(self.outliers)
        if total != rows * cols:
            raise IntegrityError(f"group lengths + outliers = {total}, expected {rows * cols}")
        if self.outliers:
            pos = np.array([(r, c) for r, c, _ in self.outliers])
            if (pos < 0).any() or (pos >= (rows, cols)).any() or len(np.unique(pos, axis=0)) < len(pos):
                raise IntegrityError("outlier positions must be distinct and inside the shape")
            if not np.isfinite([v for _, _, v in self.outliers]).all():
                raise IntegrityError("outlier values must be finite")
        expected = int(group_byte_length(self.lengths, self.bits).sum())
        if len(self.packed_codes) != expected:
            raise IntegrityError(f"packed stream is {len(self.packed_codes)} bytes, expected {expected}")


def _within(counts: np.ndarray) -> np.ndarray:
    """For segments of the given sizes laid end to end: each element's index in its segment."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _code_slots(lengths: np.ndarray, bits: int) -> tuple[np.ndarray, int]:
    """Map group lengths to code positions in the unpacked byte stream.

    Slot ``i`` is the code at bits ``bits * (i % per_byte)`` of byte
    ``i // per_byte``. Each group starts on a byte boundary, so its first
    slot is ``per_byte`` times the bytes of the groups before it. Returns
    the slot of every code in group order and the stream's length in bytes.
    """
    per_byte = 8 // bits
    nbytes = group_byte_length(lengths, bits)
    first = per_byte * (np.cumsum(nbytes) - nbytes)
    return np.repeat(first, lengths) + _within(lengths), int(nbytes.sum())


def pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Bit-pack one group's codes (see module docstring for the format).

    Little-endian within each byte: the first code lands in the least
    significant bits. The group is padded with zero codes to a byte boundary.
    """
    per_byte = 8 // bits
    codes = np.asarray(codes, dtype=np.uint8).reshape(-1)
    codes = np.concatenate([codes, np.zeros((-codes.size) % per_byte, dtype=np.uint8)])
    shifts = np.arange(per_byte, dtype=np.uint16) * bits
    chunks = codes.reshape(-1, per_byte).astype(np.uint16)
    return (chunks << shifts).sum(axis=1).astype(np.uint8).tobytes()


def unpack_codes(buf: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns exactly ``count`` codes."""
    per_byte = 8 // bits
    need = (count + per_byte - 1) // per_byte
    if len(buf) != need:
        raise IntegrityError(f"packed group is {len(buf)} bytes, expected {need}")
    raw = np.frombuffer(buf, dtype=np.uint8)
    shifts = np.arange(per_byte, dtype=np.uint8) * bits
    mask = (1 << bits) - 1
    codes = (raw[:, None] >> shifts[None, :]) & mask
    return codes.reshape(-1)[:count].astype(np.uint8)


def group_byte_length(length: int, bits: int) -> int:
    return (length * bits + 7) // 8


def quantize_group(values, bits: int) -> QuantGroup:
    """Min-max quantize one group of finite values to ``bits``-bit codes.

    Rounding is half-to-even. A constant group degenerates to scale 0 with
    all codes 0 (the formula would otherwise divide by zero).
    """
    if bits not in SUPPORTED_BITS:
        raise ContractViolation(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ContractViolation("quantize_group requires a nonempty group")
    if not np.all(np.isfinite(v)):
        raise ContractViolation("quantize_group requires finite values")
    z = float(v.min())
    m = float(v.max())
    levels = (1 << bits) - 1
    if m == z:
        return QuantGroup(np.zeros(v.size, dtype=np.uint8), z, 0.0, v.size)
    s = (m - z) / levels
    codes = np.clip(np.rint((v - z) / s), 0, levels).astype(np.uint8)
    return QuantGroup(codes, z, s, v.size)


def dequantize_group(g: QuantGroup) -> np.ndarray:
    """Invert :func:`quantize_group`: ``code * scale + zero_point`` (float64)."""
    if g.scale == 0.0:
        return np.full(g.length, g.zero_point, dtype=np.float64)
    return g.codes.astype(np.float64) * g.scale + g.zero_point


def _runs(m: np.ndarray, layout: Layout) -> np.ndarray:
    """View the matrix so each row of the result is one grouping run."""
    return m if layout == Layout.PER_TOKEN else m.T


def quantize_matrix(m: Matrix, cfg: QuantConfig) -> QuantizedTensor:
    """Quantize a full matrix of finite values under ``cfg``.

    Elements with ``|v| > outlier_threshold`` (when set) move to the sidecar
    first and are excluded from grouping; the survivors in each run compact
    leftward and are chopped into ``group_size`` chunks, the final partial
    chunk quantized as its own shorter group.
    """
    m = np.asarray(m, dtype=np.float32)
    if m.ndim != 2 or m.size == 0:
        raise ContractViolation("quantize_matrix requires a nonempty 2-D matrix")
    if not np.isfinite(m).all():
        raise ContractViolation("quantize_matrix requires finite values")
    if cfg.outlier_threshold is None:
        keep = np.ones(m.shape, dtype=bool)
    else:
        keep = np.abs(m) <= cfg.outlier_threshold
    out_rows, out_cols = np.nonzero(~keep)
    outliers = tuple(zip(out_rows.tolist(), out_cols.tolist(), m[~keep].tolist()))

    kept = _runs(keep, cfg.layout)
    vals = _runs(m.astype(np.float64), cfg.layout)[kept]
    # a group starts at every group_size-th survivor of each run
    starts = np.flatnonzero(_within(kept.sum(axis=1)) % cfg.group_size == 0)
    lengths = np.diff(starts, append=vals.size)
    levels = (1 << cfg.bits) - 1
    z = np.minimum.reduceat(vals, starts)
    s = (np.maximum.reduceat(vals, starts) - z) / levels

    s_each = np.repeat(s, lengths)
    scaled = (vals - np.repeat(z, lengths)) / np.where(s_each > 0, s_each, 1.0)
    codes = np.where(s_each > 0, np.clip(np.rint(scaled), 0, levels), 0)
    per_byte = 8 // cfg.bits
    slots, nbytes = _code_slots(lengths, cfg.bits)
    flat = np.zeros(nbytes * per_byte, dtype=np.uint16)
    flat[slots] = codes
    shifts = np.arange(per_byte, dtype=np.uint16) * cfg.bits
    packed = (flat.reshape(nbytes, per_byte) << shifts).sum(axis=1).astype(np.uint8)

    return QuantizedTensor(
        shape=m.shape,
        bits=cfg.bits,
        group_size=cfg.group_size,
        layout=cfg.layout,
        lengths=lengths,
        zero_points=z,
        scales=s,
        packed_codes=packed.tobytes(),
        outliers=outliers,
    )


def _scatter_runs(values: np.ndarray, q: QuantizedTensor) -> np.ndarray:
    """Place a flat run-ordered value vector back into matrix positions.

    Outlier positions are skipped (left at zero) exactly as quantization
    skipped them when forming groups.
    """
    out = np.zeros(q.shape, dtype=np.float64)
    keep = np.ones(q.shape, dtype=bool)
    for r, c, _ in q.outliers:
        keep[r, c] = False
    _runs(out, q.layout)[_runs(keep, q.layout)] = values
    return out


def dequantize_matrix(q: QuantizedTensor) -> Matrix:
    """Decode a QuantizedTensor back to a float32 matrix.

    All codes are unpacked at once; outliers are written back bit-exactly at
    their original positions.
    """
    per_byte = 8 // q.bits
    raw = np.frombuffer(q.packed_codes, dtype=np.uint8)
    shifts = np.arange(per_byte, dtype=np.uint8) * q.bits
    unpacked = ((raw[:, None] >> shifts) & ((1 << q.bits) - 1)).reshape(-1)
    codes = unpacked[_code_slots(q.lengths, q.bits)[0]]
    s = np.repeat(q.scales, q.lengths)
    z = np.repeat(q.zero_points, q.lengths)
    # a constant group decodes to its zero point exactly, -0.0 included
    values = np.where(s == 0.0, z, codes * s + z)

    result = _scatter_runs(values, q).astype(np.float32)
    for r, c, v in q.outliers:
        result[r, c] = np.float32(v)
    return result


def error_bound_matrix(q: QuantizedTensor) -> np.ndarray:
    """Per-element worst-case |dequantization error|, scale/2 for each group.

    Outlier positions are exact and get bound 0. Returned as float64 with
    the tensor's shape.
    """
    return _scatter_runs(np.repeat(q.scales / 2.0, q.lengths), q)


def quantized_bytes(q: QuantizedTensor) -> int:
    """Accounted storage cost of a quantized tensor in bytes.

    Packed code bytes (byte-aligned per group) + 2 bytes of scale/zero
    metadata per group + 6 bytes per outlier.
    """
    return (
        len(q.packed_codes)
        + GROUP_METADATA_BYTES * len(q.lengths)
        + OUTLIER_BYTES * len(q.outliers)
    )


def payload_bytes(q: QuantizedTensor) -> int:
    """Code and outlier-value bytes only, i.e. the cost with metadata waived."""
    return len(q.packed_codes) + 2 * len(q.outliers)


def quantized_bytes_for_shape(rows: int, cols: int, cfg: QuantConfig) -> int:
    """Byte cost of quantizing a (rows, cols) matrix with no outliers.

    Matches ``quantized_bytes(quantize_matrix(m, cfg))`` for any matrix of
    that shape whose elements all stay under the outlier threshold.
    """
    n_runs, run_len = (rows, cols) if cfg.layout == Layout.PER_TOKEN else (cols, rows)
    n_full, rem = divmod(run_len, cfg.group_size)
    per_run_codes = n_full * group_byte_length(cfg.group_size, cfg.bits)
    per_run_groups = n_full
    if rem:
        per_run_codes += group_byte_length(rem, cfg.bits)
        per_run_groups += 1
    return n_runs * (per_run_codes + GROUP_METADATA_BYTES * per_run_groups)
