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
packed byte stream, beside two per-group arrays, zero point and scale, and
its outliers as one structured array. How many codes each group holds is
not stored: :func:`group_split` derives it from the block's shape, layout,
group size and outlier positions. Every block operation works on the
whole block at once. A block is immutable, so it is decoded at most once
and keeps the float32 result on itself, read-only, for every
``dequantize_matrix`` call to return. A block that ``quantize_matrix`` makes
carries its decoded form from the start, computed from the codes it has
just made; a block loaded from a snapshot or built from its fields decodes
its packed bytes on first use. The kept form is not storage; byte
accounting and snapshots ignore it. ``pack_codes`` and ``unpack_codes``
pack and unpack a group or a whole block's stream. The per-group
reference that the tests compare the block operations against lives in
the test suite, not here.

Byte accounting convention (used for every budget-parity figure in the
package): packed code bytes, plus 2 bytes of scale/zero metadata per group,
plus 6 bytes per outlier (4-byte packed position, 2-byte value charge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ContractViolation, IntegrityError, is_number, require_int
from .tensor import Matrix, as_matrix

SUPPORTED_BITS = (2, 4, 8)

GROUP_METADATA_BYTES = 2
OUTLIER_BYTES = 6

_FLOAT32_MAX = float(np.finfo(np.float32).max)

# one outlier: its position and its exact float32 value
OUTLIER_DTYPE = np.dtype([("row", "<u4"), ("col", "<u4"), ("value", "<f4")])

# the outliers of a block quantized without a threshold: none, shared
_NO_OUTLIERS = np.empty(0, dtype=OUTLIER_DTYPE)
_NO_OUTLIERS.flags.writeable = False


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
        # the integer check first: 4.0 in SUPPORTED_BITS holds
        if require_int("bits", self.bits, 0) not in SUPPORTED_BITS:
            raise ContractViolation(f"bits must be one of {SUPPORTED_BITS}, got {self.bits}")
        require_int("group_size", self.group_size, 1)
        if not isinstance(self.layout, Layout):
            raise ContractViolation(f"layout must be a Layout member, got {self.layout!r}")
        # written so that NaN fails too
        t = self.outlier_threshold
        if t is not None and not (is_number(t) and t >= 0):
            raise ContractViolation(f"outlier_threshold must be None or a number >= 0, got {t!r}")


@dataclass(frozen=True, eq=False)
class QuantizedTensor:
    """A quantized matrix: packed codes, per-group arrays, outlier sidecar.

    Groups are in layout order: run by run, and inside a run in element
    order with outliers skipped. ``zero_points`` and ``scales`` (one entry
    per group) and ``outliers`` (an :data:`OUTLIER_DTYPE` array sorted by
    position, exact float32 values) are read-only, so blocks can be shared.
    ``packed_codes`` holds every code once, one byte-aligned run per group.
    Construction raises IntegrityError when the group arrays or the packed
    stream disagree with :func:`group_split`, when an outlier is invalid,
    when a zero point or scale is not finite or a scale is negative, or when
    a group's decode range ``[z, z + s * (2**bits - 1)]`` leaves float32.
    """

    shape: tuple[int, int]
    bits: int
    group_size: int
    layout: Layout
    zero_points: np.ndarray
    scales: np.ndarray
    packed_codes: bytes
    outliers: np.ndarray = field(default_factory=list)

    def __post_init__(self) -> None:
        arrays = {"zero_points": np.float64, "scales": np.float64, "outliers": OUTLIER_DTYPE}
        # an outlier value past float32 becomes inf, which group_split rejects
        with np.errstate(over="ignore"):
            for name, dtype in arrays.items():
                try:
                    arr = np.array(getattr(self, name), dtype=dtype).reshape(-1)
                except (OverflowError, TypeError, ValueError) as exc:
                    raise IntegrityError(f"{name} do not convert to {dtype}: {exc}") from exc
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        try:  # the integer check first: 4.0 in SUPPORTED_BITS holds
            bits = require_int("bits", self.bits, 0)
            require_int("group_size", self.group_size, 1)
        except ContractViolation as exc:
            raise IntegrityError(str(exc)) from exc
        if bits not in SUPPORTED_BITS:
            raise IntegrityError(f"bits must be one of {SUPPORTED_BITS}, got {self.bits}")
        groups, nbytes = group_split(self.shape, self.layout, self.group_size, self.bits, self.outliers)
        if not len(self.zero_points) == len(self.scales) == groups:
            raise IntegrityError(f"group arrays do not hold {groups} groups")
        # both ends of the range, not |z| + s * levels: a group spanning
        # -max..+max decodes inside float32 although that sum does not. The
        # comparisons are false for NaN and infinities, so they reject those
        # too; a signaling NaN would also warn in the subtraction.
        z, s = self.zero_points, self.scales
        with np.errstate(invalid="ignore"):
            top = (_FLOAT32_MAX - z) / ((1 << self.bits) - 1)
        if not ((z >= -_FLOAT32_MAX) & (s >= 0) & (s <= top)).all():
            raise IntegrityError("a group's zero or scale is non-finite, negative or past float32")
        if len(self.packed_codes) != nbytes:
            raise IntegrityError(f"packed stream is {len(self.packed_codes)} bytes, expected {nbytes}")

    @cached_property
    def lengths(self) -> np.ndarray:
        """Codes in each group, in group order (read-only); derived, not stored."""
        return _group_lengths(self.shape, self.layout, self.group_size, self.outliers)

    @cached_property
    def _decoded(self) -> Matrix:
        # quantize_matrix sets this from the codes it makes; a block loaded or
        # built from its fields decodes here, on first use, so one that is
        # just dumped or loaded never decodes
        return _decode(self)


def _runs_of(shape: tuple[int, int], layout: Layout, outliers: np.ndarray):
    """(run count, run length, the run of each outlier) of a block."""
    rows, cols = shape
    if layout == Layout.PER_TOKEN:
        return rows, cols, outliers["row"]
    return cols, rows, outliers["col"]


def _split_runs(codes, group_size: int, bits: int):
    """(groups, packed bytes) of a run of ``codes`` codes; elementwise on arrays."""
    full, rem = divmod(codes, group_size)
    nbytes = full * group_byte_length(group_size, bits) + group_byte_length(rem, bits)
    return full + (rem > 0), nbytes


def group_split(shape, layout: Layout, group_size: int, bits: int, outliers) -> tuple[int, int]:
    """Group count and packed byte length of a block: the one rule for both.

    Each run (a row per token, a column per channel) holds its length less
    its outliers in codes: ``group_size`` codes a group, the last group
    shorter, each group packed to whole bytes. Runs without outliers are
    counted with integers. Raises IntegrityError for outliers outside
    ``shape``, not strictly increasing in (row, col), or not finite.
    """
    runs, run_len, hit = _runs_of(shape, layout, outliers)
    groups, nbytes = _split_runs(run_len, group_size, bits)
    if not len(outliers):
        return runs * groups, runs * nbytes
    rows, cols = shape
    row, col = outliers["row"].astype(np.int64), outliers["col"].astype(np.int64)
    if (row >= rows).any() or (col >= cols).any() or (np.diff(row * cols + col) <= 0).any():
        raise IntegrityError("outlier positions must be inside the shape and strictly increasing")
    if not np.isfinite(outliers["value"]).all():
        raise IntegrityError("outlier values must be finite")
    hit, removed = np.unique(hit, return_counts=True)
    hit_groups, hit_bytes = _split_runs(run_len - removed, group_size, bits)
    clean = runs - len(hit)
    return clean * groups + int(hit_groups.sum()), clean * nbytes + int(hit_bytes.sum())


def _group_lengths(shape, layout: Layout, group_size: int, outliers: np.ndarray) -> np.ndarray:
    """Codes in each group of a block, in group order (see :func:`group_split`)."""
    runs, run_len, hit = _runs_of(shape, layout, outliers)
    full, rem = divmod(run_len - np.bincount(hit, minlength=runs), group_size)
    per_run = full + (rem > 0)
    lengths = np.full(int(per_run.sum()), group_size, dtype=np.int64)
    # each run's last group holds its remainder, when there is one
    lengths[(np.cumsum(per_run) - 1)[rem > 0]] = rem[rem > 0]
    lengths.flags.writeable = False
    return lengths


def _code_slots(lengths: np.ndarray, bits: int) -> tuple[np.ndarray, int]:
    """Map group lengths to code positions in the unpacked byte stream.

    Slot ``i`` is the code at bits ``bits * (i % per_byte)`` of byte
    ``i // per_byte``. Each group starts on a byte boundary, so its first
    slot is ``per_byte`` times the bytes of the groups before it. Returns
    the slot of every code in group order and the stream's length in bytes.
    """
    nbytes = group_byte_length(lengths, bits)
    # a code's slot is its index plus its group's first slot less first index
    offset = (8 // bits) * (np.cumsum(nbytes) - nbytes) - (np.cumsum(lengths) - lengths)
    return np.arange(lengths.sum()) + np.repeat(offset, lengths), int(nbytes.sum())


def pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Bit-pack one group's codes, or a block's slots (see the module docstring).

    Little-endian within each byte: the first code lands in the least
    significant bits. The codes are padded with zeros to a byte boundary.
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
    try:
        m = np.asarray(m)
    except ValueError:  # a ragged sequence, such as [[1, 2], [3]]
        raise ContractViolation("quantize_matrix input must hold numbers, got a ragged sequence") from None
    m = as_matrix(m, "quantize_matrix input")
    if m.size == 0:
        raise ContractViolation("quantize_matrix requires a nonempty 2-D matrix")
    if not np.isfinite(m).all():
        raise ContractViolation("quantize_matrix requires finite values")
    if cfg.outlier_threshold is None:
        outliers = _NO_OUTLIERS
        vals = _runs(m, cfg.layout).astype(np.float64, order="C").reshape(-1)
    else:
        keep = np.abs(m) <= cfg.outlier_threshold
        out_rows, out_cols = np.nonzero(~keep)
        outliers = np.empty(out_rows.size, dtype=OUTLIER_DTYPE)
        outliers["row"], outliers["col"], outliers["value"] = out_rows, out_cols, m[out_rows, out_cols]
        vals = _runs(m.astype(np.float64), cfg.layout)[_runs(keep, cfg.layout)]

    lengths = _group_lengths(m.shape, cfg.layout, cfg.group_size, outliers)
    starts = np.cumsum(lengths) - lengths
    levels = (1 << cfg.bits) - 1
    z = np.minimum.reduceat(vals, starts)
    s = (np.maximum.reduceat(vals, starts) - z) / levels

    s_each, z_each = np.repeat(s, lengths), np.repeat(z, lengths)
    scaled = (vals - z_each) / np.where(s_each > 0, s_each, 1.0)
    codes = np.where(s_each > 0, np.clip(np.rint(scaled), 0, levels), 0)
    slots, nbytes = _code_slots(lengths, cfg.bits)
    flat = np.zeros(nbytes * (8 // cfg.bits), dtype=np.uint8)
    flat[slots] = codes

    q = QuantizedTensor(
        shape=m.shape,
        bits=cfg.bits,
        group_size=cfg.group_size,
        layout=cfg.layout,
        zero_points=z,
        scales=s,
        packed_codes=pack_codes(flat, cfg.bits),
        outliers=outliers,
    )
    # the block's decode, from the codes just made rather than their bytes:
    # the cached_property's slot, set as functools sets it
    q.__dict__["_decoded"] = _decoded_matrix(codes, s_each, z_each, q)
    return q


def _scatter_runs(values: np.ndarray, q: QuantizedTensor) -> np.ndarray:
    """Place a flat run-ordered value vector back into matrix positions.

    The result is C-contiguous, of ``values``' dtype. Outlier positions are
    skipped (left at zero) exactly as quantization skipped them when forming
    groups; a block without outliers takes its values by reshape.
    """
    runs, run_len, _ = _runs_of(q.shape, q.layout, q.outliers)
    if not len(q.outliers):
        return np.ascontiguousarray(_runs(values.reshape(runs, run_len), q.layout))
    out = np.zeros(q.shape, dtype=values.dtype)
    keep = np.ones(q.shape, dtype=bool)
    keep[q.outliers["row"], q.outliers["col"]] = False
    _runs(out, q.layout)[_runs(keep, q.layout)] = values
    return out


def dequantize_matrix(q: QuantizedTensor) -> Matrix:
    """Decode a QuantizedTensor back to a float32 matrix.

    Every call returns the block's one decoded array, shared by all callers
    and read-only (copy it to modify): made with the block by
    ``quantize_matrix``, or on the first call for a block loaded or built
    from its fields.
    """
    return q._decoded


def _decoded_matrix(codes: np.ndarray, s: np.ndarray, z: np.ndarray, q: QuantizedTensor) -> Matrix:
    """Block ``q``'s read-only float32 decode from its run-ordered codes and their groups' repeated ``s`` and ``z``."""
    # a constant group decodes to its zero point exactly, -0.0 included
    values = np.where(s == 0.0, z, codes * s + z).astype(np.float32)
    # cast before placing, same bits: the zeros left at outliers and the outliers are float32
    result = _scatter_runs(values, q)
    result[q.outliers["row"], q.outliers["col"]] = q.outliers["value"]
    result.flags.writeable = False
    return result


def _decode(q: QuantizedTensor) -> Matrix:
    """Unpack every code at once and decode the block from its bytes (read-only result)."""
    unpacked = unpack_codes(q.packed_codes, q.bits, len(q.packed_codes) * (8 // q.bits))
    codes = unpacked[_code_slots(q.lengths, q.bits)[0]]
    return _decoded_matrix(codes, np.repeat(q.scales, q.lengths), np.repeat(q.zero_points, q.lengths), q)


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
    metadata = GROUP_METADATA_BYTES * len(q.scales) + OUTLIER_BYTES * len(q.outliers)
    return len(q.packed_codes) + metadata


def payload_bytes(q: QuantizedTensor) -> int:
    """Code and outlier-value bytes only, i.e. the cost with metadata waived."""
    return len(q.packed_codes) + 2 * len(q.outliers)


def quantized_bytes_for_shape(rows: int, cols: int, cfg: QuantConfig) -> int:
    """Byte cost of quantizing a (rows, cols) matrix with no outliers.

    Matches ``quantized_bytes(quantize_matrix(m, cfg))`` for any matrix of
    that shape whose elements all stay under the outlier threshold.
    ``rows`` and ``cols`` must be integers >= 1.
    """
    shape = require_int("rows", rows, 1), require_int("cols", cols, 1)
    groups, nbytes = group_split(shape, cfg.layout, cfg.group_size, cfg.bits, _NO_OUTLIERS)
    return nbytes + GROUP_METADATA_BYTES * groups
