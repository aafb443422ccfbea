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
back to ``z`` exactly: a code times ``s = 0`` is a zero, and a zero plus
``z`` is ``z`` for every ``z`` but -0.0 (``+0.0 + -0.0`` is ``+0.0``), so the
decode rewrites only the constant groups whose zero point is -0.0.

A quantized block (:class:`QuantizedTensor`) holds each code once, in its
packed byte stream, beside two per-group arrays, zero point and scale, and
its outliers as one structured array. How many codes each group holds is
not stored: :func:`group_split` derives it from the block's shape, layout,
group size and outlier positions. Every block operation works on the
whole block at once. ``quantize_matrix`` takes a uniform block (no
outliers, every group ``L`` codes long and ``L * bits`` a multiple of 8,
as at every shape the sweeps make) as one ``(groups, L)`` array: each
group's zero point and scale broadcast along its row, and the codes in
run order are already the byte stream. Any other block repeats each
group's zero point and scale per code and places its codes in the stream
through a slot map. Both paths do the same arithmetic per element, so
they give the same bits, and decoding a block from its bytes takes the
same two paths.

A block is checked once, where its fields come from outside the code that
made them. ``QuantizedTensor(...)`` checks every field it is given. A
block that ``quantize_matrix`` makes is valid by construction (its
docstring says why), and ``cache.load_snapshot`` frames each block it
reads with :func:`group_split` and checks a whole layer's group tables
with :func:`check_group_tables`, the rule the constructor applies to one
block; both build their blocks through the one unchecked path, ``_block``.

A block is immutable, so it is decoded at most once and keeps the float32
result on itself, read-only, for every ``dequantize_matrix`` call to
return. A block that ``quantize_matrix`` makes carries its decoded form
from the start, computed from the codes it has just made; a block loaded
from a snapshot or built from its fields decodes its packed bytes on first
use. The kept form is not storage; byte accounting and snapshots ignore
it. ``pack_codes`` and ``unpack_codes`` pack and unpack a group or a whole
block's stream. The per-group reference that the tests compare the block
operations against lives in the test suite, not here.

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
    ``packed_codes`` holds every code once, one byte-aligned run per group,
    as ``bytes``: any other bytes-like value is copied, so no caller can
    write a block's codes.

    Construction checks every field, since they come from outside: it
    raises IntegrityError when ``shape`` is not two integers >= 0, ``bits``
    or ``group_size`` is invalid, ``layout`` is not a Layout member or
    ``packed_codes`` is not bytes-like, when the group arrays or the packed
    stream disagree with :func:`group_split`, when an outlier is invalid,
    or when a zero point or scale breaks :func:`check_group_tables` (not
    finite, a negative scale, or a decode range ``[z, z + s * (2**bits -
    1)]`` that leaves float32). The blocks ``quantize_matrix`` makes and
    ``cache.load_snapshot`` reads are not checked again here (see the
    module docstring).
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
        arrays = {}
        # an outlier value past float32 becomes inf, which group_split rejects
        with np.errstate(over="ignore"):
            for name, dtype in (("zero_points", np.float64), ("scales", np.float64), ("outliers", OUTLIER_DTYPE)):
                try:
                    arrays[name] = np.array(getattr(self, name), dtype=dtype).reshape(-1)
                except (OverflowError, TypeError, ValueError) as exc:
                    raise IntegrityError(f"{name} do not convert to {dtype}: {exc}") from exc
        try:  # the integer check first: 4.0 in SUPPORTED_BITS holds
            bits = require_int("bits", self.bits, 0)
            require_int("group_size", self.group_size, 1)
        except ContractViolation as exc:
            raise IntegrityError(str(exc)) from exc
        if bits not in SUPPORTED_BITS:
            raise IntegrityError(f"bits must be one of {SUPPORTED_BITS}, got {self.bits}")
        try:
            rows, cols = self.shape
            shape = require_int("rows", rows, 0), require_int("cols", cols, 0)
        except (TypeError, ValueError):  # ContractViolation is a ValueError
            raise IntegrityError(f"shape must be two integers >= 0, got {self.shape!r}") from None
        if not isinstance(self.layout, Layout):
            raise IntegrityError(f"layout must be a Layout member, got {self.layout!r}")
        groups, nbytes = group_split(shape, self.layout, self.group_size, bits, arrays["outliers"])
        if not len(arrays["zero_points"]) == len(arrays["scales"]) == groups:
            raise IntegrityError(f"group arrays do not hold {groups} groups")
        check_group_tables(arrays["zero_points"], arrays["scales"], bits)
        try:
            codes = self.packed_codes if type(self.packed_codes) is bytes else bytes(memoryview(self.packed_codes))
        except TypeError:
            raise IntegrityError(f"packed_codes must be bytes-like, got {type(self.packed_codes).__name__}") from None
        if len(codes) != nbytes:
            raise IntegrityError(f"packed stream is {len(codes)} bytes, expected {nbytes}")
        _set_fields(self, shape=shape, packed_codes=codes, **arrays)

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


def check_group_tables(zero_points: np.ndarray, scales: np.ndarray, bits: int) -> None:
    """Raise IntegrityError unless every group decodes inside float32: the one rule for a group table.

    A group decodes into ``[z, z + s * (2**bits - 1)]``, so the rule is
    ``z >= -max``, ``s >= 0`` and ``s <= (max - z) / (2**bits - 1)`` with
    ``max`` float32's largest value: both ends of the range, not
    ``|z| + s * levels``, since a group spanning -max..+max decodes inside
    float32 although that sum does not. The comparisons are false for NaN
    and infinities, so they reject those too, and they run with numpy's
    invalid-value warning off, so a signaling NaN is rejected, not warned
    about. ``zero_points`` and ``scales`` are float64 arrays of one shape:
    one block's, or every block's of a snapshot layer joined.
    """
    z, s = zero_points, scales
    with np.errstate(invalid="ignore"):
        ok = (z >= -_FLOAT32_MAX) & (s >= 0) & (s <= (_FLOAT32_MAX - z) / ((1 << bits) - 1))
    if not ok.all():
        raise IntegrityError("a group's zero or scale is non-finite, negative or past float32")


def _set_fields(q: QuantizedTensor, **fields) -> QuantizedTensor:
    """Set every field of block ``q``: the one place that knows what a block holds.

    ``zero_points`` and ``scales`` are float64 arrays and ``outliers`` an
    :data:`OUTLIER_DTYPE` array, each one-dimensional; they are made
    read-only here, and an outlier-free block shares :data:`_NO_OUTLIERS`.
    """
    for name in ("zero_points", "scales", "outliers"):
        fields[name].flags.writeable = False
    if not len(fields["outliers"]):
        fields["outliers"] = _NO_OUTLIERS
    vars(q).update(fields)  # a frozen dataclass: past its __setattr__
    return q


def _block(shape, bits, group_size, layout, zero_points, scales, packed_codes, outliers) -> QuantizedTensor:
    """A block from fields known good (see the module docstring), without :class:`QuantizedTensor`'s checks:
    ``shape`` two ints >= 0, ``bits``, ``group_size`` and ``layout`` valid, and
    ``packed_codes`` bytes and group arrays of the sizes :func:`group_split` gives."""
    return _set_fields(object.__new__(QuantizedTensor), shape=shape, bits=bits, group_size=group_size,
                       layout=layout, zero_points=zero_points, scales=scales, packed_codes=packed_codes,
                       outliers=outliers)


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
    """Bit-pack one group's codes, or a block's byte stream (see the module docstring).

    A block's stream is its codes placed at their slots, or, for a uniform
    block, its codes in run order, since each group fills whole bytes there.

    Little-endian within each byte: the first code lands in the least
    significant bits. The codes are padded with zeros to a byte boundary.
    Each byte is the OR of its codes shifted in ``uint8``: no two codes of
    a byte share a bit, so nothing carries.
    """
    per_byte = 8 // bits
    codes = np.asarray(codes, dtype=np.uint8).reshape(-1)
    if codes.size % per_byte:
        codes = np.concatenate([codes, np.zeros((-codes.size) % per_byte, dtype=np.uint8)])
    chunks = codes.reshape(-1, per_byte)
    packed = chunks[:, 0].copy()
    for i in range(1, per_byte):
        packed |= chunks[:, i] << (i * bits)
    return packed.tobytes()


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


def _uniform_length(shape, layout: Layout, group_size: int, bits: int, outliers: np.ndarray) -> int:
    """``L`` when the block is uniform, else 0.

    A uniform block has no outliers, and every group holds ``L`` codes that
    fill whole bytes: the run length is a multiple of ``L``, the group size
    or the whole run when that is shorter, and ``L * bits`` of 8.
    """
    _, run_len, _ = _runs_of(shape, layout, outliers)
    length = min(group_size, run_len)
    if len(outliers) or not length or run_len % length or length * bits % 8:
        return 0
    return length


def _runs(m: np.ndarray, layout: Layout) -> np.ndarray:
    """View the matrix so each row of the result is one grouping run."""
    return m if layout == Layout.PER_TOKEN else m.T


def quantize_matrix(m: Matrix, cfg: QuantConfig) -> QuantizedTensor:
    """Quantize a full matrix of finite values under ``cfg``.

    Elements with ``|v| > outlier_threshold`` (when set) move to the sidecar
    first and are excluded from grouping; the survivors in each run compact
    leftward and are chopped into ``group_size`` chunks, the final partial
    chunk quantized as its own shorter group. A ``cfg`` that is not a
    QuantConfig raises ContractViolation.

    The block is valid by construction, so it is built without
    :class:`QuantizedTensor`'s checks: its shape, bit width, group size and
    layout come from the checked matrix and ``cfg``; its group arrays and
    packed stream are sized by the same split as :func:`group_split`; its
    outliers are finite (the matrix is), inside the shape and in order.
    Each group's ``z`` is the least of finite float32 values, so
    ``z >= -max``; ``s = (max(G) - z) / levels >= 0``; and since
    ``max(G) <= max`` and rounding is monotone, ``s`` never passes
    ``(max - z) / levels``, which is :func:`check_group_tables`' rule.
    """
    if not isinstance(cfg, QuantConfig):
        raise ContractViolation(f"cfg must be a QuantConfig, got {type(cfg).__name__}")
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

    levels = (1 << cfg.bits) - 1
    length = _uniform_length(m.shape, cfg.layout, cfg.group_size, cfg.bits, outliers)
    if length:
        # every group holds `length` codes that fill whole bytes, so the
        # groups are the rows of one array, each group's scale and zero point
        # broadcast along its row, and the codes are the byte stream's slots
        starts = np.arange(0, vals.size, length)
        codes = vals.reshape(-1, length)

        def each(a):
            return a[:, None]
    else:
        lengths = _group_lengths(m.shape, cfg.layout, cfg.group_size, outliers)
        starts = np.cumsum(lengths) - lengths
        codes = vals

        def each(a):
            return np.repeat(a, lengths)
    z = np.minimum.reduceat(vals, starts)
    s = (np.maximum.reduceat(vals, starts) - z) / levels
    s_each, z_each = each(s), each(z)
    # in place, in this call's own copy of the values: a constant group's
    # values less z are zeros, so its codes are too
    codes -= z_each
    codes /= np.where(s_each > 0, s_each, 1.0)
    np.rint(codes, out=codes)
    np.maximum(codes, 0, out=codes)
    np.minimum(codes, levels, out=codes)
    stream = codes
    if not length:
        slots, nbytes = _code_slots(lengths, cfg.bits)
        stream = np.zeros(nbytes * (8 // cfg.bits), dtype=np.uint8)
        stream[slots] = codes

    q = _block(m.shape, cfg.bits, cfg.group_size, cfg.layout, z, s, pack_codes(stream, cfg.bits), outliers)
    # the block's decode, from the codes just made rather than their bytes:
    # the cached_property's slot, set as functools sets it
    q.__dict__["_decoded"] = _decoded_matrix(codes, s_each, z_each, q)
    return q


def _scatter_runs(values: np.ndarray, q: QuantizedTensor) -> np.ndarray:
    """Place run-ordered values (flat, or one row per group) back into matrix positions.

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
    """Block ``q``'s read-only float32 decode from its run-ordered codes and their groups' ``s`` and ``z``.

    ``s`` and ``z`` hold one entry per code (repeated per group), or one per
    row of a ``(groups, L)`` ``codes`` (shape ``(groups, 1)``).
    """
    values = codes * s
    values += z
    # a constant group decodes to code * 0 + z, which is z exactly unless z
    # is -0.0 (+0.0 + -0.0 is +0.0): only those groups are rewritten
    neg_zero = np.signbit(z) & (z == 0.0)
    if neg_zero.any():
        fix = (neg_zero & (s == 0.0)).reshape(-1)
        values.reshape(fix.size, -1)[fix] = -0.0
    values = values.astype(np.float32)
    # cast before placing, same bits: the zeros left at outliers and the outliers are float32
    result = _scatter_runs(values, q)
    if len(q.outliers):
        result[q.outliers["row"], q.outliers["col"]] = q.outliers["value"]
    result.flags.writeable = False
    return result


def _decode(q: QuantizedTensor) -> Matrix:
    """Unpack every code at once and decode the block from its bytes (read-only result).

    A uniform block's byte stream is its codes in run order, one row of
    ``L`` per group, as :func:`quantize_matrix` makes them; any other block
    takes its codes from their slots and repeats each group's zero point and
    scale per code.
    """
    unpacked = unpack_codes(q.packed_codes, q.bits, len(q.packed_codes) * (8 // q.bits))
    length = _uniform_length(q.shape, q.layout, q.group_size, q.bits, q.outliers)
    if length:
        return _decoded_matrix(unpacked.reshape(-1, length), q.scales[:, None], q.zero_points[:, None], q)
    codes = unpacked[_code_slots(q.lengths, q.bits)[0]]
    return _decoded_matrix(codes, np.repeat(q.scales, q.lengths), np.repeat(q.zero_points, q.lengths), q)


def quantized_bytes(q: QuantizedTensor) -> int:
    """Accounted storage cost of a quantized tensor in bytes.

    Packed code bytes (byte-aligned per group) + 2 bytes of scale/zero
    metadata per group + 6 bytes per outlier. A ``q`` that is not a
    QuantizedTensor raises ContractViolation.
    """
    if not isinstance(q, QuantizedTensor):
        raise ContractViolation(f"q must be a QuantizedTensor, got {type(q).__name__}")
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
