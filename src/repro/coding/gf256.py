"""Arithmetic over the finite field GF(2^8).

The field is realised as polynomials over GF(2) modulo the AES polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11B). Multiplication and division go through
discrete log/antilog tables built once at import time from the generator
``0x03``, which is primitive for this modulus.

Three interfaces are provided:

* scalar helpers (:func:`gf_mul`, :func:`gf_div`, :func:`gf_inv`,
  :func:`gf_pow`) operating on Python ints in ``range(256)``;
* vectorised helpers (:func:`gf_mul_bytes`, :func:`gf_addmul_bytes`)
  operating on ``numpy`` ``uint8`` arrays;
* the batch engine (:func:`gf_matmul`), a full GF(2^8) matrix product
  backed by a precomputed 256 x 256 multiplication table (64 KB), which
  turns whole-codeword and batched encodes/decodes into a handful of
  table gathers. This is the hot path under every coding scheme; its
  one kernel packs nibble-composed lookup tables up to 16 output rows
  wide, each lane as wide as its row group (see the kernel's section
  comment).

Addition in GF(2^8) is XOR; no helper is needed beyond ``^`` /
``np.bitwise_xor``.
"""

from __future__ import annotations

import numpy as np

from repro.coding.lru import LRUCache
from repro.errors import ParameterError

#: The field modulus: x^8 + x^4 + x^3 + x + 1.
MODULUS = 0x11B

#: Generator used to build the log/antilog tables (primitive for 0x11B).
GENERATOR = 0x03

#: Field order.
ORDER = 256


def _mul_no_table(a: int, b: int) -> int:
    """Russian-peasant multiplication in GF(2^8), used only to seed tables."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= MODULUS
        b >>= 1
    return result


def _build_tables() -> tuple[list[int], list[int]]:
    """Build antilog (exp) and log tables for the field.

    ``exp[i] = GENERATOR ** i`` for ``i`` in ``range(255)``, extended to 510
    entries so sums/differences of logs never need an explicit ``% 255``.
    ``log[exp[i]] = i``; ``log[0]`` is a sentinel (callers guard zero).
    """
    exp = [0] * 510
    log = [0] * 256
    value = 1
    for exponent in range(255):
        exp[exponent] = value
        log[value] = exponent
        value = _mul_no_table(value, GENERATOR)
    if value != 1:
        raise AssertionError("generator 0x03 must have order 255")
    for exponent in range(255, 510):
        exp[exponent] = exp[exponent - 255]
    return exp, log


_EXP, _LOG = _build_tables()

#: Numpy copies of the tables for the vectorised helpers.
_EXP_NP = np.array(_EXP, dtype=np.uint8)
_LOG_NP = np.array(_LOG, dtype=np.int32)


def _build_mul_table() -> np.ndarray:
    """Build the full 256 x 256 multiplication table ``T[a, b] = a * b``.

    64 KB of uint8; row/column 0 stay zero. One gather in this table
    replaces the log-add-antilog dance (two gathers, an int32 add, and a
    zero mask) per multiplied element, and is what :func:`gf_matmul` rides.
    """
    table = np.zeros((ORDER, ORDER), dtype=np.uint8)
    logs = _LOG_NP[1:]  # log of 1..255
    table[1:, 1:] = _EXP_NP[logs[:, None] + logs[None, :]]
    return table


#: Full product table: ``_MUL_TABLE[a, b] == gf_mul(a, b)``.
_MUL_TABLE = _build_mul_table()

#: Default column-tile width for :func:`gf_matmul`. The kernel's working set
#: per inner step is ``2 * lane + 1`` bytes/column (lane-wide packed
#: accumulator and gather scratch, 1 source byte) plus the 8-byte ``intp``
#: index, so 16 Ki columns keep the streaming set at 656 KiB for 16-byte
#: lanes and 272 KiB for the 4-byte lanes of a 4-row group. Without tiling,
#: a batch-stacked operand (batch x shard bytes columns) falls out of L2
#: around batch 16-32 and throughput drops ~30% (see ROADMAP's perf
#: trajectory).
TILE_COLUMNS = 1 << 14


def _require_uint8(array: np.ndarray, name: str) -> np.ndarray:
    """Validate a GF(2^8) operand, returning it as an ndarray view.

    Accepts read-only and non-contiguous arrays (all consumers gather from
    tables and never write into their inputs). Rejects non-arrays and
    non-``uint8`` dtypes with :class:`ParameterError` — silently accepting a
    wider dtype would index outside the 256-entry tables or wrap values.
    """
    if not isinstance(array, np.ndarray):
        raise ParameterError(
            f"{name} must be a numpy array, got {type(array).__name__}"
        )
    if array.dtype != np.uint8:
        raise ParameterError(f"{name} must have dtype uint8, got {array.dtype}")
    return array


def _check_scalar(scalar: int) -> None:
    if not 0 <= scalar < ORDER:
        raise ParameterError(f"GF(2^8) scalar {scalar} outside range(256)")


def gf_add(a: int, b: int) -> int:
    """Return ``a + b`` in GF(2^8) (which is XOR)."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Return ``a * b`` in GF(2^8)."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_pow(a: int, exponent: int) -> int:
    """Return ``a ** exponent`` in GF(2^8) for ``exponent >= 0``."""
    if exponent < 0:
        raise ParameterError("negative exponent; use gf_inv then gf_pow")
    if exponent == 0:
        return 1
    if a == 0:
        return 0
    return _EXP[(_LOG[a] * exponent) % 255]


def gf_inv(a: int) -> int:
    """Return the multiplicative inverse of ``a`` in GF(2^8).

    Raises :class:`ZeroDivisionError` for ``a == 0``.
    """
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    return _EXP[255 - _LOG[a]]


def gf_div(a: int, b: int) -> int:
    """Return ``a / b`` in GF(2^8). Raises ``ZeroDivisionError`` if b == 0."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return _EXP[_LOG[a] - _LOG[b] + 255]


def gf_mul_bytes(scalar: int, data: np.ndarray) -> np.ndarray:
    """Return ``scalar * data`` element-wise over GF(2^8).

    ``data`` must be a ``uint8`` array; read-only and non-contiguous views
    (for example ``np.frombuffer`` results or strided slices) are accepted,
    and a fresh C-contiguous array is always returned. Anything other than a
    ``uint8`` ndarray raises :class:`ParameterError`.
    """
    data = _require_uint8(data, "data")
    _check_scalar(scalar)
    if scalar == 0:
        return np.zeros(data.shape, dtype=np.uint8)
    if scalar == 1:
        return np.array(data, dtype=np.uint8, order="C")
    # Single gather in the scalar's table row; never writes into `data`.
    # A fancy-index result follows its index's layout, so index C-order.
    return _MUL_TABLE[scalar][np.asarray(data, order="C")]


def gf_addmul_bytes(accumulator: np.ndarray, scalar: int, data: np.ndarray) -> None:
    """In-place ``accumulator ^= scalar * data`` over GF(2^8).

    Both operands must be ``uint8`` arrays of the same shape; a dtype or
    shape mismatch raises :class:`ParameterError` (``data`` is never
    broadcast).
    """
    accumulator = _require_uint8(accumulator, "accumulator")
    data = _require_uint8(data, "data")
    if accumulator.shape != data.shape:
        raise ParameterError(
            f"accumulator shape {accumulator.shape} does not match "
            f"data shape {data.shape}"
        )
    _check_scalar(scalar)
    if scalar == 0:
        return
    if scalar == 1:
        np.bitwise_xor(accumulator, data, out=accumulator)
        return
    np.bitwise_xor(accumulator, _MUL_TABLE[scalar][data], out=accumulator)


# ------------------------------------------------------------ the kernel
#
# The ISA-L / vpshufb nibble decomposition, translated to numpy. Every
# byte splits as ``x == (x & 0xF0) ^ (x & 0x0F)``, and GF(2^8)
# multiplication is GF(2)-linear, so for any coefficient ``c``::
#
#     c * x == c * (x & 0xF0)  ^  c * (x & 0x0F)
#
# SIMD code exploits this at gather time: two 16-entry shuffles per byte
# instead of one 256-entry lookup, because 16 entries fit a vector
# register. numpy's gather (``np.take``) has no register-resident mode;
# measured on this kernel, a 16-entry table gathers no faster than a
# 256-entry one, so two gathers per byte would halve throughput. The
# decomposition still pays one level up: it builds the *packed* LUTs.
# Each output-row group of up to 16 needs a 256-entry table with one
# lane per row; rather than packing 256 columns of the product table, we
# pack two 16-entry nibble tables (high: ``c * (h << 4)``, low:
# ``c * l``) and compose all 256 entries as their outer XOR.
#
# The gather loop wins on three measured effects (see docs/CODING.md):
#
# * ``mode="clip"`` -- a ``uint8`` index never exceeds 255, so clipping
#   against a 256-entry axis is a no-op, and numpy's clip path skips the
#   per-element bounds check that dominates ``mode="raise"`` gathers;
# * one ``intp`` index buffer per call -- ``np.take`` converts any other
#   index type into a fresh ``intp`` array on every gather, so the row
#   slice is widened with ``np.copyto(..., casting="unsafe")`` into a
#   reused buffer instead;
# * lanes as wide as the group -- a LUT entry holds one byte per group
#   row, rounded up to 1, 2, 4, 8 or 16 bytes and gathered as the numpy
#   type of that itemsize (``complex128`` is the only 16-byte one), so one
#   gather multiplies a byte by every coefficient of the group and a
#   4-row group moves 4 bytes per data byte, not 16. XOR accumulation
#   runs on unsigned views of the same buffers (``uint64`` for 16-byte
#   lanes), so lane packing is endian-agnostic.
#
# Packed LUTs depend only on the coefficient matrix, which encoders reuse
# across every value (RS generators, decode inverses, rateless
# selections), so whole plans are memoised by the matrix bytes.

#: Most output rows packed per LUT entry (the complex128 itemsize).
LANES = 16

#: Lane width in bytes -> (gather type, XOR type). Each gather type is
#: the numpy type of that itemsize; 16-byte lanes XOR as two uint64s.
_LANE_TYPES = {
    1: (np.uint8, np.uint8),
    2: (np.uint16, np.uint16),
    4: (np.uint32, np.uint32),
    8: (np.uint64, np.uint64),
    16: (np.complex128, np.uint64),
}

#: Memoised per-matrix plans: (shape, bytes) -> [(start, end, active,
#: luts)], each LUT array typed by its lane. A group's LUTs take
#: ``active x 256 x lane`` bytes: 128 KiB per plan of a 32 x 16
#: RS(16, 32) generator, 4 KiB for the 4 x 4 parity block of RS(4, 8).
#: 64 plans of the former stay near 8 MB.
PLAN_CACHE_LIMIT = 64

_PLAN_CACHE = LRUCache()


def _lane_width(group_size: int) -> int:
    """The narrowest lane of 1, 2, 4, 8 or 16 bytes holding the group."""
    lane = 1
    while lane < group_size:
        lane *= 2
    return lane


def _group_luts(coefficients: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Pack one row-group's LUTs: ``(len(active), 256)`` lanes.

    Entry ``[i, x]`` holds, at byte ``g`` of its lane, the product
    ``coefficients[g, active[i]] * x``, composed from the two 16-entry
    nibble tables. The lane is :func:`_lane_width` bytes wide and the
    result has that width's gather type.
    """
    group_size = coefficients.shape[0]
    lane = _lane_width(group_size)
    gather_type, xor_type = _LANE_TYPES[lane]
    # (group_size, len(active), 256) products for the active columns only.
    products = _MUL_TABLE[coefficients[:, active]]
    low = np.zeros((active.size, 16, lane), dtype=np.uint8)
    high = np.zeros((active.size, 16, lane), dtype=np.uint8)
    low[:, :, :group_size] = products[:, :, :16].transpose(1, 2, 0)
    high[:, :, :group_size] = products[:, :, ::16].transpose(1, 2, 0)
    low_words = low.view(xor_type)    # (active, 16, words per lane)
    high_words = high.view(xor_type)
    # Outer XOR composes entry x = (h << 4) ^ l at flat position 16h + l.
    packed = np.bitwise_xor(
        high_words[:, :, None, :], low_words[:, None, :, :]
    )
    return packed.reshape(active.size, -1).view(gather_type)


def _plan(a: np.ndarray) -> list:
    """Return (memoised) per-group packed LUTs for coefficient matrix ``a``."""
    key = (a.shape, a.tobytes())
    plan = _PLAN_CACHE.lookup(key)
    if plan is not None:
        return plan
    rows = a.shape[0]
    plan = []
    for group_start in range(0, rows, LANES):
        group_end = min(group_start + LANES, rows)
        coefficients = a[group_start:group_end, :]
        active = np.flatnonzero(coefficients.any(axis=0))
        luts = _group_luts(coefficients, active) if active.size else None
        plan.append((group_start, group_end, active, luts))
    _PLAN_CACHE.store(key, plan, PLAN_CACHE_LIMIT)
    return plan


def _single_row(a: np.ndarray, b: np.ndarray, tile: int) -> np.ndarray:
    """One output row: no packing -- clip-mode gathers from table rows."""
    width = b.shape[1]
    result = np.zeros((1, width), dtype=np.uint8)
    out_row = result[0]
    coefficients = a[0].tolist()
    if not any(coefficients):
        return result
    index_buffer = np.empty(tile, dtype=np.intp)
    scratch = np.empty(tile, dtype=np.uint8)
    for start in range(0, width, tile):
        stop = min(start + tile, width)
        span = stop - start
        out_tile = out_row[start:stop]
        index = index_buffer[:span]
        scratch_tile = scratch[:span]
        for i, coefficient in enumerate(coefficients):
            if coefficient == 0:
                continue
            source = b[i, start:stop]
            if coefficient == 1:
                np.bitwise_xor(out_tile, source, out=out_tile)
                continue
            np.copyto(index, source, casting="unsafe")
            np.take(
                _MUL_TABLE[coefficient], index, out=scratch_tile, mode="clip"
            )
            np.bitwise_xor(out_tile, scratch_tile, out=out_tile)
    return result


def _matmul(a: np.ndarray, b: np.ndarray, tile: int) -> np.ndarray:
    """The kernel behind :func:`gf_matmul`, on operands it validated."""
    rows = a.shape[0]
    width = b.shape[1]
    tile = min(tile, width)
    if rows == 1:
        return _single_row(a, b, tile)
    # Only a tail group can be shorter than the first, so its lane is widest.
    widest = _lane_width(min(rows, LANES))
    result = np.empty((rows, width), dtype=np.uint8)
    index_buffer = np.empty(tile, dtype=np.intp)
    scratch_buffer = np.empty(tile * widest, dtype=np.uint8)
    acc_buffer = np.empty(tile * widest, dtype=np.uint8)
    for group_start, group_end, active, luts in _plan(a):
        if luts is None:
            result[group_start:group_end] = 0
            continue
        lane = luts.itemsize
        xor_type = _LANE_TYPES[lane][1]
        group_size = group_end - group_start
        for start in range(0, width, tile):
            stop = min(start + tile, width)
            span = stop - start
            packed = acc_buffer[: span * lane]
            acc_lanes = packed.view(luts.dtype)
            acc_words = packed.view(xor_type)
            scratch = scratch_buffer[: span * lane]
            scratch_lanes = scratch.view(luts.dtype)
            scratch_words = scratch.view(xor_type)
            index = index_buffer[:span]
            for position, i in enumerate(active):
                np.copyto(index, b[i, start:stop], casting="unsafe")
                if position == 0:
                    # First term gathers straight into the accumulator.
                    np.take(luts[0], index, out=acc_lanes, mode="clip")
                    continue
                np.take(
                    luts[position], index, out=scratch_lanes, mode="clip"
                )
                np.bitwise_xor(acc_words, scratch_words, out=acc_words)
            lanes = packed.reshape(span, lane)
            result[group_start:group_end, start:stop] = lanes[:, :group_size].T
    return result


def gf_matmul(
    a: np.ndarray, b: np.ndarray, *, tile_columns: int | None = None
) -> np.ndarray:
    """Return the matrix product ``a @ b`` over GF(2^8).

    ``a`` is ``(m, k)`` and ``b`` is ``(k, w)``, both ``uint8``; the result
    is a fresh ``(m, w)`` ``uint8`` array. With ``m`` = generator rows and
    ``w`` = shard bytes (times the batch size), one call encodes a whole
    codeword (or a whole batch of codewords).

    Dtype, shape and tile checks happen exactly once here, so the kernel
    runs no per-tile revalidation.

    Wide products are processed in column tiles of ``tile_columns``
    (default :data:`TILE_COLUMNS`) so the kernel's packed accumulator and
    gather scratch stay resident in L2 even when ``w`` is a whole batch of
    stacked codewords. Any positive ``tile_columns`` produces identical
    output — the parameter exists for tests and tuning.

    Inputs may be read-only or non-contiguous. Shape or dtype mismatches
    (or a non-positive ``tile_columns``) raise :class:`ParameterError`.
    """
    a = _require_uint8(a, "a")
    b = _require_uint8(b, "b")
    if a.ndim != 2 or b.ndim != 2:
        raise ParameterError(
            f"gf_matmul operands must be 2-D, got {a.ndim}-D and {b.ndim}-D"
        )
    if a.shape[1] != b.shape[0]:
        raise ParameterError(
            f"shape mismatch: {a.shape[0]}x{a.shape[1]} @ "
            f"{b.shape[0]}x{b.shape[1]}"
        )
    tile = TILE_COLUMNS if tile_columns is None else tile_columns
    if tile < 1:
        raise ParameterError(f"tile_columns must be positive, got {tile}")
    rows = a.shape[0]
    width = b.shape[1]
    if width == 0 or rows == 0:
        return np.zeros((rows, width), dtype=np.uint8)
    return _matmul(a, b, tile)


def gf_poly_eval(coefficients: list[int], x: int) -> int:
    """Evaluate a polynomial (lowest-degree coefficient first) at ``x``.

    Horner's rule over GF(2^8).
    """
    result = 0
    for coefficient in reversed(coefficients):
        result = gf_mul(result, x) ^ coefficient
    return result
