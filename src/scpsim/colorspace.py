"""Fixed-point color-space conversion kernels.

Every conversion is an affine map in /256 fixed point: subtract a
per-channel input offset, multiply by a 3x3 scaled-integer matrix,
divide by 256 truncating toward zero, add a per-channel output offset,
saturate to a byte.  The offsets are how signed chroma rides in
unsigned bytes: luma/chroma images and wide registers store i and q
offset by 128, while the scalar conversion functions keep them at full
signed precision.

Two cores give every pixel the same quotients, so they are bit-identical.
``_affine_px``, under the scalar functions (``convert_px`` is the
reference), sums one pixel's integer products (``mul_acc3``) and divides
by 256 truncating (``div256_trunc``).  ``apply_matrix_np`` converts
``(3, n)`` sample blocks: one float32 ``np.matmul`` of the matrix's
``coeffs / 256`` (``ConversionMatrix.scaled``) with the samples, less
their input offset, then a cast to int32, which truncates toward zero.
The product is exact, not rounded: every coefficient over 256 is a
multiple of 2^-8 below 2^2 in magnitude and every sample an integer
below 2^9, so each product and partial sum is a multiple of 2^-8 below
2^12 (every accumulator is below 2^20; see ``OFFSET_LIMIT``).  That is at
most 20 significant bits, float32 has 24, so the sum is exactly the
accumulator over 256 in any order of summation.  Each block holds at most
``_BLOCK`` samples, in compact arrays carved from the calling thread's
block workspace (``_Workspace``); the samples are multiplied, cast and
clamped in those arrays, so no block-sized array is made per call or per
batch, and threads that convert at once each carve their own.  The
core's matrices and offset columns are built once per matrix, at
construction.  ``apply_matrix_np`` is the plain-processor "scalar mode"
for images and the body of every fabric kernel, which processes 1, 5, or
8 pixels per invocation; ``convert_image`` issues a lane mode's
invocations one batch per ``_BLOCK // lanes`` groups, or fewer where a
batch's registers would reach 128 KiB (``_batch_groups``).  The kernel
body of a one-pixel register converts straight from the input-register
view into the output-register view; a wider one gathers its pixels into
the workspace and converts them there.  So the arrays a conversion makes
are its result image, its input registers and each batch's output
registers, which the body contract gives to the caller.  Lane groups are
packed and unpacked without a 2-D copy of a few bytes per row, which
numpy makes one row at a time: many one-pixel groups move as three
channel columns, many wider ones as one span-byte item each
(``_copy_groups``).

The round-trip sweep steps through all 2^24 RGB triples in ascending
(r, g, b) order, one ``_SWEEP_BLOCK`` at a time, and finishes every block
in one place (``_roundtrip_errors``), in arrays made once per part, with
no block-sized temporary in the loop, so a part never holds more than one
block.  Every block of the grid is the first plus a column (r, g, 0), so
its forward sums are the first block's plus that column's, exactly, by
linearity (``_rgb_blocks``); the first block and its sums are built once
per sweep and shared read-only.  Only the I and Q rows take the
truncating divide: they carry signed chroma with no clamp.  The Y row and
the three reverse rows are clamped to a byte straight after it, with no
offset, so they divide with ``div256_clamp_u8_np``'s floor shift, which
clamps to the same bytes.  Each block's errors are summed in int32, which
its 3 * 32768 errors of at most 255 cannot overflow.

The sweep is split by red value into ``min(2, CPUs this process may run
on)`` contiguous parts, part 0 in the calling thread and each other part
in a helper thread (``_sweep``); numpy releases the GIL inside its loops,
so two parts run at once.  The parts are combined in ascending red order
(``_combined``): the largest maximum, the argmax of the first part that
reaches it, the per-channel maxima and the integer error sum, so the
result does not depend on the part count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import cycle_model
from .fabric import (
    WR_BYTES,
    ExtensionInstruction,
    InvocationLog,
    ei_execute_batch,
)
# Unused here; kept for the benchmark tracer, which patches these names.
from .fabric import ei_execute, ei_validate, wr_pack, wr_unpack  # noqa: F401
from .fixed_point import (
    OFFSET_LIMIT,
    check_coefficient,
    clamp_u8,
    clamp_u8_np,
    div256_clamp_u8_np,
    div256_trunc,
    div256_trunc_np,
    mul_acc3,
)
from .image_io import ChannelMismatch, ImageBuffer

#: Frozen regression constant: the exact maximum per-channel error of
#: forward+reverse luma/chroma conversion over all 2^24 RGB triples,
#: computed once by exhaustive sweep (see roundtrip_sweep).  With
#: truncation toward zero the maximum is 5, reached first at
#: RGB (0, 121, 212) on the blue channel; 9808 triples reach it.
ROUNDTRIP_MAX_ERROR = 5
ROUNDTRIP_ARGMAX = (0, 121, 212)

#: Samples per pass of the vectorized core.  A block's arrays live in the
#: thread's workspace, not in arrays made per call, so they need not stay
#: under glibc's 128 KiB mmap threshold, as the 96 KiB per-call arrays of
#: 8192-sample blocks had to; larger blocks pay less per-block Python.  In
#: alternating 5 s ``paper-convert`` runs on a 2-vCPU host (Python 3.11.7,
#: numpy 2.4.6; medians of 4 pairs), 32768 took 85.0-86.2M px/s, 16384
#: 83.3M (scalar mode 0.553 against 0.530 ms) and 65536 83.5M (scalar
#: 0.582 against 0.536 ms, and 1.3 MB more peak RSS).
_BLOCK = 32768

#: A lane batch makes two register arrays, its input registers and the
#: kernel body's fresh output; each stays below this many bytes, glibc's
#: default mmap threshold, so that neither is mapped afresh per batch.
_REGISTER_LIMIT = 128 * 1024


class _Workspace(threading.local):
    """One thread's block arrays for the convert path: one flat int32
    buffer, from which a call carves a block's three compact (3, k) int32
    arrays (``_block_arrays``) and, past them, a lane body's two uint8
    staging arrays (``_staging``), all disjoint.

    Each thread gets its own buffer when it first touches the workspace,
    the importing thread at import; a page of it is touched only when a
    conversion first writes there.  A buffer is 1.31 MiB and lives as
    long as its thread.
    """

    def __init__(self):
        self.buffer = np.empty(9 * _BLOCK + 6 * _BLOCK // 4, dtype=np.int32)


_workspace = _Workspace()


def _block_arrays(k: int) -> list[np.ndarray]:
    """This thread's three compact (3, k) int32 arrays for a block of
    ``k <= _BLOCK`` samples, carved one after another from its workspace:
    the samples and two more.  ``apply_matrix_np`` views those two as
    float32, for its float samples and its quotients, and casts the
    quotients back into the first of them; ``image_io.to_gray`` sums luma
    in it."""
    buffer = _workspace.buffer
    return [buffer[start : start + 3 * k].reshape(3, k) for start in (0, 3 * k, 6 * k)]


def _staging(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Two disjoint uint8 arrays of ``size <= 3 * _BLOCK`` bytes from this
    thread's workspace, past the block arrays: a lane body's gathered
    pixels and their conversion."""
    staged = _workspace.buffer[9 * _BLOCK :].view(np.uint8)
    return staged[:size], staged[3 * _BLOCK : 3 * _BLOCK + size]


#: Triples per block of the round-trip sweep.  Each part makes its block
#: arrays once, so they need not stay under the mmap threshold, and fewer
#: blocks pay less per-block Python.  On a 2-CPU host (medians of 5
#: sweeps in each of 4 fresh processes), two parts took 139-166 ms a
#: sweep at 16384 (the threads spend their time handing the GIL back and
#: forth), 91-123 ms at 32768 and 82-90 ms at 65536, against 126-133 ms
#: for the one-part sweep at 16384; one part took 119-124 ms at 32768.
#: Over that one-part sweep, two parts cost 2.0-2.2 MB of peak RSS at
#: 32768 and 5.4-5.8 MB at 65536, a seventh of a 38 MB sweep process.  A
#: multiple of 256, so a grid block holds whole runs of the blue channel,
#: and a divisor of 65536, so every block is full and lies within one red
#: value.
_SWEEP_BLOCK = 32768


@dataclass(frozen=True)
class ConversionMatrix:
    """A named affine fixed-point conversion.

    ``coeffs`` are scaled by 256.  ``input_offset`` is subtracted from
    each incoming byte before the multiply; ``output_offset`` is added
    after the truncating divide, before saturation.  Built from them, once
    per matrix and read-only: the int32 ``columns``, ``input_column`` and
    ``output_column``; ``scaled``, the float32 matrix ``coeffs / 256``,
    which holds every coefficient exactly (a multiple of 2^-8 of magnitude
    at most 2); and ``shifts_input`` and ``shifts_output``, whether an
    offset is non-zero, so that ``apply_matrix_np`` skips the pass of an
    all-zero one.
    """

    name: str
    coeffs: tuple[tuple[int, int, int], ...]
    input_offset: tuple[int, int, int] = (0, 0, 0)
    output_offset: tuple[int, int, int] = (0, 0, 0)
    columns: np.ndarray = field(init=False, repr=False, compare=False)
    input_column: np.ndarray = field(init=False, repr=False, compare=False)
    output_column: np.ndarray = field(init=False, repr=False, compare=False)
    scaled: np.ndarray = field(init=False, repr=False, compare=False)
    shifts_input: bool = field(init=False, repr=False, compare=False)
    shifts_output: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) != 3 or any(len(row) != 3 for row in self.coeffs):
            raise ValueError("conversion matrix must be 3x3")
        for row in self.coeffs:
            for value in row:
                check_coefficient(value)
        for offset in (self.input_offset, self.output_offset):
            if len(offset) != 3 or not all(
                isinstance(v, Integral) and abs(v) <= OFFSET_LIMIT for v in offset
            ):
                raise ValueError(
                    f"conversion offsets must be three integers in "
                    f"[-{OFFSET_LIMIT}, {OFFSET_LIMIT}], got {offset!r}"
                )
        names = ("columns", "input_column", "output_column")
        for name, value in zip(names, (self.coeffs, self.input_offset, self.output_offset)):
            array = np.array(value, dtype=np.int32).T[..., None]
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        scaled = np.array(self.coeffs, dtype=np.float32) / 256
        scaled.flags.writeable = False
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "shifts_input", any(self.input_offset))
        object.__setattr__(self, "shifts_output", any(self.output_offset))


RGB2YIQ = ConversionMatrix(
    name="rgb2yiq",
    coeffs=((77, 150, 29), (153, -70, -82), (54, -134, 80)),
    output_offset=(0, 128, 128),
)
YIQ2RGB = ConversionMatrix(
    name="yiq2rgb",
    coeffs=((256, 245, 159), (256, -70, -166), (256, -283, 436)),
    input_offset=(0, 128, 128),
)
# Complement is affine too: -256/256 * s + 255 == 255 - s, exactly.
RGB2CMY = ConversionMatrix(
    name="rgb2cmy",
    coeffs=((-256, 0, 0), (0, -256, 0), (0, 0, -256)),
    output_offset=(255, 255, 255),
)


# ---------------------------------------------------------------------------
# Scalar reference functions
# ---------------------------------------------------------------------------


def _affine_px(coeffs, p, input_offset=(0, 0, 0)) -> tuple[int, int, int]:
    """Each row's product with the pixel ``p`` less ``input_offset``, /256
    truncated.  Samples are taken as Python ints first, so a numpy uint8
    pixel cannot wrap."""
    s = tuple(int(v) - off for v, off in zip(p, input_offset))
    return tuple(div256_trunc(mul_acc3(row, s)) for row in coeffs)


def rgb_to_yiq_px(p) -> tuple[int, int, int]:
    """Forward conversion of one pixel: luma in [0, 255], chroma at full
    signed precision (|i| <= 152, |q| <= 134)."""
    y, i, q = _affine_px(RGB2YIQ.coeffs, p)
    return (clamp_u8(y), i, q)


def yiq_to_rgb_px(p) -> tuple[int, int, int]:
    """Reverse conversion of one pixel from signed chroma."""
    return tuple(clamp_u8(v) for v in _affine_px(YIQ2RGB.coeffs, p))


def convert_px(matrix: ConversionMatrix, p) -> tuple[int, int, int]:
    """One pixel through the full byte-to-byte affine map.

    This is the per-lane oracle: every fabric kernel lane and every
    batch-converted pixel must equal it exactly.
    """
    acc = _affine_px(matrix.coeffs, p, matrix.input_offset)
    return tuple(clamp_u8(v + off) for v, off in zip(acc, matrix.output_offset))


# ---------------------------------------------------------------------------
# Batch path (plain-processor "scalar mode" for whole images)
# ---------------------------------------------------------------------------


def _sums_np(
    columns: np.ndarray, samples: np.ndarray, out: np.ndarray, product: Optional[np.ndarray] = None
) -> np.ndarray:
    """Each matrix row's sum of products with a (3, n) int32 or uint8
    sample array, offset already taken, before the divide: ``mul_acc3``
    over the block.  Written to ``out``, an int32 array with one row per
    matrix row, and returned.  ``columns`` is built once per matrix (``ConversionMatrix``).

    Each column is a (rows, 1) array, so one multiply gives a sample row's
    products for every output row.  The products are summed in ``out``.
    The one temporary, a product of ``out``'s shape, is built in
    ``product`` where one is given, and otherwise outlives no statement.
    """
    np.multiply(columns[0], samples[0], out=out)
    out += np.multiply(columns[1], samples[1], out=product)
    out += np.multiply(columns[2], samples[2], out=product)
    return out


def apply_matrix_np(
    flat: np.ndarray, matrix: ConversionMatrix, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Convert an (n, 3) uint8 sample block; bit-exact to convert_px.

    The result goes to ``out``, an (n, 3) uint8 array of any strides, such
    as the pixel bytes of a register view, or to a new array without one.
    The samples pass ``_BLOCK`` at a time through arrays carved from the
    calling thread's workspace (``_block_arrays``), so no other array is
    made, and ``out`` must not lie in the workspace's block arrays.

    A block's int32 samples, less the input offset, are cast to float32
    in the second block array and multiplied by ``matrix.scaled`` in one
    ``np.matmul``, into the third; the quotients are cast back into the
    second, as int32.  Each row's quotient is exactly its ``mul_acc3``
    sum over 256: a coefficient over 256 is a multiple of 2^-8 below 2^2
    in magnitude and a sample is an integer below 2^9, so each product
    and partial sum is a multiple of 2^-8 below 2^12 (|acc| < 2^20, see
    ``OFFSET_LIMIT``), at most 20 significant bits, and float32 holds 24.
    So the product is exact in any order of summation, with or without
    fused multiply-adds, and the cast, which truncates toward zero, is
    ``div256_trunc``.  An all-zero offset's pass is skipped, as the
    matrix decides once (``shifts_input``, ``shifts_output``).  A block's
    product is too small for the BLAS to split it over threads: over 300
    steady scalar conversions of a 320x200 frame, process time over wall
    time read 0.97-1.00 (2-CPU host, numpy 2.4 with OpenBLAS 0.3.31).
    """
    n = flat.shape[0]
    if out is None:
        out = np.empty((n, 3), dtype=np.uint8)
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        pixels = flat[block]
        s, a, p = _block_arrays(len(pixels))
        s[...] = pixels.T
        if matrix.shifts_input:
            s -= matrix.input_column
        samples, quotients = a.view(np.float32), p.view(np.float32)
        samples[...] = s
        np.matmul(matrix.scaled, samples, out=quotients)
        a[...] = quotients
        if matrix.shifts_output:
            a += matrix.output_column
        clamp_u8_np(a, out=a)
        for channel, row in enumerate(a):
            out[block, channel] = row
    return out


#: Fewer groups than this are copied as one 2-D assignment: below about
#: 512 groups of any lane width, the fixed cost of a channel or span-byte
#: copy is more than it saves.
_PLAIN_COPY_GROUPS = 512


def _copy_groups(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src`` for (groups, span) uint8 arrays, ``dst``'s rows
    contiguous, as when packing or unpacking lane registers.

    numpy copies a 2-D array one inner run at a time, which is slow for
    runs of a few bytes, so many one-pixel groups move as three channel
    columns and many wider ones as one span-byte item per group.
    """
    span = dst.shape[1]
    if len(dst) < _PLAIN_COPY_GROUPS:
        dst[...] = src
    elif span == 3:
        for c in range(3):
            dst[:, c] = src[:, c]
    else:
        if src.strides[-1] != 1:
            src = src.copy()
        item = f"V{span}"
        dst.view(item)[:, 0] = src.view(item)[:, 0]


# ---------------------------------------------------------------------------
# Fabric kernels
# ---------------------------------------------------------------------------

_MATRIX_OPS = frozenset({"add", "sub", "mul", "shift", "compare", "select"})


def matrix_ei(matrix: ConversionMatrix, lanes: int) -> ExtensionInstruction:
    """Build the batched fabric kernel converting ``lanes`` pixels per invocation.

    Coefficients and offsets are part of the fabric configuration, not
    operands, so the pixels' interleaved bytes are the whole input: one
    register for up to five pixels, two for eight, with the bytes past
    the last pixel ignored on input and zero on output.  The body converts
    a one-pixel register's bytes in place, reading the input-register view
    and writing the zero-filled output-register view; wider registers are
    gathered, up to ``_BLOCK`` pixels at a time, into one contiguous
    (pixels, 3) array in the thread's workspace (``_staging``), converted
    into the other, and stored back, both by ``_copy_groups``.  The output
    is a fresh array, which the caller owns.  Kernels are not cached:
    building one costs a few microseconds, far less than the smallest
    image run it serves, and a cache would keep every custom matrix's
    kernel alive.  A lane count without a calibrated ``ei<lanes>`` mode
    raises UnknownKernelConfig.
    """
    (ledger,) = cycle_model.calibrated_shape("yiq", f"ei{lanes}").ledgers
    span = 3 * lanes
    registers = -(-span // WR_BYTES)
    step = _BLOCK // lanes

    def body(inputs, iram):
        invocations = len(inputs)
        pixels = inputs.reshape(invocations, registers * WR_BYTES)[:, :span]
        out = np.zeros((invocations, registers * WR_BYTES), dtype=np.uint8)
        if lanes == 1:
            apply_matrix_np(pixels, matrix, out=out[:, :span])
        else:
            for start in range(0, invocations, step):
                chunk = slice(start, start + step)
                count = len(pixels[chunk])
                flat, converted = _staging(count * span)
                _copy_groups(flat.reshape(count, span), pixels[chunk])
                apply_matrix_np(flat.reshape(-1, 3), matrix, out=converted.reshape(-1, 3))
                _copy_groups(out[chunk, :span], converted.reshape(count, span))
        return out.reshape(invocations, registers, WR_BYTES)

    return ExtensionInstruction(
        name=f"{matrix.name}_x{lanes}",
        body=body,
        n_inputs=registers,
        n_outputs=registers,
        ledger=ledger,
        ops_used=_MATRIX_OPS,
        batched=True,
    )


CONVERT_MODES = cycle_model.FAMILY_MODES["yiq"]


def _batch_groups(ei: ExtensionInstruction, lanes: int) -> int:
    """Lane groups per batch of a conversion: a block's ``_BLOCK // lanes``,
    but fewer where a batch's input or output registers would reach
    ``_REGISTER_LIMIT`` bytes."""
    widest = max(ei.n_inputs, ei.n_outputs) * WR_BYTES
    return min(_BLOCK // lanes, (_REGISTER_LIMIT - 1) // widest)


def convert_image(
    img: ImageBuffer,
    matrix: ConversionMatrix,
    mode: str,
    profile: Optional[cycle_model.CalibrationProfile] = None,
    log: Optional[InvocationLog] = None,
) -> tuple[ImageBuffer, Optional[cycle_model.CycleReport]]:
    """Convert a 3-channel image; optionally cost the run.

    Output samples are identical across all modes.  Every mode issues its
    whole lane groups (``KernelShape.split``), ``_batch_groups`` at a time,
    and converts the tail on the batch path; without lanes the tail is the
    whole image.  With a profile
    the cycle report is filled from the cost model, which must agree with
    the invocations executed (``cycle_model.checked_report``); without one
    the report is None.
    Every matrix is costed at the calibrated ``yiq`` rates, the family
    the report's ``kernel`` names: cost depends on shape, not coefficients.
    A mode outside ``CONVERT_MODES`` raises UnknownKernelConfig before any work.
    """
    if img.channels != 3:
        raise ChannelMismatch(f"conversion needs 3 channels, got {img.channels}")
    shape = cycle_model.calibrated_shape("yiq", mode)
    if log is None:
        log = InvocationLog()
    logged = log.total

    flat = img.samples.reshape(-1, 3)
    n = flat.shape[0]
    lanes = shape.lanes
    groups, tail = shape.split(n)
    head = n - tail
    out = np.empty_like(flat)
    if groups:
        ei = matrix_ei(matrix, lanes)
        span = 3 * lanes
        step = _batch_groups(ei, lanes)
        pixels = flat[:head].reshape(groups, span)
        results = out[:head].reshape(groups, span)
        # Bytes past the last pixel are never written, so they stay zero.
        registers = np.zeros((min(groups, step), ei.n_inputs * WR_BYTES), dtype=np.uint8)
        for start in range(0, groups, step):
            block = slice(start, start + step)
            count = len(pixels[block])
            _copy_groups(registers[:count, :span], pixels[block])
            batch = registers[:count].reshape(count, ei.n_inputs, WR_BYTES)
            # Bound to no name, a batch's outputs are freed before the next batch makes its own.
            _copy_groups(results[block], ei_execute_batch(ei, batch, log=log).reshape(count, -1)[:, :span])
    if tail:
        apply_matrix_np(flat[head:], matrix, out=out[head:])

    converted = ImageBuffer(
        width=img.width, height=img.height, channels=3, samples=out
    )
    report = cycle_model.checked_report("yiq", mode, n, profile, log.total - logged)
    return converted, report


# ---------------------------------------------------------------------------
# Exhaustive round-trip oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    max_error: int
    mean_error: float
    argmax_rgb: tuple[int, int, int]
    per_channel_max: tuple[int, int, int]
    samples: int


class _PartResult(NamedTuple):
    """One part's share of the sweep, over the reds it was given."""

    max_error: int
    argmax_rgb: tuple[int, int, int]
    per_channel_max: np.ndarray
    error_sum: int


def _first_block() -> tuple[np.ndarray, np.ndarray]:
    """The sweep's first block, every (0, g, b) with g < ``_SWEEP_BLOCK //
    256``, as a read-only (3, _SWEEP_BLOCK) uint8 array, and its read-only
    int32 forward sums (``_sums_np`` of ``RGB2YIQ``)."""
    first = np.indices((1, _SWEEP_BLOCK // 256, 256), dtype=np.uint8).reshape(3, _SWEEP_BLOCK)
    sums = _sums_np(RGB2YIQ.columns, first, np.empty(first.shape, dtype=np.int32))
    first.flags.writeable = sums.flags.writeable = False
    return first, sums


def _rgb_blocks(
    reds: range = range(256), first: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every RGB triple with its red in ``reds``, in ascending (r, g, b)
    order, as (3, _SWEEP_BLOCK) uint8 blocks, each with its int32 forward
    sums (``_sums_np`` of ``RGB2YIQ``).

    Block (r, g) is the first block plus the column (r, g, 0).  A sum of
    products before the truncating divide is linear over the integers, so
    its sums are the first block's plus ``C·(r, g, 0)`` exactly: the first
    block's sums are computed once, or taken from ``first``
    (``_first_block``), and every block costs one broadcast add.  Every
    block and its sums are written to the same two arrays, so a pair holds
    only until the next one is drawn.
    """
    forward = RGB2YIQ.columns
    g_step = _SWEEP_BLOCK // 256
    first, first_sums = _first_block() if first is None else first
    block, sums = np.empty_like(first), np.empty_like(first_sums)
    for r in reds:
        for g in range(0, 256, g_step):
            np.add(first, np.array([[r], [g], [0]], dtype=np.uint8), out=block)
            np.add(first_sums, forward[0] * r + forward[1] * g, out=sums)
            yield block, sums


def _roundtrip_errors(
    reds: range = range(256), first: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each RGB block of ``_rgb_blocks(reds, first)``, with the int32
    per-channel |error| of its forward+reverse conversion.  Y is divided
    and clamped, I and Q are divided truncating and kept signed, and the
    reverse map's sums are divided and clamped.  Every error is written to
    the same array, so it holds only until the next is drawn.

    No block-sized temporary is made in the loop: the I and Q sign mask
    is built in the error array, not yet written, and the reverse map's
    product in the forward sums, already divided.
    """
    reverse = YIQ2RGB.columns
    yiq = np.empty((3, _SWEEP_BLOCK), dtype=np.int32)
    err = np.empty_like(yiq)
    for rgb, sums in _rgb_blocks(reds, first):
        div256_clamp_u8_np(sums[0], out=yiq[0])
        div256_trunc_np(sums[1:], out=yiq[1:], mask=err[1:])
        div256_clamp_u8_np(_sums_np(reverse, yiq, err, product=sums), out=err)
        err -= rgb
        yield rgb, np.abs(err, out=err)


def _sweep_part(reds: range, first: tuple[np.ndarray, np.ndarray]) -> _PartResult:
    """The sweep over the triples whose red is in ``reds``."""
    max_err = -1
    argmax = (0, 0, 0)
    per_ch = np.zeros(3, dtype=np.int32)
    err_sum = 0
    for rgb, err in _roundtrip_errors(reds, first):
        block_max = err.max(axis=1)
        np.maximum(per_ch, block_max, out=per_ch)
        m = int(block_max.max())
        # Only a block that beats the maximum is searched for its first worst triple.
        if m > max_err:
            max_err = m
            argmax = tuple(int(v) for v in rgb[:, int(np.argmax(err.max(axis=0)))])
        # Each |error| is at most 255, so a block's sum is at most
        # 3 * _SWEEP_BLOCK * 255 < 2^31 and adds up in int32 without overflow.
        err_sum += int(err.sum(dtype=np.int32))
    return _PartResult(max_err, argmax, per_ch, err_sum)


def _combined(parts: list[_PartResult]) -> SweepResult:
    """The whole sweep from its parts, given in ascending red order."""
    max_err = max(p.max_error for p in parts)
    return SweepResult(
        max_error=max_err,
        mean_error=sum(p.error_sum for p in parts) / (3 * 256**3),
        argmax_rgb=next(p.argmax_rgb for p in parts if p.max_error == max_err),
        per_channel_max=tuple(int(v) for v in np.max([p.per_channel_max for p in parts], axis=0)),
        samples=256**3,
    )


def _sweep(parts: int) -> SweepResult:
    """The sweep in ``parts`` parts by red value, part 0 in the calling
    thread and each other part in a helper thread of its own.

    The first block and its sums are built once and shared read-only.  A
    part's exception reaches the caller as itself, once every helper has
    been joined.
    """
    first = _first_block()
    reds = [range(k * 256 // parts, (k + 1) * 256 // parts) for k in range(parts)]
    results: list = [None] * parts

    def run(k: int) -> None:
        try:
            results[k] = _sweep_part(reds[k], first)
        except BaseException as exc:  # re-raised in the calling thread
            results[k] = exc

    started = []
    try:
        for k in range(1, parts):
            helper = threading.Thread(target=run, args=(k,), name=f"roundtrip-sweep-{k}")
            helper.start()
            started.append(helper)
        results[0] = _sweep_part(reds[0], first)
    finally:
        for helper in started:
            helper.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return _combined(results)


def roundtrip_sweep() -> SweepResult:
    """Forward+reverse conversion error over all 2^24 RGB triples.

    The triples are swept in ascending (r, g, b) order, one
    ``_SWEEP_BLOCK`` at a time, with forward sums by linearity over the
    grid (``_rgb_blocks``).  Each triple takes three forward rows and three
    reverse rows; only the I and Q rows truncate, the others are divided
    and clamped together (``div256_clamp_u8_np``).  It reports the first
    triple attaining the maximum; chroma is carried signed, without the
    offset-128 byte encoding.

    The reds are split into ``min(2, CPUs this process may run on)``
    contiguous parts, each swept in its own thread (``_sweep``).  The
    parts are combined in ascending red order: the largest maximum, the
    argmax of the first part that reaches it, the per-channel maxima and
    the integer error sum.  So the result does not depend on the part
    count.  On a 2-CPU host (Python 3.11, numpy 2.4), in one interpreter,
    two parts of ``_SWEEP_BLOCK`` blocks took 0.67 times as long as the
    one-part sweep of 16384-triple blocks they replace (93 against 136 ms);
    pinned to one CPU, the sweep runs one part, at 0.93 times (121 against
    131 ms).
    """
    return _sweep(min(2, len(os.sched_getaffinity(0))))
