"""Fixed-point color-space conversion kernels.

Every conversion is an affine map in /256 fixed point: subtract a
per-channel input offset, multiply by a 3x3 scaled-integer matrix,
divide by 256 truncating toward zero, add a per-channel output offset,
saturate to a byte.  The offsets are how signed chroma rides in
unsigned bytes: luma/chroma images and wide registers store i and q
offset by 128, while the scalar conversion functions keep them at full
signed precision.

Two cores compute the multiply and truncating divide with the same
primitives, so they are bit-identical: ``_affine_px`` on one pixel,
under the scalar functions (``convert_px`` is the reference), and
``_affine_np`` on a ``(3, n)`` int32 sample array (every accumulator is
below 2^20; see ``OFFSET_LIMIT``), under ``apply_matrix_np`` and the
round-trip sweep.  Both feed it at most ``_BLOCK`` samples at a time, so
its intermediates stay in cache and the sweep never holds more than one
block of its 2^24 triples.  ``apply_matrix_np`` is the plain-processor
"scalar mode" for images and the body of every fabric kernel, which
processes 1, 5, or 8 pixels per invocation, issued as one batch per
image.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Iterator, Optional

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

#: Samples per pass of the vectorized core, small enough that a block's
#: int32 intermediates (192 KiB each) stay in cache.  A multiple of 256,
#: so a sweep block holds whole runs of the blue channel.
_BLOCK = 16384


@dataclass(frozen=True)
class ConversionMatrix:
    """A named affine fixed-point conversion.

    ``coeffs`` are scaled by 256.  ``input_offset`` is subtracted from
    each incoming byte before the multiply; ``output_offset`` is added
    after the truncating divide, before saturation.
    """

    name: str
    coeffs: tuple[tuple[int, int, int], ...]
    input_offset: tuple[int, int, int] = (0, 0, 0)
    output_offset: tuple[int, int, int] = (0, 0, 0)

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


def _affine_np(coeffs, samples: np.ndarray) -> np.ndarray:
    """_affine_px's rows over a (3, n) int32 sample array, offset already
    taken; returns the (3, n) int32 results.

    ``mul_acc3`` takes the matrix column by column, each a (3, 1) array,
    so one call accumulates all three rows.
    """
    columns = np.array(coeffs, dtype=np.int32).T[:, :, None]
    return div256_trunc_np(mul_acc3(columns, tuple(samples)))


def apply_matrix_np(flat: np.ndarray, matrix: ConversionMatrix) -> np.ndarray:
    """Convert an (n, 3) uint8 sample block; bit-exact to convert_px."""
    n = flat.shape[0]
    out = np.empty((n, 3), dtype=np.uint8)
    input_offset = np.array(matrix.input_offset, dtype=np.int32)[:, None]
    output_offset = np.array(matrix.output_offset, dtype=np.int32)[:, None]
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        samples = flat[block].T.astype(np.int32, order="C")
        samples -= input_offset
        acc = _affine_np(matrix.coeffs, samples)
        acc += output_offset
        acc = clamp_u8_np(acc)
        for c in range(3):
            out[block, c] = acc[c]
    return out


# ---------------------------------------------------------------------------
# Fabric kernels
# ---------------------------------------------------------------------------

_MATRIX_OPS = frozenset({"add", "sub", "mul", "shift", "compare", "select"})


def matrix_ei(matrix: ConversionMatrix, lanes: int) -> ExtensionInstruction:
    """Build the batched fabric kernel converting ``lanes`` pixels per invocation.

    Coefficients and offsets are part of the fabric configuration, not
    operands, so the pixels' interleaved bytes are the whole input: one
    register for up to five pixels, two for eight, with the bytes past
    the last pixel ignored on input and zero on output.  Kernels are not
    cached: building one costs a few microseconds, far less than the
    smallest image run it serves, and a cache would keep every custom
    matrix's kernel alive.
    """
    shape = cycle_model.KERNEL_SHAPES.get(f"ei{lanes}")
    if shape is None:
        raise ValueError(f"unsupported lane count {lanes}")
    (ledger,) = shape.ledgers
    span = 3 * lanes
    registers = -(-span // WR_BYTES)

    def body(inputs, iram):
        invocations = len(inputs)
        raw = inputs.reshape(invocations, registers * WR_BYTES)[:, :span]
        out = np.zeros((invocations, registers * WR_BYTES), dtype=np.uint8)
        out[:, :span] = apply_matrix_np(raw.reshape(-1, 3), matrix).reshape(invocations, span)
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


def convert_image(
    img: ImageBuffer,
    matrix: ConversionMatrix,
    mode: str,
    profile: Optional[cycle_model.CalibrationProfile] = None,
    log: Optional[InvocationLog] = None,
) -> tuple[ImageBuffer, Optional[cycle_model.CycleReport]]:
    """Convert a 3-channel image; optionally cost the run.

    Output samples are identical across all modes.  Lane modes finish a
    pixel count that does not divide the lane width on the batch path
    (the scalar tail).  With a profile the cycle report is filled from
    the cost model, which must agree with the invocations executed
    (``cycle_model.checked_report``); without one the report is None.
    Every matrix is costed at the calibrated ``yiq`` rates, the family
    the report's ``kernel`` names: cost depends on shape, not coefficients.
    """
    if img.channels != 3:
        raise ChannelMismatch(f"conversion needs 3 channels, got {img.channels}")
    if mode not in CONVERT_MODES:
        raise ValueError(f"mode must be one of {CONVERT_MODES}, got {mode!r}")
    if log is None:
        log = InvocationLog()
    logged = log.total

    flat = img.samples.reshape(-1, 3)
    n = flat.shape[0]
    if mode == "scalar":
        out = apply_matrix_np(flat, matrix)
    else:
        lanes = cycle_model.mode_lanes(mode)
        ei = matrix_ei(matrix, lanes)
        groups = n // lanes
        head = lanes * groups
        span = 3 * lanes
        registers = np.zeros((groups, ei.n_inputs * WR_BYTES), dtype=np.uint8)
        registers[:, :span] = flat[:head].reshape(groups, span)
        outputs = ei_execute_batch(ei, registers.reshape(groups, ei.n_inputs, WR_BYTES), log=log)
        out = np.empty_like(flat)
        out[:head] = outputs.reshape(groups, ei.n_outputs * WR_BYTES)[:, :span].reshape(head, 3)
        if head < n:
            out[head:] = apply_matrix_np(flat[head:], matrix)

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


def _rgb_blocks() -> Iterator[np.ndarray]:
    """Every RGB triple in ascending (r, g, b) order, as (3, _BLOCK) int32 blocks."""
    g_step = _BLOCK // 256
    first = np.indices((1, g_step, 256), dtype=np.int32).reshape(3, _BLOCK)
    for r in range(256):
        for g in range(0, 256, g_step):
            yield first + np.array([[r], [g], [0]], dtype=np.int32)


def _roundtrip_errors(rgb: np.ndarray) -> np.ndarray:
    """Per-channel |error| of forward+reverse conversion of a (3, n) int32 block."""
    yiq = _affine_np(RGB2YIQ.coeffs, rgb)
    yiq[0] = clamp_u8_np(yiq[0])
    return np.abs(rgb - clamp_u8_np(_affine_np(YIQ2RGB.coeffs, yiq)))


def roundtrip_sweep(
    sample: Optional[int] = None,
    seed: int = 0,
    gray_only: bool = False,
) -> SweepResult:
    """Forward+reverse conversion error, exhaustively or on a subsample.

    The full sweep covers all 2^24 RGB triples in ascending (r, g, b)
    order, one block at a time, and reports the first triple attaining
    the maximum; chroma is carried signed, without the offset-128 byte
    encoding.
    """
    if gray_only:
        blocks = [np.tile(np.arange(256, dtype=np.int32), (3, 1))]
        total = 256
    elif sample is not None:
        if sample < 1:
            raise ValueError("sample size must be positive")
        rng = np.random.default_rng(seed)
        trip = rng.integers(0, 256, size=(sample, 3), dtype=np.int64)
        blocks = (
            trip[s : s + _BLOCK].T.astype(np.int32, order="C") for s in range(0, sample, _BLOCK)
        )
        total = sample
    else:
        blocks = _rgb_blocks()
        total = 256**3

    max_err = -1
    argmax = (0, 0, 0)
    per_ch = np.zeros(3, dtype=np.int32)
    err_sum = 0
    for rgb in blocks:
        err = _roundtrip_errors(rgb)
        per_ch = np.maximum(per_ch, err.max(axis=1))
        worst = err.max(axis=0)
        m = int(worst.max())
        if m > max_err:
            max_err = m
            argmax = tuple(int(v) for v in rgb[:, int(np.argmax(worst))])
        err_sum += int(err.sum())

    return SweepResult(
        max_error=max_err,
        mean_error=err_sum / (3 * total),
        argmax_rgb=argmax,
        per_channel_max=tuple(int(v) for v in per_ch),
        samples=total,
    )
