"""Fixed-point color-space conversion kernels.

Every conversion is an affine map in /256 fixed point: subtract a
per-channel input offset, multiply by a 3x3 scaled-integer matrix,
divide by 256 truncating toward zero, add a per-channel output offset,
saturate to a byte.  The offsets are how signed chroma rides in
unsigned bytes: luma/chroma images and wide registers store i and q
offset by 128, while the scalar conversion functions keep them at full
signed precision.

Three routes compute the same map and are kept bit-identical:

* per-pixel scalar functions (the reference),
* a numpy batch path (the plain-processor "scalar mode" for images),
* fabric kernels processing 1, 5, or 8 pixels per invocation, issued
  as one batch per image; the kernel body is the batch path applied to
  the pixel bytes of every invocation's registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Optional

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

    def as_array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64)


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
CMY2RGB = ConversionMatrix(
    name="cmy2rgb",
    coeffs=RGB2CMY.coeffs,
    output_offset=(255, 255, 255),
)


# ---------------------------------------------------------------------------
# Scalar reference functions
# ---------------------------------------------------------------------------


def rgb_to_yiq_px(p) -> tuple[int, int, int]:
    """Forward conversion of one pixel: luma in [0, 255], chroma at full
    signed precision (|i| <= 152, |q| <= 134)."""
    r, g, b = p
    rows = RGB2YIQ.coeffs
    y = clamp_u8(div256_trunc(mul_acc3(rows[0], (r, g, b))))
    i = div256_trunc(mul_acc3(rows[1], (r, g, b)))
    q = div256_trunc(mul_acc3(rows[2], (r, g, b)))
    return (y, i, q)


def yiq_to_rgb_px(p) -> tuple[int, int, int]:
    """Reverse conversion of one pixel from signed chroma."""
    y, i, q = p
    rows = YIQ2RGB.coeffs
    return (
        clamp_u8(div256_trunc(mul_acc3(rows[0], (y, i, q)))),
        clamp_u8(div256_trunc(mul_acc3(rows[1], (y, i, q)))),
        clamp_u8(div256_trunc(mul_acc3(rows[2], (y, i, q)))),
    )


def rgb_to_cmy_px(p) -> tuple[int, int, int]:
    """Componentwise complement; involutive."""
    r, g, b = p
    return (255 - r, 255 - g, 255 - b)


def yiq_encode_offset128(p) -> tuple[int, int, int]:
    """Byte encoding of a signed-chroma pixel: chroma offset by 128, saturating."""
    y, i, q = p
    return (y, clamp_u8(i + 128), clamp_u8(q + 128))


def yiq_decode_offset128(p) -> tuple[int, int, int]:
    """Inverse of the offset-128 encoding (saturated values stay clipped)."""
    y, i, q = p
    return (y, i - 128, q - 128)


def convert_px(matrix: ConversionMatrix, p) -> tuple[int, int, int]:
    """One pixel through the full byte-to-byte affine map.

    This is the per-lane oracle: every fabric kernel lane and every
    batch-converted pixel must equal it exactly.
    """
    s = tuple(int(v) - off for v, off in zip(p, matrix.input_offset))
    return tuple(
        clamp_u8(div256_trunc(mul_acc3(row, s)) + off)
        for row, off in zip(matrix.coeffs, matrix.output_offset)
    )


# ---------------------------------------------------------------------------
# Batch path (plain-processor "scalar mode" for whole images)
# ---------------------------------------------------------------------------


def apply_matrix_np(flat: np.ndarray, matrix: ConversionMatrix) -> np.ndarray:
    """Convert an (n, 3) uint8 sample block; bit-exact to convert_px."""
    s = flat.astype(np.int64) - np.array(matrix.input_offset, dtype=np.int64)
    acc = s @ matrix.as_array().T
    out = div256_trunc_np(acc) + np.array(matrix.output_offset, dtype=np.int64)
    return clamp_u8_np(out).astype(np.uint8)


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


CONVERT_MODES = ("scalar", "ei1", "ei5", "ei8")


def convert_image(
    img: ImageBuffer,
    matrix: ConversionMatrix,
    mode: str,
    profile: Optional[cycle_model.CalibrationProfile] = None,
    buffer_location: str = "internal",
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
    report = cycle_model.checked_report(
        "yiq", mode, n, profile, buffer_location, log.total - logged
    )
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


def _roundtrip_errors(r, g, b):
    fwd = RGB2YIQ.coeffs
    rev = YIQ2RGB.coeffs
    y = clamp_u8_np(div256_trunc_np(mul_acc3(fwd[0], (r, g, b))))
    i = div256_trunc_np(mul_acc3(fwd[1], (r, g, b)))
    q = div256_trunc_np(mul_acc3(fwd[2], (r, g, b)))
    rr = clamp_u8_np(div256_trunc_np(mul_acc3(rev[0], (y, i, q))))
    gg = clamp_u8_np(div256_trunc_np(mul_acc3(rev[1], (y, i, q))))
    bb = clamp_u8_np(div256_trunc_np(mul_acc3(rev[2], (y, i, q))))
    return np.abs(r - rr), np.abs(g - gg), np.abs(b - bb)


def roundtrip_sweep(
    sample: Optional[int] = None,
    seed: int = 0,
    gray_only: bool = False,
) -> SweepResult:
    """Forward+reverse conversion error, exhaustively or on a subsample.

    The full sweep covers all 2^24 RGB triples in ascending (r, g, b)
    order and reports the first triple attaining the maximum; chroma is
    carried signed, without the offset-128 byte encoding.
    """
    if gray_only:
        v = np.arange(256, dtype=np.int64)
        planes = [(v, v, v)]
        total = 256
    elif sample is not None:
        if sample < 1:
            raise ValueError("sample size must be positive")
        rng = np.random.default_rng(seed)
        trip = rng.integers(0, 256, size=(sample, 3), dtype=np.int64)
        planes = [(trip[:, 0], trip[:, 1], trip[:, 2])]
        total = sample
    else:
        g, b = np.meshgrid(
            np.arange(256, dtype=np.int64), np.arange(256, dtype=np.int64), indexing="ij"
        )
        g = g.ravel()
        b = b.ravel()
        planes = [(np.full_like(g, r0), g, b) for r0 in range(256)]
        total = 256**3

    max_err = -1
    argmax = (0, 0, 0)
    per_ch = [0, 0, 0]
    err_sum = 0
    for r, g, b in planes:
        er, eg, eb = _roundtrip_errors(r, g, b)
        for c, e in enumerate((er, eg, eb)):
            per_ch[c] = max(per_ch[c], int(e.max()))
        worst = np.maximum(np.maximum(er, eg), eb)
        m = int(worst.max())
        if m > max_err:
            idx = int(np.argmax(worst))
            max_err = m
            argmax = (int(r[idx]), int(g[idx]), int(b[idx]))
        err_sum += int(er.sum()) + int(eg.sum()) + int(eb.sum())

    return SweepResult(
        max_error=max_err,
        mean_error=err_sum / (3 * total),
        argmax_rgb=argmax,
        per_channel_max=tuple(per_ch),
        samples=total,
    )
