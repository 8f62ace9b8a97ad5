"""Integer-only arithmetic primitives shared by every conversion kernel.

All pixel math in this package runs on signed integers scaled by 256,
with C-style division that truncates toward zero.  Keeping the three
primitives here, in one place, is what makes the scalar reference path,
the numpy batch path, and the fabric kernels bit-identical.
"""

from __future__ import annotations

import numpy as np

COEFF_LIMIT = 512


def check_coefficient(value: int) -> int:
    """Validate a scaled coefficient (interpreted as value / 256)."""
    value = int(value)
    if abs(value) > COEFF_LIMIT:
        raise ValueError(
            f"scaled coefficient {value} outside [-{COEFF_LIMIT}, {COEFF_LIMIT}]"
        )
    return value


def mul_acc3(coeffs, samples):
    """Exact three-term multiply-accumulate: c0*s0 + c1*s1 + c2*s2.

    Accepts plain ints or numpy arrays for the samples; no intermediate
    clamping, the accumulator keeps full signed precision.
    """
    c0, c1, c2 = coeffs
    s0, s1, s2 = samples
    return c0 * s0 + c1 * s1 + c2 * s2


def div256_trunc(x: int) -> int:
    """Divide by 256 truncating toward zero (C semantics, not floor).

    div256_trunc(-20910) == -81 where floor division would give -82.
    For x >= 0 this agrees with an unsigned right shift by 8.
    """
    if x >= 0:
        return x >> 8
    return -((-x) >> 8)


def div256_trunc_np(x: np.ndarray) -> np.ndarray:
    """Vectorized div256_trunc for signed integer arrays."""
    return np.sign(x) * (np.abs(x) >> 8)


def clamp_u8(x: int) -> int:
    """Saturate to the unsigned 8-bit range [0, 255]."""
    if x < 0:
        return 0
    if x > 255:
        return 255
    return x


def clamp_u8_np(x: np.ndarray) -> np.ndarray:
    """Vectorized clamp_u8; result stays in the input's integer dtype."""
    return np.clip(x, 0, 255)
