"""Integer-only arithmetic primitives shared by every conversion kernel.

All pixel math in this package runs on signed integers scaled by 256,
with C-style division that truncates toward zero.  The scalar reference
path sums its products with ``mul_acc3`` and divides with
``div256_trunc``.  The batch path under the fabric kernels
(``colorspace.apply_matrix_np``) takes the same quotients from one
float32 matrix product of ``coeffs / 256`` with the samples, which is
exact because ``COEFF_LIMIT`` and ``OFFSET_LIMIT`` keep every product and
partial sum a multiple of 2^-8 below 2^12, within float32's 24-bit
significand, and from a cast to int32, which truncates toward zero as
``div256_trunc`` does.  Both paths saturate with the clamps below.  The
round-trip sweep and ``image_io.to_gray`` sum integer products as
``mul_acc3`` does and divide with ``div256_trunc_np`` or
``div256_clamp_u8_np``.

Truncation matters only where a negative quotient survives.  A quotient
clamped to a byte straight after the divide may take a floor shift
instead (``div256_clamp_u8_np``): both forms clamp every negative sum to
0.  Signed chroma, which is kept unclamped, and a row with a positive
output offset added before the clamp still need ``div256_trunc_np``.
"""

from __future__ import annotations

import operator
from typing import Optional

import numpy as np

COEFF_LIMIT = 512
#: Largest magnitude of a per-channel input or output offset: enough to
#: move any byte anywhere in [0, 255].  With it a sample less its offset
#: has |s| <= 510, so an accumulator has |acc| <= 3 * 512 * 510 < 2^20:
#: int32 sums cannot overflow, and acc / 256, a multiple of 2^-8 below
#: 2^12, is exact in float32.
OFFSET_LIMIT = 255


def check_coefficient(value: int) -> int:
    """Validate a scaled coefficient (interpreted as value / 256)."""
    try:
        # Unlike int(), index() rejects 128.5 and '77'; the scalar oracle takes neither.
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"scaled coefficient must be an integer, got {value!r}") from None
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


def div256_trunc_np(
    x: np.ndarray, out: Optional[np.ndarray] = None, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Vectorized div256_trunc for signed integer arrays, in their dtype.

    The arithmetic shift floors; adding 255 to a negative value first
    turns that into truncation.  The sign mask ``x >> (bits - 1)`` is -1
    for a negative value and 0 otherwise, so this is exact over the whole
    range of every signed dtype: nothing is added to a value that could
    overflow.  The mask is the one temporary of ``x``'s size; it is built
    in ``mask``, an array of ``x``'s shape and dtype, where one is given.
    The quotient is written to ``out``, which may be ``x`` itself, and
    returned; without ``out`` it is built in the mask's array.
    """
    q = np.right_shift(x, 8 * x.dtype.itemsize - 1, out=mask)
    q &= 255
    if out is None:
        out = q
    np.add(x, q, out=out)
    out >>= 8
    return out


def clamp_u8(x: int) -> int:
    """Saturate to the unsigned 8-bit range [0, 255]."""
    if x < 0:
        return 0
    if x > 255:
        return 255
    return x


#: clamp_u8_np's bounds.  As numpy scalars they skip the two ``np.iinfo``
#: lookups that ``np.clip`` makes for Python-int bounds; those and its
#: argument handling cost about as much as clamping an 8192-pixel block.
_U8_BOUNDS = (np.int32(0), np.int32(255))


def clamp_u8_np(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized clamp_u8 for int32 or wider signed arrays, in their dtype.
    The result is written to ``out``, which may be ``x`` itself, or to a
    new array without one."""
    return x.clip(*_U8_BOUNDS, out=out)


def div256_clamp_u8_np(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized ``clamp_u8(div256_trunc(x))`` for int32 or wider signed
    arrays, in their dtype: a floor shift by 8, then the clamp.

    ``clamp_u8(x >> 8) == clamp_u8(div256_trunc(x))`` for every integer x.
    The two divides differ only for a negative x that is not a multiple
    of 256, where truncation gives a quotient <= 0 and the floor one <= -1;
    both clamp to 0.  No bound on x is needed, and the shift cannot
    overflow.  The result is written to ``out``, which may be ``x`` itself,
    or to a new array without one.
    """
    out = np.right_shift(x, 8, out=out)
    return clamp_u8_np(out, out=out)
