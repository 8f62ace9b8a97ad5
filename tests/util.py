"""Shared test helpers: deterministic random test images, the offset-128
byte encoding of signed-chroma pixels, an oracle for the YIQ byte maps,
and counter presets for IRAM tests."""

import numpy as np

from scpsim.image_io import ImageBuffer
from scpsim.fixed_point import clamp_u8


def random_rgb_image(rng, max_side=20) -> ImageBuffer:
    w = int(rng.integers(1, max_side + 1))
    h = int(rng.integers(1, max_side + 1))
    return ImageBuffer.from_array(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))


def random_gray_image(rng, max_side=24) -> ImageBuffer:
    w = int(rng.integers(1, max_side + 1))
    h = int(rng.integers(1, max_side + 1))
    return ImageBuffer.from_array(rng.integers(0, 256, (h, w), dtype=np.uint8))


def uniform_histogram_image(rng, repeats=1) -> ImageBuffer:
    """Every gray level occurs exactly ``repeats`` times, in random order."""
    values = np.repeat(np.arange(256, dtype=np.uint8), repeats)
    rng.shuffle(values)
    return ImageBuffer(width=256 * repeats, height=1, channels=1, samples=values)


def yiq_encode_offset128(p) -> tuple[int, int, int]:
    """Byte encoding of a signed-chroma pixel: chroma offset by 128, saturating."""
    y, i, q = p
    return (y, clamp_u8(i + 128), clamp_u8(q + 128))


def yiq_decode_offset128(p) -> tuple[int, int, int]:
    """Inverse of the offset-128 encoding (saturated values stay clipped)."""
    y, i, q = p
    return (y, i - 128, q - 128)


def low_contrast_image(rng, side=128, mean=125.0, spread=10.0) -> ImageBuffer:
    vals = np.clip(np.rint(rng.normal(mean, spread, (side, side))), 0, 255)
    return ImageBuffer.from_array(vals.astype(np.uint8))


def preset_counter(iram, bank, entry, count):
    """Add ``count`` to counter (bank, entry) of ``iram`` with one
    ``add_counters`` call of ``count`` invocations, one touch each; on a
    fresh ``IramState`` that sets the counter to ``count``."""
    touches = np.ones((count, 1), dtype=np.int64)
    iram.add_counters(bank * touches, entry * touches)
