"""Byte-exact image buffers and portable anymap (PGM/PPM) I/O.

Only binary P5/P6 with maxval 255 are supported; the whole pipeline is
8-bit.  Readers tolerate header whitespace and '#' comments, writers
emit a canonical minimal header, and a round trip through
``write_pnm``/``read_pnm`` is the identity on any valid buffer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .fixed_point import div256_clamp_u8_np
# Unused here; kept for the benchmark tracer, which patches this name.
from .fixed_point import div256_trunc_np  # noqa: F401


class ChannelMismatch(ValueError):
    """Operation applied to a buffer with the wrong channel count."""


class PnmError(ValueError):
    """Base class for malformed portable-anymap input."""


class MalformedHeader(PnmError):
    pass


class UnsupportedMaxval(PnmError):
    pass


class TruncatedData(PnmError):
    pass


@dataclass(eq=False)
class ImageBuffer:
    """Row-major, interleaved, unsigned 8-bit image samples.

    ``samples`` may be any integer array with values in 0..255; raises
    ValueError for any other dtype or value.
    """

    width: int
    height: int
    channels: int
    samples: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        samples = np.asarray(self.samples)
        # Casting would wrap 300 to 44 and truncate 1.7 to 1; only bytes are kept as they are.
        if samples.dtype != np.uint8:
            if not np.issubdtype(samples.dtype, np.integer):
                raise ValueError(f"samples must be integers, got dtype {samples.dtype}")
            if samples.size and (samples.min() < 0 or samples.max() > 255):
                raise ValueError("samples must lie in 0..255")
        self.samples = np.ascontiguousarray(samples, dtype=np.uint8).ravel()
        expected = self.width * self.height * self.channels
        if self.samples.size != expected:
            raise ValueError(
                f"sample count {self.samples.size} != width*height*channels = {expected}"
            )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ImageBuffer":
        """Build from an (h, w) or (h, w, c) array."""
        arr = np.asarray(arr)
        if arr.ndim == 2:
            h, w = arr.shape
            c = 1
        elif arr.ndim == 3:
            h, w, c = arr.shape
        else:
            raise ValueError("expected a 2-D or 3-D array")
        return cls(width=w, height=h, channels=c, samples=arr)

    def __eq__(self, other):
        if not isinstance(other, ImageBuffer):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.channels == other.channels
            and np.array_equal(self.samples, other.samples)
        )


# ---------------------------------------------------------------------------
# Portable anymap codec
# ---------------------------------------------------------------------------

_WHITESPACE = b" \t\n\r\x0b\x0c"
#: Whitespace runs and '#' comments up to the newline, then the token.
_TOKEN = re.compile(rb"(?:[%s]+|#[^\n]*)*([^#%s]*)" % ((re.escape(_WHITESPACE),) * 2))


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token, skipping whitespace and '#' comment lines."""
    match = _TOKEN.match(data, pos)
    if not match.group(1):
        raise MalformedHeader("header ended early")
    return match.group(1), match.end()


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, pos = _next_token(data, pos)
    if not tok.isdigit():
        raise MalformedHeader(f"bad {what}: {tok!r}")
    try:
        return int(tok), pos
    except ValueError as exc:  # more digits than int() converts
        raise MalformedHeader(f"bad {what}: a {len(tok)}-digit number") from exc


def read_pnm(data: bytes) -> ImageBuffer:
    """Decode binary PGM (P5) or PPM (P6) bytes, maxval 255 only."""
    data = bytes(data)
    magic, pos = _next_token(data, 0)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise MalformedHeader(f"unsupported magic {magic!r}")
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise MalformedHeader("non-positive dimensions")
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval {maxval} unsupported, only 255")
    # Exactly one whitespace byte separates the header from the raster.
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise MalformedHeader("missing whitespace after maxval")
    pos += 1
    need = width * height * channels
    if len(data) - pos < need:
        raise TruncatedData(f"raster holds {len(data) - pos} of {need} bytes")
    # One copy, straight out of the file's bytes; bytes past the raster are ignored.
    samples = np.frombuffer(data, np.uint8, need, pos).copy()
    return ImageBuffer(width=width, height=height, channels=channels, samples=samples)


def write_pnm(img: ImageBuffer) -> bytes:
    """Encode as binary P5/P6 with a minimal comment-free header."""
    magic = "P5" if img.channels == 1 else "P6"
    header = f"{magic}\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.samples.tobytes()


def to_gray(img: ImageBuffer) -> ImageBuffer:
    """Collapse a 3-channel image to its fixed-point luminance channel, the
    Y channel of ``colorspace.RGB2YIQ``.  That row has no output offset and
    is clamped straight after the divide, so it divides with
    ``div256_clamp_u8_np``.  The frame is converted in passes of
    ``colorspace._BLOCK`` pixels, in int32 arrays carved from the calling
    thread's block workspace (``colorspace._block_arrays``), and each pass
    is written straight into the uint8 output, so the only array made per
    call is the output."""
    # Imported here because colorspace imports this module.
    from .colorspace import _BLOCK, RGB2YIQ, _block_arrays, _sums_np

    if img.channels != 3:
        raise ChannelMismatch(f"to_gray needs 3 channels, got {img.channels}")
    flat = img.samples.reshape(-1, 3)
    y = np.empty(len(flat), dtype=np.uint8)
    for start in range(0, len(flat), _BLOCK):
        pixels = flat[start : start + _BLOCK]
        samples, sums, _ = _block_arrays(len(pixels))
        samples[...] = pixels.T
        block = _sums_np(RGB2YIQ.columns[:, :1], samples, sums[:1])[0]
        y[start : start + len(pixels)] = div256_clamp_u8_np(block, out=block)
    return ImageBuffer(width=img.width, height=img.height, channels=1, samples=y)
