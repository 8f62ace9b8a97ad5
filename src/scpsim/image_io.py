"""Byte-exact image buffers and portable anymap (PGM/PPM) I/O.

Only binary P5/P6 with maxval 255 are supported; the whole pipeline is
8-bit.  Readers tolerate header whitespace and '#' comments, writers
emit a canonical minimal header, and a round trip through
``write_pnm``/``read_pnm`` is the identity on any valid buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token, skipping whitespace and '#' comment lines."""
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch in _WHITESPACE:
            pos += 1
        elif ch == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise MalformedHeader("header ended early")
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


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
    raster = data[pos : pos + need]
    if len(raster) < need:
        raise TruncatedData(f"raster holds {len(raster)} of {need} bytes")
    samples = np.frombuffer(raster, dtype=np.uint8).copy()
    return ImageBuffer(width=width, height=height, channels=channels, samples=samples)


def write_pnm(img: ImageBuffer) -> bytes:
    """Encode as binary P5/P6 with a minimal comment-free header."""
    magic = "P5" if img.channels == 1 else "P6"
    header = f"{magic}\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.samples.tobytes()


def to_gray(img: ImageBuffer) -> ImageBuffer:
    """Collapse a 3-channel image to its fixed-point luminance channel, the
    Y channel of ``colorspace.RGB2YIQ``."""
    # Imported here because colorspace imports this module.
    from .colorspace import RGB2YIQ, apply_matrix_np

    if img.channels != 3:
        raise ChannelMismatch(f"to_gray needs 3 channels, got {img.channels}")
    y = apply_matrix_np(img.samples.reshape(-1, 3), RGB2YIQ)[:, 0]
    return ImageBuffer(width=img.width, height=img.height, channels=1, samples=y)
