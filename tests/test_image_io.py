import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpsim import colorspace
from scpsim.colorspace import RGB2YIQ, convert_px
from scpsim.image_io import (
    ChannelMismatch,
    ImageBuffer,
    MalformedHeader,
    PnmError,
    TruncatedData,
    UnsupportedMaxval,
    read_pnm,
    to_gray,
    write_pnm,
)


def test_read_p5():
    data = b"P5 2 2 255 " + bytes([1, 2, 3, 4])
    for buf in (data, bytearray(data), memoryview(data)):
        img = read_pnm(buf)
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        assert img.samples.tolist() == [1, 2, 3, 4]


def test_read_p6_single_pixel():
    img = read_pnm(b"P6 1 1 255 " + bytes([10, 20, 30]))
    assert (img.width, img.height, img.channels) == (1, 1, 3)
    assert img.samples.tolist() == [10, 20, 30]


def test_read_rejects_wide_maxval():
    with pytest.raises(UnsupportedMaxval):
        read_pnm(b"P5 2 2 65535 " + bytes(8))


def test_read_tolerates_comments_and_whitespace():
    data = b"P5\n# shot in the dark\n  2\t2 # trailing\n255\n" + bytes([9, 8, 7, 6])
    img = read_pnm(data)
    assert img.samples.tolist() == [9, 8, 7, 6]


@pytest.mark.parametrize(
    "header",
    [b"P5%s2%s2%s255%s" % ((bytes([byte]),) * 4) for byte in b" \t\n\r\x0b\x0c"]
    + [b"P5#c\n2 2 255\n", b"P5#a\n2#b\n2#c\n255\n", b"P5 #a\r\n\t2 #b\n 2\x0c#c\n255\x0b"],
    ids=["space", "tab", "newline", "return", "vertical-tab", "form-feed",
         "comment-after-magic", "comment-between-every-field", "comments-and-mixed-whitespace"],
)
def test_read_tolerates_every_header_separator(header):
    img = read_pnm(header + bytes([9, 8, 7, 6]))
    assert (img.width, img.height, img.channels) == (2, 2, 1)
    assert img.samples.tolist() == [9, 8, 7, 6]


def test_read_rejects_bad_magic():
    with pytest.raises(MalformedHeader):
        read_pnm(b"P3 1 1 255 aaa")


def test_read_rejects_missing_fields():
    with pytest.raises(MalformedHeader):
        read_pnm(b"P5 2")


def test_read_rejects_nonnumeric_dimension():
    with pytest.raises(MalformedHeader):
        read_pnm(b"P5 two 2 255 aaaa")


def test_read_rejects_a_header_number_too_long_to_convert():
    # int() refuses strings over 4300 digits with a plain ValueError
    with pytest.raises(MalformedHeader):
        read_pnm(b"P5 " + b"1" * 5000 + b" 1 255 \x00")


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5 0 2 255 ", "non-positive dimensions"),
        (b"P5 2 0 255 ", "non-positive dimensions"),
        (b"P5 1 1 255", "missing whitespace after maxval"),
        (b"P5 1 1 255#\n\x00", "missing whitespace after maxval"),
        (b"P5 1 1 # a comment to the end of the data", "header ended early"),
        (b"P5#c", "header ended early"),
    ],
    ids=["zero-width", "zero-height", "header-ends-at-maxval", "comment-after-maxval",
         "comment-to-end-of-data", "comment-to-end-after-magic"],
)
def test_read_rejects_empty_dimensions_and_a_raster_glued_to_maxval(data, message):
    with pytest.raises(MalformedHeader, match=f"^{message}$"):
        read_pnm(data)


def test_read_truncated_raster():
    with pytest.raises(TruncatedData):
        read_pnm(b"P5 2 2 255 " + bytes(3))


def test_read_ignores_bytes_past_the_raster():
    assert read_pnm(b"P5 2 1 255 " + bytes([1, 2, 3, 4])).samples.tolist() == [1, 2]


def test_read_pnm_decodes_with_one_copy():
    # A 2048x2048 PPM holds 12 MiB of samples; slicing the raster out of
    # the file's bytes and then copying the slice held 24 MiB.
    data = write_pnm(ImageBuffer.from_array(np.full((2048, 2048, 3), 7, dtype=np.uint8)))
    tracemalloc.start()
    try:
        img = read_pnm(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert img.samples.size == 2048 * 2048 * 3 and img.samples.min() == 7


def test_write_canonical_header():
    img = ImageBuffer(width=1, height=1, channels=1, samples=np.zeros(1, np.uint8))
    assert write_pnm(img) == b"P5\n1 1\n255\n\x00"


def test_write_p6_magic():
    img = ImageBuffer(width=1, height=2, channels=3, samples=np.arange(6, dtype=np.uint8))
    assert write_pnm(img).startswith(b"P6\n")


@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from([1, 3]),
    st.integers(0, 2**32 - 1),
)
def test_pnm_round_trip(width, height, channels, seed):
    rng = np.random.default_rng(seed)
    img = ImageBuffer(
        width=width,
        height=height,
        channels=channels,
        samples=rng.integers(0, 256, width * height * channels, dtype=np.uint8),
    )
    assert read_pnm(write_pnm(img)) == img


def test_to_gray_extremes():
    white = ImageBuffer(width=2, height=1, channels=3, samples=np.full(6, 255, np.uint8))
    assert to_gray(white).samples.tolist() == [255, 255]
    black = ImageBuffer(width=2, height=1, channels=3, samples=np.zeros(6, np.uint8))
    assert to_gray(black).samples.tolist() == [0, 0]


def test_to_gray_uses_luminance_row():
    img = ImageBuffer(width=1, height=1, channels=3, samples=np.array([100, 50, 25], np.uint8))
    assert to_gray(img).samples.tolist() == [62]


def test_to_gray_is_the_forward_luma_row():
    rng = np.random.default_rng(21)
    extremes = np.array(list(itertools.product((0, 1, 254, 255), repeat=3)), dtype=np.uint8)
    # One pass of the vectorized core is colorspace._BLOCK pixels.
    block = colorspace._BLOCK
    sizes = (500, block - 1, block, block + 1, 2 * block + 1)
    frames = [rng.integers(0, 256, (n, 3), dtype=np.uint8) for n in sizes]
    for flat in (*frames, extremes):
        img = ImageBuffer(width=len(flat), height=1, channels=3, samples=flat.ravel())
        assert to_gray(img).samples.tolist() == [convert_px(RGB2YIQ, p)[0] for p in flat]


def test_to_gray_converts_a_block_at_a_time(monkeypatch):
    passes = []
    carve = colorspace._block_arrays

    def counting(k):
        passes.append(k)
        return carve(k)

    monkeypatch.setattr(colorspace, "_block_arrays", counting)
    rgb = np.random.default_rng(5).integers(0, 256, (40, 24, 3), dtype=np.uint8)
    to_gray(ImageBuffer.from_array(rgb))
    assert passes == [960]
    monkeypatch.undo()
    # A 2048x2048 frame is 12 MiB of samples and 4 MiB of output; the whole
    # frame's int32 sums would be 64 MiB.
    img = ImageBuffer.from_array(np.full((2048, 2048, 3), 255, dtype=np.uint8))
    tracemalloc.start()
    try:
        gray = to_gray(img)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert gray.samples.min() == 255


def test_to_gray_needs_three_channels():
    gray = ImageBuffer(width=1, height=1, channels=1, samples=np.zeros(1, np.uint8))
    with pytest.raises(ChannelMismatch):
        to_gray(gray)


def test_buffer_validation():
    with pytest.raises(ValueError):
        ImageBuffer(width=0, height=1, channels=1, samples=np.zeros(0, np.uint8))
    with pytest.raises(ValueError):
        ImageBuffer(width=2, height=2, channels=2, samples=np.zeros(8, np.uint8))
    with pytest.raises(ValueError):
        ImageBuffer(width=2, height=2, channels=1, samples=np.zeros(5, np.uint8))


@pytest.mark.parametrize(
    "samples",
    [np.array([[300, -1, 7]]), np.array([[-1, 0, 7]]), np.array([[256, 0, 7]]),
     np.array([[1.7, 0.0, 7.0]]), np.array([[1.0, 0.0, 7.0]]), np.array([[True, False, True]])],
    ids=["300-and-minus-1", "minus-1", "256", "float", "integral-float", "bool"],
)
def test_buffer_rejects_samples_that_are_not_bytes(samples):
    with pytest.raises(ValueError):
        ImageBuffer.from_array(samples)


def test_buffer_keeps_integer_samples_in_byte_range():
    for dtype in (np.uint8, np.int64, np.uint16, np.int8):
        img = ImageBuffer.from_array(np.array([[0, 100, 127]], dtype=dtype))
        assert img.samples.dtype == np.uint8
        assert img.samples.tolist() == [0, 100, 127]
    assert ImageBuffer.from_array(np.array([[0, 255]])).samples.tolist() == [0, 255]


def test_buffer_from_array_shapes():
    gray = ImageBuffer.from_array(np.zeros((3, 4), np.uint8))
    assert (gray.width, gray.height, gray.channels) == (4, 3, 1)
    rgb = ImageBuffer.from_array(np.zeros((3, 4, 3), np.uint8))
    assert (rgb.width, rgb.height, rgb.channels) == (4, 3, 3)
    with pytest.raises(ValueError, match="^expected a 2-D or 3-D array$"):
        ImageBuffer.from_array(np.zeros(4, np.uint8))
    assert (gray == 3) is False


header_tokens = st.one_of(
    st.sampled_from([b"P5", b"P6", b"P3", b"255", b"0", b"-1", b"#x\n", b"65535"]),
    st.integers(0, 2**40).map(lambda v: str(v).encode()),
    st.binary(max_size=4),
)
pnm_like = st.builds(
    lambda tokens, sep, raster: sep.join(tokens) + raster,
    st.lists(header_tokens, max_size=5),
    st.sampled_from([b" ", b"\n", b"\t", b"", b"#\n"]),
    st.binary(max_size=24),
)


@settings(max_examples=200)
@given(st.binary(max_size=48) | pnm_like)
def test_read_pnm_raises_only_pnm_errors(data):
    try:
        read_pnm(data)
    except PnmError:
        pass
