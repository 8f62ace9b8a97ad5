import gc
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scpsim import colorspace, cycle_model
from scpsim.colorspace import (
    CONVERT_MODES,
    ConversionMatrix,
    RGB2CMY,
    RGB2YIQ,
    ROUNDTRIP_ARGMAX,
    ROUNDTRIP_MAX_ERROR,
    YIQ2RGB,
    apply_matrix_np,
    convert_image,
    convert_px,
    matrix_ei,
    rgb_to_yiq_px,
    roundtrip_sweep,
    yiq_to_rgb_px,
)
from scpsim.fixed_point import COEFF_LIMIT, OFFSET_LIMIT, clamp_u8, div256_trunc, mul_acc3
from scpsim.image_io import ChannelMismatch, ImageBuffer, to_gray
from scpsim.fabric import (
    InvocationLog,
    WideRegister,
    ei_execute,
    ei_execute_batch,
    ei_validate,
    wr_pack,
    wr_unpack,
)

from util import random_rgb_image, yiq_decode_offset128, yiq_encode_offset128

try:
    import resource
except ImportError:  # not on every platform
    resource = None

rgb_triples = st.tuples(*(st.integers(0, 255),) * 3)

#: The one message of a bad (family, mode) pair, from every entry point.
UNCALIBRATED = (
    "no calibrated workload '{}' in mode '{}'; calibrated: yiq scalar/ei1/ei5/ei8, histeq scalar/isef"
)


# ------------------------------------------------------------ scalar ops


@pytest.mark.parametrize(
    "rgb,yiq",
    [((0, 0, 0), (0, 0, 0)), ((255, 255, 255), (255, 0, 0)), ((100, 50, 25), (62, 38, 2))],
)
def test_rgb_to_yiq_examples(rgb, yiq):
    assert tuple(rgb_to_yiq_px(rgb)) == yiq


@pytest.mark.parametrize(
    "yiq,rgb",
    [((0, 0, 0), (0, 0, 0)), ((255, 0, 0), (255, 255, 255)), ((62, 38, 2), (99, 50, 23))],
)
def test_yiq_to_rgb_examples(yiq, rgb):
    assert tuple(yiq_to_rgb_px(yiq)) == rgb


@pytest.mark.parametrize(
    "rgb,cmy",
    [((0, 0, 0), (255, 255, 255)), ((255, 255, 255), (0, 0, 0)), ((100, 50, 25), (155, 205, 230))],
)
def test_rgb_to_cmy_examples(rgb, cmy):
    assert convert_px(RGB2CMY, rgb) == cmy


@pytest.mark.parametrize(
    "yiq,encoded",
    [((62, 38, 2), (62, 166, 130)), ((0, 0, 0), (0, 128, 128)), ((76, 152, 53), (76, 255, 181))],
)
def test_offset128_encoding_examples(yiq, encoded):
    assert yiq_encode_offset128(yiq) == encoded


@given(st.tuples(st.integers(0, 255), st.integers(-127, 127), st.integers(-127, 127)))
def test_offset128_round_trip_within_range(yiq):
    assert tuple(yiq_decode_offset128(yiq_encode_offset128(yiq))) == yiq


def test_gray_axiom_all_levels():
    for v in range(256):
        assert tuple(rgb_to_yiq_px((v, v, v))) == (v, 0, 0)
        assert tuple(yiq_to_rgb_px((v, 0, 0))) == (v, v, v)


@given(rgb_triples)
def test_chroma_extrema(rgb):
    _, i, q = rgb_to_yiq_px(rgb)
    assert abs(i) <= 152
    assert abs(q) <= 134


def test_scalar_functions_take_a_uint8_row_of_samples():
    pixels = [(200, 200, 200), (255, 0, 255), (10, 250, 3), (0, 0, 0)]
    img = ImageBuffer(width=4, height=1, channels=3, samples=np.array(pixels, dtype=np.uint8))
    for row, p in zip(img.samples.reshape(-1, 3), pixels):
        assert row.dtype == np.uint8
        assert rgb_to_yiq_px(row) == rgb_to_yiq_px(p)
        assert yiq_to_rgb_px(row) == yiq_to_rgb_px(p)
        for matrix in (RGB2YIQ, YIQ2RGB, RGB2CMY):
            assert convert_px(matrix, row) == convert_px(matrix, p), matrix.name


# ------------------------------------------------------------ matrices


def test_builtin_matrix_rows():
    assert RGB2YIQ.coeffs == ((77, 150, 29), (153, -70, -82), (54, -134, 80))
    assert YIQ2RGB.coeffs == ((256, 245, 159), (256, -70, -166), (256, -283, 436))


def test_matrix_near_inverse():
    product = np.array(YIQ2RGB.coeffs) @ np.array(RGB2YIQ.coeffs) / 256.0**2
    assert np.abs(product - np.eye(3)).max() <= 2 / 256


def test_matrix_validation():
    for coefficient in (600, 128.5, "77"):
        with pytest.raises(ValueError):
            ConversionMatrix(name="bad", coeffs=((coefficient, 0, 0), (0, 256, 0), (0, 0, 256)))
    with pytest.raises(ValueError):
        ConversionMatrix(name="bad", coeffs=((1, 2), (3, 4), (5, 6)))
    identity = ((256, 0, 0), (0, 256, 0), (0, 0, 256))
    too_far = ((-(2**55), 0, 0), (0, 2**63, 0), (0, 0, OFFSET_LIMIT + 1), (-OFFSET_LIMIT - 1, 0, 0))
    for offset in ((1, 2, 3, 4), (1, 2), (0, 0.5, 0), *too_far):
        with pytest.raises(ValueError):
            ConversionMatrix(name="bad", coeffs=identity, output_offset=offset)
        with pytest.raises(ValueError):
            ConversionMatrix(name="bad", coeffs=identity, input_offset=offset)
    edge = (-OFFSET_LIMIT, OFFSET_LIMIT, 0)
    ConversionMatrix(name="edge", coeffs=identity, input_offset=edge, output_offset=edge)


def test_compiled_core_is_read_only():
    assert (RGB2YIQ.scaled * 256).tolist() == [list(row) for row in RGB2YIQ.coeffs]
    assert YIQ2RGB.input_column[:, 0].tolist() == [0, 128, 128]
    assert YIQ2RGB.output_column[:, 0].tolist() == [0, 0, 0]
    assert RGB2YIQ.scaled.dtype == np.float32 and RGB2YIQ.scaled.flags.c_contiguous
    for array in (RGB2YIQ.input_column, RGB2YIQ.output_column, RGB2YIQ.scaled):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_offset_passes_are_skipped_only_for_all_zero_offsets():
    passes = {m.name: (m.shifts_input, m.shifts_output) for m in (RGB2YIQ, YIQ2RGB, RGB2CMY)}
    assert passes == {"rgb2yiq": (False, True), "yiq2rgb": (True, False), "rgb2cmy": (False, True)}
    one_each = ConversionMatrix("one", RGB2YIQ.coeffs, input_offset=(0, 0, -1), output_offset=(1, 0, 0))
    assert (one_each.shifts_input, one_each.shifts_output) == (True, True)


def test_the_float32_core_is_exact():
    # A coefficient over 256 is a multiple of 2^-8; so is every product
    # with an integer sample, and every partial sum of three.  The widest
    # such sum the limits allow, over 256, must keep its 2^-8 bit inside
    # float32's 24-bit significand: below 2^(24 - 8).
    widest = 3 * COEFF_LIMIT * (255 + OFFSET_LIMIT)
    assert widest < 2**20 and widest / 256 < 2 ** (24 - 8)
    for acc in (widest, widest - 1, -widest + 1, COEFF_LIMIT * (255 + OFFSET_LIMIT) - 1):
        assert float(np.float32(acc / 256)) * 256 == acc
    for matrix in (RGB2YIQ, YIQ2RGB, RGB2CMY):
        assert matrix.scaled.dtype == np.float32
        assert (matrix.scaled.astype(np.float64) * 256).tolist() == [list(row) for row in matrix.coeffs]
    # The sweep's forward quotients are the first block's plus the r and g
    # columns' share, by linearity; with every sample at most 255, each
    # term and partial sum is below the widest row's sum of |coefficient|
    # times 255, over 256.
    forward = np.abs(np.array(RGB2YIQ.coeffs, dtype=np.int64))
    grid = int(forward.sum(axis=1).max()) * 255
    assert grid / 256 < 2 ** (24 - 8)
    # Its truncated chroma lies within +-255, as the reverse map's bound takes.
    chroma = np.array(RGB2YIQ.coeffs[1:], dtype=np.int64)
    most = max(chroma.clip(0).sum(axis=1).max(), (-chroma).clip(0).sum(axis=1).max())
    assert most * 255 // 256 <= 255
    # The reverse map takes integer Y in [0, 255] and |I|, |Q| <= 255.
    reverse = int(np.abs(np.array(YIQ2RGB.coeffs, dtype=np.int64)).sum(axis=1).max()) * 255
    assert reverse < 2**19 and reverse / 256 < 2 ** (24 - 8)
    for acc in (grid, -grid, reverse, -reverse, reverse - 1):
        assert float(np.float32(acc / 256)) * 256 == acc


def test_matrices_equal_by_their_fields_are_equal_and_hash_alike():
    twin = ConversionMatrix(RGB2YIQ.name, RGB2YIQ.coeffs, RGB2YIQ.input_offset, RGB2YIQ.output_offset)
    assert twin.scaled is not RGB2YIQ.scaled
    assert twin == RGB2YIQ and hash(twin) == hash(RGB2YIQ)
    assert repr(twin) == repr(RGB2YIQ) and "scaled" not in repr(twin)
    assert twin != ConversionMatrix("other", RGB2YIQ.coeffs, RGB2YIQ.input_offset, RGB2YIQ.output_offset)


def test_cmy_matrix_matches_direct_complement():
    for rgb in [(0, 0, 0), (255, 255, 255), (100, 50, 25), (1, 128, 254)]:
        assert convert_px(RGB2CMY, rgb) == tuple(255 - v for v in rgb)


@given(rgb_triples)
def test_cmy_is_involutive(rgb):
    assert convert_px(RGB2CMY, convert_px(RGB2CMY, rgb)) == rgb


@given(rgb_triples)
def test_convert_px_composes_scalar_ops(rgb):
    # forward byte map == encode(offset128) . signed conversion
    assert convert_px(RGB2YIQ, rgb) == yiq_encode_offset128(rgb_to_yiq_px(rgb))
    # reverse byte map == signed reverse . decode(offset128)
    encoded = convert_px(RGB2YIQ, rgb)
    assert convert_px(YIQ2RGB, encoded) == tuple(yiq_to_rgb_px(yiq_decode_offset128(encoded)))


@given(st.lists(rgb_triples, min_size=1, max_size=40))
def test_batch_path_matches_per_pixel(pixels):
    flat = np.array(pixels, dtype=np.uint8)
    for matrix in (RGB2YIQ, YIQ2RGB, RGB2CMY):
        got = apply_matrix_np(flat, matrix)
        expect = np.array([convert_px(matrix, p) for p in pixels], dtype=np.uint8)
        assert np.array_equal(got, expect), matrix.name


# ------------------------------------------------------------ fabric lanes


def test_ei_convert5_uniform_pixels():
    wr = wr_pack(bytes([100, 50, 25] * 5))
    (out,) = ei_execute(matrix_ei(RGB2YIQ, 5), (wr,))
    assert out.data == bytes([62, 166, 130] * 5) + b"\x00"


def test_ei_convert5_zero_pixels():
    (out,) = ei_execute(matrix_ei(RGB2YIQ, 5), (wr_pack(bytes(15)),))
    assert out.data == bytes([0, 128, 128] * 5) + b"\x00"


def test_ei_convert5_lanewise_equals_scalar():
    pixels = [(1, 2, 3), (250, 0, 99), (77, 150, 29), (10, 200, 30), (100, 50, 25)]
    wr = wr_pack(bytes(v for p in pixels for v in p))
    (out,) = ei_execute(matrix_ei(RGB2YIQ, 5), (wr,))
    for lane, p in enumerate(pixels):
        assert tuple(wr_unpack(out, 3 * lane, 3)) == convert_px(RGB2YIQ, p)


def test_ei_convert8_uniform_pixels():
    raw = bytes([100, 50, 25] * 8)
    out_a, out_b = ei_execute(matrix_ei(RGB2YIQ, 8), (wr_pack(raw[:16]), wr_pack(raw[16:])))
    assert out_a.data + wr_unpack(out_b, 0, 8) == bytes([62, 166, 130] * 8)
    assert wr_unpack(out_b, 8, 8) == bytes(8)


def test_ei_convert8_white_pixels():
    raw = bytes([255] * 24)
    out_a, out_b = ei_execute(matrix_ei(RGB2YIQ, 8), (wr_pack(raw[:16]), wr_pack(raw[16:])))
    assert out_a.data + wr_unpack(out_b, 0, 8) == bytes([255, 128, 128] * 8)


def test_ei_convert8_lanewise_equals_scalar():
    rng = np.random.default_rng(3)
    pixels = [tuple(int(v) for v in rng.integers(0, 256, 3)) for _ in range(8)]
    raw = bytes(v for p in pixels for v in p)
    out_a, out_b = ei_execute(matrix_ei(RGB2YIQ, 8), (wr_pack(raw[:16]), wr_pack(raw[16:])))
    merged = out_a.data + wr_unpack(out_b, 0, 8)
    for lane, p in enumerate(pixels):
        assert tuple(merged[3 * lane : 3 * lane + 3]) == convert_px(RGB2YIQ, p)


@given(rgb_triples)
@settings(max_examples=50)
def test_ei_convert1_equals_scalar(rgb):
    (out,) = ei_execute(matrix_ei(RGB2YIQ, 1), (wr_pack(bytes(rgb)),))
    assert tuple(wr_unpack(out, 0, 3)) == convert_px(RGB2YIQ, rgb)


def test_lane_kernel_resources():
    ei5 = matrix_ei(RGB2YIQ, 5)
    ei8 = matrix_ei(RGB2YIQ, 8)
    assert ei5.ledger.multipliers_used == 45 and ei_validate(ei5) == 1
    assert ei8.ledger.multipliers_used == 72 and ei_validate(ei8) == 2
    assert matrix_ei(RGB2YIQ, 1).ledger.multipliers_used == 9
    for lanes in (3, 0, 16):
        with pytest.raises(cycle_model.UnknownKernelConfig) as exc:
            matrix_ei(RGB2YIQ, lanes)
        assert str(exc.value) == UNCALIBRATED.format("yiq", f"ei{lanes}")


# ------------------------------------------------------------ whole images


def test_matrix_ei_keeps_no_kernel_alive():
    fresh = ConversionMatrix(name="fresh", coeffs=((1, 2, 3), (4, 5, 6), (7, 8, 9)))
    kernel = weakref.ref(matrix_ei(fresh, 5))
    gc.collect()
    assert kernel() is None


def test_convert_image_rejects_single_channel():
    gray = ImageBuffer(width=2, height=2, channels=1, samples=np.zeros(4, np.uint8))
    with pytest.raises(ChannelMismatch):
        convert_image(gray, RGB2YIQ, "scalar")


def test_convert_image_rejects_unknown_mode():
    img = ImageBuffer(width=1, height=1, channels=3, samples=np.zeros(3, np.uint8))
    for mode in ("ei4", "isef"):
        with pytest.raises(cycle_model.UnknownKernelConfig) as exc:
            convert_image(img, RGB2YIQ, mode)
        assert str(exc.value) == UNCALIBRATED.format("yiq", mode)


@pytest.mark.parametrize("mode", ["ei1", "ei5", "ei8"])
@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (5, 5), (8, 8), (6, 13), (4, 10)])
def test_mode_equivalence_includes_tails(mode, shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    img = ImageBuffer.from_array(rng.integers(0, 256, (*shape, 3), dtype=np.uint8))
    ref, _ = convert_image(img, RGB2YIQ, "scalar")
    got, _ = convert_image(img, RGB2YIQ, mode)
    assert got == ref


def test_mode_equivalence_other_matrices():
    rng = np.random.default_rng(9)
    img = random_rgb_image(rng)
    for matrix in (YIQ2RGB, RGB2CMY):
        ref, _ = convert_image(img, matrix, "scalar")
        for mode in ("ei1", "ei5", "ei8"):
            got, _ = convert_image(img, matrix, mode)
            assert got == ref, (matrix.name, mode)


coefficients = st.integers(-COEFF_LIMIT, COEFF_LIMIT)
offsets = st.tuples(*(st.integers(-OFFSET_LIMIT, OFFSET_LIMIT),) * 3)
custom_matrices = st.builds(
    ConversionMatrix,
    name=st.just("custom"),
    coeffs=st.tuples(*(st.tuples(*(coefficients,) * 3),) * 3),
    input_offset=offsets,
    output_offset=offsets,
)
AT_THE_LIMITS = ConversionMatrix(
    name="limits",
    coeffs=((512, -512, 512), (-512, 512, -512), (512, 512, -512)),
    input_offset=(0, 255, 128),
    output_offset=(255, 0, 128),
)
# Byte 255 less input offset -255 is s = 510, so |acc| reaches 3 * 512 * 510,
# the widest accumulator OFFSET_LIMIT allows.
WIDEST_ACCUMULATOR = ConversionMatrix(
    name="widest",
    coeffs=((512, 512, 512), (-512, -512, -512), (512, -512, 512)),
    input_offset=(-OFFSET_LIMIT,) * 3,
    output_offset=(-OFFSET_LIMIT, OFFSET_LIMIT, 0),
)
EXTREME_PIXELS = [(0, 0, 0), (255, 255, 255), (255, 0, 255), (0, 255, 0)] * 3 + [(1, 128, 254)]


@pytest.mark.parametrize("mode", CONVERT_MODES)
@settings(max_examples=60, deadline=None)
@given(
    matrix=st.one_of(st.sampled_from((RGB2YIQ, YIQ2RGB, RGB2CMY)), custom_matrices),
    pixels=st.lists(rgb_triples, min_size=1, max_size=40),
)
@example(matrix=AT_THE_LIMITS, pixels=EXTREME_PIXELS)
@example(matrix=WIDEST_ACCUMULATOR, pixels=EXTREME_PIXELS)
def test_every_mode_matches_the_scalar_oracle(mode, matrix, pixels):
    img = ImageBuffer(width=len(pixels), height=1, channels=3, samples=np.array(pixels))
    out, _ = convert_image(img, matrix, mode)
    assert out.samples.reshape(-1, 3).tolist() == [list(convert_px(matrix, p)) for p in pixels]


@pytest.mark.parametrize("matrix", [RGB2YIQ, YIQ2RGB, AT_THE_LIMITS, WIDEST_ACCUMULATOR], ids=lambda m: m.name)
def test_frames_that_span_blocks_match_the_oracle(matrix):
    block = colorspace._BLOCK
    n = 2 * block + 7
    rng = np.random.default_rng(block)
    flat = rng.integers(0, 256, (n, 3), dtype=np.uint8)
    near_edges = sorted(
        {k for edge in (0, block, 2 * block, n) for k in range(edge - 3, edge + 3) if 0 <= k < n}
        | set(range(2 * block, n))
    )
    flat[near_edges[::2]] = np.resize(np.array(EXTREME_PIXELS, dtype=np.uint8), (len(near_edges[::2]), 3))
    want = [list(convert_px(matrix, flat[k])) for k in near_edges]
    sliced = np.concatenate([apply_matrix_np(flat[s : s + 4099], matrix) for s in range(0, n, 4099)])
    whole = apply_matrix_np(flat, matrix)
    assert whole[near_edges].tolist() == want
    assert np.array_equal(whole, sliced)
    img = ImageBuffer(width=n, height=1, channels=3, samples=flat)
    for mode in CONVERT_MODES:
        out, _ = convert_image(img, matrix, mode)
        got = out.samples.reshape(-1, 3)
        assert got[near_edges].tolist() == want, mode
        assert np.array_equal(got, sliced), mode


def _cube_frames(matrix):
    """All 2^24 triples as 256 frames of 256x256, one per red value, each
    with its conversion by an oracle that shares no code with colorspace:
    per-channel tables of c * (v - offset), summed, divided truncating
    toward zero, clipped.  Every (frame, want) pair is written to the same
    two arrays."""
    v = np.arange(256, dtype=np.int32)
    tables = [[c * (v - off) for c, off in zip(row, matrix.input_offset)] for row in matrix.coeffs]
    # Each output row's (g, b) sums, built once; a frame adds its red term.
    gb_sums = [(g[:, None] + b[None, :]).ravel() for _, g, b in tables]
    frame = np.empty((256 * 256, 3), dtype=np.uint8)
    frame[:, 1:] = np.indices((256, 256), dtype=np.uint8).reshape(2, -1).T
    want = np.empty_like(frame)
    for r in range(256):
        frame[:, 0] = r
        for row, (red, _, _) in enumerate(tables):
            acc = gb_sums[row] + red[r]
            quotient = np.abs(acc) >> 8
            np.negative(quotient, out=quotient, where=acc < 0)
            want[:, row] = np.clip(quotient + matrix.output_offset[row], 0, 255)
        yield frame, want


def _assert_frame_equal(frame, got, want, what):
    if not np.array_equal(got, want):
        k = np.flatnonzero((got != want).any(axis=1))[0]
        pytest.fail(f"{what}: rgb {frame[k]}: got {got[k]}, oracle {want[k]}")


# YIQ2RGB is the one built-in matrix with input offsets; RGB2CMY has
# negative coefficients on the diagonal and a 255 output offset.
@pytest.mark.parametrize("matrix", [RGB2YIQ, YIQ2RGB, RGB2CMY, WIDEST_ACCUMULATOR], ids=lambda m: m.name)
def test_apply_matrix_np_over_every_rgb_triple(matrix):
    got = np.empty((256 * 256, 3), dtype=np.uint8)
    for frame, want in _cube_frames(matrix):
        apply_matrix_np(frame, matrix, out=got)
        _assert_frame_equal(frame, got, want, "apply_matrix_np")


def test_lane_modes_over_every_rgb_triple():
    # Each lane mode's register packing, kernel body and tail over the full
    # cube; 65536 pixels leave a tail of one pixel in ei5.  YIQ2RGB, with
    # its input offsets, runs in ei8, whose body stages its pixels.
    for matrix, modes in ((RGB2YIQ, ("ei1", "ei5", "ei8")), (YIQ2RGB, ("ei8",))):
        for frame, want in _cube_frames(matrix):
            img = ImageBuffer(width=256, height=256, channels=3, samples=frame)
            for mode in modes:
                out, _ = convert_image(img, matrix, mode)
                _assert_frame_equal(frame, out.samples.reshape(-1, 3), want, f"{matrix.name} {mode}")


#: Enough invocations for a kernel body's group copies to leave the 2-D path.
WIDE_BATCH = colorspace._PLAIN_COPY_GROUPS + 3


def _registers(rng, invocations, n_inputs, layout):
    """Random (invocations, n_inputs, 16) registers laid out as ``layout``:
    contiguous, every other row of a larger array, or every other byte of
    32-byte rows."""
    if layout == "contiguous":
        return rng.integers(0, 256, (invocations, n_inputs, 16), dtype=np.uint8)
    big = rng.integers(0, 256, (2 * invocations, n_inputs, 32), dtype=np.uint8)
    return big[::2, :, 8:24] if layout == "rows-apart" else big[::2, :, ::2]


@settings(max_examples=60, deadline=None)
@given(
    matrix=st.one_of(st.sampled_from((RGB2YIQ, YIQ2RGB, RGB2CMY)), custom_matrices),
    lanes=st.sampled_from((1, 5, 8)),
    invocations=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(("contiguous", "rows-apart", "bytes-apart")),
)
@example(matrix=AT_THE_LIMITS, lanes=8, invocations=0, seed=0, layout="contiguous")
@example(matrix=YIQ2RGB, lanes=1, invocations=WIDE_BATCH, seed=1, layout="rows-apart")
@example(matrix=YIQ2RGB, lanes=5, invocations=WIDE_BATCH, seed=2, layout="bytes-apart")
@example(matrix=WIDEST_ACCUMULATOR, lanes=8, invocations=WIDE_BATCH, seed=3, layout="bytes-apart")
def test_matrix_batch_equals_a_loop_of_batches_of_one(matrix, lanes, invocations, seed, layout):
    ei = matrix_ei(matrix, lanes)
    registers = _registers(np.random.default_rng(seed), invocations, ei.n_inputs, layout)
    before = registers.copy()
    batch_log, loop_log = InvocationLog(), InvocationLog()
    out = ei_execute_batch(ei, registers, log=batch_log)
    assert out.shape == (invocations, ei.n_outputs, 16)
    assert np.array_equal(registers, before)
    assert np.array_equal(out, ei_execute_batch(ei, np.ascontiguousarray(registers)))
    loop = [ei_execute(ei, [WideRegister(r.tobytes()) for r in row], log=loop_log) for row in registers]
    assert [[wr.data for wr in outs] for outs in loop] == [[r.tobytes() for r in row] for row in out]
    assert batch_log.counts == loop_log.counts and batch_log.total == invocations
    span = 3 * lanes
    width = ei.n_inputs * 16
    for row_in, row_out in zip(registers.reshape(invocations, width), out.reshape(invocations, width)):
        pixels = row_in[:span].reshape(lanes, 3).tolist()
        assert row_out[:span].reshape(lanes, 3).tolist() == [list(convert_px(matrix, p)) for p in pixels]
        assert not row_out[span:].any()


def test_apply_matrix_np_writes_only_its_destination():
    n = colorspace._BLOCK + 5
    flat = np.random.default_rng(n).integers(0, 256, (n, 3), dtype=np.uint8)
    canvas = np.full((2 * n, 16), 0xA5, dtype=np.uint8)
    view = canvas[::2, 4:7]
    assert apply_matrix_np(flat, YIQ2RGB, out=view) is view
    assert np.array_equal(view, apply_matrix_np(flat, YIQ2RGB))
    view[...] = 0xA5
    assert (canvas == 0xA5).all()


@pytest.mark.parametrize("matrix", [RGB2YIQ, YIQ2RGB, RGB2CMY], ids=lambda m: m.name)
def test_apply_matrix_np_converts_in_place(matrix):
    # A lane body's staging array is both the samples and the destination.
    n = colorspace._BLOCK + 5
    flat = np.random.default_rng(n).integers(0, 256, (n, 3), dtype=np.uint8)
    want = apply_matrix_np(flat, matrix)
    assert apply_matrix_np(flat, matrix, out=flat) is flat
    assert np.array_equal(flat, want)


def test_staging_lies_past_the_block_arrays():
    staged = colorspace._staging(3 * colorspace._BLOCK)
    assert staged.nbytes == 3 * colorspace._BLOCK
    assert not any(np.shares_memory(staged, a) for a in colorspace._block_arrays(colorspace._BLOCK))


@pytest.mark.parametrize("mode", ["ei1", "ei5", "ei8"])
def test_images_smaller_than_a_lane_group_take_the_scalar_tail(mode):
    lanes = cycle_model.mode_lanes(mode)
    rng = np.random.default_rng(lanes)
    for n in range(1, lanes + 1):
        pixels = rng.integers(0, 256, (n, 3), dtype=np.uint8)
        log = InvocationLog()
        out, _ = convert_image(ImageBuffer.from_array(pixels[None]), RGB2YIQ, mode, log=log)
        assert out.samples.reshape(-1, 3).tolist() == [list(convert_px(RGB2YIQ, p)) for p in pixels]
        assert log.total == n // lanes


# ------------------------------------------------------------ block workspace


def _batch_step(mode):
    """A mode's lanes, and its groups per batch; without lanes, pixels per block."""
    lanes = cycle_model.mode_lanes(mode)
    return lanes, colorspace._batch_groups(matrix_ei(RGB2YIQ, lanes), lanes) if lanes else colorspace._BLOCK


@pytest.mark.parametrize("mode", CONVERT_MODES)
def test_batches_of_one_step_either_side_match_the_oracle(mode):
    # Frames of step - 1, step and step + 1 groups (pixels, without lanes),
    # with a tail pixel where a group holds more than one: the last batch
    # is one group short, exactly full, or holds one group.
    lanes, step = _batch_step(mode)
    per_group = max(lanes, 1)
    rng = np.random.default_rng(step)
    for groups in (step - 1, step, step + 1):
        n = groups * per_group + (lanes > 1)
        flat = rng.integers(0, 256, (n, 3), dtype=np.uint8)
        edges = sorted({k for edge in (0, step * per_group, n) for k in range(edge - 4, edge + 4) if 0 <= k < n})
        log = InvocationLog()
        out, _ = convert_image(ImageBuffer(width=n, height=1, channels=3, samples=flat), YIQ2RGB, mode, log=log)
        got = out.samples.reshape(-1, 3)
        assert got[edges].tolist() == [list(convert_px(YIQ2RGB, flat[k])) for k in edges]
        sliced = np.concatenate([apply_matrix_np(flat[s : s + 4099], YIQ2RGB) for s in range(0, n, 4099)])
        assert np.array_equal(got, sliced)
        assert log.total == (groups if lanes else 0)


@pytest.mark.parametrize("mode", ["ei1", "ei5", "ei8"])
def test_lane_batches_stay_under_the_register_limit(monkeypatch, mode):
    # A batch holds _BLOCK // lanes groups unless its input or output
    # registers would reach 128 KiB, glibc's default mmap threshold: at 16
    # bytes a group, ei1 reaches it, and at 32 bytes, ei8 does.
    lanes = cycle_model.mode_lanes(mode)
    width = 16 * matrix_ei(RGB2YIQ, lanes).n_inputs
    step = min(colorspace._BLOCK // lanes, (128 * 1024 - 1) // width)
    batches = []
    issue = colorspace.ei_execute_batch

    def recording(ei, registers, log=None):
        outputs = issue(ei, registers, log=log)
        batches.append((registers.nbytes, outputs.nbytes))
        return outputs

    monkeypatch.setattr(colorspace, "ei_execute_batch", recording)
    n = 3 * colorspace._BLOCK
    img = ImageBuffer(width=n, height=1, channels=3, samples=np.zeros(3 * n, dtype=np.uint8))
    convert_image(img, RGB2YIQ, mode)
    groups = n // lanes
    want = [step * width] * (groups // step) + [groups % step * width] * (groups % step > 0)
    assert batches == [(nbytes, nbytes) for nbytes in want]
    assert max(max(batch) for batch in batches) < 128 * 1024


@pytest.mark.parametrize("mode", CONVERT_MODES)
def test_a_steady_conversion_allocates_only_its_result_and_one_batch(mode):
    # Every block array lives in the thread's workspace, made once per
    # thread; a second call makes only the result image and, in a lane
    # mode, one batch's input and output registers at a time.
    img = ImageBuffer.from_array(np.random.default_rng(7).integers(0, 256, (200, 320, 3), dtype=np.uint8))
    lanes, step = _batch_step(mode)
    registers = 2 * 16 * matrix_ei(RGB2YIQ, lanes).n_inputs * step if lanes else 0
    convert_image(img, RGB2YIQ, mode)
    tracemalloc.start()
    try:
        convert_image(img, RGB2YIQ, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < img.samples.nbytes + registers + 16 * 1024


def test_each_thread_converts_in_its_own_workspace():
    # Three threads convert different frames at once, handing the GIL over
    # every few microseconds; with one workspace for all of them, one
    # thread's block arrays would be overwritten by another's.
    palette = np.random.default_rng(29).integers(0, 256, (256, 3), dtype=np.uint8)
    want = {m: np.array([convert_px(m, p) for p in palette], dtype=np.uint8) for m in (RGB2YIQ, YIQ2RGB)}
    n = colorspace._BLOCK + colorspace._BLOCK // 2 + 3
    wrong = []

    def convert(seed):
        index = np.random.default_rng(seed).integers(0, 256, n)
        img = ImageBuffer(width=n, height=1, channels=3, samples=palette[index])
        for _ in range(2):
            for matrix in (RGB2YIQ, YIQ2RGB):
                for mode in CONVERT_MODES:
                    out, _ = convert_image(img, matrix, mode)
                    if not np.array_equal(out.samples.reshape(-1, 3), want[matrix][index]):
                        wrong.append((seed, matrix.name, mode))
            if not np.array_equal(to_gray(img).samples, want[RGB2YIQ][index, 0]):
                wrong.append((seed, "gray"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=convert, args=(seed,)) for seed in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_convert_image_report_fields():
    profile = cycle_model.builtin_profile()
    rng = np.random.default_rng(4)
    img = ImageBuffer.from_array(rng.integers(0, 256, (40, 40, 3), dtype=np.uint8))
    out, report = convert_image(img, RGB2YIQ, "ei5", profile=profile)
    assert report.pixels == 1600
    assert report.ei_invocations == 320
    assert report.cycles_total == cycle_model.Fraction(31759, 20)
    assert report.cycles_per_pixel * report.pixels == report.cycles_total
    assert report.resources.multipliers_used == 45
    assert report.stages == 1


def test_convert_image_with_a_reused_log():
    profile = cycle_model.builtin_profile()
    img = ImageBuffer.from_array(np.zeros((2, 5, 3), dtype=np.uint8))
    log = InvocationLog()
    for _ in range(2):
        _, report = convert_image(img, RGB2YIQ, "ei5", profile=profile, log=log)
    assert report.ei_invocations == 2
    assert log.total == 4


def test_convert_invocation_mismatch_is_typed(monkeypatch):
    # A lane walk that logs none of its batches is caught whether or not the run is costed.
    issue = colorspace.ei_execute_batch
    monkeypatch.setattr(colorspace, "ei_execute_batch", lambda ei, batch, log=None: issue(ei, batch))
    img = ImageBuffer.from_array(np.zeros((2, 5, 3), dtype=np.uint8))
    for profile in (cycle_model.builtin_profile(), None):
        with pytest.raises(
            cycle_model.InvocationMismatch, match="^cost model predicted 2 invocations, executed 0$"
        ):
            convert_image(img, RGB2YIQ, "ei5", profile=profile)


def test_convert_image_without_profile_has_no_report():
    rng = np.random.default_rng(5)
    img = random_rgb_image(rng)
    _, report = convert_image(img, RGB2YIQ, "scalar")
    assert report is None


def test_kernel_resources_scalar_mode():
    report = cycle_model.estimate("yiq", "scalar", 64000, cycle_model.builtin_profile())
    assert report.resources.multipliers_used == 0 and report.stages == 0


# ------------------------------------------------------------ round trip


def _trunc_div256(x):
    # Truncating division written independently of fixed_point.
    return np.sign(x) * (np.abs(x) // 256)


def test_grid_sums_equal_the_direct_sums_on_every_block():
    # Each grid block's float32 quotients come from the first block's by
    # one add; they must equal its int64 sums computed from the block
    # itself, over 256, which float64 holds exactly.
    forward = np.array(RGB2YIQ.coeffs, dtype=np.int64)
    width = colorspace._SWEEP_BLOCK
    blocks = 0
    for k, (rgb, quotients) in enumerate(colorspace._rgb_blocks()):
        index = np.arange(k * width, (k + 1) * width)
        np.testing.assert_array_equal(rgb, [index >> 16, (index >> 8) & 255, index & 255])
        assert quotients.dtype == np.float32
        np.testing.assert_array_equal(quotients.astype(np.float64), (forward @ rgb.astype(np.int64)) / 256)
        blocks += 1
    assert blocks == 256**3 // width


@pytest.fixture(scope="module")
def sweep_errors():
    # The sweep's per-channel |error| of every triple, as (3, 2^24) uint8,
    # column r * 65536 + g * 256 + b, placed by the triples each block names.
    # 255 marks a triple no block reached; no error comes near it.
    errors = np.full((3, 256**3), 255, dtype=np.uint8)
    for rgb, err in colorspace._roundtrip_errors():
        index = rgb[0].astype(np.int32) << 16 | rgb[1].astype(np.int32) << 8 | rgb[2]
        errors[:, index] = err
    assert errors.max() < 255
    return errors


def _triple_index(rgb):
    return rgb @ np.array([65536, 256, 1])


def test_roundtrip_sample_matches_scalar_oracle(sweep_errors):
    # The vectorized sweep and the per-pixel reference must agree
    # error-for-error on a sample of triples.
    rng = np.random.default_rng(11)
    triples = rng.integers(0, 256, size=(300, 3))
    fwd, rev = RGB2YIQ.coeffs, YIQ2RGB.coeffs
    expected = []
    for r, g, b in triples.tolist():
        y = clamp_u8(div256_trunc(mul_acc3(fwd[0], (r, g, b))))
        i = div256_trunc(mul_acc3(fwd[1], (r, g, b)))
        q = div256_trunc(mul_acc3(fwd[2], (r, g, b)))
        back = (
            clamp_u8(div256_trunc(mul_acc3(rev[0], (y, i, q)))),
            clamp_u8(div256_trunc(mul_acc3(rev[1], (y, i, q)))),
            clamp_u8(div256_trunc(mul_acc3(rev[2], (y, i, q)))),
        )
        expected.append((abs(r - back[0]), abs(g - back[1]), abs(b - back[2])))
    np.testing.assert_array_equal(sweep_errors[:, _triple_index(triples)].T, expected)


def test_roundtrip_gray_only_is_exact(sweep_errors):
    # The 256 gray triples (v, v, v) round-trip with no error on any channel.
    gray = np.arange(256) * 65793
    assert not sweep_errors[:, gray].any()


@pytest.mark.parametrize("size", [1, 8191, 8192, 8193, 16383, 16384, 16385, 20000])
@pytest.mark.parametrize("seed", range(5))
def test_sampled_sweep_equals_an_int64_reference(sweep_errors, seed, size):
    # The whole-cube reference compares only the sweep's summary; here each
    # sampled triple's errors must equal an int64 reference, triple by triple.
    rgb = np.random.default_rng(seed).integers(0, 256, size=(size, 3), dtype=np.int64)
    yiq = _trunc_div256(rgb @ np.array(RGB2YIQ.coeffs, dtype=np.int64).T)
    yiq[:, 0] = yiq[:, 0].clip(0, 255)
    back = _trunc_div256(yiq @ np.array(YIQ2RGB.coeffs, dtype=np.int64).T).clip(0, 255)
    np.testing.assert_array_equal(sweep_errors[:, _triple_index(rgb)].T, np.abs(back - rgb))


# Run in a fresh interpreter: glibc raises its mmap and trim thresholds after
# a process frees a large block, so a long-lived process such as this one
# would hide the faults.  Prints the faults of 64 sweep blocks after one
# warm-up block, then those of three ei1 conversions of a 320x200 frame.
_FAULT_PROBE = textwrap.dedent(
    """
    import resource

    import numpy as np

    from scpsim import colorspace
    from scpsim.image_io import ImageBuffer

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    errors = colorspace._roundtrip_errors()
    next(errors)
    before = faults()
    for _ in range(64):
        next(errors)
    print(faults() - before)
    rng = np.random.default_rng(0)
    img = ImageBuffer.from_array(rng.integers(0, 256, (200, 320, 3), dtype=np.uint8))
    for _ in range(3):
        before = faults()
        colorspace.convert_image(img, colorspace.RGB2YIQ, "ei1")
        print(faults() - before)
    """
)


@pytest.mark.skipif(
    resource is None or not sys.platform.startswith("linux"), reason="counts Linux minor page faults"
)
def test_steady_state_blocks_do_not_page_fault():
    # Each block's arrays are reused, so a steady-state block maps no fresh page.
    src = Path(colorspace.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    sweep, *calls = map(int, run.stdout.split())
    assert sweep < 4 * 64
    # A 320x200 frame is 8 ei1 batches, each under 128 KiB, with their
    # block arrays in the workspace: on a 2-vCPU Linux host a steady call
    # took no fault, against 136 with three 96 KiB block arrays per batch
    # and about 750 with one batch of 1 MB register arrays per image.
    assert max(calls[1:]) < 500


def _roundtrip_reference() -> colorspace.SweepResult:
    # The whole cube in blocks of 2^20 triples, from the triples' indices,
    # with numpy's matrix product and _trunc_div256.  Every sum is below
    # 2^20 in magnitude, so int32 is exact.
    forward = np.array(RGB2YIQ.coeffs, dtype=np.int32)
    reverse = np.array(YIQ2RGB.coeffs, dtype=np.int32)
    worst, argmax, per_channel, total = -1, None, np.zeros(3, dtype=np.int32), 0
    for start in range(0, 256**3, 2**20):
        index = np.arange(start, start + 2**20, dtype=np.int32)
        rgb = np.stack([index >> 16, (index >> 8) & 255, index & 255])
        yiq = _trunc_div256(forward @ rgb)
        yiq[0] = yiq[0].clip(0, 255)
        err = np.abs(_trunc_div256(reverse @ yiq).clip(0, 255) - rgb)
        per_triple = err.max(axis=0)
        if per_triple.max() > worst:
            worst = int(per_triple.max())
            argmax = tuple(rgb[:, np.argmax(per_triple)].tolist())
        np.maximum(per_channel, err.max(axis=1), out=per_channel)
        total += int(err.sum(dtype=np.int64))
    return colorspace.SweepResult(
        worst, total / (3 * 256**3), argmax, tuple(per_channel.tolist()), 256**3
    )


SHIPPED_SWEEP = colorspace.SweepResult(5, 1.1140663027763367, (0, 121, 212), (3, 3, 5), 256**3)


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_sweep_result_does_not_depend_on_the_part_count(parts):
    # Three parts hold 85, 85 and 86 reds: their bounds, 85 and 170, fall
    # neither at a power of two nor at equal shares of the cube.
    before = threading.active_count()
    assert colorspace._sweep(parts) == SHIPPED_SWEEP
    assert threading.active_count() == before


def test_sweep_parts_under_a_short_switch_interval():
    # More threads than cores, handing the GIL over every few microseconds:
    # each part writes only its own arrays and result slot.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert colorspace._sweep(4) == SHIPPED_SWEEP
    finally:
        sys.setswitchinterval(interval)


def _fake_part(reds, first):
    return colorspace._PartResult(0, (reds.start, 0, 0), np.zeros(3, dtype=np.int32), 0)


@pytest.mark.parametrize(
    "cpus, reds", [({0}, [range(256)]), ({0, 1, 2, 3}, [range(128), range(128, 256)])]
)
def test_part_count_follows_the_affinity(monkeypatch, cpus, reds):
    swept = []

    def part(reds, first):
        swept.append(reds)
        return _fake_part(reds, first)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(colorspace, "_sweep_part", part)
    roundtrip_sweep()
    assert sorted(swept, key=lambda r: r.start) == reds


@pytest.mark.parametrize("failing", [0, 1])
def test_a_part_error_reaches_the_caller_after_every_join(monkeypatch, failing):
    # A part's own exception reaches the caller, whichever thread raised
    # it, and no helper thread outlives the call.
    def part(reds, first):
        if reds.start == 128 * failing:
            raise MemoryError(f"part {failing}")
        time.sleep(0.05)
        return _fake_part(reds, first)

    monkeypatch.setattr(colorspace, "_sweep_part", part)
    before = threading.active_count()
    with pytest.raises(MemoryError, match=f"part {failing}"):
        colorspace._sweep(2)
    assert threading.active_count() == before


def test_parts_combine_in_ascending_red_order():
    # The largest maximum, the first part's argmax that reaches it, the
    # per-channel maxima of every part and the sum of every part's errors.
    parts = [
        colorspace._PartResult(4, (0, 1, 2), np.array([4, 1, 0], dtype=np.int32), 10),
        colorspace._PartResult(5, (100, 0, 0), np.array([1, 5, 2], dtype=np.int32), 20),
        colorspace._PartResult(5, (200, 0, 0), np.array([0, 2, 3], dtype=np.int32), 30),
    ]
    assert colorspace._combined(parts) == colorspace.SweepResult(
        5, 60 / (3 * 256**3), (100, 0, 0), (4, 5, 3), 256**3
    )


def test_roundtrip_sweep_exhaustive():
    # The sweep streams its 2^24 triples a block at a time.
    tracemalloc.start()
    try:
        result = roundtrip_sweep()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # An independent reference, outside the traced window: the max, first
    # argmax, per-channel maxima and mean, over the same 2^24 triples.
    reference = _roundtrip_reference()
    assert result == reference
    assert reference.samples == 256**3
    assert reference.max_error == ROUNDTRIP_MAX_ERROR
    assert reference.argmax_rgb == ROUNDTRIP_ARGMAX
    assert reference.per_channel_max == (3, 3, 5)
    assert reference.mean_error == 1.1140663027763367
