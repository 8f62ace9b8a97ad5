import gc
import tracemalloc
import weakref

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
from scpsim.image_io import ChannelMismatch, ImageBuffer
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

rgb_triples = st.tuples(*(st.integers(0, 255),) * 3)


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
    with pytest.raises(ValueError):
        convert_image(img, RGB2YIQ, "ei4")


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


@settings(max_examples=60, deadline=None)
@given(
    matrix=st.one_of(st.sampled_from((RGB2YIQ, YIQ2RGB, RGB2CMY)), custom_matrices),
    lanes=st.sampled_from((1, 5, 8)),
    invocations=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(matrix=AT_THE_LIMITS, lanes=8, invocations=0, seed=0)
def test_matrix_batch_equals_a_loop_of_batches_of_one(matrix, lanes, invocations, seed):
    ei = matrix_ei(matrix, lanes)
    rng = np.random.default_rng(seed)
    registers = rng.integers(0, 256, (invocations, ei.n_inputs, 16), dtype=np.uint8)
    batch_log, loop_log = InvocationLog(), InvocationLog()
    out = ei_execute_batch(ei, registers, log=batch_log)
    assert out.shape == (invocations, ei.n_outputs, 16)
    loop = [ei_execute(ei, [WideRegister(r.tobytes()) for r in row], log=loop_log) for row in registers]
    assert [[wr.data for wr in outs] for outs in loop] == [[r.tobytes() for r in row] for row in out]
    assert batch_log.counts == loop_log.counts and batch_log.total == invocations
    span = 3 * lanes
    width = ei.n_inputs * 16
    for row_in, row_out in zip(registers.reshape(invocations, width), out.reshape(invocations, width)):
        pixels = row_in[:span].reshape(lanes, 3).tolist()
        assert row_out[:span].reshape(lanes, 3).tolist() == [list(convert_px(matrix, p)) for p in pixels]
        assert not row_out[span:].any()


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


def test_convert_image_without_profile_has_no_report():
    rng = np.random.default_rng(5)
    img = random_rgb_image(rng)
    _, report = convert_image(img, RGB2YIQ, "scalar")
    assert report is None


def test_kernel_resources_scalar_mode():
    report = cycle_model.estimate("yiq", "scalar", 64000, cycle_model.builtin_profile())
    assert report.resources.multipliers_used == 0 and report.stages == 0


# ------------------------------------------------------------ round trip


def test_roundtrip_sample_matches_scalar_oracle():
    # the vectorized sweep and the per-pixel reference must agree error-for-error
    rng = np.random.default_rng(11)
    triples = rng.integers(0, 256, size=(300, 3))
    fwd, rev = RGB2YIQ.coeffs, YIQ2RGB.coeffs
    worst = 0
    for r, g, b in triples.tolist():
        y = clamp_u8(div256_trunc(mul_acc3(fwd[0], (r, g, b))))
        i = div256_trunc(mul_acc3(fwd[1], (r, g, b)))
        q = div256_trunc(mul_acc3(fwd[2], (r, g, b)))
        back = (
            clamp_u8(div256_trunc(mul_acc3(rev[0], (y, i, q)))),
            clamp_u8(div256_trunc(mul_acc3(rev[1], (y, i, q)))),
            clamp_u8(div256_trunc(mul_acc3(rev[2], (y, i, q)))),
        )
        worst = max(worst, abs(r - back[0]), abs(g - back[1]), abs(b - back[2]))
    result = roundtrip_sweep(sample=300, seed=11)
    assert result.max_error == worst
    assert result.samples == 300


def test_roundtrip_gray_only_is_exact():
    result = roundtrip_sweep(gray_only=True)
    assert result.max_error == 0
    assert result.per_channel_max == (0, 0, 0)


def test_roundtrip_sample_subset_bound():
    result = roundtrip_sweep(sample=10000, seed=0)
    assert result.max_error <= ROUNDTRIP_MAX_ERROR


def test_roundtrip_sweep_exhaustive():
    # The sweep streams its 2^24 triples a block at a time.
    tracemalloc.start()
    try:
        result = roundtrip_sweep()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert result.samples == 256**3
    assert result.max_error == ROUNDTRIP_MAX_ERROR
    assert result.argmax_rgb == ROUNDTRIP_ARGMAX
    assert result.per_channel_max == (3, 3, 5)
    assert result.mean_error == 1.1140663027763367
