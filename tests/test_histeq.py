import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scpsim import cycle_model, histeq
from scpsim.fabric import (
    BankConflict,
    CounterOverflow,
    InvocationLog,
    IramState,
    WideRegister,
    ei_execute,
)
from scpsim.histeq import (
    EmptyImage,
    build_lut,
    ei_subhist16,
    ei_transform16,
    histeq_image,
    lut_replicate,
    merge_cumulative,
    scalar_histogram,
)
from scpsim.image_io import ChannelMismatch, ImageBuffer

from util import preset_counter, random_gray_image, uniform_histogram_image


def gray_image(values, width=None):
    values = np.asarray(values, dtype=np.uint8).ravel()
    width = width or values.size
    return ImageBuffer(width=width, height=values.size // width, channels=1, samples=values)


# ------------------------------------------------------------ sub-histograms


def test_subhist_equal_pixels():
    iram = IramState()
    ei_subhist16(np.full((1, 16), 5, dtype=np.uint8), iram)
    for bank in range(16):
        counters = iram.counters()[bank].tolist()
        assert counters[5] == 1
        assert sum(counters) == 1


def test_subhist_ramp_pixels():
    iram = IramState()
    ei_subhist16(np.arange(16, dtype=np.uint8)[None], iram)
    for bank in range(16):
        assert iram.counters()[bank, bank] == 1


def test_subhist_conservation_against_scalar_oracle():
    rng = np.random.default_rng(17)
    pixels = rng.integers(0, 256, 16 * 1024, dtype=np.uint8)
    iram = IramState()
    ei_subhist16(pixels.reshape(1024, 16), iram)
    total = sum(sum(iram.counters()[bank].tolist()) for bank in range(16))
    assert total == 16384
    merged = merge_cumulative(iram)
    assert np.array_equal(merged, np.cumsum(scalar_histogram(pixels)))


def test_subhist_counter_overflow():
    iram = IramState()
    preset_counter(iram, 0, 7, 0xFFFF)
    with pytest.raises(CounterOverflow):
        ei_subhist16(np.full((1, 16), 7, dtype=np.uint8), iram)


def test_two_lanes_sharing_a_bank_conflict():
    # a broken accumulator that routes two lanes into bank 0
    iram = IramState()
    with iram.invocation():
        iram.add_counter(0, 3)
        with pytest.raises(BankConflict):
            iram.add_counter(0, 4)


# ------------------------------------------------------------ merge and LUT


def test_merge_of_empty_banks_is_zero():
    assert merge_cumulative(IramState()).tolist() == [0] * 256


def test_merge_single_pixel_of_value_zero():
    iram = IramState()
    preset_counter(iram, 0, 0, 1)
    assert merge_cumulative(iram).tolist() == [1] * 256


def test_build_lut_constant_image():
    for v in (0, 9, 255):
        cum = np.zeros(256, dtype=np.int64)
        cum[v:] = 40
        lut = build_lut(cum, 40)
        assert lut[v] == 255


def test_build_lut_uniform_ramp_is_identity():
    cum = np.arange(1, 257, dtype=np.int64)
    assert build_lut(cum, 256).tolist() == list(range(256))


def test_build_lut_two_level_example():
    cum = np.zeros(256, dtype=np.int64)
    cum[0] = 2
    cum[1:] = 4
    lut = build_lut(cum, 4)
    assert lut[0] == 127
    assert lut[1] == 255


def test_build_lut_empty_image():
    with pytest.raises(EmptyImage):
        build_lut(np.zeros(256, dtype=np.int64), 0)


def test_build_lut_monotone_on_random_histograms():
    rng = np.random.default_rng(23)
    for _ in range(200):
        hist = rng.integers(0, 50, 256)
        n = int(hist.sum())
        if n == 0:
            continue
        lut = build_lut(np.cumsum(hist), n)
        assert np.all(np.diff(lut.astype(np.int64)) >= 0)
        assert lut[255] == 255


@pytest.mark.parametrize(
    "cum", [np.arange(255), np.arange(257), np.arange(256)[None]], ids=["255", "257", "1x256"]
)
def test_build_lut_rejects_a_histogram_of_the_wrong_shape(cum):
    with pytest.raises(ValueError, match="^cumulative histogram must have 256 bins$"):
        build_lut(cum, 10)


def test_lut_replicate_identity():
    iram = IramState()
    lut_replicate(np.arange(256, dtype=np.uint8), iram)
    for bank in range(16):
        with iram.invocation():
            assert iram.read_lut(bank, bank * 7 % 256) == bank * 7 % 256


def test_lut_replicate_all_banks_equal():
    rng = np.random.default_rng(31)
    lut = rng.integers(0, 256, 256, dtype=np.uint8)
    iram = IramState()
    lut_replicate(lut, iram)
    reference = [iram._mem[0][k] for k in range(256)]
    for bank in range(1, 16):
        assert [iram._mem[bank][k] for k in range(256)] == reference


@pytest.mark.parametrize(
    "table",
    [np.full(256, 300, np.int64), np.full(256, -1, np.int64), np.full(256, 2.9),
     np.zeros(255, np.uint8), np.zeros((16, 256), np.uint8), np.array(7, np.uint8)],
    ids=["int64-300", "int64-minus-1", "float", "255-entries", "16x256", "0-d"],
)
def test_lut_replicate_uploads_only_a_uint8_table(table):
    # A cast would store 300 as 44, -1 as 255 and 2.9 as 2; load_luts checks the shape as well.
    iram = IramState()
    iram._mem[:] = 7
    with pytest.raises(ValueError, match="^LUT upload needs a uint8 "):
        lut_replicate(table, iram)
    assert (iram._mem == 7).all()
    lut_replicate(np.full(256, 44, np.uint8), iram)
    assert (iram._mem[:, :256] == 44).all() and (iram._mem[:, 256:] == 7).all()


# ------------------------------------------------------------ transform


def test_transform_identity_lut():
    iram = IramState()
    lut_replicate(np.arange(256, dtype=np.uint8), iram)
    pixels = bytes(range(0, 160, 10))
    out = ei_transform16(np.frombuffer(pixels, dtype=np.uint8)[None], iram)
    assert out.tobytes() == pixels


def test_transform_constant_lut():
    iram = IramState()
    lut_replicate(np.full(256, 255, dtype=np.uint8), iram)
    out = ei_transform16(np.arange(16, dtype=np.uint8)[None], iram)
    assert out.tobytes() == bytes([255] * 16)


def test_transform_matches_scalar_lookup():
    rng = np.random.default_rng(5)
    lut = rng.integers(0, 256, 256, dtype=np.uint8)
    pixels = rng.integers(0, 256, 16, dtype=np.uint8)
    iram = IramState()
    lut_replicate(lut, iram)
    out = ei_transform16(pixels[None], iram)
    assert out[0].tolist() == lut[pixels].tolist()


# ------------------------------------------------------------ batches


def lane_oracle(iram, pixels, counting):
    """The kernels' per-lane accesses through the entry accessors, one
    invocation per row; the looked-up bytes for the transform."""
    values = []
    for row in pixels.tolist():
        with iram.invocation():
            for lane, pixel in enumerate(row):
                if counting:
                    iram.add_counter(lane, pixel)
                else:
                    values.append(iram.read_lut(lane, pixel))
    return None if counting else np.array(values, dtype=np.uint8).reshape(pixels.shape)


@settings(max_examples=60, deadline=None)
@given(
    invocations=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    levels=st.sampled_from((1, 3, 256)),
)
@example(invocations=0, seed=0, levels=256)
def test_kernel_batches_equal_loops_of_batches_of_one(invocations, seed, levels):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, levels, (invocations, 16), dtype=np.uint8)
    lut = rng.integers(0, 256, 256, dtype=np.uint8)
    for ei, run in ((histeq._SUBHIST_EI, ei_subhist16), (histeq._TRANSFORM_EI, ei_transform16)):
        counting = ei is histeq._SUBHIST_EI
        batch, loop, oracle = IramState(), IramState(), IramState()
        if not counting:
            for iram in (batch, loop, oracle):
                lut_replicate(lut, iram)
        batch_log, loop_log = InvocationLog(), InvocationLog()
        out = run(pixels, batch, log=batch_log)
        loop_out = [ei_execute(ei, (WideRegister(row.tobytes()),), iram=loop, log=loop_log) for row in pixels]
        want = lane_oracle(oracle, pixels, counting)
        assert np.array_equal(batch._mem, loop._mem) and np.array_equal(batch._mem, oracle._mem)
        assert batch_log.counts == loop_log.counts and batch_log.total == invocations
        if counting:
            assert out is None and loop_out == [()] * invocations
        else:
            assert out.shape == (invocations, 16)
            assert [[wr.data] for wr, in loop_out] == [[row.tobytes()] for row in out]
            assert np.array_equal(out, want)


def test_images_smaller_than_a_lane_group_take_the_scalar_tail():
    rng = np.random.default_rng(16)
    for n in range(1, 16):
        img = gray_image(rng.integers(0, 256, n, dtype=np.uint8))
        log = InvocationLog()
        out, _ = histeq_image(img, "isef", log=log)
        assert out == histeq_image(img, "scalar")[0]
        assert log.total == log.counts["merge_lut"] == 1


# ------------------------------------------------------------ whole images


def test_histeq_rejects_color_images():
    img = ImageBuffer(width=1, height=1, channels=3, samples=np.zeros(3, np.uint8))
    with pytest.raises(ChannelMismatch):
        histeq_image(img, "scalar")


def test_histeq_constant_image_maps_to_255():
    img = gray_image([42] * 64, width=8)
    for mode in ("scalar", "isef"):
        out, _ = histeq_image(img, mode)
        assert np.all(out.samples == 255), mode


def test_histeq_uniform_histogram_is_fixpoint():
    rng = np.random.default_rng(6)
    for repeats in (1, 2, 3):
        img = uniform_histogram_image(rng, repeats)
        out, _ = histeq_image(img, "scalar")
        assert out == img
        out_isef, _ = histeq_image(img, "isef")
        assert out_isef == img


@pytest.mark.parametrize("n", [1, 15, 16, 17, 64, 250])
def test_histeq_mode_equivalence_various_sizes(n):
    rng = np.random.default_rng(n)
    img = gray_image(rng.integers(0, 256, n, dtype=np.uint8))
    ref, _ = histeq_image(img, "scalar")
    got, _ = histeq_image(img, "isef")
    assert got == ref


def test_histeq_random_images_equivalent():
    rng = np.random.default_rng(77)
    for _ in range(50):
        img = random_gray_image(rng)
        ref, _ = histeq_image(img, "scalar")
        got, _ = histeq_image(img, "isef")
        assert got == ref


def test_histeq_128x128_cycle_totals():
    profile = cycle_model.builtin_profile()
    rng = np.random.default_rng(8)
    img = ImageBuffer.from_array(rng.integers(0, 256, (128, 128), dtype=np.uint8))
    out_s, rep_s = histeq_image(img, "scalar", profile=profile)
    out_i, rep_i = histeq_image(img, "isef", profile=profile)
    assert out_s == out_i
    assert rep_s.cycles_total == 17124334
    assert rep_i.cycles_total == 3154353
    assert rep_i.ei_invocations == 2049


def test_histeq_flushes_lane_counters_before_they_overflow():
    # 65536 groups: lane counters would pass 65535, so the run merges twice
    img = ImageBuffer.from_array(np.full((1024, 1024), 42, dtype=np.uint8))
    log = InvocationLog()
    out, report = histeq_image(img, "isef", profile=cycle_model.builtin_profile(), log=log)
    assert out == histeq_image(img, "scalar")[0]
    assert report.ei_invocations == log.total == 2 * 65536 + 2
    assert log.counts["merge_lut"] == 2


def test_histeq_invocation_mismatch_is_typed(monkeypatch):
    # The run's count is checked whether or not it is costed.
    transform = histeq.ei_transform16
    monkeypatch.setattr(histeq, "ei_transform16", lambda pixels, iram, log=None: transform(pixels, iram))
    img = gray_image(np.arange(32), width=8)
    for profile in (cycle_model.builtin_profile(), None):
        with pytest.raises(
            cycle_model.InvocationMismatch, match="^cost model predicted 5 invocations, executed 3$"
        ):
            histeq_image(img, "isef", profile=profile)


def test_histeq_with_a_reused_log():
    profile = cycle_model.builtin_profile()
    img = gray_image(np.arange(32), width=8)
    log = InvocationLog()
    for _ in range(2):
        _, report = histeq_image(img, "isef", profile=profile, log=log)
    assert report.ei_invocations == 5
    assert log.total == 10


def test_histeq_report_resources():
    report = cycle_model.estimate("histeq", "isef", 16384, cycle_model.builtin_profile())
    assert report.stages == 1
    ledger = report.resources
    assert ledger.multipliers_used == 0
    assert ledger.iram_bytes_used == 8192


def test_histeq_rejects_unknown_mode():
    img = gray_image([1, 2, 3, 4])
    for mode in ("vector", "ei5"):
        with pytest.raises(cycle_model.UnknownKernelConfig) as exc:
            histeq_image(img, mode)
        assert str(exc.value) == (
            f"no calibrated workload 'histeq' in mode '{mode}'; "
            "calibrated: yiq scalar/ei1/ei5/ei8, histeq scalar/isef"
        )
