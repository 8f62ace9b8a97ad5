from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpsim.colorspace import RGB2YIQ, convert_image
from scpsim.cycle_model import (
    CALIBRATION_MEASUREMENTS,
    KERNEL_SHAPES,
    CalibrationProfile,
    MismatchedWorkload,
    ReportOverflow,
    Underdetermined,
    UnknownKernelConfig,
    builtin_profile,
    estimate,
    fit_profile,
    format_profile,
    load_profile,
    mode_lanes,
    parse_profile,
    resolve_profile,
    speedup,
)
from scpsim.histeq import histeq_image
from scpsim.image_io import ImageBuffer, to_gray


@pytest.fixture(scope="module")
def profile():
    return builtin_profile()


@pytest.mark.parametrize("kernel,mode,pixels,cycles", CALIBRATION_MEASUREMENTS)
def test_calibration_points_exact(profile, kernel, mode, pixels, cycles):
    report = estimate(kernel, mode, pixels, profile)
    assert report.cycles_total == cycles
    assert isinstance(report.cycles_total, int)
    assert report.cycles_per_pixel == Fraction(cycles, pixels)


def test_speedup_examples(profile):
    scalar = estimate("yiq", "scalar", 64000, profile)
    ei5 = estimate("yiq", "ei5", 64000, profile)
    ratio = speedup(ei5, scalar)
    assert ratio == Fraction(707524, 63518)
    assert round(float(ratio), 2) == 11.14

    h_scalar = estimate("histeq", "scalar", 16384, profile)
    h_isef = estimate("histeq", "isef", 16384, profile)
    h_ratio = speedup(h_isef, h_scalar)
    assert round(float(h_ratio), 2) == 5.43

    assert speedup(scalar, scalar) == 1


def test_speedup_rejects_mismatched_workloads(profile):
    a = estimate("yiq", "scalar", 64000, profile)
    b = estimate("yiq", "ei5", 32000, profile)
    with pytest.raises(MismatchedWorkload):
        speedup(b, a)
    c = estimate("histeq", "scalar", 64000, profile)
    with pytest.raises(MismatchedWorkload):
        speedup(c, a)


def test_report_speedup_field(profile):
    ei5 = estimate("yiq", "ei5", 64000, profile)
    assert ei5.speedup_vs_scalar == Fraction(707524, 63518)
    scalar = estimate("yiq", "scalar", 64000, profile)
    assert scalar.speedup_vs_scalar == 1


def test_derived_ei5_invocation_cost(profile):
    assert profile.ei_cycles[("yiq", "ei5")] == Fraction(63518, 12800)
    assert abs(float(profile.ei_cycles[("yiq", "ei5")]) - 4.96) < 0.01


def test_unknown_kernel(profile):
    with pytest.raises(UnknownKernelConfig):
        estimate("sobel", "scalar", 100, profile)
    with pytest.raises(UnknownKernelConfig):
        estimate("yiq", "ei3", 100, profile)


def test_tail_needs_scalar_entry():
    lonely = CalibrationProfile(
        name="lonely",
        scalar_cycles_per_pixel={},
        ei_cycles={("yiq", "ei5"): Fraction(5)},
    )
    # whole groups are fine without a scalar rate, a tail is not
    assert estimate("yiq", "ei5", 10, lonely).cycles_total == 10
    with pytest.raises(UnknownKernelConfig):
        estimate("yiq", "ei5", 11, lonely)


def test_invocation_counts(profile):
    assert estimate("yiq", "scalar", 64000, profile).ei_invocations == 0
    assert estimate("yiq", "ei5", 64000, profile).ei_invocations == 12800
    assert estimate("yiq", "ei8", 64000, profile).ei_invocations == 8000
    assert estimate("histeq", "isef", 16384, profile).ei_invocations == 2049
    # 65536 groups flush the lane counters twice
    assert estimate("histeq", "isef", 1 << 20, profile).ei_invocations == 131074


def test_affine_in_pixels_on_lane_multiples(profile):
    # an arithmetic progression of lane-multiple workloads: exact affinity
    c1 = Fraction(estimate("yiq", "ei5", 5000, profile).cycles_total)
    c2 = Fraction(estimate("yiq", "ei5", 10000, profile).cycles_total)
    c3 = Fraction(estimate("yiq", "ei5", 15000, profile).cycles_total)
    assert c1 + c3 == 2 * c2


def test_estimate_reports_what_the_image_runs_report(profile):
    rng = np.random.default_rng(2)
    rgb = ImageBuffer.from_array(rng.integers(0, 256, (4, 20, 3), dtype=np.uint8))
    gray = to_gray(rgb)
    for kernel, mode, _, _ in CALIBRATION_MEASUREMENTS:
        bare = estimate(kernel, mode, 80, profile)
        if kernel == "yiq":
            _, run = convert_image(rgb, RGB2YIQ, mode, profile=profile)
        else:
            _, run = histeq_image(gray, mode, profile=profile)
        assert (run.resources, run.stages) == (bare.resources, bare.stages), mode
    ei8 = estimate("yiq", "ei8", 64000, profile)
    assert (ei8.resources.multipliers_used, ei8.stages) == (72, 2)
    isef = estimate("histeq", "isef", 16384, profile)
    assert (isef.resources.iram_bytes_used, isef.stages) == (8192, 1)


def test_monotone_in_pixels_on_lane_multiples(profile):
    previous = 0
    for pixels in range(16, 16 * 60, 16):
        total = Fraction(estimate("histeq", "isef", pixels, profile).cycles_total)
        assert total >= previous
        previous = total


def test_internal_buffers_never_stall():
    stall_profile = CalibrationProfile(
        name="stall",
        scalar_cycles_per_pixel={"yiq": Fraction(10)},
        ei_cycles={("yiq", "ei5"): Fraction(5)},
        stall_penalty_external=Fraction(7),
    )
    internal = estimate("yiq", "ei5", 50, stall_profile, "internal")
    external = estimate("yiq", "ei5", 50, stall_profile, "external")
    assert internal.cycles_total == 10 * 5
    assert external.cycles_total == 10 * 5 + 10 * 7


def test_fixed_overhead_applies():
    p = CalibrationProfile(
        name="oh",
        scalar_cycles_per_pixel={"yiq": Fraction(2)},
        ei_cycles={("yiq", "ei5"): Fraction(5)},
        fixed_overhead={("yiq", "ei5"): 100},
    )
    assert estimate("yiq", "ei5", 10, p).cycles_total == 2 * 5 + 100


def test_estimate_validates_arguments(profile):
    with pytest.raises(ValueError):
        estimate("yiq", "scalar", 0, profile)
    with pytest.raises(ValueError):
        estimate("yiq", "scalar", 100, profile, "sideways")


def test_profile_rejects_negative_parameters():
    with pytest.raises(ValueError):
        CalibrationProfile(
            name="bad",
            scalar_cycles_per_pixel={"yiq": Fraction(-1)},
            ei_cycles={},
        )


@pytest.mark.parametrize(
    "scalar,ei",
    [({"yiq": Fraction(0)}, {}), ({"yiq": Fraction(1)}, {("yiq", "ei5"): Fraction(0)})],
    ids=["scalar", "ei"],
)
def test_profile_rejects_zero_rates(scalar, ei):
    with pytest.raises(ValueError):
        CalibrationProfile(name="free", scalar_cycles_per_pixel=scalar, ei_cycles=ei)


def test_profile_accepts_zero_merge_stall_and_overhead():
    p = CalibrationProfile(
        name="zeros",
        scalar_cycles_per_pixel={"yiq": Fraction(1)},
        ei_cycles={("yiq", "ei5"): Fraction(1)},
        fixed_overhead={("yiq", "ei5"): 0},
    )
    assert estimate("yiq", "ei5", 10, p, "external").cycles_total == 2


# ----------------------------------------------------------------- fitting


def test_fit_single_point_scalar():
    p = fit_profile([("k", "scalar", 1000, 5000)])
    assert p.scalar_cycles_per_pixel["k"] == 5
    assert estimate("k", "scalar", 1000, p).cycles_total == 5000


def test_fit_empty_is_underdetermined():
    with pytest.raises(Underdetermined):
        fit_profile([])


def test_fit_lane_mode_with_tail_needs_scalar():
    with pytest.raises(Underdetermined):
        fit_profile([("k", "ei5", 11, 100)])


def test_fit_lane_mode_needs_a_full_group():
    with pytest.raises(Underdetermined):
        fit_profile([("k", "ei5", 3, 100)])


@pytest.mark.parametrize(
    "rows",
    [
        [("k", "scalar", 100, 0)],
        [("k", "ei5", 100, 0)],
        [("k", "scalar", 10, 20), ("k", "ei5", 11, 2)],
    ],
    ids=["scalar", "lane", "lane-after-tail"],
)
def test_fit_zero_rate_is_underdetermined(rows):
    with pytest.raises(Underdetermined):
        fit_profile(rows)


def test_fit_reproduces_measurements_with_tails():
    rows = [("k", "scalar", 100, 700), ("k", "ei5", 23, 161)]
    p = fit_profile(rows)
    for kernel, mode, pixels, cycles in rows:
        assert estimate(kernel, mode, pixels, p).cycles_total == cycles


def test_fit_histeq_split():
    p = fit_profile([("histeq", "isef", 160, 2100)])
    # 10 groups -> 21 uniform steps; merge gets one, each group two
    assert p.merge_cycles == 100
    assert p.ei_cycles[("histeq", "isef")] == 200
    assert estimate("histeq", "isef", 160, p).cycles_total == 2100
    # 65536 groups -> 2 * 65536 + 2 steps, one per merge
    p = fit_profile([("histeq", "isef", 16 * 65536, 3 * 131074)])
    assert p.merge_cycles == 3
    assert p.ei_cycles[("histeq", "isef")] == 6
    assert estimate("histeq", "isef", 16 * 65536, p).cycles_total == 3 * 131074


def test_merges_per_run():
    isef = KERNEL_SHAPES["isef"]
    assert [isef.merges(g) for g in (0, 1, 65535, 65536, 131070, 131071)] == [1, 1, 1, 2, 2, 3]
    assert KERNEL_SHAPES["ei5"].merges(1 << 20) == 0


def test_mode_lanes():
    assert mode_lanes("scalar") == 0
    assert mode_lanes("ei1") == 1
    assert mode_lanes("ei8") == 8
    assert mode_lanes("isef") == 16
    with pytest.raises(UnknownKernelConfig):
        mode_lanes("wide")
    # only the executable lane widths have a shape
    with pytest.raises(UnknownKernelConfig):
        mode_lanes("ei3")
    with pytest.raises(UnknownKernelConfig):
        fit_profile([("k", "ei3", 30, 100)])


# ------------------------------------------------------------- persistence


def test_profile_text_round_trip(profile):
    assert parse_profile(format_profile(profile)) == profile


def test_parse_profile_errors():
    with pytest.raises(ValueError):
        parse_profile("nonsense line")
    with pytest.raises(ValueError):
        parse_profile("yiq.ei5.ei_cycles = a/b")
    with pytest.raises(ValueError):
        parse_profile("what.ever = 3")
    with pytest.raises(ValueError):
        parse_profile("yiq.ei5.fixed_overhead = 1/2")
    # rates no mode would charge: an unknown mode, and a per-group cost without lanes
    with pytest.raises(ValueError):
        parse_profile("yiq.ei3.ei_cycles = 5")
    with pytest.raises(ValueError):
        parse_profile("yiq.scalar.ei_cycles = 7")


profile_keys = st.sampled_from(
    ["name", "merge_cycles", "stall_penalty_external", "yiq.scalar.cycles_per_pixel",
     "yiq.ei5.ei_cycles", "histeq.isef.fixed_overhead", "yiq.ei5.cycles_per_pixel",
     "yiq.ei3.ei_cycles", "a.b"]
)
profile_values = st.one_of(
    st.text(max_size=8), st.integers(-10, 10**6).map(str), st.fractions().map(str)
)
profile_lines = st.one_of(
    st.text(max_size=24),
    st.builds(lambda k, v: f"{k} = {v}", profile_keys, profile_values),
)


@settings(max_examples=100)
@given(st.lists(profile_lines, max_size=6).map("\n".join))
def test_parse_profile_raises_only_value_errors(text):
    try:
        parse_profile(text)
    except ValueError:
        pass


def test_parse_profile_ignores_comments_and_blanks():
    text = "# fitted by hand\n\nname = tiny\nk.scalar.cycles_per_pixel = 3/2\n"
    p = parse_profile(text)
    assert p.name == "tiny"
    assert p.scalar_cycles_per_pixel["k"] == Fraction(3, 2)


def test_load_and_resolve_profile(tmp_path, monkeypatch, profile):
    path = tmp_path / "custom.profile"
    path.write_text(format_profile(profile))
    assert load_profile(path) == profile
    # lookup through the profile directory
    monkeypatch.setenv("SCPSIM_PROFILE_DIR", str(tmp_path))
    assert resolve_profile("custom") == profile
    # direct path
    assert resolve_profile(str(path)) == profile
    with pytest.raises(FileNotFoundError):
        resolve_profile("nope")


HUGE_RATES = {
    "fractional-speedup": "yiq.scalar.cycles_per_pixel = 1e400\nyiq.ei5.ei_cycles = 3\n",
    "integral-speedup": "yiq.scalar.cycles_per_pixel = 6e400\nyiq.ei5.ei_cycles = 1\n",
    "total": "yiq.scalar.cycles_per_pixel = 1\nyiq.ei5.ei_cycles = 1e400\n",
}


@pytest.mark.parametrize("rates", HUGE_RATES.values(), ids=HUGE_RATES.keys())
def test_report_figure_beyond_the_float_range_is_typed(rates):
    report = estimate("yiq", "ei5", 10, parse_profile(rates))
    with pytest.raises(ReportOverflow):
        report.to_dict()


def test_report_dict_schema(profile):
    d = estimate("yiq", "ei5", 64000, profile).to_dict()
    assert d["cycles_total"] == 63518
    assert d["cycles_total_exact"] == "63518"
    assert d["speedup_rounded"] == 11
    assert d["profile"] == "s6000_paper"
    expected_keys = {
        "kernel", "mode", "pixels", "ei_invocations", "stages",
        "cycles_total", "cycles_total_exact", "cycles_per_pixel",
        "cycles_per_pixel_exact", "speedup_vs_scalar", "speedup_vs_scalar_exact",
        "speedup_rounded", "multipliers_used", "alu_ops_used", "iram_bytes_used",
        "buffer_location", "profile",
    }
    assert set(d) == expected_keys
