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
    ratio = Fraction(scalar.cycles_total, ei5.cycles_total)
    assert ratio == Fraction(707524, 63518)
    assert round(float(ratio), 2) == 11.14

    h_scalar = estimate("histeq", "scalar", 16384, profile)
    h_isef = estimate("histeq", "isef", 16384, profile)
    h_ratio = Fraction(h_scalar.cycles_total, h_isef.cycles_total)
    assert round(float(h_ratio), 2) == 5.43


def test_report_speedup_field(profile):
    ei5 = estimate("yiq", "ei5", 64000, profile)
    assert ei5.speedup_vs_scalar == Fraction(707524, 63518)
    assert round(float(ei5.speedup_vs_scalar), 2) == 11.14
    isef = estimate("histeq", "isef", 16384, profile)
    assert round(float(isef.speedup_vs_scalar), 2) == 5.43
    scalar = estimate("yiq", "scalar", 64000, profile)
    assert scalar.speedup_vs_scalar == 1


def test_derived_ei5_invocation_cost(profile):
    assert profile.rates[("yiq", "ei5")] == Fraction(63518, 12800)
    assert abs(float(profile.rates[("yiq", "ei5")]) - 4.96) < 0.01


def test_unknown_kernel(profile):
    with pytest.raises(UnknownKernelConfig):
        estimate("sobel", "scalar", 100, profile)
    with pytest.raises(UnknownKernelConfig):
        estimate("yiq", "ei3", 100, profile)
    # executable modes outside the family's calibrated ones
    with pytest.raises(UnknownKernelConfig):
        estimate("yiq", "isef", 32, profile)
    with pytest.raises(UnknownKernelConfig) as exc:
        estimate("histeq", "ei5", 32, profile)
    # A ValueError, whose message reads as written: a KeyError would quote it.
    assert issubclass(UnknownKernelConfig, ValueError)
    assert str(exc.value).startswith("no calibrated workload 'histeq' in mode 'ei5'; calibrated: ")


def test_tail_needs_scalar_entry():
    # a lane rate without its family's scalar rate has no tail charge and no speedup
    with pytest.raises(ValueError, match="without its scalar rate"):
        CalibrationProfile(name="lonely", rates={("yiq", "ei5"): Fraction(5)})


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


def test_estimate_validates_arguments(profile):
    with pytest.raises(ValueError):
        estimate("yiq", "scalar", 0, profile)


# ------------------------------------------------------------ report figures


def fraction_figures(kernel, mode, pixels, profile):
    """Total, per-pixel cost and speedup by Fraction operators, as the model states them."""
    shape = KERNEL_SHAPES[mode]
    groups, tail = shape.split(pixels)
    cpp = profile.rates[(kernel, "scalar")]
    total = tail * cpp
    if shape.ledgers:
        total += shape.invocations(groups) * profile.rates[(kernel, mode)] / len(shape.ledgers)
    return total, total / pixels, pixels * cpp / total


rates = st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(
    point=st.sampled_from(CALIBRATION_MEASUREMENTS),
    pixels=st.integers(1, 1 << 24),
    values=st.lists(rates, min_size=len(CALIBRATION_MEASUREMENTS), max_size=len(CALIBRATION_MEASUREMENTS)),
)
def test_figures_match_the_fraction_formula(point, pixels, values):
    kernel, mode, _, _ = point
    pairs = [(k, m) for k, m, _, _ in CALIBRATION_MEASUREMENTS]
    profile = CalibrationProfile("random", dict(zip(pairs, values)))
    report = estimate(kernel, mode, pixels, profile)
    total, per_pixel, speedup = fraction_figures(kernel, mode, pixels, profile)
    assert (report.cycles_total, report.cycles_per_pixel, report.speedup_vs_scalar) == (
        total,
        per_pixel,
        speedup,
    )
    assert isinstance(report.cycles_total, int) == (total.denominator == 1)


def test_profile_rejects_negative_parameters():
    with pytest.raises(ValueError):
        CalibrationProfile(name="bad", rates={("yiq", "scalar"): Fraction(-1)})


@pytest.mark.parametrize(
    "rates",
    [{("yiq", "scalar"): Fraction(0)},
     {("yiq", "scalar"): Fraction(1), ("yiq", "ei5"): Fraction(0)}],
    ids=["scalar", "ei"],
)
def test_profile_rejects_zero_rates(rates):
    with pytest.raises(ValueError):
        CalibrationProfile(name="free", rates=rates)


@pytest.mark.parametrize("pair", [("cmy", "ei5"), ("yiq", "isef"), ("histeq", "ei5"), ("yiq", "ei3")])
def test_profile_rejects_uncalibrated_pairs(pair):
    with pytest.raises(ValueError):
        CalibrationProfile(name="stray", rates={pair: Fraction(1)})


def test_each_merge_costs_one_step():
    p = CalibrationProfile(
        name="ones", rates={("histeq", "scalar"): Fraction(1), ("histeq", "isef"): Fraction(1)}
    )
    # 2 groups x 2 instructions + 1 merge, at 1/2 cycle each
    report = estimate("histeq", "isef", 32, p)
    assert (report.ei_invocations, report.cycles_total) == (5, Fraction(5, 2))


# ----------------------------------------------------------------- fitting


def test_fit_single_point_scalar():
    p = fit_profile([("yiq", "scalar", 1000, 5000)])
    assert p.rates[("yiq", "scalar")] == 5
    assert estimate("yiq", "scalar", 1000, p).cycles_total == 5000


def test_fit_empty_is_underdetermined():
    with pytest.raises(Underdetermined):
        fit_profile([])


def test_fit_lane_mode_with_tail_needs_scalar():
    with pytest.raises(Underdetermined):
        fit_profile([("yiq", "ei5", 11, 100)])


def test_fit_lane_mode_needs_a_full_group():
    with pytest.raises(Underdetermined):
        fit_profile([("yiq", "ei5", 3, 100)])


@pytest.mark.parametrize("pixels", [10, 11], ids=["whole-groups", "tail"])
def test_fit_lane_mode_needs_its_scalar_measurement(pixels):
    with pytest.raises(Underdetermined, match="no scalar measurement"):
        fit_profile([("yiq", "ei5", pixels, 100)])
    with pytest.raises(Underdetermined, match="no scalar measurement"):
        fit_profile([("yiq", "scalar", 10, 100), ("histeq", "isef", 16 * pixels, 100)])


@pytest.mark.parametrize(
    "row,message",
    [(("yiq", "ei5", 3, 100), "fewer pixels than one 5-lane group"),
     (("yiq", "ei5", 100, 0), "no cycles left")],
    ids=["part-group", "zero-cycles"],
)
def test_fit_lane_mode_checks_with_a_scalar_measurement(row, message):
    with pytest.raises(Underdetermined, match=message):
        fit_profile([("yiq", "scalar", 10, 100), row])


@pytest.mark.parametrize(
    "rows",
    [
        [("yiq", "scalar", 100, 0)],
        [("yiq", "ei5", 100, 0)],
        [("yiq", "scalar", 10, 20), ("yiq", "ei5", 11, 2)],
    ],
    ids=["scalar", "lane", "lane-after-tail"],
)
def test_fit_zero_rate_is_underdetermined(rows):
    with pytest.raises(Underdetermined):
        fit_profile(rows)


def test_fit_reproduces_measurements_with_tails():
    rows = [("yiq", "scalar", 100, 700), ("yiq", "ei5", 23, 161)]
    p = fit_profile(rows)
    for kernel, mode, pixels, cycles in rows:
        assert estimate(kernel, mode, pixels, p).cycles_total == cycles


def test_fit_histeq_split():
    p = fit_profile([("histeq", "scalar", 16, 1600), ("histeq", "isef", 160, 2100)])
    # 10 groups -> 21 uniform steps; merge gets one, each group two
    assert p.rates[("histeq", "isef")] == 200
    assert estimate("histeq", "isef", 160, p).cycles_total == 2100
    # 65536 groups -> 2 * 65536 + 2 steps, one per merge
    p = fit_profile([("histeq", "scalar", 16, 1600), ("histeq", "isef", 16 * 65536, 3 * 131074)])
    assert p.rates[("histeq", "isef")] == 6
    assert estimate("histeq", "isef", 16 * 65536, p).cycles_total == 3 * 131074


def test_merges_per_run():
    isef = KERNEL_SHAPES["isef"]
    assert [isef.merges(g) for g in (0, 1, 65535, 65536, 131070, 131071)] == [1, 1, 1, 2, 2, 3]
    assert KERNEL_SHAPES["ei5"].merges(1 << 20) == 0


@pytest.mark.parametrize("mode", KERNEL_SHAPES)
def test_split_leaves_every_pixel_to_exactly_one_path(profile, mode):
    shape = KERNEL_SHAPES[mode]
    lanes = shape.lanes
    kernel = "histeq" if mode == "isef" else "yiq"
    for n in {1, lanes - 1, lanes, lanes + 1, 16384, 64000} - {-1, 0}:
        groups, tail = shape.split(n)
        assert groups * lanes + tail == n
        assert tail < lanes if lanes else (groups, tail) == (0, n)
        assert estimate(kernel, mode, n, profile).ei_invocations == shape.invocations(groups)


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
        fit_profile([("yiq", "ei3", 30, 100)])


# ------------------------------------------------------------- persistence


BUILTIN_PROFILE_TEXT = """\
name = s6000_paper
histeq.scalar.cycles_per_pixel = 8562167/8192
yiq.scalar.cycles_per_pixel = 176881/16000
histeq.isef.ei_cycles = 2102902/683
yiq.ei1.ei_cycles = 4681/1280
yiq.ei5.ei_cycles = 31759/6400
yiq.ei8.ei_cycles = 72517/8000
"""


def test_builtin_profile_text(profile):
    assert format_profile(profile) == BUILTIN_PROFILE_TEXT


def test_profile_text_with_the_old_stall_line_is_rejected():
    # a profile file that still carries the external-buffer stall line
    with pytest.raises(ValueError, match="line 8: unrecognized key 'stall_penalty_external'"):
        parse_profile(BUILTIN_PROFILE_TEXT + "stall_penalty_external = 0\n")


def test_profile_text_with_a_merge_charge_is_rejected():
    # a merge costs one step of its mode's rate, so no profile key sets it
    with pytest.raises(ValueError, match="line 8: unrecognized key 'merge_cycles'"):
        parse_profile(BUILTIN_PROFILE_TEXT + "merge_cycles = 0\n")


def test_profile_text_round_trip(profile):
    assert parse_profile(format_profile(profile)) == profile


def test_parse_profile_errors():
    with pytest.raises(ValueError):
        parse_profile("nonsense line")
    with pytest.raises(ValueError):
        parse_profile("yiq.ei5.ei_cycles = a/b")
    with pytest.raises(ValueError):
        parse_profile("what.ever = 3")
    # exponents past the int-string limit, rejected before Fraction() expands them
    for value in ("1e1000000", "1e-1000000"):
        with pytest.raises(ValueError, match="line 2"):
            parse_profile(f"name = big\nyiq.scalar.cycles_per_pixel = {value}\n")
    # rates no mode would charge: an unknown mode, and a per-group cost without lanes
    with pytest.raises(ValueError):
        parse_profile("yiq.ei3.ei_cycles = 5")
    with pytest.raises(ValueError):
        parse_profile("yiq.scalar.ei_cycles = 7")
    # rates for pairs outside the calibrated workloads, and the removed overhead key
    for key in ("cmy.ei5.ei_cycles", "yiq.isef.ei_cycles", "histeq.ei5.ei_cycles",
                "yiq.ei5.fixed_overhead"):
        with pytest.raises(ValueError, match="line 2"):
            parse_profile(f"yiq.scalar.cycles_per_pixel = 2\n{key} = 4\n")


def test_parse_profile_exponent_limit():
    for value in ("1e4300", "1e-4300"):
        p = parse_profile(f"name = edge\nyiq.scalar.cycles_per_pixel = {value}\n")
        assert p.rates[("yiq", "scalar")] == Fraction(value)
    for value in ("1e4301", "1e-4301"):
        with pytest.raises(ValueError, match=r"line 2: \|exponent\| > 4300"):
            parse_profile(f"name = edge\nyiq.scalar.cycles_per_pixel = {value}\n")


def test_parse_profile_rejects_a_repeated_key():
    for text in ("yiq.ei5.ei_cycles = 3\n# again\nyiq.ei5.ei_cycles = 4\n",
                 "name = a\nmerge_cycles = 1\nname = b\n"):
        with pytest.raises(ValueError, match=r"line 3: .* repeats line 1"):
            parse_profile(text)


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
    text = "# fitted by hand\n\nname = tiny\nyiq.scalar.cycles_per_pixel = 3/2\n"
    p = parse_profile(text)
    assert p.name == "tiny"
    assert p.rates[("yiq", "scalar")] == Fraction(3, 2)


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
    "fractional-speedup": parse_profile("yiq.scalar.cycles_per_pixel = 1e400\nyiq.ei5.ei_cycles = 3\n"),
    "integral-speedup": parse_profile("yiq.scalar.cycles_per_pixel = 6e400\nyiq.ei5.ei_cycles = 1\n"),
    "total": parse_profile("yiq.scalar.cycles_per_pixel = 1\nyiq.ei5.ei_cycles = 1e400\n"),
    # more digits than str() of an int allows; the parser rejects such a literal
    "over-4300-digits": CalibrationProfile(
        "huge", {("yiq", "scalar"): Fraction(10**5000), ("yiq", "ei5"): Fraction(3)}
    ),
}


@pytest.mark.parametrize("huge", HUGE_RATES.values(), ids=HUGE_RATES.keys())
def test_report_figure_beyond_the_float_range_is_typed(huge):
    report = estimate("yiq", "ei5", 10, huge)
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
        "profile",
    }
    assert set(d) == expected_keys
