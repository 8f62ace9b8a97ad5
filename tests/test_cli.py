"""The CLI's documented exit codes, its bench table and its report files."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scpsim import cli, colorspace, cycle_model, histeq
from scpsim.image_io import ImageBuffer, read_pnm, write_pnm

BENCH_YIQ = """\
kernel=yiq pixels=64000 profile=s6000_paper
mode           cycles  cycles/px  speedup  (~)  invocations  mults stages
scalar         707524      11.06     1.00    1            0      0      0
ei1            234050       3.66     3.02    3        64000      9      1
ei5             63518       0.99    11.14   11        12800     45      1
ei8             72517       1.13     9.76   10         8000     72      2
"""

BENCH_HISTEQ = """\
kernel=histeq pixels=16384 profile=s6000_paper
mode           cycles  cycles/px  speedup  (~)  invocations  mults stages
scalar       17124334    1045.19     1.00    1            0      0      0
isef          3154353     192.53     5.43    5         2049      0      1
"""

CONVERT_JSON = """\
{
  "kernel": "yiq",
  "mode": "ei5",
  "pixels": 28,
  "ei_invocations": 5,
  "stages": 1,
  "cycles_total": 57.97690625,
  "cycles_total_exact": "1855261/32000",
  "cycles_per_pixel": 2.070603794642857,
  "cycles_per_pixel_exact": "1855261/896000",
  "speedup_vs_scalar": 5.3390525645717775,
  "speedup_vs_scalar_exact": "9905336/1855261",
  "speedup_rounded": 5,
  "multipliers_used": 45,
  "alu_ops_used": 165,
  "iram_bytes_used": 0,
  "profile": "s6000_paper"
}
"""

REPORT_HEADER = (
    "kernel,mode,pixels,ei_invocations,stages,cycles_total,cycles_per_pixel,"
    "speedup_vs_scalar,speedup_rounded,multipliers_used,alu_ops_used,"
    "iram_bytes_used,profile\r\n"
)

CONVERT_CSV = REPORT_HEADER + (
    "yiq,ei5,28,5,1,57.97690625,2.070603794642857,5.3390525645717775,5,45,165,0,"
    "s6000_paper\r\n"
)

HISTEQ_JSON = """\
{
  "kernel": "histeq",
  "mode": "isef",
  "pixels": 35,
  "ei_invocations": 5,
  "stages": 1,
  "cycles_total": 10832.857886385604,
  "cycles_total_exact": "60611313143/5595136",
  "cycles_per_pixel": 309.51022532530294,
  "cycles_per_pixel_exact": "60611313143/195829760",
  "speedup_vs_scalar": 3.3769042695396267,
  "speedup_vs_scalar_exact": "204678602135/60611313143",
  "speedup_rounded": 3,
  "multipliers_used": 0,
  "alu_ops_used": 32,
  "iram_bytes_used": 8192,
  "profile": "s6000_paper"
}
"""

BENCH_HISTEQ_CSV = REPORT_HEADER + (
    "histeq,scalar,16384,0,0,17124334,1045.1864013671875,1,1,0,0,0,s6000_paper\r\n"
    "histeq,isef,16384,2049,1,3154353,192.52642822265625,5.4287944310608225,5,0,32,8192,"
    "s6000_paper\r\n"
)

ROUNDTRIP_STDOUT = """\
samples swept:        16777216
max channel error:    5 (frozen bound 5)
per-channel maxima:   r=3 g=3 b=5
mean channel error:   1.114066
first worst triple:   rgb(0, 121, 212)
"""

ROUNDTRIP_JSON = """\
{
  "samples": 16777216,
  "max_error": 5,
  "per_channel_max": [
    3,
    3,
    5
  ],
  "mean_error": 1.1140663027763367,
  "argmax_rgb": [
    0,
    121,
    212
  ],
  "frozen_bound": 5
}
"""

ROUNDTRIP_CSV = (
    "argmax_rgb,frozen_bound,max_error,mean_error,per_channel_max,samples\r\n"
    '"[0, 121, 212]",5,5,1.1140663027763367,"[3, 3, 5]",16777216\r\n'
)


@pytest.fixture
def ppm(tmp_path):
    rng = np.random.default_rng(12)
    img = ImageBuffer.from_array(rng.integers(0, 256, (4, 7, 3), dtype=np.uint8))
    path = tmp_path / "in.ppm"
    path.write_bytes(write_pnm(img))
    return path


def convert(ppm, tmp_path, *extra):
    return cli.main(["convert", "--in", str(ppm), "--out", str(tmp_path / "out.ppm"), *extra])


def test_success_writes_the_converted_image(ppm, tmp_path):
    assert convert(ppm, tmp_path, "--to", "yiq", "--mode", "ei8") == cli.EXIT_OK
    flat = read_pnm(ppm.read_bytes()).samples.reshape(-1, 3)
    out = read_pnm((tmp_path / "out.ppm").read_bytes()).samples.reshape(-1, 3)
    assert np.array_equal(out, colorspace.apply_matrix_np(flat, colorspace.RGB2YIQ))


def test_unknown_target_is_a_usage_error(ppm, tmp_path):
    assert convert(ppm, tmp_path, "--to", "hsv") == cli.EXIT_USAGE


def test_missing_input_is_an_io_error(tmp_path):
    assert convert(tmp_path / "absent.ppm", tmp_path, "--to", "yiq") == cli.EXIT_IO


def test_truncated_raster_is_an_io_error(ppm, tmp_path):
    ppm.write_bytes(ppm.read_bytes()[:-5])
    assert convert(ppm, tmp_path, "--to", "yiq") == cli.EXIT_IO


def test_out_of_range_coefficient_is_a_constraint_error(ppm, tmp_path):
    matrix = tmp_path / "bad.matrix"
    matrix.write_text("name = bad\nrow0 = 600 0 0\nrow1 = 0 256 0\nrow2 = 0 0 256\n")
    assert convert(ppm, tmp_path, "--to", f"matrix:{matrix}") == cli.EXIT_CONSTRAINT


@pytest.mark.parametrize(
    "text",
    [
        "name = m\nrow0 = 256 0 0\nrow1 = 0 256 0\nrow2 = 0 0 256\noutput_offset = 1 2 3 4\n",
        "name = m\nrow0 = 256 0 0\nrow1 = 0 256 0\nrow2 = 0 0 256\noutput_ofset = 100 100 100\n",
        "name = m\nrow0 = 256 0 0\nrow1 = 0 256 0\nrow2 0 0 256\n",
        "name = m\nrow0 = 256 0 0\nrow1 = 0 256 0\nrow2 = 0 0 256\ninput_offset = 9223372036854775808 0 0\n",
        "name = m\nrow0 = 256 0 0\nrow1 = 0 256 0\nrow2 = 0 0 256\noutput_offset = 0 256 0\n",
        "name = m\nrow0 = 256 0 0\nrow1 = 0 256 0\nrow2 = 0 0 256\nrow0 = 0 0 0\n",
    ],
    ids=["four-offsets", "misspelt-key", "no-equals", "offset-2^63", "offset-256", "repeated-row0"],
)
def test_malformed_matrix_file_is_a_constraint_error(ppm, tmp_path, text):
    matrix = tmp_path / "bad.matrix"
    matrix.write_text(text)
    assert convert(ppm, tmp_path, "--to", f"matrix:{matrix}") == cli.EXIT_CONSTRAINT


@pytest.mark.parametrize(
    "flag, content, message",
    [
        ("--to", b"\xffname = m\n", "matrix file {path}: 'utf-8' codec can't decode byte 0xff"),
        ("--profile", b"\xffname = p\n", "profile file {path}: 'utf-8' codec can't decode byte 0xff"),
        ("--to", b"row0 = 1.5 2 3\n", "matrix file {path} line 1: expected integers, got '1.5 2 3'"),
        ("--to", b"row0 = 1 0 0\nrow1 = 0 1 0\n", "matrix file {path}: missing row2\n"),
        ("--to", b"row0 = 600 0 0\nrow1 = 0 1 0\nrow2 = 0 0 1\n",
         "matrix file {path}: scaled coefficient 600 outside [-512, 512]\n"),
        ("--to", b"row0 = 1 0\nrow1 = 0 1 0\nrow2 = 0 0 1\n",
         "matrix file {path}: conversion matrix must be 3x3\n"),
        ("--to", b"row0 = 1 0 0\nrow1 = 0 1 0\nrow2 = 0 0 1\ninput_offset = 0 0 0 0\n",
         "matrix file {path}: conversion offsets must be three integers in [-255, 255], got (0, 0, 0, 0)\n"),
        ("--to", b"row0 = 1 0 0\nrow1 = 0 1 0\nrow2 = 0 0 1\noutput_offset = 0 256 0\n",
         "matrix file {path}: conversion offsets must be three integers in [-255, 255], got (0, 256, 0)\n"),
        ("--profile", b"name = p\nyiq.scalar.cycles_per_pixel = abc\n",
         "profile file {path} line 2: bad rational 'abc'\n"),
        ("--profile", b"name = p\nyiq.ei5.ei_cycles = 3\n",
         "profile file {path}: profile 'p' rates 'yiq' mode 'ei5' without its scalar rate "
         "yiq.scalar.cycles_per_pixel\n"),
        ("--profile", b"yiq.scalar.cycles_per_pixel = 0\n", "profile file {path}: rates must be positive\n"),
    ],
    ids=["matrix-not-utf8", "profile-not-utf8", "matrix-not-integers", "matrix-without-row2",
         "coefficient-600", "two-value-row", "four-offsets", "offset-256",
         "profile-bad-rational", "profile-lane-rate-alone", "profile-zero-rate"],
)
def test_unreadable_text_file_is_named_in_the_error(ppm, tmp_path, capsys, flag, content, message):
    path = tmp_path / "bin.txt"
    path.write_bytes(content)
    spec = f"matrix:{path}" if flag == "--to" else str(path)
    # The profile is read only for a report; a second --to replaces the first.
    args = ("--to", "yiq", "--report", str(tmp_path / "r.json"), flag, spec)
    assert convert(ppm, tmp_path, *args) == cli.EXIT_CONSTRAINT
    assert capsys.readouterr().err.startswith("constraint error: " + message.format(path=path))


@pytest.mark.parametrize(
    "argv", [["--sample", "5"], ["--seed", "1"], ["--gray-only"]], ids=["sample", "seed", "gray-only"]
)
def test_removed_roundtrip_flags_are_usage_errors(capsys, argv):
    # The sweep always covers the whole cube; an old script fails instead of checking less.
    assert cli.main(["roundtrip", *argv]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage error: unrecognized arguments: {argv[0]}")


def test_invocation_mismatch_is_a_constraint_error(monkeypatch, tmp_path):
    transform = histeq.ei_transform16
    monkeypatch.setattr(histeq, "ei_transform16", lambda pixels, iram, log=None: transform(pixels, iram))
    pgm = tmp_path / "in.pgm"
    pgm.write_bytes(write_pnm(ImageBuffer.from_array(np.arange(32, dtype=np.uint8).reshape(4, 8))))
    argv = ["histeq", "--in", str(pgm), "--out", str(tmp_path / "out.pgm")]
    assert cli.main([*argv, "--report", str(tmp_path / "r.json")]) == cli.EXIT_CONSTRAINT


def test_report_without_a_profile_entry_is_a_constraint_error(ppm, tmp_path):
    profile = tmp_path / "histeq-only.profile"
    profile.write_text("histeq.scalar.cycles_per_pixel = 1000\nhisteq.isef.ei_cycles = 200\n")
    report = tmp_path / "r.json"
    for mode in colorspace.CONVERT_MODES:
        args = ("--to", "cmy", "--mode", mode, "--report", str(report), "--profile", str(profile))
        assert convert(ppm, tmp_path, *args) == cli.EXIT_CONSTRAINT, mode
        assert not (tmp_path / "out.ppm").exists() and not report.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("mode", colorspace.CONVERT_MODES)
def test_every_target_is_costed_at_the_yiq_rates(ppm, tmp_path, mode, fmt):
    matrix = tmp_path / "swap.matrix"
    matrix.write_text("name = swap\nrow0 = 0 0 256\nrow1 = 0 256 0\nrow2 = 256 0 0\n")
    report = tmp_path / f"r.{fmt}"
    reports = set()
    for target in ("yiq", "rgb", "cmy", f"matrix:{matrix}"):
        args = ("--to", target, "--mode", mode, "--report", str(report), "--format", fmt)
        assert convert(ppm, tmp_path, *args) == cli.EXIT_OK, target
        reports.add(report.read_bytes())
    (text,) = reports  # all four targets wrote the same bytes
    if fmt == "json":
        expected = cycle_model.estimate("yiq", mode, 28, cycle_model.builtin_profile())
        assert json.loads(text) == expected.to_dict()
    if mode == "ei5":
        assert text == {"json": CONVERT_JSON, "csv": CONVERT_CSV}[fmt].encode()


@pytest.mark.parametrize(
    "rates", ["yiq.scalar.cycles_per_pixel = 0\nyiq.ei5.ei_cycles = 3\n",
              "yiq.scalar.cycles_per_pixel = 2\nyiq.ei5.ei_cycles = 0\n"],
    ids=["scalar", "ei"],
)
def test_zero_rate_profile_is_a_constraint_error(ppm, tmp_path, rates):
    profile = tmp_path / "free.profile"
    profile.write_text("name = free\n" + rates)
    args = ("--to", "yiq", "--report", str(tmp_path / "r.json"), "--profile", str(profile))
    assert convert(ppm, tmp_path, *args) == cli.EXIT_CONSTRAINT


@pytest.mark.parametrize(
    "line",
    ["cmy.ei5.ei_cycles = 3", "yiq.isef.ei_cycles = 4", "histeq.ei5.ei_cycles = 4",
     "yiq.ei5.fixed_overhead = 100", "yiq.ei5.ei_cycles = 4"],
    ids=["cmy-ei5", "yiq-isef", "histeq-ei5", "fixed-overhead", "repeated-key"],
)
def test_uncalibrated_or_repeated_profile_key_is_a_constraint_error(ppm, tmp_path, line):
    profile = tmp_path / "stray.profile"
    profile.write_text(f"yiq.scalar.cycles_per_pixel = 2\nyiq.ei5.ei_cycles = 3\n{line}\n")
    args = ("--to", "yiq", "--report", str(tmp_path / "r.json"), "--profile", str(profile))
    assert convert(ppm, tmp_path, *args) == cli.EXIT_CONSTRAINT
    assert not (tmp_path / "out.ppm").exists()


def test_profile_text_with_the_old_stall_line_is_a_constraint_error(ppm, tmp_path, capsys):
    profile = tmp_path / "old.profile"
    profile.write_text(
        "name = old\nyiq.scalar.cycles_per_pixel = 2\nyiq.ei5.ei_cycles = 3\n"
        "stall_penalty_external = 0\n"
    )
    args = ("--to", "yiq", "--report", str(tmp_path / "r.json"), "--profile", str(profile))
    assert convert(ppm, tmp_path, *args) == cli.EXIT_CONSTRAINT
    message = f"profile file {profile} line 4: unrecognized key 'stall_penalty_external'"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.ppm").exists() and not (tmp_path / "r.json").exists()


def test_profile_text_with_a_merge_charge_is_a_constraint_error(tmp_path, capsys):
    pgm = tmp_path / "in.pgm"
    pgm.write_bytes(write_pnm(ImageBuffer.from_array(np.arange(35, dtype=np.uint8).reshape(7, 5))))
    profile = tmp_path / "old.profile"
    profile.write_text(
        "name = old\nhisteq.scalar.cycles_per_pixel = 2\nhisteq.isef.ei_cycles = 3\n"
        "merge_cycles = 0\n"
    )
    argv = ["histeq", "--in", str(pgm), "--out", str(tmp_path / "out.pgm"), "--mode", "isef",
            "--report", str(tmp_path / "r.json"), "--profile", str(profile)]
    assert cli.main(argv) == cli.EXIT_CONSTRAINT
    assert f"profile file {profile} line 4: unrecognized key 'merge_cycles'" in capsys.readouterr().err
    assert not (tmp_path / "out.pgm").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("shape", [(5, 5, 3), (4, 7, 3)], ids=["25px", "28px"])
def test_lane_rate_without_a_scalar_rate_is_a_constraint_error(tmp_path, shape):
    # 25 px is five whole ei5 groups, 28 px leaves a tail: the profile is rejected either way
    ppm = tmp_path / "in.ppm"
    ppm.write_bytes(write_pnm(ImageBuffer.from_array(np.full(shape, 9, dtype=np.uint8))))
    profile = tmp_path / "lonely.profile"
    profile.write_text("yiq.ei5.ei_cycles = 5\n")
    args = ("--to", "yiq", "--mode", "ei5", "--report", str(tmp_path / "r.json"),
            "--profile", str(profile))
    assert convert(ppm, tmp_path, *args) == cli.EXIT_CONSTRAINT
    assert not (tmp_path / "out.ppm").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["convert", "histeq", "bench"])
def test_buffers_flag_is_a_usage_error(ppm, tmp_path, command):
    if command == "bench":
        argv = ["bench", "--kernel", "yiq"]
    else:
        argv = [command, "--in", str(ppm), "--out", str(tmp_path / "out.ppm")]
        if command == "convert":
            argv += ["--to", "yiq"]
    assert cli.main(argv) == cli.EXIT_OK
    (tmp_path / "out.ppm").unlink(missing_ok=True)
    for value in ("internal", "external"):
        assert cli.main([*argv, "--buffers", value]) == cli.EXIT_USAGE
        assert not (tmp_path / "out.ppm").exists()


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_exits_0_and_names_no_removed_flag(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: scpsim")
    assert "stall" not in text
    assert not any(flag in text for flag in ("--buffers", "--sample", "--seed", "--gray-only"))


def test_profile_beyond_the_float_range_is_a_constraint_error(ppm, tmp_path):
    profile = tmp_path / "huge.profile"
    profile.write_text("yiq.scalar.cycles_per_pixel = 1e400\nyiq.ei5.ei_cycles = 3\n")
    args = ("--to", "yiq", "--report", str(tmp_path / "r.json"), "--profile", str(profile))
    assert convert(ppm, tmp_path, *args) == cli.EXIT_CONSTRAINT
    assert not (tmp_path / "out.ppm").exists() and not (tmp_path / "r.json").exists()


def test_header_number_too_long_to_convert_is_an_io_error(ppm, tmp_path):
    ppm.write_bytes(b"P6 " + b"1" * 5000 + b" 1 255 \x00\x00\x00")
    assert convert(ppm, tmp_path, "--to", "yiq") == cli.EXIT_IO


IDENTITY = ((256, 0, 0), (0, 256, 0), (0, 0, 256))
ZERO_OFFSETS = (0,) * 6
rates = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=0, max_value=10**6).filter(lambda r: r > 0)
)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.tuples(*(st.tuples(*(st.integers(-512, 512),) * 3),) * 3),
    offsets=st.tuples(*(st.integers(-255, 255) | st.integers(-(2**70), 2**70),) * 6),
    mode=st.sampled_from(colorspace.CONVERT_MODES),
    scalar_rate=rates,
    ei_rate=rates,
)
@example(coeffs=IDENTITY, offsets=(-(2**55), 0, 0, 0, 0, 0), mode="ei5", scalar_rate=1, ei_rate=1)
@example(coeffs=IDENTITY, offsets=(2**63, 0, 0, 0, 0, 0), mode="scalar", scalar_rate=1, ei_rate=1)
@example(coeffs=IDENTITY, offsets=ZERO_OFFSETS, mode="ei5", scalar_rate=0, ei_rate=1)
@example(coeffs=IDENTITY, offsets=ZERO_OFFSETS, mode="ei5", scalar_rate=1, ei_rate=0)
def test_convert_with_a_custom_matrix_and_profile_exits_with_a_code(
    tmp_path_factory, coeffs, offsets, mode, scalar_rate, ei_rate
):
    tmp = tmp_path_factory.getbasetemp()
    ppm, out = tmp / "prop.ppm", tmp / "prop-out.ppm"
    pixels = [(7, 7, 7), (0, 255, 128), (255, 0, 1), (3, 200, 90), (128, 128, 128), (1, 2, 3)]
    ppm.write_bytes(write_pnm(ImageBuffer.from_array(np.array([pixels], dtype=np.uint8))))
    rows = "".join(f"row{i} = {' '.join(map(str, row))}\n" for i, row in enumerate(coeffs))
    matrix = tmp / "prop.matrix"
    matrix.write_text(
        f"name = m\n{rows}input_offset = {' '.join(map(str, offsets[:3]))}\n"
        f"output_offset = {' '.join(map(str, offsets[3:]))}\n"
    )
    profile = tmp / "prop.profile"
    profile.write_text(
        f"yiq.scalar.cycles_per_pixel = {scalar_rate}\n"
        + "".join(f"yiq.ei{lanes}.ei_cycles = {ei_rate}\n" for lanes in (1, 5, 8))
    )
    argv = ["convert", "--in", str(ppm), "--out", str(out), "--to", f"matrix:{matrix}",
            "--mode", mode, "--report", str(tmp / "prop.json"), "--profile", str(profile)]
    code = cli.main(argv)
    valid = scalar_rate > 0 and ei_rate > 0 and all(abs(v) <= 255 for v in offsets)
    assert code == (cli.EXIT_OK if valid else cli.EXIT_CONSTRAINT)
    if valid:
        m = colorspace.ConversionMatrix("m", coeffs, offsets[:3], offsets[3:])
        got = read_pnm(out.read_bytes()).samples.reshape(-1, 3).tolist()
        assert got == [list(colorspace.convert_px(m, p)) for p in pixels]


def test_roundtrip_over_the_frozen_bound_is_a_regression(monkeypatch, capsys):
    # One below the cube's true maximum fails.
    monkeypatch.setattr(colorspace, "ROUNDTRIP_MAX_ERROR", 4)
    assert cli.main(["roundtrip"]) == cli.EXIT_REGRESSION
    assert capsys.readouterr().out.endswith("REGRESSION: max error 5 exceeds frozen bound 4\n")


@pytest.mark.parametrize(
    "kernel,table", [("yiq", BENCH_YIQ), ("histeq", BENCH_HISTEQ)], ids=["yiq", "histeq"]
)
def test_bench_table(capsys, kernel, table):
    assert cli.main(["bench", "--kernel", kernel]) == cli.EXIT_OK
    assert capsys.readouterr().out == table


def test_failed_bench_prints_no_table(capsys):
    assert cli.main(["bench", "--kernel", "yiq", "--pixels", "0"]) == cli.EXIT_CONSTRAINT
    assert capsys.readouterr().out == ""


def test_bench_rejects_a_kernel_without_measurements():
    assert cli.main(["bench", "--kernel", "cmy"]) == cli.EXIT_CONSTRAINT


@pytest.mark.parametrize("fmt,golden", [("json", CONVERT_JSON), ("csv", CONVERT_CSV)])
def test_convert_report_file(ppm, tmp_path, fmt, golden):
    report = tmp_path / f"r.{fmt}"
    args = ("--to", "yiq", "--mode", "ei5", "--report", str(report), "--format", fmt)
    assert convert(ppm, tmp_path, *args) == cli.EXIT_OK
    assert report.read_bytes() == golden.encode()


def test_histeq_report_file(tmp_path):
    rng = np.random.default_rng(5)
    pgm = tmp_path / "in.pgm"
    pgm.write_bytes(write_pnm(ImageBuffer.from_array(rng.integers(0, 256, (7, 5), dtype=np.uint8))))
    report = tmp_path / "r.json"
    argv = ["histeq", "--in", str(pgm), "--out", str(tmp_path / "out.pgm"), "--mode", "isef"]
    assert cli.main([*argv, "--report", str(report)]) == cli.EXIT_OK
    assert report.read_bytes() == HISTEQ_JSON.encode()


def test_bench_report_file(tmp_path):
    report = tmp_path / "r.csv"
    argv = ["bench", "--kernel", "histeq", "--format", "csv", "--report", str(report)]
    assert cli.main(argv) == cli.EXIT_OK
    assert report.read_bytes() == BENCH_HISTEQ_CSV.encode()


@pytest.mark.parametrize(
    "fmt,golden", [("json", ROUNDTRIP_JSON), ("csv", ROUNDTRIP_CSV)], ids=["json", "csv"]
)
def test_roundtrip_report_file(tmp_path, capsys, fmt, golden):
    report = tmp_path / f"r.{fmt}"
    argv = ["roundtrip", "--report", str(report), "--format", fmt]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == ROUNDTRIP_STDOUT
    assert report.read_bytes() == golden.encode()


def test_requests_in_one_process_answer_as_with_a_fresh_parser(ppm, tmp_path, capsys):
    # The parser is built once per process; a usage error must not change the next request.
    def run(out):
        out.mkdir()
        requests = [
            ["convert", "--in", str(ppm), "--out", str(out / "bad.ppm"), "--to", "yiq", "--mode", "ei9"],
            ["convert", "--in", str(ppm), "--out", str(out / "c.ppm"), "--to", "yiq",
             "--report", str(out / "c.json")],
            ["histeq", "--in", str(ppm), "--out", str(out / "h.pgm"), "--report", str(out / "h.csv"),
             "--format", "csv"],
        ]
        answers = []
        for argv in requests:
            if out.name == "fresh":
                cli._build_parser.cache_clear()
            code = cli.main(argv)
            answers.append((code, *capsys.readouterr()))
        return answers, {path.name: path.read_bytes() for path in out.iterdir()}

    shared = run(tmp_path / "shared")
    assert shared == run(tmp_path / "fresh")
    assert [code for code, _, _ in shared[0]] == [cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_OK]
    assert sorted(shared[1]) == ["c.json", "c.ppm", "h.csv", "h.pgm"]
    assert cli._build_parser() is cli._build_parser()
