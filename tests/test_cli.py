"""The CLI's documented exit codes and its bench table."""

import numpy as np
import pytest

from scpsim import cli, colorspace
from scpsim.image_io import ImageBuffer, read_pnm, write_pnm

BENCH_YIQ = """\
kernel=yiq pixels=64000 profile=s6000_paper buffers=internal
mode           cycles  cycles/px  speedup  (~)  invocations  mults stages
scalar         707524      11.06     1.00    1            0      0      0
ei1            234050       3.66     3.02    3        64000      9      1
ei5             63518       0.99    11.14   11        12800     45      1
ei8             72517       1.13     9.76   10         8000     72      2
"""

BENCH_HISTEQ = """\
kernel=histeq pixels=16384 profile=s6000_paper buffers=internal
mode           cycles  cycles/px  speedup  (~)  invocations  mults stages
scalar       17124334    1045.19     1.00    1            0      0      0
isef          3154353     192.53     5.43    5         2049      0      1
"""


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


def test_report_without_a_profile_entry_is_a_constraint_error(ppm, tmp_path):
    report = tmp_path / "r.json"
    assert convert(ppm, tmp_path, "--to", "cmy", "--report", str(report)) == cli.EXIT_CONSTRAINT


def test_roundtrip_over_the_frozen_bound_is_a_regression(monkeypatch):
    monkeypatch.setattr(colorspace, "ROUNDTRIP_MAX_ERROR", -1)
    assert cli.main(["roundtrip", "--gray-only"]) == cli.EXIT_REGRESSION


@pytest.mark.parametrize("kernel,table", [("yiq", BENCH_YIQ), ("histeq", BENCH_HISTEQ)])
def test_bench_table(capsys, kernel, table):
    assert cli.main(["bench", "--kernel", kernel]) == cli.EXIT_OK
    assert capsys.readouterr().out == table


def test_bench_rejects_a_kernel_without_measurements():
    assert cli.main(["bench", "--kernel", "cmy"]) == cli.EXIT_CONSTRAINT
