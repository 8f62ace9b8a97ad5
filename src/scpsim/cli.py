"""Command-line front end: convert, histeq, bench, roundtrip.

Exit codes: 0 success, 1 usage error, 2 I/O error (unreadable or
malformed image, missing file), 3 validation or constraint error (a
fabric rule, a malformed matrix or profile, a kernel or mode the
profile cannot cost, an invocation count the cost model disagrees
with), 4 regression failure (round-trip error above the frozen bound).
Every command is deterministic; reports never carry timestamps.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import colorspace, cycle_model, histeq, image_io
from .fabric import FabricError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CONSTRAINT = 3
EXIT_REGRESSION = 4

#: The built-in ``--to`` targets; ``matrix:<file>`` names any other matrix.
_TARGETS = {"yiq": colorspace.RGB2YIQ, "rgb": colorspace.YIQ2RGB, "cmy": colorspace.RGB2CMY}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on first use and reused by every later ``main`` call."""
    parser = _Parser(prog="scpsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="color-space conversion of a PPM image")
    convert.add_argument("--in", dest="infile", required=True)
    convert.add_argument("--out", dest="outfile", required=True)
    convert.add_argument("--to", dest="target", required=True,
                         help=" | ".join([*_TARGETS, "matrix:<file>"]))
    convert.add_argument("--mode", default="ei5", choices=colorspace.CONVERT_MODES)
    _common_cost_flags(convert)

    heq = sub.add_parser("histeq", help="histogram equalization of a PGM (or PPM) image")
    heq.add_argument("--in", dest="infile", required=True)
    heq.add_argument("--out", dest="outfile", required=True)
    heq.add_argument("--mode", default="isef", choices=histeq.HISTEQ_MODES)
    _common_cost_flags(heq)

    bench = sub.add_parser("bench", help="tabulate the cost model for every mode of a kernel")
    bench.add_argument("--kernel", required=True,
                       help="calibrated workload family: " + " | ".join(cycle_model.FAMILY_MODES))
    defaults = ", ".join(f"{kernel} {pixels}" for kernel, pixels in _MEASURED_PIXELS.items())
    bench.add_argument("--pixels", type=int, default=None,
                       help=f"workload size (default: {defaults})")
    _common_cost_flags(bench)

    rt = sub.add_parser(
        "roundtrip",
        help="sweep all 2^24 RGB triples through forward+reverse conversion; "
             "exit 4 above the frozen error bound",
    )
    rt.add_argument("--report", default=None)
    rt.add_argument("--format", default="json", choices=("json", "csv"))
    return parser


def _common_cost_flags(cmd):
    cmd.add_argument("--profile", default="s6000_paper",
                     help="s6000_paper (builtin) or a profile file path")
    cmd.add_argument("--report", default=None)
    cmd.add_argument("--format", default="json", choices=("json", "csv"))


_MATRIX_KEYS = ("name", "row0", "row1", "row2", "input_offset", "output_offset")


def _load_matrix_file(path: str) -> colorspace.ConversionMatrix:
    """Matrix file: 'name = x', 'row0 = a b c' (thrice), optional offsets."""
    source = f"matrix file {path}"
    entries = cycle_model.read_key_values(cycle_model.read_text(path, source), source)
    for key, (lineno, _) in entries.items():
        if key not in _MATRIX_KEYS:
            raise ValueError(f"{source} line {lineno}: unrecognized key {key!r}")

    def ints(key):
        if key not in entries:
            raise ValueError(f"{source}: missing {key}")
        lineno, value = entries[key]
        try:
            return tuple(int(v) for v in value.split())
        except ValueError:
            raise ValueError(f"{source} line {lineno}: expected integers, got {value!r}") from None

    rows = tuple(ints(f"row{i}") for i in range(3))
    offsets = {key: ints(key) for key in ("input_offset", "output_offset") if key in entries}
    name = entries["name"][1] if "name" in entries else "custom"
    try:
        return colorspace.ConversionMatrix(name=name, coeffs=rows, **offsets)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _resolve_matrix(target: str) -> colorspace.ConversionMatrix:
    if target in _TARGETS:
        return _TARGETS[target]
    if target.startswith("matrix:"):
        return _load_matrix_file(target.split(":", 1)[1])
    raise UsageError(f"--to must be {', '.join(_TARGETS)}, or matrix:<file>, got {target!r}")


def _write_report(path: str, fmt: str, rows: list[dict], columns=None):
    """One object (or a list of them) as JSON, or ``columns`` of each row as
    CSV; by default every key of the first row but the ``*_exact`` strings."""
    if fmt == "json":
        payload = rows[0] if len(rows) == 1 else rows
        text = json.dumps(payload, indent=2) + "\n"
    else:
        if columns is None:
            columns = [key for key in rows[0] if not key.endswith("_exact")]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _print_report_line(d: dict):
    """One line summing up a report, from its ``CycleReport.to_dict()``."""
    print(
        f"{d['kernel']}/{d['mode']}: pixels={d['pixels']} cycles={d['cycles_total_exact']} "
        f"cycles/px={d['cycles_per_pixel']:.2f} "
        f"speedup={d['speedup_vs_scalar']:.2f} (~{d['speedup_rounded']}) "
        f"invocations={d['ei_invocations']}"
    )


def _read_image(path: str) -> image_io.ImageBuffer:
    with open(path, "rb") as fh:
        return image_io.read_pnm(fh.read())


def _write_image(path: str, img: image_io.ImageBuffer):
    with open(path, "wb") as fh:
        fh.write(image_io.write_pnm(img))


def cmd_image(args) -> int:
    """convert and histeq: read the image, run it, write the result and,
    with --report, the cost report."""
    if args.command == "convert":
        matrix = _resolve_matrix(args.target)
    profile = cycle_model.resolve_profile(args.profile) if args.report else None
    img = _read_image(args.infile)
    if args.command == "convert":
        out, report = colorspace.convert_image(img, matrix, args.mode, profile)
    else:
        if img.channels == 3:
            img = image_io.to_gray(img)
        out, report = histeq.histeq_image(img, args.mode, profile)
    # A report that cannot be rendered fails the command before any file is written.
    summary = None if report is None else report.to_dict()
    _write_image(args.outfile, out)
    if summary is not None:
        _print_report_line(summary)
        _write_report(args.report, args.format, [summary])
    return EXIT_OK


#: bench's default workload size: the pixel count each family was measured at.
_MEASURED_PIXELS = {kernel: pixels for kernel, _, pixels, _ in cycle_model.CALIBRATION_MEASUREMENTS}


def cmd_bench(args) -> int:
    profile = cycle_model.resolve_profile(args.profile)
    kernel = args.kernel
    modes = cycle_model.FAMILY_MODES.get(kernel)
    if modes is None:
        raise cycle_model.UnknownKernelConfig(
            f"bench supports kernels {sorted(cycle_model.FAMILY_MODES)}, got {kernel!r}"
        )
    pixels = args.pixels if args.pixels is not None else _MEASURED_PIXELS[kernel]
    # Every row is estimated before anything is printed, so a failed bench prints nothing.
    rows = [cycle_model.estimate(kernel, mode, pixels, profile).to_dict() for mode in modes]
    print(f"kernel={kernel} pixels={pixels} profile={profile.name}")
    print(
        f"{'mode':<8} {'cycles':>12} {'cycles/px':>10} {'speedup':>8} "
        f"{'(~)':>4} {'invocations':>12} {'mults':>6} {'stages':>6}"
    )
    for d in rows:
        print(
            f"{d['mode']:<8} {d['cycles_total_exact']:>12} "
            f"{d['cycles_per_pixel']:>10.2f} {d['speedup_vs_scalar']:>8.2f} "
            f"{d['speedup_rounded']:>4} "
            f"{d['ei_invocations']:>12} {d['multipliers_used']:>6} {d['stages']:>6}"
        )
    if args.report:
        _write_report(args.report, args.format, rows)
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    result = colorspace.roundtrip_sweep()
    bound = colorspace.ROUNDTRIP_MAX_ERROR
    print(f"samples swept:        {result.samples}")
    print(f"max channel error:    {result.max_error} (frozen bound {bound})")
    print(f"per-channel maxima:   r={result.per_channel_max[0]} "
          f"g={result.per_channel_max[1]} b={result.per_channel_max[2]}")
    print(f"mean channel error:   {result.mean_error:.6f}")
    print(f"first worst triple:   rgb{result.argmax_rgb}")
    if args.report:
        payload = {
            "samples": result.samples,
            "max_error": result.max_error,
            "per_channel_max": list(result.per_channel_max),
            "mean_error": result.mean_error,
            "argmax_rgb": list(result.argmax_rgb),
            "frozen_bound": bound,
        }
        _write_report(args.report, args.format, [payload], columns=sorted(payload))
    if result.max_error > bound:
        print(f"REGRESSION: max error {result.max_error} exceeds frozen bound {bound}")
        return EXIT_REGRESSION
    return EXIT_OK


_COMMANDS = {
    "convert": cmd_image,
    "histeq": cmd_image,
    "bench": cmd_bench,
    "roundtrip": cmd_roundtrip,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, image_io.PnmError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FabricError, cycle_model.InvocationMismatch, ValueError) as exc:
        print(f"constraint error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
