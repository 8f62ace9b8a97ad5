"""The four workloads: seeded inputs, the timed API call and its gate.

A workload turns ``(seed, iteration index)`` into a list of ``Call``s;
the same pair always gives the same inputs.  Only ``Call.run`` is timed.
``prepare`` and ``check`` run outside the timed region and never call
into scpsim, so a traced pass records the program's own work only.
References are computed when an iteration is generated, before any
tracing is installed.  A workload's ``elasticity`` is how strongly its
calls slow with the host-speed probe, as ``elasticity.py`` measures it;
it sets how far host times are corrected.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np

from scpsim import cli, colorspace, cycle_model, histeq, image_io
from scpsim.fabric import InvocationLog

#: The paper's frame sizes: 64000 px for conversion, 16384 px for equalization.
PAPER_CONVERT_SHAPE = (200, 320)
PAPER_HISTEQ_SHAPE = (128, 128)
#: Pixels per image checked against the per-pixel scalar oracle.
ORACLE_SAMPLES = 64


@dataclass
class Outcome:
    problems: list
    fingerprint: tuple  # equal fingerprints mean equal outputs
    cycles: Fraction  # modeled cycles the call reported, 0 where it reports none


@dataclass
class Call:
    root: str  # trace root span label
    mode: Optional[str]  # convert or histeq mode; None for the sweep and error requests
    px: int  # pixels (RGB triples for the sweep) the call completes
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    key: str  # calls with one key do the same work, so their times are comparable
    invocations: int = 0  # extension-instruction invocations the call executes
    prepare: Optional[Callable[[], None]] = None


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _calibration(kernel: str) -> dict:
    return {
        mode: (pixels, cycles)
        for k, mode, pixels, cycles in cycle_model.CALIBRATION_MEASUREMENTS
        if k == kernel
    }


def histeq_reference(gray: np.ndarray) -> np.ndarray:
    """Equalization by its documented definition, lut[k] = floor(255 * cum[k] / n)."""
    cum = np.cumsum(np.bincount(gray, minlength=256).astype(np.int64))
    return ((255 * cum) // gray.size).astype(np.uint8)[gray]


def _convert(img, matrix, mode, profile):
    log = InvocationLog()
    out, report = colorspace.convert_image(img, matrix, mode, profile=profile, log=log)
    return out, report, log


def _equalize(img, mode, profile):
    log = InvocationLog()
    out, report = histeq.histeq_image(img, mode, profile=profile, log=log)
    return out, report, log


def image_check(ref: bytes, cycles, invocations: int, oracle=None):
    """Gate of one image-level call: samples, modeled cycles and invocation count."""

    def check(result) -> Outcome:
        out, report, log = result
        got = out.samples.tobytes()
        problems = []
        if got != ref:
            problems.append("output differs from the reference")
        if oracle is not None:
            idx, want = oracle
            if not np.array_equal(out.samples.reshape(-1, 3)[idx], want):
                problems.append("output differs from the convert_px oracle")
        if report.cycles_total != cycles:
            problems.append(f"modeled cycles {report.cycles_total} != {cycles}")
        if log.total != invocations or report.ei_invocations != invocations:
            problems.append(
                f"invocations executed {log.total}, reported {report.ei_invocations}, "
                f"estimated {invocations}"
            )
        return Outcome(problems, (_digest(got), report.cycles_total, log.total), Fraction(report.cycles_total))

    return check


class PaperConvert:
    """The paper's conversion: 320x200 RGB frames to YIQ in every mode."""

    name = "paper-convert"
    trace_iterations = 1
    elasticity = 0.9

    def __init__(self, seed: int, profile, workdir: str):
        self.seed = seed
        self.profile = profile
        self.calibration = _calibration("yiq")

    def iteration(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, 1, i])
        arr = rng.integers(0, 256, (*PAPER_CONVERT_SHAPE, 3), dtype=np.uint8)
        img = image_io.ImageBuffer.from_array(arr)
        flat = img.samples.reshape(-1, 3)
        matrix = colorspace.RGB2YIQ
        ref = colorspace.apply_matrix_np(flat, matrix).tobytes()
        idx = rng.choice(len(flat), ORACLE_SAMPLES, replace=False)
        want = np.array([colorspace.convert_px(matrix, flat[k]) for k in idx], dtype=np.uint8)
        calls = []
        for mode in colorspace.CONVERT_MODES:
            pixels, cycles = self.calibration[mode]
            invocations = cycle_model.estimate("yiq", mode, pixels, self.profile).ei_invocations
            calls.append(
                Call(
                    root=f"convert_image:{mode}",
                    mode=mode,
                    px=pixels,
                    run=partial(_convert, img, matrix, mode, self.profile),
                    check=image_check(ref, cycles, invocations, (idx, want)),
                    key=mode,
                    invocations=invocations,
                )
            )
        return calls

    def close(self):
        pass


class PaperHisteq:
    """The paper's equalization: 128x128 gray frames, alternately uniform-random
    and low-contrast, in both modes."""

    name = "paper-histeq"
    trace_iterations = 2  # one frame of each kind
    elasticity = 0.9

    def __init__(self, seed: int, profile, workdir: str):
        self.seed = seed
        self.profile = profile
        self.calibration = _calibration("histeq")

    def iteration(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, 2, i])
        if i % 2 == 0:
            arr = rng.integers(0, 256, PAPER_HISTEQ_SHAPE, dtype=np.uint8)
        else:
            mean, spread = rng.uniform(64, 192), rng.uniform(4, 16)
            arr = np.clip(np.rint(rng.normal(mean, spread, PAPER_HISTEQ_SHAPE)), 0, 255)
        img = image_io.ImageBuffer.from_array(arr.astype(np.uint8))
        ref = histeq_reference(img.samples).tobytes()
        calls = []
        for mode in histeq.HISTEQ_MODES:
            pixels, cycles = self.calibration[mode]
            invocations = cycle_model.estimate("histeq", mode, pixels, self.profile).ei_invocations
            calls.append(
                Call(
                    root=f"histeq_image:{mode}",
                    mode=mode,
                    px=pixels,
                    run=partial(_equalize, img, mode, self.profile),
                    check=image_check(ref, cycles, invocations),
                    key=mode,
                    invocations=invocations,
                )
            )
        return calls

    def close(self):
        pass


def _pnm(arr: np.ndarray, maxval: int = 255) -> bytes:
    magic = b"P5" if arr.ndim == 2 else b"P6"
    return b"%s\n%d %d\n%d\n" % (magic, arr.shape[1], arr.shape[0], maxval) + arr.tobytes()


def _matrix_text(name: str, matrix) -> str:
    lines = [f"name = {name}"]
    lines += [f"row{r} = " + " ".join(map(str, row)) for r, row in enumerate(matrix.coeffs)]
    lines.append("input_offset = " + " ".join(map(str, matrix.input_offset)))
    lines.append("output_offset = " + " ".join(map(str, matrix.output_offset)))
    return "\n".join(lines) + "\n"


def _write(path: str, data):
    with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def _read(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


class CliSmallMixed:
    """Many small requests through ``scpsim.cli.main`` in-process.

    The run repeats one seeded list of 84 requests: each of the 20 request
    kinds below four times, plus one request of each documented error
    case.  Repeating the list makes each request's host time comparable
    across iterations.  A kind's four frames have sides near the four
    strata of 7..97 px and nearly square pixel counts, so the work in the
    list varies little between seeds.
    """

    name = "cli-small-mixed"
    trace_iterations = 1
    elasticity = 0.9
    KINDS = [("convert", t, m) for t in ("yiq", "rgb", "cmy", "matrix") for m in colorspace.CONVERT_MODES] + [
        ("histeq", f, m) for f in ("pgm", "ppm") for m in histeq.HISTEQ_MODES
    ]
    TARGETS = {"yiq": colorspace.RGB2YIQ, "rgb": colorspace.YIQ2RGB, "cmy": colorspace.RGB2CMY}
    #: Targets whose kernel the bundled profile has cycle parameters for;
    #: only these requests ask for a ``--report``.
    REPORTED = ("yiq", "rgb")
    ERRORS = {"truncated": cli.EXIT_IO, "maxval": cli.EXIT_IO, "coefficient": cli.EXIT_CONSTRAINT, "missing": cli.EXIT_IO}
    PER_KIND = 4
    SIDES = (7, 97)

    def __init__(self, seed: int, profile, workdir: str):
        self.seed = seed
        self.profile = profile
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.sink = io.StringIO()
        self.serial = 0
        self.calls = None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _shapes(self, rng) -> list:
        lo, hi = self.SIDES
        sides = lo + (np.arange(self.PER_KIND) + rng.random(self.PER_KIND)) * (hi - lo) / self.PER_KIND
        widths = np.clip(np.rint(sides + rng.uniform(-6, 6, self.PER_KIND)), lo, hi)
        heights = np.clip(np.rint(sides**2 / widths), lo, hi)
        return [(int(w), int(h)) for w, h in zip(widths, heights)]

    def iteration(self, i: int) -> list:
        if self.calls is None:
            rng = np.random.default_rng([self.seed, 3])
            specs = [(kind, *shape) for kind in self.KINDS for shape in self._shapes(rng)]
            lo, hi = self.SIDES
            specs += [(("error", error, None), *rng.integers(lo, hi + 1, 2).tolist()) for error in self.ERRORS]
            order = rng.permutation(len(specs))
            self.calls = [self._request(rng, j, *specs[k]) for j, k in enumerate(order)]
        return self.calls

    def _main(self, argv):
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            return cli.main(argv)

    def _request(self, rng, j: int, kind, w, h) -> Call:
        command, variant, mode = kind
        base = os.path.join(self.workdir, f"r{j}")
        infile, outfile, repfile = base + ".in", base + ".out", base + ".json"
        matfile = base + ".matrix"
        rgb = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        n = w * h
        argv = ["--in", infile, "--out", outfile]
        expected = estimate = None
        fresh_matrix = None
        code = cli.EXIT_OK
        invocations = 0

        if command == "error":
            mode = None
            code = self.ERRORS[variant]
            data = _pnm(rgb)
            target = "yiq"
            if variant == "truncated":
                data = data[: -int(rng.integers(1, rgb.size + 1))]
            elif variant == "maxval":
                data = _pnm(rgb, maxval=65535) + rgb.tobytes()
            elif variant == "coefficient":
                _write(matfile, "name = bad\nrow0 = 600 0 0\nrow1 = 0 256 0\nrow2 = 0 0 256\n")
                target = "matrix:" + matfile
            elif variant == "missing":
                argv[1] = base + ".missing"
            if variant != "missing":
                _write(infile, data)
            argv = ["convert", *argv, "--to", target, "--mode", str(rng.choice(colorspace.CONVERT_MODES))]
        elif command == "convert":
            if variant == "matrix":
                coeffs = rng.integers(-512, 513, (3, 3)).tolist()
                matrix = colorspace.ConversionMatrix(
                    "custom",
                    tuple(map(tuple, coeffs)),
                    input_offset=tuple(rng.integers(0, 256, 3).tolist()),
                    output_offset=tuple(rng.integers(0, 256, 3).tolist()),
                )
                fresh_matrix = matrix
                target = "matrix:" + matfile
            else:
                matrix = self.TARGETS[variant]
                target = variant
            _write(infile, _pnm(rgb))
            out = colorspace.apply_matrix_np(rgb.reshape(-1, 3), matrix).reshape(h, w, 3)
            expected = _pnm(out)
            argv = ["convert", *argv, "--to", target, "--mode", mode]
            if variant in self.REPORTED:
                estimate = cycle_model.estimate("yiq", mode, n, self.profile)
            lanes = cycle_model.mode_lanes(mode)
            invocations = n // lanes if lanes else 0
        else:  # histeq on a PGM, or on a PPM that the CLI reduces with to_gray
            if variant == "pgm":
                gray = rng.integers(0, 256, (h, w), dtype=np.uint8)
                _write(infile, _pnm(gray))
            else:
                gray = image_io.to_gray(image_io.ImageBuffer.from_array(rgb)).samples.reshape(h, w)
                _write(infile, _pnm(rgb))
            expected = _pnm(histeq_reference(gray.ravel()).reshape(h, w))
            argv = ["histeq", *argv, "--mode", mode]
            estimate = cycle_model.estimate("histeq", mode, n, self.profile)
            invocations = estimate.ei_invocations
        if estimate is not None:
            argv += ["--report", repfile]

        def prepare():
            self.sink.seek(0)
            self.sink.truncate()
            for path in (outfile, repfile):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            if fresh_matrix is not None:
                # A new name is a new cache key, so matrix_ei builds and
                # validates the kernel as a fresh CLI process would.
                self.serial += 1
                _write(matfile, _matrix_text(f"custom{self.serial}", fresh_matrix))

        return Call(
            root=f"cli.main:{argv[0]}",
            mode=mode,
            px=n if code == cli.EXIT_OK else 0,
            run=partial(self._main, argv),
            check=_cli_check(code, outfile, expected, repfile, estimate),
            key=f"r{j}",
            invocations=invocations,
            prepare=prepare,
        )


def _cli_check(code: int, outfile: str, expected: Optional[bytes], repfile: str, estimate):
    def check(got_code) -> Outcome:
        problems = []
        if got_code != code:
            problems.append(f"exit code {got_code}, expected {code}")
        out = _read(outfile)
        if expected is not None and out != expected:
            problems.append("output file differs from the reference")
        cycles = Fraction(0)
        report = _read(repfile)
        if estimate is not None:
            try:
                fields = json.loads(report or b"")
                cycles = Fraction(fields["cycles_total_exact"])
                ok = (fields["pixels"], fields["mode"], fields["ei_invocations"]) == (
                    estimate.pixels,
                    estimate.mode,
                    estimate.ei_invocations,
                )
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok or cycles != estimate.cycles_total:
                problems.append("report differs from cycle_model.estimate")
        return Outcome(problems, (got_code, _digest(out or b""), _digest(report or b"")), cycles)

    return check


def _roundtrip_error_px(rgb) -> int:
    back = colorspace.yiq_to_rgb_px(colorspace.rgb_to_yiq_px(rgb))
    return max(abs(a - b) for a, b in zip(rgb, back))


class RoundtripSweep:
    """The exhaustive 2^24 forward+reverse sweep, the ``scpsim roundtrip`` path.

    The sweep's input is every RGB triple, so the seed only picks the
    triples that the scalar oracle checks the result against.
    """

    name = "roundtrip-sweep"
    trace_iterations = 1
    elasticity = 0.4
    TRIPLES = 1 << 24

    def __init__(self, seed: int, profile, workdir: str):
        self.seed = seed
        self.first = None

    def iteration(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, 4, i])
        sampled = max(_roundtrip_error_px(tuple(t)) for t in rng.integers(0, 256, (ORACLE_SAMPLES, 3)).tolist())
        at_argmax = _roundtrip_error_px(colorspace.ROUNDTRIP_ARGMAX)

        def check(res) -> Outcome:
            problems = []
            fingerprint = (res.max_error, res.mean_error, tuple(res.argmax_rgb), tuple(res.per_channel_max), res.samples)
            if res.samples != self.TRIPLES:
                problems.append(f"swept {res.samples} triples")
            if (res.max_error, tuple(res.argmax_rgb)) != (colorspace.ROUNDTRIP_MAX_ERROR, colorspace.ROUNDTRIP_ARGMAX):
                problems.append(f"max error {res.max_error} at {res.argmax_rgb}")
            if sampled > res.max_error or at_argmax != res.max_error:
                problems.append("sweep disagrees with the scalar oracle")
            if self.first is None:
                self.first = fingerprint
            elif fingerprint != self.first:
                problems.append("sweep result changed between iterations")
            return Outcome(problems, fingerprint, Fraction(0))

        return [Call(root="roundtrip_sweep", mode=None, px=self.TRIPLES, run=lambda: colorspace.roundtrip_sweep(), check=check, key="sweep")]

    def close(self):
        pass


WORKLOADS = {cls.name: cls for cls in (PaperConvert, PaperHisteq, CliSmallMixed, RoundtripSweep)}
