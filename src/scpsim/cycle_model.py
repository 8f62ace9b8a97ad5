"""Parametric cycle-cost model calibrated to measured workload totals.

The model knows exactly the workloads it is calibrated on: the (kernel,
mode) pairs of ``CALIBRATION_MEASUREMENTS``.  It is throughput-style,
with one fitted rate per pair (cycles per pixel for a mode without
lanes, cycles per group of lanes for a lane mode).  A profile holds
exactly what ``fit_profile`` produces: each family's ``scalar`` rate and
any of its lane rates.  Every lane rate comes with its family's scalar
rate, so every report has a speedup over the plain processor.  Register
pack/unpack traffic and buffer placement are free.

All parameters are exact rationals so that the calibration points are
reproduced exactly, not approximately: fitting the bundled
``s6000_paper`` profile to the six measured totals and estimating the
same workloads returns those totals bit for bit.

Lane accounting: ``KERNEL_SHAPES`` gives each mode its lanes, the
instructions one group of lanes issues and whether a composite merge
step follows.  A pixel count that does not divide the lane width is
finished on the scalar path.  Every invocation a lane run issues costs
one step, the per-group rate over the instructions per group, so a run
costs its invocations times the step plus the remainder at the scalar
per-pixel rate.  A merge (the histogram pipeline's composite step, one
per ``COUNTER_MAX`` groups and at least one per run) is an invocation
like any other and costs one step.

Cost depends on the mode's shape and the workload family, not on
coefficient values: every 3x3 colour conversion is costed at the
calibrated ``yiq`` rates, and its report's ``kernel`` names that family.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import astuple, dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Mapping, Optional, Union

from .fabric import BANK_COUNT, COUNTER_MAX, HIST_ENTRIES, ResourceLedger, stage_count


class UnknownKernelConfig(ValueError):
    """A kernel/mode that is not calibrated, or that the profile has no rate
    for: the one error every entry point raises for a bad mode."""


class Underdetermined(ValueError):
    """Not enough measurements to fit a profile parameter."""


class ReportOverflow(ValueError):
    """A report figure is beyond the float range of the report schema."""


class InvocationMismatch(Exception):
    """A run executed a different number of invocations than the model charges."""


Rational = Union[int, Fraction]

#: Paper-measured totals the bundled profile is fitted to:
#: (kernel, mode, pixels, cycles).  Their (kernel, mode) pairs are the
#: only workloads the model costs.
CALIBRATION_MEASUREMENTS = (
    ("yiq", "scalar", 64000, 707524),
    ("yiq", "ei1", 64000, 234050),
    ("yiq", "ei5", 64000, 63518),
    ("yiq", "ei8", 64000, 72517),
    ("histeq", "scalar", 16384, 17124334),
    ("histeq", "isef", 16384, 3154353),
)

#: The calibrated workload families and each one's modes, in table order.
FAMILY_MODES = {
    family: tuple(mode for kernel, mode, _, _ in CALIBRATION_MEASUREMENTS if kernel == family)
    for family, _, _, _ in CALIBRATION_MEASUREMENTS
}


@dataclass(frozen=True)
class KernelShape:
    """How one mode runs: ``lanes`` pixels per group (0 for the plain
    processor), the ledger of each instruction a group issues, in issue
    order, and whether composite merge steps follow the groups."""

    lanes: int
    ledgers: tuple[ResourceLedger, ...] = ()
    merge: bool = False

    def split(self, pixels: int) -> tuple[int, int]:
        """``(groups, tail)``: the whole lane groups in ``pixels`` and the
        pixels left to the plain processor; without lanes every pixel is tail."""
        return divmod(pixels, self.lanes) if self.lanes else (0, pixels)

    def windows(self, groups: int) -> range:
        """The first group of each flush window of a run of ``groups``
        groups: one window per ``COUNTER_MAX`` groups, the most a 16-bit
        lane counter can count before it is flushed, and at least one;
        none without a merge step.  Each window ends in one merge."""
        return range(0, max(groups, 1) if self.merge else 0, COUNTER_MAX)

    def merges(self, groups: int) -> int:
        """Merge steps a run of ``groups`` groups takes, one per window."""
        return len(self.windows(groups))

    def invocations(self, groups: int) -> int:
        """Invocations a run of ``groups`` groups issues, merges included."""
        return groups * len(self.ledgers) + self.merges(groups)

    @cached_property
    def peak(self) -> ResourceLedger:
        """Componentwise peak demand over the mode's instructions."""
        return ResourceLedger(*map(max, zip(*map(astuple, self.ledgers))))

    @cached_property
    def stages(self) -> int:
        """Most stages any of the mode's instructions needs on the default fabric."""
        return max((stage_count(ledger) for ledger in self.ledgers), default=0)


#: ALU accounting per conversion lane: 3 input-offset subtracts, and per
#: row two accumulate adds, a truncating divide lowered to
#: shift+compare+select, one offset add, and a two-sided saturate (two
#: compares, two selects).
_CONVERT_ALU_OPS_PER_LANE = 3 + 3 * (2 + 3 + 1 + 4)


def _convert_shape(lanes: int) -> KernelShape:
    # Nine products per pixel; coefficients live in the fabric configuration.
    return KernelShape(
        lanes, (ResourceLedger(9 * lanes, _CONVERT_ALU_OPS_PER_LANE * lanes, 0),)
    )


#: Every executable mode, by name.  The colour conversion runs one
#: instruction per group of 1, 5 or 8 pixels.  The histogram pipeline's
#: lanes own their banks (``fabric.LANE_BANKS``): it counts a group into
#: per-lane 16-bit sub-histograms (one address add and one counter
#: increment per lane), merges them (see ``KernelShape.windows``), then
#: maps each group through the table replicated in every bank (one
#: address add per lane).
KERNEL_SHAPES = {
    "scalar": KernelShape(0),
    "ei1": _convert_shape(1),
    "ei5": _convert_shape(5),
    "ei8": _convert_shape(8),
    "isef": KernelShape(
        BANK_COUNT,
        (
            ResourceLedger(0, 2 * BANK_COUNT, BANK_COUNT * 2 * HIST_ENTRIES),
            ResourceLedger(0, BANK_COUNT, BANK_COUNT * HIST_ENTRIES),
        ),
        merge=True,
    ),
}


def mode_lanes(mode: str) -> int:
    """Pixels per vector group for a mode name; 0 for the scalar path."""
    shape = KERNEL_SHAPES.get(mode)
    if shape is None:
        raise UnknownKernelConfig(f"unrecognized mode name {mode!r}")
    return shape.lanes


def calibrated_shape(kernel: str, mode: str) -> KernelShape:
    """The shape of a calibrated workload; UnknownKernelConfig for any
    other pair.  Every entry point takes its run from it."""
    if mode not in FAMILY_MODES.get(kernel, ()):
        raise UnknownKernelConfig(
            f"no calibrated workload {kernel!r} in mode {mode!r}; calibrated: "
            + ", ".join(f"{family} {'/'.join(modes)}" for family, modes in FAMILY_MODES.items())
        )
    return KERNEL_SHAPES[mode]


def _rate_name(mode: str) -> str:
    """The profile-file name of a mode's rate: per pixel without lanes, per group with them."""
    return "ei_cycles" if KERNEL_SHAPES[mode].lanes else "cycles_per_pixel"


@dataclass(frozen=True)
class CalibrationProfile:
    """Fitted cost parameters; immutable and freely shareable.

    ``rates`` holds at most one rate per calibrated workload, keyed by
    its (kernel, mode) pair from ``CALIBRATION_MEASUREMENTS``: cycles
    per pixel for a mode without lanes, cycles per group for a lane mode.
    A lane rate needs its family's ``scalar`` rate, which charges the
    lane mode's tail and is the baseline of its speedup.  A merge step
    has no rate of its own: it costs one step of its mode, the per-group
    rate over the instructions per group.  Raises UnknownKernelConfig for
    a rate keyed by any other pair, and ValueError for a lane rate without
    its family's scalar rate or a rate that is not positive.
    """

    name: str
    rates: Mapping[tuple[str, str], Fraction]

    def __post_init__(self):
        for kernel, mode in self.rates:
            calibrated_shape(kernel, mode)
            if (kernel, "scalar") not in self.rates:
                raise ValueError(
                    f"profile {self.name!r} rates {kernel!r} mode {mode!r} "
                    f"without its scalar rate {kernel}.scalar.cycles_per_pixel"
                )
        # A zero rate would make a run free and its speedup undefined.
        if any(v <= 0 for v in self.rates.values()):
            raise ValueError("rates must be positive")


@dataclass
class CycleReport:
    """Cycle and resource accounting for one run of one kernel mode.

    ``cycles_total`` is exact: an int whenever the total is integral
    (all calibration points are), otherwise a Fraction.
    """

    kernel: str
    mode: str
    pixels: int
    ei_invocations: int
    cycles_total: Union[int, Fraction]
    cycles_per_pixel: Fraction
    speedup_vs_scalar: Fraction
    resources: ResourceLedger
    stages: int
    profile_name: str = ""

    def to_dict(self) -> dict:
        """Stable report schema used by the JSON and CSV emitters."""
        total, total_exact = _figure(self.cycles_total)
        per_pixel, per_pixel_exact = _figure(self.cycles_per_pixel)
        speedup, speedup_exact = _figure(self.speedup_vs_scalar)
        return {
            "kernel": self.kernel,
            "mode": self.mode,
            "pixels": self.pixels,
            "ei_invocations": self.ei_invocations,
            "stages": self.stages,
            "cycles_total": total,
            "cycles_total_exact": total_exact,
            "cycles_per_pixel": per_pixel,
            "cycles_per_pixel_exact": per_pixel_exact,
            "speedup_vs_scalar": speedup,
            "speedup_vs_scalar_exact": speedup_exact,
            "speedup_rounded": round(speedup),
            "multipliers_used": self.resources.multipliers_used,
            "alu_ops_used": self.resources.alu_ops_used,
            "iram_bytes_used": self.resources.iram_bytes_used,
            "profile": self.profile_name,
        }


#: The largest finite float, an integer, for exact comparison with a figure.
_FLOAT_MAX = int(sys.float_info.max)


def _figure(x: Rational) -> tuple[Union[int, float], str]:
    """A report figure as a number and as its exact ``num[/den]`` string."""
    # Every figure must survive float(): readers of the report and the CLI's lines use it.
    if abs(x) > _FLOAT_MAX:
        # Sized by bit length: str() of a figure past 4300 digits raises a plain ValueError.
        bits = abs(x.numerator).bit_length() - x.denominator.bit_length()
        raise ReportOverflow(f"a report figure of about 2^{bits} is beyond the float range")
    return (x.numerator if x.denominator == 1 else x.numerator / x.denominator), _ratio_str(x)


def _ratio_str(x: Rational) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _exact(x: Fraction) -> Union[int, Fraction]:
    return int(x) if x.denominator == 1 else x


def estimate(
    kernel: str,
    mode: str,
    pixels: int,
    profile: CalibrationProfile,
) -> CycleReport:
    """Predict the cycle total for a workload under a profile.

    The report carries the mode's peak per-invocation resources and its
    stage count from ``KERNEL_SHAPES``.

    Raises ValueError for fewer than one pixel.  Raises
    UnknownKernelConfig for a (kernel, mode) outside
    ``CALIBRATION_MEASUREMENTS``, and when the profile has no rate for
    it.  A profile that rates the mode also rates its family's plain
    processor, which charges a lane mode's tail (on the plain processor,
    every pixel).
    """
    if pixels < 1:
        raise ValueError("pixel count must be positive")

    shape = calibrated_shape(kernel, mode)
    per_unit = profile.rates.get((kernel, mode))
    if per_unit is None:
        raise UnknownKernelConfig(
            f"profile {profile.name!r} has no entry for kernel {kernel!r} mode {mode!r}"
        )
    cpp = profile.rates[(kernel, "scalar")]
    groups, tail = shape.split(pixels)
    invocations = shape.invocations(groups)
    # Integer sums, then one Fraction per figure: Fraction operators cost
    # microseconds each and dominated the call.  a/b cycles per invocation
    # (a group's rate over its instructions; a plain mode has no
    # invocations), c/d per plain-processor pixel.
    a, b = per_unit.numerator, per_unit.denominator * max(len(shape.ledgers), 1)
    c, d = cpp.numerator, cpp.denominator
    total = Fraction(invocations * a * d + tail * c * b, b * d)

    return CycleReport(
        kernel=kernel,
        mode=mode,
        pixels=pixels,
        ei_invocations=invocations,
        cycles_total=_exact(total),
        cycles_per_pixel=Fraction(total.numerator, total.denominator * pixels),
        speedup_vs_scalar=Fraction(pixels * c * total.denominator, d * total.numerator),
        resources=shape.peak,
        stages=shape.stages,
        profile_name=profile.name,
    )


def checked_report(
    kernel: str,
    mode: str,
    pixels: int,
    profile: Optional[CalibrationProfile],
    executed: int,
) -> Optional[CycleReport]:
    """The cost of a run that executed ``executed`` invocations; None
    without a profile.

    Raises InvocationMismatch, with or without a profile, when the model
    charges a different number of invocations than the run executed.
    """
    shape = calibrated_shape(kernel, mode)
    expected = shape.invocations(shape.split(pixels)[0])
    if expected != executed:
        raise InvocationMismatch(
            f"cost model predicted {expected} invocations, executed {executed}"
        )
    return None if profile is None else estimate(kernel, mode, pixels, profile)


def fit_profile(
    measurements: Iterable[tuple[str, str, int, int]], name: str = "fitted"
) -> CalibrationProfile:
    """Solve per-unit costs so each measurement is reproduced exactly.

    One unknown per calibrated (kernel, mode): its scalar rate or its
    per-group cost.  A lane measurement less its tail is split evenly
    over every invocation of the run, merges included (see the module
    docstring), and a group is charged its instructions' steps.
    Scalar measurements are fitted first so lane tails can be subtracted;
    a lane measurement without its family's scalar measurement raises
    Underdetermined.  Raises UnknownKernelConfig for a pair outside
    ``CALIBRATION_MEASUREMENTS``.
    """
    rows = list(measurements)
    if not rows:
        raise Underdetermined("no measurements supplied")
    rates: dict[tuple[str, str], Fraction] = {}

    for kernel, mode, pixels, cycles in rows:
        if calibrated_shape(kernel, mode).lanes == 0:
            if pixels < 1 or cycles <= 0:
                raise Underdetermined(f"scalar fit for {kernel!r} needs pixels >= 1 and cycles > 0")
            rates[(kernel, mode)] = Fraction(cycles, pixels)

    for kernel, mode, pixels, cycles in rows:
        shape = KERNEL_SHAPES[mode]
        lanes = shape.lanes
        if lanes == 0:
            continue
        cpp = rates.get((kernel, "scalar"))
        if cpp is None:
            raise Underdetermined(f"{kernel}/{mode}: no scalar measurement for {kernel!r}")
        groups, tail = shape.split(pixels)
        if groups < 1:
            raise Underdetermined(f"{kernel}/{mode}: fewer pixels than one {lanes}-lane group")
        pool = cycles - tail * cpp
        if pool <= 0:
            raise Underdetermined(f"{kernel}/{mode}: no cycles left for the groups after any tail")
        rates[(kernel, mode)] = len(shape.ledgers) * pool / shape.invocations(groups)

    return CalibrationProfile(name=name, rates=rates)


# ---------------------------------------------------------------------------
# Profile persistence: flat key-value text, exact-rational values
# ---------------------------------------------------------------------------


def format_profile(profile: CalibrationProfile) -> str:
    """Serialize as '<key> = <num>[/<den>]' lines, per-pixel rates first."""
    lines = [f"name = {profile.name}"]
    for kernel, mode in sorted(profile.rates, key=lambda pair: (mode_lanes(pair[1]) > 0, pair)):
        lines.append(
            f"{kernel}.{mode}.{_rate_name(mode)} = {_ratio_str(profile.rates[(kernel, mode)])}"
        )
    return "\n".join(lines) + "\n"


def read_text(path: Union[str, os.PathLike], source: str) -> str:
    """The text of a UTF-8 file; ValueError naming ``source`` for any other bytes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: {exc}") from None


def read_key_values(text: str, source: str) -> dict[str, tuple[int, str]]:
    """Read the flat ``key = value`` format of profile and matrix files.

    Blank lines and ``#`` comments are skipped.  Returns each key's line
    number and value, in file order.  Raises ValueError naming ``source``
    and the line for a line without ``=`` or a key given twice.
    """
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{source} line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in entries:
            raise ValueError(f"{source} line {lineno}: {key!r} repeats line {entries[key][0]}")
        entries[key] = (lineno, value)
    return entries


# Python's int-string limit: no figure past it can be printed, and Fraction()
# expands a decimal exponent in full, in time growing faster than linearly.
_EXPONENT_LIMIT = 4300
_EXPONENT = re.compile(r"[eE][-+]?[0_]*([1-9][\d_]*)$")


def parse_profile(text: str) -> CalibrationProfile:
    """Parse the flat key-value profile format.

    Raises ValueError naming the line for a malformed line, a key given
    twice, a key other than ``name`` and the rates (a merge has no charge
    of its own to set), a decimal exponent beyond +-4300 or a rate for a
    pair outside ``CALIBRATION_MEASUREMENTS``.
    """
    return CalibrationProfile(*_profile_fields(text, "profile"))


def _profile_fields(text: str, source: str) -> tuple[str, dict[tuple[str, str], Fraction]]:
    """The name and rates of profile text, for ``CalibrationProfile``;
    each line error names ``source`` and the line."""
    name = "unnamed"
    rates: dict[tuple[str, str], Fraction] = {}

    for key, (lineno, value) in read_key_values(text, source).items():
        if key == "name":
            name = value
            continue
        where = f"{source} line {lineno}"
        exponent = _EXPONENT.search(value)
        # From its nonzero first digit, five digits decide; int() never reads a long string.
        if exponent and int(exponent.group(1).replace("_", "")[:5]) > _EXPONENT_LIMIT:
            raise ValueError(f"{where}: |exponent| > {_EXPONENT_LIMIT} in {value!r}")
        try:
            number = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: bad rational {value!r}") from exc
        parts = key.split(".")
        if len(parts) != 3:
            raise ValueError(f"{where}: unrecognized key {key!r}")
        kernel, mode, what = parts
        # A rate the model never charges would be stored and never read.
        try:
            calibrated_shape(kernel, mode)
        except UnknownKernelConfig as exc:
            raise ValueError(f"{where}: {exc}") from None
        if what != _rate_name(mode):
            raise ValueError(f"{where}: unrecognized key {key!r}")
        rates[(kernel, mode)] = number

    return name, rates


def load_profile(path: Union[str, os.PathLike]) -> CalibrationProfile:
    """``parse_profile`` of a UTF-8 file; every ValueError names the file."""
    source = f"profile file {path}"
    fields = _profile_fields(read_text(path, source), source)
    try:
        return CalibrationProfile(*fields)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


@cache
def builtin_profile() -> CalibrationProfile:
    """The ``s6000_paper`` profile shipped with the package, fitted at first use."""
    return fit_profile(CALIBRATION_MEASUREMENTS, name="s6000_paper")


def resolve_profile(spec: str) -> CalibrationProfile:
    """Resolve a profile by builtin name, SCPSIM_PROFILE_DIR entry, or path."""
    if spec == "s6000_paper":
        return builtin_profile()
    profile_dir = os.environ.get("SCPSIM_PROFILE_DIR")
    if profile_dir:
        candidate = os.path.join(profile_dir, f"{spec}.profile")
        if os.path.exists(candidate):
            return load_profile(candidate)
    if os.path.exists(spec):
        return load_profile(spec)
    raise FileNotFoundError(f"cannot resolve profile {spec!r}")

