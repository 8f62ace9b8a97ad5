"""Parametric cycle-cost model calibrated to measured workload totals.

The model is throughput-style: a fitted cost per scalar pixel, per
extension-instruction invocation (keyed by kernel and configuration),
plus a composite charge for the histogram merge step and an optional
deterministic stall penalty per invocation when pixel buffers live in
external memory.  Register pack/unpack traffic is free.

All parameters are exact rationals so that the calibration points are
reproduced exactly, not approximately: fitting the bundled
``s6000_paper`` profile to the six measured totals and estimating the
same workloads returns those totals bit for bit.

Lane accounting: ``KERNEL_SHAPES`` gives each mode its lanes, the
instructions one group of lanes issues and whether a composite merge
step follows.  A pixel count that does not divide the lane width is
finished on the scalar path, so the model charges floor(pixels/lanes)
groups plus the remainder at the scalar per-pixel rate.  A mode with a
merge step (the histogram pipeline: accumulate and transform per
16-pixel group, one merge per ``COUNTER_MAX`` groups and at least one
per run) has its fitted measurement split uniformly across the
instructions of all groups plus the merges, each merge receiving
exactly one step's worth.

Cost depends on the mode's shape and the workload family, not on
coefficient values: every 3x3 colour conversion is costed at the
calibrated ``yiq`` rates, and its report's ``kernel`` names that family.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, Optional, Union

from .fabric import BANK_COUNT, COUNTER_MAX, HIST_ENTRIES, ResourceLedger, stage_count


class UnknownKernelConfig(KeyError):
    """Profile carries no parameters for the requested kernel/mode."""

    def __str__(self):  # KeyError quotes its payload; keep messages readable
        return self.args[0] if self.args else ""


class MismatchedWorkload(ValueError):
    """Speedup requested between reports of different workloads."""


class Underdetermined(ValueError):
    """Not enough measurements to fit a profile parameter."""


class ReportOverflow(ValueError):
    """A report figure is beyond the float range of the report schema."""


class InvocationMismatch(Exception):
    """A run executed a different number of invocations than the model charges."""


Rational = Union[int, Fraction]

#: Paper-measured totals the bundled profile is fitted to:
#: (kernel, mode, pixels, cycles).
CALIBRATION_MEASUREMENTS = (
    ("yiq", "scalar", 64000, 707524),
    ("yiq", "ei1", 64000, 234050),
    ("yiq", "ei5", 64000, 63518),
    ("yiq", "ei8", 64000, 72517),
    ("histeq", "scalar", 16384, 17124334),
    ("histeq", "isef", 16384, 3154353),
)


@dataclass(frozen=True)
class KernelShape:
    """How one mode runs: ``lanes`` pixels per group (0 for the plain
    processor), the ledger of each instruction a group issues, in issue
    order, and whether composite merge steps follow the groups."""

    lanes: int
    ledgers: tuple[ResourceLedger, ...] = ()
    merge: bool = False

    def merges(self, groups: int) -> int:
        """Merge steps a run of ``groups`` groups takes: one per
        ``COUNTER_MAX`` groups, the most a 16-bit lane counter can count
        before it is flushed, and at least one; none without a merge step."""
        if not self.merge:
            return 0
        return max(1, -(-groups // COUNTER_MAX))

    @property
    def peak(self) -> ResourceLedger:
        """Componentwise peak demand over the mode's instructions."""
        peak = ResourceLedger()
        for ledger in self.ledgers:
            peak = peak.merged_peak(ledger)
        return peak

    @property
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
#: instruction per group of 1, 5 or 8 pixels.  The histogram pipeline
#: gives lane j bank j: it counts a group into per-lane 16-bit
#: sub-histograms (one address add and one counter increment per lane),
#: merges them (see ``KernelShape.merges``), then maps each group through
#: the table replicated in every bank (one address add per lane).
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


def _shape(mode: str) -> KernelShape:
    shape = KERNEL_SHAPES.get(mode)
    if shape is None:
        raise UnknownKernelConfig(f"unrecognized mode name {mode!r}")
    return shape


def mode_lanes(mode: str) -> int:
    """Pixels per vector group for a mode name; 0 for the scalar path."""
    return _shape(mode).lanes


@dataclass(frozen=True)
class CalibrationProfile:
    """Fitted cost parameters; immutable and freely shareable."""

    name: str
    scalar_cycles_per_pixel: Mapping[str, Fraction]
    ei_cycles: Mapping[tuple[str, str], Fraction]
    merge_cycles: Fraction = Fraction(0)
    stall_penalty_external: Fraction = Fraction(0)
    fixed_overhead: Mapping[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        # A zero rate would make a run free and its speedup undefined.
        if any(v <= 0 for v in (*self.scalar_cycles_per_pixel.values(), *self.ei_cycles.values())):
            raise ValueError("scalar and extension-instruction rates must be positive")
        for value in (
            self.merge_cycles,
            self.stall_penalty_external,
            *self.fixed_overhead.values(),
        ):
            if value < 0:
                raise ValueError("merge, stall and overhead charges must be nonnegative")


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
    speedup_vs_scalar: Optional[Fraction]
    resources: ResourceLedger
    stages: int
    buffer_location: str = "internal"
    profile_name: str = ""

    def to_dict(self) -> dict:
        """Stable report schema used by the JSON and CSV emitters."""
        speedup = self.speedup_vs_scalar
        return {
            "kernel": self.kernel,
            "mode": self.mode,
            "pixels": self.pixels,
            "ei_invocations": self.ei_invocations,
            "stages": self.stages,
            "cycles_total": _num(self.cycles_total),
            "cycles_total_exact": _ratio_str(self.cycles_total),
            "cycles_per_pixel": _num(self.cycles_per_pixel),
            "cycles_per_pixel_exact": _ratio_str(self.cycles_per_pixel),
            "speedup_vs_scalar": None if speedup is None else _num(speedup),
            "speedup_vs_scalar_exact": None if speedup is None else _ratio_str(speedup),
            "speedup_rounded": None if speedup is None else round(_num(speedup)),
            "multipliers_used": self.resources.multipliers_used,
            "alu_ops_used": self.resources.alu_ops_used,
            "iram_bytes_used": self.resources.iram_bytes_used,
            "buffer_location": self.buffer_location,
            "profile": self.profile_name,
        }


def _num(x: Rational) -> Union[int, float]:
    frac = Fraction(x)
    # Every figure must survive float(): readers of the report and the CLI's lines use it.
    if abs(frac) > sys.float_info.max:
        raise ReportOverflow(
            f"a report figure of {len(str(int(abs(frac))))} digits is beyond the float range"
        )
    return int(frac) if frac.denominator == 1 else float(frac)


def _ratio_str(x: Rational) -> str:
    frac = Fraction(x)
    return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


def _exact(x: Fraction) -> Union[int, Fraction]:
    return int(x) if x.denominator == 1 else x


def estimate(
    kernel: str,
    mode: str,
    pixels: int,
    profile: CalibrationProfile,
    buffer_location: str = "internal",
) -> CycleReport:
    """Predict the cycle total for a workload under a profile.

    The report carries the mode's peak per-invocation resources and its
    stage count from ``KERNEL_SHAPES``.

    Raises UnknownKernelConfig when the profile has no entry for the
    requested (kernel, mode), including the scalar entry needed to
    charge a tail (on the plain processor, every pixel).
    """
    if pixels < 1:
        raise ValueError("pixel count must be positive")
    if buffer_location not in ("internal", "external"):
        raise ValueError(f"buffer_location must be internal or external, got {buffer_location!r}")

    shape = _shape(mode)
    cpp = profile.scalar_cycles_per_pixel.get(kernel)
    total = Fraction(profile.fixed_overhead.get((kernel, mode), 0))
    # The plain processor is a shape without lanes: every pixel is tail.
    groups, tail = 0, pixels
    if shape.lanes:
        per_group = profile.ei_cycles.get((kernel, mode))
        if per_group is None:
            raise UnknownKernelConfig(
                f"profile {profile.name!r} has no entry for kernel {kernel!r} mode {mode!r}"
            )
        groups, tail = divmod(pixels, shape.lanes)
        total += groups * per_group
    merges = shape.merges(groups)
    if merges:
        total += merges * profile.merge_cycles
    invocations = groups * len(shape.ledgers) + merges
    if tail:
        if cpp is None:
            raise UnknownKernelConfig(
                f"profile {profile.name!r} has no scalar entry for {kernel!r} "
                f"to charge {tail} pixels"
            )
        total += tail * cpp
    if invocations and buffer_location == "external":
        total += invocations * profile.stall_penalty_external

    speedup_vs_scalar = None if cpp is None else pixels * cpp / total
    return CycleReport(
        kernel=kernel,
        mode=mode,
        pixels=pixels,
        ei_invocations=invocations,
        cycles_total=_exact(total),
        cycles_per_pixel=total / pixels,
        speedup_vs_scalar=speedup_vs_scalar,
        resources=shape.peak,
        stages=shape.stages,
        buffer_location=buffer_location,
        profile_name=profile.name,
    )


def checked_report(
    kernel: str,
    mode: str,
    pixels: int,
    profile: Optional[CalibrationProfile],
    buffer_location: str,
    executed: int,
) -> Optional[CycleReport]:
    """The cost of a run that executed ``executed`` invocations; None
    without a profile.

    Raises InvocationMismatch when the model charges a different number
    of invocations than the run executed.
    """
    if profile is None:
        return None
    report = estimate(kernel, mode, pixels, profile, buffer_location)
    if report.ei_invocations != executed:
        raise InvocationMismatch(
            f"cost model predicted {report.ei_invocations} invocations, executed {executed}"
        )
    return report


def speedup(report: CycleReport, baseline: CycleReport) -> Fraction:
    """baseline cycles / report cycles, for the same workload."""
    if report.kernel != baseline.kernel or report.pixels != baseline.pixels:
        raise MismatchedWorkload(
            f"cannot compare {baseline.kernel}/{baseline.pixels}px "
            f"against {report.kernel}/{report.pixels}px"
        )
    return Fraction(baseline.cycles_total) / Fraction(report.cycles_total)


def fit_profile(
    measurements: Iterable[tuple[str, str, int, int]], name: str = "fitted"
) -> CalibrationProfile:
    """Solve per-unit costs so each measurement is reproduced exactly.

    One unknown per (kernel, mode): the scalar rate or the per-group
    cost.  A mode's merge charge is folded into its fit, each merge one
    uniform step (see the module docstring for the split).  Scalar
    measurements are fitted first so lane tails can be subtracted.
    """
    rows = list(measurements)
    if not rows:
        raise Underdetermined("no measurements supplied")
    scalar_cpp: dict[str, Fraction] = {}
    ei_cycles: dict[tuple[str, str], Fraction] = {}
    merge = Fraction(0)

    for kernel, mode, pixels, cycles in rows:
        if mode_lanes(mode) == 0:
            if pixels < 1 or cycles <= 0:
                raise Underdetermined(f"scalar fit for {kernel!r} needs pixels >= 1 and cycles > 0")
            scalar_cpp[kernel] = Fraction(cycles, pixels)

    for kernel, mode, pixels, cycles in rows:
        shape = _shape(mode)
        lanes = shape.lanes
        if lanes == 0:
            continue
        groups, tail = divmod(pixels, lanes)
        if groups < 1:
            raise Underdetermined(f"{kernel}/{mode}: fewer pixels than one {lanes}-lane group")
        pool = Fraction(cycles)
        if tail:
            cpp = scalar_cpp.get(kernel)
            if cpp is None:
                raise Underdetermined(
                    f"{kernel}/{mode}: tail of {tail} pixels but no scalar measurement"
                )
            pool -= tail * cpp
        if pool <= 0:
            raise Underdetermined(f"{kernel}/{mode}: no cycles left for the groups after any tail")
        per_group = len(shape.ledgers)
        step = pool / (per_group * groups + shape.merges(groups))
        ei_cycles[(kernel, mode)] = per_group * step
        if shape.merge:
            merge = step

    return CalibrationProfile(
        name=name,
        scalar_cycles_per_pixel=scalar_cpp,
        ei_cycles=ei_cycles,
        merge_cycles=merge,
    )


# ---------------------------------------------------------------------------
# Profile persistence: flat key-value text, exact-rational values
# ---------------------------------------------------------------------------


def format_profile(profile: CalibrationProfile) -> str:
    """Serialize as '<key> = <num>[/<den>]' lines."""
    lines = [f"name = {profile.name}"]
    for kernel in sorted(profile.scalar_cycles_per_pixel):
        lines.append(
            f"{kernel}.scalar.cycles_per_pixel = "
            f"{_ratio_str(profile.scalar_cycles_per_pixel[kernel])}"
        )
    for kernel, mode in sorted(profile.ei_cycles):
        lines.append(f"{kernel}.{mode}.ei_cycles = {_ratio_str(profile.ei_cycles[(kernel, mode)])}")
    lines.append(f"merge_cycles = {_ratio_str(profile.merge_cycles)}")
    lines.append(f"stall_penalty_external = {_ratio_str(profile.stall_penalty_external)}")
    for kernel, mode in sorted(profile.fixed_overhead):
        lines.append(
            f"{kernel}.{mode}.fixed_overhead = {profile.fixed_overhead[(kernel, mode)]}"
        )
    return "\n".join(lines) + "\n"


def parse_profile(text: str) -> CalibrationProfile:
    """Parse the flat key-value profile format."""
    name = "unnamed"
    scalar_cpp: dict[str, Fraction] = {}
    ei_cycles: dict[tuple[str, str], Fraction] = {}
    merge = Fraction(0)
    stall = Fraction(0)
    overhead: dict[tuple[str, str], int] = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"profile line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "name":
            name = value
            continue
        try:
            number = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"profile line {lineno}: bad rational {value!r}") from exc
        if key == "merge_cycles":
            merge = number
        elif key == "stall_penalty_external":
            stall = number
        else:
            parts = key.split(".")
            if len(parts) != 3:
                raise ValueError(f"profile line {lineno}: unrecognized key {key!r}")
            kernel, mode, what = parts
            # A rate no mode charges would be stored and never read.
            shape = KERNEL_SHAPES.get(mode)
            if shape is None:
                raise ValueError(f"profile line {lineno}: unrecognized mode {mode!r}")
            if what == "cycles_per_pixel" and mode == "scalar":
                scalar_cpp[kernel] = number
            elif what == "ei_cycles" and shape.lanes:
                ei_cycles[(kernel, mode)] = number
            elif what == "fixed_overhead":
                if number.denominator != 1:
                    raise ValueError(
                        f"profile line {lineno}: fixed_overhead must be an integer, got {value!r}"
                    )
                overhead[(kernel, mode)] = int(number)
            else:
                raise ValueError(f"profile line {lineno}: unrecognized key {key!r}")

    return CalibrationProfile(
        name=name,
        scalar_cycles_per_pixel=scalar_cpp,
        ei_cycles=ei_cycles,
        merge_cycles=merge,
        stall_penalty_external=stall,
        fixed_overhead=overhead,
    )


def load_profile(path: Union[str, os.PathLike]) -> CalibrationProfile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())


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

