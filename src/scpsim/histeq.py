"""Three-instruction histogram equalization on the fabric.

The pipeline: a 16-lane kernel counts 16 gray pixels per invocation
into 16 per-lane sub-histograms (lane j owns bank j, so each bank is
touched exactly once per invocation); a composite merge step, run once
per ``COUNTER_MAX`` groups so that no 16-bit lane counter can overflow,
adds the sub-histograms into the cumulative histogram, from which the
gray-level lookup table is derived; the table is replicated into all
banks so a second 16-lane kernel can transform 16 pixels per
invocation, again one bank per lane.  Replication, not striping, is
what keeps the lookup kernel conflict-free for arbitrary pixel data.

The table discretization is entries[k] = floor(255 * cum[k] / n): it
maps a perfectly uniform histogram to the identity and a constant
image to all-255.  The plain cumulative histogram is used, with no
minimum-CDF renormalization.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import cycle_model
from .fabric import (
    BANK_COUNT,
    HIST_ENTRIES,
    ExtensionInstruction,
    InvocationLog,
    IramState,
    ei_execute_batch,
)
# Unused here; kept for the benchmark tracer, which patches these names.
from .fabric import ei_execute, ei_validate, wr_pack, wr_unpack  # noqa: F401
from .image_io import ChannelMismatch, ImageBuffer

LANES = cycle_model.mode_lanes("isef")
_SUBHIST_LEDGER, _TRANSFORM_LEDGER = cycle_model.KERNEL_SHAPES["isef"].ledgers


class EmptyImage(ValueError):
    """Equalization requested for zero pixels."""


#: Lane j of both kernels owns bank j; a register holds one pixel per lane.
_LANE_BANKS = np.arange(LANES)


def _subhist_body(registers, iram):
    iram.add_counters(_LANE_BANKS, registers[:, 0])
    return registers[:, :0]


def _transform_body(registers, iram):
    return iram.read_luts(_LANE_BANKS, registers[:, 0])[:, None]


_SUBHIST_EI = ExtensionInstruction(
    name="subhist16",
    body=_subhist_body,
    n_inputs=1,
    n_outputs=0,
    ledger=_SUBHIST_LEDGER,
    ops_used=frozenset({"add", "iram_read", "iram_write"}),
    batched=True,
)
_TRANSFORM_EI = ExtensionInstruction(
    name="lut16",
    body=_transform_body,
    n_inputs=1,
    n_outputs=1,
    ledger=_TRANSFORM_LEDGER,
    ops_used=frozenset({"add", "iram_read"}),
    batched=True,
)


def ei_subhist16(pixels: np.ndarray, iram: IramState, log: Optional[InvocationLog] = None):
    """Count an ``(invocations, 16)`` uint8 array of gray pixels, one
    invocation per row, lane j incrementing one counter of bank j."""
    ei_execute_batch(_SUBHIST_EI, pixels[:, None, :], iram=iram, log=log)


def ei_transform16(
    pixels: np.ndarray, iram: IramState, log: Optional[InvocationLog] = None
) -> np.ndarray:
    """Map an ``(invocations, 16)`` uint8 array of gray pixels through the
    replicated table, one invocation per row, lane j reading bank j."""
    return ei_execute_batch(_TRANSFORM_EI, pixels[:, None, :], iram=iram, log=log)[:, 0]


def merge_cumulative(iram: IramState) -> np.ndarray:
    """Sum the per-bank sub-histograms into one cumulative histogram.

    Host-visible composite step, not a per-bank sequence of invocations;
    the cost model charges it as one invocation of the pipeline, one step
    of the ``isef`` rate.
    """
    return np.cumsum(iram.counters().sum(axis=0, dtype=np.int64))


def build_lut(cum: np.ndarray, n: int) -> np.ndarray:
    """Gray-level transformation: entries[k] = floor(255 * cum[k] / n)."""
    if n <= 0:
        raise EmptyImage("cannot equalize zero pixels")
    cum = np.asarray(cum, dtype=np.int64)
    if cum.shape != (HIST_ENTRIES,):
        raise ValueError(f"cumulative histogram must have {HIST_ENTRIES} bins")
    return ((255 * cum) // n).astype(np.uint8)


def lut_replicate(lut: np.ndarray, iram: IramState):
    """Copy the full 256-entry table into every bank."""
    lut = np.asarray(lut, dtype=np.uint8)
    if lut.shape != (HIST_ENTRIES,):
        raise ValueError(f"lookup table must have {HIST_ENTRIES} entries")
    iram.load_luts(lut[None].repeat(BANK_COUNT, axis=0))


def scalar_histogram(flat: np.ndarray) -> np.ndarray:
    """Plain-processor histogram of a flat uint8 sample array."""
    return np.bincount(flat, minlength=HIST_ENTRIES).astype(np.int64)


HISTEQ_MODES = cycle_model.FAMILY_MODES["histeq"]


def histeq_image(
    img: ImageBuffer,
    mode: str,
    profile: Optional[cycle_model.CalibrationProfile] = None,
    log: Optional[InvocationLog] = None,
) -> tuple[ImageBuffer, Optional[cycle_model.CycleReport]]:
    """Equalize a single-channel image.

    Output samples are identical between modes.  In fabric mode a pixel
    count that does not divide 16 leaves a tail that is counted and
    transformed on the plain-processor path, and the sub-histograms are
    merged at the end of each flush window (``KernelShape.windows``).  With a
    profile the cycle report is filled from the cost model, which must
    agree with the invocations executed (``cycle_model.checked_report``);
    without one the report is None.
    """
    if img.channels != 1:
        raise ChannelMismatch(f"equalization needs 1 channel, got {img.channels}")
    if mode not in HISTEQ_MODES:
        raise ValueError(f"mode must be one of {HISTEQ_MODES}, got {mode!r}")
    if log is None:
        log = InvocationLog()
    logged = log.total

    flat = img.samples
    n = flat.size
    if n == 0:
        raise EmptyImage("cannot equalize zero pixels")

    if mode == "scalar":
        cum = np.cumsum(scalar_histogram(flat))
        lut = build_lut(cum, n)
        out = lut[flat]
    else:
        iram = IramState()
        groups = n // LANES
        head = LANES * groups
        pixels = flat[:head].reshape(groups, LANES)
        cum = np.zeros(HIST_ENTRIES, dtype=np.int64)
        windows = cycle_model.KERNEL_SHAPES["isef"].windows(groups)
        for first in windows:
            ei_subhist16(pixels[first : first + windows.step], iram, log=log)
            cum += merge_cumulative(iram)
            log.record("merge_lut")
            iram.clear()
        tail = flat[head:]
        if tail.size:
            cum += np.cumsum(scalar_histogram(tail))
        lut = build_lut(cum, n)
        lut_replicate(lut, iram)
        out = np.concatenate((ei_transform16(pixels, iram, log=log).ravel(), lut[tail]))

    result = ImageBuffer(width=img.width, height=img.height, channels=1, samples=out)
    report = cycle_model.checked_report("histeq", mode, n, profile, log.total - logged)
    return result, report
