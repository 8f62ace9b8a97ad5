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
    COUNTER_MAX,
    HIST_ENTRIES,
    ExtensionInstruction,
    InvocationLog,
    IramState,
    WideRegister,
    ei_execute,
    ei_validate,  # noqa: F401  (unused here; kept for the benchmark tracer, which patches it)
    wr_pack,
    wr_unpack,
)
from .image_io import ChannelMismatch, ImageBuffer

LANES = cycle_model.mode_lanes("isef")
_SUBHIST_LEDGER, _TRANSFORM_LEDGER = cycle_model.KERNEL_SHAPES["isef"].ledgers


class EmptyImage(ValueError):
    """Equalization requested for zero pixels."""


def _subhist_body(inputs, iram):
    (wr,) = inputs
    pixels = wr_unpack(wr, 0, LANES)
    for lane in range(LANES):
        iram.add_counter(lane, pixels[lane])


def _transform_body(inputs, iram):
    (wr,) = inputs
    pixels = wr_unpack(wr, 0, LANES)
    return (wr_pack(bytes(iram.read_lut(lane, pixels[lane]) for lane in range(LANES))),)


_SUBHIST_EI = ExtensionInstruction(
    name="subhist16",
    body=_subhist_body,
    n_inputs=1,
    n_outputs=0,
    ledger=_SUBHIST_LEDGER,
    ops_used=frozenset({"add", "iram_read", "iram_write"}),
)
_TRANSFORM_EI = ExtensionInstruction(
    name="lut16",
    body=_transform_body,
    n_inputs=1,
    n_outputs=1,
    ledger=_TRANSFORM_LEDGER,
    ops_used=frozenset({"add", "iram_read"}),
)


def ei_subhist16(pixels: WideRegister, iram: IramState, log: Optional[InvocationLog] = None):
    """Count 16 gray pixels, lane j incrementing one counter of bank j."""
    ei_execute(_SUBHIST_EI, (pixels,), iram=iram, log=log)


def ei_transform16(
    pixels: WideRegister, iram: IramState, log: Optional[InvocationLog] = None
) -> WideRegister:
    """Map 16 gray pixels through the replicated table, lane j reading bank j."""
    (out,) = ei_execute(_TRANSFORM_EI, (pixels,), iram=iram, log=log)
    return out


def merge_cumulative(iram: IramState) -> np.ndarray:
    """Sum the per-bank sub-histograms into one cumulative histogram.

    Host-visible composite step; its cycle cost is the profile's merge
    charge, not a per-bank sequence of invocations.
    """
    totals = np.zeros(HIST_ENTRIES, dtype=np.int64)
    for bank in range(iram.banks):
        totals += np.asarray(iram.counters(bank), dtype=np.int64)
    return np.cumsum(totals)


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
    payload = lut.tobytes()
    for bank in range(iram.banks):
        iram.load_lut(bank, payload)


def scalar_histogram(flat: np.ndarray) -> np.ndarray:
    """Plain-processor histogram of a flat uint8 sample array."""
    return np.bincount(flat, minlength=HIST_ENTRIES).astype(np.int64)


HISTEQ_MODES = ("scalar", "isef")


def histeq_image(
    img: ImageBuffer,
    mode: str,
    profile: Optional[cycle_model.CalibrationProfile] = None,
    buffer_location: str = "internal",
    log: Optional[InvocationLog] = None,
) -> tuple[ImageBuffer, Optional[cycle_model.CycleReport]]:
    """Equalize a single-channel image.

    Output samples are identical between modes.  In fabric mode a pixel
    count that does not divide 16 leaves a tail that is counted and
    transformed on the plain-processor path, and the sub-histograms are
    merged once per ``COUNTER_MAX`` groups, at least once.  With a
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
        head = LANES * (n // LANES)
        raw = flat[:head].tobytes()
        per_flush = LANES * COUNTER_MAX
        cum = np.zeros(HIST_ENTRIES, dtype=np.int64)
        # Flush before a lane counter can pass COUNTER_MAX; zero groups still merge once.
        for first in range(0, max(head, 1), per_flush):
            for start in range(first, min(first + per_flush, head), LANES):
                ei_subhist16(wr_pack(raw[start : start + LANES]), iram, log=log)
            cum += merge_cumulative(iram)
            log.record("merge_lut")
            iram.clear()
        tail = flat[head:]
        if tail.size:
            cum += np.cumsum(scalar_histogram(tail))
        lut = build_lut(cum, n)
        lut_replicate(lut, iram)
        lane_bytes = bytearray()
        for start in range(0, head, LANES):
            res = ei_transform16(wr_pack(raw[start : start + LANES]), iram, log=log)
            lane_bytes += wr_unpack(res, 0, LANES)
        out = np.concatenate((np.frombuffer(lane_bytes, dtype=np.uint8), lut[tail]))

    result = ImageBuffer(width=img.width, height=img.height, channels=1, samples=out)
    report = cycle_model.checked_report(
        "histeq", mode, n, profile, buffer_location, log.total - logged
    )
    return result, report
