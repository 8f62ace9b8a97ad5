"""Per-layer tracing of scpsim from outside the package, and layer fixtures.

``Tracer.install()`` replaces public functions at the module attributes
their callers look up (``scpsim.colorspace.ei_execute``,
``scpsim.fabric.IramState.add_counter``, ...) with wrappers, and
``uninstall()`` puts the originals back.  A timing wrapper adds its call,
duration and self time (duration minus its wrapped children) to a flat
accumulator.  After each image-level call the benchmark folds the
accumulators into that call's root span, so a hot call costs a few list
updates and nothing is written until the run ends.  The per-lane
fixed-point primitives are only counted: a wrapper timing a 100 ns call
would mostly measure its own clock reads.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

import hostspeed
from scpsim import cli, colorspace, cycle_model, fabric, histeq, image_io

#: (owner, attribute, accumulator) for every timed function.  A function
#: imported by name into several modules is patched in each of them.
TIMED = [
    *[
        (owner, attr, f"fabric.{attr}")
        for owner in (colorspace, histeq)
        for attr in ("ei_execute", "wr_pack", "wr_unpack", "ei_validate")
    ],
    (fabric, "ei_validate", "fabric.ei_validate"),
    (fabric.IramState, "add_counter", "fabric.iram.add_counter"),
    (fabric.IramState, "read_lut", "fabric.iram.read_lut"),
    *[
        (colorspace, attr, f"colorspace.{attr}")
        for attr in ("convert_image", "matrix_ei", "apply_matrix_np", "roundtrip_sweep")
    ],
    (colorspace, "div256_trunc_np", "fixed_point.div256_trunc_np"),
    (image_io, "div256_trunc_np", "fixed_point.div256_trunc_np"),
    (colorspace, "clamp_u8_np", "fixed_point.clamp_u8_np"),
    *[
        (histeq, attr, f"histeq.{attr}")
        for attr in (
            "histeq_image",
            "ei_subhist16",
            "ei_transform16",
            "merge_cumulative",
            "build_lut",
            "lut_replicate",
            "scalar_histogram",
        )
    ],
    *[(cycle_model, attr, f"cycle_model.{attr}") for attr in ("estimate", "resolve_profile", "fit_profile")],
    *[(image_io, attr, f"image_io.{attr}") for attr in ("read_pnm", "write_pnm", "to_gray")],
    (cli, "main", "cli.main"),
]
#: Scalar fixed-point primitives called once per lane and channel.
COUNTED = [(colorspace, "div256_trunc"), (colorspace, "clamp_u8"), (colorspace, "mul_acc3")]
SCALAR = "fixed_point.scalar"

# Accumulator slots.
CALLS, NS, SELF_NS, PX = range(4)


class Tracer:
    def __init__(self):
        self._stack = []
        self._saved = []
        #: accumulator -> [calls, ns, self_ns, px] since the last root span ended
        self.acc = {}
        self.counter_peak = 0
        self.exit_nonzero = 0
        #: root label -> accumulator -> [calls, ns, self_ns, px] since the last take()
        self.roots = {}

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for owner, attr, name in TIMED:
            post = {"fabric.iram.add_counter": self._peak, "cli.main": self._exit}.get(name)
            px = _rows if name == "colorspace.apply_matrix_np" else None
            self._patch(owner, attr, self._timed(getattr(owner, attr), name, px, post))
        scalar = self.acc.setdefault(SCALAR, [0, 0, 0, 0])
        for owner, attr in COUNTED:
            self._patch(owner, attr, _counted(getattr(owner, attr), scalar))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _peak(self, value):
        if value > self.counter_peak:
            self.counter_peak = value

    def _exit(self, code):
        if code:
            self.exit_nonzero += 1

    def _timed(self, original, name, px, post):
        acc = self.acc.setdefault(name, [0, 0, 0, 0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                acc[CALLS] += 1
                acc[NS] += dt
                acc[SELF_NS] += dt - frame[0]
            if px is not None:
                acc[PX] += px(args)
            if post is not None:
                post(result)
            return result

        return wrapper

    def end_root(self, label: str):
        """Fold everything recorded since the previous root into ``label``."""
        table = self.roots.setdefault(label, {})
        for name, acc in self.acc.items():
            if acc[CALLS]:
                into = table.setdefault(name, [0, 0, 0, 0])
                for slot in range(4):
                    into[slot] += acc[slot]
                acc[:] = [0, 0, 0, 0]

    def take(self):
        """Per-root tables, totals over roots, counter peak and nonzero exits
        recorded since the previous take(); resets them."""
        roots, self.roots = self.roots, {}
        totals = {name: [0, 0, 0, 0] for name in self.acc}
        for table in roots.values():
            for name, acc in table.items():
                for slot in range(4):
                    totals[name][slot] += acc[slot]
        peak, nonzero = self.counter_peak, self.exit_nonzero
        self.counter_peak = self.exit_nonzero = 0
        return roots, totals, peak, nonzero


def _rows(args) -> int:
    return int(args[0].shape[0])


def _counted(original, acc):
    def wrapper(*args):
        # mul_acc3 also runs on whole arrays in the sweep; count per-lane calls only.
        if not isinstance(args[-1], tuple) or not isinstance(args[-1][0], np.ndarray):
            acc[CALLS] += 1
        return original(*args)

    return wrapper


# ---------------------------------------------------------------------------
# Layer fixtures: one layer timed alone through its public API, untraced.
# ---------------------------------------------------------------------------


def _per_call_ns(fn, n: int, batches: int) -> list:
    samples = []
    for _ in range(batches):
        t0 = perf_counter_ns()
        for _ in range(n):
            fn()
        samples.append((perf_counter_ns() - t0) / n)
    return samples


def dispatch_ns(n=2000, batches=15):
    """ns per ``ei_execute`` of an identity instruction; and whether it is the identity."""
    ident = fabric.ExtensionInstruction(
        name="identity",
        body=lambda inputs, iram: inputs[0],
        n_inputs=1,
        n_outputs=1,
        ledger=fabric.ResourceLedger(),
    )
    fabric.ei_validate(ident)
    wr = fabric.wr_pack(bytes(range(16)))
    ns = statistics.median(_per_call_ns(lambda: fabric.ei_execute(ident, (wr,)), n, batches))
    return ns, fabric.ei_execute(ident, (wr,)) == (wr,)


def bank_check_ns(n=5000, batches=15):
    """ns the bank rule adds to ``read_counter`` inside an invocation window;
    and whether the window still rejects a second entry of one bank."""
    iram = fabric.IramState()
    read = lambda: iram.read_counter(3, 7)  # noqa: E731
    outside = _per_call_ns(read, n, batches)
    with iram.invocation():
        inside = _per_call_ns(read, n, batches)
        try:
            iram.read_counter(3, 8)
            enforced = False
        except fabric.BankConflict:
            enforced = True
    return statistics.median(inside) - statistics.median(outside), enforced


def fit_profile_ms(runs=20):
    """ms per fit of the paper profile; and whether it equals the builtin one."""
    fit = lambda: cycle_model.fit_profile(cycle_model.CALIBRATION_MEASUREMENTS, name="s6000_paper")  # noqa: E731
    ms = statistics.median(_per_call_ns(fit, 1, runs)) / 1e6
    return ms, fit() == cycle_model.builtin_profile()


def fixtures() -> tuple:
    """Speed-corrected values of the fixture metrics, and the names of
    fixtures whose check failed."""
    values, failed = {}, []
    for name, fixture in (
        ("fabric.ei_execute.dispatch_ns", dispatch_ns),
        ("fabric.iram.bank_check_ns", bank_check_ns),
        ("cycle_model.fit_profile.ms", fit_profile_ms),
    ):
        before = hostspeed.probe_ms()
        value, ok = fixture()
        values[name] = value * hostspeed.factor(before, hostspeed.probe_ms())
        if not ok:
            failed.append(name)
    return values, failed
