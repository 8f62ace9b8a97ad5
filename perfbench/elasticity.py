"""Measure how strongly each workload's code slows with the host-speed probe.

    python3 perfbench/elasticity.py [--seconds 150] [--window 5]

Cycles for ``--seconds`` through the probe and one call of each kind: a
fabric call of ``paper-convert``, an ``isef`` call of ``paper-histeq``,
the first requests of ``cli-small-mixed``, the ``roundtrip-sweep`` call,
a fresh interpreter's set-up (``setup_s``), and ``apply_matrix_np`` over
the paper's 64000-px frame.  The last is not a workload: it is the
numpy form that batching the fabric would move ``paper-convert`` to, so
it shows how such code slows compared with the probe.

Samples are grouped into time windows, and in each window the median
log time of each kind, the median log probe before the calls and the
median log probe after them are taken.  A kind's elasticity is the slope
of its log time on the log probe.  Noise in the probe would flatten a
plain least-squares slope, so the slope is taken with the probes before
and after as two independent readings of the same host speed:
(cov(t, before) + cov(t, after)) / (2 cov(before, after)).  Its standard
error is a jackknife over the windows.  The figure means something only
if the host's speed varied during the run, so the probe's range over the
windows is printed too.  The values stated in ``workloads.py`` and
``run.py`` come from this script.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import subprocess
import sys
import time

import hostspeed
import run


def _cov(xs, ys) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys))


def _slope(ts, before, after) -> float:
    return (_cov(ts, before) + _cov(ts, after)) / (2 * _cov(before, after))


def _jackknife(ts, before, after) -> tuple:
    """The slope and its jackknife standard error over the windows."""
    n = len(ts)
    drop = [_slope(*(v[:k] + v[k + 1:] for v in (ts, before, after))) for k in range(n)]
    mean = statistics.fmean(drop)
    return _slope(ts, before, after), math.sqrt((n - 1) / n * sum((d - mean) ** 2 for d in drop))


def _timed(fn):
    def measure() -> float:
        t0 = time.perf_counter()
        fn()
        return (time.perf_counter() - t0) * 1e3

    return measure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=150)
    parser.add_argument("--window", type=float, default=5)
    args = parser.parse_args(argv)
    run._import_program()

    import numpy as np

    import workloads
    from first_use import first_use
    from scpsim import colorspace

    profile = first_use()
    run.OUT.mkdir(exist_ok=True)
    built = {name: cls(1, profile, str(run.OUT / f"work-{os.getpid()}-{name}")) for name, cls in workloads.WORKLOADS.items()}
    try:
        convert = next(c for c in built["paper-convert"].iteration(0) if c.mode == "ei8")
        isef = next(c for c in built["paper-histeq"].iteration(0) if c.mode == "isef")
        requests = built["cli-small-mixed"].iteration(0)[:21]
        sweep = built["roundtrip-sweep"].iteration(0)[0]
        frame = np.random.default_rng(1).integers(0, 256, (64000, 3), dtype=np.uint8)
        env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
        setup_cmd = [sys.executable, str(run.BENCH / "first_use.py")]

        def cli():  # like run.execute, times only the requests, not their prepare()
            ms = 0.0
            for call in requests:
                call.prepare()
                t0 = time.perf_counter()
                call.run()
                ms += (time.perf_counter() - t0) * 1e3
            return ms

        def setup():  # the seconds first_use.py reports, as run.fresh_setup takes them
            proc = subprocess.run(setup_cmd, env=env, cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=120)
            return float(proc.stdout.split()[-1]) * 1e3

        kinds = {
            "paper-convert": (_timed(convert.run), workloads.PaperConvert.elasticity),
            "paper-histeq": (_timed(isef.run), workloads.PaperHisteq.elasticity),
            "cli-small-mixed": (cli, workloads.CliSmallMixed.elasticity),
            "roundtrip-sweep": (_timed(sweep.run), workloads.RoundtripSweep.elasticity),
            "setup_s": (setup, run.SETUP_ELASTICITY),
            "numpy-batch": (_timed(lambda: colorspace.apply_matrix_np(frame, colorspace.RGB2YIQ)), None),
        }
        samples = []  # (seconds since start, kind, log probe ms before, after, log host ms)
        start = time.perf_counter()
        probe = hostspeed.probe_ms()
        while time.perf_counter() - start < args.seconds:
            for kind, (measure, _) in kinds.items():
                t = time.perf_counter() - start
                ms = measure()
                after = hostspeed.probe_ms()
                samples.append((t, kind, math.log(probe), math.log(after), math.log(ms)))
                probe = after
    finally:
        for wl in built.values():
            wl.close()

    windows = {}
    for t, kind, lb, la, lt in samples:
        w = windows.setdefault(int(t // args.window), {"before": [], "after": [], **{k: [] for k in kinds}})
        w["before"].append(lb)
        w["after"].append(la)
        w[kind].append(lt)
    full = [w for w in windows.values() if all(w[k] for k in kinds)]
    before = [statistics.median(w["before"]) for w in full]
    after = [statistics.median(w["after"]) for w in full]
    print(f"{len(samples)} calls in {len(full)} windows of {args.window} s; probe over windows "
          f"{math.exp(min(before)) / hostspeed.NOMINAL_MS:.2f}x to {math.exp(max(before)) / hostspeed.NOMINAL_MS:.2f}x nominal")
    print(f"{'kind':<18} {'elasticity':>10} {'+-':>5} {'stated':>7} {'median ms':>10}")
    for kind, (_, stated) in kinds.items():
        slope, err = _jackknife([statistics.median(w[kind]) for w in full], before, after)
        med = math.exp(statistics.median(lt for _, k, _, _, lt in samples if k == kind))
        print(f"{kind:<18} {slope:>10.2f} {err:>5.2f} {'-' if stated is None else stated:>7} {med:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
