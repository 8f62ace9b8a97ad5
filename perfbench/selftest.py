"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs the shortest timed run of ``paper-histeq`` (``RSS_ITERATIONS``
iterations, without ``setup_s``) three times: as is, with one byte of
the isef output flipped, and with the scalar call's modeled cycle total
off by one.  It exits 0 only if the clean run has no failure and each
corrupted one has exactly one failure per iteration, counted in
``failed`` and ``fail_ratio``.
"""

from __future__ import annotations

import dataclasses
import sys

import run


def _flip_byte(result):
    out, report, log = result
    samples = out.samples.copy()
    samples[len(samples) // 2] ^= 1
    return dataclasses.replace(out, samples=samples), report, log


def _cycles_off_by_one(result):
    out, report, log = result
    report.cycles_total += 1
    return out, report, log


class Corrupted:
    """A workload whose calls in one mode pass their result through ``corrupt``."""

    def __init__(self, inner, mode, corrupt):
        self.inner, self.mode, self.corrupt = inner, mode, corrupt
        self.elasticity = inner.elasticity

    def iteration(self, i):
        calls = self.inner.iteration(i)
        for call in calls:
            if call.mode == self.mode and self.corrupt is not None:
                call.run = lambda original=call.run: self.corrupt(original())
        return calls


def main() -> int:
    run._import_program()
    import workloads
    from first_use import first_use

    profile = first_use()
    ok = True
    for label, mode, corrupt, expected in (
        ("clean", None, None, 0),
        ("one flipped output byte", "isef", _flip_byte, 1),
        ("cycle total off by one", "scalar", _cycles_off_by_one, 1),
    ):
        wl = Corrupted(workloads.PaperHisteq(seed=1, profile=profile, workdir=""), mode, corrupt)
        result = run.timed_run(wl, seconds=0, setup_runs=0)
        expected *= result["samples"]["iterations"]
        failed, ratio = result["failed"], result["detail"]["fail_ratio"][0]
        good = failed == expected and ratio == expected / result["attempted"]
        ok &= good
        print(f"{label:<26} failed {failed} of {result['attempted']}, fail_ratio {ratio:.2f}: {'ok' if good else 'WRONG'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
