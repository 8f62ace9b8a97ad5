"""Two-clock benchmark of scpsim: host time of the simulator, modeled cycles of the paper.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` beside this directory.  ``--trace 0``
measures the end-to-end metrics named in ``BENCHMARK.json`` and
``--trace 1`` the per-layer ones.  Both print every metric with its unit,
then one JSON result line, and write the full record (metadata,
workload-specific metrics, samples, trace tables) under
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
#: Fresh interpreters timed for setup_s, spread over the timed run, after
#: one that only fills the bytecode cache.
SETUP_RUNS = 20
#: How a fresh interpreter's set-up time grows with the probe (see ``hostspeed``),
#: as ``elasticity.py`` measures it.
SETUP_ELASTICITY = 0.4
#: peak_rss_mb is read after this many iterations, so that a faster
#: commit, which runs more iterations, does not read more memory.
RSS_ITERATIONS = 3


def _import_program():
    src = ROOT / "src"
    if not (src / "scpsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no scpsim sources under {src}")
    sys.path.insert(0, str(src))
    import scpsim

    if Path(scpsim.__file__).resolve().parent != (src / "scpsim").resolve():
        sys.exit(f"perfbench: imported scpsim from {scpsim.__file__}, not {src}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _iqr_ratio(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def fresh_setup() -> tuple:
    """Corrected and raw seconds of ``import scpsim`` plus first-use
    set-up in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "first_use.py")]
    before = hostspeed.probe_ms()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    raw = float(proc.stdout.split()[-1])
    return raw * hostspeed.factor(before, hostspeed.probe_ms(), SETUP_ELASTICITY), raw


class Record(NamedTuple):
    iteration: int
    mode: object
    px: int  # pixels completed, 0 if the call failed
    invocations: int
    ms: float  # corrected host ms
    raw_ms: float
    failed: bool
    cycles: Fraction


def execute(call, tracer=None):
    """Run one call: prepare, time ``run``, check.  Returns (host ms, Outcome)."""
    from workloads import Outcome

    if call.prepare is not None:
        call.prepare()
    t0 = time.perf_counter_ns()
    try:
        raw = call.run()
    except Exception as exc:  # a failed operation is counted, and the run goes on
        outcome = Outcome([f"{type(exc).__name__}: {exc}"], ("raised", type(exc).__name__), Fraction(0))
    else:
        outcome = None
    ms = (time.perf_counter_ns() - t0) / 1e6
    if tracer is not None:
        tracer.end_root(call.root)
    return ms, outcome or call.check(raw)


def timed_run(wl, seconds: float, setup_runs: int = SETUP_RUNS) -> dict:
    """Closed loop, one client: whole iterations until ``seconds`` have passed.

    Between iterations, fresh interpreters are timed for ``setup_s``,
    spread evenly over the run so that they sample its host speeds as
    the calls do; their time is not counted in ``seconds``.

    Every call's host time is corrected for the host's speed with probes
    run just before and after it, raised to the workload's elasticity
    (see ``hostspeed``).  A call's figure is the median of its corrected
    times over the run, among the calls with its key, which do the same
    work.  One iteration costs the sum of those figures over its calls,
    and ``px_per_s`` is its pixels over that sum.
    """
    records = []
    by_key = {}
    rss_mb = None
    setup = []  # (corrected, raw) seconds of each fresh interpreter
    if setup_runs:
        fresh_setup()  # fills the bytecode cache
    probes = [hostspeed.probe_ms()]
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while i < RSS_ITERATIONS or time.perf_counter() - start - paused < seconds:
        calls = wl.iteration(i)
        for call in calls:
            raw, outcome = execute(call)
            probes.append(hostspeed.probe_ms())
            ms = raw * hostspeed.factor(probes[-2], probes[-1], wl.elasticity)
            by_key.setdefault(call.key, []).append(ms)
            failed = bool(outcome.problems)
            records.append(Record(i, call.mode, 0 if failed else call.px, call.invocations, ms, raw, failed, outcome.cycles))
            if failed:
                print(f"FAILED {call.root} ({call.key}): {'; '.join(outcome.problems)}")
        if i == 0:
            first = [(call.key, call.px) for call in calls]
        i += 1
        if i == RSS_ITERATIONS:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t0 = time.perf_counter()
        due = setup_runs * min(1.0, (t0 - start - paused) / seconds) if seconds else setup_runs
        if len(setup) < due:
            while len(setup) < due:
                setup.append(fresh_setup())
            paused += time.perf_counter() - t0
            probes.append(hostspeed.probe_ms())  # the next call's probe before
    while len(setup) < setup_runs:
        setup.append(fresh_setup())

    failed = sum(r.failed for r in records)
    iter_ms = sum(statistics.median(by_key[key]) for key, _ in first)
    iter_px = sum(px for _, px in first)
    detail = {
        "fail_ratio": (failed / len(records), "ratio"),
        "iter_ms_p50": (iter_ms, "ms"),
    }
    modes = sorted({r.mode for r in records if r.mode})
    for mode in modes:
        detail[f"{mode}_ms_p50"] = (_median([r.ms for r in records if r.mode == mode]), "ms")
    call_ms = [r.ms for r in records]
    if len(call_ms) >= 100:  # p90 needs ten samples beyond it
        detail["call_ms_p50"] = (_median(call_ms), "ms")
        detail["call_ms_p90"] = (statistics.quantiles(call_ms, n=10)[-1], "ms")
    fabric = [r for r in records if r.mode not in (None, "scalar")]
    if fabric:
        detail["ei_per_s"] = (sum(r.invocations for r in fabric) / sum(r.ms for r in fabric) * 1e3, "1/s")
    cycles = sum((r.cycles for r in records if r.iteration == 0), Fraction(0))
    if cycles:
        detail["modeled_cycles"] = (float(cycles), "cycles")
    detail["raw_px_per_s"] = (sum(r.px for r in records) / sum(r.raw_ms for r in records) * 1e3, "px/s")
    detail["host_slowdown"] = (_median(probes) / hostspeed.NOMINAL_MS, "ratio")
    samples = {"calls": len(records), "iterations": i, "keys": len(by_key), "setup_runs": len(setup)}
    samples.update({f"{mode}_calls": sum(r.mode == mode for r in records) for mode in modes})
    return {
        "e2e": {"px_per_s": iter_px / iter_ms * 1e3, "peak_rss_mb": rss_mb, "setup_s": _median([c for c, _ in setup])},
        "detail": detail,
        "attempted": len(records),
        "failed": failed,
        "samples": samples,
        "noise": {
            "key_iqr_ratio_median": _median([_iqr_ratio(v) for v in by_key.values()]),
            "probe_iqr_ratio": _iqr_ratio(probes),
            "setup_s_iqr_ratio": _iqr_ratio([c for c, _ in setup]),
        },
        "setup_s_raw_samples": [r for _, r in setup],
        "modeled_cycles_exact": str(cycles),
    }


def traced_run(wl, seconds: float) -> dict:
    """Alternate untraced and traced passes over the same iterations.

    Per-layer times are medians over the traced passes, each corrected for
    host speed with probes around its pass; counts come from the first
    traced pass and must repeat in every later one, and every traced
    output must equal the untraced one.
    """
    import tracing

    fixture_values, fixture_failures = tracing.fixtures()
    failed = len(fixture_failures)
    attempted = len(fixture_values)
    for name in fixture_failures:
        print(f"FAILED fixture {name}")
    calls = [c for i in range(wl.trace_iterations) for c in wl.iteration(i)]
    tracer = tracing.Tracer()
    reference = None
    untraced_ms, traced_ms, passes, roots = [], [], [], {}
    start = time.perf_counter()
    while len(traced_ms) < 2 or time.perf_counter() - start < seconds:
        for traced in (False, True):
            before = hostspeed.probe_ms()
            if traced:
                tracer.install()
            try:
                results = [execute(c, tracer if traced else None) for c in calls]
            finally:
                tracer.uninstall()
            scale = hostspeed.factor(before, hostspeed.probe_ms(), wl.elasticity)
            attempted += len(results)
            fingerprints = [o.fingerprint for _, o in results]
            reference = reference or fingerprints
            for c, (_, o), fp, ref in zip(calls, results, fingerprints, reference):
                problems = o.problems + (["traced output differs from untraced"] if fp != ref else [])
                if problems:
                    failed += 1
                    print(f"FAILED {c.root}: {'; '.join(problems)}")
            pass_ms = scale * sum(ms for ms, _ in results)
            if not traced:
                untraced_ms.append(pass_ms)
                continue
            traced_ms.append(pass_ms)
            by_root, totals, peak, nonzero = tracer.take()
            for label, table in by_root.items():
                into = roots.setdefault(label, {})
                for name, acc in table.items():
                    into[name] = [a + b for a, b in zip(into.get(name, [0, 0, 0, 0]), acc)]
            cycles = sum((o.cycles for _, o in results), Fraction(0))
            counts = {name: (acc[tracing.CALLS], acc[tracing.PX]) for name, acc in totals.items()}
            passes.append((scale, totals, (counts, peak, nonzero, cycles)))
    if any(p[2] != passes[0][2] for p in passes):
        failed += 1
        print("FAILED trace: a count differs between traced passes")
    counts, peak, nonzero, cycles = passes[0][2]
    values = {
        **fixture_values,
        "fabric.counter_peak": peak,
        "cli.exit_nonzero": nonzero,
        "modeled_cycles": float(cycles),
        "trace.overhead_ratio": _median(traced_ms) / _median(untraced_ms),
    }
    slots = {"ms": tracing.NS, "self_ms": tracing.SELF_NS}

    def layer(metric):
        if metric in values:
            return values[metric]
        name, _, what = metric.rpartition(".")
        if what == "calls":
            return counts[name][0]
        if what == "px":
            return counts[name][1]
        return _median([scale * totals[name][slots[what]] / 1e6 for scale, totals, _ in passes])

    return {
        "layer": layer,
        "attempted": attempted,
        "failed": failed,
        "samples": {"traced_passes": len(traced_ms), "untraced_passes": len(untraced_ms), "calls_per_pass": len(calls)},
        "noise": {"traced_pass_ms_iqr_ratio": _iqr_ratio(traced_ms)},
        "trace_by_root": {
            label: {name: {"calls": a[0], "ms": a[1] / 1e6, "self_ms": a[2] / 1e6, "px": a[3]} for name, a in table.items()}
            for label, table in roots.items()
        },
    }


def metadata(args) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "probe_nominal_ms": hostspeed.NOMINAL_MS,
        "setup_elasticity": SETUP_ELASTICITY,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    import workloads
    from first_use import first_use

    record = {"meta": metadata(args)}
    profile = first_use()
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, profile, str(OUT / f"work-{os.getpid()}"))
    record["meta"]["elasticity"] = wl.elasticity
    try:
        run = traced_run(wl, args.seconds) if args.trace else timed_run(wl, args.seconds)
    finally:
        wl.close()

    if args.trace:
        named = {m["name"]: (run["layer"](m["name"]), m["unit"]) for m in spec["per_layer"]}
        extra = {}
        record["trace_by_root"] = run["trace_by_root"]
    else:
        named = {m["name"]: (run["e2e"][m["name"]], m["unit"]) for m in spec["end_to_end"]}
        extra = run["detail"]
        record["setup_s_raw_samples"] = run["setup_s_raw_samples"]
        record["modeled_cycles_exact"] = run["modeled_cycles_exact"]

    for name, (value, unit) in {**named, **extra}.items():
        print(f"{name:<34} {value:>18.6f} {unit}")
    record.update(
        samples=run["samples"],
        noise=run["noise"],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        workload_metrics={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    )
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: {out.relative_to(ROOT)}")
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"], "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
