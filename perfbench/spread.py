"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3] [--seconds S] [--trace 0|1]
                                [--label NAME] [--against SUMMARY]

Each run is ``run.py`` in a fresh process.  For every workload and
metric it prints the median, the quartiles and the spread, which is the
distance between the quartiles as a share of the median; end-to-end
metrics, ``setup_s`` too, are compared with their bound from
``BENCHMARK.json``.  With ``--against`` an earlier summary of the same
code, each end-to-end median must also not be worse than the earlier
one by more than the bound.  A seed
listed twice is run twice, and every count metric (units count, px and
cycles) must then repeat exactly.  With one seed it simply runs every
workload once and prints every metric with its unit.  The summary is
written to ``.perfbench_out/spread-trace<T>[-NAME].json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_UNITS = {"count", "px", "cycles"}


def _stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(map(str, range(1, 11))))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}
    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            record = json.loads((ROOT / lines[-2].split(": ", 1)[1]).read_text(encoding="utf-8"))
            ok &= result["correct"] and result["failed"] == 0
            runs.append((seed, {**result["metrics"], **record["workload_metrics"]}, result))
        if not runs:
            continue
        print(f"\n== {workload}: {len(runs)} runs, seeds {[s for s, _, _ in runs]}, "
              f"failed {sum(r['failed'] for _, _, r in runs)} of {sum(r['attempted'] for _, _, r in runs)}")
        print(f"{'metric':<34} {'median':>16} {'q1':>16} {'q3':>16} {'spread':>8} {'bound':>6} {'drift':>7}  unit")
        table = {}
        for name, first in runs[0][1].items():
            values = [m[name]["value"] for _, m, _ in runs if name in m]
            med, q1, q3, spread = _stats(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag, ok = "  OVER BOUND", False
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of the bound"
            drift = None
            before = earlier.get(workload, {}).get(name)
            if bound is not None and before:
                # How much worse this median is than the earlier one, as a share of it.
                drift = (med - before["median"]) / before["median"]
                if better[name] == "higher":
                    drift = -drift
                if drift > bound:
                    flag, ok = flag + "  MEDIAN DRIFT OVER BOUND", False
            if first["unit"] in COUNT_UNITS:
                by_seed = {}
                for seed, m, _ in runs:
                    by_seed.setdefault(seed, set()).add(m[name]["value"])
                if any(len(v) > 1 for v in by_seed.values()):
                    flag, ok = "  COUNT DIFFERS FOR ONE SEED", False
            print(f"{name:<34} {med:>16.6f} {q1:>16.6f} {q3:>16.6f} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6} {'' if drift is None else f'{drift:+.4f}':>7}  {first['unit']}{flag}")
            table[name] = {"unit": first["unit"], "values": values, "median": med, "spread": spread, "bound": bound}
        summary[workload] = table
    out = ROOT / ".perfbench_out" / f"spread-trace{args.trace}{'-' + args.label if args.label else ''}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
