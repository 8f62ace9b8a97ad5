"""Standing mutation check: every named mutant of ``src/`` must fail Tier-1.

A mutant is an exact-string replacement in one file under ``src/``.  For
each one the tool copies the tree (``src/``, ``tests/``, ``perfbench/``
and ``pyproject.toml``) into a temporary directory, applies the mutant
there and runs Tier-1 with ``-x``, less ``tests/test_mutants.py``: that
test fails on any mutated tree, since the mutant's target is gone, and
would count every mutant as killed.  A mutant whose run passes survives.
The unmutated copy is run first and must pass, so that a copy that cannot
run at all does not count as killing every mutant.  The working tree is
never modified.

Run from anywhere, with the test dependencies installed::

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

Exits 1 if any mutant survives, 2 if a mutant's target string does not
occur exactly once in its file (the list has gone stale), if a name is
unknown or if the unmutated copy fails Tier-1, else 0.
About 5 s per mutant on a 2-core host.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


FABRIC = "src/scpsim/fabric.py"
CYCLE_MODEL = "src/scpsim/cycle_model.py"
COLORSPACE = "src/scpsim/colorspace.py"

MUTANTS = (
    # Fabric rules.
    Mutant("iram-check-at-capacity", FABRIC,
           "led.iram_bytes_used > IRAM_BYTES", "led.iram_bytes_used >= IRAM_BYTES"),
    Mutant("iram-is-one-bank", FABRIC,
           "IRAM_BYTES = BANK_COUNT * BANK_BYTES", "IRAM_BYTES = BANK_BYTES"),
    Mutant("alu-check-at-capacity", FABRIC,
           "led.alu_ops_used > ALU_OPS * stages", "led.alu_ops_used >= ALU_OPS * stages"),
    Mutant("alu-budget-ignores-stages", FABRIC,
           "led.alu_ops_used > ALU_OPS * stages", "led.alu_ops_used > ALU_OPS"),
    Mutant("stage-count-floors", FABRIC,
           "-(-ledger.multipliers_used // MULTIPLIERS)", "ledger.multipliers_used // MULTIPLIERS"),
    Mutant("conflict-check-misses-adjacent-entries", FABRIC,
           "((step > 0) & (step < HIST_ENTRIES))", "((step > 1) & (step < HIST_ENTRIES))"),
    Mutant("counter-limit-fires-at-65535", FABRIC,
           "totals.max() > COUNTER_MAX", "totals.max() >= COUNTER_MAX"),
    Mutant("input-arity-allows-four", FABRIC,
           "ei.n_inputs > MAX_INPUTS", "ei.n_inputs > MAX_INPUTS + 1"),
    # Fixed-point primitives.
    Mutant("div256-floors", "src/scpsim/fixed_point.py",
           "return (x + ((x >> (8 * x.dtype.itemsize - 1)) & 255)) >> 8", "return x >> 8"),
    Mutant("div256-sign-mask-127", "src/scpsim/fixed_point.py",
           "& 255)) >> 8", "& 127)) >> 8"),
    Mutant("clamp-passes-256", "src/scpsim/fixed_point.py",
           "return np.clip(x, 0, 255)", "return np.clip(x, 0, 256)"),
    # Blocked batch path and the streamed sweep.
    Mutant("block-drops-last-column", COLORSPACE,
           "for c in range(3):", "for c in range(2):"),
    Mutant("sweep-skips-a-g-step", COLORSPACE,
           "for g in range(0, 256, g_step):", "for g in range(0, 256 - g_step, g_step):"),
    # Histogram equalization.
    Mutant("build-lut-rounds-up", "src/scpsim/histeq.py",
           "((255 * cum) // n)", "(-(-255 * cum // n))"),
    # Flush and merge steps, one statement of the rule for model and driver.
    Mutant("no-merge-for-zero-groups", CYCLE_MODEL,
           "range(0, max(groups, 1) if self.merge else 0, COUNTER_MAX)",
           "range(0, groups if self.merge else 0, COUNTER_MAX)"),
    Mutant("flush-one-group-late", CYCLE_MODEL,
           "range(0, max(groups, 1) if self.merge else 0, COUNTER_MAX)",
           "range(0, max(groups, 1) if self.merge else 0, COUNTER_MAX + 1)"),
    Mutant("invocations-without-merges", CYCLE_MODEL,
           "return groups * len(self.ledgers) + self.merges(groups)",
           "return groups * len(self.ledgers)"),
    # Cost formula and fit.
    Mutant("estimate-drops-the-merge-charge", CYCLE_MODEL,
           "total += invocations * per_unit / len(shape.ledgers)",
           "total += groups * per_unit"),
    Mutant("fit-divides-by-groups", CYCLE_MODEL,
           "len(shape.ledgers) * pool / shape.invocations(groups)",
           "len(shape.ledgers) * pool / (groups * len(shape.ledgers))"),
    Mutant("tail-charged-at-lane-rate", CYCLE_MODEL,
           "total += tail * cpp", "total += tail * per_unit"),
    # Parsers.
    Mutant("exponent-guard-at-4300", CYCLE_MODEL,
           'exponent.group(1).replace("_", "")[:5]) > _EXPONENT_LIMIT',
           'exponent.group(1).replace("_", "")[:5]) >= _EXPONENT_LIMIT'),
    Mutant("profile-accepts-a-repeated-key", CYCLE_MODEL,
           "        if key in entries:\n", "        if False:\n"),
    Mutant("pnm-accepts-short-raster", "src/scpsim/image_io.py",
           "if len(raster) < need:", "if len(raster) < need - 1:"),
)


def stale(root: Path = ROOT) -> list[str]:
    """A line for every mutant whose target does not occur exactly once."""
    problems = []
    for m in MUTANTS:
        count = (root / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: target occurs {count} times in {m.path}")
    return problems


def passes(mutant: Optional[Mutant]) -> bool:
    """Whether Tier-1 passes on a copy of the tree with ``mutant`` applied
    (None: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="scpsim-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
                shutil.copytree(source, tree / name, ignore=ignore)
            else:
                shutil.copy2(source, tree / name)
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutants.py"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return run.returncode == 0


def main(argv: list[str]) -> int:
    problems = stale()
    if problems:
        print("\n".join(problems))
        return 2
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    if not passes(None):
        print("Tier-1 fails on the unmutated copy; no mutant can be judged")
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    survivors = []
    for m in chosen:
        start = time.perf_counter()
        alive = passes(m)
        print(f"{'SURVIVED' if alive else 'killed  '} {m.name} ({time.perf_counter() - start:.1f} s)",
              flush=True)
        if alive:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
