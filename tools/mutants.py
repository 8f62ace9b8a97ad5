"""Standing mutation check: every named mutant of ``src/`` must fail Tier-1.

A mutant is an exact-string replacement in one file under ``src/``.  For
each one the tool copies the tree (``src/``, ``tests/``, ``perfbench/``
and ``pyproject.toml``) into a temporary directory, applies the mutant
there and runs the mutated module's own tests (``tests/test_<module>.py``)
with ``-x`` and the ``mutants`` hypothesis profile, which does not shrink
a failing example (``tests/conftest.py``): the first failure kills the
mutant.  Only a mutant that passes them goes on to the rest of
Tier-1, less ``tests/test_mutants.py``: that test fails on any mutated
tree, since the mutant's target is gone, and would count every mutant as
killed.  A mutant that passes both runs survives.  The unmutated copy is
run through all of Tier-1 first and must pass, so that a copy that cannot
run at all does not count as killing every mutant.  Then the mutants
are judged two at a time where two CPUs are free (``WORKERS``), each in
its own copy, and reported in list order.  The working tree is never
modified.

Run from anywhere, with the test dependencies installed::

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

Exits 1 if any mutant survives, 2 if a mutant's target string does not
occur exactly once in its file (the list has gone stale), if a name is
unknown or if the unmutated copy fails Tier-1, else 0.

On a 2-core host, 90 mutants took 1.1-11.5 s each and 2 min 27 s in all,
where 79 had taken 1 min 55 s on the same host, against 3 min 25 s for 80
judged one at a time.  Shrinking made one
mutant take 6.7-36 s without the profile, and 47 took 3 min 17 s;
running Tier-1 alone on each of 37 took 2.2-108 s and 7 min 46 s.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
#: Mutants judged at once, each in its own copy and pytest process: two
#: where two CPUs are free, so one mutant's Python overlaps another's.
WORKERS = min(2, len(os.sched_getaffinity(0)))


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
    Mutant("counter-gate-misses-65536", FABRIC,
           "totals.max() > COUNTER_MAX", "totals.max() > COUNTER_MAX + 1"),
    Mutant("batch-forgets-earlier-counts", FABRIC, "totals += before", "pass"),
    # A detected fault is named by replaying the batch touch by touch.
    Mutant("replay-restarts-counts-each-row", FABRIC,
           "        for row, touches in enumerate(cells.tolist()):\n",
           "        start = counts\n"
           "        for row, touches in enumerate(cells.tolist()):\n"
           "            counts = None if start is None else list(start)\n"),
    Mutant("replay-numbers-rows-from-one", FABRIC,
           "enumerate(cells.tolist())", "enumerate(cells.tolist(), 1)"),
    # Range checks skipped only where the dtype proves them.
    Mutant("entry-range-skipped-for-every-dtype", FABRIC,
           "if entries.size and entries.dtype != np.uint8:", "if False:"),
    Mutant("bank-range-skipped-for-uint8", FABRIC,
           "if banks.size:", "if banks.size and banks.dtype != np.uint8:"),
    # Checks skipped only for LANE_BANKS, which proves them by construction.
    Mutant("lane-banks-writable", FABRIC, "LANE_BANKS.flags.writeable = False\n", ""),
    Mutant("skip-for-any-1d-banks", FABRIC,
           "or (banks is not LANE_BANKS and", "or (np.ndim(banks) != 1 and"),
    Mutant("lut-skip-for-any-1d-banks", FABRIC,
           "if banks is not LANE_BANKS and", "if np.ndim(banks) != 1 and"),
    Mutant("range-skipped-for-any-1d-banks", FABRIC,
           "if banks is not LANE_BANKS:", "if np.ndim(banks) != 1:"),
    Mutant("input-arity-allows-four", FABRIC,
           "ei.n_inputs > MAX_INPUTS", "ei.n_inputs > MAX_INPUTS + 1"),
    # Each rule stated once, for the entry accessors and the batch path alike.
    Mutant("bank-rule-lets-a-second-entry-through", FABRIC, "if prev != entry:", "if False:"),
    Mutant("counter-rule-fires-at-65535", FABRIC,
           "if value > COUNTER_MAX:", "if value >= COUNTER_MAX:"),
    Mutant("counter-rule-allows-65536", FABRIC,
           "if value > COUNTER_MAX:", "if value > COUNTER_MAX + 1:"),
    Mutant("range-rule-admits-the-limit", FABRIC,
           "0 <= low <= high < limit", "0 <= low <= high <= limit"),
    Mutant("entry-touch-skips-the-entry-range", FABRIC,
           '_check_range("entry", entry, entry, HIST_ENTRIES)', "pass"),
    # One touch per add_counter: range, bank rule, then limit.
    Mutant("add-counter-skips-the-limit", FABRIC,
           "        _counter_limit(bank, entry, value)\n        self._counters[bank, entry] = value\n",
           "        self._counters[bank, entry] = value\n"),
    Mutant("add-counter-bypasses-the-touch", FABRIC,
           "        self._touch(bank, entry)\n        value = self._counters.item(bank, entry) + 1\n",
           "        value = self._counters.item(bank, entry) + 1\n"),
    # One executor: every check of an issue made once, in ei_execute_batch.
    Mutant("issue-skips-the-input-count", FABRIC,
           "if registers.shape[1] != ei.n_inputs:", "if False:"),
    Mutant("issue-skips-the-iram-handle", FABRIC, "if ei.uses_iram and iram is None:", "if False:"),
    Mutant("issue-skips-the-output-count", FABRIC,
           "if outputs.shape[1] != ei.n_outputs:", "if False:"),
    # A per-register body runs row by row through one adapter.
    Mutant("row-adapter-opens-no-window", FABRIC,
           "nullcontext() if iram is None else iram.invocation()", "nullcontext()"),
    Mutant("row-adapter-skips-the-output-check", FABRIC,
           "if not all(isinstance(wr, WideRegister) for wr in outputs):", "if False:"),
    Mutant("row-adapter-packs-ragged-rows", FABRIC,
           "if rows and len(packed) != len(rows[0]):", "if False:"),
    # Fixed-point primitives.
    Mutant("div256-floors", "src/scpsim/fixed_point.py", "q &= 255", "q &= 0"),
    Mutant("div256-sign-mask-127", "src/scpsim/fixed_point.py", "q &= 255", "q &= 127"),
    Mutant("clamp-passes-256", "src/scpsim/fixed_point.py",
           "(np.int32(0), np.int32(255))", "(np.int32(0), np.int32(256))"),
    Mutant("clamped-divide-skips-the-clamp", "src/scpsim/fixed_point.py",
           "    return clamp_u8_np(out, out=out)\n", "    return out\n"),
    # The int32 core, built once per matrix.
    Mutant("compiled-offsets-swapped", COLORSPACE,
           "(self.coeffs, self.input_offset, self.output_offset)",
           "(self.coeffs, self.output_offset, self.input_offset)"),
    Mutant("compiled-columns-are-rows", COLORSPACE,
           "np.array(value, dtype=np.int32).T[..., None]", "np.array(value, dtype=np.int32)[..., None]"),
    # The exact float32 core: coeffs / 256 in one matmul, truncated by the cast.
    Mutant("scaled-matrix-transposed", COLORSPACE,
           "np.array(self.coeffs, dtype=np.float32) / 256", "np.array(self.coeffs, dtype=np.float32).T / 256"),
    Mutant("scaled-by-255", COLORSPACE,
           "np.array(self.coeffs, dtype=np.float32) / 256", "np.array(self.coeffs, dtype=np.float32) / 255"),
    Mutant("quotient-floors", COLORSPACE, "a[...] = quotients", "a[...] = np.floor(quotients)"),
    # An offset's pass is skipped only where the matrix's offset is all zero.
    Mutant("input-offset-pass-skipped", COLORSPACE,
           '"shifts_input", any(self.input_offset)', '"shifts_input", False'),
    Mutant("output-offset-pass-skipped", COLORSPACE,
           '"shifts_output", any(self.output_offset)', '"shifts_output", False'),
    Mutant("gray-takes-the-i-row", "src/scpsim/image_io.py",
           "RGB2YIQ.columns[:, :1]", "RGB2YIQ.columns[:, 1:2]"),
    Mutant("gray-walk-skips-last-block", "src/scpsim/image_io.py",
           "range(0, len(flat), _BLOCK)", "range(0, max(len(flat) - _BLOCK, 1), _BLOCK)"),
    # Wrong at one RGB triple only: the full cube finds it, sampling does not.
    Mutant("one-triple-off-by-one", COLORSPACE,
           "        clamp_u8_np(a, out=a)\n",
           "        clamp_u8_np(a, out=a)\n"
           "        a[0, (s[0] == 37) & (s[1] == 201) & (s[2] == 118)] ^= 1\n"),
    # Blocked batch path and the streamed sweep.
    Mutant("block-drops-last-column", COLORSPACE,
           "for channel, row in enumerate(a):", "for channel, row in enumerate(a[:2]):"),
    Mutant("sweep-skips-a-g-step", COLORSPACE,
           "for g in range(0, 256, g_step):", "for g in range(0, 256 - g_step, g_step):"),
    Mutant("sweep-grid-skips-a-block", COLORSPACE,
           "            yield block, sums\n",
           "            if (r, g) != (255, 256 - g_step):\n                yield block, sums\n"),
    # Truncation only where a negative quotient survives: the chroma rows.
    Mutant("chroma-rows-floor", COLORSPACE,
           "div256_trunc_np(sums[1:], out=yiq[1:], mask=err[1:])",
           "np.right_shift(sums[1:], 8, out=yiq[1:])"),
    Mutant("grid-sums-drop-the-g-column", COLORSPACE,
           "forward[0] * r + forward[1] * g", "forward[0] * r"),
    Mutant("block-sum-in-int16", COLORSPACE, "err.sum(dtype=np.int32)", "err.sum(dtype=np.int16)"),
    Mutant("worst-triple-on-ties", COLORSPACE, "if m > max_err:", "if m >= max_err:"),
    Mutant("per-channel-max-from-the-last-block", COLORSPACE,
           "np.maximum(per_ch, block_max, out=per_ch)", "per_ch[...] = block_max"),
    # Scratch arrays reused in the block loops: each must be dead where it is written.
    Mutant("apply-product-overwrites-the-samples", COLORSPACE,
           "np.matmul(matrix.scaled, samples, out=quotients)", "np.matmul(matrix.scaled, samples, out=samples)"),
    Mutant("sweep-product-overwrites-the-yiq-rows", COLORSPACE,
           "_sums_np(reverse, yiq, err, product=sums)", "_sums_np(reverse, yiq, err, product=yiq)"),
    # The sweep's parts by red value, combined in ascending red order.
    Mutant("argmax-from-the-last-part", COLORSPACE,
           "next(p.argmax_rgb for p in parts if", "next(p.argmax_rgb for p in reversed(parts) if"),
    Mutant("part-reds-overlap", COLORSPACE,
           "range(k * 256 // parts, (k + 1) * 256 // parts)",
           "range(k * 256 // parts, -(-(k + 1) * 256 // parts))"),
    Mutant("per-channel-max-from-one-part", COLORSPACE,
           "np.max([p.per_channel_max for p in parts], axis=0)", "parts[0].per_channel_max"),
    Mutant("error-sum-from-the-first-part", COLORSPACE,
           "sum(p.error_sum for p in parts)", "parts[0].error_sum"),
    Mutant("helper-error-dropped", COLORSPACE,
           "        if isinstance(result, BaseException):\n            raise result\n", "        pass\n"),
    Mutant("helpers-not-joined", COLORSPACE,
           "        for helper in started:\n            helper.join()\n", "        pass\n"),
    Mutant("tail-skips-its-first-pixel", COLORSPACE,
           "apply_matrix_np(flat[head:], matrix, out=out[head:])",
           "apply_matrix_np(flat[head + 1 :], matrix, out=out[head + 1 :])"),
    Mutant("lane-walk-skips-last-block", COLORSPACE,
           "for start in range(0, groups, step):", "for start in range(0, groups - step, step):"),
    Mutant("lane-block-drops-last-group", COLORSPACE,
           "_copy_groups(results[block], ei_execute_batch(ei, batch, log=log).reshape(count, -1)[:, :span])",
           "_copy_groups(results[start : start + count - 1], "
           "ei_execute_batch(ei, batch, log=log).reshape(count, -1)[:-1, :span])"),
    Mutant("lane-batch-crosses-the-register-cap", COLORSPACE,
           "min(_BLOCK // lanes, (_REGISTER_LIMIT - 1) // widest)", "_BLOCK // lanes"),
    # One block workspace per thread, carved into disjoint arrays.
    Mutant("workspace-shared-by-threads", COLORSPACE,
           "class _Workspace(threading.local):", "class _Workspace:"),
    Mutant("workspace-arrays-overlap", COLORSPACE,
           "for start in (0, 3 * k, 6 * k)]", "for start in (0, 3 * k, 3 * k)]"),
    # Register traffic: group copies and the kernel body's output.
    Mutant("one-pixel-copy-skips-a-channel", COLORSPACE,
           "for c in range(3):", "for c in range(2):"),
    Mutant("group-copy-one-byte-short", COLORSPACE,
           "dst.view(item)[:, 0] = src.view(item)[:, 0]",
           "item = np.dtype((np.void, span - 1))\n"
           "        dst[:, :-1].view(item)[:, 0] = src[:, :-1].view(item)[:, 0]"),
    Mutant("body-output-tail-not-zeroed", COLORSPACE,
           "out = np.zeros((invocations, registers * WR_BYTES), dtype=np.uint8)",
           "out = np.empty((invocations, registers * WR_BYTES), dtype=np.uint8)"),
    # One judge of a (family, mode) pair, for every entry point.
    Mutant("convert-mode-without-its-family", COLORSPACE,
           'cycle_model.calibrated_shape("yiq", mode)', "cycle_model.KERNEL_SHAPES[mode]"),
    Mutant("histeq-mode-without-its-family", "src/scpsim/histeq.py",
           'cycle_model.calibrated_shape("histeq", mode)', "cycle_model.KERNEL_SHAPES[mode]"),
    Mutant("matrix-ei-lanes-without-their-family", COLORSPACE,
           'cycle_model.calibrated_shape("yiq", f"ei{lanes}")', 'cycle_model.KERNEL_SHAPES[f"ei{lanes}"]'),
    Mutant("unknown-kernel-is-a-key-error", CYCLE_MODEL,
           "class UnknownKernelConfig(ValueError):", "class UnknownKernelConfig(KeyError):"),
    # Histogram equalization.
    Mutant("build-lut-rounds-up", "src/scpsim/histeq.py",
           "((255 * cum) // n)", "(-(-255 * cum // n))"),
    Mutant("histeq-tail-not-counted", "src/scpsim/histeq.py",
           "cum += np.cumsum(scalar_histogram(flat[head:]))", "pass"),
    Mutant("lut-replicate-casts-its-table", "src/scpsim/histeq.py",
           "np.asarray(lut)[None]", "np.asarray(lut, dtype=np.uint8)[None]"),
    # The group/tail split and the peak ledger, each stated once.
    Mutant("split-drops-the-tail", CYCLE_MODEL,
           "divmod(pixels, self.lanes) if self.lanes", "(pixels // self.lanes, 0) if self.lanes"),
    Mutant("plain-split-has-groups", CYCLE_MODEL,
           "if self.lanes else (0, pixels)", "if self.lanes else (pixels, 0)"),
    Mutant("peak-takes-the-least", CYCLE_MODEL,
           "ResourceLedger(*map(max, zip(", "ResourceLedger(*map(min, zip("),
    # Flush and merge steps, one statement of the rule for model and driver.
    Mutant("no-merge-for-zero-groups", CYCLE_MODEL,
           "range(0, max(groups, 1) if self.merge else 0, COUNTER_MAX)",
           "range(0, groups if self.merge else 0, COUNTER_MAX)"),
    Mutant("flush-one-group-late", CYCLE_MODEL,
           "range(0, max(groups, 1) if self.merge else 0, COUNTER_MAX)",
           "range(0, max(groups, 1) if self.merge else 0, COUNTER_MAX + 1)"),
    Mutant("invocation-check-needs-a-profile", CYCLE_MODEL,
           "if expected != executed:", "if profile is not None and expected != executed:"),
    Mutant("invocations-without-merges", CYCLE_MODEL,
           "return groups * len(self.ledgers) + self.merges(groups)",
           "return groups * len(self.ledgers)"),
    # Cost formula and fit.
    Mutant("estimate-drops-the-merge-charge", CYCLE_MODEL,
           "Fraction(invocations * a * d", "Fraction((invocations - shape.merges(groups)) * a * d"),
    Mutant("fit-divides-by-groups", CYCLE_MODEL,
           "len(shape.ledgers) * pool / shape.invocations(groups)",
           "len(shape.ledgers) * pool / (groups * len(shape.ledgers))"),
    Mutant("tail-charged-at-lane-rate", CYCLE_MODEL,
           "tail * c * b, b * d)", "tail * a * d, b * d)"),
    # Each figure built from integer sums, with one Fraction per figure.
    Mutant("merge-charged-a-whole-group", CYCLE_MODEL,
           "per_unit.denominator * max(len(shape.ledgers), 1)", "per_unit.denominator"),
    Mutant("per-pixel-drops-the-pixels", CYCLE_MODEL,
           "total.denominator * pixels)", "total.denominator)"),
    Mutant("speedup-drops-the-rate-denominator", CYCLE_MODEL,
           "d * total.numerator)", "total.numerator)"),
    Mutant("report-figure-floors", CYCLE_MODEL,
           "x.numerator / x.denominator", "x.numerator // x.denominator"),
    # Parsers.
    Mutant("exponent-guard-at-4300", CYCLE_MODEL,
           'exponent.group(1).replace("_", "")[:5]) > _EXPONENT_LIMIT',
           'exponent.group(1).replace("_", "")[:5]) >= _EXPONENT_LIMIT'),
    Mutant("profile-accepts-a-repeated-key", CYCLE_MODEL,
           "        if key in entries:\n", "        if False:\n"),
    Mutant("profile-line-error-drops-the-file", CYCLE_MODEL,
           'where = f"{source} line {lineno}"', 'where = f"profile line {lineno}"'),
    Mutant("pnm-accepts-short-raster", "src/scpsim/image_io.py",
           "if len(data) - pos < need:", "if len(data) - pos < need - 1:"),
    Mutant("token-pattern-drops-vertical-tab", "src/scpsim/image_io.py",
           "((re.escape(_WHITESPACE),) * 2)",
           '((re.escape(_WHITESPACE.replace(b"\\x0b", b"")),) * 2)'),
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
        # The mutated module's own tests first; Tier-1 then runs without them.
        own = f"tests/test_{Path(mutant.path).stem}.py" if mutant else None
        runs = [[own], [f"--ignore={own}"]] if own and (tree / own).exists() else [[]]
        for selection in runs:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--hypothesis-profile=mutants", "--ignore=tests/test_mutants.py", *selection],
                cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            if run.returncode != 0:
                return False
        return True


def timed_passes(mutant: Mutant) -> tuple[bool, float]:
    """``passes(mutant)`` and the seconds it took."""
    start = time.perf_counter()
    return passes(mutant), time.perf_counter() - start


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
    with ThreadPoolExecutor(WORKERS) as pool:
        for m, (alive, seconds) in zip(chosen, pool.map(timed_passes, chosen)):
            print(f"{'SURVIVED' if alive else 'killed  '} {m.name} ({seconds:.1f} s)", flush=True)
            if alive:
                survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
