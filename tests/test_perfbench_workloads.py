"""Every benchmark workload runs and passes its own gate on one iteration.

This only reads ``perfbench/``: it pins each scpsim name the workloads
and the layer fixtures call, so a change that renames or drops one
fails here rather than in the benchmark.
"""

from pathlib import Path

import pytest

from scpsim import cycle_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    return workloads, tracing


def test_every_workload_passes_its_gate(perfbench, tmp_path):
    workloads, _ = perfbench
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, cycle_model.builtin_profile(), str(tmp_path / name))
        try:
            for call in workload.iteration(0):
                if call.prepare is not None:
                    call.prepare()
                outcome = call.check(call.run())
                assert outcome.problems == [], (name, call.key, outcome.problems)
        finally:
            workload.close()


def test_layer_fixtures_pass(perfbench):
    _, tracing = perfbench
    assert tracing.fixtures()[1] == []
