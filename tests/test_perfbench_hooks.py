"""The benchmark's tracer patches scpsim functions by attribute name.

This only reads ``perfbench/``; it checks that every attribute the
tracer wraps still exists and is put back after ``uninstall()``.
"""

from pathlib import Path

import pytest

from scpsim import fabric

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_hooks_exist_and_are_restored(tracing):
    hooks = [(owner, attr) for owner, attr, _ in tracing.TIMED] + list(tracing.COUNTED)
    originals = [getattr(owner, attr) for owner, attr in hooks]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(hooks, originals))
        iram = fabric.IramState()
        iram.add_counter(0, 3)
        iram.add_counter(0, 3)
        # the counter-peak hook reads add_counter's return value
        assert tracer.counter_peak == 2
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(hooks, originals))

