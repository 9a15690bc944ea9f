"""The benchmark tracer's targets exist and are restored after a run.

``perfbench/tracing.py`` wraps package functions by name.  Renaming or
deleting one of them breaks its traced run, which tier-1 does not start;
installing and uninstalling the tracer here catches that.
"""

import sys
from pathlib import Path

import upliftemm.pricing
import upliftemm.stochastic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_install_and_restore(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in saved)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in saved)
    wrapped = {(owner, attr) for owner, attr, _ in saved}
    assert (upliftemm.pricing, "run_paths") in wrapped
    assert (upliftemm.stochastic, "simulate_path") in wrapped
    assert (upliftemm.stochastic.SimulationContext, "sample_marks") in wrapped
