"""Every span target of the benchmark's tracer resolves in the package.

perfbench/layers.py names package functions by ``module:attr`` path; a
renamed or deleted one would otherwise only show up as a TraceTargetError
in a traced benchmark run.  perfbench/ is read, not changed: its modules
import each other by bare name, so the directory goes on sys.path for the
duration of the test.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import spinreset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    for info in pkgutil.iter_modules(spinreset.__path__):
        if info.name != "__main__":  # running it is the CLI itself
            importlib.import_module(f"spinreset.{info.name}")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    try:
        tracer = importlib.import_module("tracer")
        layers = importlib.import_module("layers")
        targets = layers.targets(tracer.Tracer())
        assert targets
        for target in targets:
            tracer.resolve(target.path)  # raises TraceTargetError when the name is gone
    finally:
        for name in set(sys.modules) - loaded:
            del sys.modules[name]
