"""The benchmark's Monte Carlo outputs keep their recorded bytes.

perfbench/checksums.json records a sha256 of every file the benchmark's
workloads write.  This test runs the mc_thermo and mc_finite_n steps at
seeds 0-2 through the benchmark's own step runner and hashing, so a
change to the engine that moves a single output bit on any of them fails
here, not only in a benchmark run.  The bytes repeat only on the same Python, numpy and
scipy versions and numpy SIMD features, so it skips elsewhere.
perfbench/ is read, not changed: as in test_trace_targets.py, the
directory goes on sys.path for the duration of the test.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ENVIRONMENT_KEYS = ("python", "numpy", "scipy", "numpy_simd")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("run"), importlib.import_module("workloads")
    finally:
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]


# seed 0 keeps the bare workload id it had before seeds 1 and 2 joined
@pytest.mark.parametrize("workload, seed", [
    pytest.param(workload, seed, id=workload if seed == 0 else f"{workload}-{seed}")
    for workload in ("mc_thermo", "mc_finite_n") for seed in (0, 1, 2)])
def test_monte_carlo_workloads_match_recorded_checksums(workload, seed, perfbench, tmp_path,
                                                        monkeypatch):
    run, workloads = perfbench
    book = json.loads((PERFBENCH / "checksums.json").read_text())
    here = run.environment(0)
    recorded = book["environment"]
    differ = [k for k in ENVIRONMENT_KEYS if recorded.get(k) != here[k]]
    if differ:
        pytest.skip(f"checksums were recorded with another {', '.join(differ)}")
    monkeypatch.chdir(tmp_path)
    results, _ = workloads.run_steps(workloads.steps(workload, seed))
    assert all(code == 0 for code in results.values()), results
    assert workloads.output_hashes() == book["workloads"][workload][str(seed)]
