"""The benchmark's Monte Carlo outputs keep their recorded bytes.

perfbench/checksums.json records a sha256 of every file the benchmark's
workloads write.  These tests run the mc_thermo and mc_finite_n steps at
seeds 0-2, and the closed_form steps (recorded once, for any seed),
through the benchmark's own step runner and hashing, so a change that
moves a single output bit on any of them fails here, not only in a
benchmark run.  The bytes repeat only on the same Python, numpy and
scipy versions and numpy SIMD features, so they skip elsewhere.
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

# closed_form files whose records are stale, to be re-recorded with the next
# benchmark change (ROADMAP item 1): the quadrature cross-check's record
# predates the quadrature's present rounding, and the stacked trig-polynomial
# pass moved the Omega/Delta = 2.0 row of each sweep in its last digits.
STALE_CLOSED_FORM = {
    "quad_pair.txt",
    "sweep_p1.csv", "sweep_p1.json",
    "sweep_p2.csv", "sweep_p2.json",
    "sweep_p1_chopped.csv", "sweep_p1_chopped.json",
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("run"), importlib.import_module("workloads")
    finally:
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]


def recorded_book(run):
    """The checksum record, or a skip where it was made in another environment."""
    book = json.loads((PERFBENCH / "checksums.json").read_text())
    here = run.environment(0)
    differ = [k for k in ENVIRONMENT_KEYS if book["environment"].get(k) != here[k]]
    if differ:
        pytest.skip(f"checksums were recorded with another {', '.join(differ)}")
    return book


# seed 0 keeps the bare workload id it had before seeds 1 and 2 joined; the finite-N
# draws run seeds 0-5, so more of them pass through binomial_quantile's comparisons
@pytest.mark.parametrize("workload, seed", [
    pytest.param(workload, seed, id=workload if seed == 0 else f"{workload}-{seed}")
    for workload, seeds in (("mc_thermo", range(3)), ("mc_finite_n", range(6)))
    for seed in seeds])
def test_monte_carlo_workloads_match_recorded_checksums(workload, seed, perfbench, tmp_path,
                                                        monkeypatch):
    run, workloads = perfbench
    book = recorded_book(run)
    monkeypatch.chdir(tmp_path)
    results, _ = workloads.run_steps(workloads.steps(workload, seed))
    assert all(code == 0 for code in results.values()), results
    assert workloads.output_hashes() == book["workloads"][workload][str(seed)]


def test_closed_form_matches_recorded_checksums(perfbench, tmp_path, monkeypatch):
    run, workloads = perfbench
    recorded = recorded_book(run)["workloads"]["closed_form"]["any"]
    monkeypatch.chdir(tmp_path)
    step_list = workloads.steps("closed_form", 0)
    results, _ = workloads.run_steps(step_list)
    outcome = workloads.Outcome()
    workloads.check(step_list, results, outcome)  # the gates, and quad_pair.txt
    assert outcome.failures == []
    hashes = workloads.output_hashes()
    assert hashes.keys() == recorded.keys()
    # exactly the stale records differ, so the list cannot grow unnoticed
    assert {name for name in recorded if hashes[name] != recorded[name]} == STALE_CLOSED_FORM
