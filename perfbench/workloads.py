"""The three benchmark workloads, their correctness gates and output hashes.

Every workload is a list of steps run in one fresh interpreter: CLI
invocations through ``spinreset.cli.execute_command`` and calls to the
library entry points.  Outputs go to the current directory under fixed
relative names, so the bytes do not depend on where the benchmark runs.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

GAMMA = 0.5  # the CLI's default reset rate, used by every step here

# Sizes per scale: "full" is what the benchmark times, "small" is the
# self-test's reduced size.  Both run every step kind.
SIZES = {
    "full": {
        "cf_grid": "0.2:2.0:0.005", "cf_n_spins": (51, 201, 1001),
        "cf_omegas": (0.8, 1.0, 1.2, 1.6),
        "th_grid": "1.02:1.25:0.03", "th_p2_grid": "1.2,1.6,2.0", "th_traj": 8000,
        "fn_p3_traj": 400, "fn_p2_traj": 2000, "fn_time": 2000.0,
    },
    "small": {
        "cf_grid": "0.2:2.0:0.3", "cf_n_spins": (51,),
        "cf_omegas": (1.2,),
        "th_grid": "1.02:1.08:0.03", "th_p2_grid": "1.6,2.0", "th_traj": 1500,
        "fn_p3_traj": 40, "fn_p2_traj": 300, "fn_time": 200.0,
    },
}

WORKLOADS = ("closed_form", "mc_thermo", "mc_finite_n")
UNSEEDED = ("closed_form",)  # no Monte Carlo input: the same outputs for every seed


@dataclass
class Outcome:
    """What one repetition did, and which gates it failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    rows: int = 0                 # stationary-observable rows written by the CLI
    trajectories: int = 0
    window_stderrs: list = field(default_factory=list)

    def gate(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Step:
    kind: str    # "cli" or "quad"
    stem: str    # output stem, relative to the working directory
    argv: list = field(default_factory=list)
    p2_target: dict | None = None  # protocol-2 Monte Carlo rows checked against the exact state


def steps(workload: str, seed: int, scale: str = "full") -> list:
    z = SIZES[scale]
    s = str(seed)
    if workload == "closed_form":
        out = [
            Step("cli", "sweep_p1", ["sweep", "--protocol", "1", "--grid", z["cf_grid"]]),
            Step("cli", "sweep_p2", ["sweep", "--protocol", "2", "--grid", z["cf_grid"]]),
            Step("cli", "sweep_p1_chopped", ["sweep", "--protocol", "1", "--grid", z["cf_grid"],
                                             "--dist", "chopped", "--tmax", "4"]),
        ]
        for n in z["cf_n_spins"]:
            for om in z["cf_omegas"]:
                out.append(Step("cli", f"stationary_p2_N{n}_om{om}",
                                ["stationary", "--protocol", "2", "--omega", str(om),
                                 "--n-spins", str(n)]))
        out.append(Step("cli", "verify", ["verify"]))
        out.append(Step("quad", "quad_pair"))
        return out
    if workload == "mc_thermo":
        mc = ["--trajectories", str(z["th_traj"]), "--workers", "2", "--seed", s]
        return [
            Step("cli", "sweep_p3", ["sweep", "--protocol", "3", "--grid", z["th_grid"]] + mc),
            Step("cli", "sweep_p2_mc", ["sweep", "--protocol", "2", "--mc",
                                        "--grid", z["th_p2_grid"]] + mc,
                 p2_target={"n_spins": None}),
        ]
    if workload == "mc_finite_n":
        t = z["fn_time"]
        run = ["--n-spins", "201", "--time", repr(t), "--window", f"{t / 2!r}:{t!r}",
               "--workers", "1", "--seed", s]
        return [
            Step("cli", "ensemble_p3_N201", ["ensemble", "--protocol", "3", "--omega", "1.1",
                                             "--trajectories", str(z["fn_p3_traj"])] + run),
            Step("cli", "ensemble_p2_N201", ["ensemble", "--protocol", "2", "--omega", "1.3",
                                             "--trajectories", str(z["fn_p2_traj"])] + run,
                 p2_target={"n_spins": 201, "omega": 1.3}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running the steps (timed) and checking them (untimed).
# ---------------------------------------------------------------------------


# Host-speed correction.  On a shared host the same code runs up to twice
# as slowly for seconds to minutes at a time, in CPU time as much as in
# wall time.  A fixed calibration piece runs between the steps, and each
# stretch of steps is scaled by REFERENCE_CALIBRATION_S over the mean of
# the calibrations around it: the time the steps would take on a host
# running the calibration in REFERENCE_CALIBRATION_S.
REFERENCE_CALIBRATION_S = 0.033
CALIBRATE_EVERY_S = 0.25  # steps shorter than this share one calibration
_CAL_ARRAY = np.linspace(0.0, 1.0, 20000)


def calibrate() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total, table = 0, {}
        for i in range(150000):
            total += i * i
            table[i & 255] = total
        for _ in range(40):
            b = np.sin(_CAL_ARRAY) * np.exp(-_CAL_ARRAY)
            b.sort()
            np.cumsum(b)
        for _ in range(3000):
            np.add(_CAL_ARRAY[:8], 1.0)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def run_steps(step_list):
    """Run every step, calibrating between them.

    Returns ({stem: exit code or quadrature result}, stretches), one
    stretch per run of steps between two calibrations:
    (seconds, calibration before, calibration after).
    """
    from spinreset import cli

    results, stretches = {}, []
    calibrate()  # first call pays one-off numpy set-up
    before, elapsed = calibrate(), 0.0
    for i, st in enumerate(step_list):
        t0 = time.perf_counter()
        if st.kind == "cli":
            argv = list(st.argv)
            if st.argv[0] != "verify":
                argv += ["--output", st.stem]
            with open(st.stem + ".stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
                results[st.stem] = cli.execute_command(argv)
        else:
            results[st.stem] = _quadrature()
        elapsed += time.perf_counter() - t0
        if elapsed >= CALIBRATE_EVERY_S or i == len(step_list) - 1:
            after = calibrate()
            stretches.append((elapsed, before, after))
            before, elapsed = after, 0.0
    return results, stretches


def _quadrature():
    """Survival-weighted average of the free pair state by adaptive quadrature."""
    from spinreset import renewal, spin_dynamics

    params = spin_dynamics.DriveParams(omega=1.3, delta=1.0)
    dist = renewal.WaitingTime.poisson(GAMMA)
    return renewal.exp_weighted_average(
        dist, lambda t: spin_dynamics.free_two_spin_state(params, float(t), "up", "up"))


def _finite_numbers(obj, path=""):
    """Yield (path, value) for every non-finite number inside a JSON document."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _finite_numbers(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _finite_numbers(v, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        yield path, obj


def check(step_list, results, outcome: Outcome):
    """Correctness gates; every failure is named in outcome.failures."""
    from spinreset import renewal, spin_dynamics
    from spinreset.trajectory_sim import CHUNK

    for st in step_list:
        res = results.get(st.stem)
        if st.kind == "quad":
            params = spin_dynamics.DriveParams(omega=1.3, delta=1.0)
            exact = renewal.stationary_state_p1(params, renewal.WaitingTime.poisson(GAMMA))
            gap = float(np.max(np.abs(np.asarray(res) - exact.pair_state)))
            outcome.gate(gap < 1e-8, f"{st.stem}: closed form vs quadrature {gap:.2e} >= 1e-8")
            outcome.gate(bool(np.all(np.isfinite(res))), f"{st.stem}: non-finite value")
            with open(st.stem + ".txt", "w") as fh:
                fh.write("\n".join(format(complex(v), ".17g") for v in np.ravel(res)) + "\n")
            continue
        outcome.gate(res == 0, f"{st.stem}: exit code {res}")
        if res != 0 or st.argv[0] == "verify":
            continue
        with open(st.stem + ".csv", newline="") as fh:
            table = list(csv.reader(fh, skipinitialspace=True))
        numeric = [i for i, name in enumerate(table[0]) if name != "regime"]
        bad = [row[i] for row in table[1:] for i in numeric if not math.isfinite(float(row[i]))]
        outcome.gate(not bad, f"{st.stem}.csv: non-finite values {bad[:3]}")
        with open(st.stem + ".json") as fh:
            doc = json.load(fh)
        bad = list(_finite_numbers(doc))
        if doc.get("kind") == "ensemble" and doc["n_trajectories"] <= CHUNK:
            # batch-means error of the discord needs two chunks; with one
            # the CLI reports NaN by design
            bad = [b for b in bad if b[0] != ".window.lqu_stderr"]
        outcome.gate(not bad, f"{st.stem}.json: non-finite values {bad[:3]}")
        if doc["kind"] == "sweep":
            outcome.gate(not doc["row_errors"], f"{st.stem}: row_errors {doc['row_errors']}")
            outcome.rows += len(doc["omega_over_delta"])
            mc_rows = [i for i, r in enumerate(doc["regime"]) if r == "monte-carlo"]
            outcome.window_stderrs += [doc["density_stderr"][i] for i in mc_rows]
            if mc_rows:
                outcome.trajectories += len(mc_rows) * doc["manifest"]["config"]["trajectories"]
            mc_values = [(doc["omega_over_delta"][i], doc["density"][i],
                          doc["density_stderr"][i]) for i in mc_rows]
        else:
            outcome.rows += 1
            outcome.trajectories += doc["n_trajectories"]
            w = doc["window"]
            outcome.window_stderrs.append(w["density_stderr"])
            mc_values = [((st.p2_target or {}).get("omega"), w["density"], w["density_stderr"])]
        if st.p2_target is not None:
            dist = renewal.WaitingTime.poisson(GAMMA)
            for omega, value, err in mc_values:
                exact = renewal.stationary_state_p2(
                    spin_dynamics.DriveParams(omega=omega, delta=1.0), dist,
                    st.p2_target["n_spins"]).density
                pull = abs(value - exact) / err if err > 0 else math.inf
                outcome.gate(pull < 4.0, f"{st.stem}: omega={omega} density {value} is "
                             f"{pull:.2f} stderr from the exact {exact}")


def output_hashes() -> dict:
    """sha256 of every output file in the working directory.

    JSON files embed wall times (run manifests, ensemble wall_time), so
    they are hashed after dropping every ``wall_time`` key; all other
    files are hashed as written.
    """
    hashes = {}
    for name in sorted(os.listdir(".")):
        with open(name, "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            data = json.dumps(_drop_wall_times(json.loads(data)), sort_keys=True).encode()
        hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes


def _drop_wall_times(obj):
    if isinstance(obj, dict):
        return {k: _drop_wall_times(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_drop_wall_times(v) for v in obj]
    return obj


def run(workload: str, seed: int, scale: str, tracer=None) -> dict:
    """Run one repetition in the current directory; returns its record."""
    step_list = steps(workload, seed, scale)
    if tracer is not None:
        tracer.install()
    try:
        results, stretches = run_steps(step_list)
        # high-water mark before the gates and hashing below add their own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    raw_wall = sum(s for s, _, _ in stretches)
    wall = sum(s * REFERENCE_CALIBRATION_S / ((b + a) / 2) for s, b, a in stretches)
    cli_bytes = sum(os.path.getsize(n) for n in os.listdir(".") if not n.endswith(".stdout.txt"))
    outcome = Outcome()
    check(step_list, results, outcome)
    return {"wall_s": wall, "raw_wall_s": raw_wall, "peak_rss_mb": peak_rss_mb,
            "outcome": outcome,
            "hashes": output_hashes(), "cli_bytes": cli_bytes}
