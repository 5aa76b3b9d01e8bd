"""spinreset benchmark: one workload, timed in fresh interpreters.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  Each repetition is a new
interpreter (perfbench/child.py), so set-up time and peak memory are
per-repetition values.  Repetitions run one after another until the next
would end past S seconds (at least one runs).  Every value reported is
the median over the run's repetitions; the sample counts are printed on
the lines before the result.  Wall times are corrected for the host's
speed at the time (see calibrate() in perfbench/workloads.py); the
uncorrected ones are printed before the result; so is set-up time.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics:
spans from perfbench/tracer.py, the import times from ``-X importtime``
interpreters, the tracing overhead, and the throughput and failure
figures that only some workloads define.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Output checksums are compared
with perfbench/checksums.json and mismatches are reported by file name;
they do not affect the result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKSUMS = os.path.join(HERE, "checksums.json")
WORK_DIR = ".perfbench_work"
CHILD_TIMEOUT_S = 100  # a repetition takes under 15 s; keeps a run well inside 180 s
IMPORT_SAMPLES = 3
IMPORT_NAMES = ("spinreset", "scipy.integrate", "scipy.special")

sys.path.insert(0, HERE)
from workloads import UNSEEDED, WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def environment(seed: int) -> dict:
    """What produced the bytes: checksums only repeat within one environment."""
    import numpy
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "numpy_simd": sorted(k for k, v in __cpu_features__.items() if v),
        "seed": seed,
    }


class Runner:
    """Starts child interpreters one at a time and collects their records."""

    def __init__(self, root: str, workload: str, seed: int, scale: str):
        self.root = root
        self.workload, self.seed, self.scale = workload, seed, scale
        self.work = os.path.join(root, WORK_DIR, workload)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONDONTWRITEBYTECODE="1")
        self.env.pop("PYTHONSTARTUP", None)

    def child(self, mode: str, importtime: bool = False):
        """Run one child; returns (record or None, its stderr text)."""
        out = os.path.join(self.work, "out")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(out)
        flags = ["-X", "importtime"] if importtime else []
        argv = [sys.executable, *flags, os.path.join(HERE, "child.py"), mode]
        tail = [self.workload, str(self.seed), self.scale]
        try:
            proc = subprocess.run(argv + [repr(time.monotonic())] + tail, cwd=out, env=self.env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"{mode} child exceeded {CHILD_TIMEOUT_S} s"
        record = os.path.join(self.work, "record.json")
        if proc.returncode != 0 or not os.path.exists(record):
            return None, proc.stderr[-2000:] or f"{mode} child exited {proc.returncode}"
        with open(record) as fh:
            rec = json.load(fh)
        expected = os.path.join(self.root, "src", "spinreset")
        if os.path.dirname(os.path.abspath(rec["spinreset_file"])) != expected:
            raise BenchError(f"imported spinreset from {rec['spinreset_file']}, not {expected}")
        return rec, proc.stderr


def import_times(stderr: str) -> dict:
    """Cumulative import time in seconds per module, from -X importtime output.

    scipy imports its subpackages lazily and importtime prints no line
    for such a package itself, only for its submodules; then the
    package's time is the sum over its outermost submodule lines.
    """
    lines = []  # (depth, name, cumulative us)
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                lines.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    found = {}
    for target in IMPORT_NAMES:
        exact = [c for _, n, c in lines if n == target]
        subs = [(d, c) for d, n, c in lines if n.startswith(target + ".")]
        if exact:
            found[target] = exact[0] * 1e-6
        elif subs:
            top = min(d for d, _ in subs)
            found[target] = sum(c for d, c in subs if d == top) * 1e-6
    return found


def measure(runner: Runner, seconds: float, trace: bool):
    """Run repetitions until the next would end past the deadline."""
    t0 = time.monotonic()
    reps, traced, setups, imports, errors = [], [], [], [], []
    launched = 0
    if trace:
        for _ in range(IMPORT_SAMPLES):
            launched += 1
            rec, err = runner.child("setup", importtime=True)
            if rec is None:
                errors.append(err)
            else:
                imports.append(import_times(err))
    modes = ("run", "trace") if trace else ("run",)
    while True:
        t_iter = time.monotonic()
        for mode in modes:
            launched += 1
            rec, err = runner.child(mode)
            if rec is None:
                errors.append(err)
                continue
            setups.append((rec["setup_s"], rec["raw_setup_s"]))
            if mode == "run":
                reps.append(rec)
            elif mode == "trace":
                traced.append(rec)
        now = time.monotonic()
        if now + (now - t_iter) > t0 + seconds:
            break
    return reps, traced, setups, imports, errors, launched


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps, setups) -> dict:
    return {
        "wall_s": _median([r["wall_s"] for r in reps]),
        "setup_s": _median([s for s, _ in setups]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "rows_per_s": _median([r["rows"] / r["wall_s"] for r in reps]),
    }


def per_layer(reps, traced, imports, attempted, failed) -> dict:
    out = {}
    for name in traced[0]["layers"]:
        out[name] = _median([r["layers"][name] for r in traced])
    for name in IMPORT_NAMES:
        out[f"import.{name}_s"] = _median([i[name] for i in imports if name in i])
    untraced = _median([r["wall_s"] for r in reps])
    out["trace.overhead_frac"] = _median([r["wall_s"] for r in traced]) / untraced - 1.0
    out["traj_per_s"] = _median([r["trajectories"] / r["wall_s"] for r in reps])
    # time to a 1e-3 density standard error, assuming error ~ 1/sqrt(work)
    out["s_to_err_1e-3"] = _median([
        r["wall_s"] * (statistics.median(r["window_stderrs"]) / 1e-3) ** 2
        for r in reps if r["window_stderrs"]])
    out["fail_frac"] = failed / attempted
    return out


def metric_units(trace: bool) -> dict:
    """Units of the metrics BENCHMARK.json names for this kind of run."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def compare_checksums(workload: str, seed: int, hashes: dict, env: dict, write: bool):
    """Print output files whose sha256 differs from the recorded one."""
    try:
        with open(CHECKSUMS) as fh:
            book = json.load(fh)
    except FileNotFoundError:
        book = {"environment": None, "workloads": {}}
    key = "any" if workload in UNSEEDED else str(seed)
    recorded = book["workloads"].get(workload, {}).get(key)
    if write:
        book["environment"] = {k: v for k, v in env.items() if k != "seed"}
        book["workloads"].setdefault(workload, {})[key] = hashes
        with open(CHECKSUMS, "w") as fh:
            json.dump(book, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if recorded is None:
        print(f"checksums: none recorded for {workload} seed {key}")
        return
    same_env = book["environment"] == {k: v for k, v in env.items() if k != "seed"}
    bad = sorted(n for n in set(recorded) | set(hashes) if recorded.get(n) != hashes.get(n))
    note = "" if same_env else " (recorded in another environment)"
    print(f"checksums: {len(recorded) - len(bad)}/{len(recorded)} files match{note}"
          + "".join(f"\nchecksum mismatch: {n}" for n in bad))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="problem size; small is the self-test's reduced size")
    ap.add_argument("--write-checksums", action="store_true",
                    help="record this run's output checksums in perfbench/checksums.json")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spinreset", "cli.py")):
        print("error: run from the root of a spinreset checkout (src/spinreset missing)",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    runner = Runner(root, args.workload, args.seed, args.scale)
    reps, traced, setups, imports, errors, launched = measure(runner, args.seconds,
                                                              bool(args.trace))
    for err in errors:
        print(f"child failed: {err}", file=sys.stderr)
    done = reps + traced
    if not reps or (args.trace and (not traced or not imports)):
        print("error: no successful repetition", file=sys.stderr)
        return 1
    # every interpreter launched and every gate checked is one attempt
    attempted = sum(r["attempted"] for r in done) + launched
    failed = sum(len(r["failures"]) for r in done) + len(errors)
    for r in done:
        for what in r["failures"]:
            print(f"gate failed: {what}", file=sys.stderr)
    leftovers = sorted({n for r in traced for n in r["leftover_wrappers"]})
    if leftovers:
        print(f"error: wrappers left after the traced run: {leftovers}", file=sys.stderr)
        return 1

    print(json.dumps({"environment": env}))
    print(f"samples: {len(reps)} untraced, {len(traced)} traced, {len(setups)} set-ups, "
          f"{len(imports)} import-time")
    for label, recs in (("untraced", reps), ("traced", traced)):
        if recs:
            print(f"{label} wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in recs))
            print(f"{label} uncorrected wall: "
                  + " ".join(f"{r['raw_wall_s']:.4f}" for r in recs))
    print("setup_s: " + " ".join(f"{v:.4f}" for v, _ in setups))
    print("uncorrected setup: " + " ".join(f"{v:.4f}" for _, v in setups))
    first = reps[0]["hashes"]
    unstable = {n for r in done[1:] for n in r["hashes"] if r["hashes"][n] != first.get(n)}
    for name in sorted(unstable):
        print(f"checksum differs between repetitions: {name}")
    if args.scale == "full":  # checksums are recorded for the full size only
        compare_checksums(args.workload, args.seed, first, env, args.write_checksums)

    if args.trace:
        values = per_layer(reps, traced, imports, attempted, failed)
    else:
        values = end_to_end(reps, setups)
    units = metric_units(bool(args.trace))
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: computed but not named "
                         f"{sorted(set(values) - set(units))}, named but not computed "
                         f"{sorted(set(units) - set(values))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
