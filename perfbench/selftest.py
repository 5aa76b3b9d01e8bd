"""Self-test of the benchmark at reduced size.

usage: python3 perfbench/selftest.py      (from the root of a checkout)

Checks that
- every workload runs at the small size with all gates passing, and
  prints every metric BENCHMARK.json names, with its unit, for both
  --trace 0 and --trace 1;
- every trace target still resolves to a callable in the package (a
  renamed function fails here instead of reading 0), a missing one
  raises, and every target records at least one call on some workload;
- the tracer leaves no wrapper behind after a traced run;
- the benchmark exits non-zero, without a result, in a directory that
  holds only BENCHMARK.json and perfbench/.
Exits 1 and names each failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench_work", "selftest")

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(spec):
    from workloads import WORKLOADS

    expect(sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"]),
           "workloads match BENCHMARK.json")
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit 0 ({proc.stderr.strip()[-300:]})")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{tag}: all gates pass ({result['failed']} of {result['attempted']} failed)")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            expect(set(got) == set(want), f"{tag}: every {key} metric emitted, no others")
            bad = [n for n in want if n in got and (
                got[n].get("unit") != want[n] or not isinstance(got[n].get("value"), (int, float)))]
            expect(not bad, f"{tag}: unit and numeric value for each metric {bad}")


def check_tracer():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    import tracer
    import workloads

    import spinreset.cli  # noqa: F401  (loads every package module)

    probe = layers.make_tracer()
    for t in probe.targets:
        try:
            tracer.resolve(t.path)
            ok = True
        except tracer.TraceTargetError as exc:
            ok, t.path = False, str(exc)
        expect(ok, f"trace target resolves: {t.path}")
    try:
        tracer.Tracer([tracer.Target("spinreset.renewal:no_such_function", "x")]).install()
        expect(False, "a missing trace target raises")
    except tracer.TraceTargetError:
        expect(True, "a missing trace target raises")

    before = {t.path: tracer.resolve(t.path)[2] for t in probe.targets}
    called = set()
    for workload in workloads.WORKLOADS:
        work = os.path.join(SCRATCH, workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        os.chdir(work)
        try:
            tr = layers.make_tracer()
            workloads.run(workload, 3, "small", tr)
        finally:
            os.chdir(ROOT)
        expect(not tr.leftovers(), f"{workload}: no wrapper left after the traced run "
                                   f"{tr.leftovers()}")
        called |= {name for name, s in tr.stats().items() if s.calls}
    after = {t.path: tracer.resolve(t.path)[2] for t in probe.targets}
    expect(all(before[p] is after[p] for p in before), "originals restored for every target")
    silent = sorted({t.name for t in probe.targets} - called)
    expect(not silent, f"every trace target called on some workload {silent}")


def check_refuses_bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "closed_form", 0)
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
           "exits non-zero without a result when src/ is absent")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    check_metrics(spec)
    check_tracer()
    check_refuses_bare_directory()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
