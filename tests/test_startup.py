"""No scipy on the start-up path or on any benchmark path, and no multiprocessing.

Import is most of an exact command's run time, and importing
scipy.special alone costs a process about 0.2 s and 20 MB.  The
quadrature cross-check is in the package (spinreset.integrate), and the
finite-N measurement draws decide their binomial cdf comparisons from
in-house bounds (trajectory_sim._cdf_band), which import scipy.special
only for a comparison they leave open or for more than
trajectory_sim._PMF_MAX_N spins.  So importing the CLI, the exact
commands, ensembles in the thermodynamic limit and at N = 201, and every
step of the three benchmark workloads load no module whose top-level
name is scipy.  The chunk pool forks with os.fork and needs no
multiprocessing.  Each check runs in a fresh interpreter, whose modules
are the ones the path itself loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.fft", "scipy.spatial")

# ends every probe: the interpreter's modules, as one JSON line
REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def loaded_modules(code: str, cwd: Path) -> list:
    """The modules a fresh interpreter has loaded after running code in cwd."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code + REPORT], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules(loaded: list) -> list:
    return [m for m in loaded if m.split(".")[0] == "scipy"]


def test_cli_import_loads_no_heavy_scipy_subpackage():
    code = "import sys, spinreset.cli; print('\\n'.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = proc.stdout.split()
    assert "spinreset.cli" in loaded and "spinreset.integrate" in loaded
    heavy = [m for m in loaded if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert heavy == []
    assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []


COMMANDS = [
    ["stationary", "--protocol", "2", "--omega", "1.3"],
    ["verify"],
    ["ensemble", "--protocol", "3", "--omega", "1.1", "--trajectories", "300", "--time", "6",
     "--points", "4"],
    ["ensemble", "--protocol", "2", "--omega", "1.3", "--n-spins", "201", "--trajectories",
     "100", "--time", "300", "--points", "4"],
    ["ensemble", "--protocol", "3", "--omega", "1.1", "--n-spins", "201", "--trajectories",
     "100", "--time", "300", "--points", "4"],
]


def test_cli_and_its_commands_load_no_scipy(tmp_path):
    code = ("import contextlib, io, spinreset.cli\n"
            f"for argv in {COMMANDS!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert spinreset.cli.execute_command(argv) == 0, argv\n")
    loaded = loaded_modules(code, tmp_path)
    assert "spinreset.trajectory_sim" in loaded
    assert scipy_modules(loaded) == []


def test_benchmark_workloads_load_no_scipy(tmp_path):
    # the steps, gates and hashing a benchmark repetition runs, read from perfbench/
    # as it is; mc_finite_n at three seeds, for more of the finite-N draws
    code = ("import os, sys\n"
            f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "import workloads\n"
            "for workload, seeds in (('closed_form', [0]), ('mc_thermo', [0]),\n"
            "                        ('mc_finite_n', [0, 1, 2])):\n"
            "    for seed in seeds:\n"
            "        os.mkdir(f'{workload}-{seed}')\n"
            "        os.chdir(f'{workload}-{seed}')\n"
            "        assert workloads.run(workload, seed, 'full')['outcome'].failures == []\n"
            "        os.chdir('..')\n")
    loaded = loaded_modules(code, tmp_path)
    assert "spinreset.trajectory_sim" in loaded
    assert scipy_modules(loaded) == []
