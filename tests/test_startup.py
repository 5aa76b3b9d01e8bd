"""Start-up of the CLI loads no scipy subpackage beyond scipy.special.

Import is most of an exact command's run time.  The quadrature
cross-check is in the package (spinreset.integrate), so importing the
CLI must not pull in scipy.integrate and what it drags along.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.fft", "scipy.spatial")


def test_cli_import_loads_no_heavy_scipy_subpackage():
    code = "import sys, spinreset.cli; print('\\n'.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = proc.stdout.split()
    assert "spinreset.cli" in loaded and "spinreset.integrate" in loaded
    heavy = [m for m in loaded if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert heavy == []
