"""Shared test plumbing.

Tests named test_criterion_<k> (in test_acceptance.py) get a one-line
PASS/FAIL verdict in the terminal summary so a full run ends with a
compact scorecard of the acceptance checks.

The property tests (hypothesis) run on a derandomized profile with no
example database: every run draws the same examples, as every other
stochastic test uses a fixed seed.  Hypothesis still caches what it
scans of the source (its constants cache), so its home directory is a
temporary one, removed when the test run ends: nothing is written into
the checkout.
"""

import re
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_verdicts = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if m is None:
        return
    num = int(m.group(1))
    if report.when == "call":
        _verdicts[num] = report.passed
    elif report.failed:
        # setup errors count as failures of the criterion
        _verdicts[num] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_verdicts):
        verdict = "PASS" if _verdicts[num] else "FAIL"
        terminalreporter.write_line(f"CRITERION {num}: {verdict}")


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()
