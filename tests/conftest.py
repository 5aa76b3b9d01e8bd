"""Shared test plumbing.

Tests named test_criterion_<k> (in test_acceptance.py) get a one-line
PASS/FAIL verdict in the terminal summary so a full run ends with a
compact scorecard of the acceptance checks.

The property tests (hypothesis) run on a derandomized profile with no
example database: every run draws the same examples, as every other
stochastic test uses a fixed seed, and nothing is written into the
checkout.
"""

import re

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

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
