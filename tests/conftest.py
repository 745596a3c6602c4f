"""Shared test configuration; prints one line per acceptance criterion."""
import re
import shutil
import tempfile

from hypothesis import configuration, settings

# A test run writes nothing into the repository: Hypothesis keeps no
# example database, and its other storage (the constants it collects from
# local modules) goes to a temporary directory removed at the end.
settings.register_profile("no-database", database=None)
settings.load_profile("no-database")


def pytest_configure(config):
    config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


CRITERIA = {
    "criterion1": "1 oracle suite",
    "criterion2": "2 gradient suite",
    "criterion3": "3 dynamics suite",
    "criterion4": "4 smoke optimization",
    "criterion5": "5 directional comparison (shapes16)",
    "criterion6": "6 product-of-experts bias",
    "criterion7": "7 reproducibility",
}

_results: dict = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    match = re.search(r"criterion(\d+)", report.nodeid)
    if not match:
        return
    key = f"criterion{match.group(1)}"
    passed = report.outcome == "passed"
    _results[key] = _results.get(key, True) and passed


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(CRITERIA, key=lambda k: int(k.replace("criterion", ""))):
        if key in _results:
            status = "PASS" if _results[key] else "FAIL"
            terminalreporter.write_line(f"criterion {CRITERIA[key]}: {status}")
