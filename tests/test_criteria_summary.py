"""The per-criterion PASS/FAIL summary that ``conftest.py`` prints."""
from pathlib import Path

import pytest

import conftest


def report(nodeid, when, outcome):
    return pytest.TestReport(nodeid=nodeid, location=(nodeid, 0, nodeid),
                             keywords={}, outcome=outcome, longrepr=None,
                             when=when)


def test_a_failed_setup_or_teardown_fails_its_criterion(monkeypatch):
    # a criterion-5 test whose fixture raises has no call report; its
    # failed setup report alone must print the criterion as FAIL
    assert Path(conftest.__file__).parent == Path(__file__).parent
    monkeypatch.setattr(conftest, "_results", {})
    acceptance = "tests/test_acceptance.py::test_criterion"
    for nodeid, when, outcome in [
        (acceptance + "5_learned_beats_cdps", "setup", "failed"),
        (acceptance + "1_oracle", "setup", "passed"),
        (acceptance + "1_oracle", "call", "passed"),
        (acceptance + "1_oracle", "teardown", "passed"),
        (acceptance + "7_repro", "call", "passed"),
        (acceptance + "7_repro", "teardown", "failed"),
        ("tests/test_harness.py::test_criterion3_named_elsewhere", "setup",
         "failed"),
    ]:
        conftest.pytest_runtest_logreport(report(nodeid, when, outcome))
    assert conftest._results == {"criterion5": False, "criterion1": True,
                                 "criterion7": False}
    lines = []

    class Reporter:
        def write_sep(self, sep, title):
            lines.append(title)

        write_line = lines.append

    conftest.pytest_terminal_summary(Reporter())
    assert lines == ["acceptance criteria",
                     "criterion 1 oracle suite: PASS",
                     "criterion 5 directional comparison (shapes16): FAIL",
                     "criterion 7 reproducibility: FAIL"]
