"""Every injected-fault fixture bites: its checker reports a violation."""

import pytest

from repro.verify.fixtures import FIXTURES, run_fixture


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_fails_with_a_violation(name):
    report = run_fixture(name)
    assert not report.ok
    assert len(report.violations) >= 1
