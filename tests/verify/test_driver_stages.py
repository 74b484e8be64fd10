"""Each stage of ``verify_all``, run in-process on the shipped code.

``tests/verify/test_cli.py`` runs the whole driver in a subprocess and
checks its exit code; these tests call the stages one at a time, so a
regression names the stage (and curve or baseline) that broke.
"""

import pytest

from repro.baselines.registry import all_baselines
from repro.core.config import DistMsmConfig
from repro.verify import driver
from repro.verify.report import VerificationReport

DISTMSM_CURVES = ("BN254", "BLS12-377", "BLS12-381", "MNT4753")
BASELINES = {b.name: b for b in all_baselines()}

#: stages that take only the report; verify_all runs each exactly once
STAGES = (
    "verify_kernel_schedules",
    "verify_bucket_sum",
    "verify_timelines",
    "verify_fault_recovery",
    "verify_byzantine",
    "verify_serving",
    "verify_cluster",
    "verify_observability",
    "verify_static_analysis",
)


def assert_clean(report: VerificationReport) -> None:
    assert report.ok, report.render()
    assert report.checks


@pytest.mark.parametrize("stage", STAGES)
def test_stage_passes(stage):
    assert_clean(getattr(driver, stage)())


@pytest.mark.parametrize("curve", DISTMSM_CURVES)
def test_spill_plans_pass(curve):
    report = driver.verify_spill_plans((curve,))
    assert_clean(report)
    assert all(curve in check for check in report.checks)


@pytest.mark.parametrize("name", ["DistMSM", *sorted(BASELINES)])
def test_scatter_config_is_race_free(name):
    config = BASELINES[name].config if name in BASELINES else DistMsmConfig()
    report = driver.verify_scatter_config(name, config)
    assert_clean(report)
    assert name in report.checks[0]


def test_stages_append_to_the_report_they_are_given():
    report = VerificationReport()
    assert driver.verify_kernel_schedules(report) is report
    kernel_checks = len(report.checks)
    assert driver.verify_bucket_sum(report) is report
    assert len(report.checks) > kernel_checks
    assert report.ok


def test_scatter_digits_cover_every_bucket():
    digits = driver._scatter_digits()
    assert len(digits) == driver._SCATTER_POINTS
    assert set(digits) == set(range(driver._SCATTER_BUCKETS))
    assert driver._scatter_digits() == digits
