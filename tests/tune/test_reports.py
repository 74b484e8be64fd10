"""What the tuner reports: serve-policy tuning, seeding audits, bottlenecks."""

import json

import pytest

from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.gpu.cluster import MultiGpuSystem
from repro.serve import MsmProofServer
from repro.tune import analyze_result, seed_server, tune_serve_policy
from repro.tune.search import TunedServePolicy
from repro.tune.seed import SeedReport

BN = curve_by_name("BN254")


@pytest.fixture(scope="module")
def policy():
    return tune_serve_policy(2, BN, request_count=8, sizes=1 << 12, seed=3, budget=8)


class TestTuneServePolicy:
    def test_never_worse_than_the_default_triggers(self, policy):
        assert policy.tuned_p95_ms <= policy.default_p95_ms
        assert policy.improvement >= 1.0
        assert 1 <= policy.evaluations <= 8
        assert policy.seed == 3

    def test_is_reproducible(self, policy):
        again = tune_serve_policy(
            2, BN, request_count=8, sizes=1 << 12, seed=3, budget=8
        )
        assert again == policy

    def test_as_dict_is_json(self, policy):
        exported = json.loads(json.dumps(policy.as_dict()))
        assert exported["max_batch_size"] == policy.max_batch_size
        assert exported["max_wait_ms"] == policy.max_wait_ms
        assert exported["evaluations"] == policy.evaluations

    def test_zero_tuned_latency_reports_no_improvement(self):
        policy = TunedServePolicy(4, 2.0, 5.0, 0.0, evaluations=1, seed=0)
        assert policy.improvement == 1.0


class TestSeedReport:
    @pytest.fixture(scope="class")
    def report(self):
        server = MsmProofServer(MultiGpuSystem(2))
        return seed_server(server, [(BN, 1 << 12), (BN, 1 << 14)], budget=8)

    def test_evaluations_add_up_over_entries(self, report):
        assert report.installed == 2
        assert report.evaluations == sum(e.plan.evaluations for e in report.entries)

    def test_as_dict_lists_every_entry_with_its_scope(self, report):
        exported = json.loads(json.dumps(report.as_dict()))
        assert exported["installed"] == 2
        assert [e["scope"] for e in exported["entries"]] == [
            e.scope for e in report.entries
        ]
        assert exported["best_speedup"] >= 1.0

    def test_render_has_one_line_per_entry(self, report):
        lines = report.render().splitlines()
        assert lines[0].startswith("seeded 2 plan(s)")
        assert len(lines) == 1 + report.installed
        assert "n=2^12" in lines[1] and "n=2^14" in lines[2]

    def test_empty_report(self):
        empty = SeedReport(entries=())
        assert empty.evaluations == 0
        assert empty.best_speedup == 1.0
        assert empty.render() == (
            "seeded 0 plan(s) (0 cost evaluations, best modelled speedup 1.000x)"
        )


def test_bottleneck_render_lists_every_phase():
    result = DistMsm(MultiGpuSystem(2)).estimate(BN, 1 << 14)
    report = analyze_result(result, "unit")
    lines = report.render().splitlines()
    assert lines[0].startswith("bottleneck report for 'unit'")
    assert f"primary {report.primary}" in lines[0]
    assert len(lines) == 1 + len(report.phases)
    for line, phase in zip(lines[1:], report.phases):
        assert line.split()[0] == phase.phase
