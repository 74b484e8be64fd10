"""The analyzer CLI, the baseline machinery, and the report rendering."""

import json
import textwrap

import pytest

from repro.analyze import (
    Finding,
    Suppression,
    analyze_paths,
    apply_baseline,
    all_rules,
    load_baseline,
)
from repro.analyze.__main__ import main
from repro.analyze.finding import AnalysisReport
from repro.analyze.registry import FAMILIES

DIRTY = textwrap.dedent(
    """
    import random

    def jitter(base_ms, payload_bytes):
        noise = random.random()
        return base_ms + payload_bytes + noise
    """
)


@pytest.fixture
def dirty_file(tmp_path):
    f = tmp_path / "dirty.py"
    f.write_text(DIRTY)
    return f


class TestRegistry:
    def test_every_rule_has_a_family_and_description(self):
        for rule in all_rules():
            assert rule.family in FAMILIES
            assert rule.description


class TestBaseline:
    def test_packaged_baseline_is_empty(self):
        assert load_baseline() == ()

    def test_unknown_rule_in_baseline_rejected(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text(
            json.dumps({"suppressions": [{"rule": "bogus", "path": "x.py"}]})
        )
        with pytest.raises(ValueError, match="unknown rule"):
            load_baseline(bad)

    def test_suffix_match_splits_active_from_suppressed(self):
        findings = [
            Finding("det-wall-clock", "src/repro/a.py", 3, "clock"),
            Finding("det-wall-clock", "src/repro/b.py", 7, "clock"),
        ]
        active, suppressed = apply_baseline(
            findings, (Suppression("det-wall-clock", "repro/a.py"),)
        )
        assert [f.path for f in active] == ["src/repro/b.py"]
        assert [f.path for f in suppressed] == ["src/repro/a.py"]

    def test_line_and_contains_narrow_the_match(self):
        finding = Finding("det-wall-clock", "a.py", 3, "time.time() read")
        assert Suppression("det-wall-clock", "a.py", line=3).matches(finding)
        assert not Suppression("det-wall-clock", "a.py", line=4).matches(finding)
        assert Suppression(
            "det-wall-clock", "a.py", contains="time.time"
        ).matches(finding)
        assert not Suppression(
            "det-wall-clock", "a.py", contains="monotonic"
        ).matches(finding)


class TestAnalyzePaths:
    def test_repro_package_is_clean(self):
        report = analyze_paths(families=("determinism", "units"))
        assert report.ok
        assert report.files > 100
        assert report.suppressed == []

    def test_dirty_file_found(self, dirty_file):
        report = analyze_paths(
            paths=[dirty_file], families=("determinism", "units")
        )
        assert not report.ok
        assert report.counts_by_rule() == {
            "det-unseeded-rng": 1,
            "unit-mixed-arith": 1,
        }

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            analyze_paths(families=("vibes",))

    def test_baseline_suppresses_and_keeps_ok(self, dirty_file, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "suppressions": [
                        {"rule": "det-unseeded-rng", "path": "dirty.py"},
                        {"rule": "unit-mixed-arith", "path": "dirty.py"},
                    ]
                }
            )
        )
        report = analyze_paths(
            paths=[dirty_file],
            families=("determinism", "units"),
            baseline=baseline,
        )
        assert report.ok
        assert len(report.suppressed) == 2


class TestReportRendering:
    def test_clean_render_says_clean(self):
        report = AnalysisReport(files=3)
        report.add_check("interval: all good")
        text = report.render()
        assert "CLEAN: 3 files" in text
        assert "ok: interval: all good" in text

    def test_dirty_render_lists_findings_and_suppressed_count(self):
        report = AnalysisReport(
            findings=[Finding("det-wall-clock", "a.py", 3, "clock read")],
            suppressed=[Finding("det-wall-clock", "b.py", 9, "accepted")],
            files=2,
        )
        text = report.render()
        assert "DIRTY: 2 files" in text
        assert "a.py:3: [det-wall-clock]" in text
        assert "(1 suppressed)" in text
        # suppressed findings are counted, not listed as failures
        assert "b.py:9" not in text

    def test_json_roundtrip_is_sorted_and_complete(self):
        report = AnalysisReport(
            findings=[
                Finding("det-wall-clock", "b.py", 1, "zz"),
                Finding("det-wall-clock", "a.py", 1, "aa"),
            ],
            files=2,
        )
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert [f["path"] for f in data["findings"]] == ["a.py", "b.py"]
        assert data["counts_by_rule"] == {"det-wall-clock": 2}


class TestCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(a_ms, b_ms):\n    return a_ms + b_ms\n")
        code = main([str(clean), "--families", "determinism,units"])
        assert code == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_dirty_run_exits_nonzero(self, dirty_file, capsys):
        code = main([str(dirty_file), "--families", "determinism,units"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DIRTY" in out
        assert "det-unseeded-rng" in out

    def test_json_output_file(self, dirty_file, tmp_path, capsys):
        out_file = tmp_path / "results" / "report.json"
        code = main(
            [
                str(dirty_file),
                "--families",
                "determinism,units",
                "--json",
                "-o",
                str(out_file),
            ]
        )
        assert code == 1
        data = json.loads(out_file.read_text())
        assert data["ok"] is False
        # the status line still lands on stdout for the make target
        assert "DIRTY" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in FAMILIES:
            assert f"{family}:" in out
        assert "det-unseeded-rng" in out
