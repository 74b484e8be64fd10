"""Every ``python -m repro`` command, run in-process.

The experiment commands must print what the benchmarks commit under
``results/``: the CLI, the benches and the scorecard once disagreed on
Figure 8's grid, and a shared definition is only shared while something
checks it.  The utility commands (``trace``, ``tune``, ``cluster-replay``)
are driven end to end on small inputs.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import _experiment_runners, main
from repro.cluster.trace import ClusterTrace, diurnal_burst_trace

RESULTS = Path(__file__).resolve().parents[1] / "results"

#: CLI experiment -> the results/ file its benchmark writes
COMMITTED = {
    "table1": "table1.txt",
    "table2": "table2.txt",
    "table3": "table3.txt",
    "table4": "table4.txt",
    "fig3": "figure3.txt",
    "fig8": "figure8.txt",
    "fig9": "figure9.txt",
    "fig10": "figure10.txt",
    "fig11": "figure11.txt",
    "fig12": "figure12.txt",
}


def test_every_experiment_has_a_committed_result():
    assert set(COMMITTED) == set(_experiment_runners())


@pytest.mark.parametrize("command", sorted(COMMITTED))
def test_experiment_prints_the_committed_result(command, capsys):
    assert main([command]) == 0
    printed = capsys.readouterr().out.rstrip("\n")
    committed = (RESULTS / COMMITTED[command]).read_text()
    # the benches wrap some tables in a header or follow them with a plot
    assert printed and printed in committed


class TestTrace:
    def test_writes_a_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "msm.json"
        argv = ["trace", "--curve", "BN254", "--log-n", "12", "--gpus", "2"]
        assert main(argv + ["--out", str(path)]) == 0
        out = capsys.readouterr().out
        events = json.loads(path.read_text())["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        assert f"{len(spans)} spans" in out
        assert "Chrome trace written to" in out

    def test_without_out_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--log-n", "10"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "Chrome trace written" not in out
        assert list(tmp_path.iterdir()) == []


class TestTune:
    def test_report_seeds_the_plan_cache(self, tmp_path, capsys):
        path = tmp_path / "tune.json"
        argv = ["tune", "--curve", "BN254", "--log-n", "12", "--gpus", "2"]
        assert main(argv + ["--budget", "8", "--seed", "1", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["plan"]["seed"] == 1
        assert payload["seed_report"]["installed"] == len(
            payload["seed_report"]["entries"]
        ) >= 1
        assert "as a HIT" in out
        assert "analytic-default" in out and "tuned" in out


class TestClusterReplay:
    def test_needs_a_trace_path(self, capsys):
        assert main(["cluster-replay"]) == 2
        assert "needs a trace path" in capsys.readouterr().err

    def test_replays_a_saved_trace(self, tmp_path, capsys):
        path = tmp_path / "day.json"
        trace = diurnal_burst_trace(scale=0.05)
        trace.save(str(path))
        assert ClusterTrace.load(str(path)) == trace
        argv = ["cluster-replay", str(path), "--nodes", "2", "--gpus", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "on 2 nodes x 2 GPUs" in out
        for tenant in ("acme", "zkmart"):
            assert f"tenant {tenant}" in out
