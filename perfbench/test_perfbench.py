"""Tests of the benchmark itself, at smoke size.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import span_table  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd, capture_output=True, text=True
    )
    return proc


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (n, u, run.better(n, u)) for n, u in run.PER_LAYER
    ]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result, stdout = _result("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "digests:" in stdout and "env:" in stdout


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_trace_reports_every_layer_metric_and_matches_untraced_bytes(workload):
    # the untraced and the traced job must write identical bytes, otherwise
    # the run is not correct
    result, stdout = _result("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke")
    assert result["correct"] is True and result["attempted"] == 2
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER)
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["pipeline.scenario_s.count"] == run.WORKLOADS[workload]["smoke_count"]
    assert metrics["funnel.vocab_entries"] == run.SMOKE_VOCAB["k"] * run.WORKLOADS[workload]["smoke_count"]
    assert metrics["funnel.accepted"] <= metrics["funnel.attempted"] <= metrics["funnel.grid_keep"]
    assert "funnel:" in stdout


def test_rerun_at_the_same_seed_agrees_with_the_stored_reference():
    first, _ = _result("--workload", "planner", "--seed", "4", "--seconds", "0", "--smoke")
    second, _ = _result("--workload", "planner", "--seed", "4", "--seconds", "0", "--smoke")
    assert first["correct"] and second["correct"]
    assert first["metrics"]["accepted"] == second["metrics"]["accepted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planner", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_output_check_rejects_a_sample_that_breaks_the_guarantee(tmp_path):
    from drivegen.cli import main

    corpus, vocab, out = tmp_path / "corpus", tmp_path / "vocab.json", tmp_path / "out"
    assert main(["gen-corpus", "--count", "5", "--seed", "5", "--out", str(corpus)]) == 0
    assert main(["build-vocab", "--k", "32", "--samples", "256", "--seed", "2026", "--out", str(vocab)]) == 0
    assert main(["generate", "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(out),
                 "--seed", "5", *run.generate_flags(run.WORKLOADS["recovery"])]) == 0
    workload = run.WORKLOADS["recovery"]
    run.check_outputs(out, 5, workload, 5, 0.5)

    lines = (out / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["reward"]["submetrics"]["nc"] = 0.0
    lines[0] = json.dumps(record)
    (out / "dataset.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(run.RunFailed, match="safety guarantee"):
        run.check_outputs(out, 5, workload, 5, 0.5)


def test_self_time_counts_parallel_children_once():
    spans = [
        ["root", 0.0, 10.0, -1, "g"],
        ["worker", 1.0, 6.0, 0, "a"],  # two workers overlap on [2, 6]
        ["worker", 2.0, 8.0, 0, "b"],
        ["leaf", 3.0, 4.0, 2, "b"],
    ]
    table = span_table(spans)
    assert table["root"]["self_s"] == pytest.approx(10.0 - 7.0)
    assert table["worker"] == {"calls": 2, "s": pytest.approx(11.0), "self_s": pytest.approx(10.0)}
    assert table["leaf"]["self_s"] == pytest.approx(1.0)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run._tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)
    assert run._tail([float(i) for i in range(1, 21)]) == (10.0, 50.0)
    assert run._tail([1.0, 3.0, 2.0]) == (3.0, 100.0)
