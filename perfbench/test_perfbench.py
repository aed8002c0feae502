"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They run every workload at a reduced size (``--seconds 1``) in fresh
processes, twice traced at one seed, so they take a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402

SEED = 7

#: Workloads on which each layer must do work; on the others it reads zero.
#: ``core`` runs everywhere: both comparison entry points and the cache
#: prepare their inputs.
LAYER_WORKLOADS = {
    "anytime": {"paper-small"},
    "exact": {"paper-small"},
    "refine": {"paper-small"},
    "assignment": {"paper-small"},
    "signature": {"paper-small", "tpch-evolve", "lake"},
    "compatibility": {"paper-small", "tpch-evolve", "lake"},
    "core": {"paper-small", "tpch-evolve", "lake"},
    "cache": {"tpch-evolve", "lake"},
    "delta": {"tpch-evolve"},
    "maintenance": {"tpch-evolve", "lake"},
    "sketch": {"tpch-evolve", "lake"},
    "search": {"lake"},
    "lsh": {"lake"},
    "store": {"lake"},
    "wal": {"lake"},
}


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=600,
    )
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {
        name: [parsed(run_bench(name, SEED, trace=1)) for _ in range(2)]
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_counts_and_scores_repeat_at_one_seed(traced_twice, name):
    (first_diag, first), (second_diag, second) = traced_twice[name]
    assert first["failed"] == second["failed"] == 0
    assert first_diag["work_counts"] == second_diag["work_counts"]
    assert first_diag["score_digest"] == second_diag["score_digest"]
    # The traced and untraced halves of one run did the same work too.
    assert first_diag["score_digest"] == first_diag["untraced_score_digest"]
    assert first_diag["input_digest"] == second_diag["input_digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_changes_inputs(traced_twice, name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    state = workload.setup(SEED + 1, 1, str(tmp_path))
    try:
        other = workload.input_digest(state)
    finally:
        workload.close(state)
    assert other != traced_twice[name][0][0]["input_digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layers_read_nonzero_exactly_on_their_workloads(traced_twice, name):
    metrics = traced_twice[name][0][1]["metrics"]
    assert set(metrics) == set(PER_LAYER)
    for layer, listed in LAYER_WORKLOADS.items():
        values = [
            entry["value"] for metric, entry in metrics.items()
            if metric.split(".")[0] == layer
        ]
        assert values, layer
        if name in listed:
            assert any(values), f"{layer} did no work on {name}"
        else:
            assert not any(values), f"{layer} did work on {name}"


def test_checker_counts_one_corrupted_result():
    workload = workloads.PaperSmall()
    state = workload.setup(SEED, 1, "")
    scenario = state.pairs[0]
    lam = state.options.lam
    ladder = state.ladder.compare_anytime(scenario.source, scenario.target)
    floor = state.floor.compare_one(scenario.source, scenario.target)
    rec = workloads.Recorder()
    rec.verdict("op", workload.check(ladder, floor, scenario, lam))
    assert rec.failed == 0
    corrupted = dataclasses.replace(ladder, similarity=ladder.similarity - 1e-3)
    rec.verdict("op", workload.check(corrupted, floor, scenario, lam))
    assert rec.failed == 1


def test_end_to_end_run_prints_every_metric_and_no_failure():
    from run import END_TO_END

    _diagnostics, result = parsed(run_bench("paper-small", SEED, trace=0))
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("paper-small", SEED, trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
