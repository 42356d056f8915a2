"""The command line contract, end to end, on short runs."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.tracing import targets
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, cwd=cwd, timeout=300
    )


def _last_json(child):
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


def _fingerprint(child):
    return next(
        line.split()[1] for line in child.stdout.splitlines() if line.startswith("fingerprint ")
    )


def test_untraced_run_prints_every_end_to_end_metric():
    child = _run("--workload", "swap_cycle_write", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    result = _last_json(child)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in _spec()["end_to_end"]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_simulated_results_repeat_across_processes():
    args = ("--workload", "pressure_chase_read", "--seed", "5", "--seconds", "0.3", "--trace", "0")
    first, second = _run(*args), _run(*args)
    assert _fingerprint(first) == _fingerprint(second)
    other = _run("--workload", "pressure_chase_read", "--seed", "6", "--seconds", "0.3")
    assert _fingerprint(other) != _fingerprint(first)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_restores_the_program(name, tmp_path):
    workload = WORKLOADS[name]
    manager = workload.setup(1).space.manager
    # the run wraps its own manager's selector; every shared site is checked
    sites = [site for site in targets(manager) if site[0] is not manager]
    before = [vars(owner)[attribute] for owner, attribute, _ in sites]
    result = run.run_traced(workload, 1, 0.6, str(tmp_path))
    after = [vars(owner)[attribute] for owner, attribute, _ in sites]
    assert all(old is new for old, new in zip(before, after))
    assert result["correct"], result["failures"]
    declared = {metric["name"]: metric["unit"] for metric in _spec()["per_layer"]}
    assert {metric: result["metrics"][metric][1] for metric in declared} == declared
    with open(os.path.join(ROOT, "perfbench", "metrics.json"), encoding="utf-8") as handle:
        documented = {
            metric for layer in json.load(handle)["layers"] for metric in layer["metrics"]
        }
    assert documented <= set(result["metrics"])
    stem = tmp_path / name
    spans = [json.loads(line) for line in open(f"{stem}-spans.jsonl", encoding="utf-8")]
    assert spans and spans[0]["name"] == "runtime.op"
    assert (tmp_path / f"{name}-layers.txt").read_text().startswith("span")
    shares = sum(
        value for metric, (value, unit) in result["metrics"].items()
        if metric.endswith(".self_share_pct")
    )
    assert shares == pytest.approx(100.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure5_resident", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def test_an_incorrect_run_exits_nonzero(monkeypatch, capsys):
    failed = {
        "metrics": {name: (1.0, unit) for name, unit in
                    ((metric["name"], metric["unit"]) for metric in _spec()["end_to_end"])},
        "notes": [], "attempted": 2, "failed": 1, "failures": ["op 1: OracleError"],
        "correct": False, "fingerprint": "0",
    }
    monkeypatch.setattr(run, "run_untraced", lambda *args: failed)
    args = ["--workload", "swap_cycle_write", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(args) == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_all_runs_each_workload_in_its_own_process(monkeypatch):
    commands = []

    def fake_run(command, **kwargs):
        commands.append(command)
        summary = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        return subprocess.CompletedProcess(command, 0, json.dumps(summary) + "\n", "")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.run_all(1, 1.0, 0) == 0
    assert [command[command.index("--workload") + 1] for command in commands] == list(WORKLOADS)
