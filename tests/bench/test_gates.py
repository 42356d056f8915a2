"""The bench gates hold on the committed goldens, and each one bites.

Every gate that reads no wall key is applied to the bench's golden
(``tests/golden/``) and must pass.  Then each gate's value is pushed one
step past its bound, and :func:`repro.bench.runner.failed_gates` must
name exactly that gate among the failures.
"""

from __future__ import annotations

import copy
import importlib
import json

import pytest

from repro.bench import runner
from repro.bench.runner import Gate, failed_gates
from tests import golden

#: bench module under ``repro.bench`` -> its golden
GOLDENS = {
    "hotpath": "hotpath",
    "delta": "delta",
    "codec": "codec",
    "async_sched": "async",
    "durability": "durability",
    "tenancy": "tenancy",
    "scenarios": "scenarios",
}


def _sim_gates(module, payload):
    return [gate for gate in module.gates(payload) if "wall" not in gate.path]


def _past(gate: Gate, value):
    """A value on the wrong side of ``gate``'s bound."""
    if gate.op == "contains":
        return type(value)()
    if gate.op == "!=":
        return gate.bound
    if gate.op == "==":
        if isinstance(gate.bound, bool):
            return not gate.bound
        if isinstance(gate.bound, str):
            return gate.bound + "-changed"
        return gate.bound + 1
    return {">=": gate.bound - 1, ">": gate.bound, "<=": gate.bound + 1,
            "<": gate.bound}[gate.op]


def _set(payload, path: str, value) -> None:
    *parents, leaf = path.split(".")
    for key in parents:
        payload = payload[int(key) if isinstance(payload, list) else key]
    payload[int(leaf) if isinstance(payload, list) else leaf] = value


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_sim_gates_pass_on_the_golden(name):
    module = importlib.import_module(f"repro.bench.{name}")
    payload = golden.load(GOLDENS[name])
    gates = _sim_gates(module, payload)
    assert gates
    assert [str(gate) for gate in gates if not gate.holds(payload)] == []


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_every_sim_gate_fails_past_its_bound(name):
    module = importlib.import_module(f"repro.bench.{name}")
    payload = golden.load(GOLDENS[name])
    for gate in _sim_gates(module, payload):
        pushed = copy.deepcopy(payload)
        _set(pushed, gate.path, _past(gate, gate.value(payload)))
        failed = [str(each) for each in failed_gates(module, pushed)]
        assert str(gate) in failed, f"{name}: {gate} did not fail"


def test_wall_gates_keep_their_bounds():
    from repro.bench import codec, topology

    codec_gates = {gate.path: gate for gate in codec.gates(golden.load("codec"))}
    assert str(codec_gates["reductions.encode_decode_wall"]) == (
        "reductions.encode_decode_wall >= 2.0"
    )
    topology_gates = [
        str(gate)
        for gate in topology.gates({"integration": []})
        if "wall" in gate.path
    ]
    assert topology_gates == ["scale.reparent_wall_ms_mean < 100.0"]


def test_phase_gates_apply_to_observed_payloads():
    from repro.bench import hotpath

    payload = golden.load("hotpath")
    assert not failed_gates(hotpath, payload)
    payload["observed"] = True  # the golden's phase breakdowns are empty
    failed = {str(gate) for gate in failed_gates(hotpath, payload)}
    assert "scenarios.baseline.phases != {}" in failed
    assert "scenarios.baseline.phases contains 'encode'" in failed


def test_durability_repairs_every_copy_the_dead_stores_held():
    from repro.bench import durability

    report = durability.run_durability(durability.DurabilityConfig.quick())
    payload = json.loads(report.to_json())
    assert [str(gate) for gate in failed_gates(durability, payload)] == []
    one = payload["results"]["1"]
    assert 0 < one["replicas_lost"] < one["clusters"]  # not every cluster
    one["replicas_repaired"] -= 1
    assert [str(gate) for gate in failed_gates(durability, payload)] == [
        f"results.1.replicas_repaired == {one['replicas_lost']}"
    ]


def test_missing_value_fails_its_gate():
    assert not Gate("a.b", "==", 1).holds({"a": {}})
    assert not Gate("a.0", ">", 0).holds({"a": []})
    assert Gate("a.1.b", "==", 2).holds({"a": [{}, {"b": 2}]})


def _stub(monkeypatch, payload):
    """Make the tenancy entry return ``payload`` instead of running."""
    monkeypatch.setitem(
        runner.BENCHES,
        "tenancy",
        runner._Bench("BENCH_tenancy", lambda *_: payload),
    )


def test_runner_names_failed_gates_and_exits_nonzero(
    monkeypatch, tmp_path, capsys
):
    payload = golden.load("tenancy")
    payload["summary"]["isolation_held"] = False
    _stub(monkeypatch, payload)
    output = tmp_path / "tenancy.json"
    assert runner.main(["tenancy", "--output", str(output)]) == 1
    printed = capsys.readouterr().out
    assert (
        "FAILED gate tenancy: summary.isolation_held == True (got False)"
        in printed
    )
    assert output.exists()


def test_runner_passes_a_clean_payload(monkeypatch, tmp_path, capsys):
    _stub(monkeypatch, golden.load("tenancy"))
    output = tmp_path / "tenancy.json"
    assert runner.main(["tenancy", "--output", str(output)]) == 0
    assert "tenancy: no gate(s) failed" in capsys.readouterr().out
    assert json.loads(output.read_text()) == golden.load("tenancy")


def test_runner_fails_an_obs_run_whose_payload_is_not_observed(
    monkeypatch, tmp_path, capsys
):
    _stub(monkeypatch, golden.load("tenancy"))  # observed: false
    argv = ["tenancy", "--output", str(tmp_path / "tenancy.json"), "--obs",
            "--obs-output", str(tmp_path / "tenancy_obs.jsonl")]
    assert runner.main(argv) == 1
    assert (
        "FAILED gate tenancy: observed == True (got False)"
        in capsys.readouterr().out
    )


@pytest.mark.parametrize(
    "argv",
    [["all", "--output", "x.json"], ["all", "--obs-output", "x.jsonl"],
     ["hotpath", "--seed", "2"], ["nosuchbench"]],
)
def test_runner_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit) as excinfo:
        runner.main(argv)
    assert excinfo.value.code == 2
