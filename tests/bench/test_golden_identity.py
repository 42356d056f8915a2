"""Every simulated number of the swap benches matches the committed goldens.

Each test replays one ``--quick`` bench and requires full-dict equality
with its file under ``tests/golden/`` (wall-clock keys removed on both
sides).  Together with the hot-path and scenario identity tests these
cover every swap-out route: metadata-only no-op, drop-clean, reship,
text and binary delta, delta-to-full fallback, compress-local,
degrade-pool and fleet admission denial.  The durability replay adds
ship and scrub-repair under store kills.  The obs replays require the
metric records of each ``--quick --obs`` dump to match ``obs_metrics.json``,
and the perfbench prefix digests to match ``perfbench.json``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import async_sched, codec, delta, durability, runner, tenancy
from tests import golden


def test_delta_bench_matches_golden():
    report = delta.run_delta_bench(delta.DeltaBenchConfig.quick())
    assert golden.sim_only(json.loads(report.to_json())) == golden.load("delta")


def test_codec_bench_sim_fields_match_golden():
    report = codec.run_codec_bench(codec.CodecBenchConfig.quick(seed=1))
    assert golden.sim_only(json.loads(report.to_json())) == golden.load("codec")


def test_async_bench_matches_golden():
    report = async_sched.run_async_bench(async_sched.AsyncBenchConfig.quick(seed=1))
    assert golden.sim_only(json.loads(report.to_json())) == golden.load("async")


def test_durability_bench_matches_golden():
    report = durability.run_durability(durability.DurabilityConfig.quick())
    assert golden.sim_only(json.loads(report.to_json())) == golden.load(
        "durability"
    )


def test_tenancy_bench_matches_golden():
    report = tenancy.run_bench((1,), quick=True)
    assert golden.sim_only(report) == golden.load("tenancy")


@pytest.mark.parametrize("name", golden.OBS_BENCHES)
def test_obs_metrics_match_golden(name, tmp_path):
    obs_output = tmp_path / "obs.jsonl"
    runner.run_one(
        name,
        quick=True,
        obs=True,
        output=str(tmp_path / "report.json"),
        obs_output=str(obs_output),
    )
    assert golden.metric_records(obs_output) == golden.load("obs_metrics")[name]


def test_perfbench_prefix_digests_match_golden():
    assert golden.perfbench_digests() == golden.load("perfbench")
