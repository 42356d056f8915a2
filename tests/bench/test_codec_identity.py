"""With the codec off, the hot path is bit-identical to the committed
pre-codec results.

The binary codec is strictly opt-in: ``FastPathConfig.codec`` defaults
to ``None`` and every codec hook sits behind a successful negotiation.
The strongest regression guard is replaying the swap hot-path bench —
same workload, same simulated clock — and comparing the *entire*
scenario result (simulated percentiles, link bytes, every counter)
against the committed golden ``tests/golden/hotpath.json``.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.bench.hotpath import HotPathConfig, run_scenario
from repro.core.fastpath import FastPathConfig
from tests import golden

PLANS = {
    "baseline": (False, False),
    "fastpath_clean": (True, False),
    "fastpath_mutating": (True, True),
}


@pytest.fixture(scope="module")
def committed():
    return golden.load("hotpath")


def _config(committed) -> HotPathConfig:
    return HotPathConfig(
        **{
            key: value
            for key, value in committed["config"].items()
            if key in HotPathConfig.__dataclass_fields__
        }
    )


@pytest.mark.parametrize("scenario", sorted(PLANS))
def test_codec_off_run_matches_committed_bench(committed, scenario):
    fastpath, mutate = PLANS[scenario]
    result = run_scenario(
        scenario, _config(committed), fastpath=fastpath, mutate=mutate
    )
    assert asdict(result) == committed["scenarios"][scenario]


def test_explicit_codec_none_is_the_default_pipeline(committed):
    """``FastPathConfig(codec=None)`` spelled out is the same machine."""
    result = run_scenario(
        "fastpath_clean",
        _config(committed),
        fastpath=True,
        mutate=False,
        fastpath_config=FastPathConfig(codec=None),
    )
    assert asdict(result) == committed["scenarios"]["fastpath_clean"]
