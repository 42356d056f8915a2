import os
import subprocess
import sys

import pytest

from perfbench.measure import (
    PROBE_REFERENCE_S, TAIL_BEYOND, TAIL_PERCENTILES, peak_rss_mb, probe, rank,
    reference_seconds, relative_spread, tail,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize(
    "count, percentile",
    [(1, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_picks_highest_percentile_with_ten_samples_beyond(count, percentile):
    samples = [float(value) for value in range(count, 0, -1)]  # unsorted input
    got_percentile, value = tail(samples)
    assert got_percentile == percentile
    beyond = sum(1 for sample in samples if sample > value)
    if count >= 20:
        assert beyond >= TAIL_BEYOND


def test_no_higher_candidate_qualifies():
    for count in range(20, 2500, 7):
        samples = list(range(count))
        chosen, value = tail(samples)
        beyond = sum(1 for sample in samples if sample > value)
        assert beyond >= TAIL_BEYOND
        for higher in TAIL_PERCENTILES[: TAIL_PERCENTILES.index(chosen)]:
            assert count - rank(higher, count) < TAIL_BEYOND


def test_reference_seconds_scale_by_the_median_probe():
    walls = [0.5, 1.5]
    assert reference_seconds(walls, [PROBE_REFERENCE_S] * 3) == pytest.approx(2.0)
    # a host twice as slow as the reference: the same walls are half as long
    slow = [2 * PROBE_REFERENCE_S, 2 * PROBE_REFERENCE_S, 50 * PROBE_REFERENCE_S]
    assert reference_seconds(walls, slow) == pytest.approx(1.0)
    assert reference_seconds([], []) == 0.0


def test_probe_reads_a_positive_wall_time():
    assert 0.0 < probe() < 100 * PROBE_REFERENCE_S


def test_relative_spread_is_iqr_over_median():
    assert relative_spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    spread = relative_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert spread == pytest.approx((4.5 - 1.5) / 3.0)


def test_peak_rss_is_the_workload_process_own():
    """A child started by a process with a large resident set reports its
    own peak, not the parent's (``ru_maxrss`` would carry it over)."""
    ballast = bytearray(160 << 20)
    for offset in range(0, len(ballast), 4096):
        ballast[offset] = 1
    parent = peak_rss_mb()
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]);"
         "from perfbench.measure import peak_rss_mb; print(peak_rss_mb())", ROOT],
        capture_output=True, text=True, check=True,
    )
    del ballast
    assert parent > 160
    assert float(child.stdout) < parent - 100
