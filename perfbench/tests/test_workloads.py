"""Op counting and the oracles, on workloads shrunk for speed."""

import pytest

from perfbench.run import Loop, op_count
from perfbench.workloads import (
    Figure5Resident, OracleError, PressureChaseRead, SwapCycleWrite,
)


class SmallFigure5(Figure5Resident):
    objects = 300


class SmallWrite(SwapCycleWrite):
    objects = 400


class SmallChase(PressureChaseRead):
    objects = 200


def test_loop_counts_completed_ops():
    workload = SmallWrite()
    loop = Loop(workload, workload.setup(1))
    loop.run(ops=7)
    assert len(loop.walls) == 7 == loop.state.ops == loop.attempted
    assert not loop.failures


def test_op_count_depends_on_seconds_not_on_host_speed():
    workload = SmallFigure5()
    assert op_count(workload, 6.0) == round(6.0 * workload.ops_per_second)
    assert op_count(workload, 0.01) == 1


def test_loop_prepares_each_op_outside_its_timing():
    class Counting(SmallFigure5):
        prepared = 0

        def before_op(self, state):
            self.prepared += 1
            super().before_op(state)

    workload = Counting()
    loop = Loop(workload, workload.setup(1))
    loop.run(ops=3)
    assert workload.prepared == 3 == len(loop.walls)


def test_loop_stops_at_a_failed_op_and_counts_it():
    workload = SmallChase()
    state = workload.setup(1)
    Loop(workload, state).run(ops=5)
    state.expected = (state.expected + 1) % workload.objects  # a wrong expectation
    loop = Loop(workload, state)
    loop.run(ops=10)
    assert len(loop.walls) == 0
    assert loop.attempted == 1 and len(loop.failures) == 1
    assert "OracleError" in loop.failures[0]


def test_figure5_oracle_catches_a_short_walk():
    workload = SmallFigure5()
    state = workload.setup(1)
    assert workload.op(state) is False
    state.handle.get_next().next = None  # cut the list behind the benchmark's back
    with pytest.raises(OracleError, match="walked 2 of 300"):
        workload.op(state)


def test_write_oracle_catches_a_lost_update():
    workload = SmallWrite()
    state = workload.setup(1)
    for _ in range(5):
        workload.op(state)
    workload.finish(state)
    state.handles[17].index = -1  # a write the shadow model never saw
    with pytest.raises(OracleError, match="lost update"):
        workload.finish(state)


def test_chase_oracle_catches_a_wrong_node():
    workload = SmallChase()
    state = workload.setup(1)
    faults = sum(workload.op(state) for _ in range(30))
    assert faults > 0 and len(state.fault_stalls) == faults
    state.expected = workload.objects - 1 - state.expected
    with pytest.raises(OracleError, match="expected"):
        workload.op(state)


def test_chase_faults_reload_over_the_links():
    workload = SmallChase()
    state = workload.setup(1)
    manager = state.space.manager
    transfers = sum(link.stats.transfers for link in state.links)
    faults = sum(workload.op(state) for _ in range(60))
    assert faults > 0
    assert manager.fastpath.cache.stats.misses > 0
    assert sum(link.stats.transfers for link in state.links) > transfers
    assert max(state.fault_stalls) > 0


@pytest.mark.parametrize("workload", [SmallFigure5(), SmallWrite(), SmallChase()])
def test_one_seed_gives_identical_simulated_results(workload):
    fingerprints = []
    for _ in range(2):
        state = workload.setup(3)
        for _ in range(workload.prefix_ops):
            workload.op(state)
        workload.finish(state)
        fingerprints.append(workload.fingerprint(state))
    assert fingerprints[0] == fingerprints[1]


def test_seeds_change_the_inputs():
    workload = SmallChase()
    plans = []
    for seed in (1, 2):
        state = workload.setup(seed)
        plans.append(list(state.alt_index))
    assert plans[0] != plans[1]
