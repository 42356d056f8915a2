import types

import pytest

from perfbench.tracing import (
    END, NAME, PARENT, START, Recorder, install, layer_self_times, self_times,
    summarize, targets,
)
from perfbench.workloads import WORKLOADS


class Clock:
    def __init__(self):
        self.now_s = 0.0

    def now(self):
        return self.now_s


def _fake_module():
    module = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    def boom():
        raise ValueError("boom")

    module.inner, module.outer, module.boom = inner, outer, boom
    return module


def test_install_wraps_and_restore_puts_back_the_originals():
    module = _fake_module()
    originals = dict(vars(module))
    recorder = Recorder(Clock())
    restore = install(recorder, [(module, "inner", "wire.x"), (module, "outer", "core.y")])
    assert module.inner is not originals["inner"]
    recorder.op = 0
    assert module.outer(1) == 4
    restore()
    assert vars(module) == originals
    names = [span[NAME] for span in recorder.spans]
    assert names == ["core.y", "wire.x"]
    assert recorder.spans[1][PARENT] == 0  # inner ran inside outer


def test_exception_closes_the_span_and_propagates():
    module = _fake_module()
    recorder = Recorder(Clock())
    restore = install(recorder, [(module, "boom", "core.z"), (module, "inner", "wire.x")])
    with pytest.raises(ValueError):
        module.boom()
    module.inner(1)
    restore()
    assert recorder.spans[0][END] >= recorder.spans[0][START] > 0
    assert recorder.spans[1][PARENT] == -1  # the stack unwound


def test_failed_install_restores_what_it_already_wrapped():
    module = _fake_module()
    original = module.inner
    with pytest.raises(KeyError):
        install(Recorder(Clock()), [(module, "inner", "wire.x"), (module, "missing", "x")])
    assert module.inner is original


def test_every_program_site_is_restored():
    workload = WORKLOADS["swap_cycle_write"]

    class Tiny(type(workload)):
        objects = 200

    state = Tiny().setup(1)
    sites = targets(state.space.manager)
    before = [vars(owner)[attribute] for owner, attribute, _ in sites]
    recorder = Recorder(state.clock)
    restore = install(recorder, sites)
    recorder.op = 0
    Tiny().op(state)
    restore()
    after = [vars(owner)[attribute] for owner, attribute, _ in sites]
    assert all(old is new for old, new in zip(before, after))
    layers = {span[NAME].split(".")[0] for span in recorder.spans}
    assert {"core", "wire", "devices", "resilience", "obs"} <= layers


def test_self_time_subtracts_direct_children():
    spans = [
        ["runtime.op", 0.0, 10.0, -1, 0, 0, 0, 0, ""],
        ["core.swap_out", 1.0, 7.0, 0, 0, 0, 0, 0, "swap_out"],
        ["devices.store", 2.0, 6.0, 1, 0, 0, 0, 0, "store_delta"],
        ["wire.delta_apply", 3.0, 5.0, 2, 0, 0, 0, 0, "apply_cluster_delta"],
        ["core.swap_in", 8.0, 9.0, 0, 0, 0, 0, 0, "swap_in"],
    ]
    assert self_times(spans) == [3.0, 2.0, 2.0, 2.0, 1.0]
    layers = layer_self_times(summarize(spans))
    assert layers == {"runtime": 3.0, "core": 3.0, "devices": 2.0, "wire": 2.0}
    assert sum(layers.values()) == spans[0][END] - spans[0][START]


def test_recursive_spans_count_once_in_inclusive_wall():
    spans = [
        ["runtime.op", 0.0, 10.0, -1, 0, 0.0, 4.0, 0, ""],
        ["core.swap_in", 1.0, 9.0, 0, 0, 0.0, 3.0, 0, "swap_in"],
        ["core.swap_in", 2.0, 5.0, 1, 0, 1.0, 2.0, 0, "swap_in"],
    ]
    entry = summarize(spans)["core.swap_in"]
    assert entry["calls"] == 2
    assert entry["wall_s"] == 8.0
    assert entry["sim_s"] == 3.0
    assert entry["self_wall_s"] == 8.0
