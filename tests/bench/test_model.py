"""The analytical traversal-cost model."""

import pytest

from repro.bench.model import (
    TraversalModel,
    _extra_proxy_probability,
    fit_traversal_model,
    holdout_error,
)


def _synthesize(objects, t_step, t_boundary, t_proxy=0.0, inner_depth=0, sizes=(20, 50, 100)):
    cells = {None: objects * t_step}
    for size in sizes:
        cells[size] = (
            objects * t_step
            + (objects / size) * t_boundary
            + objects * _extra_proxy_probability(size, inner_depth) * t_proxy
        )
    return cells


def test_fit_recovers_exact_parameters():
    cells = _synthesize(10_000, t_step=0.0002, t_boundary=0.003)
    model = fit_traversal_model(10_000, cells)
    assert model.t_step_ms == pytest.approx(0.0002, rel=1e-6)
    assert model.t_boundary_ms == pytest.approx(0.003, rel=1e-6)
    assert model.r_squared == pytest.approx(1.0)


def test_fit_with_proxy_term():
    # a size below the inner depth is required to separate the boundary
    # and proxy terms (above it, min(1, d/s) is proportional to 1/s)
    cells = _synthesize(
        10_000, t_step=0.001, t_boundary=0.002, t_proxy=0.004,
        inner_depth=10, sizes=(5, 20, 50, 100),
    )
    model = fit_traversal_model(10_000, cells, inner_depth=10)
    assert model.t_proxy_ms == pytest.approx(0.004, rel=1e-6)
    assert model.predict_ms(20) == pytest.approx(cells[20], rel=1e-6)
    assert model.predict_ms(5) == pytest.approx(cells[5], rel=1e-6)


def test_predictions_monotone_in_cluster_size():
    model = TraversalModel(
        objects=10_000, t_step_ms=0.0002, t_boundary_ms=0.003,
        t_proxy_ms=0.0, inner_depth=0, r_squared=1.0,
    )
    assert model.predict_ms(None) < model.predict_ms(100) < model.predict_ms(20)


def test_extra_proxy_probability_matches_paper_claim():
    # "roughly half of the object references returned by the inner
    # recursions" cross a boundary at depth 10, cluster size 20
    assert _extra_proxy_probability(20, 10) == 0.5
    assert _extra_proxy_probability(5, 10) == 1.0
    assert _extra_proxy_probability(100, 0) == 0.0


def test_holdout_prediction():
    cells = _synthesize(10_000, t_step=0.0005, t_boundary=0.005)
    predicted, relative_error, model = holdout_error(10_000, cells, holdout=50)
    assert relative_error < 1e-9
    assert predicted == pytest.approx(cells[50])


def test_fit_requires_noswap_cell():
    with pytest.raises(ValueError):
        fit_traversal_model(100, {20: 5.0})


def test_fit_requires_enough_sized_cells():
    with pytest.raises(ValueError):
        fit_traversal_model(100, {None: 1.0, 20: 5.0}, inner_depth=10)


def _crossings(space):
    if space is None:
        return 0
    return sum(cluster.crossings for cluster in space.clusters().values())


def test_fit_on_real_measurement(record_property):
    """Fit the model to a real (small) Figure 5 A1 run: it must explain
    the measured curve and predict the held-out column.

    The fitted cost is counted, not timed: one unit per traversal step
    plus one per boundary crossing the proxies recorded, so the fit
    checks that the runtime's crossings really follow the model's
    ``n / s`` term.  Host wall time at these cell sizes is dominated by
    scheduling noise on a shared machine (fits of R^2 0.3 were seen), so
    it is only reported, as a ``wall_ms_*`` test property per cell.
    """
    import time

    from repro.bench import figure5

    objects = 5_000
    cells = {}
    for size in (5, 10, 25, 50, None):
        handle, space = figure5.make_fixture(objects, size)
        before = _crossings(space)
        started = time.perf_counter()
        figure5.test_a1(handle, objects, space)
        wall_ms = (time.perf_counter() - started) * 1000.0
        cells[size] = objects + _crossings(space) - before
        record_property(f"wall_ms_{size or 'noswap'}", wall_ms)
    model = fit_traversal_model(objects, cells)
    predicted, relative_error, _ = holdout_error(objects, cells, holdout=25)
    assert model.t_step_ms > 0
    assert model.t_boundary_ms > 0
    assert model.r_squared > 0.7
    assert relative_error < 0.5


def test_describe():
    model = fit_traversal_model(
        1_000, _synthesize(1_000, t_step=0.001, t_boundary=0.01)
    )
    text = model.describe()
    assert "R^2" in text and "T(s)" in text
