"""Retry/backoff timing: simulated seconds, never wall seconds."""

import random
import time

import pytest

from repro.clock import SimulatedClock
from repro.devices import InMemoryStore
from repro.errors import (
    RetryExhaustedError,
    StoreFullError,
    TransportError,
)
from repro.events import SwapRetryEvent
from repro.resilience import ResilienceConfig, RetryPolicy, run_with_retry
from tests.helpers import build_chain, chain_values, make_space


class Flaky:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures: int, exc: Exception = None) -> None:
        self.remaining = failures
        self.calls = 0
        self.exc = exc if exc is not None else TransportError("injected")

    def __call__(self) -> str:
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc
        return "ok"


def test_backoff_charged_to_simulated_clock_not_wall_time(monkeypatch):
    def no_sleep(seconds):
        pytest.fail(f"backoff slept {seconds} wall seconds")

    # WallClock.advance is the only path in the package that sleeps
    monkeypatch.setattr(time, "sleep", no_sleep)
    clock = SimulatedClock()
    policy = RetryPolicy(
        max_attempts=4, base_delay_s=10.0, multiplier=2.0, max_delay_s=100.0,
        jitter=0.0, deadline_s=None,
    )
    flaky = Flaky(3)
    result = run_with_retry(flaky, policy=policy, clock=clock)
    assert result == "ok"
    assert flaky.calls == 4
    # 10 + 20 + 40 simulated seconds of backoff, and no wall sleep at all
    assert clock.now() == pytest.approx(70.0)


def test_exhaustion_chains_the_last_failure():
    clock = SimulatedClock()
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.1, jitter=0.0)
    flaky = Flaky(99)
    with pytest.raises(RetryExhaustedError) as excinfo:
        run_with_retry(flaky, policy=policy, clock=clock)
    assert flaky.calls == 3
    assert isinstance(excinfo.value.__cause__, TransportError)
    # two backoffs happened before giving up
    assert clock.now() == pytest.approx(0.1 + 0.2)


def test_deadline_is_honored():
    clock = SimulatedClock()
    policy = RetryPolicy(
        max_attempts=10, base_delay_s=4.0, multiplier=2.0, jitter=0.0,
        deadline_s=5.0,
    )
    flaky = Flaky(99)
    with pytest.raises(RetryExhaustedError) as excinfo:
        run_with_retry(flaky, policy=policy, clock=clock)
    assert "deadline" in str(excinfo.value)
    # first backoff (4s) fit the 5s deadline; the second (8s) would not
    assert flaky.calls == 2
    assert clock.now() == pytest.approx(4.0)


def test_non_retryable_errors_propagate_immediately():
    clock = SimulatedClock()
    policy = RetryPolicy(max_attempts=5, base_delay_s=1.0, jitter=0.0)
    flaky = Flaky(99, exc=StoreFullError("permanently full"))
    with pytest.raises(StoreFullError):
        run_with_retry(flaky, policy=policy, clock=clock)
    assert flaky.calls == 1
    assert clock.now() == 0.0  # no backoff for a permanent refusal


def test_jitter_is_deterministic_under_a_seed():
    policy = RetryPolicy(jitter=0.5)
    delays_a = [policy.delay_for(n, random.Random(7)) for n in range(1, 5)]
    delays_b = [policy.delay_for(n, random.Random(7)) for n in range(1, 5)]
    assert delays_a == delays_b
    nominal = [policy.delay_for(n, None) for n in range(1, 5)]
    assert delays_a != nominal  # jitter actually moved the delays


class CountingStore(InMemoryStore):
    """A store whose ``store()`` fails the first N times."""

    def __init__(self, device_id: str, failures: int) -> None:
        super().__init__(device_id)
        self.failures = failures
        self.store_calls = 0

    def store(self, key: str, xml_text: str) -> None:
        self.store_calls += 1
        if self.store_calls <= self.failures:
            raise TransportError(f"{self.device_id}: transient blip")
        super().store(key, xml_text)


def test_manager_retries_transient_store_failures():
    space = make_space(with_store=False)
    store = CountingStore("blippy", failures=2)
    space.manager.add_store(store)
    space.manager.enable_resilience(
        ResilienceConfig(
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.1, jitter=0.0)
        )
    )
    handle = space.ingest(build_chain(10), cluster_size=5, root_name="h")
    space.swap_out(2)
    assert space.clusters()[2].is_swapped
    assert store.store_calls == 3
    assert space.manager.stats.retries == 2
    assert space.bus.count(SwapRetryEvent) == 2
    # both backoffs (0.1 + 0.2) were charged to the space's clock
    assert space.clock.now() == pytest.approx(0.1 + 0.2)
    assert chain_values(handle) == list(range(10))
