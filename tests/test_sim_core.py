"""Kernel event loop: events, timeouts, ordering, determinism."""

import pytest

from repro.sim import Simulator, SimError
from repro.sim.core import Event


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    assert sim.run() == 2.5


def test_run_until_deadline_stops_early():
    sim = Simulator()
    sim.timeout(10.0)
    assert sim.run(until=3.0) == 3.0
    assert sim.now == 3.0


def test_run_until_beyond_last_event_advances_to_deadline():
    sim = Simulator()
    sim.timeout(1.0)
    assert sim.run(until=5.0) == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.timeout(-1.0)


def test_simultaneous_events_fire_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.call_later(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_call_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_call_at_in_past_rejected():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimError):
        sim.call_at(1.0, lambda: None)


def test_event_succeed_carries_value():
    sim = Simulator()
    ev = sim.event("x")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    sim.run()
    assert got == [42]
    assert ev.ok and ev.triggered and not ev.failed


def test_event_fail_carries_exception():
    sim = Simulator()
    ev = sim.event()
    boom = ValueError("boom")
    ev.fail(boom)
    sim.run()
    assert ev.failed and ev.exception is boom


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)
    with pytest.raises(SimError):
        ev.fail(ValueError())


def test_event_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event("pending")
    with pytest.raises(SimError):
        _ = ev.value


def test_callback_after_processing_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("late")
    sim.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == ["late"]


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(7.0)
    sim.timeout(3.0)
    assert sim.peek() == 3.0
    sim.run()
    assert sim.peek() == float("inf")


def test_a_cancelled_timeout_never_fires():
    sim = Simulator()
    fired = []
    timers = [sim.timeout(delay) for delay in (0.0, 1.0, 2.0, 3.0)]
    for timer in timers:
        timer.add_callback(lambda ev: fired.append(sim.now))
    sim.cancel(timers[0])  # the zero-delay lane
    sim.cancel(timers[2])  # the heap
    assert sim.run() == 3.0
    assert fired == [1.0, 3.0]
    assert sim.peek() == float("inf")


def test_max_events_guard():
    sim = Simulator()
    armed = [True]

    def rearm():
        if armed:
            sim.call_later(0.001, rearm)

    rearm()
    with pytest.raises(SimError, match="max_events"):
        sim.run(max_events=100)
    armed.clear()  # the timer now fires once more and stops
    sim.run()
    assert sim.peek() == float("inf")


def test_deterministic_replay():
    def build_and_run():
        sim = Simulator()
        trace = []

        def proc(name, delay):
            for i in range(3):
                yield sim.timeout(delay)
                trace.append((round(sim.now, 9), name, i))

        sim.spawn(proc("a", 0.3))
        sim.spawn(proc("b", 0.2))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def inner():
        try:
            sim.run()
        except SimError as exc:
            errors.append(exc)

    sim.call_later(1.0, inner)
    sim.run()
    assert len(errors) == 1


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    ev = sim.event("never")
    with pytest.raises(SimError, match="deadlock"):
        sim.run_until_event(ev)
