"""Processes: yielding, joining, failure propagation, interrupts."""

import pytest

from repro.sim import Interrupt, Simulator
from repro.sim.process import Process, ProcessDied, all_of, any_of


def test_process_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "done"

    p = sim.spawn(proc())
    assert sim.run_until_complete(p) == "done"
    assert p.result() == "done"
    assert not p.alive


def test_yield_none_reschedules_at_same_time():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield
        trace.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert trace == [0.0, 0.0]


def test_join_another_process():
    sim = Simulator()

    def worker():
        yield sim.timeout(2.0)
        return 7

    def boss():
        w = sim.spawn(worker())
        value = yield w
        return value * 10

    assert sim.run_until_complete(sim.spawn(boss())) == 70


def test_exception_propagates_to_joiner():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("worker died")

    def boss():
        try:
            yield sim.spawn(bad())
        except RuntimeError as exc:
            return f"caught: {exc}"

    assert sim.run_until_complete(sim.spawn(boss())) == "caught: worker died"


def test_result_of_failed_process_raises_process_died():
    sim = Simulator()

    def bad():
        yield sim.timeout(0.1)
        raise ValueError("nope")

    p = sim.spawn(bad())
    sim.run()
    with pytest.raises(ProcessDied):
        p.result()


def test_result_before_completion_raises():
    sim = Simulator()

    def slow():
        yield sim.timeout(10.0)

    p = sim.spawn(slow())
    with pytest.raises(Exception):
        p.result()


def test_yielding_garbage_fails_process():
    sim = Simulator()

    def bad():
        yield "not an event"

    p = sim.spawn(bad())
    sim.run()
    assert p.completion.failed
    assert isinstance(p.completion.exception, TypeError)


def test_interrupt_waiting_process():
    sim = Simulator()
    outcome = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            outcome.append(("interrupted", intr.cause, sim.now))

    p = sim.spawn(sleeper())
    sim.call_later(2.0, lambda: p.interrupt("wake up"))
    sim.run()
    assert outcome == [("interrupted", "wake up", 2.0)]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(0.1)

    p = sim.spawn(quick())
    sim.run()
    p.interrupt("too late")  # must not raise
    sim.run()


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_all_of_collects_in_order():
    sim = Simulator()

    def worker(delay, value):
        yield sim.timeout(delay)
        return value

    def main():
        procs = [sim.spawn(worker(3 - i, i)) for i in range(3)]
        values = yield all_of(sim, procs)
        return values

    assert sim.run_until_complete(sim.spawn(main())) == [0, 1, 2]


def test_all_of_empty_list():
    sim = Simulator()

    def main():
        values = yield all_of(sim, [])
        return values

    assert sim.run_until_complete(sim.spawn(main())) == []


def test_all_of_fails_fast():
    sim = Simulator()

    def good():
        yield sim.timeout(10.0)

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("first failure")

    def main():
        try:
            yield all_of(sim, [sim.spawn(good()), sim.spawn(bad())])
        except RuntimeError:
            return sim.now

    assert sim.run_until_complete(sim.spawn(main())) == 1.0


def test_any_of_returns_first():
    sim = Simulator()

    def worker(delay, value):
        yield sim.timeout(delay)
        return value

    def main():
        idx, value = yield any_of(
            sim, [sim.spawn(worker(5, "slow")), sim.spawn(worker(1, "fast"))]
        )
        return idx, value, sim.now

    assert sim.run_until_complete(sim.spawn(main())) == (1, "fast", 1.0)


def test_nested_yield_from_helpers():
    sim = Simulator()

    def inner(n):
        yield sim.timeout(n)
        return n * 2

    def outer():
        a = yield from inner(1)
        b = yield from inner(2)
        return a + b

    assert sim.run_until_complete(sim.spawn(outer())) == 6
    assert sim.now == 3.0


def test_simulator_names_the_deaths_nobody_observed():
    """A process that dies of an exception is kept; it stops being
    *unobserved* once anyone waits on it, joins it afterwards, asks for
    its ``result()`` or reads ``completion.exception``."""
    sim = Simulator()

    def dies(what):
        yield sim.timeout(1.0)
        raise ValueError(what)

    def joiner(proc):
        try:
            yield proc
        except ValueError:
            pass

    lonely = sim.spawn(dies("lonely"), name="lonely")
    awaited = sim.spawn(dies("awaited"), name="awaited")
    sim.spawn(joiner(awaited))  # a waiter at the time of death
    late, asked, read = (sim.spawn(dies(n), name=n) for n in ("late", "asked", "read"))
    fine = sim.spawn(_returns(sim), name="fine")
    sim.run()
    assert [p.name for p in sim.died] == ["lonely", "awaited", "late", "asked", "read"]
    assert sim.unobserved_deaths() == [lonely, late, asked, read]
    assert lonely.completion.failed  # looking at the flag is not observing
    sim.spawn(joiner(late))  # a join after the fact
    sim.run()
    with pytest.raises(ProcessDied):
        asked.result()
    assert isinstance(read.completion.exception, ValueError)
    assert sim.unobserved_deaths() == [lonely]
    assert fine.result() == "ok"


def _returns(sim):
    yield sim.timeout(0.5)
    return "ok"
