"""Event lifecycle tests for the scheduler's zero-delay lane.

The kernel dispatches from two lanes — a binary heap for positive
delays and a FIFO deque for entries firing "now".  These tests pin the
lane-selection rules and the Event semantics that the rest of the stack
leans on: callback registration after firing, interrupting a process
while its resume is already queued, and the ordering of failures
relative to successes triggered at the same instant.  The last section
pins what the data path owes the kernel in return: no event round trip
for a wait that is already satisfied, and dispatch counters that cost
an integer add whether or not anyone reads them.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.harness import Scenario, run
from repro.sim.core import Event, Interrupt, SimError, Simulator
from repro.sim.process import Process
from repro.workloads.postmark import PostMark, PostMarkConfig


# -- lane selection and cross-lane ordering -----------------------------------


def test_zero_delay_entries_avoid_the_heap():
    sim = Simulator()
    sim.timeout(0.0)
    sim.event("e").succeed()
    sim.spawn((_ for _ in ()), name="p")  # start kick rides the zero-delay lane
    assert sim.heap_pushes == 0
    sim.timeout(0.5)
    assert sim.heap_pushes == 1


def test_cross_lane_ordering_is_seq_fifo():
    """At equal timestamps the earlier-scheduled entry fires first, even
    when one lives on the heap and the other on the zero-delay lane."""
    sim = Simulator()
    order = []
    t1 = sim.timeout(1.0)  # heap, seq 1
    t2 = sim.timeout(1.0)  # heap, seq 2

    def first(_e):
        order.append("t1")
        # Queued at t=1.0 with a seq *after* t2's: must fire after t2.
        sim.event("z").succeed().add_callback(lambda _e: order.append("zero"))

    t1.add_callback(first)
    t2.add_callback(lambda _e: order.append("t2"))
    sim.run()
    assert order == ["t1", "t2", "zero"]
    assert sim.now == 1.0


def test_peek_sees_both_lanes():
    sim = Simulator()
    sim.timeout(5.0)
    assert sim.peek() == 5.0
    sim.event("now").succeed()
    assert sim.peek() == 0.0


# -- callback-after-fire ------------------------------------------------------


def test_callback_added_between_trigger_and_fire_runs_at_fire():
    sim = Simulator()
    calls = []
    ev = sim.event("e").succeed(42)
    ev.add_callback(lambda e: calls.append(("pre", e.value)))
    assert calls == []  # queued, not yet fired
    sim.run()
    assert calls == [("pre", 42)]


def test_callback_added_after_fire_runs_immediately():
    sim = Simulator()
    calls = []
    ev = sim.event("e").succeed("v")
    sim.run()
    ev.add_callback(lambda e: calls.append(e.value))
    assert calls == ["v"]  # synchronous: no new queue entry
    assert not (sim._fifo or sim._heap)


def test_callback_store_upgrades_and_preserves_order():
    sim = Simulator()
    calls = []
    ev = sim.event("e")
    ev.add_callback(lambda e: calls.append(1))   # None -> single callable
    ev.add_callback(lambda e: calls.append(2))   # single -> list
    ev.add_callback(lambda e: calls.append(3))
    ev.succeed()
    sim.run()
    assert calls == [1, 2, 3]


def test_event_is_one_shot():
    sim = Simulator()
    ev = sim.event("e").succeed()
    with pytest.raises(SimError):
        ev.succeed()
    with pytest.raises(SimError):
        ev.fail(RuntimeError("nope"))


# -- interrupt-while-queued ---------------------------------------------------


def test_interrupt_process_queued_on_floor_yield():
    """A floor-yielded process sits directly on the zero-delay lane; an
    interrupt must queue *behind* the pending resume, not replace it."""
    sim = Simulator()
    log = []

    def proc():
        try:
            yield None
            log.append("resumed")
            yield sim.timeout(10.0)
            log.append("unreachable")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause))

    p = sim.spawn(proc(), name="floor")
    sim.step()  # start kick: runs to `yield None`, requeues itself
    p.interrupt("boom")
    sim.run()
    assert log == ["resumed", ("interrupted", "boom")]
    assert p.completion.ok


def test_interrupt_races_with_already_triggered_event():
    """If the awaited event has triggered but not yet fired, the wakeup
    wins and the late interrupt is a no-op on the finished process."""
    sim = Simulator()
    log = []

    def proc(ev):
        try:
            log.append((yield ev))
        except Interrupt:
            log.append("interrupted")

    ev = sim.event("e")
    p = sim.spawn(proc(ev), name="racer")
    sim.step()  # park on ev
    ev.succeed("won")
    p.interrupt("late")
    sim.run()
    assert log == ["won"]
    assert p.completion.ok


def test_interrupt_detaches_from_pending_event():
    sim = Simulator()
    log = []

    def proc(ev):
        try:
            yield ev
        except Interrupt:
            log.append("interrupted")
            yield sim.timeout(1.0)
        log.append("done")

    ev = sim.event("never-mind")
    p = sim.spawn(proc(ev), name="waiter")
    sim.step()  # park on ev
    p.interrupt()
    sim.run()
    # The original event firing later must not resume the process again.
    ev.succeed("stale")
    sim.run()
    assert log == ["interrupted", "done"]
    assert p.completion.ok


# -- fail ordering ------------------------------------------------------------


def test_failures_fire_in_trigger_order():
    """succeed() and fail() share the zero-delay lane: waiters resume in
    the order the events were triggered, not the order they were made."""
    sim = Simulator()
    log = []

    def waiter(key, ev):
        try:
            yield ev
            log.append((key, "ok"))
        except RuntimeError:
            log.append((key, "fail"))

    ev1, ev2 = sim.event("one"), sim.event("two")
    sim.spawn(waiter(1, ev1), name="w1")
    sim.spawn(waiter(2, ev2), name="w2")
    ev2.fail(RuntimeError("second event, first trigger"))
    ev1.succeed()
    sim.run()
    assert log == [(2, "fail"), (1, "ok")]


def test_fail_callbacks_see_exception_before_value():
    sim = Simulator()
    seen = []
    ev = sim.event("bad")
    ev.add_callback(lambda e: seen.append((e.failed, type(e.exception))))
    ev.fail(ValueError("x"))
    assert ev.failed and not ev.ok
    sim.run()
    assert seen == [(True, ValueError)]


def test_run_until_event_raises_failure():
    sim = Simulator()
    ev = sim.event("boom")
    sim.call_later(0.0, lambda: ev.fail(RuntimeError("kapow")))
    with pytest.raises(RuntimeError, match="kapow"):
        sim.run_until_event(ev)


# -- satisfied waits and the kernel's own counters -----------------------------

SMALL_POSTMARK = PostMarkConfig(directories=5, files=25, transactions=50)


def test_no_process_waits_on_an_already_satisfied_acquire(monkeypatch):
    """An idle core, a free spindle or I/O slot and an open gate are
    taken synchronously: across a whole sgfs-aes PostMark no process
    parks on an ``acq:*`` / ``wait:*`` event that had already triggered
    (a queue round trip each — a fifth of this workload's events before
    the CPU owned its intervals)."""
    satisfied = Counter()
    add_callback = Event.add_callback

    def spy(self, fn):
        if (isinstance(fn, Process) and self.triggered
                and self.name.startswith(("acq:", "wait:"))):
            satisfied[self.name] += 1
        add_callback(self, fn)

    monkeypatch.setattr(Event, "add_callback", spy)
    run(Scenario("sgfs-aes"), lambda: PostMark(SMALL_POSTMARK))
    assert not satisfied


def test_kernel_counters_are_exported_only_by_a_live_registry():
    postmark = lambda: PostMark(SMALL_POSTMARK)
    off = run(Scenario("sgfs-aes"), postmark, telemetry=False)
    on = run(Scenario("sgfs-aes"), postmark, telemetry=True)
    assert off.stats == {}
    assert set(on.stats["sim"]) == {"events_dispatched", "heap_pushes",
                                    "process_wakeups"}
    assert all(type(v) is int and v > 0 for v in on.stats["sim"].values())
    assert off.total == on.total
