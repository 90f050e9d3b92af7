"""CPU resource: serialization, speed scaling, ledger accounting."""

import pytest

from repro.sim import CPU, Interrupt, Simulator
from repro.sim.core import SimError
from repro.sim.cpu import CpuLedger


def test_consume_takes_time():
    sim = Simulator()
    cpu = CPU(sim)

    def main():
        yield from cpu.consume(2.0, "work")
        return sim.now

    assert sim.run_until_complete(sim.spawn(main())) == 2.0
    assert cpu.busy_total("work") == 2.0


def test_speed_scales_duration():
    sim = Simulator()
    cpu = CPU(sim, speed=2.0)

    def main():
        yield from cpu.consume(2.0, "work")
        return sim.now

    assert sim.run_until_complete(sim.spawn(main())) == 1.0


def test_zero_speed_rejected():
    with pytest.raises(SimError):
        CPU(Simulator(), speed=0.0)


def test_negative_consume_rejected():
    sim = Simulator()
    cpu = CPU(sim)

    def main():
        yield from cpu.consume(-1.0)

    p = sim.spawn(main())
    sim.run()
    assert p.completion.failed


def test_single_core_serializes():
    sim = Simulator()
    cpu = CPU(sim)

    def worker():
        yield from cpu.consume(1.0, "w")

    for _ in range(3):
        sim.spawn(worker())
    sim.run()
    assert sim.now == 3.0
    assert cpu.busy_total("w") == 3.0


def test_accounts_tracked_separately():
    sim = Simulator()
    cpu = CPU(sim)

    def main():
        yield from cpu.consume(1.0, "alpha")
        yield from cpu.consume(2.0, "beta")

    sim.spawn(main())
    sim.run()
    assert cpu.busy_total("alpha") == 1.0
    assert cpu.busy_total("beta") == 2.0
    assert set(cpu.ledger.accounts()) == {"alpha", "beta"}


def test_ledger_window_query():
    ledger = CpuLedger()
    ledger.record("a", 1.0, 3.0)
    ledger.record("a", 5.0, 6.0)
    assert ledger.busy_in_window("a", 0.0, 10.0) == 3.0
    assert ledger.busy_in_window("a", 2.0, 5.5) == 1.5
    assert ledger.busy_in_window("a", 3.0, 5.0) == 0.0
    assert ledger.busy_in_window("a", 5.0, 5.0) == 0.0  # empty window
    assert ledger.busy_in_window("missing", 0.0, 10.0) == 0.0


def test_ledger_rejects_negative_interval():
    with pytest.raises(SimError):
        CpuLedger().record("a", 2.0, 1.0)


def test_utilization_series_percentages():
    ledger = CpuLedger()
    ledger.record("p", 0.0, 2.5)  # busy 2.5s of the first 5s window
    series = ledger.utilization_series("p", t_end=10.0, window=5.0)
    assert series == [(5.0, 50.0), (10.0, 0.0)]


def test_utilization_series_partial_last_window():
    ledger = CpuLedger()
    ledger.record("p", 5.0, 6.0)
    series = ledger.utilization_series("p", t_end=7.0, window=5.0)
    assert series[0] == (5.0, 0.0)
    t, pct = series[1]
    assert t == 7.0 and abs(pct - 50.0) < 1e-9


def test_contention_interleaves_fifo():
    sim = Simulator()
    cpu = CPU(sim)
    done = []

    def worker(tag, work):
        yield from cpu.consume(work, tag)
        done.append((tag, sim.now))

    sim.spawn(worker("a", 1.0))
    sim.spawn(worker("b", 0.5))
    sim.run()
    assert done == [("a", 1.0), ("b", 1.5)]


# -- multi-core dispatch ------------------------------------------------------


def test_two_cores_run_in_parallel():
    sim = Simulator()
    cpu = CPU(sim, cores=2)

    def worker():
        yield from cpu.consume(1.0, "w")

    for _ in range(4):
        sim.spawn(worker())
    sim.run()
    assert sim.now == 2.0  # 4 x 1s over 2 cores
    assert cpu.busy_total("w") == 4.0


def test_multicore_fifo_is_deterministic():
    def run():
        sim = Simulator()
        cpu = CPU(sim, cores=2)
        done = []

        def worker(tag, work):
            yield from cpu.consume(work, tag)
            done.append((tag, sim.now))

        for i, work in enumerate((1.0, 0.4, 0.7, 0.2, 0.9)):
            sim.spawn(worker(f"t{i}", work))
        sim.run()
        return done

    first = run()
    assert first == run()
    # t0/t1 grab the cores; t1 finishes at 0.4 and t2 (earliest waiter)
    # takes its core, and so on -- stable ticket order.
    assert first[0] == ("t1", 0.4)


def test_affinity_pins_to_one_core():
    sim = Simulator()
    cpu = CPU(sim, cores=4)

    def worker():
        yield from cpu.consume(1.0, "pinned", affinity=2)

    for _ in range(3):
        sim.spawn(worker())
    sim.run()
    # All three serialized on core 2 even with three other cores idle.
    assert sim.now == 3.0
    assert cpu.ledger.busy_by_core(0.0, 3.0) == {2: 3.0}


def test_affinity_wraps_modulo_cores():
    sim = Simulator()
    cpu = CPU(sim, cores=2)

    def worker(aff):
        yield from cpu.consume(1.0, "w", affinity=aff)

    sim.spawn(worker(0))
    sim.spawn(worker(5))  # 5 % 2 == 1 -> the other core
    sim.run()
    assert sim.now == 1.0
    assert cpu.ledger.busy_by_core(0.0, 1.0) == {0: 1.0, 1: 1.0}


def test_affinity_ignored_on_single_core():
    sim = Simulator()
    cpu = CPU(sim)

    def main():
        yield from cpu.consume(1.0, "w", affinity=7)

    sim.run_until_complete(sim.spawn(main()))
    assert cpu.busy_total("w") == 1.0


def test_release_prefers_earliest_ticket_across_lanes():
    sim = Simulator()
    cpu = CPU(sim, cores=2)
    done = []

    def worker(tag, aff=None):
        yield from cpu.consume(1.0, tag, affinity=aff)
        done.append(tag)

    # Fill both cores, then queue: pinned-to-0 first, un-pinned second.
    sim.spawn(worker("a", aff=0))
    sim.spawn(worker("b", aff=1))
    sim.spawn(worker("pinned0", aff=0))
    sim.spawn(worker("shared"))
    sim.run()
    # Core 0 frees at t=1; its lane's waiter enqueued before the shared
    # one, so it wins; "shared" takes core 1 at the same instant.
    assert done[:2] == ["a", "b"]
    assert set(done[2:]) == {"pinned0", "shared"}
    assert sim.now == 2.0


def test_single_core_serves_pinned_and_unpinned_in_arrival_order():
    sim = Simulator()
    cpu = CPU(sim)
    done = []

    def worker(tag, aff):
        yield from cpu.consume(1.0, tag, affinity=aff)
        done.append((tag, sim.now))

    # Every pin lands on core 0, whose lane and the shared queue are
    # merged by ticket: one strict-arrival FIFO, whatever the affinity.
    affs = [None, 3, None, 0, 7, None]
    for i, aff in enumerate(affs):
        sim.spawn(worker(f"t{i}", aff))
    sim.run()
    assert done == [(f"t{i}", i + 1.0) for i in range(len(affs))]
    assert cpu.wait_count == len(affs) - 1
    assert cpu.ledger.busy_by_core(0.0, 6.0) == {0: 6.0}


def test_single_core_schedule_matches_legacy():
    def run(cores):
        sim = Simulator()
        cpu = CPU(sim, cores=cores)
        done = []

        def worker(tag, work):
            yield from cpu.consume(work, tag)
            done.append((tag, sim.now))

        for i, work in enumerate((0.3, 0.1, 0.2)):
            sim.spawn(worker(f"t{i}", work))
        sim.run()
        return done, sim.now

    assert run(1) == run(cores=1)


def test_ledger_busy_by_core_windows():
    ledger = CpuLedger()
    ledger.record("a", 0.0, 2.0, core=0)
    ledger.record("b", 1.0, 3.0, core=1)
    assert ledger.busy_by_core(0.0, 3.0) == {0: 2.0, 1: 2.0}
    assert ledger.busy_by_core(1.5, 2.5) == {0: 0.5, 1: 1.0}
    assert ledger.busy_by_core(5.0, 6.0) == {}
    assert ledger.busy_by_core(3.0, 3.0) == {}


def test_ledger_parallel_busy_can_exceed_wall_time():
    ledger = CpuLedger()
    ledger.record("a", 0.0, 1.0, core=0)
    ledger.record("a", 0.0, 1.0, core=1)
    assert ledger.busy_in_window("a", 0.0, 1.0) == 2.0
    assert ledger.busy_all_in_window(0.0, 1.0) == 2.0


def test_ledger_children_index_matches_rescan():
    ledger = CpuLedger()
    ledger.record("proxy", 0.0, 1.0)
    ledger.record("proxy/seal:aes", 1.0, 2.0)
    ledger.record("proxy/handshake", 2.0, 3.0)
    ledger.record("proxyish", 3.0, 4.0)  # shares a prefix, not a child
    assert ledger.total("proxy") == 3.0
    assert ledger.total("proxyish") == 1.0
    assert ledger.total_exact("proxy") == 1.0
    # The index answers prefix-only queries too (no exact key).
    ledger2 = CpuLedger()
    ledger2.record("p/x", 0.0, 1.0)
    ledger2.record("p/y", 0.0, 2.0)
    assert ledger2.total("p") == 3.0


def test_multicore_wait_telemetry_mirrors_semaphore():
    from repro.obs import Registry

    sim = Simulator(obs=Registry())
    cpu = CPU(sim, name="cpu:srv", cores=2)

    def worker():
        yield from cpu.consume(1.0, "w")

    for _ in range(4):
        sim.spawn(worker())
    sim.run()
    assert cpu.wait_count == 2
    stats = sim.obs.snapshot()
    assert stats["sync"]["sem_waits{lock=cpu:srv.core}"] == 2


def test_zero_cores_rejected():
    with pytest.raises(SimError):
        CPU(Simulator(), cores=0)


# -- the CPU owns the busy interval --------------------------------------------


def _kernel_cost(n_procs, consumes):
    """(events dispatched, process wake-ups) of ``n_procs`` processes
    that each ``consume`` ``consumes`` times on one single-core CPU."""
    sim = Simulator()
    cpu = CPU(sim)

    def worker():
        for _ in range(consumes):
            yield from cpu.consume(1.0, "w")

    for _ in range(n_procs):
        sim.spawn(worker())
    sim.run()
    return sim.events_dispatched, sim.process_wakeups


def test_uncontended_consume_costs_one_event_and_one_wakeup():
    idle_events, idle_wakeups = _kernel_cost(1, consumes=0)  # kick + completion
    events, wakeups = _kernel_cost(1, consumes=1)
    assert (events - idle_events, wakeups - idle_wakeups) == (1, 1)


def test_contended_consume_costs_one_event_and_one_wakeup_each():
    n = 5
    idle_events, idle_wakeups = _kernel_cost(n, consumes=0)
    events, wakeups = _kernel_cost(n, consumes=1)  # n - 1 of them queue
    assert (events - idle_events, wakeups - idle_wakeups) == (n, n)


def test_same_instant_grants_finish_in_grant_order():
    """Per-core ledger captured from the two-event kernel this replaced.
    At t=1 core 0 passes from ``a`` to its queued pinned waiter ``b``,
    and ``a``, resuming in the same instant, takes an idle core
    un-pinned.  ``b`` was granted first, so ``b`` finishes first at t=2
    and is ahead of ``a`` for core 3 — a kernel that schedules the idle
    grant at the call but the hand-over a queue round trip later swaps
    them."""
    sim = Simulator()
    cpu = CPU(sim, cores=4)

    def worker(tag, affinities):
        for aff in affinities:
            yield from cpu.consume(1.0, tag, affinity=aff)

    for tag, affinities in [("a", (0, None, 3)), ("b", (0, 3)), ("c", (None, None)),
                            ("d", (1, None)), ("e", (None, 3))]:
        sim.spawn(worker(tag, affinities), name=tag)
    sim.run()
    by_core = {}
    for account in cpu.ledger.accounts():
        for core, ivs in cpu.ledger._intervals[account].items():
            by_core.setdefault(core, []).extend((s, e, account) for s, e in ivs)
    assert {core: sorted(rows) for core, rows in by_core.items()} == {
        0: [(0.0, 1.0, "a"), (1.0, 2.0, "b"), (2.0, 3.0, "d")],
        1: [(0.0, 1.0, "c"), (1.0, 2.0, "d")],
        2: [(0.0, 1.0, "e"), (1.0, 2.0, "c")],
        3: [(1.0, 2.0, "a"), (2.0, 3.0, "e"), (3.0, 4.0, "b"), (4.0, 5.0, "a")],
    }


def _interrupt_victim_at(when, victim_work):
    """A holder runs 1 s; a victim queues behind it (or, with the holder
    gone, runs) and is interrupted at ``when``; a third process arrives
    at t=5.  Returns (cpu, log)."""
    sim = Simulator()
    cpu = CPU(sim)
    log = []

    def holder():
        yield from cpu.consume(1.0, "holder")

    def victim():
        try:
            yield from cpu.consume(victim_work, "victim")
            log.append(("victim-done", sim.now))
        except Interrupt:
            log.append(("victim-interrupted", sim.now))

    def late():
        yield sim.timeout(5.0)
        yield from cpu.consume(1.0, "late")
        log.append(("late-done", sim.now))

    sim.spawn(holder())
    v = sim.spawn(victim())
    sim.spawn(late())
    sim.call_at(when, v.interrupt)
    sim.run()
    assert cpu._busy == [False]
    return cpu, log


def test_interrupt_while_queued_does_not_leak_the_core():
    """The two-event kernel leaked the core here for ever: the victim's
    grant went to nobody and no later ``consume`` completed."""
    cpu, log = _interrupt_victim_at(0.5, victim_work=1.0)
    assert log == [("victim-interrupted", 0.5), ("late-done", 6.0)]
    # The abandoned interval still ran, after the holder's, and is booked.
    assert cpu.ledger._intervals["victim"] == {0: [(1.0, 2.0)]}


def test_interrupt_while_running_books_the_whole_interval():
    cpu, log = _interrupt_victim_at(2.0, victim_work=3.0)
    assert log == [("victim-interrupted", 2.0), ("late-done", 6.0)]
    # Work handed to a core is not recalled: the core is busy until t=4,
    # so the late arrival (t=5) is not delayed, and the ledger shows it.
    assert cpu.ledger._intervals["victim"] == {0: [(1.0, 4.0)]}
