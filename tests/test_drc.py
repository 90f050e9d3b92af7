"""Duplicate-request cache: unit behavior and end-to-end exactly-once.

The DRC is the correctness half of retransmission: a client that times
out and re-sends a non-idempotent call (REMOVE, RENAME, MKDIR,
exclusive CREATE) must not have it execute twice.  The unit tests pin
the cache protocol (miss / replay / park / abort-promotion / bounds);
the end-to-end tests force same-xid retransmission by setting the reply
timer *below* the WAN RTT and count actual executions at the kernel
NFS program — for the plain NFS path and for both SGFS proxy hops.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import Testbed, setup_nfs_v3
from repro.core.setups import setup_gfs, setup_sgfs
from repro.nfs.protocol import Proc
from repro.rpc.auth import AuthSys
from repro.rpc.drc import MISS, REPLAY, WAIT, DuplicateRequestCache, drc_key
from repro.rpc.messages import CallMessage
from repro.sim import Simulator
from repro.vfs.fs import Credentials

ROOT = Credentials(0, 0)


# -- unit: the cache protocol -------------------------------------------------


def test_miss_then_complete_then_replay():
    sim = Simulator()
    drc = DuplicateRequestCache(sim)
    state, _ = drc.check("k")
    assert state == MISS
    drc.complete("k", b"the reply")
    state, value = drc.check("k")
    assert state == REPLAY
    assert value == b"the reply"
    assert drc.replays == 1


def test_duplicate_parks_until_original_completes():
    sim = Simulator()
    drc = DuplicateRequestCache(sim)
    assert drc.check("k")[0] == MISS
    got = []

    def duplicate():
        state, ev = drc.check("k")
        assert state == WAIT
        cached = yield ev
        got.append(cached)

    def original():
        yield sim.timeout(1.0)
        drc.complete("k", b"computed once")

    sim.spawn(duplicate())
    sim.spawn(original())
    sim.run()
    assert got == [b"computed once"]
    assert drc.parks == 1


def test_abort_promotes_exactly_one_waiter():
    """If the original executor dies, one parked duplicate takes over
    (wakes with None) and the rest keep waiting for its reply."""
    sim = Simulator()
    drc = DuplicateRequestCache(sim)
    assert drc.check("k")[0] == MISS
    results = []

    def duplicate():
        _state, ev = drc.check("k")
        cached = yield ev
        if cached is None:
            results.append("promoted")
            drc.complete("k", b"recovered")
        else:
            results.append(cached)

    def crasher():
        yield sim.timeout(1.0)
        drc.abort("k")

    sim.spawn(duplicate())
    sim.spawn(duplicate())
    sim.spawn(crasher())
    sim.run()
    assert sorted(map(str, results)) == ["b'recovered'", "promoted"]


def test_once_runs_the_whole_protocol_around_an_execution():
    """The step every serving hop calls, through its four outcomes:
    miss -> complete, park -> replay, replay, abort -> a promoted
    duplicate executes."""
    from repro.sim.process import ProcessDied

    sim = Simulator()
    drc = DuplicateRequestCache(sim)
    runs = []

    def caller(key, tag, dies=False):
        def execute():
            runs.append(tag)
            yield sim.timeout(1.0)
            if dies:
                raise RuntimeError("executor died mid-call")
            return b"reply of " + tag

        return (yield from drc.once(key, execute))

    first = sim.spawn(caller("k", b"first"))
    parked = sim.spawn(caller("k", b"parked"))
    sim.run()
    assert first.result() == (b"reply of first", True)
    assert parked.result() == (b"reply of first", False)
    late = sim.spawn(caller("k", b"late"))
    sim.run()
    assert late.result() == (b"reply of first", False)
    assert runs == [b"first"]

    doomed = sim.spawn(caller("j", b"doomed", dies=True))
    heir = sim.spawn(caller("j", b"heir"))
    other = sim.spawn(caller("j", b"other"))
    sim.run()
    with pytest.raises(ProcessDied):
        doomed.result()
    assert heir.result() == (b"reply of heir", True)
    assert other.result() == (b"reply of heir", False)
    assert runs == [b"first", b"doomed", b"heir"]
    assert (drc.misses, drc.replays, drc.parks) == (2, 1, 3)


def test_lru_bound_and_eviction():
    sim = Simulator()
    drc = DuplicateRequestCache(sim, capacity=4)
    for i in range(10):
        drc.check(i)
        drc.complete(i, b"r%d" % i)
    assert len(drc) <= 4
    assert drc.evictions >= 6
    state, _ = drc.check(0)  # long evicted
    assert state == MISS
    state, value = drc.check(9)  # most recent survives
    assert state == REPLAY and value == b"r9"


def test_entries_age_out_on_virtual_clock():
    sim = Simulator()
    drc = DuplicateRequestCache(sim, max_age=10.0)

    def job():
        drc.check("k")
        drc.complete("k", b"r")
        yield sim.timeout(100.0)
        state, _ = drc.check("k")
        return state

    proc = sim.spawn(job())
    assert sim.run_until_complete(proc) == MISS
    assert drc.expirations >= 1


def test_drc_key_separates_client_identities():
    def call(uid, xid=77, args=b"same"):
        cred = AuthSys(machinename="node1", uid=uid, gid=uid).to_opaque()
        return CallMessage(xid, 100003, 3, int(Proc.REMOVE), cred=cred, args=args)

    assert drc_key(call(1)) == drc_key(call(1))
    assert drc_key(call(1)) != drc_key(call(2))  # other client, same xid
    assert drc_key(call(1)) != drc_key(call(1, xid=78))
    # same xid reused for a different payload (paranoia guard)
    assert drc_key(call(1)) != drc_key(call(1, args=b"different"))


# -- expiry: O(expired) bookkeeping against the full scan it replaced -----------


class _ScanningDrc(DuplicateRequestCache):
    """The reference: every ``check()`` scans the whole table for stale
    replies, as the cache did before it kept a completion-ordered queue."""

    def _expire(self):
        now = self.sim.now
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.reply is not None and now - entry.done_at > self.max_age
        ]
        for key in stale:
            del self._entries[key]
            self.expirations += 1


def _counters(drc):
    return (drc.misses, drc.replays, drc.parks, drc.evictions, drc.expirations,
            list(drc._entries))


@given(st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.sampled_from([0.0, 1.0, 4.0, 10.0, 10.5, 25.0])),
        st.tuples(st.sampled_from(["check", "complete", "abort"]), st.integers(0, 5)),
    ),
    max_size=60,
))
def test_expiry_matches_the_full_scan(ops):
    """Same expiry instants, evictions, replays and LRU order as the
    scan, for any interleaving — including replays that reorder the LRU
    dict without refreshing an entry's age, and keys evicted and then
    executed again."""
    new_sim, ref_sim = Simulator(), Simulator()
    new = DuplicateRequestCache(new_sim, capacity=3, max_age=10.0)
    ref = _ScanningDrc(ref_sim, capacity=3, max_age=10.0)
    for op, arg in ops:
        if op == "advance":
            new_sim.now += arg
            ref_sim.now += arg
        elif op == "check":
            assert new.check(arg)[0] == ref.check(arg)[0]
        elif op == "complete":
            new.complete(arg, b"reply")
            ref.complete(arg, b"reply")
        else:
            new.abort(arg)
            ref.abort(arg)
        assert _counters(new) == _counters(ref)
        assert len(new._completed) <= 2 * new.capacity + 1


def test_replayed_entry_expires_by_completion_time_not_last_use():
    """A replay moves the entry to the young end of the LRU order but
    does not refresh its age: it still expires max_age after it
    *completed*, on the first check() past that instant — even with
    younger, unexpired entries ahead of it in the table."""
    sim = Simulator()
    drc = DuplicateRequestCache(sim, max_age=10.0)
    drc.check("old")
    drc.complete("old", b"r-old")
    sim.now = 6.0
    drc.check("young")
    drc.complete("young", b"r-young")
    sim.now = 9.0
    assert drc.check("old") == (REPLAY, b"r-old")  # now last in LRU order
    sim.now = 10.0
    assert drc.check("other")[0] == MISS and drc.expirations == 0  # 10 is not > 10
    sim.now = 10.5
    assert drc.check("young") == (REPLAY, b"r-young")
    assert drc.expirations == 1 and len(drc) == 2  # "old" went, on this check
    assert drc.check("old")[0] == MISS


def test_in_progress_entries_never_expire():
    sim = Simulator()
    drc = DuplicateRequestCache(sim, max_age=10.0)
    assert drc.check("slow")[0] == MISS
    drc.check("done")
    drc.complete("done", b"r")
    sim.now = 1000.0
    state, _event = drc.check("slow")  # still the original execution's
    assert state == WAIT
    assert drc.expirations == 1 and len(drc) == 1
    drc.complete("slow", b"late")
    sim.now = 1010.0
    assert drc.check("slow") == (REPLAY, b"late")  # aged from completion
    sim.now = 1010.5
    assert drc.check("slow")[0] == MISS


# -- end-to-end: retransmitted non-idempotent calls execute once --------------


def _count_executions(program, proc):
    """Wrap ``program.handle`` to count executions of one procedure."""
    counts = []
    orig = program.handle

    def wrapped(p, args, call, ctx):
        if int(p) == int(proc):
            counts.append(p)
        return orig(p, args, call, ctx)

    program.handle = wrapped
    return counts


_OP_PROC = {
    "remove": Proc.REMOVE,
    "rename": Proc.RENAME,
    "mkdir": Proc.MKDIR,
    "create": Proc.CREATE,
}


def _do_op(cl, op):
    if op == "remove":
        yield from cl.unlink("/victim.bin")
    elif op == "rename":
        yield from cl.rename("/old.bin", "/new.bin")
    elif op == "mkdir":
        yield from cl.mkdir("/made")
    elif op == "create":
        yield from cl.create("/excl.bin", exclusive=True)


def _prepare_op(cl, op):
    if op == "remove":
        yield from cl.write_file("/victim.bin", b"to be removed")
    elif op == "rename":
        yield from cl.write_file("/old.bin", b"payload")


def _check_op_effect(tb, op):
    if op == "remove":
        with pytest.raises(Exception):
            tb.fs.resolve("/victim.bin", ROOT)
    elif op == "rename":
        assert bytes(tb.fs.resolve("/new.bin", ROOT).data) == b"payload"
    elif op == "mkdir":
        assert tb.fs.resolve("/made", ROOT) is not None
    elif op == "create":
        assert tb.fs.resolve("/excl.bin", ROOT) is not None


@pytest.mark.parametrize("op", sorted(_OP_PROC))
def test_nfs_retransmitted_call_executes_exactly_once(op):
    """Plain NFS: reply timer below the 80 ms RTT forces same-xid
    retransmissions; the kernel server's DRC absorbs them."""
    tb = Testbed.build(rtt=0.08)
    mount = setup_nfs_v3(tb)
    cl = mount.client

    def job():
        yield from _prepare_op(cl, op)  # prerequisites on a clean timer
        # now every call retransmits at least once before the reply lands
        cl.timeo = 0.02
        cl.timeo_retrans = 6
        counts = _count_executions(tb.nfs_program, _OP_PROC[op])
        yield from _do_op(cl, op)
        cl.timeo = None
        return counts

    counts = tb.run(job())
    assert len(counts) == 1  # executed exactly once despite duplicates
    drc = tb.nfs_rpc_server.drc
    assert drc.replays + drc.parks >= 1
    _check_op_effect(tb, op)


@pytest.mark.parametrize("builder", [setup_gfs, setup_sgfs],
                         ids=["gfs", "sgfs"])
def test_client_proxy_drc_absorbs_client_retransmissions(builder):
    """SGFS/GFS: the kernel client retransmits into the *client* proxy;
    its DRC must dedup before the call is ever forwarded twice."""
    tb = Testbed.build(rtt=0.08)
    mount = builder(tb)
    cl = mount.client

    def job():
        yield from cl.write_file("/victim.bin", b"bye")
        cl.timeo = 0.02  # loopback hop is fast, but the proxy's reply
        cl.timeo_retrans = 6  # waits on the WAN: timer fires first
        counts = _count_executions(tb.nfs_program, Proc.REMOVE)
        yield from cl.unlink("/victim.bin")
        cl.timeo = None
        # let the (blocking) proxy session drain the queued duplicates
        yield tb.sim.timeout(1.0)
        return counts

    counts = tb.run(job())
    assert len(counts) == 1
    drc = mount.client_proxy._drc
    assert drc.replays + drc.parks >= 1


@pytest.mark.parametrize("builder", [setup_gfs, setup_sgfs],
                         ids=["gfs", "sgfs"])
def test_server_proxy_drc_absorbs_proxy_retransmissions(builder):
    """SGFS/GFS: the client proxy's upstream forwarding retransmits over
    the WAN; the *server* proxy's DRC must dedup."""
    tb = Testbed.build(rtt=0.08)
    mount = builder(tb)
    cl = mount.client
    cp = mount.client_proxy

    def job():
        yield from cl.write_file("/victim.bin", b"bye")
        cp.upstream_timeo = 0.03  # below the proxy-to-proxy RTT
        cp.upstream_retrans = 3
        counts = _count_executions(tb.nfs_program, Proc.REMOVE)
        yield from cl.unlink("/victim.bin")
        cp.upstream_timeo = None
        # let the (blocking) proxy session drain the queued duplicates
        yield tb.sim.timeout(1.0)
        return counts

    counts = tb.run(job())
    assert len(counts) == 1
    drc = mount.server_proxy._drc
    assert drc.replays + drc.parks >= 1
