"""RPC client/server endpoints over the simulated network."""

import pytest

from repro.net import Host, Network
from repro.rpc import RpcClient, RpcProgram, RpcServer, StreamTransport
from repro.rpc.auth import AuthSys
from repro.rpc.costs import EndpointCost
from repro.rpc.errors import (
    RpcError,
    RpcGarbageArgs,
    RpcProcUnavail,
    RpcProgMismatch,
    RpcProgUnavail,
    RpcSystemError,
)
from repro.net.errors import ConnectionReset
from repro.rpc.messages import CallMessage
from repro.rpc.server import WORKERS, ProcUnavailable
from repro.rpc.transport import Transport
from repro.sim import Simulator
from repro.sim.sync import Channel, ChannelClosed
from repro.xdr import Packer, Unpacker, XdrError

PROG = 300_000


class Echo(RpcProgram):
    prog, vers = PROG, 1

    def __init__(self, sim):
        self.sim = sim
        self.seen_uids = []

    def handle(self, proc, args, call, ctx):
        if proc == 99:
            raise ProcUnavailable()
        if proc == 98:
            raise XdrError("cannot decode")
        if proc == 97:
            raise RuntimeError("handler crash")
        if call.cred.flavor == 1:
            self.seen_uids.append(AuthSys.from_opaque(call.cred).uid)
        yield self.sim.timeout(0.001)
        u = Unpacker(args)
        p = Packer()
        p.pack_string(u.unpack_string()[::-1])
        return p.get_bytes()


def stack():
    sim = Simulator()
    net = Network(sim)
    c = Host(sim, net, "c")
    s = Host(sim, net, "s")
    net.connect("c", "s", latency=0.001)
    program = Echo(sim)
    server = RpcServer(sim, cpu=s.cpu)
    server.register(program)
    server.serve_listener(s.listen(111))
    return sim, c, s, program, server


def connect_client(sim, c, vers=1):
    def build():
        sock = yield from c.connect("s", 111)
        return RpcClient(sim, StreamTransport(sock), PROG, vers, cpu=c.cpu)

    return sim.run_until_complete(sim.spawn(build()))


def call_str(sim, client, proc, text):
    def go():
        p = Packer()
        p.pack_string(text)
        res = yield from client.call(proc, p.get_bytes())
        return Unpacker(res).unpack_string()

    return sim.run_until_complete(sim.spawn(go()))


def test_basic_call():
    sim, c, s, program, server = stack()
    client = connect_client(sim, c)
    assert call_str(sim, client, 0, "hello") == "olleh"
    assert server.calls_served == 1


def test_credentials_reach_handler():
    sim, c, s, program, _server = stack()
    client = connect_client(sim, c)

    def go():
        p = Packer()
        p.pack_string("x")
        yield from client.call(0, p.get_bytes(), AuthSys(uid=777, gid=7).to_opaque())

    sim.run_until_complete(sim.spawn(go()))
    assert program.seen_uids == [777]


def test_concurrent_calls_pipeline():
    sim, c, _s, _program, _server = stack()
    client = connect_client(sim, c)

    def one(i):
        p = Packer()
        p.pack_string(f"msg{i}")
        res = yield from client.call(0, p.get_bytes())
        return Unpacker(res).unpack_string()

    from repro.sim.process import all_of

    def main():
        t0 = sim.now
        procs = [sim.spawn(one(i)) for i in range(10)]
        out = yield all_of(sim, procs)
        return out, sim.now - t0

    out, elapsed = sim.run_until_complete(sim.spawn(main()))
    assert out == [f"msg{i}"[::-1] for i in range(10)]
    # pipelined: much less than 10 sequential round trips (10 * ~3ms)
    assert elapsed < 0.020


# -- the worker pool, on a bare RpcServer over in-memory transports ---------


class QueueTransport(Transport):
    """The test feeds CALL records in; replies pile up in ``sent``."""

    def __init__(self, sim):
        self._rx = Channel(sim)
        self.sent = []

    def feed(self, tag: bytes) -> None:
        self._rx.put(CallMessage(len(self.sent), PROG, 1, 0, args=tag).encode())

    def recv_record(self):
        try:
            return (yield self._rx.get())
        except ChannelClosed:
            return None

    def send_record(self, record):
        self.sent.append(record)

    def close(self):
        self._rx.close()  # already-fed records stay deliverable


class Slow(RpcProgram):
    """Holds each call 1 ms; logs pickup order and peak overlap."""

    prog, vers = PROG, 1

    def __init__(self, sim):
        self.sim = sim
        self.order = []
        self.active = self.peak = 0

    def handle(self, proc, args, call, ctx):
        self.order.append(args)
        self.active += 1
        self.peak = max(self.peak, self.active)
        yield self.sim.timeout(0.001)
        self.active -= 1
        return args


def pool(sessions):
    sim = Simulator()
    program = Slow(sim)
    server = RpcServer(sim)
    server.register(program)
    transports = [QueueTransport(sim) for _ in range(sessions)]
    for t in transports:
        server.serve_transport(t)
    return sim, server, program, transports


def test_a_stopped_server_drops_a_late_request_and_ends_its_processes(made):
    """``stop()`` closes the sessions and the work channel: a request the
    connection reads after it is dropped, not a dead process, and the
    workers and the connection's reader end."""
    from repro.sim.process import Process

    sim, server, program, (t,) = pool(1)
    t.feed(b"early")
    sim.run()
    t.feed(b"late")  # delivered to the reader, which has not run yet
    server.stop()
    sim.run()
    assert program.order == [b"early"] and server.calls_served == 1
    assert sim.died == []
    assert not [p.name for p in made[Process] if p.alive]


def test_pool_serves_one_session_fifo_with_at_most_eight_overlapping():
    sim, server, program, (t,) = pool(1)
    tags = [b"a%02d" % i for i in range(2 * WORKERS + 4)]
    for tag in tags:
        t.feed(tag)
    sim.run()
    assert program.order == tags
    assert program.peak == WORKERS == 8
    assert sim.now == pytest.approx(0.003)  # three waves of <= 8
    assert server.calls_served == len(tags) == len(t.sent)


def test_pool_alternates_two_backlogged_sessions_round_robin():
    sim, _server, program, (a, b) = pool(2)
    a_tags = [b"a%02d" % i for i in range(WORKERS + 4)]
    b_tags = [b"b%02d" % i for i in range(6)]
    for tag in a_tags:
        a.feed(tag)
    for tag in b_tags:
        b.feed(tag)
    sim.run()
    # One call per session per rotation turn while both have work, even
    # though a's whole backlog was queued ahead of b's; then a alone.
    turns = [tag for pair in zip(a_tags, b_tags) for tag in pair]
    assert program.order == turns + a_tags[len(b_tags):]


def test_pool_drains_the_queue_of_a_closed_session():
    sim, server, program, (t,) = pool(1)
    tags = [b"c%02d" % i for i in range(WORKERS + 5)]
    for tag in tags:
        t.feed(tag)
    t.close()  # EOF behind a backlog deeper than the pool
    sim.run()
    assert program.order == tags  # every queued call still executed
    assert len(t.sent) == len(tags)
    assert server._session_q == {} and not server._rr and server._pending == 0


def test_unknown_program():
    sim, c, _s, _p, _server = stack()

    def build():
        sock = yield from c.connect("s", 111)
        return RpcClient(sim, StreamTransport(sock), 999_999, 1)

    client = sim.run_until_complete(sim.spawn(build()))

    def go():
        with pytest.raises(RpcProgUnavail):
            yield from client.call(0, b"")
        return True

    assert sim.run_until_complete(sim.spawn(go()))


def test_version_mismatch_reports_range():
    sim, c, _s, _p, _server = stack()
    client = connect_client(sim, c, vers=9)

    def go():
        with pytest.raises(RpcProgMismatch) as info:
            yield from client.call(0, b"")
        return info.value.low, info.value.high

    assert sim.run_until_complete(sim.spawn(go())) == (1, 1)


def test_proc_unavailable():
    sim, c, _s, _p, _server = stack()
    client = connect_client(sim, c)

    def go():
        with pytest.raises(RpcProcUnavail):
            yield from client.call(99, b"")
        return True

    assert sim.run_until_complete(sim.spawn(go()))


def test_garbage_args():
    sim, c, _s, _p, _server = stack()
    client = connect_client(sim, c)

    def go():
        with pytest.raises(RpcGarbageArgs):
            yield from client.call(98, b"")
        return True

    assert sim.run_until_complete(sim.spawn(go()))


def test_handler_crash_is_system_err():
    sim, c, _s, _p, _server = stack()
    client = connect_client(sim, c)

    def go():
        with pytest.raises(RpcSystemError):
            yield from client.call(97, b"")
        return True

    assert sim.run_until_complete(sim.spawn(go()))


def test_connection_close_fails_outstanding_calls():
    sim, c, _s, _p, _server = stack()
    client = connect_client(sim, c)

    def go():
        p = Packer()
        p.pack_string("x")
        ev_proc = sim.spawn(client.call(0, p.get_bytes()))
        client.transport.sock.abort()
        try:
            yield ev_proc
        except (RpcError, ConnectionReset):
            return "failed as expected"

    assert sim.run_until_complete(sim.spawn(go())) == "failed as expected"


def test_duplicate_program_registration_rejected():
    sim, _c, _s, program, server = stack()
    with pytest.raises(RpcError):
        server.register(program)


def test_endpoint_cost_charges_cpu():
    sim = Simulator()
    net = Network(sim)
    c = Host(sim, net, "c")
    s = Host(sim, net, "s")
    net.connect("c", "s", latency=0.001)
    program = Echo(sim)
    server = RpcServer(sim, cpu=s.cpu, cost=EndpointCost(per_msg=0.01), account="srv")
    server.register(program)
    server.serve_listener(s.listen(111))

    def build():
        sock = yield from c.connect("s", 111)
        client = RpcClient(
            sim, StreamTransport(sock), PROG, 1,
            cpu=c.cpu, cost=EndpointCost(per_msg=0.005), account="cli",
        )
        p = Packer()
        p.pack_string("x")
        yield from client.call(0, p.get_bytes())

    sim.run_until_complete(sim.spawn(build()))
    assert c.cpu.busy_total("cli") == pytest.approx(0.010)  # send + recv
    assert s.cpu.busy_total("srv") == pytest.approx(0.020)


# -- the reply table: one exchange, retransmitted ---------------------------


def _exchange_until_timeout(sim, transport, record):
    from repro.rpc.client import ReplyTable
    from repro.rpc.errors import RpcTimeout

    table = ReplyTable(sim, transport)

    def go():
        with pytest.raises(RpcTimeout, match="3 transmissions"):
            yield from table.exchange(7, record, timeout=1.0, retrans=2)
        assert table.outstanding == 0

    sim.run_until_complete(sim.spawn(go()))
    transport.close()  # and the table's pump ends with it


def test_retransmission_on_a_plain_transport_costs_no_event():
    sim = Simulator()
    wire = QueueTransport(sim)  # never fed: the far end stays silent
    _exchange_until_timeout(sim, wire, b"the same record")
    assert wire.sent == [b"the same record"] * 3
    assert sim.now == 7.0  # 1 + 2 + 4: the doubling timer and nothing else
    assert sim.heap_pushes == 3


def test_retransmission_on_a_sealed_transport_repays_the_seal():
    from repro.crypto.suites import CPU_HZ, SUITE_RC4_SHA, derive_directions
    from repro.rpc.transport import SealedTransport

    sim = Simulator()
    wire = QueueTransport(sim)
    wire.sock = None  # what a sealed transport exposes of its stream
    c2s, s2c = derive_directions(SUITE_RC4_SHA, b"k" * 32, "t", fast=True)
    sealed = SealedTransport(sim, wire, SUITE_RC4_SHA, c2s, s2c)
    record = b"r" * 65536
    _exchange_until_timeout(sim, sealed, record)
    # each transmission is sealed anew, under the next sequence number
    assert len(set(wire.sent)) == 3 == c2s.seq
    seal = SUITE_RC4_SHA.cycles_per_byte * len(record) / CPU_HZ
    assert sim.now - 7.0 == pytest.approx(3 * seal)
