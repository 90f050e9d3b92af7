"""Network substrate: topology, delivery timing, sockets, router."""

import pytest

from repro.net import ConnectionRefused, ConnectionReset, DelayRouter, Host, Network
from repro.net.errors import NetError, NoRoute
from repro.net.network import LOOPBACK_LATENCY
from repro.obs import Registry
from repro.sim import Simulator


def lan(latency=0.001, bandwidth=1e9):
    sim = Simulator()
    net = Network(sim)
    a = Host(sim, net, "a")
    b = Host(sim, net, "b")
    net.connect("a", "b", latency=latency, bandwidth=bandwidth)
    return sim, net, a, b


# -- topology ------------------------------------------------------------------


def test_duplicate_node_rejected():
    sim = Simulator()
    net = Network(sim)
    Host(sim, net, "x")
    with pytest.raises(NetError):
        Host(sim, net, "x")


def test_duplicate_link_rejected():
    sim, net, _a, _b = lan()
    with pytest.raises(NetError):
        net.connect("a", "b")


def test_bad_link_parameters_rejected():
    sim = Simulator()
    net = Network(sim)
    Host(sim, net, "a")
    Host(sim, net, "b")
    with pytest.raises(NetError):
        net.connect("a", "b", latency=-1.0)


def test_route_and_rtt_through_router():
    sim = Simulator()
    net = Network(sim)
    Host(sim, net, "c")
    Host(sim, net, "s")
    r = DelayRouter(sim, net, "r", one_way_delay=0.010)
    net.connect("c", "r", latency=0.001)
    net.connect("r", "s", latency=0.001)
    assert net.route("c", "s") == ["c", "r", "s"]
    assert abs(net.rtt("c", "s") - (2 * 0.002 + 2 * 0.010)) < 1e-12
    r.set_rtt(0.080)
    assert abs(net.rtt("c", "s") - (0.004 + 0.080)) < 1e-12


def test_no_route_detected():
    sim = Simulator()
    net = Network(sim)
    Host(sim, net, "a")
    Host(sim, net, "island")
    with pytest.raises(NoRoute):
        net.route("a", "island")


def test_router_rejects_negative_delay():
    sim = Simulator()
    net = Network(sim)
    with pytest.raises(NetError):
        DelayRouter(sim, net, "r", one_way_delay=-0.1)


# -- delivery timing -----------------------------------------------------------------


def test_delivery_latency_plus_transmission():
    sim, net, _a, _b = lan(latency=0.010, bandwidth=1000.0)
    arrived = []
    net.deliver("a", "b", 500, lambda: arrived.append(sim.now))
    sim.run()
    # 500 bytes at 1000 B/s = 0.5s + 10ms latency
    assert arrived == [pytest.approx(0.51)]


def test_link_fifo_serialization():
    sim, net, _a, _b = lan(latency=0.0, bandwidth=1000.0)
    arrivals = []
    net.deliver("a", "b", 1000, lambda: arrivals.append(("big", sim.now)))
    net.deliver("a", "b", 100, lambda: arrivals.append(("small", sim.now)))
    sim.run()
    # FIFO: the small message waits for the big one's transmission
    assert arrivals[0][0] == "big"
    assert arrivals[1] == ("small", pytest.approx(1.1))
    # The contended segment waits inside the delivery chain: no process.
    assert sim.process_wakeups == 0


@pytest.mark.parametrize("cut_through", [False, True],
                         ids=["store-and-forward", "cut-through"])
def test_contended_hops_through_router(cut_through):
    """Two hosts send two segments each through a router to one server in
    the same instant.  Each host's second segment queues on its own link;
    store-and-forward also queues all four, in arrival order, on the
    router->server link, where cut-through holds it for no time."""
    sim = Simulator(obs=Registry())
    net = Network(sim)
    for name in ("c1", "c2", "server"):
        Host(sim, net, name)
    router = DelayRouter(sim, net, "router", one_way_delay=0.5)
    router.cut_through = cut_through
    for name in ("c1", "c2"):
        net.connect(name, "router", latency=0.1, bandwidth=1000.0)
    net.connect("router", "server", latency=0.1, bandwidth=1000.0)
    arrivals = {}
    for seg in ("A", "B"):
        for src in ("c1", "c2"):
            tag = src + seg
            net.deliver(src, "server", 1000,
                        lambda tag=tag: arrivals.setdefault(tag, sim.now))
    sim.run()

    def waits(link):
        h = sim.obs.histogram("net", "queue_delay", link=link)
        return h.count, pytest.approx(h.total), pytest.approx(h.max)

    # First hop: A transmits over [0, 1] s, B waits 1 s for the link.
    # Both reach the router's out-link at 1 + 0.1 + 0.5 + (B: 1) s.
    at_router = {"c1A": 1.6, "c2A": 1.6, "c1B": 2.6, "c2B": 2.6}
    if cut_through:
        expected = {tag: t + 0.1 for tag, t in at_router.items()}
        bottleneck = (4, 0.0, 0.0)
    else:
        # FIFO behind one 1 s transmission each: c1A, c2A, c1B, c2B.
        expected = {"c1A": 2.7, "c2A": 3.7, "c1B": 4.7, "c2B": 5.7}
        bottleneck = (4, 0.0 + 1.0 + 1.0 + 2.0, 2.0)
    assert arrivals == {tag: pytest.approx(t) for tag, t in expected.items()}
    assert waits("c1<->router") == (2, 1.0, 1.0)
    assert waits("c2<->router") == (2, 1.0, 1.0)
    assert waits("router<->server") == bottleneck
    assert sim.process_wakeups == 0


def test_directions_do_not_contend():
    sim, net, _a, _b = lan(latency=0.0, bandwidth=1000.0)
    arrivals = []
    net.deliver("a", "b", 1000, lambda: arrivals.append(sim.now))
    net.deliver("b", "a", 1000, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [pytest.approx(1.0), pytest.approx(1.0)]


def test_cut_through_router_single_serialization():
    sim = Simulator()
    net = Network(sim)
    Host(sim, net, "c")
    Host(sim, net, "s")
    DelayRouter(sim, net, "r")
    net.connect("c", "r", latency=0.0, bandwidth=1000.0)
    net.connect("r", "s", latency=0.0, bandwidth=1000.0)
    arrived = []
    net.deliver("c", "s", 1000, lambda: arrived.append(sim.now))
    sim.run()
    # cut-through: ~1.0s (one serialization), not 2.0 (two)
    assert arrived == [pytest.approx(1.0)]


def test_loopback_delivery():
    sim, net, _a, _b = lan()
    arrived = []
    net.deliver("a", "a", 10_000, lambda: arrived.append(sim.now))
    sim.run()
    assert arrived == [pytest.approx(LOOPBACK_LATENCY)]


# -- sockets -------------------------------------------------------------------------------


def test_connect_and_exchange():
    sim, net, a, b = lan(latency=0.005)

    def server():
        lst = b.listen(80)
        sock = yield lst.accept()
        data = yield from sock.recv_exactly(5)
        sock.send(b"pong:" + data)
        sock.close()

    def client():
        sock = yield from a.connect("b", 80)
        t_conn = sim.now
        sock.send(b"hello")
        reply = yield from sock.recv_exactly(10)
        eof = yield from sock.recv()
        return t_conn, reply, eof

    sim.spawn(server())
    t_conn, reply, eof = sim.run_until_complete(sim.spawn(client()))
    assert t_conn == pytest.approx(0.010, rel=1e-3)  # SYN + SYN-ACK
    assert reply == b"pong:hello"
    assert eof == b""


def test_connect_refused_when_no_listener():
    sim, net, a, _b = lan()

    def client():
        try:
            yield from a.connect("b", 9999)
        except ConnectionRefused:
            return "refused"

    assert sim.run_until_complete(sim.spawn(client())) == "refused"


def test_connect_unknown_host_rejected():
    sim, net, a, _b = lan()

    def client():
        yield from a.connect("nowhere", 1)

    p = sim.spawn(client())
    sim.run()
    assert p.completion.failed


def test_port_rebind_rejected_until_closed():
    sim, net, a, _b = lan()
    lst = a.listen(42)
    with pytest.raises(NetError):
        a.listen(42)
    lst.close()
    a.listen(42)  # OK now


def test_stream_chunks_are_reassembled_by_caller():
    sim, net, a, b = lan()

    def server():
        lst = b.listen(80)
        sock = yield lst.accept()
        # three separate sends -> three segments
        sock.send(b"abc")
        sock.send(b"defg")
        sock.send(b"h")
        sock.close()

    def client():
        sock = yield from a.connect("b", 80)
        data = yield from sock.recv_exactly(8)
        return data

    sim.spawn(server())
    assert sim.run_until_complete(sim.spawn(client())) == b"abcdefgh"


def test_recv_exactly_eof_mid_read_raises_reset():
    sim, net, a, b = lan()

    def server():
        lst = b.listen(80)
        sock = yield lst.accept()
        sock.send(b"only4")
        sock.close()

    def client():
        sock = yield from a.connect("b", 80)
        try:
            yield from sock.recv_exactly(100)
        except ConnectionReset:
            return "reset"

    sim.spawn(server())
    assert sim.run_until_complete(sim.spawn(client())) == "reset"


def test_abort_resets_blocked_reader():
    sim, net, a, b = lan()

    def server():
        lst = b.listen(80)
        sock = yield lst.accept()
        yield sim.timeout(1.0)
        sock.abort()

    def client():
        sock = yield from a.connect("b", 80)
        try:
            yield from sock.recv()
        except ConnectionReset:
            return "reset"

    sim.spawn(server())
    assert sim.run_until_complete(sim.spawn(client())) == "reset"


def test_send_on_closed_socket_raises():
    sim, net, a, b = lan()

    def server():
        lst = b.listen(80)
        yield lst.accept()

    def client():
        sock = yield from a.connect("b", 80)
        sock.close()
        with pytest.raises(ConnectionReset):
            sock.send(b"too late")
        return "ok"

    sim.spawn(server())
    assert sim.run_until_complete(sim.spawn(client())) == "ok"


def test_byte_counters():
    sim, net, a, b = lan()

    def server():
        lst = b.listen(80)
        sock = yield lst.accept()
        yield from sock.recv_exactly(6)
        sock.close()

    def client():
        sock = yield from a.connect("b", 80)
        sock.send(b"abcdef")
        yield from sock.recv()  # EOF
        return sock.bytes_sent

    sim.spawn(server())
    assert sim.run_until_complete(sim.spawn(client())) == 6
