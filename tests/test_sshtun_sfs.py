"""SSH tunnel substrate and SFS baseline components."""

import pytest

from repro.crypto.drbg import Drbg
from repro.crypto.rsa import generate_keypair
from repro.net import Host, Network
from repro.rpc.costs import CostProfile, EndpointCost
from repro.sfs import (
    SelfCertifyingPath,
    SfsAuthError,
    SfsPathError,
    host_id_for_key,
    sfs_client_channel,
    sfs_server_channel,
)
from repro.sim import Simulator
from repro.sshtun import SshTunnelClient, SshTunnelServer
from repro.tls import IntegrityError
from repro.vfs.fs import Credentials

KEY_A = generate_keypair(768, Drbg("sfs-a"))
KEY_B = generate_keypair(768, Drbg("sfs-b"))
USER = generate_keypair(768, Drbg("sfs-user"))


def make_net():
    sim = Simulator()
    net = Network(sim)
    c = Host(sim, net, "c")
    s = Host(sim, net, "s")
    net.connect("c", "s", latency=0.001)
    return sim, c, s


class WanTap:
    """Sits on every connection ``host`` opens to ``dest``.  Once
    :meth:`arm`-ed, flips one bit in the middle of the n-th segment sent
    there from then on (the middle: past the record-marking header, so
    framing survives and the record layer is what has to notice)."""

    def __init__(self, host, dest):
        self._countdown = None
        #: segments sent so far, per tapped connection (in dial order)
        self.sent = {}
        #: (connection, 1-based index on it) of the flipped segment
        self.flipped = None
        connect = host.connect

        def tapped_connect(d, port):
            sock = yield from connect(d, port)
            if d == dest:
                self._tap(sock)
            return sock

        host.connect = tapped_connect

    def arm(self, nth: int) -> None:
        self._countdown = nth

    def _tap(self, sock) -> None:
        send = sock.send
        self.sent[sock] = 0

        def flipping_send(data):
            self.sent[sock] += 1
            if self._countdown is not None:
                self._countdown -= 1
                if self._countdown == 0:
                    self._countdown = None
                    self.flipped = (sock, self.sent[sock])
                    data = bytearray(data)
                    data[len(data) // 2] ^= 0x10
                    data = bytes(data)
            send(data)

        sock.send = flipping_send


# -- SSH tunnel ------------------------------------------------------------------


def tunnel_pair(sim, c, s, client_key=None, server_key=None):
    key = Drbg("tunnel-key").randbytes(32)
    srv = SshTunnelServer(sim, s, 4422, 7000, server_key or key)
    srv.start()
    cli = SshTunnelClient(sim, c, 4423, "s", 4422, client_key or key)
    cli.start()
    return cli, srv


def test_tunnel_forwards_bytes_end_to_end():
    sim, c, s = make_net()
    cli, srv = tunnel_pair(sim, c, s)

    def target_service():
        lst = s.listen(7000)
        sock = yield lst.accept()
        data = yield from sock.recv_exactly(11)
        sock.send(b"echo:" + data)

    def client_app():
        sock = yield from c.connect("c", 4423)  # local tunnel entrance
        sock.send(b"tunnel-test")
        reply = yield from sock.recv_exactly(16)
        return reply

    sim.spawn(target_service())
    assert sim.run_until_complete(sim.spawn(client_app())) == b"echo:tunnel-test"
    assert cli.bytes_forwarded > 0 and srv.bytes_forwarded > 0


def test_tunnel_payload_encrypted_on_wan():
    """Wiretap every byte the tunnel client sends to the WAN: the
    application payload must not appear in the clear."""
    sim, c, s = make_net()
    tunnel_pair(sim, c, s)
    secret = b"CONFIDENTIAL-TUNNEL-DATA" * 3
    captured = bytearray()

    original_connect = c.connect

    def spying_connect(dest, port):
        sock = yield from original_connect(dest, port)
        if dest == "s":  # the WAN-facing tunnel connection
            original_send = sock.send

            def spy_send(data):
                captured.extend(data)
                original_send(data)

            sock.send = spy_send
        return sock

    c.connect = spying_connect

    def target_service():
        lst = s.listen(7000)
        sock = yield lst.accept()
        data = yield from sock.recv_exactly(len(secret))
        return data

    def client_app():
        sock = yield from c.connect("c", 4423)
        sock.send(secret)

    tp = sim.spawn(target_service())
    sim.spawn(client_app())
    assert sim.run_until_complete(tp) == secret
    assert len(captured) > len(secret)
    assert secret[:16] not in bytes(captured)


def test_tunnel_wrong_key_refused():
    sim, c, s = make_net()
    tunnel_pair(
        sim, c, s,
        client_key=Drbg("key-one").randbytes(32),
        server_key=Drbg("key-two").randbytes(32),
    )
    served = []

    def target_service():
        lst = s.listen(7000)
        sock = yield lst.accept()
        served.append(sock)

    def client_app():
        sock = yield from c.connect("c", 4423)
        sock.send(b"should never arrive")
        got = yield from sock.recv()
        return got

    sim.spawn(target_service())
    result = sim.run_until_complete(sim.spawn(client_app()))
    assert result == b""  # tunnel collapsed, no data came back
    assert not served or True


def test_tunnel_frame_with_a_flipped_byte_ends_the_connection_there():
    """One flipped WAN byte: the far end forwards what came before it
    and closes — neither the damaged chunk nor anything behind it."""
    sim, c, s = make_net()
    tap = WanTap(c, "s")
    tunnel_pair(sim, c, s)
    got = bytearray()

    def target_service():
        lst = s.listen(7000)
        sock = yield lst.accept()
        while True:
            chunk = yield from sock.recv()
            if chunk == b"":
                return "closed"
            got.extend(chunk)

    def client_app():
        sock = yield from c.connect("c", 4423)
        tap.arm(3)  # WAN segments: the nonce, then one frame per word
        for word in (b"AAAA", b"BBBB", b"CCCC"):
            sock.send(word)

    tp = sim.spawn(target_service())
    sim.spawn(client_app())
    sim.run(until=10.0)
    assert tp.result() == "closed"
    assert bytes(got) == b"AAAA"
    assert tap.flipped is not None and list(tap.sent.values()) == [4]


def test_tunnel_charges_forwarding_cost():
    sim, c, s = make_net()
    key = Drbg("k").randbytes(32)
    srv = SshTunnelServer(
        sim, s, 4422, 7000, key,
        cost=CostProfile(cpu=EndpointCost(per_msg=0.001)), account="sshd",
    )
    srv.start()
    cli = SshTunnelClient(
        sim, c, 4423, "s", 4422, key,
        cost=CostProfile(cpu=EndpointCost(per_msg=0.001)), account="ssh",
    )
    cli.start()

    def target_service():
        lst = s.listen(7000)
        sock = yield lst.accept()
        yield from sock.recv_exactly(4)
        sock.send(b"pong")

    def client_app():
        sock = yield from c.connect("c", 4423)
        sock.send(b"ping")
        yield from sock.recv_exactly(4)

    sim.spawn(target_service())
    sim.run_until_complete(sim.spawn(client_app()))
    assert c.cpu.busy_total("ssh") > 0
    assert s.cpu.busy_total("sshd") > 0


# -- self-certifying paths ------------------------------------------------------------


def test_path_parse_and_format():
    path = SelfCertifyingPath.for_server("server.lab.edu", KEY_A.public, "/data/x")
    text = str(path)
    assert text.startswith("/sfs/@server.lab.edu,")
    again = SelfCertifyingPath.parse(text)
    assert again == path


def test_path_verifies_matching_key_only():
    path = SelfCertifyingPath.for_server("srv", KEY_A.public)
    assert path.verify_key(KEY_A.public)
    assert not path.verify_key(KEY_B.public)


def test_host_id_binds_location():
    # the same key at a different location yields a different HostID
    assert host_id_for_key("a", KEY_A.public) != host_id_for_key("b", KEY_A.public)


@pytest.mark.parametrize(
    "bad",
    ["/not/sfs", "/sfs/@nolocation", "/sfs/@loc", "/sfs/@,id/x",
     "/sfs/@loc,UPPER/x"],
)
def test_path_malformed_rejected(bad):
    with pytest.raises(SfsPathError):
        SelfCertifyingPath.parse(bad)


# -- SFS channel --------------------------------------------------------------------------


def sfs_handshake(sim, c, s, path, server_key, authorized, user_key):
    result = {}

    def server_side():
        lst = s.listen(4446)
        sock = yield lst.accept()
        result["server"] = yield from sfs_server_channel(
            sim, sock, server_key, authorized
        )

    def client_side():
        sock = yield from c.connect("s", 4446)
        result["client"] = yield from sfs_client_channel(
            sim, sock, path, user_key, Drbg("hs")
        )

    sp = sim.spawn(server_side())
    cp = sim.spawn(client_side())
    sim.run_until_complete(cp)
    sim.run_until_complete(sp)
    return result["client"], result["server"]


def test_sfs_channel_exchange():
    sim, c, s = make_net()
    path = SelfCertifyingPath.for_server("s", KEY_A.public)
    cch, sch = sfs_handshake(
        sim, c, s, path, KEY_A, {USER.public.to_bytes()}, USER
    )

    def exchange():
        cch.send_record(b"sfs request")
        got = yield from sch.recv_record()
        sch.send_record(b"sfs reply")
        back = yield from cch.recv_record()
        return got, back

    assert sim.run_until_complete(sim.spawn(exchange())) == (
        b"sfs request", b"sfs reply",
    )


def test_sfs_client_rejects_wrong_server_key():
    """The self-certifying property: HostID mismatch aborts before data."""
    sim, c, s = make_net()
    path = SelfCertifyingPath.for_server("s", KEY_A.public)

    def server_side():
        lst = s.listen(4446)
        sock = yield lst.accept()
        try:
            yield from sfs_server_channel(sim, sock, KEY_B, {USER.public.to_bytes()})
        except Exception:
            pass

    def client_side():
        sock = yield from c.connect("s", 4446)
        with pytest.raises(SfsAuthError, match="HostID"):
            yield from sfs_client_channel(sim, sock, path, USER, Drbg("hs"))
        return "refused"

    sim.spawn(server_side())
    assert sim.run_until_complete(sim.spawn(client_side())) == "refused"


def test_sfs_server_rejects_unauthorized_user():
    sim, c, s = make_net()
    path = SelfCertifyingPath.for_server("s", KEY_A.public)
    stranger = generate_keypair(768, Drbg("stranger"))

    def server_side():
        lst = s.listen(4446)
        sock = yield lst.accept()
        with pytest.raises(SfsAuthError, match="not authorized"):
            yield from sfs_server_channel(
                sim, sock, KEY_A, {USER.public.to_bytes()}
            )
        return "rejected"

    def client_side():
        sock = yield from c.connect("s", 4446)
        try:
            yield from sfs_client_channel(sim, sock, path, stranger, Drbg("hs"))
        except Exception:
            pass

    sp = sim.spawn(server_side())
    sim.spawn(client_side())
    assert sim.run_until_complete(sp) == "rejected"


def test_sfs_record_with_a_flipped_byte_raises_the_integrity_error():
    sim, c, s = make_net()
    tap = WanTap(c, "s")
    path = SelfCertifyingPath.for_server("s", KEY_A.public)
    cch, sch = sfs_handshake(
        sim, c, s, path, KEY_A, {USER.public.to_bytes()}, USER
    )

    def exchange():
        tap.arm(2)
        for record in (b"one", b"two", b"three"):
            cch.send_record(record)
        first = yield from sch.recv_record()
        with pytest.raises(IntegrityError):
            yield from sch.recv_record()
        return first

    assert sim.run_until_complete(sim.spawn(exchange())) == b"one"


@pytest.mark.parametrize("setup", ["sfs", "gfs-ssh"])
def test_mount_recovers_content_exact_from_a_flipped_wan_byte(setup):
    """Inside an established session, one flipped WAN byte: the server
    side serves the records before it and drops the connection, and the
    client side redials and resends — never wrong data, never a hang."""
    from repro.core import Testbed
    from repro.core.setups import SETUP_BUILDERS

    tb = Testbed.build(rtt=0.02)
    tap = WanTap(tb.client, "server")
    mount = SETUP_BUILDERS[setup](tb)
    served = []  # the transport each record the server proxy took came in on
    serve = mount.server_proxy._serve

    def spying_serve(transport, *args):
        served.append(transport)
        return serve(transport, *args)

    mount.server_proxy._serve = spying_serve
    payload = bytes(range(256)) * 1024  # 256 KiB: several WRITEs in flight

    def job():
        tap.arm(5)  # past LOOKUP and CREATE: inside the burst of WRITEs
        yield from mount.client.write_file("/big.bin", payload)
        return (yield from mount.client.read_file("/big.bin"))

    proc = tb.sim.spawn(job())
    tb.sim.run(until=tb.sim.now + 300.0)
    assert proc.result() == payload
    assert bytes(tb.fs.resolve("/big.bin", Credentials(0, 0)).data) == payload
    assert mount.client_proxy.stats["upstream_retries"] >= 1
    # on the damaged connection the server side took exactly the records
    # ahead of the flip (its first segment was the handshake's) ...
    sock, flipped_at = tap.flipped
    assert served.count(served[0]) == flipped_at - 2
    assert len(set(map(id, served))) == 2 == len(tap.sent)
    if setup == "sfs":  # ... though the pipelining daemon had sent more
        assert tap.sent[sock] > flipped_at


def test_sfs_end_to_end_mount():
    from repro.core import Testbed, setup_sfs

    tb = Testbed.build()
    mount = setup_sfs(tb)

    def job():
        cl = mount.client
        yield from cl.write_file("/sfs-file", b"self-certified" * 10)
        return (yield from cl.read_file("/sfs-file"))

    assert tb.run(job()) == b"self-certified" * 10
    assert str(mount.extras["path"]).startswith("/sfs/@server,")
