"""Workload-independent micro-benchmarks of each layer's public functions.

Host time per call: the best of ``repeats`` loops of at least ``loop_s``
seconds each (``timeit`` picks the loop count and switches the garbage
collector off inside a loop).  Each number explains a share of its
layer's ``host_self_s``; none is an end-to-end result.
"""

from __future__ import annotations

import timeit
from typing import Callable, Dict

from repro.crypto.drbg import Drbg
from repro.crypto.rsa import generate_keypair
from repro.crypto.suites import SUITE_AES_SHA
from repro.gsi import CertificateAuthority, DistinguishedName, Gridmap
from repro.gsi.certs import validate_chain
from repro.gsi.proxy import issue_proxy_certificate
from repro.nfs import protocol as pr
from repro.nfs.cache import Page, PageCache
from repro.proxy.accounts import Account, AccountsDb
from repro.proxy.authz import AuthzCache
from repro.rpc.auth import AuthSys
from repro.rpc.drc import drc_key
from repro.rpc.messages import CallMessage
from repro.rpc.record import RecordReader, frame_record
from repro.sim import Simulator
from repro.vfs.fs import ROOT_CRED, VirtualFS

BLOCK = 32 * 1024
GRIDMAP_ENTRIES = 1_000_000


def _per_call(fn: Callable[[], object], loop_s: float, repeats: int) -> float:
    """Best seconds per call of ``fn``."""
    timer = timeit.Timer(fn)
    number, took = 1, timer.timeit(1)
    while took < loop_s / 20:  # long enough to size the real loops from
        number *= 4
        took = timer.timeit(number)
    if took < loop_s:
        number = int(number * 1.2 * loop_s / took) + 1
    return min(timer.repeat(repeats, number)) / number


def _sim_events(delay: float, n: int = 2000) -> Callable[[], None]:
    def loop():
        sim = Simulator()

        def proc():
            for _ in range(n):
                yield sim.timeout(delay)

        sim.run_until_complete(sim.spawn(proc()))

    return loop


def run_micro(loop_s: float = 0.2, repeats: int = 5) -> Dict[str, float]:
    """All fourteen micro metrics, in the units their names carry."""
    per_call = lambda fn: _per_call(fn, loop_s, repeats)
    out: Dict[str, float] = {}
    data = bytes(range(256)) * (BLOCK // 256)

    # xdr: Packer / Unpacker on a 32 KB READ reply
    fh = pr.FileHandle(1, 42, 7)
    attr = pr.Fattr3(ftype=1, mode=0o644, nlink=1, uid=901, gid=901, size=BLOCK,
                     used=BLOCK, fsid=1, fileid=42, atime=1.5, mtime=2.5, ctime=3.5)
    reply = pr.pack_read_res(pr.NfsStatus.OK, attr, data, False)
    out["xdr.pack_ns"] = 1e9 * per_call(
        lambda: pr.pack_read_res(pr.NfsStatus.OK, attr, data, False))
    out["xdr.unpack_ns"] = 1e9 * per_call(lambda: pr.unpack_read_res(reply))

    # rpc: record marking of that reply, the CALL header codec, the DRC key
    framed = frame_record(reply)

    def frame_roundtrip():
        reader = RecordReader()
        reader.feed(frame_record(reply))
        return reader.next_record()

    assert frame_roundtrip() == reply and len(framed) == len(reply) + 4
    out["rpc.frame_record_ns"] = 1e9 * per_call(frame_roundtrip)
    call = CallMessage(
        xid=0x1234, prog=pr.NFS_PROGRAM, vers=pr.NFS_V3, proc=int(pr.Proc.READ),
        cred=AuthSys(machinename="client", uid=5001, gid=5001).to_opaque(),
        args=pr.pack_read_args(fh, 0, BLOCK),
    )
    encoded = call.encode()
    assert CallMessage.decode(encoded) == call
    out["rpc.call_codec_ns"] = 1e9 * per_call(
        lambda: CallMessage.decode(call.encode()))
    out["rpc.drc_key_ns"] = 1e9 * per_call(lambda: drc_key(call))

    # crypto: seal + open of one 32 KB record under the cost-model
    # (fast_ciphers) AES-SHA1 suite, as SecureChannel does it
    suite = SUITE_AES_SHA
    key, iv, mac_key = b"k" * suite.cipher.key_len, b"i" * suite.cipher.iv_len, b"m" * 20
    sealer = suite.cipher.new_state(key, iv, fast=True)
    opener = suite.cipher.new_state(key, iv, fast=True)

    def seal_open():
        body = sealer.encrypt(data + suite.mac.compute(mac_key, data))
        plain = opener.decrypt(body)
        return suite.mac.compute(mac_key, plain[:-20]) == plain[-20:]

    assert seal_open()
    out["crypto.seal_open_us_32k"] = 1e6 * per_call(seal_open)
    out["crypto.rsa_keygen_ms"] = 1e3 * per_call(
        lambda: generate_keypair(1024, Drbg("bench-rsa")))

    # gsi: a delegated chain (limited proxy -> user -> CA), a 10^6-entry gridmap
    rng = Drbg("bench-gsi")
    ca = CertificateAuthority(
        DistinguishedName.parse("/C=US/O=GridCA/CN=Certification Authority"),
        rng=rng.fork("ca"))
    dn = DistinguishedName.parse("/C=US/O=UFL/OU=ACIS/CN=Grid User 00")
    user = ca.issue_identity(dn, rng=rng.fork("user"))
    proxy = issue_proxy_certificate(user, now=0.0, lifetime=3600.0,
                                    rng=rng.fork("proxy"), limited=True)
    anchors = [ca.certificate]
    assert validate_chain(proxy.certificate, proxy.chain, anchors, 1.0) == dn
    out["gsi.validate_chain_us"] = 1e6 * per_call(
        lambda: validate_chain(proxy.certificate, proxy.chain, anchors, 1.0))
    gridmap = Gridmap(entries={
        f"/C=US/O=UFL/OU=pop/CN=User {i:07d}": f"acct{i % 97:02d}"
        for i in range(GRIDMAP_ENTRIES)})
    probe = f"/C=US/O=UFL/OU=pop/CN=User {GRIDMAP_ENTRIES // 2:07d}"
    assert gridmap.lookup_str(probe) is not None
    out["gsi.gridmap_lookup_ns"] = 1e9 * per_call(lambda: gridmap.lookup_str(probe))
    del gridmap

    # proxy: an epoch-current hit in the server proxy's authz cache
    accounts = AccountsDb()
    accounts.add(Account("grid00", 9100, 9100))
    small = Gridmap()
    small.add(dn, "grid00")
    authz = AuthzCache(accounts)
    assert authz.resolve(small, dn).name == "grid00"
    out["proxy.authz_cache_hit_ns"] = 1e9 * per_call(lambda: authz.resolve(small, dn))

    # nfs: a kernel-client page cache hit
    pages = PageCache(64 * BLOCK, BLOCK)
    for block in range(32):
        pages.put(42, block, Page(data=data))
    assert pages.get(42, 7) is not None
    out["nfs.page_cache_hit_ns"] = 1e9 * per_call(lambda: pages.get(42, 7))

    # sim: one event through the heap, one through the zero-delay lane
    out["sim.timeout_event_ns"] = 1e9 * per_call(_sim_events(1.0)) / 2000
    out["sim.zero_delay_event_ns"] = 1e9 * per_call(_sim_events(0.0)) / 2000

    # vfs: overwrite and read back one 32 KB block
    fs = VirtualFS()
    node = fs.create(fs.root.fileid, "block", ROOT_CRED)

    def write_read():
        fs.write(node.fileid, 0, data, ROOT_CRED)
        return fs.read(node.fileid, 0, BLOCK, ROOT_CRED)

    assert write_read()[0] == data
    out["vfs.write_read_us_32k"] = 1e6 * per_call(write_read)
    return out
