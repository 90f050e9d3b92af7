"""The four benchmark workloads and what one repetition of each yields.

A *rep* is one call into ``repro.harness`` on a fresh testbed: keys are
generated, the testbed is built, the file system is mounted, the
workload runs closed-loop (each client issues its next NFS call when the
previous one returns) and the result comes back.  :func:`run_rep` times
the call from outside with the host clock and reads everything else from
the values the harness already returns.

Why these four (the ``why`` lines of ``BENCHMARK.json``, at length):

``postmark-lan-sgfs``
    Metadata and small mixed create/append/read/delete on a LAN through
    the default (``streams=1``, no proxy disk cache) data path: ``xdr``,
    ``rpc``, ``nfs``, ``vfs`` and the server proxy's per-call authz do
    the work; ``grid``, the upstream engine and handshakes do almost
    none.  The working set fits every cache.  The paper's most
    overhead-sensitive figure (Fig. 7).
``iozone-wan-engine``
    One bulk write then two verified read passes over an 80 ms WAN
    through the multi-stream engine, with a file six times the proxy
    disk cache so write-behind evictions and read-ahead both cross the
    WAN: ``proxy`` (block cache, windows, compound RPC), the ``tls``
    record path and ``net`` per-packet cost dominate; metadata and
    ``gsi`` are negligible.
``grid-fleet-wr``
    Many clients striping short transfers over four replicated backends
    on a LAN: ``sim`` scheduling across hundreds of processes, ``grid``
    routing and replication, ``rpc`` server queues, and one RSA identity
    per client and server of ``crypto``/``gsi`` set-up.  The same engine
    as the WAN workload used the other way round.
``churn-delegated``
    Long-lived sessions that reconnect and re-delegate: ``tls``
    handshakes (full against resumed), ``crypto`` RSA, ``gsi``
    delegation and the server proxy's authz cache.  The data path, the
    ``sim`` kernel and ``xdr`` do little, so a data-path or kernel
    optimisation must show **no change** here.

The seed reaches the program only as generated inputs, and it moves
them a little, not a lot: it draws each file's or burst's size from the
top 1/128th below the nominal one, and takes up to three transactions
off PostMark's count.  PostMark's operation stream and the fleets' key material are held
fixed (``STREAM_SEED``), because a different stream or key set is a
different job — across ten seeds PostMark's read volume moved by 12 %
and the time RSA prime searches took by 10 % — and the driver takes the
spread of every metric across seeds as the benchmark's noise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from typing import Callable, Dict, List, Optional

from repro.core.calibration import DEFAULT_CALIBRATION
from repro.harness import run_fleet, run_workload
from repro.nfs.client import NfsClientError
from repro.obs.benchdiff import flatten
from repro.workloads.churn import SessionChurn
from repro.workloads.iozone import IOzoneWriteRead
from repro.workloads.postmark import PostMark, PostMarkConfig

import layers

KB = 1024
MIB = 1024 * 1024
#: rates are reported in 10^6 bytes per virtual second, as
#: ``FleetResult.aggregate_throughput()`` / 1e6 always has been
MB = 1e6

#: the widened (8x) LAN the fleet benches have used since PR 7, so the
#: network is not the first bottleneck of a many-client run
FAT_LAN = dataclasses.replace(
    DEFAULT_CALIBRATION, lan_bandwidth=DEFAULT_CALIBRATION.lan_bandwidth * 8
)

#: every critical-path contributor, not the report's default top ten
PROFILE_KWARGS = {"top": 100_000}

#: PostMark's operation stream and every fleet identity, on every seed
STREAM_SEED = "bench"


def seed_name(seed: str) -> str:
    """``--seed 1`` and ``--seed bench-1`` name the same inputs."""
    return f"bench-{seed}" if seed.isdigit() else seed


def _jitter(rng: random.Random, nominal: int, quantum: int) -> int:
    """A size in ``(nominal - nominal/128, nominal]``, ``quantum`` apart."""
    steps = nominal // 128 // quantum
    return nominal - quantum * rng.randrange(steps + 1)


# ---------------------------------------------------------------------------
# wrappers that observe a workload from outside
# ---------------------------------------------------------------------------


class _CheckedClient:
    """The mount's client as PostMark sees it, with a shadow copy.

    PostMark verifies nothing itself and swallows ``NfsClientError``;
    this keeps each file's expected content, compares every whole-file
    read against it, and counts payload bytes and failed calls.
    """

    def __init__(self, inner):
        self._inner = inner
        self._shadow: Dict[str, bytes] = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self.failures = 0

    def __getattr__(self, name):
        # every client method PostMark calls is a process generator
        method = getattr(self._inner, name)
        return lambda *args, **kwargs: self._guard(method(*args, **kwargs))

    def _guard(self, call):
        try:
            return (yield from call)
        except NfsClientError:
            self.failures += 1
            raise

    def write_file(self, path, data):
        yield from self._guard(self._inner.write_file(path, data))
        self._shadow[path] = bytes(data)
        self.bytes_written += len(data)

    def write(self, f, offset, data):
        yield from self._guard(self._inner.write(f, offset, data))
        old = self._shadow.get(f.path, b"")
        self._shadow[f.path] = (
            old[:offset].ljust(offset, b"\0") + bytes(data) + old[offset + len(data):]
        )
        self.bytes_written += len(data)

    def read_file(self, path):
        data = yield from self._guard(self._inner.read_file(path))
        if data != self._shadow.get(path):
            self.failures += 1
        self.bytes_read += len(data)
        return data

    def unlink(self, path):
        yield from self._guard(self._inner.unlink(path))
        self._shadow.pop(path, None)


class _Stamped:
    """A workload whose ``run`` stamps the host clock at its first resume.

    Everything the harness does before that instant — key generation,
    ``Testbed.build``, proxies, mounts and their handshakes — is set-up.
    Fleets share one ``stamps`` list, so its first entry is the earliest
    client's first operation.
    """

    def __init__(self, inner, stamps: List[float], checked: bool = False):
        self._inner = inner
        self._stamps = stamps
        self._checked = checked
        self.client: Optional[_CheckedClient] = None

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run(self, mount):
        self._stamps.append(time.perf_counter())
        if self._checked:
            self.client = _CheckedClient(mount.client)
            mount = dataclasses.replace(mount, client=self.client)
        return (yield from self._inner.run(mount))


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Rep:
    """One harness call: host times, virtual results, and the raw stats."""

    setup_s: float
    host_run_s: float
    makespan: float
    #: per-client phase seconds, client order
    phases: List[Dict[str, float]]
    stats: Dict[str, object]
    #: payload bytes the workload moved through its mounts
    payload_bytes: int
    #: 10^6 bytes per virtual second: bulk workloads over their write and
    #: first read phase (total bytes / mean per-client phase seconds),
    #: mixed workloads over the makespan
    write_mb_s: float
    read_mb_s: float
    #: application-level operations (PostMark transactions, IOzone
    #: records, churn bursts) and the virtual seconds they took
    txns: int
    txn_s: float
    verify_failures: int = 0
    profile: Optional[dict] = None
    tracer: Optional[object] = None

    @property
    def host_total_s(self) -> float:
        return self.setup_s + self.host_run_s

    def counts(self) -> Dict[str, float]:
        return layers.counts(self.stats, self.payload_bytes)

    @property
    def ops_attempted(self) -> int:
        """Kernel NFS client calls."""
        return int(layers.labelled_sum(
            self.stats.get("rpc.client", {}), "calls", "account=kernel-nfs"))

    @property
    def ops_failed(self) -> int:
        proxy = self.stats.get("proxy.client", {})
        grid = self.stats.get("grid", {})
        return int(self.verify_failures + proxy.get("writeback_errors", 0)
                   + grid.get("hole_spans", 0))

    def virtual_key(self):
        """What must repeat exactly whatever the telemetry settings."""
        return (self.makespan, self.phases)

    def fingerprint(self) -> str:
        """SHA-256 over makespan, phases, ``sim.events`` and the layer counts."""
        doc = {"makespan": self.makespan, "phases": self.phases,
               "counts": self.counts()}
        text = "\n".join(f"{k}={v!r}" for k, v in sorted(flatten(doc).items()))
        return hashlib.sha256(text.encode()).hexdigest()

    def end_to_end_virtual(self) -> Dict[str, float]:
        tls = self.stats.get("tls", {})
        sessions = layers.labelled_sum(tls, "handshakes", "role=server")
        return {
            "virt_makespan_s": self.makespan,
            "virt_throughput_mb_s": self.payload_bytes / MB / self.makespan,
            "virt_write_mb_s": self.write_mb_s,
            "virt_read_mb_s": self.read_mb_s,
            "virt_txn_per_s": self.txns / self.txn_s,
            "virt_sessions_per_s": sessions / self.makespan,
        }


def _records(size: int) -> int:
    """32 KB application records (IOzone's ``block_size``) in ``size`` bytes."""
    return -(-size // (32 * KB))


def _postmark(rng, smoke, obs):
    # The paper's parameters are 100 dirs / 500 files / 1000 txns (8.7 s
    # of host time a rep); a quarter of that keeps the same mix and lets a
    # 20 s run take its median over eight reps, not two.
    n = 40 if smoke else 250
    # fewer transactions run a prefix of the same operation stream
    cfg = PostMarkConfig(directories=max(n // 10, 2), files=n // 2,
                         transactions=n - rng.randrange(4), seed=STREAM_SEED)
    stamps: List[float] = []
    made: List[_Stamped] = []

    def factory():
        made.append(_Stamped(PostMark(cfg), stamps, checked=True))
        return made[-1]

    t0 = time.perf_counter()
    r = run_workload("sgfs-aes", factory, **obs)
    t1 = time.perf_counter()
    client = made[0].client
    return Rep(
        setup_s=stamps[0] - t0, host_run_s=t1 - stamps[0],
        makespan=r.total, phases=[dict(r.phases)], stats=r.stats,
        payload_bytes=client.bytes_written + client.bytes_read,
        write_mb_s=client.bytes_written / MB / r.total,
        read_mb_s=client.bytes_read / MB / r.total,
        txns=cfg.transactions, txn_s=r.phases["transaction"],
        verify_failures=client.failures, profile=r.profile, tracer=r.tracer,
    )


def _iozone_wan(rng, smoke, obs):
    nominal = (3 if smoke else 24) * MIB
    size = _jitter(rng, nominal, 32 * KB)
    stamps: List[float] = []
    t0 = time.perf_counter()
    r = run_workload(
        "sgfs-aes", lambda: _Stamped(IOzoneWriteRead(file_size=size), stamps),
        rtt=0.080,
        # the file is 6x the proxy disk cache, whatever the scale
        setup_kwargs=dict(disk_cache=True, streams=4, cache_capacity=nominal // 6),
        **obs,
    )
    t1 = time.perf_counter()
    return Rep(
        setup_s=stamps[0] - t0, host_run_s=t1 - stamps[0],
        makespan=r.total, phases=[dict(r.phases)], stats=r.stats,
        payload_bytes=3 * size,
        write_mb_s=size / MB / r.phases["write"],
        read_mb_s=size / MB / r.phases["read"],
        txns=3 * _records(size), txn_s=r.total,
        profile=r.profile, tracer=r.tracer,
    )


def _fleet_rep(stamps, t0, r, t1, **virtual) -> Rep:
    return Rep(
        setup_s=min(stamps) - t0, host_run_s=t1 - min(stamps),
        makespan=r.makespan, phases=[dict(c.phases) for c in r.per_client],
        stats=r.stats, txn_s=r.makespan, profile=r.profile, tracer=r.tracer,
        **virtual,
    )


def _grid_fleet(rng, smoke, obs):
    clients = 3 if smoke else 12
    nominal = (256 if smoke else 512) * KB
    sizes = [_jitter(rng, nominal, 512) for _ in range(clients)]
    stamps: List[float] = []
    t0 = time.perf_counter()
    r = run_fleet(
        "sgfs-aes",
        lambda i: _Stamped(IOzoneWriteRead(file_size=sizes[i]), stamps),
        clients=clients, servers=4, replicas=2, streams=4,
        grid_block_size=32 * KB, server_cores=1, cal=FAT_LAN,
        setup_kwargs={"cache_bytes": 64 * KB}, session_seed=STREAM_SEED, **obs,
    )
    t1 = time.perf_counter()
    mean = lambda phase: sum(c.phases[phase] for c in r.per_client) / clients
    return _fleet_rep(
        stamps, t0, r, t1,
        payload_bytes=3 * sum(sizes),
        write_mb_s=sum(sizes) / MB / mean("write"),
        read_mb_s=sum(sizes) / MB / mean("read"),
        txns=3 * sum(_records(s) for s in sizes),
    )


def _churn(rng, smoke, obs):
    clients = 2 if smoke else 8
    duration = 3.0 if smoke else 12.0
    io_sizes = [_jitter(rng, 8192, 4) for _ in range(clients)]
    stamps: List[float] = []
    t0 = time.perf_counter()
    r = run_fleet(
        "sgfs-aes",
        lambda i: _Stamped(
            SessionChurn(duration=duration, period=0.5, io_size=io_sizes[i]), stamps),
        clients=clients, stagger=0.25, reconnect_interval=1.5,
        session_tickets=True, delegation_lifetime=4.0, cal=FAT_LAN,
        session_seed=STREAM_SEED, **obs,
    )
    t1 = time.perf_counter()
    bursts = [int(c.phases["bursts"]) for c in r.per_client]
    written = sum(b * s for b, s in zip(bursts, io_sizes))
    read = sum((b - 1) * s for b, s in zip(bursts, io_sizes))
    return _fleet_rep(
        stamps, t0, r, t1, payload_bytes=written + read,
        write_mb_s=written / MB / r.makespan, read_mb_s=read / MB / r.makespan,
        txns=sum(bursts),
    )


_RUNNERS: Dict[str, Callable] = {
    "postmark-lan-sgfs": _postmark,
    "iozone-wan-engine": _iozone_wan,
    "grid-fleet-wr": _grid_fleet,
    "churn-delegated": _churn,
}


def run_rep(workload: str, seed: str, smoke: bool = False, **obs) -> Rep:
    """Run one repetition of ``workload`` on inputs made from ``seed``.

    ``obs`` is forwarded to the harness (``telemetry=``, ``profile=``);
    the default is what ``python -m repro run`` users pay: telemetry on,
    tracing and profiling off.
    """
    rng = random.Random(f"{seed_name(seed)}:{workload}")
    return _RUNNERS[workload](rng, smoke, obs)
