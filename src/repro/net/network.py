"""Topology, links and the message delivery engine.

A :class:`Network` owns a set of nodes (hosts and routers) and duplex
:class:`Link` objects between them.  Routing uses shortest-path hop
counts computed on demand and cached; topologies in this repository are
tiny (2–4 nodes), so this is more than enough.

Delivery of one transport segment works like a real store-and-forward
path: for each hop the segment queues FIFO for the link direction,
occupies it for ``size / bandwidth``, then propagates for the link's
latency; intermediate nodes add their ``forward_delay`` (zero for plain
hosts, the configured emulation delay for a :class:`DelayRouter`).
Per-connection ordering is preserved because the per-direction link
queues are FIFO and all segments of a connection follow the same path.

One engine carries every segment: :class:`_Delivery`, a small state
object per segment that walks the hops by chaining event callbacks.  An
uncontended hop takes its link's transmit lock on the spot; a contended
one queues ``acquire()`` with the delivery itself as the callback, so
the segment keeps its FIFO place in the link queue and resumes the same
transmit step when the lock is handed over.  No generator, process or
per-hop closure is allocated.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.core import Simulator
from repro.sim.cpu import CpuLedger
from repro.sim.sync import Semaphore
from repro.net.errors import NetError, NoRoute

#: One-way latency of the loopback interface (same-host connections —
#: the app-to-proxy hop of a GFS/SGFS session).
LOOPBACK_LATENCY = 15e-6


class Link:
    """A duplex point-to-point link.

    ``latency`` is the one-way propagation delay in seconds; ``bandwidth``
    is in bytes/second.  Each direction has its own FIFO transmit queue.
    """

    def __init__(
        self,
        sim: Simulator,
        a: str,
        b: str,
        latency: float,
        bandwidth: float,
        name: str = "",
    ):
        if latency < 0 or bandwidth <= 0:
            raise NetError("link needs latency >= 0 and bandwidth > 0")
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name or f"{a}<->{b}"
        self._tx: Dict[Tuple[str, str], Semaphore] = {
            (a, b): Semaphore(sim, 1, name=f"{self.name}:{a}->{b}"),
            (b, a): Semaphore(sim, 1, name=f"{self.name}:{b}->{a}"),
        }
        #: per-link telemetry instruments, resolved once on first use by
        #: :meth:`Network._metrics_for` and cached here so the per-packet
        #: hot loop never repeats the registry lookups.
        self._obs_metrics: Optional[tuple] = None

    def tx_lock(self, src: str, dst: str) -> Semaphore:
        return self._tx[(src, dst)]

    def transmit_time(self, nbytes: int) -> float:
        return nbytes / self.bandwidth


class Network:
    """Node and link registry plus the delivery engine."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.nodes: Dict[str, "NodeLike"] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self._adj: Dict[str, List[str]] = {}
        self._route_cache: Dict[Tuple[str, str], List[str]] = {}
        self.obs = sim.obs
        self._c_loopback = self.obs.counter("net", "loopback_bytes")
        #: Installed FaultPlan (repro.faults), or None for a clean network.
        self.fault_plan = None
        #: Profiling: when True, every transmission records its busy
        #: interval into ``link_ledger`` under the directed key
        #: ``"src->dst"``, giving the profiler time-bucketed link
        #: occupancy (the same query machinery as CPU utilization).
        self.record_occupancy = False
        self.link_ledger = CpuLedger()

    def _metrics_for(self, link: Link) -> tuple:
        """Per-link instruments (bytes, busy-seconds, queue-delay),
        created on first use and cached on the link object itself."""
        m = link._obs_metrics
        if m is None:
            m = link._obs_metrics = (
                self.obs.counter("net", "link_bytes", link=link.name),
                self.obs.gauge("net", "link_busy_seconds", link=link.name),
                self.obs.histogram("net", "queue_delay", link=link.name),
            )
        return m

    # -- topology ------------------------------------------------------

    def add_node(self, node: "NodeLike") -> None:
        if node.name in self.nodes:
            raise NetError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self._adj.setdefault(node.name, [])

    def connect(
        self, a: str, b: str, latency: float = 0.0001, bandwidth: float = 125_000_000.0
    ) -> Link:
        """Create a duplex link (defaults: 0.1 ms one-way, Gigabit)."""
        for n in (a, b):
            if n not in self.nodes:
                raise NetError(f"unknown node {n!r}")
        key = (min(a, b), max(a, b))
        if key in self.links:
            raise NetError(f"link {a}<->{b} already exists")
        link = Link(self.sim, a, b, latency, bandwidth)
        self.links[key] = link
        self._adj[a].append(b)
        self._adj[b].append(a)
        self._route_cache.clear()
        return link

    def link_between(self, a: str, b: str) -> Link:
        return self.links[(min(a, b), max(a, b))]

    def route(self, src: str, dst: str) -> List[str]:
        """Shortest path (list of node names, inclusive of endpoints)."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            path = [src]
        else:
            prev: Dict[str, Optional[str]] = {src: None}
            q = deque([src])
            while q:
                u = q.popleft()
                if u == dst:
                    break
                for v in self._adj.get(u, ()):
                    if v not in prev:
                        prev[v] = u
                        q.append(v)
            if dst not in prev:
                raise NoRoute(f"no path {src} -> {dst}")
            path = [dst]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])  # type: ignore[arg-type]
            path.reverse()
        self._route_cache[key] = path
        return path

    def rtt(self, src: str, dst: str) -> float:
        """Round-trip propagation time between two nodes (zero-size payload)."""
        path = self.route(src, dst)
        one_way = sum(
            self.link_between(path[i], path[i + 1]).latency for i in range(len(path) - 1)
        )
        one_way += sum(self.nodes[n].forward_delay for n in path[1:-1])
        return 2.0 * one_way

    # -- delivery ------------------------------------------------------

    def deliver(
        self,
        src: str,
        dst: str,
        nbytes: int,
        on_arrival: Callable[[], None],
        kind: str = "ctrl",
    ) -> None:
        """Carry a segment of ``nbytes`` from src to dst; call ``on_arrival``.

        The segment starts its first hop at the current instant, after
        already-queued events, then walks the route hop by hop.

        ``kind`` classifies the packet for fault injection: ``"stream"``
        segments belong to a reliable transport (loss is recovered by RTO
        redelivery, duplicates deduplicated by sequence number at the
        socket) and ``"ctrl"`` packets (SYN/FIN-ack-class handshake
        closures) are retransmitted on loss but never duplicated — their
        closures fire exactly once.
        """
        path = self.route(src, dst)
        plan = self.fault_plan
        if plan is not None and len(path) > 1:
            self._deliver_faulted(path, nbytes, on_arrival, kind, 0)
            return
        self._launch(path, nbytes, on_arrival)

    def _launch(self, path, nbytes, on_arrival) -> None:
        self.sim._schedule_now(_Delivery(self, path, nbytes, on_arrival))

    def _deliver_faulted(self, path, nbytes, on_arrival, kind, attempt) -> None:
        """Consult the fault plan for one packet and act on the verdict."""
        plan = self.fault_plan
        if plan is None:  # uninstalled while a redelivery was pending
            self._launch(path, nbytes, on_arrival)
            return
        verdict, extra = plan.verdict(path, nbytes, kind)
        if verdict in ("drop", "corrupt"):
            # A corrupted segment fails its checksum and is discarded —
            # same outcome as a drop.  The sender's modeled RTO
            # redelivers it.
            plan.note_retransmit()
            delay = plan.rto(attempt)
            self.sim.call_later(
                delay,
                lambda: self._deliver_faulted(
                    path, nbytes, on_arrival, kind, attempt + 1
                ),
            )
            return
        if verdict == "duplicate" and kind != "ctrl":
            # Extra copy; the receiving socket dedups by sequence number.
            self._launch(path, nbytes, on_arrival)
        elif verdict == "delay":
            self.sim.call_later(
                extra, lambda: self._launch(path, nbytes, on_arrival)
            )
            return
        self._launch(path, nbytes, on_arrival)


#: _Delivery chain states: which event the next __call__ answers.
_GRANTED = 1       # the contended transmit lock was handed over: transmit
_TX_DONE = 2       # transmission finished: release the lock, propagate
_PROPAGATED = 3    # propagation finished: arrive or forward
_FORWARDED = 4     # router forward delay finished: start the next hop


class _Delivery:
    """Callback-chained hop walker — one reusable object per segment.

    The object is its own zero-delay queue entry (``_fire`` starts hop
    0 at the segment's FIFO position) and its own event callback
    (``__call__`` advances the chain by ``state``), so carrying a
    segment allocates only the unavoidable transmit/propagation
    :class:`~repro.sim.core.Timeout` events, plus one acquire event per
    hop that finds its link busy.
    """

    __slots__ = ("_when", "_seq", "net", "path", "nbytes", "on_arrival",
                 "i", "cut", "state", "link", "lock", "queued_at")

    def __init__(self, net: Network, path: List[str], nbytes: int,
                 on_arrival: Callable[[], None]):
        self.net = net
        self.path = path
        self.nbytes = nbytes
        self.on_arrival = on_arrival
        self.i = 0          # current hop index (path[i] -> path[i+1])
        self.cut = False    # passed a cut-through router already?
        self.state = 0
        self.link: Optional[Link] = None
        self.lock = None
        self.queued_at = 0.0  # when a contended hop queued for its lock

    # -- queue-entry hook ----------------------------------------------

    def _fire(self) -> None:
        net = self.net
        path = self.path
        if len(path) == 1:
            # Loopback: kernel-only round trip, no wire.
            net._c_loopback.inc(self.nbytes)
            self.state = _PROPAGATED
            net.sim.timeout(LOOPBACK_LATENCY).add_callback(self)
            return
        self._start_hop()

    # -- chain ---------------------------------------------------------

    def _start_hop(self) -> None:
        i = self.i
        u, v = self.path[i], self.path[i + 1]
        link = self.link = self.net.link_between(u, v)
        lock = self.lock = link.tx_lock(u, v)
        if lock.try_acquire():
            self._transmit(0.0)
            return
        # Contended: queue for the lock now, keeping the segment's FIFO
        # place; the hand-over resumes the chain at _GRANTED.
        self.queued_at = self.net.sim.now
        self.state = _GRANTED
        lock.acquire().add_callback(self)

    def _transmit(self, waited: float) -> None:
        """Hop ``i`` holds its link's lock, after ``waited`` seconds in
        the queue: serialize the segment, then propagate."""
        net = self.net
        sim = net.sim
        link = self.link
        tx = 0.0 if self.cut else link.transmit_time(self.nbytes)
        if net.obs.enabled:
            c_bytes, g_busy, h_queue = net._metrics_for(link)
            c_bytes.inc(self.nbytes)
            h_queue.observe(waited)
            if not self.cut:
                g_busy.add(tx)
                if net.record_occupancy:
                    u, v = self.path[self.i], self.path[self.i + 1]
                    net.link_ledger.record(f"{u}->{v}", sim.now, sim.now + tx)
        if not self.cut:
            self.state = _TX_DONE
            sim.timeout(tx).add_callback(self)
        else:
            # Cut-through: serialization was already paid upstream.
            self.lock.release()
            self.state = _PROPAGATED
            sim.timeout(link.latency).add_callback(self)

    def __call__(self, _event) -> None:
        state = self.state
        if state == _TX_DONE:
            self.lock.release()
            self.state = _PROPAGATED
            self.net.sim.timeout(self.link.latency).add_callback(self)
            return
        if state == _PROPAGATED:
            i = self.i
            path = self.path
            if i + 1 >= len(path) - 1:
                self.on_arrival()
                return
            node = self.net.nodes[path[i + 1]]
            if node.forward_delay > 0:
                self.state = _FORWARDED
                self.net.sim.timeout(node.forward_delay).add_callback(self)
                return
            self._next_hop(node)
            return
        if state == _GRANTED:
            self._transmit(self.net.sim.now - self.queued_at)
            return
        # _FORWARDED
        self._next_hop(self.net.nodes[self.path[self.i + 1]])

    def _next_hop(self, node) -> None:
        if getattr(node, "cut_through", False):
            self.cut = True
        self.i += 1
        self._start_hop()


class NodeLike:
    """Minimal interface Network expects of a node."""

    name: str
    forward_delay: float = 0.0
