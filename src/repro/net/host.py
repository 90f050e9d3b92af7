"""Hosts: named nodes with a CPU, port table, and connect/listen API."""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.sim.core import Simulator
from repro.sim.cpu import CPU
from repro.net.errors import ConnectionRefused, NetError
from repro.net.network import Network
from repro.net.socket import Listener, SimSocket, SEGMENT_OVERHEAD

_conn_counter = itertools.count(1)


class Host:
    """A machine on the simulated network.

    Owns a :class:`~repro.sim.cpu.CPU` (single-core by default, matching
    the paper's 1-vCPU client/server VMs) whose ledger backs the
    CPU-utilization figures.  ``cpu_speed`` scales all compute charged
    on this host; ``cpu_cores`` sizes the deterministic multi-core run
    queue (scale-out servers).
    """

    forward_delay = 0.0  # plain hosts add no transit delay

    def __init__(self, sim: Simulator, network: Network, name: str,
                 cpu_speed: float = 1.0, cpu_cores: int = 1):
        self.sim = sim
        self.network = network
        self.name = name
        self.cpu = CPU(sim, name=f"cpu:{name}", speed=cpu_speed, cores=cpu_cores)
        self._ports: Dict[int, Listener] = {}
        network.add_node(self)

    # -- passive side ----------------------------------------------------

    def listen(self, port: int) -> Listener:
        if port in self._ports:
            raise NetError(f"{self.name}: port {port} already bound")
        lst = Listener(self.sim, self, port)
        self._ports[port] = lst
        return lst

    def _unbind(self, port: int) -> None:
        self._ports.pop(port, None)

    # -- active side -----------------------------------------------------

    def connect(self, dest: str, port: int):
        """Process generator: open a stream connection to (dest, port).

        Costs one round trip (SYN / SYN-ACK), like TCP.  Returns the
        local :class:`SimSocket`.  Raises :class:`ConnectionRefused` if
        nothing listens there.
        """
        if dest not in self.network.nodes:
            raise NetError(f"unknown destination host {dest!r}")
        conn_id = f"conn{next(_conn_counter)}:{self.name}->{dest}:{port}"
        local = SimSocket(self.sim, self, dest, conn_id)
        done = self.sim.event(name=f"connect:{conn_id}")

        def syn_arrives() -> None:
            target = self.network.nodes[dest]
            listener = target._ports.get(port) if isinstance(target, Host) else None
            if listener is None or listener.closed:
                # RST comes back after another half round trip.
                self.network.deliver(
                    dest,
                    self.name,
                    SEGMENT_OVERHEAD,
                    lambda: done.fail(
                        ConnectionRefused(f"{dest}:{port} refused {conn_id}")
                    ),
                )
                return
            remote = SimSocket(self.sim, target, self.name, conn_id + ":srv")
            remote.peer = local
            local.peer = remote
            listener._enqueue(remote)
            self.network.deliver(dest, self.name, SEGMENT_OVERHEAD, lambda: done.succeed())

        self.network.deliver(self.name, dest, SEGMENT_OVERHEAD, syn_arrives)
        yield done
        return local

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name}>"
