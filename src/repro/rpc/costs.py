"""Endpoint CPU cost descriptors.

Every RPC endpoint (kernel NFS client/server, user-level proxy, SFS
daemon, SSH forwarder) charges its host CPU for handling a message.  The
charge has a fixed per-message part (syscall/context switch, header
processing) and a per-byte part (copies, checksums).  The concrete
constants live in :mod:`repro.core.calibration`; this module only defines
the shape so lower layers stay policy-free.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndpointCost:
    """Seconds charged per message: ``per_msg + nbytes * per_byte``."""

    per_msg: float = 0.0
    per_byte: float = 0.0

    def cost(self, nbytes: int) -> float:
        return self.per_msg + nbytes * self.per_byte


FREE = EndpointCost(0.0, 0.0)


@dataclass(frozen=True)
class CostProfile:
    """A user-level process's per-message cost, split into two parts.

    ``latency`` elapses as wall time but does not occupy the CPU —
    kernel network-stack work, data copies across the user/kernel
    boundary, and scheduling delays, which the paper's user-CPU-time
    sampling does *not* see (its proxies run at 0.6 % CPU while slowing
    the file system 2×).  ``cpu`` is genuine user-mode compute, charged
    against the host core and visible in the utilization figures.
    """

    latency: EndpointCost = FREE
    cpu: EndpointCost = FREE


FREE_PROFILE = CostProfile()


def charge_profile(sim, cpu, profile: CostProfile, nbytes: int, account: str,
                   affinity=None):
    """Process generator: apply a CostProfile for one message.

    Wall latency elapses via a timeout (no core occupancy); the CPU part
    queues on the host core and lands in its ledger.  ``affinity`` pins
    the CPU part to one core of a multi-core CPU (see
    :meth:`repro.sim.cpu.CPU.consume`).
    """
    lat = profile.latency.cost(nbytes)
    if lat > 0:
        yield sim.timeout(lat)
    c = profile.cpu.cost(nbytes)
    if c > 0 and cpu is not None:
        yield from cpu.consume(c, account, affinity=affinity)

