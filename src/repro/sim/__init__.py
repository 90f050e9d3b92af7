"""Discrete-event simulation kernel.

Everything in this reproduction — the network, the RPC stacks, the NFS
client and server, the SGFS proxies and the workloads — executes as
cooperating processes on a single deterministic virtual clock provided by
this package.  The kernel is deliberately small and dependency-free:

- :class:`~repro.sim.core.Simulator` — the event loop and virtual clock.
- :class:`~repro.sim.process.Process` — generator-based cooperative
  processes (``yield sim.timeout(dt)``, ``yield event``, ``yield proc``).
- :mod:`repro.sim.sync` — channels, stores and semaphores for
  inter-process communication.
- :mod:`repro.sim.cpu` — a CPU resource that both serializes compute and
  accounts busy time per named activity, which is how the paper's
  CPU-utilization figures (Figs. 5/6) are reproduced.

Determinism: the event queue breaks ties by insertion sequence number, and
no wall-clock or OS entropy is consulted anywhere, so a simulation run is
a pure function of its inputs.
"""

from repro.sim.core import Event, Simulator, SimError, Interrupt
from repro.sim.process import Process, ProcessDied
from repro.sim.sync import Channel, Semaphore, RwLock, Gate
from repro.sim.cpu import CPU, CpuLedger

__all__ = [
    "Event",
    "Simulator",
    "SimError",
    "Interrupt",
    "Process",
    "ProcessDied",
    "Channel",
    "Semaphore",
    "RwLock",
    "Gate",
    "CPU",
    "CpuLedger",
]
