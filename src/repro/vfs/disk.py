"""Disk timing model.

Charges virtual time for storage I/O.  Used in two places:

- the NFS **server** pays for synchronous updates (the paper exports
  with ``sync`` — metadata-changing operations and stable writes hit
  the platter before the reply goes out), and
- the SGFS **client proxy's disk cache** pays for cache reads/writes,
  which is why the paper's LAN runs keep disk caching *off* (§6.3.2:
  "phase 2 in fact runs faster [in WAN] because disk caching is not
  enabled in LAN").

The model is a single-spindle queue: operations serialize, each costing
a fixed access latency plus size/throughput.  A warm buffer pays only a
(cheaper) cache cost for reads that hit memory — the IOzone experiment
preloads the file server-side precisely to eliminate disk reads.
"""

from __future__ import annotations

from repro.obs import NULL_SPAN
from repro.sim.core import SimError, Simulator
from repro.sim.sync import Semaphore


class DiskModel:
    """Timing for one disk (2007-era 7200rpm SATA-ish defaults)."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "disk",
        access_latency: float = 0.004,
        read_bandwidth: float = 70e6,
        write_bandwidth: float = 55e6,
        write_delay_window: float = 0.030,
    ):
        self.sim = sim
        self.name = name
        self.access_latency = access_latency
        self.read_bandwidth = read_bandwidth
        self.write_bandwidth = write_bandwidth
        #: "wdelay"-style coalescing: back-to-back writes inside this
        #: window share one access latency.
        self.write_delay_window = write_delay_window
        self._spindle = Semaphore(sim, 1, name=f"{name}.spindle")
        self._last_write_done = -1e18
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.tracer = sim.tracer
        sim.obs.add_fields("disk", self.__getattribute__, disk=name)

    def read(self, nbytes: int, cached: bool = True):
        """Process generator: one read of nbytes (cached=in page cache)."""
        if nbytes < 0:
            raise SimError("negative read")
        self.reads += 1
        self.bytes_read += nbytes
        if cached:
            return  # memory hit: negligible against everything else modeled
            yield  # pragma: no cover
        with self.tracer.span("disk.read", cat="disk", disk=self.name,
                              bytes=nbytes) if self.tracer.enabled else NULL_SPAN:
            if not self._spindle.try_acquire():
                yield self._spindle.acquire()
            try:
                yield self.sim.timeout(
                    self.access_latency + nbytes / self.read_bandwidth
                )
            finally:
                self._spindle.release()

    def write(self, nbytes: int, sync: bool = True):
        """Process generator: one write; sync pays latency, async coalesces."""
        if nbytes < 0:
            raise SimError("negative write")
        self.writes += 1
        self.bytes_written += nbytes
        with self.tracer.span("disk.write", cat="disk", disk=self.name,
                              bytes=nbytes, sync=sync) if self.tracer.enabled else NULL_SPAN:
            if not self._spindle.try_acquire():
                yield self._spindle.acquire()
            try:
                latency = self.access_latency
                if not sync and self.sim.now - self._last_write_done < self.write_delay_window:
                    latency = 0.0  # coalesced into the in-flight stripe
                yield self.sim.timeout(latency + nbytes / self.write_bandwidth)
                self._last_write_done = self.sim.now
            finally:
                self._spindle.release()
