"""Session-churn workload: long-lived interactive sessions, light I/O.

The population-scale control plane is stressed not by bulk transfer but
by *session lifecycle*: login storms, periodic reconnects, delegations
expiring mid-run.  :class:`SessionChurn` models the client a grid portal
actually serves — a session that stays mounted for a long virtual span
and touches the file system in small periodic bursts — so the fleet
knobs (``reconnect_interval``, ``delegation_lifetime``,
``session_tickets``, ``stagger``) have room to fire many times per run.

Determinism and units: the burst schedule is fixed by ``duration`` /
``period`` (virtual seconds) and the payloads by the offset-derived
pattern — no randomness, so same-seed fleet runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.setups import Mount

_RAMP = bytes(range(256))


@dataclass
class SessionChurn:
    """Periodic small writes + verified read-back over a long session.

    Every ``period`` virtual seconds the client writes ``io_size`` bytes
    at a rotating offset in one file and reads the previous burst back,
    until ``duration`` has elapsed.  ``results`` reports the burst count
    and per-burst mean latency (virtual seconds); ``bytes_moved`` counts
    write + read payload bytes.
    """

    duration: float = 30.0
    period: float = 1.0
    io_size: int = 8192
    path: str = "/churn.dat"
    results: Dict[str, float] = field(default_factory=dict)
    bytes_moved: int = 0

    def _pattern(self, burst: int) -> bytes:
        """``io_size`` bytes counting up (mod 256) from ``burst``."""
        start = burst % 256
        return (_RAMP * ((start + self.io_size) // 256 + 1))[start : start + self.io_size]

    def run(self, mount: Mount):
        """Process generator: the think/burst loop."""
        sim = mount.tb.sim
        t0 = sim.now
        deadline = t0 + self.duration
        f = yield from mount.client.open(self.path, create=True, truncate=True)
        burst = 0
        busy = 0.0
        while sim.now < deadline:
            yield sim.timeout(self.period)
            t_burst = sim.now
            offset = (burst % 8) * self.io_size
            yield from mount.client.write(f, offset, self._pattern(burst))
            self.bytes_moved += self.io_size
            if burst:
                prev = ((burst - 1) % 8) * self.io_size
                data = yield from mount.client.read(f, prev, self.io_size)
                if len(data) != self.io_size:
                    raise AssertionError(
                        f"short read of burst {burst - 1}: {len(data)}"
                    )
                if data != self._pattern(burst - 1):
                    raise AssertionError(f"corrupt burst {burst - 1}")
                self.bytes_moved += self.io_size
            busy += sim.now - t_burst
            burst += 1
        yield from mount.client.close(f)
        self.results["bursts"] = float(burst)
        self.results["burst_mean"] = busy / burst if burst else 0.0
        self.results["total"] = sim.now - t0
        return self.results["total"]
