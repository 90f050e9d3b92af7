"""Calibration: every timing constant of the virtual testbed, in one place.

The paper's testbed is a pair of 1-vCPU VMware VMs on dual 3.2 GHz Xeon
hosts, Gigabit Ethernet, and a NIST Net router.  The constants below
were tuned so that the **LAN baselines land near the paper's reported
magnitudes** — kernel NFS bulk throughput (~38 MB/s end to end, the
VMware-era virtual-NIC ceiling rather than wire speed), the >2×
user-level slowdown, the +9/+15/+50 % cipher ladder, the ≥6× gfs-ssh
penalty, and SFS's >30 % daemon CPU — after which every WAN result is
*prediction*, not fitting: nothing here encodes a WAN number.

Two cost shapes appear:

- :class:`~repro.rpc.costs.EndpointCost` — CPU seconds per message for
  kernel endpoints (charged on the host core),
- :class:`~repro.rpc.costs.CostProfile` — user-level processes split
  their overhead into *wall latency* (kernel crossings, copies,
  scheduling — invisible to per-process user-CPU sampling, which is why
  the paper's proxies run at 0.6 % CPU while doubling runtimes) and a
  small *user CPU* part that the utilization figures do see.

Crypto costs come from the cycles/byte in :mod:`repro.crypto.suites`
(SHA1-HMAC 8 c/B, RC4 7 c/B, AES-256-CBC 46 c/B — 2007-class software
numbers) divided by ``cpu_hz``, half charged as user CPU and half as
latency (see ``repro.crypto.suites.CRYPTO_CPU_FRACTION``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rpc.costs import CostProfile, EndpointCost


@dataclass(frozen=True)
class Calibration:
    """The knobs of a virtual testbed."""

    # -- hardware -----------------------------------------------------------
    cpu_hz: float = 3.2e9
    #: one-way latency per LAN link (client—router and router—server);
    #: base RTT ≈ 0.3 ms, matching §6.2.2's measured LAN RTT.
    lan_link_latency: float = 0.000075
    #: effective end-to-end payload bandwidth of the virtualized NIC
    #: path (VMware-era, not wire-speed Gigabit).
    lan_bandwidth: float = 40e6

    # -- kernel endpoints (asymmetric: VM client path vs nfsd) -----------------
    kernel_client_cost: EndpointCost = EndpointCost(per_msg=5.0e-5, per_byte=7.0e-9)
    kernel_server_cost: EndpointCost = EndpointCost(per_msg=4.0e-5, per_byte=2.5e-9)
    #: extra per-op processing of NFSv4 COMPOUND assembly/parsing
    v4_compound_overhead: float = 3.0e-5

    # -- user-level processes ----------------------------------------------------
    #: GFS/SGFS proxy per-record forwarding: latency-dominated (two
    #: kernel/user crossings + copies), tiny user-CPU footprint.
    proxy_cost: CostProfile = CostProfile(
        latency=EndpointCost(per_msg=8.0e-5, per_byte=7.0e-9),
        cpu=EndpointCost(per_msg=4.0e-6, per_byte=3.0e-10),
    )
    #: SSH tunnel endpoint, per forwarded chunk, charged at BOTH
    #: endpoints in BOTH directions — the double-forwarding penalty.
    ssh_cost: CostProfile = CostProfile(
        latency=EndpointCost(per_msg=3.0e-5, per_byte=1.55e-7),
        cpu=EndpointCost(per_msg=8.0e-6, per_byte=1.0e-8),
    )
    #: SFS daemons: heavier user-mode machinery (the >30 % CPU story).
    sfs_cost: CostProfile = CostProfile(
        latency=EndpointCost(per_msg=1.0e-4, per_byte=8.0e-9),
        cpu=EndpointCost(per_msg=1.0e-4, per_byte=2.0e-8),
    )

    # -- client memory (kernel page cache) ----------------------------------------
    #: the paper's client VM has 256 MB; experiments scale this together
    #: with file sizes, keeping the paper's file = 2 × cache ratio.
    client_cache_bytes: int = 8 * 1024 * 1024

    # -- disks ----------------------------------------------------------------------
    server_disk_access: float = 0.0028
    server_disk_read_bw: float = 70e6
    server_disk_write_bw: float = 55e6
    #: the proxy cache disk: the paper notes disk caching *adds* latency
    #: in LAN (§6.3.2), so cache hits must cost real (but < WAN RTT) time;
    #: block-cache access is mostly short-seek on a dedicated spindle.
    cache_disk_access: float = 0.0012
    cache_disk_read_bw: float = 80e6
    cache_disk_write_bw: float = 60e6

    # -- NFS client behavior ------------------------------------------------------
    block_size: int = 32768
    read_ahead_blocks: int = 3
    max_async_io: int = 8
    ac_reg_min: float = 3.0
    ac_reg_max: float = 60.0


DEFAULT_CALIBRATION = Calibration()
