"""Simulated network substrate.

Models the paper's testbed: hosts connected by links with latency and
bandwidth, optionally routed through a NIST-Net-style delay router that
emulates wide-area round-trip times.  On top of the packet path it
provides TCP-like stream sockets (connection handshake, ordered
byte-stream delivery, FIN teardown) that the RPC layer runs over.

The model is store-and-forward per hop: a message occupies each link's
direction for ``size / bandwidth`` seconds (FIFO), then experiences the
link's propagation latency; intermediate router nodes add their
configured one-way emulation delay.  This reproduces the two effects the
paper's evaluation turns on — RTT-bound small operations and
bandwidth/CPU-bound bulk transfers — while staying deterministic.
"""

from repro.net.errors import NetError, ConnectionRefused, ConnectionReset
from repro.net.network import Network, Link
from repro.net.host import Host
from repro.net.router import DelayRouter
from repro.net.socket import SimSocket, Listener

__all__ = [
    "NetError",
    "ConnectionRefused",
    "ConnectionReset",
    "Network",
    "Link",
    "Host",
    "DelayRouter",
    "SimSocket",
    "Listener",
]
