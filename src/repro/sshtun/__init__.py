"""SSH-style secure tunneling — the *gfs-ssh* baseline (paper §2.2, [45]).

The prior system secured GFS by running each session's NFS traffic
through a per-session SSH tunnel, with session-key authentication
between the proxies.  Its cost signature — the one the paper measures
and then eliminates — is **double user-level forwarding**: every RPC
crosses two extra user-level processes (the tunnel endpoints), each
paying kernel/user transitions, copies, and bulk crypto.

:class:`~repro.sshtun.tunnel.SshTunnelClient` listens on the client's
loopback and forwards byte streams over an encrypted connection to
:class:`~repro.sshtun.tunnel.SshTunnelServer`, which connects onward to
the server-side proxy.  Authentication uses a pre-shared session key
(the middleware-distributed key of the prior system), confirmed by a
nonce/HMAC exchange.
"""

from repro.sshtun.tunnel import SshTunnelClient, SshTunnelServer

__all__ = ["SshTunnelClient", "SshTunnelServer"]
