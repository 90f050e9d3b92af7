"""SGFS proxies — the paper's primary contribution.

User-level loop-back proxies interposed on the NFS RPC path:

- :mod:`repro.proxy.server_proxy` — the server-side proxy: GSI
  authentication (via the secure transport's peer identity), gridmap and
  per-file ACL authorization, ACCESS-procedure interception, uid/gid
  identity mapping, and forwarding to the kernel NFS server that exports
  only to localhost (Figure 1).
- :mod:`repro.proxy.client_proxy` — the client-side proxy: forwards the
  unmodified kernel client's RPCs to the server-side proxy over a plain,
  SSL-secured, or SSH-tunneled transport, optionally through a disk
  cache with write-back (the WAN story of §6.2.2–6.3).
- :mod:`repro.proxy.upstream` — the client proxy's recoverable
  upstream leg (channels, retry ladder, RTT-sized window, burst
  striping); its disk block cache is the kernel client's block table
  (:class:`repro.nfs.cache.BlockCache`) on the proxy's disk.
- :mod:`repro.proxy.acl` — grid-style ACL files (``.filename.acl``)
  with directory inheritance and in-memory caching (§4.3).
- :mod:`repro.proxy.authz` — the epoch-stamped identity→account cache
  the server proxy consults per session (population-scale control
  plane; see docs/CONTROL_PLANE.md).
- :mod:`repro.proxy.accounts` — the local account database used for
  identity mapping.
- :mod:`repro.proxy.session_config` — the proxy configuration file
  (security + cache sections) with dynamic reload (§4.2).
- :mod:`repro.proxy.cryptofs` — at-rest encryption extension (§7
  future work).
"""

from repro.proxy.accounts import AccountsDb, Account
from repro.proxy.acl import AclStore, AclEntry, parse_acl_text, ACL_SUFFIX_FMT, acl_name_for
from repro.proxy.authz import AuthzCache
from repro.proxy.server_proxy import SgfsServerProxy
from repro.proxy.client_proxy import SgfsClientProxy
from repro.proxy.session_config import ProxyCacheConfig, SessionConfig

__all__ = [
    "AccountsDb",
    "Account",
    "AclStore",
    "AclEntry",
    "parse_acl_text",
    "ACL_SUFFIX_FMT",
    "acl_name_for",
    "AuthzCache",
    "SgfsServerProxy",
    "SgfsClientProxy",
    "ProxyCacheConfig",
    "SessionConfig",
]
