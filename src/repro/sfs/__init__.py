"""SFS: the Self-certifying File System baseline (Mazières et al., §2.2/§6).

The related user-level secure file system the paper compares against.
Three properties matter to the evaluation and are modeled faithfully:

- **self-certifying pathnames** ``/sfs/@server,HostID/...``: the HostID
  embeds a hash of the server's public key, so the client authenticates
  the server with no CA or other trust infrastructure
  (:mod:`repro.sfs.paths`),
- a secure channel approximating RC4 + SHA1-HMAC, with client (user)
  authentication by registered public key (:mod:`repro.sfs.channel`),
- **asynchronous RPCs** and aggressive in-memory caching of attributes
  and access rights in the client daemon — which is why SFS beats the
  blocking SGFS prototype by ~15 % under IOzone while burning >30 % CPU
  on both sides (:mod:`repro.sfs.daemons`).
"""

from repro.sfs.paths import SelfCertifyingPath, host_id_for_key, SfsPathError
from repro.sfs.channel import sfs_client_channel, sfs_server_channel, SfsAuthError
from repro.sfs.daemons import SfsClientDaemon, SfsServerDaemon, sfs_dialer

__all__ = [
    "SelfCertifyingPath",
    "host_id_for_key",
    "SfsPathError",
    "sfs_client_channel",
    "sfs_server_channel",
    "SfsAuthError",
    "SfsClientDaemon",
    "SfsServerDaemon",
    "sfs_dialer",
]
