"""Security configuration for a secure channel / SGFS session.

This is the programmatic form of the proxy configuration file's security
section (paper §4.2): which credential to present, which CAs to trust,
which cipher suite to use, and the renegotiation policy.  Proxies hold a
:class:`SecurityConfig` and can be signalled to reload it mid-session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.crypto.drbg import Drbg
from repro.crypto.suites import CipherSuite, SUITE_AES_SHA, SUITES
from repro.gsi.certs import Certificate, Credential


@dataclass
class SecurityConfig:
    """Everything one endpoint needs to run the secure channel."""

    credential: Credential
    trust_anchors: Tuple[Certificate, ...]
    suite: CipherSuite = SUITE_AES_SHA
    #: Use the fast keyed-XOR bulk transform (benchmarks) instead of the
    #: bit-exact ciphers (tests).  CPU cost charged is identical.
    fast_ciphers: bool = True
    #: Automatic rekey interval in virtual seconds; None disables.
    renegotiate_interval: Optional[float] = None
    #: Offer/issue session tickets (RFC-5077 style): the server hands the
    #: client an opaque ticket at full-handshake time, and a reconnecting
    #: client presents it to run an abbreviated handshake that skips the
    #: RSA key exchange entirely.  Off by default — the golden
    #: single-session runs never reconnect and stay byte-identical.
    session_tickets: bool = False
    #: Ticket validity in virtual seconds; expired tickets silently fall
    #: back to a full handshake.
    ticket_lifetime: float = 3600.0
    #: Client-side :class:`~repro.tls.channel.ClientSessionStore`: the
    #: most recent (ticket, master, cert) per server; created lazily on
    #: the first handshake that offers a ticket.
    session_store: Optional[object] = None
    #: Entropy source for randoms/premaster (deterministic per seed).
    rng: Drbg = field(default_factory=lambda: Drbg("tls-default"))

    @classmethod
    def for_session(
        cls,
        credential: Credential,
        trust_anchors: Sequence[Certificate],
        suite_name: str = "aes-256-cbc-sha1",
        **kwargs,
    ) -> "SecurityConfig":
        """Build from a suite *name* — how config files express it."""
        try:
            suite = SUITES[suite_name]
        except KeyError:
            raise ValueError(
                f"unknown cipher suite {suite_name!r}; have {sorted(SUITES)}"
            ) from None
        return cls(
            credential=credential,
            trust_anchors=tuple(trust_anchors),
            suite=suite,
            **kwargs,
        )
