"""Proxy configuration files with dynamic reload (paper §4.2).

A SGFS proxy is configured through a small key=value text format
covering the security section (cipher suite, certificate names, trusted
CAs, renegotiation timeout) and the cache section (disk caching and its
parameters).  ``SessionConfig.parse`` reads it; ``reload`` re-reads and
reports what changed, which the proxies use to re-key or re-validate a
live session — e.g. after a certificate is rotated.

Example::

    # security
    suite = aes-256-cbc-sha1
    user_cert = alice
    renegotiate_interval = 3600

    # cache
    cache = on
    cache.write_back = on
    cache.block_size = 32768
    cache.capacity = 4294967296
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional


@dataclass
class ProxyCacheConfig:
    """The cache section of a proxy configuration file (§4.2).  Its
    ``block_size`` and ``capacity_bytes`` size the client proxy's
    :class:`repro.nfs.cache.BlockCache`."""

    enabled: bool = False
    cache_data: bool = True
    write_back: bool = True
    block_size: int = 32768
    capacity_bytes: int = 4 << 30
    #: cache-consistency protocol overlaying NFS's (the paper defers
    #: multi-user sharing to the authors' application-tailored
    #: consistency work [46]):
    #:   "session" — aggressive: entries valid for the session lifetime
    #:               (the paper's single-user/job assumption, default),
    #:   "poll"    — entries older than ``consistency_ttl`` revalidate
    #:               against the server (GETATTR; mtime change drops
    #:               cached data) — bounded staleness for shared data.
    consistency: str = "session"
    consistency_ttl: float = 5.0

    def __post_init__(self) -> None:
        if self.consistency not in ("session", "poll"):
            raise ValueError(f"unknown consistency mode {self.consistency!r}")


class ConfigError(Exception):
    """Malformed proxy configuration text."""


_BOOL = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def _parse_kv(text: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


@dataclass(frozen=True)
class SessionConfig:
    """Parsed proxy configuration."""

    suite: str = "aes-256-cbc-sha1"
    user_cert: str = ""
    host_cert: str = ""
    trusted_cas: tuple = ()
    renegotiate_interval: Optional[float] = None
    cache: ProxyCacheConfig = field(default_factory=ProxyCacheConfig)
    gridmap: str = ""
    raw: Dict[str, str] = field(default_factory=dict, compare=False)

    @classmethod
    def parse(cls, text: str) -> "SessionConfig":
        kv = _parse_kv(text)

        def get_bool(key: str, default: bool) -> bool:
            v = kv.get(key)
            if v is None:
                return default
            if v.lower() not in _BOOL:
                raise ConfigError(f"{key}: bad boolean {v!r}")
            return _BOOL[v.lower()]

        def get_int(key: str, default: int) -> int:
            v = kv.get(key)
            if v is None:
                return default
            try:
                return int(v)
            except ValueError:
                raise ConfigError(f"{key}: bad integer {v!r}") from None

        reneg = kv.get("renegotiate_interval")
        cache = ProxyCacheConfig(
            enabled=get_bool("cache", False),
            cache_data=get_bool("cache.data", True),
            write_back=get_bool("cache.write_back", True),
            block_size=get_int("cache.block_size", 32768),
            capacity_bytes=get_int("cache.capacity", 4 << 30),
        )
        return cls(
            suite=kv.get("suite", "aes-256-cbc-sha1"),
            user_cert=kv.get("user_cert", ""),
            host_cert=kv.get("host_cert", ""),
            trusted_cas=tuple(
                s.strip() for s in kv.get("trusted_cas", "").split(",") if s.strip()
            ),
            renegotiate_interval=float(reneg) if reneg else None,
            cache=cache,
            gridmap=kv.get("gridmap", ""),
            raw=kv,
        )

    def diff(self, other: "SessionConfig") -> Dict[str, tuple]:
        """Fields that changed between two configurations."""
        changes: Dict[str, tuple] = {}
        for name in ("suite", "user_cert", "host_cert", "trusted_cas",
                     "renegotiate_interval", "cache", "gridmap"):
            a, b = getattr(self, name), getattr(other, name)
            if a != b:
                changes[name] = (a, b)
        return changes

    @property
    def requires_renegotiation(self) -> bool:
        return bool(self.user_cert or self.host_cert)
