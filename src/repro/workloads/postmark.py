"""PostMark (§6.2.2): small-file and metadata-intensive workload.

Faithful to Katcher's benchmark structure and to the paper's parameters:
an initial pool of 100 directories and 500 files, 1000 transactions
(half create/delete, half read/append), file sizes 512 B – 16 KB —
"mostly metadata operations and small writes".

Three measured phases:

1. **creation** — build the directory pool and initial files,
2. **transaction** — the random create/delete/read/append mix,
3. **deletion** — remove everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.setups import Mount
from repro.crypto.drbg import Drbg
from repro.nfs.client import NfsClientError


@dataclass
class PostMarkConfig:
    directories: int = 100
    files: int = 500
    transactions: int = 1000
    min_size: int = 512
    max_size: int = 16384
    seed: str = "postmark"
    root: str = "/pm"


class PostMark:
    """One PostMark run against a mountpoint."""

    def __init__(self, config: PostMarkConfig | None = None):
        self.config = config or PostMarkConfig()
        self.results: Dict[str, float] = {}
        self._rng = Drbg(self.config.seed)
        self._serial = 0

    # -- helpers -----------------------------------------------------------

    def _content(self, size: int) -> bytes:
        # Cheap deterministic filler; content is opaque to the benchmark.
        return (b"postmark-data-" * (size // 14 + 1))[:size]

    def _new_name(self) -> str:
        self._serial += 1
        return f"pmfile{self._serial}"

    # -- phases ---------------------------------------------------------------

    def run(self, mount: Mount):
        """Process generator; fills self.results with per-phase seconds."""
        sim = mount.tb.sim
        cfg = self.config
        cl = mount.client
        rng = self._rng

        # ---- creation phase ------------------------------------------------
        t0 = sim.now
        yield from cl.mkdir(cfg.root)
        dirs: List[str] = []
        for i in range(cfg.directories):
            d = f"{cfg.root}/d{i}"
            yield from cl.mkdir(d)
            dirs.append(d)
        pool: List[str] = []
        for _ in range(cfg.files):
            d = rng.choice(dirs)
            path = f"{d}/{self._new_name()}"
            size = rng.randint(cfg.min_size, cfg.max_size)
            yield from cl.write_file(path, self._content(size))
            pool.append(path)
        self.results["creation"] = sim.now - t0

        # ---- transaction phase ------------------------------------------------
        t1 = sim.now
        for _ in range(cfg.transactions):
            # Pair 1: create or delete (equal probability)
            if rng.randint(0, 1) == 0 or not pool:
                d = rng.choice(dirs)
                path = f"{d}/{self._new_name()}"
                size = rng.randint(cfg.min_size, cfg.max_size)
                yield from cl.write_file(path, self._content(size))
                pool.append(path)
            else:
                idx = rng.randrange(0, len(pool))
                path = pool.pop(idx)
                try:
                    yield from cl.unlink(path)
                except NfsClientError:
                    pass
            # Pair 2: read or append (equal probability)
            if not pool:
                continue
            path = pool[rng.randrange(0, len(pool))]
            if rng.randint(0, 1) == 0:
                try:
                    yield from cl.read_file(path)
                except NfsClientError:
                    pass
            else:
                try:
                    f = yield from cl.open(path, write=True)
                    extra = rng.randint(cfg.min_size, cfg.max_size // 4)
                    yield from cl.write(f, f.size, self._content(extra))
                    yield from cl.close(f)
                except NfsClientError:
                    pass
        self.results["transaction"] = sim.now - t1

        # ---- deletion phase ----------------------------------------------------
        t2 = sim.now
        for path in pool:
            try:
                yield from cl.unlink(path)
            except NfsClientError:
                pass
        for d in dirs:
            try:
                yield from cl.rmdir(d)
            except NfsClientError:
                pass
        yield from cl.rmdir(cfg.root)
        self.results["deletion"] = sim.now - t2
        self.results["total"] = sim.now - t0
        return self.results["total"]
