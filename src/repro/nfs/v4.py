"""A thin NFSv4 flavor.

The paper evaluates nfs-v4 alongside nfs-v3 and finds "no performance
advantage ... in the version of NFS-V4 used in the experiments" (§6.2.2)
— v4's potential edge, delegation, "is not yet widely supported".

We model exactly that situation: the v4 program serves the same
operations over the same VFS, with a small extra per-operation cost for
COMPOUND assembly/decomposition and slightly larger messages, and **no
delegation**.  Implementing the full COMPOUND grammar would change no
measured behaviour (every benchmark op maps to one compound), so each v3
procedure stands in for its single-op compound; DESIGN.md records the
substitution.
"""

from __future__ import annotations

from typing import Optional

from repro.nfs.protocol import NFS_PROGRAM
from repro.nfs.server import NfsServerProgram
from repro.sim.core import Simulator
from repro.sim.cpu import CPU
from repro.vfs.disk import DiskModel
from repro.vfs.fs import VirtualFS

NFS_V4 = 4


class NfsV4ServerProgram(NfsServerProgram):
    """NFSv4 (modeled): v3 semantics + COMPOUND processing overhead."""

    prog = NFS_PROGRAM
    vers = NFS_V4

    #: default per-op COMPOUND assembly/parsing cost (seconds); the
    #: testbed passes its calibrated value.
    DEFAULT_COMPOUND_OVERHEAD = 3.0e-5

    def __init__(
        self,
        sim: Simulator,
        fs: VirtualFS,
        disk: Optional[DiskModel] = None,
        cpu: Optional[CPU] = None,
        compound_overhead: float = DEFAULT_COMPOUND_OVERHEAD,
    ):
        """``cpu`` is the server host's, which pays the COMPOUND
        overhead (none without one)."""
        super().__init__(sim, fs, disk)
        self.cpu = cpu
        self.compound_overhead = compound_overhead

    def handle(self, call):
        # COMPOUND wrapping: PUTFH + <op> + GETATTR parsing/assembly.
        if self.cpu is not None:
            yield from self.cpu.consume(self.compound_overhead, "kernel-nfs")
        return (yield from super().handle(call))
