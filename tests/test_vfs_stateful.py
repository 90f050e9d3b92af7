"""Stateful property test: the VFS against a dict-based model.

Hypothesis drives random sequences of filesystem operations against
both the real :class:`VirtualFS` and a trivially-correct in-memory
model, requiring identical observable outcomes (content, existence,
listings) after every step.
"""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.vfs import Credentials, VfsError, VirtualFS

CRED = Credentials(1000, 1000)

names = st.sampled_from([f"f{i}" for i in range(6)] + [f"d{i}" for i in range(3)])
payloads = st.binary(min_size=0, max_size=200)
offsets = st.integers(min_value=0, max_value=300)


class VfsModel(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.fs = VirtualFS(root_uid=1000, root_gid=1000)
        self.files = {}  # name -> bytearray (files in the root dir)
        self.dirs = set()  # names of empty dirs in the root

    # -- rules ------------------------------------------------------------

    @rule(name=names, data=payloads, offset=offsets)
    def write(self, name, data, offset):
        if name in self.dirs:
            return
        try:
            node = self.fs.create(1, name, CRED)
        except VfsError:
            return
        self.fs.write(node.fileid, offset, data, CRED)
        buf = self.files.setdefault(name, bytearray())
        if len(buf) < offset + len(data):
            buf.extend(b"\x00" * (offset + len(data) - len(buf)))
        buf[offset : offset + len(data)] = data

    @rule(name=names)
    def mkdir(self, name):
        if name in self.files or name in self.dirs:
            try:
                self.fs.mkdir(1, name, CRED)
                raise AssertionError("mkdir should have failed with EXIST")
            except VfsError:
                return
        self.fs.mkdir(1, name, CRED)
        self.dirs.add(name)

    @rule(name=names)
    def remove(self, name):
        if name in self.files:
            self.fs.remove(1, name, CRED)
            del self.files[name]
        else:
            try:
                self.fs.remove(1, name, CRED)
                raise AssertionError("remove of missing/dir should fail")
            except VfsError:
                pass

    @rule(name=names)
    def rmdir(self, name):
        if name in self.dirs:
            self.fs.rmdir(1, name, CRED)
            self.dirs.discard(name)
        else:
            try:
                self.fs.rmdir(1, name, CRED)
                raise AssertionError("rmdir of missing/file should fail")
            except VfsError:
                pass

    @rule(src=names, dst=names)
    def rename(self, src, dst):
        model_ok = (
            src in self.files
            and src != dst
            and dst not in self.dirs
        ) or (
            # a directory may replace an *empty* directory (ours always
            # are) but never a file
            src in self.dirs and src != dst and dst not in self.files
        )
        try:
            self.fs.rename(1, src, 1, dst, CRED)
            real_ok = True
        except VfsError:
            real_ok = False
        if src == dst and (src in self.files or src in self.dirs):
            return  # no-op rename onto itself: both sides unchanged
        assert real_ok == model_ok, (src, dst, sorted(self.files), sorted(self.dirs))
        if model_ok:
            if src in self.files:
                self.files[dst] = self.files.pop(src)
            else:
                self.dirs.discard(src)
                self.dirs.discard(dst)  # replaced empty dir, if any
                self.dirs.add(dst)

    @rule(name=names, size=st.integers(min_value=0, max_value=250))
    def truncate(self, name, size):
        if name not in self.files:
            return
        node = self.fs.resolve(f"/{name}", CRED)
        self.fs.setattr(node.fileid, CRED, size=size)
        buf = self.files[name]
        if size <= len(buf):
            del buf[size:]
        else:
            buf.extend(b"\x00" * (size - len(buf)))

    # -- invariants -------------------------------------------------------------

    @invariant()
    def contents_match(self):
        listing = {
            name for name, _fid in self.fs.readdir(1, CRED)
            if name not in (".", "..")
        }
        assert listing == set(self.files) | self.dirs
        for name, expected in self.files.items():
            node = self.fs.resolve(f"/{name}", CRED)
            data, _eof = self.fs.read(node.fileid, 0, 10_000, CRED)
            assert data == bytes(expected), name
            assert node.size == len(expected)

    @invariant()
    def nlink_consistent(self):
        assert self.fs.root.nlink == 2 + len(self.dirs)

    @invariant()
    def running_total_is_the_sum_over_inodes(self):
        """used_bytes() is kept incrementally; it must always equal the
        walk over the inode table it replaced."""
        assert self.fs.used_bytes() == sum(
            node.used_bytes() for node in self.fs._inodes.values()
        )


TestVfsStateful = VfsModel.TestCase
TestVfsStateful.settings = __import__("hypothesis").settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
