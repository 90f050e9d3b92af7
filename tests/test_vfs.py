"""Virtual filesystem: operations, permissions, error taxonomy."""

import pytest

from repro.vfs import Credentials, Ftype, Status, VfsError, VirtualFS
from repro.vfs.fs import ROOT_CRED

ALICE = Credentials(1000, 1000)
BOB = Credentials(2000, 2000, groups=(1000,))
EVE = Credentials(3000, 3000)


@pytest.fixture
def fs():
    return VirtualFS(root_uid=1000, root_gid=1000)


def test_root_exists(fs):
    assert fs.root.fileid == 1
    assert fs.root.is_dir
    assert fs.inode_count() == 1


def test_create_write_read(fs):
    f = fs.create(1, "data.bin", ALICE)
    assert f.is_reg and f.uid == 1000
    assert fs.write(f.fileid, 0, b"hello", ALICE) == 5
    data, eof = fs.read(f.fileid, 0, 100, ALICE)
    assert data == b"hello" and eof


def test_read_partial_and_eof_flags(fs):
    f = fs.create(1, "f", ALICE)
    fs.write(f.fileid, 0, b"0123456789", ALICE)
    data, eof = fs.read(f.fileid, 2, 4, ALICE)
    assert data == b"2345" and not eof
    data, eof = fs.read(f.fileid, 8, 10, ALICE)
    assert data == b"89" and eof


def test_sparse_write_zero_fills(fs):
    f = fs.create(1, "sparse", ALICE)
    fs.write(f.fileid, 100, b"x", ALICE)
    data, _eof = fs.read(f.fileid, 0, 101, ALICE)
    assert data == b"\x00" * 100 + b"x"
    assert f.size == 101


def test_create_existing_non_exclusive_returns_same(fs):
    a = fs.create(1, "f", ALICE)
    b = fs.create(1, "f", ALICE)
    assert a.fileid == b.fileid


def test_create_exclusive_conflicts(fs):
    fs.create(1, "f", ALICE)
    with pytest.raises(VfsError) as e:
        fs.create(1, "f", ALICE, exclusive=True)
    assert e.value.status == Status.EXIST


def test_lookup_missing_is_noent(fs):
    with pytest.raises(VfsError) as e:
        fs.lookup(1, "ghost", ALICE)
    assert e.value.status == Status.NOENT


def test_lookup_through_file_is_notdir(fs):
    f = fs.create(1, "f", ALICE)
    with pytest.raises(VfsError) as e:
        fs.lookup(f.fileid, "x", ALICE)
    assert e.value.status == Status.NOTDIR


def test_dot_and_dotdot(fs):
    d = fs.mkdir(1, "sub", ALICE)
    assert fs.lookup(d.fileid, ".", ALICE).fileid == d.fileid
    assert fs.lookup(d.fileid, "..", ALICE).fileid == 1


@pytest.mark.parametrize("bad", ["", ".", "..", "a/b", "x\x00y", "n" * 256])
def test_bad_names_rejected(fs, bad):
    with pytest.raises(VfsError):
        fs.create(1, bad, ALICE)


def test_mkdir_and_nlink_accounting(fs):
    assert fs.root.nlink == 2
    d = fs.mkdir(1, "d", ALICE)
    assert d.nlink == 2
    assert fs.root.nlink == 3
    fs.rmdir(1, "d", ALICE)
    assert fs.root.nlink == 2


def test_rmdir_nonempty_rejected(fs):
    d = fs.mkdir(1, "d", ALICE)
    fs.create(d.fileid, "f", ALICE)
    with pytest.raises(VfsError) as e:
        fs.rmdir(1, "d", ALICE)
    assert e.value.status == Status.NOTEMPTY


def test_rmdir_of_file_is_notdir(fs):
    fs.create(1, "f", ALICE)
    with pytest.raises(VfsError) as e:
        fs.rmdir(1, "f", ALICE)
    assert e.value.status == Status.NOTDIR


def test_remove_of_dir_is_isdir(fs):
    fs.mkdir(1, "d", ALICE)
    with pytest.raises(VfsError) as e:
        fs.remove(1, "d", ALICE)
    assert e.value.status == Status.ISDIR


def test_remove_frees_inode(fs):
    f = fs.create(1, "f", ALICE)
    fid = f.fileid
    fs.remove(1, "f", ALICE)
    with pytest.raises(VfsError) as e:
        fs.inode(fid)
    assert e.value.status == Status.STALE


def test_hard_link_shares_inode(fs):
    f = fs.create(1, "orig", ALICE)
    fs.write(f.fileid, 0, b"shared", ALICE)
    fs.link(f.fileid, 1, "alias", ALICE)
    assert f.nlink == 2
    via_alias = fs.lookup(1, "alias", ALICE)
    assert via_alias.fileid == f.fileid
    fs.remove(1, "orig", ALICE)
    # still reachable through the alias
    data, _ = fs.read(via_alias.fileid, 0, 10, ALICE)
    assert data == b"shared"


def test_link_to_directory_rejected(fs):
    d = fs.mkdir(1, "d", ALICE)
    with pytest.raises(VfsError) as e:
        fs.link(d.fileid, 1, "dlink", ALICE)
    assert e.value.status == Status.ISDIR


def test_symlink_and_readlink(fs):
    link = fs.symlink(1, "ln", "target/path", ALICE)
    assert link.ftype == Ftype.LNK
    assert fs.readlink(link.fileid) == "target/path"
    f = fs.create(1, "plain", ALICE)
    with pytest.raises(VfsError):
        fs.readlink(f.fileid)


# -- rename --------------------------------------------------------------------


def test_rename_within_directory(fs):
    f = fs.create(1, "old", ALICE)
    fs.rename(1, "old", 1, "new", ALICE)
    assert fs.lookup(1, "new", ALICE).fileid == f.fileid
    with pytest.raises(VfsError):
        fs.lookup(1, "old", ALICE)


def test_rename_across_directories_fixes_nlink(fs):
    d1 = fs.mkdir(1, "d1", ALICE)
    d2 = fs.mkdir(1, "d2", ALICE)
    sub = fs.mkdir(d1.fileid, "sub", ALICE)
    fs.rename(d1.fileid, "sub", d2.fileid, "sub", ALICE)
    assert d1.nlink == 2 and d2.nlink == 3
    assert fs.lookup(d2.fileid, "sub", ALICE).fileid == sub.fileid


def test_rename_replaces_existing_file(fs):
    a = fs.create(1, "a", ALICE)
    fs.write(a.fileid, 0, b"A", ALICE)
    b = fs.create(1, "b", ALICE)
    fs.rename(1, "a", 1, "b", ALICE)
    assert fs.lookup(1, "b", ALICE).fileid == a.fileid
    with pytest.raises(VfsError):
        fs.inode(b.fileid)  # replaced file freed


def test_rename_onto_itself_is_noop(fs):
    f = fs.create(1, "same", ALICE)
    fs.rename(1, "same", 1, "same", ALICE)
    assert fs.lookup(1, "same", ALICE).fileid == f.fileid


def test_rename_file_over_dir_rejected(fs):
    fs.create(1, "f", ALICE)
    fs.mkdir(1, "d", ALICE)
    with pytest.raises(VfsError) as e:
        fs.rename(1, "f", 1, "d", ALICE)
    assert e.value.status == Status.ISDIR


def test_rename_dir_over_nonempty_dir_rejected(fs):
    fs.mkdir(1, "src", ALICE)
    dst = fs.mkdir(1, "dst", ALICE)
    fs.create(dst.fileid, "occupant", ALICE)
    with pytest.raises(VfsError) as e:
        fs.rename(1, "src", 1, "dst", ALICE)
    assert e.value.status == Status.NOTEMPTY


# -- permissions ------------------------------------------------------------------


def test_other_user_cannot_write_0644(fs):
    f = fs.create(1, "f", ALICE, mode=0o644)
    with pytest.raises(VfsError) as e:
        fs.write(f.fileid, 0, b"x", EVE)
    assert e.value.status == Status.ACCES
    # but can read
    fs.read(f.fileid, 0, 1, EVE)


def test_group_permission_honored(fs):
    f = fs.create(1, "f", ALICE, mode=0o060)  # group rw only
    fs.write(f.fileid, 0, b"x", BOB)  # bob has group 1000
    with pytest.raises(VfsError):
        fs.read(f.fileid, 0, 1, EVE)


def test_owner_blocked_by_own_mode(fs):
    f = fs.create(1, "f", ALICE, mode=0o000)
    with pytest.raises(VfsError):
        fs.read(f.fileid, 0, 1, ALICE)


def test_superuser_bypasses_modes(fs):
    f = fs.create(1, "f", ALICE, mode=0o000)
    fs.read(f.fileid, 0, 1, ROOT_CRED)
    fs.write(f.fileid, 0, b"x", ROOT_CRED)


def test_directory_write_needed_to_create(fs):
    d = fs.mkdir(1, "d", ALICE, mode=0o755)
    with pytest.raises(VfsError) as e:
        fs.create(d.fileid, "f", EVE)
    assert e.value.status == Status.ACCES


def test_chmod_only_by_owner(fs):
    f = fs.create(1, "f", ALICE)
    with pytest.raises(VfsError) as e:
        fs.setattr(f.fileid, EVE, mode=0o777)
    assert e.value.status == Status.PERM
    fs.setattr(f.fileid, ALICE, mode=0o600)
    assert f.mode == 0o600


def test_chown_only_by_root(fs):
    f = fs.create(1, "f", ALICE)
    with pytest.raises(VfsError):
        fs.setattr(f.fileid, ALICE, uid=2000)
    fs.setattr(f.fileid, ROOT_CRED, uid=2000)
    assert f.uid == 2000


def test_truncate_and_extend_via_setattr(fs):
    f = fs.create(1, "f", ALICE)
    fs.write(f.fileid, 0, b"0123456789", ALICE)
    fs.setattr(f.fileid, ALICE, size=4)
    assert bytes(f.data) == b"0123"
    fs.setattr(f.fileid, ALICE, size=8)
    assert bytes(f.data) == b"0123\x00\x00\x00\x00"


def test_capacity_enforced():
    fs = VirtualFS(root_uid=1000, capacity_bytes=2048)
    f = fs.create(1, "big", ALICE)
    with pytest.raises(VfsError) as e:
        fs.write(f.fileid, 0, b"x" * 10_000, ALICE)
    assert e.value.status == Status.NOSPC


def test_used_bytes_running_total_tracks_every_kind_of_change():
    """The total is adjusted in place, never recomputed: after each
    operation that can move it — hard links, symlinks, renames over
    files and directories, shrinking, failed writes — it must equal the
    sum over the inode table."""
    fs = VirtualFS(root_uid=1000, capacity_bytes=4096)

    def check():
        assert fs.used_bytes() == sum(n.used_bytes() for n in fs._inodes.values())
        return fs.used_bytes()

    assert check() == 512  # the empty root
    a = fs.create(1, "a", ALICE)
    fs.write(a.fileid, 10, b"x" * 90, ALICE)  # sparse start counts too
    assert check() == 512 + 32 + 100
    fs.create(1, "a", ALICE)  # open-existing adds no entry
    fs.link(a.fileid, 1, "a2", ALICE)
    fs.symlink(1, "s", "a", ALICE)
    d = fs.mkdir(1, "d", ALICE)
    fs.mkdir(1, "e", ALICE)
    assert check() == 512 + 5 * 32 + 100 + 64 + 2 * 512
    b = fs.create(d.fileid, "b", ALICE)
    fs.write(b.fileid, 0, b"y" * 50, ALICE)
    fs.write(b.fileid, 10, b"z" * 10, ALICE)  # overwrite in place: no growth
    check()
    with pytest.raises(VfsError) as e:  # refused: nothing may be charged
        fs.write(b.fileid, 0, b"w" * 4000, ALICE)
    assert e.value.status == Status.NOSPC
    with pytest.raises(VfsError):
        fs.setattr(b.fileid, ALICE, size=4000)
    before = check()
    fs.setattr(a.fileid, ALICE, size=40)
    fs.setattr(b.fileid, ALICE, size=60)
    assert check() == before - 60 + 10
    fs.remove(1, "a", ALICE)  # still linked as a2: only the entry goes
    assert check() == before - 50 - 32
    fs.rename(d.fileid, "b", 1, "a2", ALICE)  # over the last link: inode dies
    assert check() == before - 50 - 32 - 32 - 40
    fs.rename(1, "d", 1, "e", ALICE)  # directory over an empty directory
    fs.rename(1, "a2", 1, "a3", ALICE)  # plain rename: a wash
    fs.rename(1, "a3", 1, "a3", ALICE)  # onto itself: no-op
    check()
    fs.remove(1, "s", ALICE)
    fs.remove(1, "a3", ALICE)
    fs.rmdir(1, "e", ALICE)
    assert check() == 512


def test_readdir_sorted_with_dot_entries(fs):
    fs.create(1, "zeta", ALICE)
    fs.create(1, "alpha", ALICE)
    names = [name for name, _fid in fs.readdir(1, ALICE)]
    assert names == [".", "..", "alpha", "zeta"]


def test_resolve_and_walk(fs):
    d = fs.mkdir(1, "a", ALICE)
    d2 = fs.mkdir(d.fileid, "b", ALICE)
    fs.create(d2.fileid, "c.txt", ALICE)
    assert fs.resolve("/a/b/c.txt", ALICE).is_reg
    paths = [p for p, _n in fs.walk()]
    assert "/a/b/c.txt" in paths and "/" in paths


def test_timestamps_progress():
    t = [0.0]
    fs = VirtualFS(root_uid=1000, clock=lambda: t[0])
    f = fs.create(1, "f", ALICE)
    created_mtime = f.mtime
    t[0] = 5.0
    fs.write(f.fileid, 0, b"x", ALICE)
    assert f.mtime == 5.0 > created_mtime
    t[0] = 9.0
    fs.read(f.fileid, 0, 1, ALICE)
    assert f.atime == 9.0
