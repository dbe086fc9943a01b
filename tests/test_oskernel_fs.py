"""Unit tests for the VFS: paths, fds, timed reads/writes, page cache."""

import pytest

from repro.machine import MachineConfig
from repro.memory.system import MemorySystem
from repro.oskernel.cpu import CpuComplex
from repro.oskernel.blockdev import BlockDevice
from repro.oskernel.errors import Errno, OsError
from repro.oskernel.fs import (
    DirInode,
    FdTable,
    FileSystem,
    O_RDONLY,
    O_RDWR,
    OpenFile,
)
from repro.sim.engine import Simulator


@pytest.fixture
def setup():
    sim = Simulator()
    config = MachineConfig()
    cpu = CpuComplex(sim, config)
    mem = MemorySystem(sim, config)
    disk = BlockDevice(sim, config)
    fs = FileSystem(sim, config, cpu, mem, disk=disk)
    return sim, config, fs, disk


class TestPaths:
    def test_root_dirs_exist(self, setup):
        _, _, fs, _ = setup
        for path in ("/tmp", "/dev", "/proc", "/data"):
            assert isinstance(fs.resolve(path), DirInode)

    def test_relative_path_rejected(self, setup):
        _, _, fs, _ = setup
        with pytest.raises(OsError) as exc:
            fs.resolve("tmp/x")
        assert exc.value.errno is Errno.EINVAL

    def test_enoent(self, setup):
        _, _, fs, _ = setup
        with pytest.raises(OsError) as exc:
            fs.resolve("/tmp/missing")
        assert exc.value.errno is Errno.ENOENT

    def test_enotdir(self, setup):
        _, _, fs, _ = setup
        fs.create_file("/tmp/file", b"x")
        with pytest.raises(OsError) as exc:
            fs.resolve("/tmp/file/below")
        assert exc.value.errno is Errno.ENOTDIR

    def test_create_and_read(self, setup):
        _, _, fs, _ = setup
        fs.create_file("/tmp/a", b"hello")
        assert fs.read_whole("/tmp/a") == b"hello"

    def test_create_duplicate_rejected(self, setup):
        _, _, fs, _ = setup
        fs.create_file("/tmp/a")
        with pytest.raises(OsError) as exc:
            fs.create_file("/tmp/a")
        assert exc.value.errno is Errno.EEXIST

    def test_mkdir_and_nested_files(self, setup):
        _, _, fs, _ = setup
        fs.mkdir("/tmp/sub")
        fs.create_file("/tmp/sub/f", b"deep")
        assert fs.read_whole("/tmp/sub/f") == b"deep"

    def test_unlink(self, setup):
        _, _, fs, _ = setup
        fs.create_file("/tmp/gone", b"x")
        fs.unlink("/tmp/gone")
        assert not fs.exists("/tmp/gone")

    def test_unlink_nonempty_dir_rejected(self, setup):
        _, _, fs, _ = setup
        fs.mkdir("/tmp/d")
        fs.create_file("/tmp/d/f")
        with pytest.raises(OsError) as exc:
            fs.unlink("/tmp/d")
        assert exc.value.errno is Errno.ENOTEMPTY

    def test_listdir(self, setup):
        _, _, fs, _ = setup
        fs.create_file("/tmp/b")
        fs.create_file("/tmp/a")
        assert fs.listdir("/tmp") == ["a", "b"]

    def test_dynamic_file(self, setup):
        _, _, fs, _ = setup
        counter = {"n": 0}

        def gen():
            counter["n"] += 1
            return b"call %d" % counter["n"]

        fs.add_dynamic_file("/proc/test", gen)
        assert fs.read_whole("/proc/test") == b"call 1"
        assert fs.read_whole("/proc/test") == b"call 2"


class TestFdTable:
    def test_lowest_free_fd(self, setup):
        _, _, fs, _ = setup
        table = FdTable()
        inode = fs.create_file("/tmp/x")
        fd0 = table.install(OpenFile(inode, O_RDONLY, "/tmp/x"))
        fd1 = table.install(OpenFile(inode, O_RDONLY, "/tmp/x"))
        assert (fd0, fd1) == (0, 1)
        table.close(fd0)
        assert table.install(OpenFile(inode, O_RDONLY, "/tmp/x")) == 0

    def test_lookup_bad_fd(self):
        with pytest.raises(OsError) as exc:
            FdTable().lookup(7)
        assert exc.value.errno is Errno.EBADF

    def test_close_bad_fd(self):
        with pytest.raises(OsError):
            FdTable().close(3)

    def test_readable_writable_flags(self, setup):
        _, _, fs, _ = setup
        inode = fs.create_file("/tmp/x")
        assert OpenFile(inode, O_RDONLY, "p").readable
        assert not OpenFile(inode, O_RDONLY, "p").writable
        assert OpenFile(inode, O_RDWR, "p").writable


class TestTimedIo:
    def test_read_returns_data(self, setup):
        sim, _, fs, _ = setup
        inode = fs.create_file("/tmp/x", b"0123456789")
        open_file = OpenFile(inode, O_RDONLY, "/tmp/x")

        def body():
            data = yield from fs.read_timed(open_file, 2, 4)
            return data

        assert sim.run_process(body()) == b"2345"
        assert sim.now > 0

    def test_read_past_eof(self, setup):
        sim, _, fs, _ = setup
        inode = fs.create_file("/tmp/x", b"abc")
        open_file = OpenFile(inode, O_RDONLY, "/tmp/x")

        def body():
            data = yield from fs.read_timed(open_file, 10, 4)
            return data

        assert sim.run_process(body()) == b""

    def test_write_extends_file(self, setup):
        sim, _, fs, _ = setup
        inode = fs.create_file("/tmp/x", b"ab")
        open_file = OpenFile(inode, O_RDWR, "/tmp/x")

        def body():
            n = yield from fs.write_timed(open_file, 5, b"zz")
            return n

        assert sim.run_process(body()) == 2
        assert bytes(inode.data) == b"ab\0\0\0zz"

    def test_disk_file_first_read_hits_device(self, setup):
        sim, _, fs, disk = setup
        inode = fs.create_file("/data/big", b"y" * 8192, on_disk=True)
        inode.cached_pages.clear()
        open_file = OpenFile(inode, O_RDONLY, "/data/big")

        def body():
            yield from fs.read_timed(open_file, 0, 8192)

        sim.run_process(body())
        assert disk.bytes_read >= 8192

    def test_disk_file_second_read_cached(self, setup):
        sim, _, fs, disk = setup
        inode = fs.create_file("/data/big", b"y" * 8192, on_disk=True)
        inode.cached_pages.clear()
        open_file = OpenFile(inode, O_RDONLY, "/data/big")

        def body():
            yield from fs.read_timed(open_file, 0, 8192)
            before = disk.bytes_read
            yield from fs.read_timed(open_file, 0, 8192)
            return disk.bytes_read - before

        assert sim.run_process(body()) == 0

    def test_disk_read_merges_contiguous_pages(self, setup):
        sim, config, fs, disk = setup
        nbytes = config.page_bytes * 8
        inode = fs.create_file("/data/run", b"z" * nbytes, on_disk=True)
        inode.cached_pages.clear()
        open_file = OpenFile(inode, O_RDONLY, "/data/run")

        def body():
            yield from fs.read_timed(open_file, 0, nbytes)

        sim.run_process(body())
        assert disk.requests == 1  # one merged request, not 8

    def test_tmpfs_read_never_touches_disk(self, setup):
        sim, _, fs, disk = setup
        inode = fs.create_file("/tmp/mem", b"m" * 4096)
        open_file = OpenFile(inode, O_RDONLY, "/tmp/mem")

        def body():
            yield from fs.read_timed(open_file, 0, 4096)

        sim.run_process(body())
        assert disk.bytes_read == 0

    def test_write_to_disk_file_schedules_writeback(self, setup):
        sim, _, fs, disk = setup
        inode = fs.create_file("/data/out", b"", on_disk=True)
        open_file = OpenFile(inode, O_RDWR, "/data/out")

        def body():
            yield from fs.write_timed(open_file, 0, b"d" * 4096)

        sim.run_process(body())
        sim.run()
        assert disk.bytes_written == 4096

    def test_read_directory_rejected(self, setup):
        sim, _, fs, _ = setup
        open_file = OpenFile(fs.resolve("/tmp"), O_RDONLY, "/tmp")

        def body():
            yield from fs.read_timed(open_file, 0, 10)

        with pytest.raises(OsError) as exc:
            sim.run_process(body())
        assert exc.value.errno is Errno.EISDIR

    def test_dynamic_file_read_only(self, setup):
        sim, _, fs, _ = setup
        fs.add_dynamic_file("/proc/ro", lambda: b"x")
        open_file = OpenFile(fs.resolve("/proc/ro"), O_RDWR, "/proc/ro")

        def body():
            yield from fs.write_timed(open_file, 0, b"nope")

        with pytest.raises(OsError) as exc:
            sim.run_process(body())
        assert exc.value.errno is Errno.EACCES
