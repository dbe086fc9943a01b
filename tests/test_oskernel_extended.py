"""Tests for the extended POSIX surface: stat family, dup, pipes,
directory ops, time, identity — the 'readily implementable' calls
beyond the paper's proof-of-concept set."""

import pytest

from repro.machine import MachineConfig
from repro.memory.system import MemorySystem
from repro.oskernel.errors import Errno, OsError
from repro.oskernel.fs import O_RDONLY, O_RDWR
from repro.oskernel.linux import LinuxKernel, S_IFCHR, S_IFDIR, S_IFIFO
from repro.sim.engine import Simulator


@pytest.fixture
def env():
    sim = Simulator()
    config = MachineConfig()
    mem = MemorySystem(sim, config)
    kernel = LinuxKernel(sim, config, mem)
    proc = kernel.create_process("test")
    return sim, mem, kernel, proc


def call(env, name, *args):
    sim, _, kernel, proc = env

    def body():
        result = yield from kernel.call(proc, name, *args)
        return result

    return sim.run_process(body())


class TestStatFamily:
    def test_stat_regular_file(self, env):
        env[2].fs.create_file("/tmp/f", b"12345")
        st = call(env, "stat", "/tmp/f")
        assert st.is_regular and not st.is_dir
        assert st.st_size == 5

    def test_stat_directory(self, env):
        st = call(env, "stat", "/tmp")
        assert st.is_dir
        assert st.st_mode & S_IFDIR

    def test_stat_device(self, env):
        st = call(env, "stat", "/dev/fb0")
        assert st.st_mode & S_IFCHR

    def test_fstat_matches_stat(self, env):
        env[2].fs.create_file("/tmp/f", b"abc")
        fd = call(env, "open", "/tmp/f", O_RDONLY)
        st_by_fd = call(env, "fstat", fd)
        st_by_path = call(env, "stat", "/tmp/f")
        assert (st_by_fd.st_ino, st_by_fd.st_size) == (st_by_path.st_ino, 3)

    def test_stat_missing_enoent(self, env):
        with pytest.raises(OsError) as exc:
            call(env, "stat", "/tmp/missing")
        assert exc.value.errno is Errno.ENOENT

    def test_access(self, env):
        env[2].fs.create_file("/tmp/f")
        assert call(env, "access", "/tmp/f") == 0
        with pytest.raises(OsError):
            call(env, "access", "/tmp/missing")


class TestDup:
    def test_dup_shares_offset(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"abcdef")
        fd = call(env, "open", "/tmp/f", O_RDONLY)
        fd2 = call(env, "dup", fd)
        buf = mem.alloc_buffer(2)
        call(env, "read", fd, buf, 2)
        call(env, "read", fd2, buf, 2)
        assert bytes(buf.data) == b"cd"  # offset shared through the dup

    def test_dup2_replaces_target(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"redirected\n")
        fd = call(env, "open", "/tmp/f", O_RDWR)
        # Redirect stdout (fd 1) into the file — the paper's stdio
        # redirection claim.
        assert call(env, "dup2", fd, 1) == 1
        buf = mem.alloc_buffer(6)
        buf.data[:] = b"hello\n"
        call(env, "write", 1, buf, 6)
        assert kernel.fs.read_whole("/tmp/f").startswith(b"hello\n")
        assert kernel.terminal.lines == []

    def test_dup2_same_fd_noop(self, env):
        env[2].fs.create_file("/tmp/f")
        fd = call(env, "open", "/tmp/f", O_RDONLY)
        assert call(env, "dup2", fd, fd) == fd

    def test_dup_bad_fd(self, env):
        with pytest.raises(OsError):
            call(env, "dup", 99)


class TestPipes:
    def test_pipe_roundtrip(self, env):
        sim, mem, kernel, proc = env
        read_fd, write_fd = call(env, "pipe")
        buf = mem.alloc_buffer(16)
        buf.data[:5] = b"piped"
        call(env, "write", write_fd, buf, 5)
        out = mem.alloc_buffer(16)
        n = call(env, "read", read_fd, out, 16)
        assert (n, bytes(out.data[:5])) == (5, b"piped")

    def test_pipe_stat_is_fifo(self, env):
        read_fd, _ = call(env, "pipe")
        st = call(env, "fstat", read_fd)
        assert st.st_mode & S_IFIFO

    def test_read_blocks_until_write(self, env):
        sim, mem, kernel, proc = env
        read_fd, write_fd = call(env, "pipe")
        out = mem.alloc_buffer(8)

        def reader():
            n = yield from kernel.call(proc, "read", read_fd, out, 8)
            return sim.now, n

        def writer():
            yield 5000
            buf = mem.alloc_buffer(8)
            buf.data[:2] = b"ok"
            yield from kernel.call(proc, "write", write_fd, buf, 2)

        read_proc = sim.process(reader())
        sim.process(writer())
        sim.run()
        when, n = read_proc.result
        assert n == 2 and when >= 5000

    def test_eof_after_writer_closes(self, env):
        sim, mem, kernel, proc = env
        read_fd, write_fd = call(env, "pipe")
        call(env, "close", write_fd)
        out = mem.alloc_buffer(8)
        assert call(env, "read", read_fd, out, 8) == 0

    def test_write_to_readerless_pipe_epipe(self, env):
        sim, mem, kernel, proc = env
        read_fd, write_fd = call(env, "pipe")
        call(env, "close", read_fd)
        buf = mem.alloc_buffer(4)
        with pytest.raises(OsError) as exc:
            call(env, "write", write_fd, buf, 4)
        assert exc.value.errno is Errno.EPIPE

    def test_wrong_end_rejected(self, env):
        sim, mem, kernel, proc = env
        read_fd, write_fd = call(env, "pipe")
        buf = mem.alloc_buffer(4)
        with pytest.raises(OsError):
            call(env, "write", read_fd, buf, 4)


class TestDirectoryOps:
    def test_mkdir_getdents(self, env):
        call(env, "mkdir", "/tmp/d")
        env[2].fs.create_file("/tmp/d/one")
        env[2].fs.create_file("/tmp/d/two")
        fd = call(env, "open", "/tmp/d")
        assert call(env, "getdents", fd) == ["one", "two"]

    def test_getdents_on_file_rejected(self, env):
        env[2].fs.create_file("/tmp/f")
        fd = call(env, "open", "/tmp/f", O_RDONLY)
        with pytest.raises(OsError) as exc:
            call(env, "getdents", fd)
        assert exc.value.errno is Errno.ENOTDIR

    def test_unlink(self, env):
        env[2].fs.create_file("/tmp/f")
        assert call(env, "unlink", "/tmp/f") == 0
        assert not env[2].fs.exists("/tmp/f")

    def test_unlink_dir_rejected(self, env):
        call(env, "mkdir", "/tmp/d")
        with pytest.raises(OsError) as exc:
            call(env, "unlink", "/tmp/d")
        assert exc.value.errno is Errno.EISDIR

    def test_rmdir(self, env):
        call(env, "mkdir", "/tmp/d")
        assert call(env, "rmdir", "/tmp/d") == 0

    def test_rmdir_file_rejected(self, env):
        env[2].fs.create_file("/tmp/f")
        with pytest.raises(OsError):
            call(env, "rmdir", "/tmp/f")

    def test_rename(self, env):
        env[2].fs.create_file("/tmp/old", b"content")
        assert call(env, "rename", "/tmp/old", "/tmp/new") == 0
        assert env[2].fs.read_whole("/tmp/new") == b"content"
        assert not env[2].fs.exists("/tmp/old")

    def test_ftruncate_shrink_and_grow(self, env):
        env[2].fs.create_file("/tmp/f", b"0123456789")
        fd = call(env, "open", "/tmp/f", O_RDWR)
        call(env, "ftruncate", fd, 4)
        assert env[2].fs.read_whole("/tmp/f") == b"0123"
        call(env, "ftruncate", fd, 6)
        assert env[2].fs.read_whole("/tmp/f") == b"0123\0\0"

    def test_fsync_disk_file(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/data/f", b"x" * 4096, on_disk=True)
        fd = call(env, "open", "/data/f", O_RDWR)
        written_before = kernel.disk.bytes_written
        call(env, "fsync", fd)
        assert kernel.disk.bytes_written > written_before


class TestVectoredIo:
    def test_writev_readv_roundtrip(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"")
        fd = call(env, "open", "/tmp/f", O_RDWR)
        first, second = mem.alloc_buffer(3), mem.alloc_buffer(3)
        first.data[:] = b"abc"
        second.data[:] = b"def"
        assert call(env, "writev", fd, [first, second]) == 6
        call(env, "lseek", fd, 0, 0)
        out1, out2 = mem.alloc_buffer(3), mem.alloc_buffer(3)
        assert call(env, "readv", fd, [out1, out2]) == 6
        assert bytes(out1.data) + bytes(out2.data) == b"abcdef"


class TestTimeAndIdentity:
    def test_nanosleep_advances_clock(self, env):
        sim = env[0]
        before = sim.now
        call(env, "nanosleep", 123_456)
        assert sim.now >= before + 123_456

    def test_nanosleep_negative_rejected(self, env):
        with pytest.raises(OsError):
            call(env, "nanosleep", -1)

    def test_clock_gettime_tracks_sim_time(self, env):
        sim = env[0]
        call(env, "nanosleep", 2_000_000_000)
        secs, nanos = call(env, "clock_gettime")
        assert secs >= 2

    def test_gettimeofday_units(self, env):
        call(env, "nanosleep", 1_500_000_000)
        secs, micros = call(env, "gettimeofday")
        assert secs == 1
        assert 0 <= micros < 1_000_000

    def test_getpid(self, env):
        assert call(env, "getpid") == env[3].pid

    def test_uname(self, env):
        info = call(env, "uname")
        assert info.sysname == "Linux"
        assert "genesys" in info.release

    def test_sysinfo(self, env):
        info = call(env, "sysinfo")
        assert info["totalram"] == env[2].config.phys_mem_bytes
        assert info["freeram"] <= info["totalram"]
        assert info["procs"] >= 1


class TestSysfsTunables:
    """Section VI: GENESYS communicates coalescing parameters via sysfs."""

    @staticmethod
    def make_system():
        from repro.core.coalescing import CoalescingConfig
        from repro.machine import small_machine
        from repro.system import System

        return System(
            config=small_machine(),
            coalescing=CoalescingConfig(window_ns=5000, max_batch=4),
        )

    def test_sysfs_files_exist(self):
        system = self.make_system()
        assert system.kernel.fs.exists("/sys/genesys/coalescing_window_ns")
        assert system.kernel.fs.exists("/sys/genesys/coalescing_max_batch")

    def test_read_reflects_config(self):
        system = self.make_system()
        raw = system.kernel.fs.read_whole("/sys/genesys/coalescing_window_ns")
        assert raw.strip() == b"5000"

    def test_write_updates_live_config(self):
        system = self.make_system()
        mem = system.memsystem
        proc = system.host

        def body():
            fd = yield from system.kernel.call(
                proc, "open", "/sys/genesys/coalescing_max_batch", O_RDWR
            )
            buf = mem.alloc_buffer(4)
            buf.data[:2] = b"16"
            yield from system.kernel.call(proc, "write", fd, buf, 2)
            yield from system.kernel.call(proc, "close", fd)

        system.sim.run_process(body())
        assert system.genesys.coalescing.max_batch == 16
        assert system.genesys.coalescer.config.max_batch == 16

    def test_gpu_can_tune_its_own_coalescing(self):
        """Even the GPU can write the sysfs knob — everything is a file."""
        system = self.make_system()
        buf = system.memsystem.alloc_buffer(8)
        buf.data[:1] = b"9"

        def kern(ctx):
            fd = yield from ctx.sys.open("/sys/genesys/coalescing_max_batch", O_RDWR)
            yield from ctx.sys.write(fd, buf, 1)
            yield from ctx.sys.close(fd)

        def body():
            yield system.launch(kern, 1, 1)

        system.run_to_completion(body())
        assert system.genesys.coalescing.max_batch == 9
