"""Unit tests for the syscall dispatch table (LinuxKernel)."""

import pytest

from repro.machine import MachineConfig
from repro.memory.system import MemorySystem
from repro.oskernel.devices import (
    FBIOGET_FSCREENINFO,
    FBIOGET_VSCREENINFO,
    FBIOPUT_VSCREENINFO,
    VarScreenInfo,
)
from repro.oskernel.errors import Errno, OsError
from repro.oskernel.fs import (
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from repro.oskernel.linux import LinuxKernel
from repro.oskernel.mm import MADV_DONTNEED
from repro.sim.engine import Simulator


@pytest.fixture
def env():
    sim = Simulator()
    config = MachineConfig()
    mem = MemorySystem(sim, config)
    kernel = LinuxKernel(sim, config, mem)
    proc = kernel.create_process("test")
    return sim, mem, kernel, proc


def call(sim, kernel, proc, name, *args):
    def body():
        result = yield from kernel.call(proc, name, *args)
        return result

    return sim.run_process(body())


class TestDispatch:
    def test_enosys_for_unknown(self, env):
        sim, _, kernel, proc = env
        with pytest.raises(OsError) as exc:
            call(sim, kernel, proc, "fork")
        assert exc.value.errno is Errno.ENOSYS

    def test_execute_converts_to_negative_errno(self, env):
        sim, _, kernel, proc = env

        def body():
            result = yield from kernel.execute(proc, "open", ("/missing/x", 0))
            return result

        assert sim.run_process(body()) == -int(Errno.ENOENT)

    def test_syscall_counts_recorded(self, env):
        sim, _, kernel, proc = env
        call(sim, kernel, proc, "getrusage")
        call(sim, kernel, proc, "getrusage")
        assert kernel.syscall_counts["getrusage"] == 2

    def test_call_charges_base_cost(self, env):
        sim, _, kernel, proc = env
        call(sim, kernel, proc, "getrusage")
        assert sim.now >= kernel.config.syscall_base_ns


class TestFileSyscalls:
    def test_open_creat_write_read_roundtrip(self, env):
        sim, mem, kernel, proc = env
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_CREAT | O_RDWR)
        buf = mem.alloc_buffer(16)
        buf.data[:5] = b"tacos"
        assert call(sim, kernel, proc, "write", fd, buf, 5) == 5
        call(sim, kernel, proc, "lseek", fd, 0, SEEK_SET)
        out = mem.alloc_buffer(16)
        assert call(sim, kernel, proc, "read", fd, out, 16) == 5
        assert bytes(out.data[:5]) == b"tacos"

    def test_stateful_offset_advances(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"abcdef")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDONLY)
        buf = mem.alloc_buffer(3)
        call(sim, kernel, proc, "read", fd, buf, 3)
        assert bytes(buf.data) == b"abc"
        call(sim, kernel, proc, "read", fd, buf, 3)
        assert bytes(buf.data) == b"def"

    def test_pread_does_not_move_offset(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"abcdef")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDONLY)
        buf = mem.alloc_buffer(2)
        call(sim, kernel, proc, "pread", fd, buf, 2, 4)
        assert bytes(buf.data) == b"ef"
        call(sim, kernel, proc, "read", fd, buf, 2)
        assert bytes(buf.data) == b"ab"

    def test_pwrite_at_offset(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"xxxxxx")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDWR)
        buf = mem.alloc_buffer(2)
        buf.data[:] = b"ZZ"
        call(sim, kernel, proc, "pwrite", fd, buf, 2, 2)
        assert kernel.fs.read_whole("/tmp/f") == b"xxZZxx"

    def test_negative_offset_rejected(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"x")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDWR)
        buf = mem.alloc_buffer(1)
        with pytest.raises(OsError) as exc:
            call(sim, kernel, proc, "pread", fd, buf, 1, -1)
        assert exc.value.errno is Errno.EINVAL

    def test_write_readonly_rejected(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"x")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDONLY)
        buf = mem.alloc_buffer(1)
        with pytest.raises(OsError) as exc:
            call(sim, kernel, proc, "write", fd, buf, 1)
        assert exc.value.errno is Errno.EBADF

    def test_o_trunc(self, env):
        sim, _, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"longcontent")
        call(sim, kernel, proc, "open", "/tmp/f", O_RDWR | O_TRUNC)
        assert kernel.fs.read_whole("/tmp/f") == b""

    def test_o_append_positions_at_end(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"head")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDWR | O_APPEND)
        buf = mem.alloc_buffer(4)
        buf.data[:] = b"tail"
        call(sim, kernel, proc, "write", fd, buf, 4)
        assert kernel.fs.read_whole("/tmp/f") == b"headtail"

    def test_lseek_whences(self, env):
        sim, _, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"0123456789")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDONLY)
        assert call(sim, kernel, proc, "lseek", fd, 4, SEEK_SET) == 4
        assert call(sim, kernel, proc, "lseek", fd, 2, SEEK_CUR) == 6
        assert call(sim, kernel, proc, "lseek", fd, -1, SEEK_END) == 9

    def test_lseek_negative_result_rejected(self, env):
        sim, _, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"ab")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDONLY)
        with pytest.raises(OsError):
            call(sim, kernel, proc, "lseek", fd, -5, SEEK_SET)

    def test_close_frees_fd(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"x")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDONLY)
        call(sim, kernel, proc, "close", fd)
        buf = mem.alloc_buffer(1)
        with pytest.raises(OsError):
            call(sim, kernel, proc, "read", fd, buf, 1)

    def test_stdout_goes_to_terminal(self, env):
        sim, mem, kernel, proc = env
        buf = mem.alloc_buffer(16)
        buf.data[:6] = b"hi tty"
        call(sim, kernel, proc, "write", 1, buf, 6)
        buf.data[:1] = b"\n"
        call(sim, kernel, proc, "write", 1, buf, 1)
        assert kernel.terminal.lines == ["hi tty"]

    def test_proc_meminfo_readable(self, env):
        sim, mem, kernel, proc = env
        fd = call(sim, kernel, proc, "open", "/proc/meminfo", O_RDONLY)
        buf = mem.alloc_buffer(256)
        n = call(sim, kernel, proc, "read", fd, buf, 256)
        assert b"MemTotal" in bytes(buf.data[:n])


class TestNetworkSyscalls:
    def test_udp_roundtrip(self, env):
        sim, mem, kernel, proc = env
        sfd = call(sim, kernel, proc, "socket")
        call(sim, kernel, proc, "bind", sfd, 7777)
        cfd = call(sim, kernel, proc, "socket")
        buf = mem.alloc_buffer(8)
        buf.data[:4] = b"ping"
        call(sim, kernel, proc, "sendto", cfd, buf, 4, ("localhost", 7777))
        out = mem.alloc_buffer(8)
        n, src = call(sim, kernel, proc, "recvfrom", sfd, out, 8)
        assert (n, bytes(out.data[:4])) == (4, b"ping")

    def test_sendto_on_non_socket_rejected(self, env):
        sim, mem, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDWR)
        with pytest.raises(OsError) as exc:
            call(sim, kernel, proc, "sendto", fd, mem.alloc_buffer(1), 1, ("localhost", 1))
        assert exc.value.errno is Errno.EBADF

    def test_close_socket(self, env):
        sim, _, kernel, proc = env
        fd = call(sim, kernel, proc, "socket")
        call(sim, kernel, proc, "close", fd)
        with pytest.raises(OsError):
            call(sim, kernel, proc, "bind", fd, 1234)


class TestMemorySyscalls:
    def test_mmap_munmap(self, env):
        sim, _, kernel, proc = env
        addr = call(sim, kernel, proc, "mmap", 8192)
        assert addr % kernel.config.page_bytes == 0
        assert call(sim, kernel, proc, "munmap", addr, 8192) == 0

    def test_madvise_dontneed(self, env):
        sim, _, kernel, proc = env
        addr = call(sim, kernel, proc, "mmap", 8192)
        sim.run_process(proc.address_space.touch(addr, 8192))
        assert proc.current_rss_bytes == 8192
        call(sim, kernel, proc, "madvise", addr, 8192, MADV_DONTNEED)
        assert proc.current_rss_bytes == 0

    def test_getrusage_reports_rss(self, env):
        sim, _, kernel, proc = env
        addr = call(sim, kernel, proc, "mmap", 4 * 4096)
        sim.run_process(proc.address_space.touch(addr, 4 * 4096))
        usage = call(sim, kernel, proc, "getrusage")
        assert usage.ru_maxrss_kb == 16
        assert usage.ru_minflt == 4


class TestSignalSyscalls:
    def test_rt_sigqueueinfo_delivers(self, env):
        sim, _, kernel, proc = env
        target = kernel.create_process("target")
        call(sim, kernel, proc, "rt_sigqueueinfo", target.pid, 40, 99)

        def body():
            info = yield from target.signals.sigwaitinfo()
            return info

        info = sim.run_process(body())
        assert (info.value, info.sender_pid) == (99, proc.pid)

    def test_bad_pid_rejected(self, env):
        sim, _, kernel, proc = env
        with pytest.raises(OsError) as exc:
            call(sim, kernel, proc, "rt_sigqueueinfo", 99999, 40, 0)
        assert exc.value.errno is Errno.ESRCH


class TestDeviceSyscalls:
    def test_ioctl_get_var(self, env):
        sim, _, kernel, proc = env
        fd = call(sim, kernel, proc, "open", "/dev/fb0")
        var = call(sim, kernel, proc, "ioctl", fd, FBIOGET_VSCREENINFO)
        assert (var.xres, var.yres) == (1024, 768)

    def test_ioctl_set_mode(self, env):
        sim, _, kernel, proc = env
        fd = call(sim, kernel, proc, "open", "/dev/fb0")
        assert call(
            sim, kernel, proc, "ioctl", fd, FBIOPUT_VSCREENINFO, VarScreenInfo(640, 480, 32)
        ) == 0
        fix = call(sim, kernel, proc, "ioctl", fd, FBIOGET_FSCREENINFO)
        assert fix.line_length == 640 * 4

    def test_ioctl_bad_mode_rejected(self, env):
        sim, _, kernel, proc = env
        fd = call(sim, kernel, proc, "open", "/dev/fb0")
        with pytest.raises(OsError):
            call(sim, kernel, proc, "ioctl", fd, FBIOPUT_VSCREENINFO, VarScreenInfo(123, 45, 32))

    def test_ioctl_on_regular_file_rejected(self, env):
        sim, _, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDWR)
        with pytest.raises(OsError) as exc:
            call(sim, kernel, proc, "ioctl", fd, FBIOGET_VSCREENINFO)
        assert exc.value.errno is Errno.ENOTTY

    def test_mmap_framebuffer(self, env):
        sim, _, kernel, proc = env
        fd = call(sim, kernel, proc, "open", "/dev/fb0")
        mapping = call(sim, kernel, proc, "mmap", 1024 * 768 * 4, fd)
        mapping.array[0, 0] = 0xDEADBEEF
        assert kernel.framebuffer.pixels[0, 0] == 0xDEADBEEF

    def test_mmap_regular_file_returns_file_mapping(self, env):
        sim, _, kernel, proc = env
        kernel.fs.create_file("/tmp/f", b"xyz")
        fd = call(sim, kernel, proc, "open", "/tmp/f", O_RDWR)
        mapping = call(sim, kernel, proc, "mmap", 3, fd)
        assert bytes(mapping.view()) == b"xyz"

    def test_mmap_dynamic_file_rejected(self, env):
        sim, _, kernel, proc = env
        fd = call(sim, kernel, proc, "open", "/proc/meminfo", O_RDONLY)
        with pytest.raises(OsError):
            call(sim, kernel, proc, "mmap", 4096, fd)


# -- paths a line trace of the suite over oskernel/ found untested -----------


def _call(env, name, *args):
    sim, _, kernel, proc = env
    return call(sim, kernel, proc, name, *args)


def _file_fd(env, flags):
    if not env[2].fs.exists("/tmp/f"):
        env[2].fs.create_file("/tmp/f", b"data")
    return _call(env, "open", "/tmp/f", flags)


def _pipe_read_fd(env):
    return _call(env, "pipe")[0]


def _fb_fd(env):
    return _call(env, "open", "/dev/fb0", O_RDWR)


def _buf(env, size=4):
    return env[1].alloc_buffer(size)


def _rename_onto_dir(env):
    env[2].fs.create_file("/tmp/g", b"")
    env[2].fs.mkdir("/tmp/d")
    return ("rename", "/tmp/g", "/tmp/d")


BAD_INPUT = {
    "read on a write-only fd": (
        lambda e: ("read", _file_fd(e, O_WRONLY), _buf(e), 4), Errno.EBADF),
    "pread on a write-only fd": (
        lambda e: ("pread", _file_fd(e, O_WRONLY), _buf(e), 4, 0), Errno.EBADF),
    "pwrite at a negative offset": (
        lambda e: ("pwrite", _file_fd(e, O_RDWR), _buf(e), 4, -1), Errno.EINVAL),
    "pwrite on a read-only fd": (
        lambda e: ("pwrite", _file_fd(e, O_RDONLY), _buf(e), 4, 0), Errno.EBADF),
    "write to a directory": (
        lambda e: ("write", _call(e, "open", "/tmp", O_WRONLY), _buf(e), 4),
        Errno.EISDIR),
    "lseek on a pipe": (
        lambda e: ("lseek", _pipe_read_fd(e), 0, SEEK_SET), Errno.ESPIPE),
    "lseek with an unknown whence": (
        lambda e: ("lseek", _file_fd(e, O_RDWR), 0, 7), Errno.EINVAL),
    "ftruncate to a negative length": (
        lambda e: ("ftruncate", _file_fd(e, O_RDWR), -1), Errno.EINVAL),
    "ftruncate of a pipe": (
        lambda e: ("ftruncate", _pipe_read_fd(e), 0), Errno.EINVAL),
    "rename onto a directory": (_rename_onto_dir, Errno.EISDIR),
    "munmap of zero bytes": (
        lambda e: ("munmap", _call(e, "mmap", 4096), 0), Errno.EINVAL),
    "read from the console": (
        lambda e: ("read", 0, _buf(e), 4), Errno.EAGAIN),
    "FBIOPUT_VSCREENINFO without a VarScreenInfo": (
        lambda e: ("ioctl", _fb_fd(e), FBIOPUT_VSCREENINFO, (640, 480)),
        Errno.EINVAL),
    "FBIOPUT_VSCREENINFO at 16 bpp": (
        lambda e: ("ioctl", _fb_fd(e), FBIOPUT_VSCREENINFO,
                   VarScreenInfo(640, 480, 16)),
        Errno.EINVAL),
    "an unknown framebuffer ioctl": (
        lambda e: ("ioctl", _fb_fd(e), 0x4699), Errno.ENOTTY),
    "mmap of the framebuffer at an offset": (
        lambda e: ("mmap", 4096, _fb_fd(e), 4096), Errno.EINVAL),
    "mmap past the framebuffer": (
        lambda e: ("mmap", 1024 * 768 * 4 + 1, _fb_fd(e)), Errno.EINVAL),
    "write past the end of the framebuffer": (
        lambda e: ("pwrite", _fb_fd(e), _buf(e), 4, 1024 * 768 * 4 - 2),
        Errno.ENOSPC),
}


class TestBadInput:
    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_rejected_with_errno(self, env, case):
        make_call, errno = BAD_INPUT[case]
        name, *args = make_call(env)
        with pytest.raises(OsError) as exc:
            _call(env, name, *args)
        assert exc.value.errno is errno


class TestUntestedPaths:
    def test_stat_of_a_dynamic_file_is_regular_with_its_content_size(self, env):
        sim, _, kernel, proc = env
        st = call(sim, kernel, proc, "stat", "/proc/meminfo")
        assert st.is_regular
        assert st.st_size == len(kernel.fs.read_whole("/proc/meminfo"))

    def test_framebuffer_write_lands_in_pixel_memory(self, env):
        sim, _, kernel, proc = env
        buf = _buf(env)
        buf.data[:4] = (0xDEADBEEF).to_bytes(4, "little")
        assert call(sim, kernel, proc, "pwrite", _fb_fd(env), buf, 4, 4) == 4
        assert kernel.framebuffer.pixels[0, 1] == 0xDEADBEEF

    def test_terminate_closes_sockets_and_pipe_ends(self, env):
        sim, _, kernel, proc = env
        sfd = call(sim, kernel, proc, "socket")
        call(sim, kernel, proc, "bind", sfd, 7000)
        read_fd, _write_fd = call(sim, kernel, proc, "pipe")
        pipe = proc.fds.lookup(read_fd).inode
        kernel.terminate_process(proc)
        assert not proc.alive
        assert (pipe.readers, pipe.writers) == (0, 0)
        # The port is free again.
        other = kernel.create_process("other")
        fd = call(sim, kernel, other, "socket")
        assert call(sim, kernel, other, "bind", fd, 7000) == 0

    def test_readv_stops_at_a_short_read(self, env):
        sim, mem, kernel, proc = env
        read_fd, write_fd = call(sim, kernel, proc, "pipe")
        src = _buf(env, 6)
        src.data[:6] = b"abcdef"
        call(sim, kernel, proc, "write", write_fd, src, 6)
        # The write end stays open: a third read would block forever.
        buffers = [_buf(env), _buf(env), _buf(env)]
        assert call(sim, kernel, proc, "readv", read_fd, buffers) == 6
        assert bytes(buffers[1].data[:2]) == b"ef"

    def test_fsync_of_a_tmpfs_file_touches_no_disk(self, env):
        sim, _, kernel, proc = env
        fd = _file_fd(env, O_RDWR)
        assert call(sim, kernel, proc, "fsync", fd) == 0
        assert kernel.disk.bytes_written == 0

    def test_dup_and_dup2_carry_the_socket(self, env):
        sim, mem, kernel, proc = env
        server = call(sim, kernel, proc, "socket")
        call(sim, kernel, proc, "bind", server, 7001)
        copy = call(sim, kernel, proc, "dup", server)
        call(sim, kernel, proc, "dup2", server, 20)
        client = call(sim, kernel, proc, "socket")
        buf = _buf(env)
        for _ in range(2):
            call(sim, kernel, proc, "sendto", client, buf, 4, ("localhost", 7001))
        for fd in (copy, 20):
            n, _source = call(sim, kernel, proc, "recvfrom", fd, _buf(env), 4)
            assert n == 4
