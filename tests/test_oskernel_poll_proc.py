"""Tests for poll(2) readiness and the per-process /proc entries."""

import pytest

from repro.machine import MachineConfig, small_machine
from repro.memory.system import MemorySystem
from repro.oskernel.errors import OsError
from repro.oskernel.fs import O_RDONLY
from repro.oskernel.linux import LinuxKernel
from repro.sim.engine import Simulator
from repro.system import System


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


class TestPoll:
    def test_regular_file_always_ready(self, env):
        env[2].fs.create_file("/tmp/f", b"x")
        fd = call(env, "open", "/tmp/f", O_RDONLY)
        assert call(env, "poll", [fd]) == [fd]

    def test_empty_pipe_not_ready_nonblocking(self, env):
        read_fd, _write_fd = call(env, "pipe")
        assert call(env, "poll", [read_fd], 0) == []

    def test_pipe_ready_after_write(self, env):
        sim, mem, kernel, proc = env
        read_fd, write_fd = call(env, "pipe")
        buf = mem.alloc_buffer(4)
        call(env, "write", write_fd, buf, 4)
        assert call(env, "poll", [read_fd], 0) == [read_fd]

    def test_poll_blocks_until_data(self, env):
        sim, mem, kernel, proc = env
        read_fd, write_fd = call(env, "pipe")

        def poller():
            ready = yield from kernel.call(proc, "poll", [read_fd])
            return sim.now, ready

        def writer():
            yield 7000
            buf = mem.alloc_buffer(1)
            yield from kernel.call(proc, "write", write_fd, buf, 1)

        poll_proc = sim.process(poller())
        sim.process(writer())
        sim.run()
        when, ready = poll_proc.result
        assert ready == [read_fd]
        assert when >= 7000

    def test_poll_timeout_expires(self, env):
        sim, _, kernel, proc = env
        read_fd, _write_fd = call(env, "pipe")
        before = sim.now
        assert call(env, "poll", [read_fd], 5000) == []
        assert sim.now >= before + 5000

    def test_poll_with_timeout_wakes_when_data_arrives(self, env):
        sim, mem, kernel, proc = env
        read_fd, write_fd = call(env, "pipe")

        def poller():
            ready = yield from kernel.call(proc, "poll", [read_fd], 50_000)
            return sim.now, ready

        def writer():
            yield 7000
            yield from kernel.call(proc, "write", write_fd, mem.alloc_buffer(1), 1)

        poll_proc = sim.process(poller())
        sim.process(writer())
        sim.run()
        when, ready = poll_proc.result
        assert ready == [read_fd]
        assert 7000 <= when < 50_000

    def test_poll_blocks_until_a_datagram_arrives(self, env):
        sim, mem, kernel, proc = env
        sfd = call(env, "socket")
        call(env, "bind", sfd, 6001)
        cfd = call(env, "socket")

        def poller():
            ready = yield from kernel.call(proc, "poll", [sfd])
            return sim.now, ready

        def sender():
            yield 9000
            yield from kernel.call(
                proc, "sendto", cfd, mem.alloc_buffer(4), 4, ("localhost", 6001)
            )

        poll_proc = sim.process(poller())
        sim.process(sender())
        sim.run()
        when, ready = poll_proc.result
        assert ready == [sfd]
        assert when >= 9000

    def test_poll_socket(self, env):
        sim, mem, kernel, proc = env
        sfd = call(env, "socket")
        call(env, "bind", sfd, 6000)
        assert call(env, "poll", [sfd], 0) == []
        cfd = call(env, "socket")
        buf = mem.alloc_buffer(4)
        call(env, "sendto", cfd, buf, 4, ("localhost", 6000))
        assert call(env, "poll", [sfd], 0) == [sfd]

    def test_poll_multiple_fds_returns_ready_subset(self, env):
        sim, mem, kernel, proc = env
        r1, w1 = call(env, "pipe")
        r2, w2 = call(env, "pipe")
        buf = mem.alloc_buffer(1)
        call(env, "write", w2, buf, 1)
        assert call(env, "poll", [r1, r2], 0) == [r2]

    def test_poll_empty_list_rejected(self, env):
        with pytest.raises(OsError):
            call(env, "poll", [])

    def test_poll_eof_pipe_is_ready(self, env):
        read_fd, write_fd = call(env, "pipe")
        call(env, "close", write_fd)
        assert call(env, "poll", [read_fd], 0) == [read_fd]


class TestProcEntries:
    def test_status_file_exists_per_process(self, env):
        _, _, kernel, proc = env
        content = kernel.fs.read_whole(f"/proc/{proc.pid}/status").decode()
        assert f"Pid:\t{proc.pid}" in content
        assert "Name:\ttest" in content

    def test_status_tracks_rss(self, env):
        sim, _, kernel, proc = env
        addr = call(env, "mmap", 8 * 4096)
        sim.run_process(proc.address_space.touch(addr, 8 * 4096))
        content = kernel.fs.read_whole(f"/proc/{proc.pid}/status").decode()
        assert "VmRSS:\t32 kB" in content

    def test_statm(self, env):
        sim, _, kernel, proc = env
        addr = call(env, "mmap", 4 * 4096)
        sim.run_process(proc.address_space.touch(addr, 4096))
        total, resident = kernel.fs.read_whole(f"/proc/{proc.pid}/statm").split()
        assert int(total) >= 4
        assert int(resident) == 1

    def test_fd_listing_updates(self, env):
        _, _, kernel, proc = env
        kernel.fs.create_file("/tmp/f")
        fd = call(env, "open", "/tmp/f", O_RDONLY)
        listing = kernel.fs.read_whole(f"/proc/{proc.pid}/fds").decode().split()
        assert str(fd) in listing

    def test_gpu_can_read_proc_status(self):
        """The paper's /proc claim, from the GPU side."""
        system = System(config=small_machine())
        out = {}
        buf = system.memsystem.alloc_buffer(256)
        path = f"/proc/{system.host.pid}/status"

        def kern(ctx):
            fd = yield from ctx.sys.open(path)
            n = yield from ctx.sys.read(fd, buf, 256)
            out["status"] = bytes(buf.data[:n])
            yield from ctx.sys.close(fd)

        def body():
            yield system.launch(kern, 1, 1)

        system.run_to_completion(body())
        assert b"Name:\thost" in out["status"]
