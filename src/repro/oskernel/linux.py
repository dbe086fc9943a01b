"""The Linux-like kernel facade: syscall dispatch over the substrates.

Every system call GENESYS implements in the paper is a generator method
here: filesystem (open/close/read/write/pread/pwrite/lseek), networking
(socket/bind/sendto/recvfrom), memory management (mmap/munmap/madvise),
resource query (getrusage), signals (rt_sigqueueinfo), and device
control (ioctl).  Implementations are functional (bytes actually move)
and charge their own substrate costs; callers add the fixed
syscall-entry cost.

Two entry points:

* :meth:`call` — the CPU path: a process body that charges the syscall
  base cost on a core and raises :class:`OsError` on failure (used by
  the CPU baseline workloads).
* :meth:`execute` — the GENESYS worker path: no base-cost charge (the
  worker charges it per the coalescing model) and OsError is converted
  to the conventional negative errno return value.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Optional, Tuple

from repro.machine import MachineConfig
from repro.memory.buffers import Buffer
from repro.memory.system import MemorySystem
from repro.oskernel.blockdev import BlockDevice
from repro.oskernel.cpu import CpuComplex
from repro.oskernel.devices import FramebufferDevice, TerminalDevice
from repro.oskernel.errors import Errno, OsError
from repro.oskernel.fs import (
    DeviceInode,
    DirInode,
    FileInode,
    FileSystem,
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    OpenFile,
    PipeInode,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from repro.oskernel.interrupts import InterruptController
from repro.oskernel.mm import AddressSpace, PhysicalMemory
from repro.oskernel.net import Network, UdpSocket
from repro.oskernel.process import OsProcess
from repro.oskernel.signals import SigInfo
from repro.oskernel.workqueue import WorkQueue
from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import AnyOf, Simulator


# st_mode file-type bits (values match Linux's stat.h).
S_IFREG = 0o100000
S_IFDIR = 0o040000
S_IFCHR = 0o020000
S_IFIFO = 0o010000


class Stat:
    """The stat(2) fields the workloads and tests consume."""

    __slots__ = ("st_ino", "st_mode", "st_size")

    def __init__(self, st_ino: int, st_mode: int, st_size: int):
        self.st_ino = st_ino
        self.st_mode = st_mode
        self.st_size = st_size


class Uname:
    """The uname(2) fields."""

    __slots__ = ("sysname", "release", "machine")

    def __init__(self):
        self.sysname = "Linux"
        self.release = "4.11.0-genesys"
        self.machine = "x86_64+gcn3"


class DeviceMapping:
    """Result of mmap-ing a device: address plus the live backing object."""

    __slots__ = ("addr", "array")

    def __init__(self, addr: int, array):
        self.addr = addr
        self.array = array


class FileMapping:
    """Result of mmap-ing a regular file (MAP_SHARED semantics).

    ``view()`` exposes the live file bytes: reads see the file, writes
    through the mapping change the file.  Page faults on first touch are
    charged through the owning address space like any other mapping.
    """

    __slots__ = ("addr", "inode", "offset", "length")

    def __init__(self, addr: int, inode: FileInode, offset: int, length: int):
        self.addr = addr
        self.inode = inode
        self.offset = offset
        self.length = length

    def view(self) -> memoryview:
        end = self.offset + self.length
        return memoryview(self.inode.writable(end))[self.offset : end]


class LinuxKernel:
    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        memsystem: MemorySystem,
        cpu: Optional[CpuComplex] = None,
        with_disk: bool = True,
        probes: Optional[ProbeRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.memsystem = memsystem
        self.cpu = cpu or CpuComplex(sim, config)
        self.probes = probes if probes is not None else ProbeRegistry(sim)
        self.disk: Optional[BlockDevice] = (
            BlockDevice(sim, config) if with_disk else None
        )
        self.fs = FileSystem(
            sim, config, self.cpu, memsystem, disk=self.disk, probes=self.probes
        )
        self.physmem = PhysicalMemory(sim, config, config.phys_mem_bytes)
        self.net = Network(sim, config, probes=self.probes)
        self.interrupts = InterruptController(sim, config, self.cpu, probes=self.probes)
        self.workqueue = WorkQueue(sim, config, probes=self.probes)
        self.terminal = TerminalDevice(sim, config)
        self.framebuffer = FramebufferDevice(sim, config)
        self.processes: Dict[int, OsProcess] = {}
        self._pids = itertools.count(100)
        self._sockets: Dict[Tuple[int, int], UdpSocket] = {}  # (pid, fd) -> sock
        self._connected: Dict[Tuple[int, int], tuple] = {}  # connected-UDP peers
        self.syscall_counts: Dict[str, int] = {}
        self.fs.add_device("/dev/console", self.terminal)
        self.fs.add_device("/dev/fb0", self.framebuffer)
        self.fs.add_dynamic_file("/proc/meminfo", self._meminfo)

    def close(self) -> None:
        """Unmount /proc and /sys, whose files read kernel and runtime
        state through callbacks into them, free the physical pages and
        drop unfinished workqueue tasks (see
        :meth:`repro.system.System.close`); counters stay readable."""
        for mount in ("proc", "sys"):
            self.fs.root.entries.pop(mount, None)
        self.physmem.close()
        self.workqueue.close()

    def _meminfo(self) -> bytes:
        total_kb = self.config.phys_mem_bytes // 1024
        free_kb = self.physmem.free_pages * self.config.page_bytes // 1024
        return (f"MemTotal: {total_kb} kB\nMemFree: {free_kb} kB\n").encode()

    # -- process management ------------------------------------------------

    def create_process(self, name: str) -> OsProcess:
        aspace = AddressSpace(self.sim, self.config, self.physmem, self.cpu, name=name)
        proc = OsProcess(self.sim, name, next(self._pids), address_space=aspace)
        self.processes[proc.pid] = proc
        # POSIX fds 0/1/2 wired to the console.
        console = self.fs.resolve("/dev/console")
        for _ in range(3):
            proc.fds.install(OpenFile(console, 0o2, "/dev/console"))
        self._register_proc_entries(proc)
        return proc

    def terminate_process(self, proc: OsProcess) -> None:
        """Tear a process down: close every fd and mark it dead.

        System calls still in flight for this process will fail with
        EBADF/ESRCH afterwards — the Section-IX hazard of asynchronous
        GPU syscalls outliving their process.  Hosts must run
        :meth:`repro.core.genesys.Genesys.drain` first (the paper's
        added function call) to avoid losing work.
        """
        for fd in list(proc.fds.open_fds()):
            sock = self._sockets.pop((proc.pid, fd), None)
            if sock is not None:
                self.net.close(sock)
            open_file = proc.fds.lookup(fd)
            if isinstance(open_file.inode, PipeInode):
                open_file.inode.close_end(open_file.writable)
            proc.fds.close(fd)
        proc.alive = False

    def _register_proc_entries(self, proc: OsProcess) -> None:
        """Per-process /proc/<pid>/ files (the paper: "files in /proc to
        query process environments")."""
        base = f"/proc/{proc.pid}"
        self.fs.mkdir(base)

        def status() -> bytes:
            rss_kb = proc.current_rss_bytes // 1024
            return (
                f"Name:\t{proc.name}\n"
                f"Pid:\t{proc.pid}\n"
                f"State:\t{'R (running)' if proc.alive else 'Z (zombie)'}\n"
                f"VmRSS:\t{rss_kb} kB\n"
            ).encode()

        def statm() -> bytes:
            aspace = proc.address_space
            total = aspace.mapped_bytes // self.config.page_bytes if aspace else 0
            resident = aspace.rss_pages if aspace else 0
            return f"{total} {resident}\n".encode()

        def fd_listing() -> bytes:
            return ("\n".join(str(fd) for fd in proc.fds.open_fds()) + "\n").encode()

        self.fs.add_dynamic_file(f"{base}/status", status)
        self.fs.add_dynamic_file(f"{base}/statm", statm)
        self.fs.add_dynamic_file(f"{base}/fds", fd_listing)

    # -- dispatch ------------------------------------------------------------

    def call(self, proc: OsProcess, name: str, *args) -> Generator:
        """CPU-side syscall: base cost + implementation; raises OsError."""
        yield from self.cpu.run(self.config.syscall_base_ns)
        result = yield from self._dispatch(proc, name, args)
        return result

    def execute(self, proc: OsProcess, name: str, args: tuple) -> Generator:
        """GENESYS worker path: returns negative errno instead of raising."""
        try:
            result = yield from self._dispatch(proc, name, args)
        except OsError as err:
            return err.retval
        return result

    def _dispatch(self, proc: OsProcess, name: str, args: tuple) -> Generator:
        method = getattr(self, f"sys_{name}", None)
        if method is None:
            raise OsError(Errno.ENOSYS, name)
        self.syscall_counts[name] = self.syscall_counts.get(name, 0) + 1
        result = yield from method(proc, *args)
        return result

    # -- filesystem syscalls ---------------------------------------------------

    def sys_open(self, proc: OsProcess, path: str, flags: int = 0) -> Generator:
        yield 0
        try:
            inode = self.fs.resolve(path)
        except OsError as err:
            if err.errno is Errno.ENOENT and flags & O_CREAT:
                inode = self.fs.create_file(path)
            else:
                raise
        if flags & O_TRUNC and isinstance(inode, FileInode):
            inode.data = bytearray()
            inode.cached_pages.clear()
        open_file = OpenFile(inode, flags, path)
        if flags & O_APPEND and isinstance(inode, FileInode):
            open_file.pos = len(inode.data)
        return proc.fds.install(open_file)

    def sys_close(self, proc: OsProcess, fd: int) -> Generator:
        yield 0
        sock = self._sockets.pop((proc.pid, fd), None)
        if sock is not None:
            self.net.close(sock)
            self._connected.pop((proc.pid, fd), None)
            proc.fds.close(fd)
            return 0
        open_file = proc.fds.lookup(fd)
        if isinstance(open_file.inode, PipeInode):
            open_file.inode.close_end(open_file.writable)
        proc.fds.close(fd)
        return 0

    def sys_read(self, proc: OsProcess, fd: int, buf: Buffer, count: int) -> Generator:
        """Stateful read at the shared file offset (Section IV's caveat)."""
        open_file = proc.fds.lookup(fd)
        if not open_file.readable:
            raise OsError(Errno.EBADF, "not open for reading")
        data = yield from self.fs.read_timed(open_file, open_file.pos, count)
        open_file.pos += len(data)
        buf.data[: len(data)] = data
        return len(data)

    def sys_write(self, proc: OsProcess, fd: int, buf: Buffer, count: int) -> Generator:
        open_file = proc.fds.lookup(fd)
        if not open_file.writable:
            raise OsError(Errno.EBADF, "not open for writing")
        data = bytes(buf.data[:count])
        # O_APPEND: POSIX atomic append — the offset is the end of file
        # at write time, regardless of concurrent writers.
        if open_file.flags & O_APPEND and isinstance(open_file.inode, FileInode):
            offset = len(open_file.inode.data)
        else:
            offset = open_file.pos
        written = yield from self.fs.write_timed(open_file, offset, data)
        open_file.pos = offset + written
        return written

    def sys_pread(
        self, proc: OsProcess, fd: int, buf: Buffer, count: int, offset: int
    ) -> Generator:
        if offset < 0:
            raise OsError(Errno.EINVAL, "negative offset")
        open_file = proc.fds.lookup(fd)
        if not open_file.readable:
            raise OsError(Errno.EBADF, "not open for reading")
        data = yield from self.fs.read_timed(open_file, offset, count)
        buf.data[: len(data)] = data
        return len(data)

    def sys_pwrite(
        self, proc: OsProcess, fd: int, buf: Buffer, count: int, offset: int
    ) -> Generator:
        if offset < 0:
            raise OsError(Errno.EINVAL, "negative offset")
        open_file = proc.fds.lookup(fd)
        if not open_file.writable:
            raise OsError(Errno.EBADF, "not open for writing")
        data = bytes(buf.data[:count])
        written = yield from self.fs.write_timed(open_file, offset, data)
        return written

    def sys_lseek(self, proc: OsProcess, fd: int, offset: int, whence: int) -> Generator:
        yield 0
        open_file = proc.fds.lookup(fd)
        inode = open_file.inode
        if not isinstance(inode, FileInode):
            raise OsError(Errno.ESPIPE, "not seekable")
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = open_file.pos + offset
        elif whence == SEEK_END:
            new = len(inode.data) + offset
        else:
            raise OsError(Errno.EINVAL, f"whence {whence}")
        if new < 0:
            raise OsError(Errno.EINVAL, "negative resulting offset")
        open_file.pos = new
        return new

    # -- networking syscalls ------------------------------------------------

    def sys_socket(self, proc: OsProcess, host: str = "localhost") -> Generator:
        yield 0
        sock = self.net.socket(host)
        inode = DeviceInode(self.fs.new_ino(), sock)
        fd = proc.fds.install(OpenFile(inode, 0o2, f"socket:{sock.sock_id}"))
        self._sockets[(proc.pid, fd)] = sock
        return fd

    def _socket_for(self, proc: OsProcess, fd: int) -> UdpSocket:
        sock = self._sockets.get((proc.pid, fd))
        if sock is None:
            raise OsError(Errno.EBADF, f"fd {fd} is not a socket")
        return sock

    def sys_bind(self, proc: OsProcess, fd: int, port: int) -> Generator:
        yield 0
        self.net.bind(self._socket_for(proc, fd), port)
        return 0

    def sys_connect(self, proc: OsProcess, fd: int, dest: tuple) -> Generator:
        """Set a UDP socket's default destination (connected-UDP)."""
        yield 0
        sock = self._socket_for(proc, fd)
        self._connected[(proc.pid, fd)] = tuple(dest)
        del sock
        return 0

    def sys_send(self, proc: OsProcess, fd: int, buf: Buffer, count: int) -> Generator:
        """send(2) on a connected socket."""
        dest = self._connected.get((proc.pid, fd))
        if dest is None:
            raise OsError(Errno.EINVAL, "socket not connected")
        sent = yield from self.sys_sendto(proc, fd, buf, count, dest)
        return sent

    def sys_recv(self, proc: OsProcess, fd: int, buf: Buffer, count: int) -> Generator:
        """recv(2): recvfrom without caring about the source."""
        n, _source = yield from self.sys_recvfrom(proc, fd, buf, count)
        return n

    def sys_sendto(
        self, proc: OsProcess, fd: int, buf: Buffer, count: int, dest: tuple
    ) -> Generator:
        sock = self._socket_for(proc, fd)
        sent = yield from self.net.sendto(sock, bytes(buf.data[:count]), dest)
        return sent

    def sys_recvfrom(self, proc: OsProcess, fd: int, buf: Buffer, count: int) -> Generator:
        sock = self._socket_for(proc, fd)
        payload, source = yield from self.net.recvfrom(sock, count)
        buf.data[: len(payload)] = payload
        return len(payload), source

    # -- memory-management syscalls ----------------------------------------------

    def _aspace(self, proc: OsProcess) -> AddressSpace:
        if proc.address_space is None:
            raise OsError(Errno.ENOMEM, "process has no address space")
        return proc.address_space

    def sys_mmap(
        self,
        proc: OsProcess,
        length: int,
        fd: Optional[int] = None,
        offset: int = 0,
    ) -> Generator:
        yield 0
        if fd is None:
            return self._aspace(proc).mmap(length)
        open_file = proc.fds.lookup(fd)
        inode = open_file.inode
        if isinstance(inode, DeviceInode) and hasattr(inode.device, "mmap"):
            array = inode.device.mmap(length, offset)
            addr = self._aspace(proc).mmap(length)
            return DeviceMapping(addr, array)
        if isinstance(inode, FileInode):
            # MAP_SHARED file mapping: the view aliases the file bytes.
            if offset % self.config.page_bytes:
                raise OsError(Errno.EINVAL, "mmap offset must be page aligned")
            addr = self._aspace(proc).mmap(length)
            return FileMapping(addr, inode, offset, length)
        raise OsError(Errno.EINVAL, f"cannot mmap {open_file.path}")

    def sys_munmap(self, proc: OsProcess, addr: int, length: int) -> Generator:
        yield 0
        self._aspace(proc).munmap(addr, length)
        return 0

    def sys_madvise(self, proc: OsProcess, addr: int, length: int, advice: int) -> Generator:
        yield 0
        return self._aspace(proc).madvise(addr, length, advice)

    # -- resource query -----------------------------------------------------------

    def sys_getrusage(self, proc: OsProcess) -> Generator:
        yield 0
        return proc.snapshot_rusage()

    # -- signals ---------------------------------------------------------------

    def sys_rt_sigqueueinfo(
        self, proc: OsProcess, pid: int, signo: int, value: int
    ) -> Generator:
        yield 0
        target = self.processes.get(pid)
        if target is None or not target.alive:
            raise OsError(Errno.ESRCH, f"pid {pid}")
        target.signals.queue(SigInfo(signo, value, proc.pid))
        return 0

    # -- device control ---------------------------------------------------------

    def sys_ioctl(self, proc: OsProcess, fd: int, cmd: int, arg=None) -> Generator:
        open_file = proc.fds.lookup(fd)
        inode = open_file.inode
        if not isinstance(inode, DeviceInode) or not hasattr(inode.device, "ioctl"):
            raise OsError(Errno.ENOTTY, open_file.path)
        result = yield from inode.device.ioctl(cmd, arg)
        return result

    # -- extended POSIX surface ---------------------------------------------
    #
    # Beyond the paper's proof-of-concept set: more of the "readily
    # implementable" 79% (Section IV), demonstrating that the interface
    # really is generic.  All are classified READY in
    # repro.core.classification.

    def _stat_of(self, inode) -> Stat:
        if isinstance(inode, FileInode):
            return Stat(inode.ino, S_IFREG, len(inode.data))
        if isinstance(inode, DirInode):
            return Stat(inode.ino, S_IFDIR, len(inode.entries))
        if isinstance(inode, DeviceInode):
            return Stat(inode.ino, S_IFCHR, 0)
        if isinstance(inode, PipeInode):
            return Stat(inode.ino, S_IFIFO, 0)
        # The one inode kind left: a /proc- or /sys-style dynamic file.
        return Stat(inode.ino, S_IFREG, len(inode.content_fn()))

    def sys_stat(self, proc: OsProcess, path: str) -> Generator:
        yield 0
        return self._stat_of(self.fs.resolve(path))

    def sys_fstat(self, proc: OsProcess, fd: int) -> Generator:
        yield 0
        return self._stat_of(proc.fds.lookup(fd).inode)

    def sys_access(self, proc: OsProcess, path: str, mode: int = 0) -> Generator:
        yield 0
        self.fs.resolve(path)
        return 0

    def sys_dup(self, proc: OsProcess, fd: int) -> Generator:
        yield 0
        open_file = proc.fds.lookup(fd)
        new_fd = proc.fds.install(open_file)
        sock = self._sockets.get((proc.pid, fd))
        if sock is not None:
            self._sockets[(proc.pid, new_fd)] = sock
        return new_fd

    def sys_dup2(self, proc: OsProcess, old_fd: int, new_fd: int) -> Generator:
        yield 0
        open_file = proc.fds.lookup(old_fd)
        if old_fd == new_fd:
            return new_fd
        if new_fd in proc.fds.open_fds():
            result = yield from self.sys_close(proc, new_fd)
            del result
        proc.fds._fds[new_fd] = open_file
        sock = self._sockets.get((proc.pid, old_fd))
        if sock is not None:
            self._sockets[(proc.pid, new_fd)] = sock
        return new_fd

    def sys_pipe(self, proc: OsProcess) -> Generator:
        """Returns (read_fd, write_fd) of a fresh pipe."""
        yield 0
        pipe = self.fs.make_pipe()
        read_fd = proc.fds.install(OpenFile(pipe, O_RDONLY, "pipe:[r]"))
        write_fd = proc.fds.install(OpenFile(pipe, O_WRONLY, "pipe:[w]"))
        return read_fd, write_fd

    def sys_ftruncate(self, proc: OsProcess, fd: int, length: int) -> Generator:
        yield 0
        if length < 0:
            raise OsError(Errno.EINVAL, "negative length")
        inode = proc.fds.lookup(fd).inode
        if not isinstance(inode, FileInode):
            raise OsError(Errno.EINVAL, "not a regular file")
        # Zero-fill up to ``length``, then cut anything past it.
        del inode.writable(length)[length:]
        return 0

    def sys_unlink(self, proc: OsProcess, path: str) -> Generator:
        yield 0
        inode = self.fs.resolve(path)
        if isinstance(inode, DirInode):
            raise OsError(Errno.EISDIR, path)
        self.fs.unlink(path)
        return 0

    def sys_mkdir(self, proc: OsProcess, path: str) -> Generator:
        yield 0
        self.fs.mkdir(path)
        return 0

    def sys_rmdir(self, proc: OsProcess, path: str) -> Generator:
        yield 0
        inode = self.fs.resolve(path)
        if not isinstance(inode, DirInode):
            raise OsError(Errno.ENOTDIR, path)
        self.fs.unlink(path)
        return 0

    def sys_rename(self, proc: OsProcess, old_path: str, new_path: str) -> Generator:
        yield 0
        inode = self.fs.resolve(old_path)
        old_parent, old_name = self.fs._resolve_parent(old_path)
        new_parent, new_name = self.fs._resolve_parent(new_path)
        if new_name in new_parent.entries and isinstance(
            new_parent.entries[new_name], DirInode
        ):
            raise OsError(Errno.EISDIR, new_path)
        del old_parent.entries[old_name]
        new_parent.entries[new_name] = inode
        return 0

    def sys_getdents(self, proc: OsProcess, fd: int) -> Generator:
        """Returns the directory's entry names (simplified dirents)."""
        yield 0
        inode = proc.fds.lookup(fd).inode
        if not isinstance(inode, DirInode):
            raise OsError(Errno.ENOTDIR, "getdents on non-directory")
        return sorted(inode.entries)

    def sys_fsync(self, proc: OsProcess, fd: int) -> Generator:
        """Flush a disk-backed file: waits for device write-back."""
        inode = proc.fds.lookup(fd).inode
        if isinstance(inode, FileInode) and inode.backing is not None:
            yield from inode.backing.write(len(inode.data))
        else:
            yield 0
        return 0

    def sys_readv(self, proc: OsProcess, fd: int, buffers: list) -> Generator:
        total = 0
        for buf in buffers:
            n = yield from self.sys_read(proc, fd, buf, buf.size)
            total += n
            if n < buf.size:
                break
        return total

    def sys_writev(self, proc: OsProcess, fd: int, buffers: list) -> Generator:
        # Unlike reads, writes in this model are never short.
        total = 0
        for buf in buffers:
            total += yield from self.sys_write(proc, fd, buf, buf.size)
        return total

    # -- readiness (poll) -----------------------------------------------------

    def _fd_readable_now(self, proc: OsProcess, fd: int) -> bool:
        sock = self._sockets.get((proc.pid, fd))
        if sock is not None:
            return len(sock.queue) > 0
        inode = proc.fds.lookup(fd).inode
        if isinstance(inode, PipeInode):
            return inode.read_bytes_available()
        # Regular files, directories, devices: always "ready".
        return True

    def _fd_readiness_event(self, proc: OsProcess, fd: int):
        """The event an fd that is not readable yet becomes readable on;
        only sockets and pipes are ever not readable."""
        sock = self._sockets.get((proc.pid, fd))
        if sock is not None:
            return sock.queue.when_nonempty()
        return proc.fds.lookup(fd).inode.wait_readable()

    def sys_poll(
        self, proc: OsProcess, fds: list, timeout_ns: Optional[float] = None
    ) -> Generator:
        """Wait until at least one fd is readable; returns the ready fds.

        ``timeout_ns=None`` blocks indefinitely; ``0`` is a non-blocking
        readiness probe.  Spurious wakeups re-check, per POSIX.
        """
        if not fds:
            raise OsError(Errno.EINVAL, "empty fd list")
        while True:
            ready = [fd for fd in fds if self._fd_readable_now(proc, fd)]
            if ready:
                yield 0
                return ready
            if timeout_ns == 0:
                yield 0
                return []
            events = [self._fd_readiness_event(proc, fd) for fd in fds]
            if timeout_ns is not None:
                deadline = self.sim.now + timeout_ns
                idx, _value = yield AnyOf(events + [self.sim.timeout(timeout_ns)])
                if idx == len(events) and not any(
                    self._fd_readable_now(proc, fd) for fd in fds
                ):
                    return []
                timeout_ns = max(0.0, deadline - self.sim.now)
            else:
                yield AnyOf(events)

    # -- time ---------------------------------------------------------------

    def sys_nanosleep(self, proc: OsProcess, duration_ns: float) -> Generator:
        if duration_ns < 0:
            raise OsError(Errno.EINVAL, "negative sleep")
        yield duration_ns
        return 0

    def sys_gettimeofday(self, proc: OsProcess) -> Generator:
        """Returns (seconds, microseconds) of simulated time."""
        yield 0
        total_us = int(self.sim.now / 1000)
        return total_us // 1_000_000, total_us % 1_000_000

    def sys_clock_gettime(self, proc: OsProcess, clock_id: int = 0) -> Generator:
        """Returns (seconds, nanoseconds) of simulated time."""
        yield 0
        total_ns = int(self.sim.now)
        return total_ns // 1_000_000_000, total_ns % 1_000_000_000

    # -- identity / system info ------------------------------------------------

    def sys_getpid(self, proc: OsProcess) -> Generator:
        yield 0
        return proc.pid

    def sys_uname(self, proc: OsProcess) -> Generator:
        yield 0
        return Uname()

    def sys_sysinfo(self, proc: OsProcess) -> Generator:
        """Returns a dict mirroring struct sysinfo's core fields."""
        yield 0
        return {
            "uptime_ns": self.sim.now,
            "totalram": self.config.phys_mem_bytes,
            "freeram": self.physmem.free_pages * self.config.page_bytes,
            "procs": len(self.processes),
        }
