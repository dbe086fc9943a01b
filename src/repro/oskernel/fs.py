"""Virtual filesystem: tmpfs + disk-backed files + device nodes.

Follows Linux's "everything is a file" philosophy that GENESYS leans on
(Section IV): regular files can live in tmpfs (memory-resident, the
Figure 7 microbenchmarks) or be backed by the SSD block device with a
page cache (the Figure 13/14 wordcount experiments); device nodes
(terminal, framebuffer) and dynamic /proc-style files hang off the same
tree, so GPU code can print to the console, query kernel state, and
ioctl the framebuffer through the ordinary open/read/write path.

Timed operations are process bodies; functional data really moves.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Generator, Optional, TYPE_CHECKING, Union

from repro.machine import MachineConfig
from repro.oskernel.blockdev import BlockDevice
from repro.oskernel.cpu import CpuComplex
from repro.oskernel.errors import Errno, OsError
from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.system import MemorySystem

# open(2) flag bits (values match Linux where it matters for tests).
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class Inode:
    """Base of every file-like object; ``ino`` is numbered by the
    :class:`FileSystem` that creates it, in creation order."""

    def __init__(self, ino: int):
        self.ino = ino


class FileInode(Inode):
    """A regular file; ``backing`` selects tmpfs (None) or a disk.

    ``data`` is the body.  A ``bytes`` body is kept as given, so files
    built from one workload input share it; anything else is copied
    into a ``bytearray``.  Code that changes the body in place takes it
    from :meth:`writable`, which copies a shared body on first use.
    """

    def __init__(
        self, ino: int, data: bytes = b"", backing: Optional[BlockDevice] = None
    ):
        super().__init__(ino)
        self.data: Union[bytes, bytearray] = (
            data if type(data) is bytes else bytearray(data)
        )
        self.backing = backing
        #: Pages currently in the page cache (disk-backed files only).
        self.cached_pages: set = set()

    @property
    def size(self) -> int:
        return len(self.data)

    def writable(self, size: int = 0) -> bytearray:
        """The body as this file's own ``bytearray``, zero-filled to at
        least ``size`` bytes."""
        data = self.data
        if not isinstance(data, bytearray):
            data = self.data = bytearray(data)
        if size > len(data):
            data.extend(b"\0" * (size - len(data)))
        return data


class DynamicFileInode(Inode):
    """A /proc- or /sys-style file.

    Contents are generated at read time by ``content_fn``; if a
    ``write_fn`` is given the file is also writable (a sysfs tunable —
    GENESYS exposes its coalescing parameters this way, Section VI).
    """

    def __init__(
        self,
        ino: int,
        content_fn: Callable[[], bytes],
        write_fn: Optional[Callable[[bytes], None]] = None,
    ):
        super().__init__(ino)
        self.content_fn = content_fn
        self.write_fn = write_fn


class PipeInode(Inode):
    """An in-kernel pipe: FIFO bytes between a write end and a read end.

    Supports the paper's "pipes (including redirection of stdin, stdout
    and stderr)" claim: reads block until data or EOF (all write ends
    closed); writes wake blocked readers.
    """

    def __init__(self, ino: int, sim: Simulator):
        super().__init__(ino)
        self.sim = sim
        self._data = bytearray()
        self.readers = 1
        self.writers = 1
        self._read_waiters = []

    def write_bytes(self, data: bytes) -> int:
        if self.readers == 0:
            raise OsError(Errno.EPIPE, "pipe has no readers")
        self._data.extend(data)
        self._wake_readers()
        return len(data)

    def read_bytes_available(self) -> bool:
        return bool(self._data) or self.writers == 0

    def take(self, count: int) -> bytes:
        out = bytes(self._data[:count])
        del self._data[: len(out)]
        return out

    def wait_readable(self):
        """Return an event that fires when data or EOF is available."""
        event = self.sim.event(name="pipe-readable")
        if self.read_bytes_available():
            event.succeed()
        else:
            self._read_waiters.append(event)
        return event

    def close_end(self, writable: bool) -> None:
        if writable:
            self.writers = max(0, self.writers - 1)
            if self.writers == 0:
                self._wake_readers()
        else:
            self.readers = max(0, self.readers - 1)

    def _wake_readers(self) -> None:
        waiters, self._read_waiters = self._read_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()


class DirInode(Inode):
    def __init__(self, ino: int):
        super().__init__(ino)
        self.entries: Dict[str, Inode] = {}


class DeviceInode(Inode):
    """A character-device node wrapping a device object.

    The device duck-type: generator methods ``read(count, offset)``,
    ``write(data, offset)``, ``ioctl(cmd, arg)``, and a plain ``mmap(
    length, offset)``; any of them may be absent.
    """

    def __init__(self, ino: int, device):
        super().__init__(ino)
        self.device = device


class OpenFile:
    """An open file description: inode + flags + shared file offset.

    The offset is the state that makes plain ``read``/``write`` unsafe
    at work-item granularity (Section IV's correctness discussion).
    """

    def __init__(self, inode: Inode, flags: int, path: str):
        self.inode = inode
        self.flags = flags
        self.path = path
        self.pos = 0

    @property
    def readable(self) -> bool:
        return (self.flags & 0o3) in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & 0o3) in (O_WRONLY, O_RDWR)


class FdTable:
    """Per-process file-descriptor table."""

    MAX_FDS = 1024

    def __init__(self):
        self._fds: Dict[int, OpenFile] = {}

    def install(self, open_file: OpenFile) -> int:
        for fd in range(self.MAX_FDS):
            if fd not in self._fds:
                self._fds[fd] = open_file
                return fd
        raise OsError(Errno.EMFILE, "fd table full")

    def lookup(self, fd: int) -> OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise OsError(Errno.EBADF, f"fd {fd}") from None

    def close(self, fd: int) -> None:
        if fd not in self._fds:
            raise OsError(Errno.EBADF, f"fd {fd}")
        del self._fds[fd]

    def open_fds(self):
        return sorted(self._fds)


class FileSystem:
    """The VFS tree plus the timed read/write paths."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        cpu: CpuComplex,
        memsystem: "MemorySystem",
        disk: Optional[BlockDevice] = None,
        probes: Optional[ProbeRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.cpu = cpu
        self.memsystem = memsystem
        self.disk = disk
        self._inos = itertools.count(1)
        self.root = DirInode(self.new_ino())
        for sub in ("tmp", "dev", "proc", "sys", "data"):
            self.root.entries[sub] = DirInode(self.new_ino())
        #: Global page-cache LRU over (inode, page) pairs; bounded by
        #: config.page_cache_pages (0 = unbounded).
        from collections import OrderedDict

        self._page_lru: "OrderedDict" = OrderedDict()
        self.page_cache_evictions = 0
        registry = probes if probes is not None else ProbeRegistry(sim)
        self.tp_pc_hit = registry.tracepoint(
            "fs.pagecache.hit", ("pages",), "pages of a read found resident"
        )
        self.tp_pc_miss = registry.tracepoint(
            "fs.pagecache.miss", ("pages",), "pages of a read faulted from disk"
        )
        self.tp_pc_evict = registry.tracepoint(
            "fs.pagecache.evict", ("ino", "page"), "a page was evicted from the cache"
        )
        self.tp_pc_resident = registry.tracepoint(
            "fs.pagecache.resident",
            ("pages",),
            "gauge: resident page count after an insert/evict batch",
        )

    def new_ino(self) -> int:
        """The next inode number of this filesystem (1, 2, ...)."""
        return next(self._inos)

    # -- page-cache accounting ------------------------------------------------

    def _cache_insert(self, inode: FileInode, pages) -> None:
        capacity = self.config.page_cache_pages
        for page in pages:
            inode.cached_pages.add(page)
            self._page_lru[(inode, page)] = True
        if capacity:
            while len(self._page_lru) > capacity:
                (victim_inode, victim_page), _ = self._page_lru.popitem(last=False)
                victim_inode.cached_pages.discard(victim_page)
                self.page_cache_evictions += 1
                if self.tp_pc_evict.enabled:
                    self.tp_pc_evict.fire(victim_inode.ino, victim_page)
        if self.tp_pc_resident.enabled:
            self.tp_pc_resident.fire(len(self._page_lru))

    def _cache_touch(self, inode: FileInode, pages) -> None:
        for page in pages:
            key = (inode, page)
            if key in self._page_lru:
                self._page_lru.move_to_end(key)

    @property
    def page_cache_resident(self) -> int:
        return len(self._page_lru)

    # -- path operations (functional, host-side helpers) -------------------

    @staticmethod
    def _split(path: str):
        if not path.startswith("/"):
            raise OsError(Errno.EINVAL, f"path must be absolute: {path!r}")
        return [part for part in path.split("/") if part]

    def resolve(self, path: str) -> Inode:
        node: Inode = self.root
        for part in self._split(path):
            if not isinstance(node, DirInode):
                raise OsError(Errno.ENOTDIR, path)
            if part not in node.entries:
                raise OsError(Errno.ENOENT, path)
            node = node.entries[part]
        return node

    def _resolve_parent(self, path: str):
        parts = self._split(path)
        if not parts:
            raise OsError(Errno.EINVAL, "empty path")
        node: Inode = self.root
        for part in parts[:-1]:
            if not isinstance(node, DirInode):
                raise OsError(Errno.ENOTDIR, path)
            if part not in node.entries:
                raise OsError(Errno.ENOENT, path)
            node = node.entries[part]
        if not isinstance(node, DirInode):
            raise OsError(Errno.ENOTDIR, path)
        return node, parts[-1]

    def exists(self, path: str) -> bool:
        try:
            self.resolve(path)
            return True
        except OsError:
            return False

    def mkdir(self, path: str) -> DirInode:
        parent, name = self._resolve_parent(path)
        if name in parent.entries:
            raise OsError(Errno.EEXIST, path)
        node = DirInode(self.new_ino())
        parent.entries[name] = node
        return node

    def create_file(
        self, path: str, data: bytes = b"", on_disk: bool = False
    ) -> FileInode:
        parent, name = self._resolve_parent(path)
        if name in parent.entries:
            raise OsError(Errno.EEXIST, path)
        if on_disk and self.disk is None:
            raise OsError(Errno.ENOSPC, "no block device attached")
        inode = FileInode(
            self.new_ino(), data, backing=self.disk if on_disk else None
        )
        parent.entries[name] = inode
        return inode

    def add_device(self, path: str, device) -> DeviceInode:
        parent, name = self._resolve_parent(path)
        if name in parent.entries:
            raise OsError(Errno.EEXIST, path)
        inode = DeviceInode(self.new_ino(), device)
        parent.entries[name] = inode
        return inode

    def add_dynamic_file(
        self,
        path: str,
        content_fn: Callable[[], bytes],
        write_fn: Optional[Callable[[bytes], None]] = None,
    ) -> DynamicFileInode:
        parent, name = self._resolve_parent(path)
        if name in parent.entries:
            raise OsError(Errno.EEXIST, path)
        inode = DynamicFileInode(self.new_ino(), content_fn, write_fn)
        parent.entries[name] = inode
        return inode

    def make_pipe(self) -> PipeInode:
        """Create an anonymous pipe inode (not linked into the tree)."""
        return PipeInode(self.new_ino(), self.sim)

    def unlink(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        if name not in parent.entries:
            raise OsError(Errno.ENOENT, path)
        node = parent.entries[name]
        if isinstance(node, DirInode) and node.entries:
            raise OsError(Errno.ENOTEMPTY, path)
        del parent.entries[name]

    def listdir(self, path: str):
        node = self.resolve(path)
        if not isinstance(node, DirInode):
            raise OsError(Errno.ENOTDIR, path)
        return sorted(node.entries)

    def read_whole(self, path: str) -> bytes:
        """Host-side functional read (no timing), for tests and setup."""
        inode = self.resolve(path)
        if isinstance(inode, FileInode):
            return bytes(inode.data)
        if isinstance(inode, DynamicFileInode):
            return inode.content_fn()
        raise OsError(Errno.EISDIR, path)

    # -- timed data paths ----------------------------------------------------

    def _memcpy(self, nbytes: int) -> Generator:
        """CPU copy cost between kernel and user buffers."""
        if nbytes <= 0:
            return
        yield from self.cpu.run(nbytes / self.config.cpu_copy_bw_bytes_per_ns)
        yield from self.memsystem.dram.cpu_access(nbytes)

    def _page_in(self, inode: FileInode, offset: int, count: int) -> Generator:
        """Fault missing pages of a disk-backed range into the page cache."""
        if inode.backing is None or count <= 0:
            return
        page = self.config.page_bytes
        first = offset // page
        last = (offset + count - 1) // page
        wanted = range(first, last + 1)
        missing = [p for p in wanted if p not in inode.cached_pages]
        self._cache_touch(inode, (p for p in wanted if p in inode.cached_pages))
        if self.tp_pc_hit.enabled or self.tp_pc_miss.enabled:
            hits = len(wanted) - len(missing)
            if hits and self.tp_pc_hit.enabled:
                self.tp_pc_hit.fire(hits)
            if missing and self.tp_pc_miss.enabled:
                self.tp_pc_miss.fire(len(missing))
        if not missing:
            return
        # Contiguous runs become single larger requests — what lets the
        # I/O scheduler merge and what deep queues exploit.
        run_start = missing[0]
        prev = missing[0]
        runs = []
        for p in missing[1:]:
            if p == prev + 1:
                prev = p
                continue
            runs.append((run_start, prev))
            run_start = prev = p
        runs.append((run_start, prev))
        for start, end in runs:
            yield from inode.backing.read((end - start + 1) * page)
        self._cache_insert(inode, missing)

    def read_timed(self, open_file: OpenFile, offset: int, count: int) -> Generator:
        """Process body: read ``count`` bytes at ``offset``; returns bytes.
        The caller has checked that ``open_file`` is open for reading."""
        inode = open_file.inode
        if isinstance(inode, DirInode):
            raise OsError(Errno.EISDIR, open_file.path)
        if isinstance(inode, DeviceInode):
            if not hasattr(inode.device, "read"):
                raise OsError(Errno.EINVAL, "device not readable")
            data = yield from inode.device.read(count, offset)
            return data
        if isinstance(inode, PipeInode):
            yield inode.wait_readable()
            data = inode.take(count)
            yield from self._memcpy(len(data))
            return data
        if isinstance(inode, DynamicFileInode):
            content = inode.content_fn()
            data = content[offset : offset + count]
            yield from self._memcpy(len(data))
            return data
        if offset >= len(inode.data):
            return b""
        count = min(count, len(inode.data) - offset)
        yield from self._page_in(inode, offset, count)
        yield from self._memcpy(count)
        return bytes(inode.data[offset : offset + count])

    def write_timed(self, open_file: OpenFile, offset: int, data: bytes) -> Generator:
        """Process body: write ``data`` at ``offset``; returns bytes
        written.  The caller has checked that ``open_file`` is open for
        writing."""
        inode = open_file.inode
        if isinstance(inode, DirInode):
            raise OsError(Errno.EISDIR, open_file.path)
        if isinstance(inode, DeviceInode):
            if not hasattr(inode.device, "write"):
                raise OsError(Errno.EINVAL, "device not writable")
            written = yield from inode.device.write(data, offset)
            return written
        if isinstance(inode, PipeInode):
            yield from self._memcpy(len(data))
            return inode.write_bytes(data)
        if isinstance(inode, DynamicFileInode):
            if inode.write_fn is None:
                raise OsError(Errno.EACCES, "read-only file")
            yield from self._memcpy(len(data))
            inode.write_fn(bytes(data))
            return len(data)
        end = offset + len(data)
        inode.writable(end)[offset:end] = data
        yield from self._memcpy(len(data))
        if inode.backing is not None:
            page = self.config.page_bytes
            pages = range(offset // page, (max(end - 1, offset)) // page + 1)
            self._cache_insert(inode, pages)
            # Write-back is asynchronous; charge the device in background.
            self.sim.process(inode.backing.write(len(data)), name="writeback")
        return len(data)
