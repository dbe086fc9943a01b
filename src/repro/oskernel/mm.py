"""Virtual-memory manager: VMAs, RSS, madvise, page faults, swap.

This substrate backs the paper's Section VIII-A memory-management case
study (miniAMR + Figure 11): ``mmap``/``munmap`` manage mappings,
touching pages faults them against a finite :class:`PhysicalMemory`,
``madvise(MADV_DONTNEED)`` returns pages to the OS (dropping RSS), and
memory pressure triggers LRU eviction to swap.  Touching swapped pages
pays a large swap-in latency; sustained swap storms are what cause the
GPU-driver timeout that kills the paper's no-madvise baseline.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generator, List, Optional, Tuple

from repro.machine import MachineConfig
from repro.oskernel.cpu import CpuComplex
from repro.oskernel.errors import Errno, OsError
from repro.sim.engine import Simulator

MADV_DONTNEED = 4
MADV_WILLNEED = 3


class GpuTimeoutError(RuntimeError):
    """The GPU driver's watchdog killed the application.

    Raised when a kernel stalls on too many consecutive swap-in faults —
    the fate of the paper's miniAMR baseline without madvise.
    """


class PhysicalMemory:
    """Finite physical page pool with global LRU eviction to swap."""

    def __init__(self, sim: Simulator, config: MachineConfig, capacity_bytes: int):
        if capacity_bytes < config.page_bytes:
            raise ValueError("physical memory smaller than one page")
        self.sim = sim
        self.config = config
        self.capacity_pages = capacity_bytes // config.page_bytes
        #: LRU over resident pages: (address_space, vpage) -> True.
        self._lru: "OrderedDict[Tuple[AddressSpace, int], bool]" = OrderedDict()
        self.evictions = 0

    @property
    def used_pages(self) -> int:
        return len(self._lru)

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self.used_pages

    def note_use(self, aspace: "AddressSpace", vpage: int) -> None:
        key = (aspace, vpage)
        if key in self._lru:
            self._lru.move_to_end(key)

    def allocate(self, aspace: "AddressSpace", vpage: int) -> Optional[Tuple["AddressSpace", int]]:
        """Make ``vpage`` resident; returns an evicted (aspace, vpage) or None."""
        victim = None
        if self.used_pages >= self.capacity_pages:
            victim_key, _ = self._lru.popitem(last=False)
            victim_key[0]._evicted(victim_key[1])
            self.evictions += 1
            victim = victim_key
        self._lru[(aspace, vpage)] = True
        return victim

    def release(self, aspace: "AddressSpace", vpage: int) -> None:
        self._lru.pop((aspace, vpage), None)

    def close(self) -> None:
        """Forget every resident page: each LRU key holds its address
        space, which points back at this pool."""
        self._lru.clear()


class Vma:
    """One mapped region, in pages."""

    __slots__ = ("start", "npages")

    def __init__(self, start: int, npages: int):
        self.start = start
        self.npages = npages

    def contains_page(self, vpage: int) -> bool:
        return self.start <= vpage < self.start + self.npages


class AddressSpace:
    """A process's virtual address space."""

    _MMAP_BASE_PAGE = 0x7000_0

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        physmem: PhysicalMemory,
        cpu: CpuComplex,
        name: str = "",
    ):
        self.sim = sim
        self.config = config
        self.physmem = physmem
        self.cpu = cpu
        self.name = name
        self._vmas: Dict[int, Vma] = {}
        self._next_page = self._MMAP_BASE_PAGE
        self._resident: set = set()
        self._swapped: set = set()
        self._rss_trace: List[Tuple[float, float]] = []
        self.minor_faults = 0
        self.major_faults = 0
        self.peak_rss_pages = 0
        #: Consecutive major faults with no successful non-faulting touch
        #: in between; the GPU watchdog trips past config.gpu_timeout_faults.
        self.consecutive_major_faults = 0

    # -- accounting ----------------------------------------------------------

    @property
    def page_bytes(self) -> int:
        return self.config.page_bytes

    @property
    def rss_pages(self) -> int:
        return len(self._resident)

    @property
    def rss_bytes(self) -> int:
        return self.rss_pages * self.page_bytes

    @property
    def mapped_bytes(self) -> int:
        return sum(v.npages for v in self._vmas.values()) * self.page_bytes

    def _record(self) -> None:
        self.peak_rss_pages = max(self.peak_rss_pages, self.rss_pages)
        self._rss_trace.append((self.sim.now, self.rss_bytes))

    def _evicted(self, vpage: int) -> None:
        """Callback from PhysicalMemory when this space loses a page."""
        self._resident.discard(vpage)
        self._swapped.add(vpage)
        self._record()

    def _vma_for(self, vpage: int) -> Vma:
        for vma in self._vmas.values():
            if vma.contains_page(vpage):
                return vma
        raise OsError(Errno.EFAULT, f"page 0x{vpage:x} not mapped")

    # -- mapping operations ----------------------------------------------------

    def mmap(self, length: int) -> int:
        """Map ``length`` bytes of anonymous memory; returns the address."""
        if length <= 0:
            raise OsError(Errno.EINVAL, f"mmap length {length}")
        npages = -(-length // self.page_bytes)
        start = self._next_page
        self._next_page += npages
        self._vmas[start] = Vma(start, npages)
        return start * self.page_bytes

    def munmap(self, addr: int, length: int) -> None:
        start, npages = self._range_pages(addr, length)
        vma = self._vmas.get(start)
        if vma is None or vma.npages != npages:
            raise OsError(Errno.EINVAL, "munmap must cover a whole mapping")
        for vpage in range(start, start + npages):
            self._drop_page(vpage)
        del self._vmas[start]
        self._record()

    def madvise(self, addr: int, length: int, advice: int) -> int:
        """MADV_DONTNEED releases the range's pages back to the OS."""
        start, npages = self._range_pages(addr, length)
        for vpage in range(start, start + npages):
            self._vma_for(vpage)
        if advice == MADV_DONTNEED:
            for vpage in range(start, start + npages):
                self._drop_page(vpage)
            self._record()
            return 0
        if advice == MADV_WILLNEED:
            return 0
        raise OsError(Errno.EINVAL, f"advice {advice}")

    def _drop_page(self, vpage: int) -> None:
        if vpage in self._resident:
            self._resident.discard(vpage)
            self.physmem.release(self, vpage)
        self._swapped.discard(vpage)

    def _range_pages(self, addr: int, length: int) -> Tuple[int, int]:
        if addr % self.page_bytes:
            raise OsError(Errno.EINVAL, f"address 0x{addr:x} not page aligned")
        if length <= 0:
            raise OsError(Errno.EINVAL, f"length {length}")
        return addr // self.page_bytes, -(-length // self.page_bytes)

    # -- the fault path ----------------------------------------------------

    def _touch_page(self, vpage: int) -> Tuple[float, float, int]:
        """Fault one page in; returns (cpu_ns, io_ns, major) and mutates
        residency.  Raises :class:`GpuTimeoutError` on a swap storm."""
        self._vma_for(vpage)
        if vpage in self._resident:
            self.physmem.note_use(self, vpage)
            self.consecutive_major_faults = 0
            return 0.0, 0.0, 0
        was_swapped = vpage in self._swapped
        cpu_ns = self.config.page_fault_ns
        io_ns = 0.0
        major = 0
        if was_swapped:
            self.major_faults += 1
            major = 1
            self.consecutive_major_faults += 1
            io_ns = self.config.swap_in_ns
            self._swapped.discard(vpage)
            if self.consecutive_major_faults > self.config.gpu_timeout_faults:
                raise GpuTimeoutError(
                    f"{self.name}: {self.consecutive_major_faults} consecutive "
                    "swap-in faults — GPU watchdog fired"
                )
        else:
            self.minor_faults += 1
            self.consecutive_major_faults = 0
        self.physmem.allocate(self, vpage)
        self._resident.add(vpage)
        return cpu_ns, io_ns, major

    def _pages_of(self, addr: int, length: int) -> range:
        return range(addr // self.page_bytes, (addr + length - 1) // self.page_bytes + 1)

    def touch(self, addr: int, length: int) -> Generator:
        """Process body: access [addr, addr+length), faulting as needed.

        Returns the number of major (swap-in) faults taken, so callers
        can implement watchdog behaviour.  Fault handling occupies a CPU
        core; swap-ins add I/O wait.
        """
        if length <= 0:
            return 0
        majors = 0
        for vpage in self._pages_of(addr, length):
            cpu_ns, io_ns, major = self._touch_page(vpage)
            majors += major
            if cpu_ns:
                yield from self.cpu.run(cpu_ns)
            if io_ns:
                yield io_ns
        self._record()
        return majors

    def fault_in_gpu(self, addr: int, length: int) -> Tuple[float, int]:
        """Functional fault path for GPU-originated accesses.

        GPU page faults are serviced by the IOMMU/driver without holding
        an application core in this model; the returned stall time is
        charged to the faulting wavefront by the caller (as a Sleep op).
        Returns (stall_ns, major_faults).
        """
        if length <= 0:
            return 0.0, 0
        stall = 0.0
        majors = 0
        for vpage in self._pages_of(addr, length):
            cpu_ns, io_ns, major = self._touch_page(vpage)
            stall += cpu_ns + io_ns
            majors += major
        self._record()
        return stall, majors

    def rss_series(self) -> List[Tuple[float, float]]:
        """The (time, rss_bytes) trace — Figure 11's y-axis."""
        return list(self._rss_trace)
