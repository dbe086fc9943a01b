"""Simulated machine configuration (paper Table III, scaled).

The paper's testbed is an AMD FX-9800P SoC: 4 CPU cores @ 2.7 GHz, an
integrated GCN3 GPU @ 758 MHz, and 16 GB of dual-channel DDR4-1066 shared
between the two.  :class:`MachineConfig` mirrors that layout with every
latency/bandwidth knob exposed so experiments can sweep them.

Defaults are calibrated so that the microbenchmark *shapes* of the paper
reproduce: the GPU L2 holds 4096 cachelines (the knee of Figure 9), the
atomic-operation latencies follow Table IV's ordering, and the DRAM
channel is shared between CPU and GPU accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CACHELINE_BYTES = 64

#: Atomic / load latencies in nanoseconds (paper Table IV, measured on the
#: FX-9800P in microseconds; ordering cmp-swap > swap > atomic-load > load
#: is the property the design relies on).
ATOMIC_LATENCY_NS = {
    "cmp-swap": 1245.0,
    "swap": 1037.0,
    "atomic-load": 1011.0,
    "load": 538.0,
}


@dataclass
class MachineConfig:
    """Every tunable of the simulated SoC, with Table-III-like defaults."""

    # -- CPU ------------------------------------------------------------
    cpu_cores: int = 4
    cpu_freq_ghz: float = 2.7
    #: Cost of taking a GPU-raised interrupt on the CPU (handler entry,
    #: reading the wavefront ID, enqueueing the workqueue task).
    interrupt_handler_ns: float = 2000.0
    #: Scheduling delay before an enqueued workqueue task starts running.
    workqueue_dispatch_ns: float = 3000.0
    #: Worker-thread pool size.  Linux workqueues are concurrency-managed:
    #: blocked workers wake substitutes, so the pool exceeds the core
    #: count; CPU-bound segments still contend for the real cores.
    workqueue_workers: int = 32
    #: Fixed CPU-side cost of entering/exiting one system call.
    syscall_base_ns: float = 1500.0
    #: Extra cost to switch the worker thread to the invoking process's
    #: context (Section VI: "switches to the context of the original CPU
    #: program").
    context_switch_ns: float = 1200.0
    #: CPU copy bandwidth between kernel and user buffers (bytes/ns).
    cpu_copy_bw_bytes_per_ns: float = 6.0

    # -- GPU ------------------------------------------------------------
    gpu_freq_ghz: float = 0.758
    num_cus: int = 8
    wavefront_width: int = 64
    #: Hardware wavefront slots per CU (GCN3: 40).
    wavefront_slots_per_cu: int = 40
    #: Latency to resume a halted wavefront (halt-resume waiting mode).
    halt_resume_ns: float = 5000.0
    #: Interval between successive polls of a syscall slot.
    poll_interval_ns: float = 1000.0
    #: Local data share: bank count and per-access latency (GCN3: 32
    #: banks, 4-byte wide; conflicting lanes serialise).
    lds_banks: int = 32
    lds_bank_bytes: int = 4
    lds_access_ns: float = 2.0
    #: Cost of the s_sendmsg scalar instruction raising a CPU interrupt.
    sendmsg_ns: float = 200.0
    #: CPU-side cost of launching a kernel on the GPU (the round-trip the
    #: paper's Figure 1 baseline pays per kernel split).
    kernel_launch_ns: float = 20_000.0

    # -- memory system ----------------------------------------------------
    cacheline_bytes: int = CACHELINE_BYTES
    #: GPU L2 capacity in cachelines (knee of Figure 9: 4096 lines).
    gpu_l2_lines: int = 4096
    gpu_l2_hit_ns: float = 180.0
    gpu_l1_lines: int = 256
    gpu_l1_hit_ns: float = 30.0
    dram_latency_ns: float = 120.0
    #: Shared DRAM bandwidth in bytes/ns (dual-channel DDR4-1066 ~ 17 GB/s).
    dram_bw_bytes_per_ns: float = 17.0
    phys_mem_bytes: int = 16 << 30

    # -- atomics (Table IV) ----------------------------------------------
    atomic_latency_ns: dict = field(default_factory=lambda: dict(ATOMIC_LATENCY_NS))

    # -- devices ----------------------------------------------------------
    #: SSD peak bandwidth in bytes/ns (~500 MB/s) and per-request latency.
    ssd_bw_bytes_per_ns: float = 0.5
    ssd_request_latency_ns: float = 90_000.0
    #: Internal SSD parallelism (channels); concurrent requests scale
    #: throughput up to the peak (Figure 14's 170 vs 30 MB/s effect).
    ssd_channels: int = 8
    #: Loopback/NIC one-way latency and bandwidth for UDP.
    nic_latency_ns: float = 8_000.0
    nic_bw_bytes_per_ns: float = 1.25
    #: Deterministic NIC loss: drop every Nth transmitted datagram
    #: (0 disables loss).  UDP gives no delivery guarantee; workloads
    #: that care must tolerate this.
    nic_drop_every: int = 0
    #: Page-cache capacity in pages (disk-backed files); LRU-evicted
    #: pages must be re-read from the device.  0 means unbounded.
    page_cache_pages: int = 0

    # -- paging / swap (Figure 11) -----------------------------------------
    page_bytes: int = 4096
    page_fault_ns: float = 3_000.0
    swap_in_ns: float = 400_000.0
    #: Consecutive-fault threshold past which the GPU driver would declare
    #: a timeout and kill the application (the paper's missing baseline).
    gpu_timeout_faults: int = 64

    def __post_init__(self) -> None:
        if self.wavefront_width < 1:
            raise ValueError("wavefront_width must be >= 1")
        if self.num_cus < 1:
            raise ValueError("num_cus must be >= 1")
        for key in ("cmp-swap", "swap", "atomic-load", "load"):
            if key not in self.atomic_latency_ns:
                raise ValueError(f"missing atomic latency for {key!r}")

    # -- derived quantities ------------------------------------------------

    @property
    def gpu_cycle_ns(self) -> float:
        return 1.0 / self.gpu_freq_ghz

    @property
    def max_active_wavefronts(self) -> int:
        return self.num_cus * self.wavefront_slots_per_cu

    @property
    def max_active_workitems(self) -> int:
        return self.max_active_wavefronts * self.wavefront_width

    @property
    def syscall_area_slots(self) -> int:
        """One slot per potentially active work-item (Section VI)."""
        return self.max_active_workitems

    @property
    def syscall_area_bytes(self) -> int:
        """64 B per slot; the paper reports 1.25 MB on its platform."""
        return self.syscall_area_slots * self.cacheline_bytes


def paper_machine() -> MachineConfig:
    """The default configuration mirroring the paper's Table III."""
    return MachineConfig()


def small_machine() -> MachineConfig:
    """A reduced configuration for fast unit tests."""
    return MachineConfig(
        num_cus=2,
        wavefront_slots_per_cu=8,
        wavefront_width=8,
        gpu_l2_lines=64,
        gpu_l1_lines=16,
    )
