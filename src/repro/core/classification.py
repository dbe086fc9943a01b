"""Section IV: classifying all of Linux's system calls for GPU use.

The paper sorts the ~300+ Linux system calls into three bins:

1. **Readily implementable** (~79%) — pread, mmap, sendto, ... — nothing
   about the GPU execution model prevents servicing them on the CPU.
2. **Implementable only with GPU hardware changes** (~13%, Table II) —
   they need a kernel representation of GPU threads (capabilities,
   namespaces, memory policies), control over the GPU thread scheduler
   (sched_*), the ability to pause/resume individual work-items
   (sigaction-style signal delivery), or are architecture-specific.
3. **Requiring extensive modification** (~8%) — fork/execve-style
   process lifecycle calls whose GPU semantics are unclear and not worth
   the implementation effort today.

The table below lists the x86-64 syscall surface of the paper's Linux
4.11 era with a category, a service group, and — for the non-ready
bins — the blocking reason, reproducing Table II and the headline
percentages.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Optional


class Category(Enum):
    READY = "readily-implementable"
    HW_CHANGES = "needs-gpu-hardware-changes"
    EXTENSIVE = "needs-extensive-modification"


class Group(Enum):
    FILESYSTEM = "filesystem"
    NETWORK = "network"
    MEMORY = "memory"
    SIGNALS = "signals"
    PROCESS = "process"
    SCHEDULING = "scheduling"
    SECURITY = "security"
    IPC = "ipc"
    TIME = "time"
    SYSTEM = "system"


# Reasons mirroring Table II's right-hand column.
R_KERNEL_REP = "needs GPU thread representation in the kernel"
R_SCHEDULER = "needs better control over the GPU scheduler"
R_PAUSE_RESUME = (
    "signal actions require pausing/resuming a targeted thread; GPU "
    "work-item program counters cannot be set independently"
)
R_ARCH = "architecture specific; not accessible from GPU"
R_LIFECYCLE = "would require cloning/replacing GPU execution state"
R_KERNEL_ADMIN = "kernel administration with no meaningful GPU-side semantics"


@dataclass(frozen=True)
class SyscallClass:
    name: str
    category: Category
    group: Group
    reason: Optional[str] = None


def _ready(group: Group, *names: str) -> List[SyscallClass]:
    return [SyscallClass(n, Category.READY, group) for n in names]


def _hw(group: Group, reason: str, *names: str) -> List[SyscallClass]:
    return [SyscallClass(n, Category.HW_CHANGES, group, reason) for n in names]


def _ext(group: Group, reason: str, *names: str) -> List[SyscallClass]:
    return [SyscallClass(n, Category.EXTENSIVE, group, reason) for n in names]


SYSCALL_TABLE: List[SyscallClass] = (
    # -- readily implementable: filesystem ------------------------------------
    _ready(
        Group.FILESYSTEM,
        "read", "write", "open", "close", "stat", "fstat", "lstat", "poll",
        "lseek", "pread64", "pwrite64", "readv", "writev", "preadv", "pwritev",
        "preadv2", "pwritev2", "access", "faccessat", "pipe", "pipe2",
        "select", "pselect6", "ppoll", "dup", "dup2", "dup3", "sendfile",
        "fcntl", "flock", "fsync", "fdatasync", "truncate", "ftruncate",
        "getdents", "getdents64", "getcwd", "chdir", "fchdir", "rename",
        "renameat", "renameat2", "mkdir", "mkdirat", "rmdir", "creat",
        "link", "linkat", "unlink", "unlinkat", "symlink", "symlinkat",
        "readlink", "readlinkat", "chmod", "fchmod", "fchmodat", "chown",
        "fchown", "lchown", "fchownat", "umask", "mknod", "mknodat",
        "statfs", "fstatfs", "ustat", "utime", "utimes", "futimesat",
        "utimensat", "mount", "umount2", "sync", "syncfs", "quotactl",
        "name_to_handle_at", "open_by_handle_at", "fanotify_init",
        "fanotify_mark", "inotify_init", "inotify_init1",
        "inotify_add_watch", "inotify_rm_watch", "fallocate", "readahead",
        "splice", "tee", "vmsplice", "copy_file_range", "sync_file_range",
        "statx", "chroot", "ioctl", "fadvise64", "lookup_dcookie",
        "getxattr", "setxattr", "listxattr", "removexattr", "lgetxattr",
        "lsetxattr", "llistxattr", "lremovexattr", "fgetxattr", "fsetxattr",
        "flistxattr", "fremovexattr",
        "epoll_create", "epoll_create1", "epoll_ctl", "epoll_wait",
        "epoll_pwait", "io_setup", "io_destroy", "io_submit", "io_cancel",
        "io_getevents", "eventfd", "eventfd2", "vhangup",
    )
    # -- readily implementable: network ---------------------------------------
    + _ready(
        Group.NETWORK,
        "socket", "connect", "accept", "accept4", "sendto", "recvfrom",
        "sendmsg", "recvmsg", "sendmmsg", "recvmmsg", "shutdown", "bind",
        "listen", "getsockname", "getpeername", "socketpair", "setsockopt",
        "getsockopt",
    )
    # -- readily implementable: memory -----------------------------------------
    + _ready(
        Group.MEMORY,
        "mmap", "mprotect", "munmap", "brk", "mremap", "msync", "mincore",
        "madvise", "mlock", "mlock2", "munlock", "mlockall", "munlockall",
        "memfd_create", "pkey_alloc", "pkey_free", "pkey_mprotect",
        "process_vm_readv", "process_vm_writev", "swapon", "swapoff",
    )
    # -- readily implementable: signal *generation* ------------------------------
    + _ready(
        Group.SIGNALS,
        "kill", "tkill", "tgkill", "rt_sigqueueinfo", "rt_tgsigqueueinfo",
        "signalfd", "signalfd4",
    )
    # -- readily implementable: ipc --------------------------------------------
    + _ready(
        Group.IPC,
        "shmget", "shmat", "shmctl", "shmdt", "semget", "semop", "semctl",
        "semtimedop", "msgget", "msgsnd", "msgrcv", "msgctl", "mq_open",
        "mq_unlink", "mq_timedsend", "mq_timedreceive", "mq_notify",
        "mq_getsetattr",
    )
    # -- readily implementable: time --------------------------------------------
    + _ready(
        Group.TIME,
        "nanosleep", "gettimeofday", "time", "clock_gettime", "clock_settime",
        "clock_getres", "clock_nanosleep", "clock_adjtime", "settimeofday",
        "adjtimex", "times", "timer_create", "timer_settime", "timer_gettime",
        "timer_getoverrun", "timer_delete", "timerfd_create",
        "timerfd_settime", "timerfd_gettime", "alarm", "getitimer",
        "setitimer",
    )
    # -- readily implementable: process ids / limits / info ------------------------
    + _ready(
        Group.PROCESS,
        "getpid", "getppid", "getuid", "geteuid", "getgid", "getegid",
        "setuid", "setgid", "setreuid", "setregid", "setresuid", "getresuid",
        "setresgid", "getresgid", "setfsuid", "setfsgid", "getgroups",
        "setgroups", "getpgid", "setpgid", "getpgrp", "setsid", "getsid",
        "prlimit64", "getrlimit", "setrlimit", "getrusage", "ioprio_set",
        "ioprio_get", "setpriority", "getpriority",
    )
    # -- readily implementable: system-wide --------------------------------------
    + _ready(
        Group.SYSTEM,
        "sysinfo", "uname", "sethostname", "setdomainname", "getcpu",
        "getrandom", "syslog", "acct", "add_key", "request_key", "keyctl",
        "perf_event_open", "prctl",
    )
    # -- needs GPU hardware changes (Table II) -------------------------------------
    + _hw(Group.SECURITY, R_KERNEL_REP, "capget", "capset")
    + _hw(Group.SYSTEM, R_KERNEL_REP, "setns")
    + _hw(
        Group.MEMORY,
        R_KERNEL_REP,
        "set_mempolicy", "get_mempolicy", "mbind", "migrate_pages",
        "move_pages",
    )
    + _hw(
        Group.SCHEDULING,
        R_SCHEDULER,
        "sched_yield", "sched_setaffinity", "sched_getaffinity",
        "sched_setparam", "sched_getparam", "sched_setscheduler",
        "sched_getscheduler", "sched_get_priority_max",
        "sched_get_priority_min", "sched_rr_get_interval", "sched_setattr",
        "sched_getattr",
    )
    + _hw(
        Group.SIGNALS,
        R_PAUSE_RESUME,
        "rt_sigaction", "rt_sigprocmask", "rt_sigreturn", "rt_sigsuspend",
        "rt_sigpending", "rt_sigtimedwait", "sigaltstack", "pause",
        "restart_syscall",
    )
    + _hw(
        Group.SCHEDULING,
        R_KERNEL_REP,
        "futex", "set_tid_address", "set_robust_list", "get_robust_list",
        "gettid", "membarrier", "kcmp",
    )
    + _hw(
        Group.SYSTEM,
        R_ARCH,
        "ioperm", "iopl", "arch_prctl", "modify_ldt", "set_thread_area",
        "get_thread_area",
    )
    # -- needs extensive modification ----------------------------------------------
    + _ext(
        Group.PROCESS,
        R_LIFECYCLE,
        "fork", "vfork", "clone", "execve", "execveat", "exit", "exit_group",
        "wait4", "waitid", "ptrace", "personality", "unshare", "uselib",
        "remap_file_pages",
    )
    + _ext(
        Group.SYSTEM,
        R_KERNEL_ADMIN,
        "kexec_load", "kexec_file_load", "reboot", "init_module",
        "finit_module", "delete_module", "bpf", "seccomp", "userfaultfd",
        "pivot_root", "nfsservctl", "_sysctl",
    )
)

#: The calls GENESYS implements as its proof of concept (Section IV: 14
#: system calls plus device-control ioctls, and the socket setup helpers
#: networking needs).
IMPLEMENTED_IN_GENESYS = frozenset(
    {
        "read", "write", "pread", "pwrite", "open", "close", "lseek",
        "sendto", "recvfrom", "socket", "bind",
        "mmap", "munmap", "madvise",
        "getrusage", "rt_sigqueueinfo", "ioctl",
    }
)

#: Additional readily-implementable calls this reproduction services
#: beyond the paper's proof-of-concept set, demonstrating that the
#: interface generalises (all classified READY above).
IMPLEMENTED_EXTENSIONS = frozenset(
    {
        "stat", "fstat", "access", "dup", "dup2", "pipe", "poll", "ftruncate",
        "unlink", "mkdir", "rmdir", "rename", "getdents", "fsync",
        "readv", "writev", "nanosleep", "gettimeofday", "clock_gettime", "connect",
        "getpid", "uname", "sysinfo",
    }
)

_BY_NAME: Dict[str, SyscallClass] = {entry.name: entry for entry in SYSCALL_TABLE}

# pread/pwrite appear as pread64/pwrite64 in the syscall table.
_ALIASES = {"pread": "pread64", "pwrite": "pwrite64"}


def classify(name: str) -> SyscallClass:
    """Classification entry for a syscall name (aliases resolved)."""
    canonical = _ALIASES.get(name, name)
    try:
        return _BY_NAME[canonical]
    except KeyError:
        raise KeyError(f"unknown system call {name!r}") from None


def total_syscalls() -> int:
    return len(SYSCALL_TABLE)


def count_by_category() -> Dict[Category, int]:
    counts = Counter(entry.category for entry in SYSCALL_TABLE)
    return {category: counts.get(category, 0) for category in Category}


def fraction(category: Category) -> float:
    """Fraction of all classified syscalls in ``category``."""
    return count_by_category()[category] / total_syscalls()


def table2_rows() -> List[Dict[str, Optional[str]]]:
    """The paper's Table II: example non-implementable calls + reasons."""
    rows: List[Dict[str, Optional[str]]] = []
    for entry in SYSCALL_TABLE:
        if entry.category is Category.HW_CHANGES:
            rows.append(
                {"type": entry.group.value, "example": entry.name, "reason": entry.reason}
            )
    return rows


def summary() -> Dict[str, Any]:
    """Headline numbers matching the paper's Section IV claims."""
    counts = count_by_category()
    total = total_syscalls()
    return {
        "total": total,
        "ready": counts[Category.READY],
        "ready_pct": 100.0 * counts[Category.READY] / total,
        "hw_changes": counts[Category.HW_CHANGES],
        "hw_changes_pct": 100.0 * counts[Category.HW_CHANGES] / total,
        "extensive": counts[Category.EXTENSIVE],
        "extensive_pct": 100.0 * counts[Category.EXTENSIVE] / total,
        "implemented": sorted(IMPLEMENTED_IN_GENESYS),
    }
