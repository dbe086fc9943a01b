"""Property-based fuzzing of the GENESYS request path.

Hypothesis generates random GPU programs — mixes of syscalls at random
granularities, orderings, blocking modes, and wait modes — and checks
the system-wide invariants: no deadlock, every call serviced exactly
once, every slot returned to FREE, all written data lands.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.invocation import Granularity, Ordering, WaitMode
from repro.core.syscall_area import SlotState
from repro.faults import FaultInjector, FaultPlan, check_invariants
from repro.machine import small_machine
from repro.oskernel.errors import Errno
from repro.oskernel.fs import O_RDWR
from repro.system import System

CALL_SPECS = st.lists(
    st.tuples(
        st.sampled_from(["pread", "pwrite", "getrusage"]),
        st.sampled_from([Granularity.WORK_ITEM, Granularity.WORK_GROUP]),
        st.sampled_from([Ordering.STRONG, Ordering.RELAXED]),
        st.booleans(),  # blocking
        st.sampled_from([WaitMode.POLL, WaitMode.HALT_RESUME]),
    ),
    min_size=1,
    max_size=5,
)


class TestRandomSyscallPrograms:
    @given(specs=CALL_SPECS, wg_size=st.sampled_from([4, 8]), groups=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_random_programs_complete_and_account(self, specs, wg_size, groups):
        system = System(config=small_machine())
        system.kernel.fs.create_file("/tmp/f", b"\xee" * 4096)
        total_items = wg_size * groups
        bufs = [system.memsystem.alloc_buffer(32) for _ in range(total_items)]

        def kern(ctx):
            fd = yield from ctx.sys.open(
                "/tmp/f", O_RDWR, granularity=Granularity.WORK_GROUP
            )
            for name, granularity, ordering, blocking, wait in specs:
                if granularity is Granularity.WORK_ITEM:
                    # Work-item invocation implies strong ordering of the
                    # caller itself; ordering knob is a no-op there.
                    ordering = Ordering.STRONG
                args = {
                    "granularity": granularity,
                    "ordering": ordering,
                    "blocking": blocking,
                    "wait": wait,
                }
                buf = bufs[ctx.global_id]
                if name == "pread":
                    yield from ctx.sys.pread(fd, buf, 32, 32 * ctx.global_id, **args)
                elif name == "pwrite":
                    yield from ctx.sys.pwrite(fd, buf, 32, 32 * ctx.global_id, **args)
                else:
                    yield from ctx.sys.getrusage(**args)

        def body():
            yield system.launch(kern, total_items, wg_size)

        # Completes (no deadlock) and drains.
        system.run_to_completion(body())

        # Every issued call was serviced; nothing is outstanding.
        stats = system.genesys.stats()
        assert stats["outstanding"] == 0
        issued = sum(stats["invocations"].values())
        assert stats["syscalls_completed"] == issued

        # Every touched slot is back to FREE (untouched slots never
        # left it).
        for slot in system.genesys.area.materialized():
            assert slot.state is SlotState.FREE

        # The interrupt/coalescing path conserved requests.
        assert system.genesys.coalescer.requests_seen == stats["interrupts_sent"]

    @given(
        write_records=st.lists(
            st.tuples(st.integers(0, 15), st.binary(min_size=1, max_size=16)),
            min_size=1, max_size=8, unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_random_pwrites_all_land(self, write_records):
        """Whatever the mix, position-absolute writes from the GPU end up
        byte-exact in the file."""
        system = System(config=small_machine())
        system.kernel.fs.create_file("/tmp/out", b"\0" * 512)
        bufs = {}
        for slot_no, data in write_records:
            buf = system.memsystem.alloc_buffer(len(data))
            buf.data[:] = data
            bufs[slot_no] = buf

        def kern(ctx):
            fd = yield from ctx.sys.open(
                "/tmp/out", O_RDWR, granularity=Granularity.WORK_GROUP
            )
            if ctx.global_id < len(write_records):
                slot_no, data = write_records[ctx.global_id]
                yield from ctx.sys.pwrite(
                    fd, bufs[slot_no], len(data), 32 * slot_no, blocking=False
                )

        def body():
            yield system.launch(kern, max(len(write_records), 1), 8)

        system.run_to_completion(body())
        content = system.kernel.fs.read_whole("/tmp/out")
        for slot_no, data in write_records:
            assert content[32 * slot_no : 32 * slot_no + len(data)] == data


# -- errno-injection corpus ---------------------------------------------------

#: Every blocking syscall class the corpus drives, as (label, kernel
#: body).  Each body records its observable outcomes into ``results``.
def _corpus_kernels():
    def pread_kern(ctx, system, bufs, results):
        fd = yield from ctx.sys.open("/tmp/fz", O_RDWR, granularity=Granularity.WORK_GROUP)
        n = yield from ctx.sys.pread(fd, bufs[ctx.global_id], 32, 32 * ctx.global_id)
        results[ctx.global_id] = (n, bytes(bufs[ctx.global_id].data[:32]))

    def pwrite_kern(ctx, system, bufs, results):
        fd = yield from ctx.sys.open("/tmp/fz", O_RDWR, granularity=Granularity.WORK_GROUP)
        buf = bufs[ctx.global_id]
        buf.data[:] = bytes([0x50 + ctx.global_id]) * 32
        n = yield from ctx.sys.pwrite(fd, buf, 32, 32 * ctx.global_id)
        results[ctx.global_id] = n

    def read_kern(ctx, system, bufs, results):
        # Per-item fd so the stateful read offset is private.
        fd = yield from ctx.sys.open("/tmp/fz", O_RDWR)
        n = yield from ctx.sys.read(fd, bufs[ctx.global_id], 32)
        results[ctx.global_id] = (n, bytes(bufs[ctx.global_id].data[:32]))
        yield from ctx.sys.close(fd)

    def getrusage_kern(ctx, system, bufs, results):
        usage = yield from ctx.sys.getrusage()
        results[ctx.global_id] = (
            usage.as_dict() if hasattr(usage, "as_dict") else usage
        )

    def open_close_kern(ctx, system, bufs, results):
        fd = yield from ctx.sys.open("/tmp/fz", O_RDWR)
        rc = yield from ctx.sys.close(fd)
        results[ctx.global_id] = (fd >= 0, rc)

    return {
        "pread": pread_kern,
        "pwrite": pwrite_kern,
        "read": read_kern,
        "getrusage": getrusage_kern,
        "open_close": open_close_kern,
    }


def _run_corpus_case(kernel_body, plan):
    system = System(config=small_machine())
    if plan is not None:
        injector = FaultInjector(plan, system)
    else:
        injector = None
    system.drain_timeout_ns = 2_000_000_000.0
    system.kernel.fs.create_file("/tmp/fz", bytes(range(256)) * 4)
    bufs = [system.memsystem.alloc_buffer(32) for _ in range(4)]
    results = {}

    def kern(ctx):
        yield from kernel_body(ctx, system, bufs, results)

    system.run_kernel(kern, 4, 4, name="errno-corpus")
    content = system.kernel.fs.read_whole("/tmp/fz")
    return results, content, system, injector


class TestErrnoInjectionCorpus:
    """Transient-errno faults on every blocking syscall class: the
    GPU-side retry/backoff loop must terminate, and because an injected
    errno skips execution entirely, the retried run's results must be
    byte-identical to a fault-free run."""

    @pytest.mark.parametrize("syscall_class", sorted(_corpus_kernels()))
    @pytest.mark.parametrize(
        "errno", [Errno.EINTR, Errno.EAGAIN], ids=["EINTR", "EAGAIN"]
    )
    def test_injected_errno_retries_to_fault_free_result(self, syscall_class, errno):
        kernel_body = _corpus_kernels()[syscall_class]
        clean_results, clean_content, _, _ = _run_corpus_case(kernel_body, None)
        plan = FaultPlan(
            seed=11,
            errno_rate=0.4,
            errnos=(int(errno),),
            watchdog_period_ns=0.0,
        )
        faulted_results, faulted_content, system, injector = _run_corpus_case(
            kernel_body, plan
        )
        assert injector.injected > 0, "corpus case injected nothing"
        assert system.genesys.syscall_retries == injector.injected
        assert faulted_results == clean_results
        assert faulted_content == clean_content
        assert check_invariants(system) == []

    def test_exhausted_retries_surface_the_errno(self):
        """With a 100% injection rate the backoff loop must give up
        after max_syscall_retries and hand the errno to the caller —
        bounded, definite failure rather than an infinite retry loop."""
        plan = FaultPlan(seed=2, errno_rate=1.0, watchdog_period_ns=0.0)
        system = System(config=small_machine())
        FaultInjector(plan, system)
        system.drain_timeout_ns = 2_000_000_000.0
        results = {}

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage()

        system.run_kernel(kern, 1, 1, name="errno-exhaust")
        assert results[0] in (-int(Errno.EINTR), -int(Errno.EAGAIN))
        assert (
            system.genesys.syscall_retries
            == system.genesys.max_syscall_retries
        )
        assert check_invariants(system) == []
