"""The paper's Section-IV stateful-syscall caveat, demonstrated.

"Some of these system calls, like read, write, lseek, are stateful ...
the current value of the file pointer determines what value is read or
written ... This can be arbitrary if invoked at work-item or work-group
granularity for the same file descriptor because many work-items/
work-groups can execute concurrently."

These tests show the race really happens in the model — concurrent
plain writes through one fd clobber each other — and that the two
POSIX-sanctioned remedies work: position-absolute pwrite, and O_APPEND
atomic appends.
"""

from repro.core.invocation import Granularity, Ordering
from repro.machine import small_machine
from repro.oskernel.fs import O_APPEND, O_RDWR
from repro.system import System

NUM_GROUPS = 8
RECORD = 16


def run_writer_kernel(open_flags: int, use_pwrite: bool):
    """8 work-groups each write one distinct 16-byte record through a
    single shared fd; returns the resulting file contents."""
    system = System(config=small_machine())
    system.kernel.fs.create_file("/tmp/out", b"")
    host = system.host

    def host_open():
        fd = yield from system.kernel.call(host, "open", "/tmp/out", open_flags)
        return fd

    fd = system.sim.run_process(host_open())
    bufs = []
    for group in range(NUM_GROUPS):
        buf = system.memsystem.alloc_buffer(RECORD)
        buf.data[:] = bytes([65 + group]) * RECORD
        bufs.append(buf)

    def kern(ctx):
        buf = bufs[ctx.group_id]
        if use_pwrite:
            yield from ctx.sys.pwrite(
                fd, buf, RECORD, RECORD * ctx.group_id,
                granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED,
            )
        else:
            yield from ctx.sys.write(
                fd, buf, RECORD,
                granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED,
            )

    def body():
        yield system.launch(kern, NUM_GROUPS * 8, 8)

    system.run_to_completion(body())
    return system.kernel.fs.read_whole("/tmp/out")


def expected_records():
    return {bytes([65 + g]) * RECORD for g in range(NUM_GROUPS)}


class TestStatefulWriteRace:
    def test_plain_write_loses_records(self):
        """Concurrent stateful writes through one fd clobber each other
        (the exact hazard Section IV warns about)."""
        content = run_writer_kernel(O_RDWR, use_pwrite=False)
        # Fewer bytes than written records survive: the offset raced.
        assert len(content) < NUM_GROUPS * RECORD

    def test_pwrite_is_race_free(self):
        """Position-absolute pwrite is the paper's recommended fix."""
        content = run_writer_kernel(O_RDWR, use_pwrite=True)
        assert len(content) == NUM_GROUPS * RECORD
        records = {content[i * RECORD : (i + 1) * RECORD] for i in range(NUM_GROUPS)}
        assert records == expected_records()

    def test_o_append_is_atomic(self):
        """POSIX O_APPEND appends atomically even with concurrent
        writers — every record lands exactly once."""
        content = run_writer_kernel(O_RDWR | O_APPEND, use_pwrite=False)
        assert len(content) == NUM_GROUPS * RECORD
        records = {content[i * RECORD : (i + 1) * RECORD] for i in range(NUM_GROUPS)}
        assert records == expected_records()

    def test_append_order_is_scheduling_dependent_but_complete(self):
        """The order of atomic appends is nondeterministic in principle;
        completeness is guaranteed."""
        content = run_writer_kernel(O_RDWR | O_APPEND, use_pwrite=False)
        seen = [content[i * RECORD] for i in range(NUM_GROUPS)]
        assert sorted(seen) == [65 + g for g in range(NUM_GROUPS)]
