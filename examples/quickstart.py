#!/usr/bin/env python
"""Quickstart: invoke POSIX system calls directly from GPU kernel code.

Builds the simulated machine, writes a file into the in-memory
filesystem, and launches a GPU kernel whose work-items read it back with
``pread`` and append a summary line with a work-group-granularity
``write`` — the end-to-end path of the paper's Figure 2.

Run:  python examples/quickstart.py
"""

from repro import Granularity, Ordering, System, WaitMode
from repro.oskernel.fs import O_RDONLY


def main() -> None:
    system = System()
    fs = system.kernel.fs

    # Host side: stage an input file (tmpfs, like the paper's Figure 7).
    payload = b"".join(b"record-%04d|" % i for i in range(512))
    fs.create_file("/tmp/input.dat", payload)

    record = 13  # bytes per record
    buffers = [system.memsystem.alloc_buffer(record) for _ in range(64)]
    seen = []

    def kern(ctx):
        # Every work-group opens the file once (one syscall for the
        # whole group; relaxed ordering, the result is broadcast).
        fd = yield from ctx.sys.open(
            "/tmp/input.dat", O_RDONLY,
            granularity=Granularity.WORK_GROUP,
            ordering=Ordering.RELAXED,
        )
        # Every work-item preads its own record — position-absolute, so
        # per-work-item invocation is safe (Section V-A).
        buf = buffers[ctx.global_id]
        n = yield from ctx.sys.pread(
            fd, buf, record, record * ctx.global_id,
            granularity=Granularity.WORK_ITEM,
            wait=WaitMode.HALT_RESUME,
        )
        assert n == record
        seen.append(bytes(buf.data))
        # One summary write per work-group, non-blocking: the group does
        # not care when the console write completes.
        line = system.memsystem.alloc_buffer(32)
        text = b"group %d done\n" % ctx.group_id
        line.data[: len(text)] = text
        yield from ctx.sys.write(
            1, line, len(text),
            granularity=Granularity.WORK_GROUP,
            ordering=Ordering.RELAXED,
            blocking=False,
        )
        yield from ctx.sys.close(
            fd, granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED
        )

    def host():
        yield system.launch(kern, global_size=64, workgroup_size=16)

    system.run_to_completion(host())

    assert sorted(seen) == sorted(
        payload[i * record : (i + 1) * record] for i in range(64)
    )
    print(f"GPU read {len(seen)} records correctly via pread")
    print(f"simulated time: {system.now / 1e6:.3f} ms")
    print("console output from the GPU:")
    for line in system.kernel.terminal.lines:
        print(f"  {line}")
    stats = system.genesys.stats()
    print(f"syscalls completed: {stats['syscalls_completed']}")
    print(f"interrupts sent:    {stats['interrupts_sent']}")
    print(f"per-call counts:    {stats['syscall_counts']}")


if __name__ == "__main__":
    main()
