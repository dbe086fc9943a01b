"""Per-work-item objects are freed by reference counting.

The suite builds about 196k work-item contexts and device APIs per pass.
A device API that refers back to its context or wavefront makes every
work-item a reference cycle (context -> device API -> context, or
wavefront -> lane -> context -> device API -> wavefront), and reclaiming
those costs the cyclic collector about a sixth of the suite.  This test
pins that a retired wavefront and everything it built die the moment it
retires.
"""

import gc


from repro.core.device_api import DeviceApi, _SlotOps
from repro.core.invocation import Granularity, Ordering, WaitMode
from repro.gpu.hierarchy import WorkItemCtx
from repro.gpu.wavefront import Wavefront, _Lane
from repro.machine import small_machine
from repro.oskernel.fs import O_RDWR
from repro.system import System
from tests.test_machine_lifetime import collector_off  # noqa: F401 - a fixture

PER_WORK_ITEM = (WorkItemCtx, _Lane, DeviceApi, _SlotOps, Wavefront)


def census(objects):
    counts = {kind.__name__: 0 for kind in PER_WORK_ITEM}
    for obj in objects:
        if type(obj) in PER_WORK_ITEM:
            counts[type(obj).__name__] += 1
    return counts


def every_kind_of_call(buf):
    def kern(ctx):
        sys = ctx.sys
        fd = yield from sys.open("/tmp/f", O_RDWR)
        yield from sys.pread(fd, buf, 8, 0, granularity=Granularity.WORK_GROUP)
        yield from sys.pread(
            fd, buf, 8, 0, granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED
        )
        yield from sys.getrusage(granularity=Granularity.KERNEL, ordering=Ordering.RELAXED)
        yield from sys.pwrite(fd, buf, 8, 0, blocking=False)
        yield from sys.pread(fd, buf, 8, 0, wait=WaitMode.HALT_RESUME)

    return kern


def test_retired_work_items_leave_nothing_for_the_collector(collector_off):
    system = System(config=small_machine())
    system.kernel.fs.create_file("/tmp/f", bytes(64))
    buf = system.memsystem.alloc_buffer(64)
    before = census(gc.get_objects())

    system.run_kernel(every_kind_of_call(buf), 256, 64)

    invocations = system.genesys.stats()["invocations"]
    assert all(invocations.values()), invocations
    assert system.gpu.wavefront_stats["wavefronts"] == 256 // system.config.wavefront_width
    assert census(gc.get_objects()) == before
    gc.collect()
    assert census(gc.garbage) == census(())
