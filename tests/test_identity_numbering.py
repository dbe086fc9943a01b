"""Identity numbers belong to the machine that hands them out.

Pids come from the ``LinuxKernel``, inode numbers from the
``FileSystem``, socket ids from the ``Network`` and kernel ids from the
``Gpu``.  So a new ``System`` numbers the same way whatever ran before
it in the process, and two live machines never share a counter.
"""

import itertools

import pytest

from repro.gpu.ops import Compute
from repro.serving.sweep import ServingConfig, build_target, run_point_on
from repro.system import System


def _pid(system):
    return system.kernel.create_process("probe").pid


_paths = itertools.count()


def _inode(system):
    return system.kernel.fs.create_file(f"/tmp/probe{next(_paths)}").ino


def _socket(system):
    return system.kernel.net.socket().sock_id


def _kernel(system):
    def kern(ctx):
        yield Compute(1)

    launched = {}

    def body():
        launched["kernel"] = yield system.launch(kern, 1, 1)

    system.run_to_completion(body())
    return launched["kernel"].kernel_id


#: Each hands out one fresh identity number of its kind on a System.
KINDS = {"pid": _pid, "inode": _inode, "socket": _socket, "kernel": _kernel}


def _serve_memcached():
    """Run a small memcached serving point: it creates processes,
    files, sockets and GPU kernels on its own machine."""
    config = ServingConfig(
        num_clients=16, warmup_ns=20_000.0, measure_ns=60_000.0,
        elems_per_bucket=16, value_bytes=64,
    )
    system, workload = build_target(config)
    point = run_point_on(system, workload, config, 60_000)
    assert point["lifecycle"]["completed"] > 0
    return system


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_machine_built_after_serving_numbers_from_the_start(kind):
    number = KINDS[kind]
    before = number(System())
    served = _serve_memcached()
    # The serving machine really did consume numbers of this kind.
    assert number(served) > before
    assert number(System()) == before


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_live_machines_number_independently(kind):
    number = KINDS[kind]
    first, second = System(), System()
    a1 = number(first)
    a2 = number(first)
    assert a2 == a1 + 1
    assert number(second) == a1
    assert number(second) == a2


def test_numbering_starts_where_linux_and_the_gpu_start():
    system = System()
    assert system.host.pid == 100
    assert _pid(system) == 101
    assert _socket(system) == 0
    assert _kernel(system) == 0
    assert _kernel(system) == 1
    # Inode 1 is the root directory of every machine's filesystem.
    assert system.kernel.fs.root.ino == 1
