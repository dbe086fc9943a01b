"""UDP echo served by GPU work-groups over GENESYS syscalls.

The minimal network workload: each request datagram is echoed back to
its sender unmodified.  With no table scan in the way, service time is
pure syscall-stack cost (recvfrom + sendto at work-group granularity),
which makes it the floor against which memcached's per-request compute
is judged — and a fast target for the serving harness's RPS sweeps.

Wire framing matches :mod:`repro.workloads.memcachedwl`'s serving mode:
requests are ``b"Q" + reqid(8B) + padding``; the echo reply is the whole
payload, so clients match on the request id at bytes ``[1:9]`` either
way.  A bare ``b"STOP"`` datagram terminates one work-group's loop.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.core.invocation import Granularity, Ordering, WaitMode
from repro.gpu.ops import Compute
from repro.system import System
from repro.workloads.memcachedwl import SERVE_STOP

#: Per-request touch-up cost on the GPU (cycles) — checksum-ish work so
#: the kernel is not literally zero compute between syscalls.
ECHO_CYCLES = 16.0
ECHO_PORT = 7007


class UdpEchoWorkload:
    """Echo server on GENESYS work-group loops.  It serves an external
    (open-loop) client stream until every server loop has consumed a
    STOP datagram."""

    def __init__(self, system: System, payload_bytes: int = 64):
        self.system = system
        self.payload_bytes = payload_bytes

    def serve_genesys(
        self,
        driver: Generator,
        num_workgroups: int = 8,
        workgroup_size: int = 64,
        rx_backlog: Optional[int] = None,
    ) -> Dict[str, object]:
        """GPU serving loop: recvfrom -> echo -> sendto per work-group.

        ``driver`` is the load-generating process body (see
        ``MemcachedWorkload.serve_genesys`` for the contract); when it
        returns, one STOP per work-group shuts the kernel down.
        """
        system = self.system
        kernel = system.kernel
        server = kernel.create_process("echo-serve")
        served = [0] * num_workgroups
        wg_opts = dict(
            granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED,
            blocking=True, wait=WaitMode.POLL,
        )
        bufsize = max(64, self.payload_bytes)

        def server_kernel(ctx) -> Generator:
            fd = ctx.args[0]
            shared = ctx.group.shared
            if "buf" not in shared:
                shared["buf"] = system.memsystem.alloc_buffer(bufsize)
            buf = shared["buf"]
            while True:
                n, src = yield from ctx.sys.recvfrom(fd, buf, buf.size, **wg_opts)
                if bytes(buf.data[:n]) == SERVE_STOP:
                    return
                yield Compute(ECHO_CYCLES)
                if ctx.is_group_leader:
                    served[ctx.group_id] += 1
                yield from ctx.sys.sendto(fd, buf, n, src, **wg_opts)

        def main() -> Generator:
            fd = yield from kernel.call(server, "socket")
            yield from kernel.call(server, "bind", fd, ECHO_PORT)
            if rx_backlog is not None:
                kernel._socket_for(server, fd).rx_capacity = rx_backlog
            system.genesys.host_process = server
            launch = system.launch(
                server_kernel,
                global_size=num_workgroups * workgroup_size,
                workgroup_size=workgroup_size,
                args=(fd,),
                name="echo-serve-kernel",
            )
            yield system.sim.process(driver, name="serving-driver")
            kernel._socket_for(server, fd).rx_capacity = None
            ctl = yield from kernel.call(server, "socket")
            stop = system.memsystem.alloc_buffer(len(SERVE_STOP))
            stop.data[:] = SERVE_STOP
            for _ in range(num_workgroups):
                yield from kernel.call(
                    server, "sendto", ctl, stop, len(SERVE_STOP),
                    ("localhost", ECHO_PORT),
                )
            yield launch
            yield from kernel.call(server, "close", ctl)
            yield from kernel.call(server, "close", fd)

        system.run_to_completion(main(), name="udpecho-serve")
        return {"served": sum(served), "served_per_group": list(served)}
