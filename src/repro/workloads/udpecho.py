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

from repro.gpu.ops import Compute
from repro.system import System
from repro.workloads.memcachedwl import SERVE_STOP, WG_OPTS, serve_stream

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
        """GPU serving loop: recvfrom -> echo -> sendto per work-group
        (see :func:`~repro.workloads.memcachedwl.serve_stream`)."""
        system = self.system
        bufsize = max(64, self.payload_bytes)

        def server_kernel(ctx) -> Generator:
            fd, served = ctx.args
            shared = ctx.group.shared
            if "buf" not in shared:
                shared["buf"] = system.memsystem.alloc_buffer(bufsize)
            buf = shared["buf"]
            while True:
                got = yield from ctx.sys.recvfrom(fd, buf, buf.size, **WG_OPTS)
                if not isinstance(got, tuple):
                    # A shed or reclaimed recvfrom surfaces as a negative
                    # errno (QoS deadline, watchdog): keep serving.
                    continue
                n, src = got
                if bytes(buf.data[:n]) == SERVE_STOP:
                    return
                yield Compute(ECHO_CYCLES)
                if ctx.is_group_leader:
                    served[ctx.group_id] += 1
                yield from ctx.sys.sendto(fd, buf, n, src, **WG_OPTS)

        return serve_stream(
            system, "echo-serve", ECHO_PORT, server_kernel, driver,
            num_workgroups, workgroup_size, rx_backlog,
        )
