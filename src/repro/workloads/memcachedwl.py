"""UDP memcached with GPU-served GETs (Section VIII-D, Figure 15).

A binary-ish UDP memcached supporting SET and GET over a fixed-size
hash table shared between CPU and GPU.  GPUs accelerate GETs by
parallelising the bucket scan across a work-group's lanes — the win
grows with bucket occupancy (the paper reports 30-40% latency and
throughput gains at 1024 elements/bucket with 1KB values).  No RDMA is
assumed: everything rides ``sendto``/``recvfrom``.

Variants:

* ``cpu`` — 4 server threads: recvfrom, serial bucket scan, sendto.
* ``gpu-nosyscall`` — the CPU receives requests and launches a lookup
  kernel per small batch, then sends replies (no direct GPU I/O).
* ``genesys`` — a GPU kernel whose work-groups loop
  recvfrom → parallel scan → sendto at work-group granularity.

Clients are closed-loop: ``concurrency`` outstanding requests, so
throughput and latency are linked the way a fixed client pool links
them.  Payloads are real bytes; lookups return the actual stored values.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core.invocation import Granularity, Ordering, WaitMode
from repro.gpu.ops import Compute, MemRead
from repro.system import System
from repro.workloads.base import DeterministicRandom, WorkloadResult, shared_input

#: Per-element key-compare costs (pointer-chasing on CPU; per-lane GPU).
CPU_COMPARE_NS_PER_ELEM = 70.0
GPU_COMPARE_CYCLES_PER_ELEM = 12.0
SERVER_PORT = 11211

#: Serving-mode wire framing (shared with :mod:`repro.serving.clients`):
#: requests are ``b"Q" + reqid + b"GET " + key``, replies are
#: ``b"R" + reqid + value`` where ``reqid`` is 8 bytes big-endian.  A
#: bare ``b"STOP"`` datagram terminates one server work-group's loop.
SERVE_REQID_BYTES = 8
SERVE_HDR_BYTES = 1 + SERVE_REQID_BYTES
SERVE_STOP = b"STOP"

#: Syscall options of every GENESYS server loop: blocking, relaxed
#: work-group calls that poll for completion.
WG_OPTS: Dict[str, Any] = dict(
    granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED,
    blocking=True, wait=WaitMode.POLL,
)


def serve_stream(
    system: System,
    name: str,
    port: int,
    server_kernel: Callable[[Any], Generator],
    driver: Generator,
    num_workgroups: int,
    workgroup_size: int,
    rx_backlog: Optional[int],
) -> Dict[str, object]:
    """Serve an externally generated request stream until it ends.

    Binds a server socket to ``port`` and launches ``server_kernel``
    with ``(fd, served)`` as its args: every work-group loops
    recvfrom -> work -> sendto, counts each request its leader serves
    in ``served[group_id]``, and returns once it consumes a
    ``SERVE_STOP`` datagram.  ``driver`` is a process body, typically
    :mod:`repro.serving`'s client fleet, that owns the load: it is
    started once the socket is bound and the kernel launched, and when
    it returns the server posts exactly one STOP per work-group and
    joins the kernel.

    ``rx_backlog`` bounds the server socket's receive queue (see
    ``UdpSocket.rx_capacity``) so overload drops instead of queueing
    without limit; the bound is lifted for the STOP datagrams so
    shutdown cannot be dropped.
    """
    kernel = system.kernel
    server = kernel.create_process(name)
    served = [0] * num_workgroups

    def main() -> Generator:
        fd = yield from kernel.call(server, "socket")
        yield from kernel.call(server, "bind", fd, port)
        if rx_backlog is not None:
            kernel._socket_for(server, fd).rx_capacity = rx_backlog
        # Route GPU syscalls through the server process's fd table.
        system.genesys.host_process = server
        launch = system.launch(
            server_kernel,
            global_size=num_workgroups * workgroup_size,
            workgroup_size=workgroup_size,
            args=(fd, served),
            name=f"{name}-kernel",
        )
        yield system.sim.process(driver, name="serving-driver")
        # The stream is over: lift the backlog bound so the STOPs
        # cannot be dropped, then stop each work-group.  Each group
        # consumes exactly one STOP (it returns immediately after), so
        # num_workgroups STOPs terminate all of them.
        kernel._socket_for(server, fd).rx_capacity = None
        ctl = yield from kernel.call(server, "socket")
        stop = system.memsystem.alloc_buffer(len(SERVE_STOP))
        stop.data[:] = SERVE_STOP
        for _ in range(num_workgroups):
            yield from kernel.call(
                server, "sendto", ctl, stop, len(SERVE_STOP), ("localhost", port)
            )
        yield launch
        yield from kernel.call(server, "close", ctl)
        yield from kernel.call(server, "close", fd)

    system.run_to_completion(main(), name=name)
    return {"served": sum(served), "served_per_group": list(served)}


def bucket_index(key: bytes, num_buckets: int) -> int:
    return zlib.crc32(key) % num_buckets


def table_contents(
    num_buckets: int, elems_per_bucket: int, value_bytes: int, seed: int
) -> Tuple[Tuple[Tuple[Tuple[bytes, bytes], ...], ...], Tuple[bytes, ...]]:
    """A filled table: ``(buckets, keys)``, every bucket a tuple of
    ``elems_per_bucket`` ``(key, value)`` pairs in insertion order and
    ``keys`` the first fill phase's keys."""
    rng = DeterministicRandom(seed)
    buckets: List[List[Tuple[bytes, bytes]]] = [[] for _ in range(num_buckets)]
    keys: List[bytes] = []
    total = num_buckets * elems_per_bucket
    if value_bytes % 8 == 0:
        # Exactly ``total`` values are drawn across both fill phases,
        # and 8-aligned draws waste no PRNG tail bytes — so one bulk
        # draw sliced sequentially yields the identical value stream
        # far faster than per-element calls.
        pool = rng.bytes(total * value_bytes)
        offsets = iter(range(0, total * value_bytes, value_bytes))
        next_value = lambda: pool[(o := next(offsets)) : o + value_bytes]
    else:
        next_value = lambda: rng.bytes(value_bytes)
    count = 0
    while count < total:
        key = b"key%08d" % count
        bucket = bucket_index(key, num_buckets)
        if len(buckets[bucket]) < elems_per_bucket:
            buckets[bucket].append((key, next_value()))
            keys.append(key)
        count += 1
    # Top up under-full buckets so occupancy is uniform.
    extra = count
    for index, bucket_list in enumerate(buckets):
        while len(bucket_list) < elems_per_bucket:
            key = b"alt%08d" % extra
            extra += 1
            if bucket_index(key, num_buckets) == index:
                bucket_list.append((key, next_value()))
    return tuple(map(tuple, buckets)), tuple(keys)


class HashTable:
    """Fixed-size bucketed table with real byte values."""

    def __init__(self, num_buckets: int, elems_per_bucket: int, value_bytes: int, seed: int):
        self.num_buckets = num_buckets
        self.value_bytes = value_bytes
        self._input = shared_input(
            table_contents, num_buckets, elems_per_bucket, value_bytes, seed
        )
        buckets, keys = self._input.value
        # ``set`` appends and replaces entries: each table owns its lists.
        self.buckets: List[List[Tuple[bytes, bytes]]] = list(map(list, buckets))
        self.keys: List[bytes] = list(keys)

    def bucket_of(self, key: bytes) -> int:
        return bucket_index(key, self.num_buckets)

    def get(self, key: bytes) -> Optional[bytes]:
        for k, v in self.buckets[self.bucket_of(key)]:
            if k == key:
                return v
        return None

    def get_with_position(self, key: bytes) -> Tuple[Optional[bytes], int]:
        """Value plus how many elements were compared (the scan cost)."""
        bucket = self.buckets[self.bucket_of(key)]
        for idx, (k, v) in enumerate(bucket):
            if k == key:
                return v, idx + 1
        return None, len(bucket)

    def set(self, key: bytes, value: bytes) -> bool:
        bucket = self.buckets[self.bucket_of(key)]
        for idx, (k, _v) in enumerate(bucket):
            if k == key:
                bucket[idx] = (key, value)
                return True
        bucket.append((key, value))
        return False

    def bucket_len(self, key: bytes) -> int:
        return len(self.buckets[self.bucket_of(key)])


class MemcachedWorkload:
    def __init__(
        self,
        system: System,
        num_buckets: int = 8,
        elems_per_bucket: int = 1024,
        value_bytes: int = 1024,
        num_requests: int = 64,
        concurrency: int = 8,
        seed: int = 23,
        request_keys: Optional[List[bytes]] = None,
    ):
        self.system = system
        self.table = HashTable(num_buckets, elems_per_bucket, value_bytes, seed)
        self.value_bytes = value_bytes
        self.concurrency = concurrency
        if request_keys is None:
            # Legacy path: draw uniformly from the table's keys.  The rng
            # construction and draw sequence are byte-for-byte what they
            # always were, so default runs replay identically.
            rng = DeterministicRandom(seed + 1)
            request_keys = [rng.choice(self.table.keys) for _ in range(num_requests)]
        else:
            request_keys = list(request_keys)
            num_requests = len(request_keys)
        self.num_requests = num_requests
        self.request_keys: List[bytes] = request_keys
        self.latencies: List[float] = []

    # -- client ------------------------------------------------------------------

    def _client(self, proc, requests: List[bytes], replies: Dict[bytes, bytes]) -> Generator:
        system = self.system
        kernel = system.kernel
        fd = yield from kernel.call(proc, "socket")
        sendbuf = system.memsystem.alloc_buffer(64)
        recvbuf = system.memsystem.alloc_buffer(self.value_bytes + 16)
        for key in requests:
            payload = b"GET " + key
            sendbuf.data[: len(payload)] = payload
            issued = system.now
            yield from kernel.call(
                proc, "sendto", fd, sendbuf, len(payload), ("localhost", SERVER_PORT)
            )
            n, _src = yield from kernel.call(proc, "recvfrom", fd, recvbuf, recvbuf.size)
            self.latencies.append(system.now - issued)
            replies[key] = bytes(recvbuf.data[:n])
        yield from kernel.call(proc, "close", fd)

    def _run_clients(self, replies: Dict[bytes, bytes]) -> List:
        system = self.system
        shards = [self.request_keys[i :: self.concurrency] for i in range(self.concurrency)]
        procs = []
        for i, shard in enumerate(shards):
            proc = system.kernel.create_process(f"mc-client{i}")
            procs.append(system.sim.process(self._client(proc, shard, replies), name=f"mc-c{i}"))
        return procs

    def _result(self, variant: str, start: float, replies: Dict[bytes, bytes]) -> WorkloadResult:
        system = self.system
        elapsed = system.now - start
        lat = sorted(self.latencies)
        n = len(lat)
        return WorkloadResult(
            "memcached",
            variant,
            elapsed,
            {
                "replies": replies,
                "mean_latency_ns": sum(lat) / n if n else 0.0,
                "p99_latency_ns": lat[min(n - 1, int(0.99 * n))] if n else 0.0,
                "throughput_rps": n / (elapsed / 1e9) if elapsed else 0.0,
            },
        )

    # -- CPU server ------------------------------------------------------------------

    def run_cpu(self, server_threads: int = 4) -> WorkloadResult:
        system = self.system
        kernel = system.kernel
        table = self.table
        server = kernel.create_process("mc-server")
        replies: Dict[bytes, bytes] = {}
        self.latencies = []
        start = system.now

        def server_thread(fd: int, quota: int) -> Generator:
            buf = system.memsystem.alloc_buffer(64)
            out = system.memsystem.alloc_buffer(self.value_bytes)
            for _ in range(quota):
                n, src = yield from kernel.call(server, "recvfrom", fd, buf, buf.size)
                key = bytes(buf.data[4:n])
                value, compared = table.get_with_position(key)
                yield from system.cpu.run(compared * CPU_COMPARE_NS_PER_ELEM)
                out.data[: len(value)] = value
                yield from kernel.call(server, "sendto", fd, out, len(value), src)

        def main() -> Generator:
            fd = yield from kernel.call(server, "socket")
            yield from kernel.call(server, "bind", fd, SERVER_PORT)
            quotas = [
                len(self.request_keys[i::server_threads]) for i in range(server_threads)
            ]
            servers = [
                system.sim.process(server_thread(fd, quotas[i]), name=f"mc-s{i}")
                for i in range(server_threads)
            ]
            clients = self._run_clients(replies)
            for p in servers + clients:
                yield p
            yield from kernel.call(server, "close", fd)

        system.run_to_completion(main(), name="memcached-cpu")
        return self._result("cpu", start, replies)

    # -- GPU without syscalls ------------------------------------------------------

    def run_gpu_nosyscall(self, batch: int = 4) -> WorkloadResult:
        system = self.system
        kernel = system.kernel
        table = self.table
        server = kernel.create_process("mc-server-nosys")
        replies: Dict[bytes, bytes] = {}
        self.latencies = []
        start = system.now
        staged: List[Tuple[bytes, tuple]] = []
        found: Dict[bytes, bytes] = {}

        def lookup_kernel(ctx) -> Generator:
            if ctx.group_id >= len(staged):
                return
            key, _src = staged[ctx.group_id]
            bucket_len = table.bucket_len(key)
            per_item = -(-bucket_len // ctx.group.size)
            yield Compute(per_item * GPU_COMPARE_CYCLES_PER_ELEM)
            if ctx.is_group_leader:
                found[key] = table.get(key)

        def main() -> Generator:
            fd = yield from kernel.call(server, "socket")
            yield from kernel.call(server, "bind", fd, SERVER_PORT)
            clients = self._run_clients(replies)
            buf = system.memsystem.alloc_buffer(64)
            out = system.memsystem.alloc_buffer(self.value_bytes)
            served = 0
            while served < self.num_requests:
                staged.clear()
                found.clear()
                want = min(batch, self.num_requests - served)
                for _ in range(want):
                    n, src = yield from kernel.call(server, "recvfrom", fd, buf, buf.size)
                    staged.append((bytes(buf.data[4:n]), src))
                yield system.launch(
                    lookup_kernel,
                    global_size=len(staged) * 64,
                    workgroup_size=64,
                    name="mc-lookup",
                )
                for key, src in staged:
                    value = found[key]
                    out.data[: len(value)] = value
                    yield from kernel.call(server, "sendto", fd, out, len(value), src)
                served += want
            for p in clients:
                yield p
            yield from kernel.call(server, "close", fd)

        system.run_to_completion(main(), name="memcached-nosys")
        return self._result("gpu-nosyscall", start, replies)

    # -- GENESYS: GPU-served GETs ---------------------------------------------------

    def run_genesys(self, num_workgroups: int = 8, workgroup_size: int = 64) -> WorkloadResult:
        system = self.system
        kernel = system.kernel
        table = self.table
        server = kernel.create_process("mc-server-gpu")
        replies: Dict[bytes, bytes] = {}
        self.latencies = []
        start = system.now
        quota = [
            len(self.request_keys[i::num_workgroups]) for i in range(num_workgroups)
        ]

        def server_kernel(ctx) -> Generator:
            fd = ctx.args[0]
            shared = ctx.group.shared
            if "rbuf" not in shared:
                shared["rbuf"] = system.memsystem.alloc_buffer(64)
                shared["obuf"] = system.memsystem.alloc_buffer(self.value_bytes)
            rbuf, obuf = shared["rbuf"], shared["obuf"]
            for _ in range(quota[ctx.group_id]):
                got = yield from ctx.sys.recvfrom(fd, rbuf, rbuf.size, **WG_OPTS)
                while not isinstance(got, tuple):
                    # A negative errno: fault plans inject them at
                    # dispatch, before the call runs, so a retry is side-
                    # effect free, and every lane sees the same published
                    # result and retries with it.
                    got = yield from ctx.sys.recvfrom(fd, rbuf, rbuf.size, **WG_OPTS)
                n, src = got
                key = bytes(rbuf.data[4:n])
                # Parallel bucket scan: each lane compares its share.
                bucket_len = table.bucket_len(key)
                per_item = -(-bucket_len // ctx.group.size)
                yield Compute(per_item * GPU_COMPARE_CYCLES_PER_ELEM)
                yield MemRead(obuf.addr, self.value_bytes)
                if ctx.is_group_leader:
                    value = table.get(key)
                    obuf.data[: len(value)] = value
                yield from ctx.sys.sendto(fd, obuf, self.value_bytes, src, **WG_OPTS)

        def main() -> Generator:
            fd = yield from kernel.call(server, "socket")
            yield from kernel.call(server, "bind", fd, SERVER_PORT)
            # Route GPU syscalls through the server process's fd table.
            system.genesys.host_process = server
            launch = system.launch(
                server_kernel,
                global_size=num_workgroups * workgroup_size,
                workgroup_size=workgroup_size,
                args=(fd,),
                name="mc-server-kernel",
            )
            clients = self._run_clients(replies)
            yield launch
            for p in clients:
                yield p
            yield from kernel.call(server, "close", fd)

        system.run_to_completion(main(), name="memcached-genesys")
        return self._result("genesys", start, replies)

    # -- GENESYS serving mode: external open-loop client stream --------------------

    def serve_genesys(
        self,
        driver: Generator,
        num_workgroups: int = 8,
        workgroup_size: int = 64,
        rx_backlog: Optional[int] = None,
    ) -> Dict[str, object]:
        """Serve an externally generated request stream until it ends
        (see :func:`serve_stream`).

        Unlike :meth:`run_genesys` (closed-loop, fixed per-group quota),
        every work-group loops recvfrom -> parallel scan -> sendto until
        it consumes a ``SERVE_STOP`` datagram.

        Wire framing: ``b"Q" + reqid + b"GET " + key`` in,
        ``b"R" + reqid + value`` out (``SERVE_HDR_BYTES`` header).
        Replies are fixed-size (header + ``value_bytes``) so every lane
        can issue the coalesced sendto without reading a length the
        group leader may not have published yet.
        """
        system = self.system
        table = self.table
        reply_bytes = SERVE_HDR_BYTES + self.value_bytes

        def server_kernel(ctx) -> Generator:
            fd, served = ctx.args
            shared = ctx.group.shared
            if "rbuf" not in shared:
                shared["rbuf"] = system.memsystem.alloc_buffer(64)
                shared["obuf"] = system.memsystem.alloc_buffer(reply_bytes)
            rbuf, obuf = shared["rbuf"], shared["obuf"]
            while True:
                got = yield from ctx.sys.recvfrom(fd, rbuf, rbuf.size, **WG_OPTS)
                if not isinstance(got, tuple):
                    # A shed or reclaimed recvfrom surfaces as a negative
                    # errno (QoS deadline, watchdog): keep serving.
                    continue
                n, src = got
                msg = bytes(rbuf.data[:n])
                if msg == SERVE_STOP:
                    return
                key = msg[SERVE_HDR_BYTES + 4 :]  # skip header + b"GET "
                bucket_len = table.bucket_len(key)
                per_item = -(-bucket_len // ctx.group.size)
                yield Compute(per_item * GPU_COMPARE_CYCLES_PER_ELEM)
                yield MemRead(obuf.addr, self.value_bytes)
                if ctx.is_group_leader:
                    value = table.get(key) or bytes(self.value_bytes)
                    reply = b"R" + msg[1:SERVE_HDR_BYTES] + value
                    obuf.data[: len(reply)] = reply
                    served[ctx.group_id] += 1
                yield from ctx.sys.sendto(fd, obuf, reply_bytes, src, **WG_OPTS)

        return serve_stream(
            system, "mc-serve", SERVER_PORT, server_kernel, driver,
            num_workgroups, workgroup_size, rx_backlog,
        )

    # -- concurrent SETs + GPU GETs ----------------------------------------------

    def run_concurrent_mixed(
        self, num_workgroups: int = 4, workgroup_size: int = 64, set_port: int = 11213
    ) -> WorkloadResult:
        """The paper's concurrency claim: while GPU work-groups serve
        GETs, a CPU thread concurrently handles SETs against the *same*
        hash table.  Each SET client re-GETs its key after the SET ack
        and must observe the new value (read-your-writes through the
        shared table)."""
        system = self.system
        kernel = system.kernel
        table = self.table
        server = kernel.create_process("mc-server-mixed")
        replies: Dict[bytes, bytes] = {}
        self.latencies = []
        start = system.now
        set_keys = self.table.keys[: len(self.request_keys) // 4 or 1]
        new_values = {
            key: bytes([0xA0 + i % 16]) * self.value_bytes
            for i, key in enumerate(set_keys)
        }
        observed_after_set: Dict[bytes, bytes] = {}

        quota = [
            len(self.request_keys[i::num_workgroups]) + len(set_keys[i::num_workgroups])
            for i in range(num_workgroups)
        ]

        def gpu_get_server(ctx) -> Generator:
            fd = ctx.args[0]
            shared = ctx.group.shared
            if "rbuf" not in shared:
                shared["rbuf"] = system.memsystem.alloc_buffer(64)
                shared["obuf"] = system.memsystem.alloc_buffer(self.value_bytes)
            rbuf, obuf = shared["rbuf"], shared["obuf"]
            for _ in range(quota[ctx.group_id]):
                n, src = yield from ctx.sys.recvfrom(fd, rbuf, rbuf.size, **WG_OPTS)
                key = bytes(rbuf.data[4:n])
                bucket_len = table.bucket_len(key)
                per_item = -(-bucket_len // ctx.group.size)
                yield Compute(per_item * GPU_COMPARE_CYCLES_PER_ELEM)
                if ctx.is_group_leader:
                    value = table.get(key) or b""
                    obuf.data[: len(value)] = value
                yield from ctx.sys.sendto(fd, obuf, self.value_bytes, src, **WG_OPTS)

        def cpu_set_server(set_fd: int) -> Generator:
            buf = system.memsystem.alloc_buffer(64 + self.value_bytes)
            ack = system.memsystem.alloc_buffer(2)
            ack.data[:] = b"OK"
            for _ in range(len(set_keys)):
                n, src = yield from kernel.call(server, "recvfrom", set_fd, buf, buf.size)
                payload = bytes(buf.data[:n])
                _, _, rest = payload.partition(b" ")
                key, _, value = rest.partition(b"=")
                yield from system.cpu.run(
                    table.bucket_len(key) * CPU_COMPARE_NS_PER_ELEM
                )
                table.set(key, value)
                yield from kernel.call(server, "sendto", set_fd, ack, 2, src)

        def set_then_get_client(key: bytes) -> Generator:
            proc = kernel.create_process(f"mc-setter-{key.decode()}")
            fd = yield from kernel.call(proc, "socket")
            payload = b"SET " + key + b"=" + new_values[key]
            sbuf = system.memsystem.alloc_buffer(len(payload))
            sbuf.data[:] = payload
            yield from kernel.call(
                proc, "sendto", fd, sbuf, len(payload), ("localhost", set_port)
            )
            rbuf = system.memsystem.alloc_buffer(self.value_bytes + 16)
            yield from kernel.call(proc, "recvfrom", fd, rbuf, rbuf.size)  # the ack
            # Now GET through the GPU: must observe the new value.
            get_payload = b"GET " + key
            sbuf.data[: len(get_payload)] = get_payload
            yield from kernel.call(
                proc, "sendto", fd, sbuf, len(get_payload), ("localhost", SERVER_PORT)
            )
            n, _src = yield from kernel.call(proc, "recvfrom", fd, rbuf, rbuf.size)
            observed_after_set[key] = bytes(rbuf.data[:n])
            yield from kernel.call(proc, "close", fd)

        def main() -> Generator:
            get_fd = yield from kernel.call(server, "socket")
            yield from kernel.call(server, "bind", get_fd, SERVER_PORT)
            set_fd = yield from kernel.call(server, "socket")
            yield from kernel.call(server, "bind", set_fd, set_port)
            system.genesys.host_process = server
            launch = system.launch(
                gpu_get_server,
                global_size=num_workgroups * workgroup_size,
                workgroup_size=workgroup_size,
                args=(get_fd,),
                name="mc-mixed-kernel",
            )
            setter_proc = system.sim.process(cpu_set_server(set_fd), name="set-server")
            workers = [
                system.sim.process(set_then_get_client(key), name=f"setter-{i}")
                for i, key in enumerate(set_keys)
            ]
            clients = self._run_clients(replies)
            yield launch
            yield setter_proc
            for p in workers + clients:
                yield p
            yield from kernel.call(server, "close", get_fd)
            yield from kernel.call(server, "close", set_fd)

        system.run_to_completion(main(), name="memcached-mixed")
        return WorkloadResult(
            "memcached",
            "concurrent-mixed",
            system.now - start,
            {
                "replies": replies,
                "sets": len(set_keys),
                "observed_after_set": observed_after_set,
                "new_values": new_values,
            },
        )

    def verify(self, replies: Dict[bytes, bytes]) -> bool:
        return all(replies.get(k) == self.table.get(k) for k in set(self.request_keys))
