"""Bounded UDP receive queues: drops, counters, and the backlog probe.

Historically a socket's receive queue grew without limit and overload
drops were invisible.  ``UdpSocket.rx_capacity`` bounds it, drops are
counted per socket and globally (surfaced via ``Network.stats()`` and
``Genesys.stats()['net']``), and the ``net.backlog`` tracepoint reports
queue depth after every enqueue.
"""

from repro.faults import FaultInjector, FaultPlan
from repro.system import System


def _spray(system, dest, count, payload=b"x" * 16):
    net = system.kernel.net
    sender = net.socket()

    def body():
        for _ in range(count):
            yield from net.sendto(sender, payload, dest)

    system.sim.run_process(body(), name="spray")
    return sender


def test_default_receive_queue_is_unbounded():
    system = System()
    net = system.kernel.net
    server = net.socket()
    net.bind(server, 5000)
    _spray(system, ("localhost", 5000), 100)
    assert server.rx_capacity is None
    assert len(server.queue) == 100
    assert server.rx_dropped == 0
    assert net.stats()["rx_queue_drops"] == 0
    assert net.stats()["rx_backlog_peak"] == 100


def test_bounded_queue_drops_and_counts():
    system = System()
    net = system.kernel.net
    server = net.socket()
    net.bind(server, 5000)
    server.rx_capacity = 8
    _spray(system, ("localhost", 5000), 20)
    assert len(server.queue) == 8
    assert server.rx_dropped == 12
    stats = net.stats()
    assert stats["rx_queue_drops"] == 12
    assert stats["packets_dropped"] == 12
    assert stats["packets_sent"] == 20
    # The bound held: depth never exceeded capacity.
    assert stats["rx_backlog_peak"] == 8


def test_backlog_tracepoint_reports_depth():
    system = System()
    net = system.kernel.net
    depths = []
    system.probes.attach("net.backlog", lambda depth, sock_id: depths.append(depth))
    drops = []
    system.probes.attach("net.drop", lambda reason, sock_id: drops.append(reason))
    server = net.socket()
    net.bind(server, 5000)
    server.rx_capacity = 3
    _spray(system, ("localhost", 5000), 5)
    assert depths == [1, 2, 3]
    assert drops == ["backlog", "backlog"]


def test_backlog_depth_zero_when_receiver_waits():
    """A blocked receiver consumes the datagram straight from the Store:
    the queue never grows, so the reported depth is 0."""
    system = System()
    kernel = system.kernel
    net = system.kernel.net
    depths = []
    system.probes.attach("net.backlog", lambda depth, sock_id: depths.append(depth))
    proc = kernel.create_process("rx")
    got = []

    def receiver():
        fd = yield from kernel.call(proc, "socket")
        yield from kernel.call(proc, "bind", fd, 5001)
        buf = system.memsystem.alloc_buffer(64)
        n, _src = yield from kernel.call(proc, "recvfrom", fd, buf, buf.size)
        got.append(bytes(buf.data[:n]))

    rx = system.sim.process(receiver(), name="rx")
    _spray(system, ("localhost", 5001), 1, payload=b"hello")
    system.sim.run()
    assert got == [b"hello"]
    assert depths == [0]
    assert rx.completion.triggered


def test_genesys_stats_surface_net_counters():
    system = System()
    stats = system.genesys.stats()
    assert stats["net"] == {
        "packets_sent": 0,
        "packets_dropped": 0,
        "rx_queue_drops": 0,
        "rx_backlog_peak": 0,
        "drops": {"capacity": 0, "policy": 0, "expired": 0},
        "reject_frames": 0,
    }


def test_faulted_duplicate_delivery_respects_bound():
    """The dup-fault path goes through the same bounded delivery."""
    system = System()
    net = system.kernel.net
    server = net.socket()
    net.bind(server, 5000)
    server.rx_capacity = 1
    FaultInjector(FaultPlan(net_dup=1.0), system)
    _spray(system, ("localhost", 5000), 2)
    assert len(server.queue) == 1
    assert server.rx_dropped == 3  # 1 dup + 1 original + 1 dup of it
