"""Unit tests for UDP networking and real-time signal queues."""

import pytest

from repro.machine import MachineConfig
from repro.oskernel.errors import Errno, OsError
from repro.oskernel.net import Network
from repro.oskernel.signals import SIGRTMIN, SigInfo, SignalQueue
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim, MachineConfig())


class TestNetwork:
    def test_send_and_receive(self, sim, net):
        server = net.socket()
        server.bind(9000)
        client = net.socket()

        def body():
            yield from net.sendto(client, b"hello", ("localhost", 9000))
            payload, source = yield from net.recvfrom(server, 64)
            return payload, source

        payload, source = sim.run_process(body())
        assert payload == b"hello"
        assert source[1] == client.port

    def test_latency_charged(self, sim, net):
        server = net.socket()
        server.bind(9001)
        client = net.socket()

        def body():
            yield from net.sendto(client, b"x", ("localhost", 9001))

        sim.run_process(body())
        assert sim.now >= net.config.nic_latency_ns

    def test_bind_conflict(self, net):
        first = net.socket()
        first.bind(9002)
        second = net.socket()
        with pytest.raises(OsError) as exc:
            second.bind(9002)
        assert exc.value.errno is Errno.EADDRINUSE

    def test_ephemeral_port_assigned_on_send(self, sim, net):
        server = net.socket()
        server.bind(9003)
        client = net.socket()
        assert client.port is None

        def body():
            yield from net.sendto(client, b"x", ("localhost", 9003))

        sim.run_process(body())
        assert client.port >= Network.EPHEMERAL_BASE

    def test_unroutable_datagram_dropped(self, sim, net):
        client = net.socket()

        def body():
            sent = yield from net.sendto(client, b"x", ("localhost", 4444))
            return sent

        assert sim.run_process(body()) == 1  # UDP reports bytes sent anyway
        assert net.packets_dropped == 1

    def test_recv_blocks_until_arrival(self, sim, net):
        server = net.socket()
        server.bind(9004)
        client = net.socket()

        def receiver():
            payload, _ = yield from net.recvfrom(server, 64)
            return sim.now, payload

        def sender():
            yield 5000
            yield from net.sendto(client, b"late", ("localhost", 9004))

        recv = sim.process(receiver())
        sim.process(sender())
        sim.run()
        when, payload = recv.result
        assert payload == b"late"
        assert when >= 5000

    def test_truncation_to_bufsize(self, sim, net):
        server = net.socket()
        server.bind(9005)
        client = net.socket()

        def body():
            yield from net.sendto(client, b"0123456789", ("localhost", 9005))
            payload, _ = yield from net.recvfrom(server, 4)
            return payload

        assert sim.run_process(body()) == b"0123"

    def test_closed_socket_rejected(self, sim, net):
        sock = net.socket()
        net.close(sock)

        def body():
            yield from net.sendto(sock, b"x", ("localhost", 1))

        with pytest.raises(OsError) as exc:
            sim.run_process(body())
        assert exc.value.errno is Errno.EBADF

    def test_fifo_delivery_order(self, sim, net):
        server = net.socket()
        server.bind(9006)
        client = net.socket()

        def body():
            for i in range(5):
                yield from net.sendto(client, b"%d" % i, ("localhost", 9006))
            out = []
            for _ in range(5):
                payload, _ = yield from net.recvfrom(server, 8)
                out.append(payload)
            return out

        assert sim.run_process(body()) == [b"0", b"1", b"2", b"3", b"4"]


class TestSignals:
    def test_queue_and_wait(self, sim):
        queue = SignalQueue(sim, pid=1)
        queue.queue(SigInfo(SIGRTMIN, 42, sender_pid=2))

        def body():
            info = yield from queue.sigwaitinfo()
            return info

        info = sim.run_process(body())
        assert (info.signo, info.value, info.sender_pid) == (SIGRTMIN, 42, 2)

    def test_wait_blocks(self, sim):
        queue = SignalQueue(sim, pid=1)

        def waiter():
            info = yield from queue.sigwaitinfo()
            return sim.now, info.value

        def sender():
            yield 100
            queue.queue(SigInfo(SIGRTMIN, 7, 0))

        proc = sim.process(waiter())
        sim.process(sender())
        sim.run()
        assert proc.result == (100, 7)

    def test_fifo_order(self, sim):
        queue = SignalQueue(sim, pid=1)
        for i in range(3):
            queue.queue(SigInfo(SIGRTMIN + i, i, 0))

        def body():
            values = []
            for _ in range(3):
                info = yield from queue.sigwaitinfo()
                values.append(info.value)
            return values

        assert sim.run_process(body()) == [0, 1, 2]

    def test_non_realtime_signo_rejected(self, sim):
        queue = SignalQueue(sim, pid=1)
        with pytest.raises(OsError) as exc:
            queue.queue(SigInfo(9, 0, 0))  # SIGKILL is not queueable
        assert exc.value.errno is Errno.EINVAL

    def test_queue_limit(self, sim):
        queue = SignalQueue(sim, pid=1, limit=2)
        queue.queue(SigInfo(SIGRTMIN, 0, 0))
        queue.queue(SigInfo(SIGRTMIN, 1, 0))
        with pytest.raises(OsError) as exc:
            queue.queue(SigInfo(SIGRTMIN, 2, 0))
        assert exc.value.errno is Errno.EAGAIN

    def test_counters(self, sim):
        queue = SignalQueue(sim, pid=1)
        queue.queue(SigInfo(SIGRTMIN, 0, 0))
        assert queue.delivered == 1 and queue.consumed == 0

        def body():
            yield from queue.sigwaitinfo()

        sim.run_process(body())
        assert queue.consumed == 1
        assert queue.pending() == 0
