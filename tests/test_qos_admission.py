"""Sojourn policing on the net ingress path: CoDel-style head-drop at
dequeue, fast-fail reject frames, drops-by-reason accounting, and the
dup-on-full-backlog counter fix."""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.oskernel.errors import Errno
from repro.oskernel.net import Datagram
from repro.system import System


def _frame(reqid: int, body: bytes = b"payload") -> bytes:
    """A serving-shaped request frame: b"Q" + 8-byte reqid + body."""
    return b"Q" + reqid.to_bytes(8, "little") + body


def _send(system, sender, dest, payloads):
    net = system.kernel.net

    def body():
        for payload in payloads:
            yield from net.sendto(sender, payload, dest)

    system.sim.run_process(body(), name="send")


class TestAdmissionIntegration:
    def _serving_pair(self, system, rx_capacity=64):
        net = system.kernel.net
        server = net.socket()
        net.bind(server, 5000)
        server.rx_capacity = rx_capacity
        client = net.socket()
        return server, client

    def test_no_reply_socket_means_silent_drop(self):
        """A policed datagram whose source is no longer bound gets no
        reject frame — the drop stays silent, without error."""
        system = System()
        net = system.kernel.net
        server, _ = self._serving_pair(system)
        stale = Datagram(_frame(3), ("localhost", 9999))  # source never bound
        net._reject(server, stale, int(Errno.EBUSY))
        assert net.stats()["policy_rejects"] == 0

    def test_sojourn_budget_head_drops_stale_datagrams(self):
        system = System()
        net = system.kernel.net
        server, client = self._serving_pair(system)
        net.sojourn_budget_ns = 1_000.0
        got = []

        def scenario():
            yield from net.sendto(client, _frame(7), ("localhost", 5000))
            yield 5_000.0  # the first datagram goes stale in the backlog
            yield from net.sendto(client, _frame(8), ("localhost", 5000))
            payload, source = yield from net.recvfrom(server, 4096)
            got.append(payload)

        system.sim.run_process(scenario(), name="sojourn")
        # recvfrom head-dropped the stale datagram and returned the fresh one.
        assert got == [_frame(8)]
        stats = net.stats()
        assert stats["drops"]["expired"] == 1
        assert stats["policy_rejects"] == 1
        reject = client.queue._items[0].payload
        assert reject[0] == ord("E")
        assert int.from_bytes(reject[1:9], "little") == 7
        assert reject[9] == int(Errno.ETIME)

    def test_sojourn_budget_ignores_unbounded_sockets(self):
        system = System()
        net = system.kernel.net
        server, client = self._serving_pair(system, rx_capacity=None)
        net.sojourn_budget_ns = 1_000.0
        got = []

        def scenario():
            yield from net.sendto(client, _frame(1), ("localhost", 5000))
            yield 5_000.0
            payload, _ = yield from net.recvfrom(server, 4096)
            got.append(payload)

        system.sim.run_process(scenario(), name="sojourn-unbounded")
        assert got == [_frame(1)]
        assert net.stats()["drops"]["expired"] == 0

    def test_sojourn_tracepoint_reports_queue_wait(self):
        system = System()
        net = system.kernel.net
        server, client = self._serving_pair(system)
        waits = []
        system.probes.attach(
            "net.sojourn", lambda sojourn_ns, sock_id: waits.append(sojourn_ns)
        )

        def scenario():
            yield from net.sendto(client, _frame(1), ("localhost", 5000))
            yield 2_500.0
            yield from net.recvfrom(server, 4096)

        system.sim.run_process(scenario(), name="sojourn-tp")
        assert len(waits) == 1
        assert waits[0] == pytest.approx(2_500.0)


class TestSojournBudget:
    """Where the budget cuts, what a policed sender is told, and who
    is told nothing."""

    SERVER = ("localhost", 5000)

    def _pair(self, system):
        net = system.kernel.net
        server = net.socket()
        net.bind(server, 5000)
        server.rx_capacity = 64
        return server, net.socket()

    def _late_send(self, system, client, reqid, after_ns=10_000.0):
        """Send a fresh frame ``after_ns`` from now, so a receiver whose
        backlog was all head-dropped still returns."""
        net = system.kernel.net

        def body():
            yield after_ns
            yield from net.sendto(client, _frame(reqid), self.SERVER)

        system.sim.process(body(), name="late-send")

    @pytest.mark.parametrize("budget_ns", [1_000.0, 20_000.0, 250_000.0])
    @pytest.mark.parametrize(
        "offset_ns, served", [(-1.0, True), (1.0, False)], ids=["inside", "past"]
    )
    def test_budget_is_the_longest_wait_served(self, budget_ns, offset_ns, served):
        system = System()
        net = system.kernel.net
        server, client = self._pair(system)
        net.sojourn_budget_ns = budget_ns
        waits, got = [], []
        system.probes.attach(
            "net.sojourn", lambda sojourn_ns, sock_id: waits.append(sojourn_ns)
        )

        def scenario():
            yield from net.sendto(client, _frame(7), self.SERVER)
            yield budget_ns + offset_ns
            self._late_send(system, client, 8)
            payload, _source = yield from net.recvfrom(server, 4096)
            got.append(payload)

        system.sim.run_process(scenario(), name="boundary")
        assert waits[0] == pytest.approx(budget_ns + offset_ns)
        assert got == [_frame(7) if served else _frame(8)]
        assert net.stats()["drops"]["expired"] == (0 if served else 1)

    @pytest.mark.parametrize("stale", [1, 3, 8])
    def test_every_stale_datagram_is_dropped_and_answered_in_order(self, stale):
        system = System()
        net = system.kernel.net
        server, client = self._pair(system)
        net.sojourn_budget_ns = 1_000.0
        got = []

        def scenario():
            for reqid in range(stale):
                yield from net.sendto(client, _frame(reqid), self.SERVER)
            yield 5_000.0
            self._late_send(system, client, 100)
            payload, _source = yield from net.recvfrom(server, 4096)
            got.append(payload)

        system.sim.run_process(scenario(), name="stale-backlog")
        assert got == [_frame(100)]
        stats = net.stats()
        assert stats["drops"] == {"capacity": 0, "policy": 0, "expired": stale}
        assert stats["policy_rejects"] == stale
        assert server.rx_dropped == stale
        # Reject frames are synthesised in the kernel, not sent on the link.
        assert stats["packets_sent"] == stale + 1
        rejects = [datagram.payload for datagram in client.queue._items]
        assert [int.from_bytes(r[1:9], "little") for r in rejects] == list(range(stale))
        assert {(r[0], r[9]) for r in rejects} == {(ord("E"), int(Errno.ETIME))}

    def _stale_recv(self, system, client, payload, before_recv=None):
        """Queue ``payload`` at the server, let it go stale, then receive
        a fresh frame behind it."""
        net = system.kernel.net
        server = net._bound[self.SERVER]
        net.sojourn_budget_ns = 1_000.0

        def scenario():
            yield from net.sendto(client, payload, self.SERVER)
            yield 5_000.0
            if before_recv is not None:
                before_recv()
            self._late_send(system, net.socket(), 9)
            yield from net.recvfrom(server, 4096)

        system.sim.run_process(scenario(), name="stale")

    def test_reject_frame_comes_from_the_policing_socket(self):
        system = System()
        _server, client = self._pair(system)
        self._stale_recv(system, client, _frame(5))
        (reject,) = client.queue._items
        assert reject.source == self.SERVER

    def test_short_payload_is_answered_with_a_zero_reqid(self):
        system = System()
        _server, client = self._pair(system)
        self._stale_recv(system, client, b"Q12")
        (reject,) = client.queue._items
        assert reject.payload == b"E" + bytes(8) + bytes([int(Errno.ETIME)])

    def test_closed_reply_socket_gets_no_reject(self):
        system = System()
        net = system.kernel.net
        _server, client = self._pair(system)
        self._stale_recv(system, client, _frame(5), before_recv=lambda: net.close(client))
        stats = net.stats()
        assert stats["drops"]["expired"] == 1
        assert stats["policy_rejects"] == 0
        assert len(client.queue) == 0

    def test_reject_into_a_full_reply_backlog_is_a_capacity_drop(self):
        """A lost reject frame counts against the reply socket's backlog,
        never as a link drop: it was never sent on the link."""
        system = System()
        net = system.kernel.net
        _server, client = self._pair(system)
        client.rx_capacity = 0
        self._stale_recv(system, client, _frame(5))
        stats = net.stats()
        assert stats["drops"] == {"capacity": 1, "policy": 0, "expired": 1}
        assert stats["policy_rejects"] == 0
        assert client.rx_dropped == 1
        assert stats["packets_dropped"] == 0

    def test_zero_budget_serves_any_wait(self):
        system = System()
        net = system.kernel.net
        server, client = self._pair(system)
        got = []

        def scenario():
            yield from net.sendto(client, _frame(1), self.SERVER)
            yield 1e9
            payload, _source = yield from net.recvfrom(server, 4096)
            got.append(payload)

        system.sim.run_process(scenario(), name="unpoliced")
        assert got == [_frame(1)]
        assert net.stats()["drops"]["expired"] == 0

    def test_transit_delay_does_not_count_as_queue_wait(self):
        """Sojourn runs from enqueue at the receiver, so a datagram the
        link held back is judged only on its wait in the backlog."""
        system = System()
        net = system.kernel.net
        server, client = self._pair(system)
        net.sojourn_budget_ns = 1_000.0
        FaultInjector(
            FaultPlan(net_delay=1.0, net_delay_ns=(50_000.0, 50_000.0)), system
        )
        waits, got = [], []
        system.probes.attach(
            "net.sojourn", lambda sojourn_ns, sock_id: waits.append(sojourn_ns)
        )

        def scenario():
            yield from net.sendto(client, _frame(1), self.SERVER)
            yield 50_500.0
            payload, _source = yield from net.recvfrom(server, 4096)
            got.append(payload)

        system.sim.run_process(scenario(), name="delayed")
        assert got == [_frame(1)]
        assert waits == [pytest.approx(500.0)]

    def test_expired_drop_fires_the_drop_tracepoint(self):
        system = System()
        server, client = self._pair(system)
        drops = []
        system.probes.attach(
            "net.drop", lambda reason, sock_id: drops.append((reason, sock_id))
        )
        self._stale_recv(system, client, _frame(5))
        assert drops == [("expired", server.sock_id)]


class TestDropAccounting:
    def test_capacity_drops_reported_by_reason(self):
        system = System()
        net = system.kernel.net
        server = net.socket()
        net.bind(server, 5000)
        server.rx_capacity = 2
        _send(system, net.socket(), ("localhost", 5000), [_frame(i) for i in range(5)])
        stats = net.stats()
        assert stats["drops"] == {"capacity": 3, "policy": 0, "expired": 0}
        assert stats["rx_queue_drops"] == 3
        assert stats["packets_dropped"] == 3

    def test_dup_on_full_backlog_counts_link_drop_once(self):
        """A fault-injected duplicate that lands on a full backlog was
        never counted in packets_sent, so losing it must not inflate
        packets_dropped — only the per-reason capacity counter."""
        system = System()
        net = system.kernel.net
        server = net.socket()
        net.bind(server, 5000)
        server.rx_capacity = 0  # everything drops at capacity
        FaultInjector(FaultPlan(net_dup=1.0), system)
        _send(system, net.socket(), ("localhost", 5000), [_frame(0)])
        stats = net.stats()
        # Primary + duplicate both hit the full queue...
        assert stats["drops"]["capacity"] == 2
        assert server.rx_dropped == 2
        # ...but only the primary counts as a link-level packet drop.
        assert stats["packets_sent"] == 1
        assert stats["packets_dropped"] == 1

    def test_reject_frames_do_not_recurse_into_policing(self):
        """A synthesised E-frame that goes stale in a bounded reply
        socket is head-dropped like any datagram but never answered, so
        a reject can never spawn another reject."""
        system = System()
        net = system.kernel.net
        server = net.socket()
        net.bind(server, 5000)
        server.rx_capacity = 64
        client = net.socket()
        client.rx_capacity = 64  # bounded reply socket: policed too
        net.sojourn_budget_ns = 1_000.0

        def send_later(dest, payload):
            def body():
                yield 10_000.0
                yield from net.sendto(net.socket(), payload, dest)

            system.sim.process(body(), name="late-send")

        def scenario():
            yield from net.sendto(client, _frame(7), ("localhost", 5000))
            yield 5_000.0
            send_later(("localhost", 5000), _frame(8))
            yield from net.recvfrom(server, 4096)  # head-drops 7, answers it
            yield 5_000.0  # the E-frame for 7 goes stale at the client
            send_later(("localhost", client.port), b"R" + bytes(8))
            yield from net.recvfrom(client, 4096)

        system.sim.run_process(scenario(), name="no-recursion")
        stats = net.stats()
        assert stats["drops"]["expired"] == 2
        assert stats["policy_rejects"] == 1
        assert len(server.queue) == 0
