"""UDP networking: sockets, ports, a latency/bandwidth-modelled link.

Backs the memcached case study (Section VIII-D): the paper deliberately
avoids RDMA and uses plain ``sendto``/``recvfrom`` over UDP, so the model
is a host-local network of named endpoints connected by a NIC-like
channel (fixed one-way latency + serialised bandwidth).  Datagrams carry
real payload bytes.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional, Tuple

from repro.machine import MachineConfig
from repro.oskernel.errors import Errno, OsError
from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthResource, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector

Address = Tuple[str, int]


class Datagram:
    __slots__ = ("payload", "source", "enqueued_ns")

    def __init__(self, payload: bytes, source: Address):
        self.payload = bytes(payload)
        self.source = source
        #: When the datagram entered its receive queue (set by
        #: ``Network._deliver``); sojourn time = dequeue - enqueue.
        self.enqueued_ns = 0.0


class RejectFrame(Datagram):
    """A fast-fail reply the kernel synthesised for a policed datagram
    (``Network._reject``).  It is policed like any datagram but never
    answered, so two policed sockets cannot trade rejects."""

    __slots__ = ()


class UdpSocket:
    """One UDP endpoint; datagrams queue in arrival order.  ``sock_id``
    is numbered by the :class:`Network` that creates it."""

    def __init__(self, net: "Network", host: str, sock_id: int):
        self.net = net
        self.host = host
        self.sock_id = sock_id
        self.port: Optional[int] = None
        self.queue = Store(net.sim, name=f"udp{self.sock_id}")
        self.closed = False
        #: Receive-queue bound in datagrams (``None`` = unbounded, the
        #: historical behaviour).  When the backlog is full, arriving
        #: datagrams are dropped and counted instead of queueing without
        #: limit — the open-loop overload regime made observable.
        self.rx_capacity: Optional[int] = None
        #: Datagrams dropped at this socket because the backlog was full.
        self.rx_dropped = 0

    def bind(self, port: int) -> None:
        self.net.bind(self, port)

    def __repr__(self) -> str:
        return f"UdpSocket({self.host}:{self.port})"


class Network:
    """All endpoints plus the shared link model."""

    EPHEMERAL_BASE = 32768

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        probes: Optional[ProbeRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self._bound: Dict[Address, UdpSocket] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self._sock_ids = itertools.count()
        self.link = BandwidthResource(
            sim,
            rate_bytes_per_ns=config.nic_bw_bytes_per_ns,
            fixed_latency=0.0,
            name="nic",
        )
        self.packets_sent = 0
        self.packets_dropped = 0
        #: Datagrams dropped because a socket's bounded receive queue
        #: (``UdpSocket.rx_capacity``) was full, across all sockets.
        self.rx_queue_drops = 0
        #: Deepest receive backlog observed on any socket (datagrams).
        self.rx_backlog_peak = 0
        self._tx_counter = 0
        registry = probes if probes is not None else ProbeRegistry(sim)
        self.tp_tx = registry.tracepoint(
            "net.tx", ("nbytes",), "datagram transmitted onto the link"
        )
        self.tp_rx = registry.tracepoint(
            "net.rx", ("nbytes",), "datagram received from a socket queue"
        )
        self.tp_drop = registry.tracepoint(
            "net.drop",
            ("reason", "sock_id"),
            "datagram dropped (loss model, unbound dest, or full backlog); "
            "sock_id is the destination socket, or None before one resolved",
        )
        self.tp_backlog = registry.tracepoint(
            "net.backlog",
            ("depth", "sock_id"),
            "receive-queue depth after a datagram was enqueued (0 = handed "
            "straight to a blocked receiver)",
        )
        self.tp_fault = registry.tracepoint(
            "fault.net.injected",
            ("action", "nbytes", "delay_ns"),
            "an injected datagram fault was applied (drop, dup, or delay)",
        )
        #: The plan's FaultInjector, asked per datagram that reaches a
        #: bound socket (drop, dup or delay); None on a machine with no plan.
        self.faults: Optional[FaultInjector] = None
        # -- Sojourn policing (repro.qos).  Only sockets with a bounded
        # backlog (rx_capacity set) are policed, which naturally exempts
        # client reply sockets and the unbounded shutdown path.
        self.tp_sojourn = registry.tracepoint(
            "net.sojourn",
            ("sojourn_ns", "sock_id"),
            "receive-queue wait of a datagram, measured at dequeue",
        )
        #: Max receive-queue sojourn (ns) before a datagram is
        #: head-dropped at dequeue with a fast-fail reply; 0 disables
        #: (knob: /sys/genesys/qos/admission).
        self.sojourn_budget_ns = 0.0
        #: Datagrams head-dropped at dequeue past the sojourn budget.
        self.expired_drops = 0
        #: Fast-fail reply frames synthesised for policed datagrams.
        self.policy_rejects = 0

    def socket(self, host: str = "localhost") -> UdpSocket:
        return UdpSocket(self, host, next(self._sock_ids))

    def stats(self) -> Dict[str, Any]:
        """Link and backlog counters (see also ``Genesys.stats()['net']``)."""
        return {
            "packets_sent": self.packets_sent,
            "packets_dropped": self.packets_dropped,
            "rx_queue_drops": self.rx_queue_drops,
            "rx_backlog_peak": self.rx_backlog_peak,
            "drops": {
                "capacity": self.rx_queue_drops,
                "policy": 0,  # a constant, kept: perfbench and the sweep JSON read it
                "expired": self.expired_drops,
            },
            "policy_rejects": self.policy_rejects,
        }

    def bind(self, sock: UdpSocket, port: int) -> None:
        if sock.closed:
            raise OsError(Errno.EBADF, "socket closed")
        addr = (sock.host, port)
        if addr in self._bound:
            raise OsError(Errno.EADDRINUSE, f"{addr}")
        if sock.port is not None:
            del self._bound[(sock.host, sock.port)]
        self._bound[addr] = sock
        sock.port = port

    def _ensure_bound(self, sock: UdpSocket) -> None:
        if sock.port is None:
            while (sock.host, self._next_ephemeral) in self._bound:
                self._next_ephemeral += 1
            self.bind(sock, self._next_ephemeral)
            self._next_ephemeral += 1

    def close(self, sock: UdpSocket) -> None:
        sock.closed = True
        if sock.port is not None:
            self._bound.pop((sock.host, sock.port), None)

    # -- timed data path ----------------------------------------------------

    def sendto(self, sock: UdpSocket, payload: bytes, dest: Address) -> Generator:
        """Process body: transmit one datagram; returns bytes sent."""
        if sock.closed:
            raise OsError(Errno.EBADF, "socket closed")
        self._ensure_bound(sock)
        yield from self.link.transfer(len(payload))
        yield self.config.nic_latency_ns
        self.packets_sent += 1
        self._tx_counter += 1
        if self.tp_tx.enabled:
            self.tp_tx.fire(len(payload))
        if (
            self.config.nic_drop_every
            and self._tx_counter % self.config.nic_drop_every == 0
        ):
            # Deterministic loss model: UDP is lossy by contract.
            self.packets_dropped += 1
            if self.tp_drop.enabled:
                self.tp_drop.fire("loss-model", None)
            return len(payload)
        target = self._bound.get(dest)
        if target is None or target.closed:
            # UDP: silently dropped (no ICMP model).
            self.packets_dropped += 1
            if self.tp_drop.enabled:
                self.tp_drop.fire("unbound-dest", None)
            return len(payload)
        datagram = Datagram(payload, (sock.host, sock.port))
        faults = self.faults
        verdict = faults.decide("net") if faults is not None else None
        if verdict is not None:
            action, delay_ns = verdict
            if self.tp_fault.enabled:
                self.tp_fault.fire(action, len(payload), delay_ns)
            if action == "drop":
                self.packets_dropped += 1
                return len(payload)
            if action == "delay":
                self.sim.process(
                    self._deliver_later(target, datagram, delay_ns),
                    name="net-delayed",
                )
                return len(payload)
            # A dup: the copy was never counted in packets_sent, so
            # losing it must not bump the link-level drop counter (it
            # still counts in the per-socket/per-reason stats).
            self._deliver(
                target, Datagram(payload, (sock.host, sock.port)), primary=False
            )
        self._deliver(target, datagram)
        return len(payload)

    def _deliver(
        self,
        target: UdpSocket,
        datagram: Datagram,
        primary: bool = True,
    ) -> bool:
        """Enqueue ``datagram`` at ``target``, honouring the backlog bound.

        Returns False when a full bounded receive queue dropped the
        datagram.  ``primary`` is False for copies that were never counted in
        ``packets_sent`` (fault-injected duplicates, synthesised reject
        frames), so losing them does not inflate the link drop counter.
        """
        if (
            target.rx_capacity is not None
            and len(target.queue) >= target.rx_capacity
        ):
            target.rx_dropped += 1
            self.rx_queue_drops += 1
            if primary:
                self.packets_dropped += 1
            if self.tp_drop.enabled:
                self.tp_drop.fire("backlog", target.sock_id)
            return False
        datagram.enqueued_ns = self.sim.now
        target.queue.put(datagram)
        depth = len(target.queue)
        if depth > self.rx_backlog_peak:
            self.rx_backlog_peak = depth
        if self.tp_backlog.enabled:
            self.tp_backlog.fire(depth, target.sock_id)
        return True

    def _deliver_later(
        self, target: UdpSocket, datagram: Datagram, delay_ns: float
    ) -> Generator:
        yield delay_ns
        if not target.closed:
            self._deliver(target, datagram)

    def _reject(self, target: UdpSocket, datagram: Datagram, errno: int) -> None:
        """Synthesise a fast-fail reply frame for a policed datagram.

        Where a reply socket exists (the source address is still bound),
        the sender gets ``b"E" + reqid + errno`` instead of silence — a
        serving client classifies that as *rejected*, not lost.  The
        frame is a kernel-level synthesis: it bypasses the link model.
        A policed reject frame is dropped without an answer.
        """
        if isinstance(datagram, RejectFrame):
            return
        source = self._bound.get(datagram.source)
        if source is None or source.closed:
            return
        payload = datagram.payload
        reqid = payload[1:9] if len(payload) >= 9 else bytes(8)
        frame = RejectFrame(
            b"E" + reqid + bytes([errno & 0xFF]),
            (target.host, target.port if target.port is not None else 0),
        )
        if self._deliver(source, frame, primary=False):
            self.policy_rejects += 1

    def recvfrom(self, sock: UdpSocket, bufsize: int) -> Generator:
        """Process body: blocking receive; returns (payload, source).

        CoDel-style sojourn policing: with a ``sojourn_budget_ns`` set,
        datagrams that waited in a *bounded* receive queue longer than
        the budget are head-dropped here — servicing them would be
        wasted work, the sender's own deadline having long passed — and
        the sender gets a fast-fail reject (ETIME) where possible.
        """
        if sock.closed:
            raise OsError(Errno.EBADF, "socket closed")
        self._ensure_bound(sock)
        while True:
            datagram = yield sock.queue.get()
            if self.tp_sojourn.enabled:
                self.tp_sojourn.fire(
                    self.sim.now - datagram.enqueued_ns, sock.sock_id
                )
            if (
                sock.rx_capacity is not None
                and self.sojourn_budget_ns > 0
                and self.sim.now - datagram.enqueued_ns > self.sojourn_budget_ns
            ):
                sock.rx_dropped += 1
                self.expired_drops += 1
                if self.tp_drop.enabled:
                    self.tp_drop.fire("expired", sock.sock_id)
                self._reject(sock, datagram, int(Errno.ETIME))
                continue
            if self.tp_rx.enabled:
                self.tp_rx.fire(len(datagram.payload))
            payload = datagram.payload[:bufsize]
            return payload, datagram.source
