"""A fleet of open-loop clients multiplexed over the simulated UDP stack.

Each client is one UDP socket plus a receiver loop; requests are
pre-scheduled (see :mod:`repro.serving.arrivals`) and sprayed round-robin
across the fleet, so a client can easily have several requests
outstanding — the open-loop property.  Requests carry an 8-byte
request id (the serving wire framing of
:mod:`repro.workloads.memcachedwl`), so replies are matched by id, not
by ordering, and every request's lifecycle is tracked individually:
sent, completed, completed-late, or timed out.

Key popularity is zipfian (:class:`ZipfKeys`): rank r is drawn with
probability proportional to ``1/r^s`` over a deterministic (seeded
Fisher-Yates) permutation of the key population, so "which keys are
hot" varies with the permutation seed while the popularity *shape* is
pinned by ``s``.  ``s = 0`` degenerates to uniform.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Generator, List, Optional, Sequence

from repro.sim.engine import AnyOf
from repro.workloads.base import DeterministicRandom

#: Serving wire framing (kept in sync with repro.workloads.memcachedwl):
#: request  = b"Q" + reqid(8B big-endian) + body
#: reply    = b"R" + reqid(8B big-endian) + value   (echo: request bytes)
#: reject   = b"E" + reqid(8B big-endian) + errno(1B)   (QoS fast-fail)
REQID_BYTES = 8
HDR_BYTES = 1 + REQID_BYTES
REJECT_MARKER = ord("E")


def pack_reqid(reqid: int) -> bytes:
    return reqid.to_bytes(REQID_BYTES, "big")


def unpack_reqid(payload: bytes) -> int:
    return int.from_bytes(payload[1:HDR_BYTES], "big")


class ZipfKeys:
    """Zipfian popularity over a deterministically permuted key list."""

    def __init__(self, keys: Sequence[bytes], s: float = 0.99, perm_seed: int = 1):
        if not keys:
            raise ValueError("ZipfKeys needs a non-empty key population")
        if s < 0.0:
            raise ValueError(f"zipf exponent must be >= 0, got {s}")
        order = list(range(len(keys)))
        rng = DeterministicRandom(perm_seed)
        for i in range(len(order) - 1, 0, -1):
            j = rng.randint(0, i)
            order[i], order[j] = order[j], order[i]
        #: Popularity rank -> key: self.keys[0] is the hottest key.
        self.keys: List[bytes] = [keys[i] for i in order]
        cum: List[float] = []
        total = 0.0
        for rank in range(len(self.keys)):
            total += (rank + 1) ** -s
            cum.append(total)
        self._cum = cum
        self._total = total

    def draw(self, rng: DeterministicRandom) -> bytes:
        u = rng.random() * self._total
        idx = bisect_right(self._cum, u)
        return self.keys[min(idx, len(self.keys) - 1)]


class RequestRecord:
    """Lifecycle of one open-loop request."""

    __slots__ = ("reqid", "client", "key", "sched_ns", "payload", "sent_ns",
                 "reply_ns", "reject_errno")

    def __init__(self, reqid: int, client: int, key: Optional[bytes],
                 sched_ns: float, payload: bytes):
        self.reqid = reqid
        self.client = client
        self.key = key
        self.sched_ns = sched_ns  # intended send time, relative to run start
        self.payload = payload
        self.sent_ns: Optional[float] = None  # absolute sim time
        self.reply_ns: Optional[float] = None  # absolute sim time
        #: Errno from a ``b"E"`` fast-fail frame; a rejected request is a
        #: deliberate server decision, not a client failure.
        self.reject_errno: Optional[int] = None

    def latency_ns(self) -> Optional[float]:
        if self.reply_ns is None or self.sent_ns is None:
            return None
        return self.reply_ns - self.sent_ns

    def status(self, timeout_ns: float) -> str:
        if self.reject_errno is not None:
            return "rejected"
        latency = self.latency_ns()
        if latency is None:
            return "timeout"
        # A reply landing exactly at the deadline still counts: the SLO
        # contract is "within timeout_ns", inclusive.
        return "completed" if latency <= timeout_ns else "late"


def build_schedule(
    times: Sequence[float],
    num_clients: int,
    make_payload: Callable[[int, Optional[bytes]], bytes],
    popularity: Optional[ZipfKeys] = None,
    key_seed: int = 1,
) -> List[RequestRecord]:
    """Turn an arrival-timestamp stream into concrete requests.

    Key draws come from a dedicated rng seeded with ``key_seed`` so the
    key sequence is independent of (and composable with) the arrival
    stream's seed.  Clients are assigned round-robin — deterministic and
    guaranteeing the fleet multiplexes rather than serialises.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    rng = DeterministicRandom(key_seed)
    schedule: List[RequestRecord] = []
    for reqid, t in enumerate(times):
        key = popularity.draw(rng) if popularity is not None else None
        schedule.append(
            RequestRecord(reqid, reqid % num_clients, key, t, make_payload(reqid, key))
        )
    return schedule


class ClientFleet:
    """Drive a schedule of open-loop requests against a UDP server.

    ``driver()`` is the process body the serving-mode workloads
    (``serve_genesys``) expect: it sends every scheduled request at its
    appointed simulated time regardless of completions, waits out one
    request-timeout of drain after the last send, then returns.  Replies
    arriving after a request's timeout still complete its record (they
    classify as ``late``); requests with no reply classify ``timeout``.
    """

    def __init__(
        self,
        system,
        dest,
        schedule: Sequence[RequestRecord],
        num_clients: int,
        timeout_ns: float = 1_000_000.0,
        check_reply: Optional[Callable[[RequestRecord, bytes], bool]] = None,
    ):
        self.system = system
        self.net = system.kernel.net
        self.dest = tuple(dest)
        self.schedule = list(schedule)
        self.num_clients = num_clients
        self.timeout_ns = timeout_ns
        #: Optional payload validator; failures count in ``bad_replies``
        #: (the safety signal chaos runs assert on).
        self.check_reply = check_reply
        self.sent = 0
        self.bad_replies = 0
        self.dup_replies = 0
        self._by_reqid: Dict[int, RequestRecord] = {
            record.reqid: record for record in self.schedule
        }
        self._remaining = len(self.schedule)
        self._per_client = [0] * num_clients
        for record in self.schedule:
            self._per_client[record.client] += 1

    # -- lifecycle rollups --------------------------------------------------

    def counts(self) -> Dict[str, int]:
        counts = {"sent": self.sent, "completed": 0, "late": 0, "timeout": 0,
                  "rejected": 0,
                  "dup_replies": self.dup_replies,
                  "bad_replies": self.bad_replies}
        for record in self.schedule:
            counts[record.status(self.timeout_ns)] += 1
        return counts

    # -- simulation processes ----------------------------------------------

    def driver(self) -> Generator:
        sim = self.system.sim
        net = self.net
        base = sim.now
        socks = [net.socket() for _ in range(self.num_clients)]
        stop = sim.event(name="fleet-stop")
        all_done = sim.event(name="fleet-done")
        receivers = [
            sim.process(
                self._receiver(socks[ci], ci, stop, all_done), name=f"cl-rx{ci}"
            )
            for ci in range(self.num_clients)
            if self._per_client[ci]
        ]
        senders = []
        for record in self.schedule:
            when = base + record.sched_ns
            if sim.now < when:
                yield sim.wake_at(when, name="next-arrival")
            record.sent_ns = sim.now
            self.sent += 1
            # Fire-and-forget: the link transfer must not back-pressure
            # the arrival clock, or the load stops being open-loop.
            senders.append(
                sim.process(
                    net.sendto(socks[record.client], record.payload, self.dest),
                    name=f"cl-tx{record.reqid}",
                )
            )
        deadline = sim.now + self.timeout_ns
        while self._remaining > 0 and sim.now < deadline:
            yield AnyOf([all_done, sim.wake_at(deadline, name="fleet-drain")])
        stop.succeed()
        for proc in senders:
            yield proc
        for proc in receivers:
            yield proc
        for sock in socks:
            net.close(sock)

    def _receiver(self, sock, ci: int, stop, all_done) -> Generator:
        sim = self.system.sim
        outstanding = self._per_client[ci]
        while outstanding > 0:
            if len(sock.queue) == 0:
                if stop.triggered:
                    return
                yield AnyOf([sock.queue.when_nonempty(), stop])
                continue
            datagram = yield sock.queue.get()
            record = self._by_reqid.get(unpack_reqid(datagram.payload))
            if record is None or record.client != ci:
                continue
            if record.reply_ns is not None or record.reject_errno is not None:
                self.dup_replies += 1
                continue
            if datagram.payload and datagram.payload[0] == REJECT_MARKER:
                # QoS fast-fail frame: a deliberate server verdict, so no
                # payload validation — classify ``rejected``, not ``bad``.
                record.reject_errno = (
                    datagram.payload[HDR_BYTES]
                    if len(datagram.payload) > HDR_BYTES else 0
                )
                record.reply_ns = sim.now
                outstanding -= 1
                self._remaining -= 1
                if self._remaining == 0 and not all_done.triggered:
                    all_done.succeed()
                continue
            if self.check_reply is not None and not self.check_reply(
                record, datagram.payload
            ):
                self.bad_replies += 1
            record.reply_ns = sim.now
            outstanding -= 1
            self._remaining -= 1
            if self._remaining == 0 and not all_done.triggered:
                all_done.succeed()
