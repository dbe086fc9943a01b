"""Serving under overload: reply classification edge cases (the
rejected class, deadline-inclusive completion, duplicates after the
fact), the QosPlan/QosController lifecycle, and the offered-vs-goodput
overload curve document."""

import pytest

from repro.oskernel.errors import Errno
from repro.qos import QosController, QosPlan, install_qos_plan
from repro.serving.clients import (
    HDR_BYTES,
    ClientFleet,
    RequestRecord,
    pack_reqid,
)
from repro.serving.report import check_overload, render_overload
from repro.serving.sweep import (
    ServingConfig,
    default_knee,
    default_overload_plan,
    overload_curve,
)
from repro.system import System


def _record(timeout_ns=1_000.0):
    record = RequestRecord(0, 0, None, 0.0, b"Q" + pack_reqid(0) + b"x")
    record.sent_ns = 0.0
    return record


class TestClassification:
    def test_reply_exactly_at_deadline_completes(self):
        """The SLO contract is inclusive: latency == timeout is met."""
        record = _record()
        record.reply_ns = 1_000.0
        assert record.status(1_000.0) == "completed"

    def test_reply_just_past_deadline_is_late(self):
        record = _record()
        record.reply_ns = 1_000.0000001
        assert record.status(1_000.0) == "late"

    def test_no_reply_is_timeout(self):
        assert _record().status(1_000.0) == "timeout"

    def test_reject_wins_over_latency(self):
        record = _record()
        record.reject_errno = int(Errno.EBUSY)
        record.reply_ns = 10.0  # even a fast E-frame is still a reject
        assert record.status(1_000.0) == "rejected"


class _EchoServer:
    """Minimal serving peer: answer each request per a scripted list of
    (delay_ns, frames) actions, then stop."""

    def __init__(self, system, port, actions):
        self.system = system
        self.net = system.kernel.net
        self.port = port
        self.actions = list(actions)

    def body(self):
        net = self.net
        sock = net.socket()
        net.bind(sock, self.port)
        for delay_ns, make_frames in self.actions:
            payload, source = yield from net.recvfrom(sock, 4096)
            if delay_ns:
                yield delay_ns
            for frame in make_frames(payload):
                yield from net.sendto(sock, frame, source)
        net.close(sock)


def _run_fleet(system, actions, timeout_ns=100_000.0, check_reply=None,
               scheds=(0.0,)):
    schedule = [
        RequestRecord(i, 0, None, float(t), b"Q" + pack_reqid(i) + b"ping")
        for i, t in enumerate(scheds)
    ]
    fleet = ClientFleet(
        system,
        ("localhost", 7000),
        schedule,
        num_clients=1,
        timeout_ns=timeout_ns,
        check_reply=check_reply,
    )
    server = _EchoServer(system, 7000, actions)
    system.sim.process(server.body(), name="echo-server")
    system.sim.run_process(fleet.driver(), name="fleet")
    return fleet


class TestReceiver:
    def test_reject_frame_classifies_rejected_not_bad(self):
        def reject(payload):
            return [b"E" + payload[1:HDR_BYTES] + bytes([int(Errno.EBUSY)])]

        fleet = _run_fleet(
            System(),
            [(0.0, reject)],
            check_reply=lambda record, payload: False,  # would flag as bad
        )
        counts = fleet.counts()
        assert counts["rejected"] == 1
        assert counts["completed"] == 0
        assert counts["bad_replies"] == 0
        record = fleet.schedule[0]
        assert record.reject_errno == int(Errno.EBUSY)

    def test_short_reject_frame_defaults_errno_zero(self):
        fleet = _run_fleet(
            System(), [(0.0, lambda payload: [b"E" + payload[1:HDR_BYTES]])]
        )
        assert fleet.counts()["rejected"] == 1
        assert fleet.schedule[0].reject_errno == 0

    def test_duplicate_reply_after_completion_counts_dup(self):
        """A still-pending sibling request keeps the receiver alive to
        see the duplicate (a receiver with nothing outstanding stops)."""

        def twice(payload):
            reply = b"R" + payload[1:HDR_BYTES] + b"pong"
            return [reply, reply]

        def prompt(payload):
            return [b"R" + payload[1:HDR_BYTES] + b"pong"]

        fleet = _run_fleet(
            System(), [(0.0, twice), (0.0, prompt)], scheds=(0.0, 30_000.0)
        )
        counts = fleet.counts()
        assert counts["completed"] == 2
        assert counts["dup_replies"] == 1

    def test_duplicate_after_late_reply_counts_dup(self):
        """A reply landing after the request's timeout still completes
        the record (late); its duplicate is a dup, not a second late.
        A second, prompt request keeps the fleet draining long enough
        for the late reply to land at all."""

        def late_twice(payload):
            reply = b"R" + payload[1:HDR_BYTES] + b"pong"
            return [reply, reply]

        def prompt(payload):
            return [b"R" + payload[1:HDR_BYTES] + b"pong"]

        fleet = _run_fleet(
            System(),
            [(20_000.0, late_twice), (0.0, prompt)],
            timeout_ns=20_000.0,
            scheds=(0.0, 40_000.0),
        )
        counts = fleet.counts()
        assert counts["late"] == 1
        assert counts["completed"] == 1
        assert counts["timeout"] == 0
        assert counts["dup_replies"] == 1

    def test_dup_after_reject_counts_dup(self):
        def reject_then_reply(payload):
            return [
                b"E" + payload[1:HDR_BYTES] + bytes([int(Errno.ETIME)]),
                b"R" + payload[1:HDR_BYTES] + b"pong",
            ]

        def prompt(payload):
            return [b"R" + payload[1:HDR_BYTES] + b"pong"]

        fleet = _run_fleet(
            System(),
            [(0.0, reject_then_reply), (0.0, prompt)],
            scheds=(0.0, 30_000.0),
        )
        counts = fleet.counts()
        assert counts["rejected"] == 1
        assert counts["completed"] == 1
        assert counts["dup_replies"] == 1


class TestQosPlan:
    def test_default_plan_is_inactive(self):
        plan = QosPlan()
        assert plan.active is False

    @pytest.mark.parametrize(
        "override",
        [
            {"deadline_ns": 1_000.0},
            {"sojourn_budget_ns": 1_000.0},
            {"admit_rate_rps": 10.0},
            {"retry_budget_ratio": 0.1},
            {"breaker_threshold": 4},
            {"brownout": True},
        ],
    )
    def test_any_layer_activates(self, override):
        assert QosPlan(**override).active is True

    @pytest.mark.parametrize(
        "override",
        [
            {"deadline_ns": -1.0},
            {"deadline_ns": float("nan")},
            {"sojourn_budget_ns": -5.0},
            {"admit_rate_rps": -1.0},
            {"admit_burst": 0},
            {"retry_budget_ratio": -0.1},
            {"retry_budget_floor": -1},
            {"breaker_threshold": -2},
            {"breaker_cooldown_ns": 0.0},
            {"brownout_period_ns": 0.0},
            {"brownout_max_level": 5},
            {"brownout_hi_p99_ns": 10.0, "brownout_lo_p99_ns": 20.0},
            {"priority_floor": -1},
        ],
    )
    def test_validation_rejects(self, override):
        with pytest.raises(ValueError):
            QosPlan(**override)

    def test_as_dict_round_trips(self):
        plan = QosPlan(deadline_ns=5.0, deadline_by_name=(("pread", 9.0),))
        doc = plan.as_dict()
        assert doc["deadline_ns"] == 5.0
        assert doc["deadline_by_name"] == [["pread", 9.0]]
        assert QosPlan(
            **{**doc, "deadline_by_name": tuple(
                (n, v) for n, v in doc["deadline_by_name"]
            )}
        ) == plan


class TestQosController:
    def _full_plan(self):
        return QosPlan(
            deadline_ns=1e9,
            deadline_by_name=(("recvfrom", 0.0),),
            sojourn_budget_ns=200_000.0,
            admit_rate_rps=1e9,
            retry_budget_ratio=0.1,
            breaker_threshold=8,
            brownout=True,
        )

    def test_install_arms_every_layer(self):
        system = System()
        controller = install_qos_plan(self._full_plan(), system)
        probes = system.probes
        assert probes.get_hook("qos.deadline").active
        assert probes.get_hook("net.admit").active
        assert probes.get_hook("genesys.retry").active
        assert probes.get_hook("qos.invoke").active
        assert system.kernel.net.sojourn_budget_ns == 200_000.0
        assert system.genesys.qos_deadline_ns == 1e9
        summary = controller.summary()
        for key in ("syscalls_shed", "sheds_by_stage", "qos_fast_fails",
                    "net_drops", "policy_rejects", "admission_policed",
                    "retries_denied", "breaker", "brownout"):
            assert key in summary
        controller.remove()

    def test_sensor_hub_carries_only_what_its_layers_read(self):
        system = System()
        controller = install_qos_plan(self._full_plan(), system)
        hub = controller.hub
        assert list(hub.metrics) == ["syscall.rate", "syscall.latency", "wq.depth"]
        assert (hub.label, hub.window_ns) == ("qos", 50_000.0)
        # Only the sensors' source tracepoints gained a hub feed.
        assert not system.probes.get("net.tx").enabled
        controller.remove()

    def test_remove_disarms_and_restores(self):
        system = System()
        controller = QosController(self._full_plan(), system)
        controller.install()
        controller.remove()
        probes = system.probes
        assert not probes.get_hook("qos.deadline").active
        assert not probes.get_hook("net.admit").active
        assert not probes.get_hook("genesys.retry").active
        assert not probes.get_hook("qos.invoke").active
        assert system.kernel.net.sojourn_budget_ns == 0.0
        assert system.genesys.qos_deadline_ns == 0.0

    def test_flat_deadline_is_the_knob(self):
        """``deadline_ns`` writes the qos/deadline_ns knob and attaches
        no program; remove restores what the knob held before."""
        system = System()
        system.genesys.qos_deadline_ns = 7_000.0
        controller = install_qos_plan(QosPlan(deadline_ns=3_000.0), system)
        assert system.kernel.fs.read_whole("/sys/genesys/qos/deadline_ns") == b"3000\n"
        assert not system.probes.get_hook("qos.deadline").active
        assert system.genesys.mint_deadline("pread") == system.now + 3_000.0
        controller.remove()
        assert system.genesys.qos_deadline_ns == 7_000.0

    def test_inactive_plan_installs_nothing(self):
        system = System()
        controller = install_qos_plan(QosPlan(), system)
        assert not system.probes.get_hook("qos.deadline").active
        assert not system.probes.get_hook("net.admit").active
        controller.remove()


class TestOverloadCurve:
    def _config(self):
        return ServingConfig(
            workload="udp-echo",
            num_clients=16,
            warmup_ns=50_000.0,
            measure_ns=150_000.0,
            report_window_ns=75_000.0,
            timeout_ns=400_000.0,
            num_workgroups=2,
            workgroup_size=8,
        )

    def test_default_knee_presets(self):
        assert default_knee(self._config()) > 0
        assert default_knee(ServingConfig()) > 0

    def test_default_plan_polices_sojourn_not_deadlines(self):
        """The stock serving plan must not mint GPU-side deadlines: the
        serve loops park in blocking recvfrom and an errno return would
        crash them.  Protection comes from ingress policing instead."""
        plan = default_overload_plan(self._config())
        assert plan.deadline_ns == 0.0
        assert plan.deadline_by_name == ()
        assert plan.sojourn_budget_ns == pytest.approx(200_000.0)
        assert plan.brownout is True

    def test_curve_document_structure(self):
        config = self._config()
        doc = overload_curve(
            config,
            plan=default_overload_plan(config),
            knee_rps=60_000,
            multipliers=(1.0, 2.0),
        )
        assert doc["schema"] == "repro-serving-overload"
        assert doc["knee_rps"] == 60_000
        assert [p["rps_target"] for p in doc["baseline"]] == [60_000, 120_000]
        assert [p["rps_target"] for p in doc["qos"]] == [60_000, 120_000]
        for point in doc["qos"]:
            assert "qos" in point  # controller summary rides along
        gate = doc["gate"]
        assert set(gate) >= {"knee_goodput_rps", "goodput_2x_rps", "ratio",
                             "baseline_ratio", "min_ratio", "ok"}
        # Structural checks hold whatever the tiny-scale gate verdict is.
        problems = [p for p in check_overload(doc) if "gate" not in p]
        assert problems == []
        rendered = render_overload(doc)
        assert "udp-echo" in rendered
        assert "offered" in rendered

    def test_curve_rejects_bad_knee(self):
        with pytest.raises(ValueError):
            overload_curve(self._config(), knee_rps=0)
