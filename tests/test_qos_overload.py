"""Serving under overload: reply classification edge cases (the
rejected class, deadline-inclusive completion, duplicates after the
fact), the QosPlan/QosController lifecycle, and the offered-vs-goodput
overload curve document."""

import copy
import dataclasses

import pytest

from repro.machine import small_machine
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
    _overload_point_job,
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
    # ETIME is what sojourn policing sends; EBUSY stands for any other.
    @pytest.mark.parametrize("errno", [Errno.ETIME, Errno.EBUSY], ids=["ETIME", "EBUSY"])
    def test_reject_frame_classifies_rejected_not_bad(self, errno):
        def reject(payload):
            return [b"E" + payload[1:HDR_BYTES] + bytes([int(errno)])]

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
        assert record.reject_errno == int(errno)

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

    def test_sojourn_budget_activates(self):
        # Bad budgets are refused in test_plan_validation.py.
        assert QosPlan(sojourn_budget_ns=1_000.0).active is True

    def test_as_dict_round_trips(self):
        plan = QosPlan(sojourn_budget_ns=5.0)
        doc = plan.as_dict()
        assert doc == {"sojourn_budget_ns": 5.0}
        assert QosPlan(**doc) == plan

    @pytest.mark.parametrize("budget_ns", [0.0, 0.5, 1.0, 200_000.0, 1e9])
    def test_any_finite_budget_from_zero_up_is_a_plan(self, budget_ns):
        plan = QosPlan(sojourn_budget_ns=budget_ns)
        assert plan.sojourn_budget_ns == budget_ns
        assert plan.active is (budget_ns > 0)

    def test_plan_is_frozen(self):
        plan = QosPlan(sojourn_budget_ns=5.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.sojourn_budget_ns = 6.0


class TestQosController:
    def _full_plan(self):
        return QosPlan(sojourn_budget_ns=200_000.0)

    def test_install_arms_every_layer(self):
        system = System()
        controller = install_qos_plan(self._full_plan(), system)
        assert system.kernel.net.sojourn_budget_ns == 200_000.0
        assert system.kernel.fs.read_whole("/sys/genesys/qos/admission") == b"200000\n"
        assert set(controller.summary()) == {
            "syscalls_shed", "sheds_by_stage", "net_drops", "reject_frames"
        }
        controller.remove()

    def test_remove_disarms_and_restores(self):
        system = System()
        system.kernel.net.sojourn_budget_ns = 7_000.0
        controller = QosController(self._full_plan(), system)
        controller.install()
        controller.remove()
        assert system.kernel.net.sojourn_budget_ns == 7_000.0

    def test_inactive_plan_installs_nothing(self):
        system = System()
        system.kernel.net.sojourn_budget_ns = 7_000.0
        controller = install_qos_plan(QosPlan(), system)
        assert system.kernel.net.sojourn_budget_ns == 7_000.0
        controller.remove()
        assert system.kernel.net.sojourn_budget_ns == 7_000.0

    def test_second_install_keeps_the_first_saved_value(self):
        """Installing twice must not save the plan's own budget as the
        value to restore."""
        system = System()
        system.kernel.net.sojourn_budget_ns = 7_000.0
        controller = QosController(self._full_plan(), system)
        assert controller.install() is controller.install()
        controller.remove()
        assert system.kernel.net.sojourn_budget_ns == 7_000.0

    def test_remove_before_install_writes_nothing(self):
        system = System()
        system.kernel.net.sojourn_budget_ns = 7_000.0
        QosController(self._full_plan(), system).remove()
        assert system.kernel.net.sojourn_budget_ns == 7_000.0

    def test_second_remove_leaves_later_writes_alone(self):
        system = System()
        controller = install_qos_plan(self._full_plan(), system)
        controller.remove()
        system.kernel.net.sojourn_budget_ns = 3_000.0  # a later knob write
        controller.remove()
        assert system.kernel.net.sojourn_budget_ns == 3_000.0

    def test_summary_counts_policed_datagrams(self):
        system = System()
        net = system.kernel.net
        controller = install_qos_plan(QosPlan(sojourn_budget_ns=1_000.0), system)
        server = net.socket()
        net.bind(server, 5000)
        server.rx_capacity = 8
        client = net.socket()

        def scenario():
            yield from net.sendto(client, b"Q" + pack_reqid(1) + b"x", ("localhost", 5000))
            yield 5_000.0
            yield from net.sendto(client, b"Q" + pack_reqid(2) + b"x", ("localhost", 5000))
            yield from net.recvfrom(server, 4096)

        system.sim.run_process(scenario(), name="summary")
        assert controller.summary() == {
            "syscalls_shed": 0,
            "sheds_by_stage": {},
            "net_drops": {"capacity": 0, "policy": 0, "expired": 1},
            "reject_frames": 1,
        }

    def test_summary_counts_deadline_sheds(self):
        system = System(config=small_machine())
        controller = install_qos_plan(QosPlan(), system)
        system.genesys.qos_deadline_ns = 1.0

        def kern(ctx):
            yield from ctx.sys.getrusage()

        system.run_kernel(kern, 4, 4, name="summary-shed")
        summary = controller.summary()
        assert summary["syscalls_shed"] == 4
        assert summary["sheds_by_stage"] == {"coalesce": 4}
        assert summary["reject_frames"] == 0


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
        assert plan.as_dict() == {"sojourn_budget_ns": pytest.approx(200_000.0)}
        system = System()
        install_qos_plan(plan, system)
        assert system.genesys.qos_deadline_ns == 0.0

    @pytest.mark.parametrize("workload", ["udp-echo", "memcached"])
    def test_curve_document_structure(self, workload):
        config = dataclasses.replace(self._config(), workload=workload)
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
        assert workload in rendered
        assert "offered" in rendered

    def test_curve_rejects_bad_knee(self):
        with pytest.raises(ValueError):
            overload_curve(self._config(), knee_rps=0)

    @pytest.mark.parametrize("timeout_ns", [100_000.0, 400_000.0, 2_000_000.0])
    def test_default_budget_is_half_the_client_timeout(self, timeout_ns):
        """A datagram that waited half its sender's timeout is answered
        as rejected while the sender still listens for the answer."""
        config = dataclasses.replace(self._config(), timeout_ns=timeout_ns)
        assert default_overload_plan(config) == QosPlan(sojourn_budget_ns=timeout_ns / 2)


@pytest.fixture(scope="module")
def overload_doc():
    """One small overload document, gate forced open so that only a
    test's own defect can fail the check."""
    config = ServingConfig(
        workload="udp-echo",
        num_clients=16,
        warmup_ns=50_000.0,
        measure_ns=150_000.0,
        report_window_ns=75_000.0,
        timeout_ns=400_000.0,
        num_workgroups=2,
        workgroup_size=8,
    )
    doc = overload_curve(
        config, plan=default_overload_plan(config), knee_rps=60_000, multipliers=(1.0, 2.0)
    )
    doc["gate"]["ok"] = True
    return doc


def _drop(key):
    def defect(doc):
        del doc[key]
    return defect


DEFECTS = {
    "schema": (lambda doc: doc.update(schema="x"), "schema is 'x'"),
    "missing-plan": (_drop("plan"), "missing top-level key 'plan'"),
    "empty-baseline": (lambda doc: doc.update(baseline=[]),
                       "baseline must be a non-empty list"),
    "point-not-object": (lambda doc: doc["qos"].__setitem__(0, 3),
                         "qos[0] is not an object"),
    "point-missing-key": (lambda doc: doc["qos"][1].pop("lifecycle"),
                          "qos[1] missing 'lifecycle'"),
    "gate-not-object": (lambda doc: doc.update(gate=None), "gate must be an object"),
    "gate-missing-key": (lambda doc: doc["gate"].pop("baseline_ratio"),
                         "gate missing 'baseline_ratio'"),
    "gate-failed": (lambda doc: doc["gate"].update(ok=False), "goodput gate FAILED"),
}


class TestOverloadCheck:
    def test_well_formed_document_passes(self, overload_doc):
        assert check_overload(overload_doc) == []

    def test_non_object_document_is_refused(self):
        assert check_overload([]) == ["document is list, want object"]

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_each_defect_is_named(self, overload_doc, defect):
        doc = copy.deepcopy(overload_doc)
        apply, fragment = DEFECTS[defect]
        apply(doc)
        problems = check_overload(doc)
        assert len(problems) == 1 and fragment in problems[0], problems

    def test_render_heads_with_the_sojourn_budget(self, overload_doc):
        head = render_overload(overload_doc).splitlines()[0]
        assert head.endswith("sojourn_budget=200 us")


class TestPolicingUnderLoad:
    """One overload point at a time, past the knee and below it, with
    the stock serving plan installed."""

    def _config(self, workload):
        return ServingConfig(
            workload=workload,
            num_clients=16,
            warmup_ns=50_000.0,
            measure_ns=150_000.0,
            report_window_ns=75_000.0,
            timeout_ns=400_000.0,
            num_workgroups=2,
            workgroup_size=8,
        )

    @pytest.mark.parametrize("workload", ["udp-echo", "memcached"])
    @pytest.mark.parametrize("rps", [60_000, 240_000, 480_000])
    def test_every_policed_request_is_answered_rejected(self, workload, rps):
        config = self._config(workload)
        point = _overload_point_job(config, rps, default_overload_plan(config))
        lifecycle, qos = point["lifecycle"], point["qos"]
        assert lifecycle["sent"] == sum(
            lifecycle[status] for status in ("completed", "late", "timeout", "rejected")
        )
        assert lifecycle["bad_replies"] == 0
        # Every client socket is still bound, so each head-drop reaches
        # its sender as an ETIME frame and classifies as rejected.
        assert lifecycle["rejected"] == qos["net_drops"]["expired"]
        assert qos["reject_frames"] == qos["net_drops"]["expired"]
        assert qos["syscalls_shed"] == 0
        # 60k rps is inside this small server's capacity; 240k is past it.
        assert (lifecycle["rejected"] > 0) is (rps > 60_000)

    @pytest.mark.parametrize("workload", ["udp-echo", "memcached"])
    def test_without_a_plan_nothing_is_rejected(self, workload):
        point = _overload_point_job(self._config(workload), 240_000)
        assert point["lifecycle"]["rejected"] == 0
        assert "qos" not in point
