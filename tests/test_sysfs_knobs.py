"""The /sys/genesys knobs, checked once over the whole knob table.

Every row of :data:`repro.core.genesys.SYSFS_KNOBS` must reject
malformed and out-of-range writes with EINVAL (leaving state untouched)
and round-trip a valid write through a read, so no knob can ship
unvalidated.  The expectations below name each knob's backing state
independently of the table, and a coverage test pins the two together.
"""

import pytest

from repro.core.coalescing import CoalescingConfig
from repro.core.genesys import SYSFS_KNOBS
from repro.machine import small_machine
from repro.oskernel.errors import Errno, OsError
from repro.oskernel.fs import O_RDWR
from repro.probes import policy
from repro.system import System


def make_system():
    return System(
        config=small_machine(),
        coalescing=CoalescingConfig(window_ns=5000, max_batch=4),
    )


def sysfs_write(system, path, payload: bytes):
    """Process body: one open/write/close of ``path`` by the host."""
    kernel = system.kernel
    proc = system.host
    fd = yield from kernel.call(proc, "open", path, O_RDWR)
    buf = system.memsystem.alloc_buffer(max(len(payload), 1))
    buf.data[: len(payload)] = payload
    try:
        yield from kernel.call(proc, "write", fd, buf, len(payload))
    finally:
        yield from kernel.call(proc, "close", fd)


def write_sysfs(system, path, payload: bytes):
    system.sim.run_process(sysfs_write(system, path, payload))


def read_sysfs(system, path) -> bytes:
    return system.kernel.fs.read_whole(path).strip()


#: knob -> (backing state, a valid write, the value it stores).  Written
#: out by hand so the table is checked against an independent oracle.
KNOBS = {
    "coalescing_window_ns": (lambda s: s.genesys.coalescing.window_ns, b"20000", 20000.0),
    "coalescing_max_batch": (lambda s: s.genesys.coalescing.max_batch, b"16", 16),
    "completion_log_limit": (lambda s: s.genesys.completion_log_limit, b"16\n", 16),
    "watchdog_period_ns": (lambda s: s.genesys.watchdog_period_ns, b"50000", 50000.0),
    "slot_timeout_ns": (lambda s: s.genesys.slot_timeout_ns, b"100000", 100000.0),
    "worker_timeout_ns": (lambda s: s.genesys.worker_timeout_ns, b"250000", 250000.0),
    "qos/deadline_ns": (lambda s: s.genesys.qos_deadline_ns, b"250000", 250000.0),
    "qos/admission": (lambda s: s.kernel.net.sojourn_budget_ns, b" 200000\n", 200000.0),
    "qos/brownout": (lambda s: s.genesys.qos_brownout_enabled, b"0", 0),
}

ROWS = {row[0]: row for row in SYSFS_KNOBS}


def bad_writes():
    """(knob, payload) for every write each row must refuse."""
    cases = []
    for name, kind, lo, hi, _ in SYSFS_KNOBS:
        payloads = [b"not-a-number", b"nan", b"-1", b"%d" % (lo - 1)]
        payloads.append(b"1e18" if kind is float else b"%d" % (hi + 1))
        if kind is int:
            payloads.append(b"2.5")
        for payload in dict.fromkeys(payloads):
            cases.append(pytest.param(name, payload, id=f"{name}={payload.decode()}"))
    return cases


class TestKnobTable:
    def test_table_and_oracle_cover_the_same_nine_knobs(self):
        assert len(SYSFS_KNOBS) == 9
        assert set(ROWS) == set(KNOBS)

    def test_every_knob_is_a_sysfs_file(self):
        system = make_system()
        for name in KNOBS:
            assert system.kernel.fs.exists(f"/sys/genesys/{name}")

    @pytest.mark.parametrize("name,payload", bad_writes())
    def test_bad_write_fails_einval_and_leaves_state(self, name, payload):
        system = make_system()
        state = KNOBS[name][0]
        before = state(system)
        with pytest.raises(OsError) as exc:
            write_sysfs(system, f"/sys/genesys/{name}", payload)
        assert exc.value.errno == Errno.EINVAL
        assert name in str(exc.value)
        assert state(system) == before
        assert read_sysfs(system, f"/sys/genesys/{name}") == b"%d" % before

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_valid_write_round_trips(self, name):
        system = make_system()
        state, payload, value = KNOBS[name]
        write_sysfs(system, f"/sys/genesys/{name}", payload)
        assert state(system) == value
        assert type(state(system)) is ROWS[name][1]
        assert read_sysfs(system, f"/sys/genesys/{name}") == b"%d" % value

    @pytest.mark.parametrize(
        "name,default",
        [
            ("coalescing_window_ns", b"5000"),
            ("coalescing_max_batch", b"4"),
            ("completion_log_limit", b"0"),
            ("watchdog_period_ns", b"0"),
            ("slot_timeout_ns", b"2000000"),
            ("worker_timeout_ns", b"500000"),
            ("qos/deadline_ns", b"0"),
            ("qos/admission", b"0"),
            ("qos/brownout", b"1"),
        ],
    )
    def test_defaults_read_back(self, name, default):
        assert read_sysfs(make_system(), f"/sys/genesys/{name}") == default

    def test_reads_follow_direct_state_changes(self):
        system = make_system()
        system.genesys.qos_deadline_ns = 7_000.0
        assert read_sysfs(system, "/sys/genesys/qos/deadline_ns") == b"7000"

    def test_whitespace_tolerated(self):
        system = make_system()
        write_sysfs(system, "/sys/genesys/coalescing_window_ns", b" 7500\n")
        assert system.genesys.coalescing.window_ns == 7500


class TestKnobSideEffects:
    def test_coalescing_writes_update_the_coalescer_config(self):
        """The knobs set the defaults the coalesce.window/batch hooks
        start from: the coalescer decides from the same config object."""
        system = make_system()
        write_sysfs(system, "/sys/genesys/coalescing_max_batch", b"16")
        assert system.genesys.coalescer.config.max_batch == 16

    def test_log_limit_write_trims_the_log(self):
        system = make_system()

        def kern(ctx):
            yield from ctx.sys.getrusage()

        system.run_kernel(kern, 4, 4, name="fill-log")
        assert len(system.genesys.completion_log) == 4
        write_sysfs(system, "/sys/genesys/completion_log_limit", b"1")
        assert len(system.genesys.completion_log) == 1
        assert system.genesys.completion_log_dropped == 3

    @pytest.mark.parametrize("payload", [b"0.5", b"1e-9"])
    def test_brownout_rejects_fractions(self, payload):
        """A fraction used to truncate to 0 and silently disable the
        brownout controller."""
        system = make_system()
        with pytest.raises(OsError) as exc:
            write_sysfs(system, "/sys/genesys/qos/brownout", payload)
        assert exc.value.errno == Errno.EINVAL
        assert system.genesys.qos_brownout_enabled == 1

    def test_watchdog_write_while_idle_does_not_arm(self):
        system = make_system()
        write_sysfs(system, "/sys/genesys/watchdog_period_ns", b"50000")
        assert system.genesys._watchdog_handle is None

    def test_watchdog_write_arms_while_work_is_in_flight(self):
        """A wedged slot with the watchdog off would hang forever; arming
        the watchdog through sysfs mid-flight must start supervision at
        once (no new submission is coming to arm it), and the sysfs slot
        timeout then reclaims the slot."""
        system = make_system()
        genesys = system.genesys
        system.probes.attach_policy("fault.slot", policy.fixed("wedge"))
        write_sysfs(system, "/sys/genesys/slot_timeout_ns", b"100000")
        results = {}
        armed = []

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage(blocking=True)

        def body():
            system.launch(kern, 1, 1)
            yield system.sim.timeout(200_000)
            assert genesys.outstanding == 1 and genesys._watchdog_handle is None
            yield from sysfs_write(system, "/sys/genesys/watchdog_period_ns", b"50000")
            armed.append(genesys._watchdog_handle is not None)

        # Bounded: were the write not to arm, the wedged caller would
        # poll forever.
        system.sim.process(body())
        system.sim.run(until=2_000_000)
        assert armed == [True]
        assert results == {0: -int(Errno.ETIMEDOUT)}
        assert genesys.slots_reclaimed == 1
