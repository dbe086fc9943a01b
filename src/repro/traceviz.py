"""Chrome-trace export of a simulation run: the one Trace Event Format writer.

``export_chrome_trace(system)`` turns a finished :class:`~repro.system.
System` into the Trace Event Format (TEF) consumed by chrome://tracing
and Perfetto (https://ui.perfetto.dev).  No other module writes TEF.

Every timeline arrives as plain *track records*: a named
:class:`Thread`, a :class:`Counter` of ``(t_ns, value)`` samples, a
:class:`Slice` or a :class:`Flow` arrow.  Records carry simulated
nanoseconds and no pid.  Observers with tracks (span tracers and
metrics hubs, which also carry every ``--attach counter|hist|rate``)
return them from ``trace_tracks()`` and name their process in
``trace_process``; :func:`trace_events` looks the pid
up in :data:`PROCESSES`, converts to microseconds, and names each
process and thread once, however many sources share it.  The machine's
own tracks are CPU-side syscall servicing slices per hw wavefront, and
CPU/GPU utilisation plus disk throughput counters.

Usage::

    system = System()
    ... run workloads ...
    from repro.traceviz import export_chrome_trace, write_chrome_trace
    write_chrome_trace(system, "run.trace.json")
"""

from __future__ import annotations

import json
from typing import (
    TYPE_CHECKING,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.system import System

#: The one pid table: process -> (pid, label).  TEF pids are arbitrary
#: labels; Perfetto lists the processes in pid order.
PROCESSES = {
    "syscalls": (1, "GENESYS syscall servicing"),
    "counters": (2, "machine counters"),
    "spans": (4, "syscall spans"),
    "metrics": (5, "metrics"),
}


class Thread(NamedTuple):
    """A named thread track; ``sort_index`` pins its place in Perfetto."""

    tid: int
    name: str
    sort_index: Optional[int] = None

    def events(self, pid: int) -> List[dict]:
        out = [{"name": "thread_name", "ph": "M", "pid": pid, "tid": self.tid,
                "args": {"name": self.name}}]
        if self.sort_index is not None:
            out.append({"name": "thread_sort_index", "ph": "M", "pid": pid,
                        "tid": self.tid, "args": {"sort_index": self.sort_index}})
        return out


class Counter(NamedTuple):
    """A counter track: each ``(t_ns, value)`` sample becomes
    ``args[arg]``, rounded to ``digits`` decimals."""

    name: str
    cat: str
    samples: Sequence[Tuple[float, float]]
    arg: str = "value"
    digits: int = 4

    def events(self, pid: int) -> List[dict]:
        return [
            {"name": self.name, "cat": self.cat, "ph": "C", "ts": t_ns / 1000.0,
             "pid": pid, "args": {self.arg: round(value, self.digits)}}
            for t_ns, value in self.samples
        ]


class Slice(NamedTuple):
    """A complete event on thread ``tid``: ``dur_ns`` from ``t0_ns``."""

    tid: int
    name: str
    cat: str
    t0_ns: float
    dur_ns: float
    args: dict

    def events(self, pid: int) -> List[dict]:
        return [{"name": self.name, "cat": self.cat, "ph": "X",
                 "ts": self.t0_ns / 1000.0, "dur": self.dur_ns / 1000.0,
                 "pid": pid, "tid": self.tid, "args": self.args}]


class Flow(NamedTuple):
    """An arrow from ``src_ns`` on thread ``src_tid`` to ``dst_ns`` on
    ``dst_tid``."""

    flow_id: int
    name: str
    src_tid: int
    src_ns: float
    dst_tid: int
    dst_ns: float

    def events(self, pid: int) -> List[dict]:
        common = {"name": self.name, "cat": "flow", "id": self.flow_id, "pid": pid}
        return [
            {**common, "ph": "s", "ts": self.src_ns / 1000.0, "tid": self.src_tid},
            {**common, "ph": "f", "bp": "e", "ts": self.dst_ns / 1000.0,
             "tid": self.dst_tid},
        ]


Record = Union[Thread, Counter, Slice, Flow]
#: ``(process, records)`` pairs, the writer's whole input.
Tracks = Iterable[Tuple[str, Iterable[Record]]]


def trace_events(tracks: Tracks) -> List[dict]:
    """TEF events for ``tracks``.

    A process is named at its first record, so a source with no records
    adds nothing; a thread is named once however many sources repeat
    its :class:`Thread` record.
    """
    events: List[dict] = []
    named: set = set()
    for process, records in tracks:
        pid, label = PROCESSES[process]
        for record in records:
            if pid not in named:
                named.add(pid)
                events.append({"name": "process_name", "ph": "M", "pid": pid,
                               "args": {"name": label}})
            if isinstance(record, Thread):
                if (pid, record.tid) in named:
                    continue
                named.add((pid, record.tid))
            events.extend(record.events(pid))
    return events


def program_tracks(programs: Iterable[object]) -> List[Tuple[str, List[Record]]]:
    """``(process, records)`` of every program that draws tracks."""
    return [
        (program.trace_process, program.trace_tracks())  # type: ignore[attr-defined]
        for program in programs
        if hasattr(program, "trace_tracks")
    ]


def chrome_trace(tracks: Tracks, other_data: dict) -> dict:
    """A complete TEF document over ``tracks``."""
    return {
        "traceEvents": trace_events(tracks),
        "displayTimeUnit": "ns",
        "otherData": other_data,
    }


def _syscall_tracks(system: "System") -> List[Record]:
    log = system.genesys.completion_log
    tracks: List[Record] = [
        Thread(hw_id, f"hw wavefront {hw_id}")
        for hw_id in sorted({hw_id for _, hw_id, _, _ in log})
    ]
    tracks += [
        Slice(hw_id, name, "syscall", start_ns, max(end_ns - start_ns, 1),
              {"hw_wavefront": hw_id})
        for name, hw_id, start_ns, end_ns in log
    ]
    return tracks


def _counter_tracks(system: "System") -> List[Record]:
    tracks: List[Record] = [Thread(0, "utilization + io")]
    for label, tracker in (
        ("cpu_utilization", system.cpu.utilization),
        ("gpu_slot_utilization", system.gpu.utilization),
    ):
        samples = [(start, fraction) for start, _end, fraction in tracker.segments()]
        tracks.append(Counter(label, "utilization", samples, arg="busy"))
    disk = system.kernel.disk
    if disk is not None and system.now > 0:
        series = disk.throughput_series(max(1.0, system.now / 64))
        samples = [(when, rate * 1000.0) for when, rate in series]
        tracks.append(
            Counter("disk_throughput_MBps", "io", samples, arg="MBps", digits=2)
        )
    return tracks


def export_chrome_trace(system: "System") -> dict:
    """Build the TEF dict for a finished run: the machine's own tracks,
    then every attached program's."""
    tracks = [
        ("syscalls", _syscall_tracks(system)),
        ("counters", _counter_tracks(system)),
    ]
    return chrome_trace(
        tracks + program_tracks(system.probes.programs),
        {
            "generator": "repro (GENESYS reproduction)",
            "simulated_ns": system.now,
            "syscalls": system.genesys.syscalls_completed,
        },
    )


def write_chrome_trace(system: "System", path: str) -> dict:
    """Export and write the trace JSON to ``path``; returns the dict."""
    trace = export_chrome_trace(system)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace
