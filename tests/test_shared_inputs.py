"""Workload inputs are built once and shared: the memo in
``repro.workloads.base`` and copy-on-write tmpfs bodies.

Machines built while another machine holds the same input share one
copy of it, each machine's changes stay its own, and the memo keeps no
input once the last workload holding it is gone.
"""

import gc
import hashlib
import weakref

import pytest

from repro import experiments
from repro.oskernel.fs import O_RDWR, O_TRUNC
from repro.system import System
from repro.workloads import base
from repro.workloads.grepwl import GrepWorkload, grep_corpus
from repro.workloads.memcachedwl import HashTable, table_contents
from repro.workloads.signal_search import SignalSearchWorkload, signal_blocks
from repro.workloads.wordcount import WordcountWorkload, wordcount_corpus


def fingerprint(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(item if isinstance(item, bytes) else repr(item).encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def files(workload):
    fs = workload.system.kernel.fs
    for path in workload.paths:
        yield path
        yield fs.read_whole(path)


def grep_print(workload):
    return fingerprint([*workload.words, *files(workload), *workload.expected_matches])


def wordcount_print(workload):
    return fingerprint([*workload.words, *files(workload), *workload.expected.items()])


def signal_print(workload):
    return fingerprint([*workload.blocks, *workload.expected.items()])


def table_print(table):
    pairs = (e for bucket in table.buckets for pair in bucket for e in pair)
    return fingerprint([*pairs, *table.keys])


def make_grep(**params):
    return GrepWorkload(System(), **params)


def make_wordcount(**params):
    return WordcountWorkload(System(), **params)


def make_signal(**params):
    return SignalSearchWorkload(System(), **params)


KINDS = {
    # kind: (make, fingerprint, builder, the builder's argument names,
    #        the defaults the workload passes for those not given)
    "grep": (make_grep, grep_print, grep_corpus,
             ("num_files", "file_bytes", "num_words", "match_fraction", "seed"),
             dict(num_words=16, match_fraction=0.5, seed=42)),
    "wordcount": (make_wordcount, wordcount_print, wordcount_corpus,
                  ("num_files", "file_bytes", "seed"), dict(seed=7)),
    "signal": (make_signal, signal_print, signal_blocks,
               ("num_blocks", "block_bytes", "seed"), dict(seed=11)),
    "table": (HashTable, table_print, table_contents,
              ("num_buckets", "elems_per_bucket", "value_bytes", "seed"), {}),
}

#: Fingerprints of each input as the code before the memo built it:
#: table1's grep, wordcount and signal inputs, fig15's 64-element
#: sweep table, and a small case per builder that keeps to the scalar
#: generator (and, for the table, to per-value draws).
RECORDED = [
    ("grep", dict(num_files=8, file_bytes=16384), "00d091c8e8d96b56"),
    ("grep", dict(num_files=5, file_bytes=3000, num_words=4, match_fraction=0.7, seed=3),
     "a7be6584067a9f1e"),
    ("wordcount", dict(num_files=8, file_bytes=16384), "4d224af62c98d49d"),
    ("wordcount", dict(num_files=3, file_bytes=5000, seed=9), "f5dfc21cac8222be"),
    ("signal", dict(num_blocks=8, block_bytes=8192), "412df381558534e6"),
    ("signal", dict(num_blocks=3, block_bytes=1001, seed=5), "a50e7dec1c9469ff"),
    ("table", dict(num_buckets=8, elems_per_bucket=64, value_bytes=1024, seed=23),
     "6d058a5b8bc71d3a"),
    ("table", dict(num_buckets=3, elems_per_bucket=16, value_bytes=20, seed=5),
     "5e32ae4d8dc4dcec"),
]

GREP = dict(num_files=4, file_bytes=8192)


def call(system, proc, name, *args):
    def body():
        return (yield from system.kernel.call(proc, name, *args))

    return system.sim.run_process(body())


@pytest.mark.parametrize(
    "kind,params,recorded", RECORDED,
    ids=[f"{kind}-{i}" for i, (kind, _p, _r) in enumerate(RECORDED)],
)
def test_memo_hit_equals_a_fresh_build(kind, params, recorded):
    make, fingerprint_of, builder, names, defaults = KINDS[kind]
    first = make(**params)
    second = make(**params)
    assert second._input is first._input
    assert fingerprint_of(second) == recorded
    args = [{**defaults, **params}[name] for name in names]
    assert builder(*args) == second._input.value


class TestSharing:
    def test_two_machines_share_every_file_body(self):
        a, b = make_grep(**GREP), make_grep(**GREP)
        fs_a, fs_b = a.system.kernel.fs, b.system.kernel.fs
        for path in a.paths:
            body = fs_a.resolve(path).data
            assert type(body) is bytes
            assert fs_b.resolve(path).data is body

    def test_each_argument_is_part_of_the_key(self):
        first = make_grep(**GREP)
        for change in (dict(seed=43), dict(num_words=15), dict(match_fraction=0.4),
                       dict(num_files=3), dict(file_bytes=4096)):
            other = make_grep(**{**GREP, **change})
            assert other._input is not first._input, change

    def test_two_tables_share_values_not_lists(self):
        a = HashTable(4, 8, 16, seed=1)
        b = HashTable(4, 8, 16, seed=1)
        for bucket_a, bucket_b in zip(a.buckets, b.buckets):
            assert bucket_a is not bucket_b
            for (key_a, value_a), (key_b, value_b) in zip(bucket_a, bucket_b):
                assert key_a is key_b and value_a is value_b
        assert a.keys is not b.keys


def pwrite(system, proc, path):
    fd = call(system, proc, "open", path, O_RDWR)
    buf = system.memsystem.alloc_buffer(4)
    buf.data[:] = b"XXXX"
    call(system, proc, "pwrite", fd, buf, 4, 10)


def ftruncate(system, proc, path):
    fd = call(system, proc, "open", path, O_RDWR)
    call(system, proc, "ftruncate", fd, 100)


def open_trunc(system, proc, path):
    call(system, proc, "open", path, O_RDWR | O_TRUNC)


def mmap_store(system, proc, path):
    fd = call(system, proc, "open", path, O_RDWR)
    mapping = call(system, proc, "mmap", 64, fd)
    mapping.view()[0:4] = b"MMAP"


@pytest.mark.parametrize("mutate", [pwrite, ftruncate, open_trunc, mmap_store])
def test_a_change_stays_on_its_machine(mutate):
    a, b = make_grep(**GREP), make_grep(**GREP)
    path = a.paths[0]
    shared = b.system.kernel.fs.resolve(path).data
    original = bytes(bytearray(shared))
    mutate(a.system, a.system.kernel.create_process("writer"), path)
    assert a.system.kernel.fs.read_whole(path) != original
    assert b.system.kernel.fs.resolve(path).data is shared
    assert shared == original
    assert a._input.value[2][0] is shared


def test_set_on_one_table_leaves_the_other():
    a = HashTable(4, 8, 16, seed=1)
    b = HashTable(4, 8, 16, seed=1)
    key = a.keys[0]
    before = b.get(key)
    assert a.set(key, b"new-value") is True
    assert a.set(b"fresh", b"v") is False
    assert b.get(key) == before
    assert b.get(b"fresh") is None
    assert table_print(b) == table_print(HashTable(4, 8, 16, seed=1))


def test_memo_keeps_no_input_once_its_holders_are_gone():
    gc.collect()
    live = len(base._INPUTS)
    a, b = make_grep(**GREP), make_grep(**GREP)
    holder = weakref.ref(a._input)
    assert len(base._INPUTS) == live + 1
    del a, b
    gc.collect()
    assert holder() is None
    assert len(base._INPUTS) == live


def test_a_build_runs_only_while_no_holder_lives():
    builds = []

    def build(n):
        builds.append(n)
        return (n,)

    first = base.shared_input(build, 3)
    assert base.shared_input(build, 3) is first
    assert base.shared_input(build, 4) is not first
    assert builds == [3, 4]
    del first
    gc.collect()
    assert base.shared_input(build, 3).value == (3,)
    assert builds == [3, 4, 3]


def test_a_scope_holds_its_inputs_until_it_ends():
    builds = []

    def build(n):
        builds.append(n)
        return (n,)

    with base.holding_inputs():
        holder = weakref.ref(base.shared_input(build, 5))
        assert holder() is not None
        assert base.shared_input(build, 5) is holder()
    assert builds == [5]
    assert holder() is None


@pytest.mark.parametrize(
    "name,builds,machines",
    [("fig13a", 1, 5), ("fig15", 2, 7), ("fig12", 1, 2), ("fig14", 1, 2)],
)
def test_an_experiment_builds_each_input_once(name, builds, machines, monkeypatch):
    """Every variant of an experiment shares one build of each input,
    however its workloads and machines die between variants."""
    built, systems = [], []

    class CountedInput(base.SharedInput):
        __slots__ = ()

        def __init__(self, value):
            built.append(value)
            super().__init__(value)

    init = System.__init__

    def counted_init(system, *args, **kwargs):
        systems.append(None)
        init(system, *args, **kwargs)

    monkeypatch.setattr(base, "SharedInput", CountedInput)
    monkeypatch.setattr(System, "__init__", counted_init)
    gc.collect()
    experiments.run(name)
    assert (len(built), len(systems)) == (builds, machines)
