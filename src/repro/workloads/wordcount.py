"""Wordcount from SSD — the GPUfs workload (Figures 13b and 14).

Count occurrences of 64 search strings across a corpus of disk-backed
files.  Three variants, as in the paper:

* ``cpu`` — OpenMP-style: 4 CPU threads, each synchronously reading its
  files chunk-by-chunk and scanning them (I/O and compute alternate, so
  the disk idles while a thread scans: the ~30 MB/s CPU trace).
* ``gpu-nosyscall`` — the pre-GENESYS pattern of Figure 1 (left): the
  CPU loads a batch of files, launches a scan kernel, waits, repeats.
  No I/O/compute overlap plus a kernel-launch round trip per batch.
* ``genesys`` — one kernel; each work-group opens its file and reads it
  chunk-by-chunk at work-group granularity (blocking + weak ordering,
  the paper's best configuration), scanning chunks while dozens of
  other work-groups keep the SSD queue deep.

Scanning 64 patterns naively is expensive on a CPU core and cheap for a
work-group's worth of lanes — which is exactly why offloading frees the
CPU to service system calls (Figure 14's utilisation traces).
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, Generator, List, Tuple

from repro.core.invocation import Granularity, Ordering, WaitMode
from repro.gpu.ops import Compute
from repro.oskernel.fs import O_RDONLY
from repro.system import System
from repro.workloads.base import DeterministicRandom, WorkloadResult, shared_input

#: 64-pattern scan costs.
CPU_SCAN_NS_PER_BYTE = 40.0
GPU_SCAN_CYCLES_PER_BYTE = 64.0
NUM_WORDS = 64
#: The search strings, the same for every corpus.
WORDS: Tuple[bytes, ...] = tuple(b"word%04d" % i for i in range(NUM_WORDS))


def wordcount_corpus(
    num_files: int, file_bytes: int, seed: int
) -> Tuple[Tuple[str, ...], Tuple[bytes, ...], Tuple[Tuple[bytes, int], ...]]:
    """The wordcount input: ``(paths, bodies, expected)``, where
    ``expected`` pairs each of :data:`WORDS` with its count over all
    bodies."""
    rng = DeterministicRandom(seed)
    paths: List[str] = []
    bodies: List[bytes] = []
    expected: Dict[bytes, int] = {w: 0 for w in WORDS}
    for i in range(num_files):
        body = bytearray(rng.text(file_bytes))
        used_slots = set()
        for _ in range(rng.randint(2, 8)):
            word = WORDS[rng.randint(0, NUM_WORDS - 1)]
            # Place on a chunk-aligned stride so chunked scans see it;
            # one word per slot so expected counts stay exact.
            slot_width = len(word) + 8
            slots = (file_bytes // slot_width) - 1
            slot = rng.randint(0, slots)
            if slot in used_slots:
                continue
            used_slots.add(slot)
            body[slot * slot_width : slot * slot_width + len(word)] = word
            expected[word] += 1
        paths.append(f"/data/wc/file{i:04d}.txt")
        bodies.append(bytes(body))
    return tuple(paths), tuple(bodies), tuple(expected.items())


class WordcountWorkload:
    def __init__(
        self,
        system: System,
        num_files: int = 32,
        file_bytes: int = 65536,
        chunk_bytes: int = 32768,
        workgroup_size: int = 64,
        seed: int = 7,
    ):
        if system.kernel.disk is None:
            raise ValueError("wordcount needs a system with a block device")
        self.system = system
        self.file_bytes = file_bytes
        self.chunk_bytes = chunk_bytes
        self.workgroup_size = workgroup_size
        self._input = shared_input(wordcount_corpus, num_files, file_bytes, seed)
        paths, bodies, expected = self._input.value
        self.words: List[bytes] = list(WORDS)
        self._word_pattern = re.compile(b"|".join(map(re.escape, self.words)))
        self.paths: List[str] = list(paths)
        self.expected: Dict[bytes, int] = dict(expected)
        fs = system.kernel.fs
        if not fs.exists("/data/wc"):
            fs.mkdir("/data/wc")
        for path, body in zip(paths, bodies):
            # A new file starts with an empty page cache: reads hit the SSD.
            fs.create_file(path, body, on_disk=True)

    def _count_words(self, chunk: bytes, counts: Dict[bytes, int]) -> None:
        # One scan for all 64 words.  findall's non-overlapping matches
        # equal each word's bytes.count because no proper suffix of a
        # word starts a word (``word%04d`` has ``w`` only at position 0),
        # so occurrences cannot overlap.  Counts are added in word-list
        # order, so ``counts`` keeps the order a pass per word gave it.
        found = Counter(self._word_pattern.findall(chunk))
        if found:
            for word in self.words:
                hits = found[word]
                if hits:
                    counts[word] = counts.get(word, 0) + hits

    # -- CPU variant ------------------------------------------------------------

    def run_cpu(self, threads: int = 4) -> WorkloadResult:
        system = self.system
        kernel = system.kernel
        proc = kernel.create_process("wordcount-cpu")
        counts: Dict[bytes, int] = {}
        start = system.now

        def worker(paths: List[str]) -> Generator:
            buf = system.memsystem.alloc_buffer(self.chunk_bytes)
            for path in paths:
                fd = yield from kernel.call(proc, "open", path, O_RDONLY)
                while True:
                    n = yield from kernel.call(proc, "read", fd, buf, self.chunk_bytes)
                    if n <= 0:
                        break
                    yield from system.cpu.run(n * CPU_SCAN_NS_PER_BYTE)
                    self._count_words(bytes(buf.data[:n]), counts)
                yield from kernel.call(proc, "close", fd)

        def main() -> Generator:
            workers = [
                system.sim.process(worker(self.paths[t::threads]), name=f"wc-t{t}")
                for t in range(threads)
            ]
            for w in workers:
                yield w

        system.run_to_completion(main(), name="wordcount-cpu")
        return WorkloadResult("wordcount", "cpu", system.now - start, {"counts": counts})

    # -- GPU without system calls (Figure 1 left) ----------------------------------

    def run_gpu_nosyscall(self, batch_files: int = 4) -> WorkloadResult:
        system = self.system
        kernel = system.kernel
        proc = kernel.create_process("wordcount-nosys")
        counts: Dict[bytes, int] = {}
        cycles = GPU_SCAN_CYCLES_PER_BYTE
        start = system.now
        staging: List[bytes] = []

        def scan_kernel(ctx) -> Generator:
            data = staging[ctx.group_id]
            per_item = -(-len(data) // ctx.group.size)
            lo = ctx.local_id * per_item
            hi = min(len(data), lo + per_item)
            if lo >= hi:
                return
            yield Compute((hi - lo) * cycles)
            self._count_words(data[lo:hi], counts)

        def main() -> Generator:
            buf = system.memsystem.alloc_buffer(self.file_bytes)
            for batch_start in range(0, len(self.paths), batch_files):
                batch = self.paths[batch_start : batch_start + batch_files]
                staging.clear()
                # Phase 1: the CPU loads the whole batch, serially (the
                # kernel cannot request data itself).
                for path in batch:
                    fd = yield from kernel.call(proc, "open", path, O_RDONLY)
                    data = bytearray()
                    while True:
                        n = yield from kernel.call(proc, "read", fd, buf, self.chunk_bytes)
                        if n <= 0:
                            break
                        data.extend(buf.data[:n])
                    yield from kernel.call(proc, "close", fd)
                    staging.append(bytes(data))
                # Phase 2: launch a kernel over the staged batch.
                yield system.launch(
                    scan_kernel,
                    global_size=len(staging) * self.workgroup_size,
                    workgroup_size=self.workgroup_size,
                    name="wc-scan",
                )

        system.run_to_completion(main(), name="wordcount-nosys")
        return WorkloadResult(
            "wordcount", "gpu-nosyscall", system.now - start, {"counts": counts}
        )

    # -- GENESYS ---------------------------------------------------------------

    def run_genesys(self) -> WorkloadResult:
        system = self.system
        counts: Dict[bytes, int] = {}
        cycles = GPU_SCAN_CYCLES_PER_BYTE
        chunk_bytes = self.chunk_bytes
        paths = self.paths
        bufs: Dict[int, object] = {}
        start = system.now
        # Work-group granularity, blocking, weak ordering: the paper's
        # best-performing configuration for this workload.
        wg_opts = dict(
            granularity=Granularity.WORK_GROUP,
            ordering=Ordering.RELAXED,
            blocking=True,
            wait=WaitMode.POLL,
        )

        def kern(ctx) -> Generator:
            if ctx.group_id >= len(paths):
                return
            path = paths[ctx.group_id]
            fd = yield from ctx.sys.open(path, O_RDONLY, **wg_opts)
            if ctx.group_id not in bufs:
                bufs[ctx.group_id] = system.memsystem.alloc_buffer(chunk_bytes)
            buf = bufs[ctx.group_id]
            offset = 0
            first = True
            while True:
                # GPUfs-style access: a stateful read for the first
                # chunk, position-absolute preads after (Table I lists
                # wordsearch under pread + read).
                if first:
                    n = yield from ctx.sys.read(fd, buf, chunk_bytes, **wg_opts)
                    first = False
                else:
                    n = yield from ctx.sys.pread(fd, buf, chunk_bytes, offset, **wg_opts)
                if n is None or n <= 0:
                    break
                offset += n
                per_item = -(-n // ctx.group.size)
                lo = ctx.local_id * per_item
                hi = min(n, lo + per_item)
                if lo < hi:
                    yield Compute((hi - lo) * cycles)
                    if ctx.is_group_leader:
                        # Functional tally once per chunk (the leader's
                        # lane aggregates, mirroring an LDS reduction).
                        # Only the leader refills ``buf``, and not before
                        # this tally, so the chunk is still there.
                        self._count_words(bytes(buf.data[:n]), counts)
            yield from ctx.sys.close(fd, **wg_opts)

        system.run_kernel(
            kern,
            global_size=len(paths) * self.workgroup_size,
            workgroup_size=self.workgroup_size,
            name="wordcount-genesys",
        )
        return WorkloadResult(
            "wordcount", "genesys", system.now - start, {"counts": counts}
        )
