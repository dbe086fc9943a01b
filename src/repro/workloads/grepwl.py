"""grep -F -l on the GPU (paper Section VIII-C, Figure 13a).

Given a word list and a file list, report which files contain any of the
words, printing each filename to the console *as soon as it is found*.
The paper stresses that GPUfs cannot express this workload without
refactoring (custom APIs, no work-item-granularity invocation, no
console), while GENESYS ports it in hours using plain POSIX.

Variants:

* ``cpu`` — single-threaded CPU grep.
* ``openmp`` — 4 CPU threads, files partitioned across them.
* ``genesys-wi-poll`` / ``genesys-wi-halt`` — one work-item per file;
  the first match immediately writes the filename (non-blocking
  work-item invocation) and the work-item early-exits.  Waiting uses
  polling or halt-resume.
* ``genesys-wg`` — one work-group per file; the group shares the fd,
  every lane scans its slice of each chunk in parallel, and matches
  OR-reduce across the group.

Work-item variants scan chunk-by-chunk via stateful ``read`` (each
work-item owns its fd) and stop at the first match — the early-exit the
paper credits for work-item invocation.
"""

from __future__ import annotations

import re
from typing import Generator, List, Optional, Sequence, Tuple

from repro.core.invocation import Granularity, Ordering, WaitMode
from repro.gpu.ops import Barrier, Compute
from repro.oskernel.fs import O_RDONLY
from repro.system import System
from repro.workloads.base import DeterministicRandom, WorkloadResult, shared_input

#: Multi-pattern scan costs: CPU Aho-Corasick-ish vs per-work-item GPU.
CPU_SCAN_NS_PER_BYTE = 2.5
GPU_SCAN_CYCLES_PER_BYTE = 6.0


def grep_corpus(
    num_files: int,
    file_bytes: int,
    num_words: int,
    match_fraction: float,
    seed: int,
) -> Tuple[Tuple[bytes, ...], Tuple[str, ...], Tuple[bytes, ...], Tuple[str, ...]]:
    """The grep input: ``(words, paths, bodies, expected_matches)``.

    About ``match_fraction`` of the ``num_files`` bodies hold one word
    at a random position; ``expected_matches`` are their paths.
    """
    rng = DeterministicRandom(seed)
    words = tuple(b"needle%02d" % i for i in range(num_words))
    paths: List[str] = []
    bodies: List[bytes] = []
    expected_matches: List[str] = []
    for i in range(num_files):
        path = f"/data/grep/file{i:04d}.txt"
        body = bytearray(rng.text(file_bytes))
        if rng.random() < match_fraction:
            word = words[rng.randint(0, num_words - 1)]
            pos = rng.randint(0, file_bytes - len(word) - 1)
            body[pos : pos + len(word)] = word
            expected_matches.append(path)
        paths.append(path)
        bodies.append(bytes(body))
    return words, tuple(paths), tuple(bodies), tuple(expected_matches)


class GrepWorkload:
    def __init__(
        self,
        system: System,
        num_files: int = 32,
        file_bytes: int = 65536,
        num_words: int = 16,
        match_fraction: float = 0.5,
        chunk_bytes: int = 16384,
        seed: int = 42,
    ):
        self.system = system
        self.file_bytes = file_bytes
        self.chunk_bytes = chunk_bytes
        self._input = shared_input(
            grep_corpus, num_files, file_bytes, num_words, match_fraction, seed
        )
        words, paths, bodies, expected_matches = self._input.value
        self.words: List[bytes] = list(words)
        self._word_pattern = re.compile(b"|".join(map(re.escape, self.words)))
        self.paths: List[str] = list(paths)
        self.expected_matches: List[str] = list(expected_matches)
        fs = system.kernel.fs
        if not fs.exists("/data/grep"):
            fs.mkdir("/data/grep")
        for path, body in zip(paths, bodies):
            fs.create_file(path, body)

    # -- functional scan -------------------------------------------------------

    def _contains_word(self, chunk: bytes) -> bool:
        # One scan for every word: some alternative matches somewhere
        # exactly when some word is a substring.
        return self._word_pattern.search(chunk) is not None

    # -- CPU variants ------------------------------------------------------------

    def run_cpu(self, threads: int = 1) -> WorkloadResult:
        system = self.system
        kernel = system.kernel
        proc = kernel.create_process(f"grep-cpu{threads}")
        found: List[str] = []
        start = system.now

        def scan_files(paths: Sequence[str]) -> Generator:
            buf = system.memsystem.alloc_buffer(self.chunk_bytes)
            for path in paths:
                fd = yield from kernel.call(proc, "open", path, O_RDONLY)
                offset = 0
                while True:
                    n = yield from kernel.call(
                        proc, "pread", fd, buf, self.chunk_bytes, offset
                    )
                    if n <= 0:
                        break
                    yield from system.cpu.run(n * CPU_SCAN_NS_PER_BYTE)
                    if self._contains_word(bytes(buf.data[:n])):
                        line = system.memsystem.alloc_buffer(len(path) + 1)
                        line.data[:] = (path + "\n").encode()
                        yield from kernel.call(proc, "write", 1, line, line.size)
                        found.append(path)
                        break
                    offset += n
                yield from kernel.call(proc, "close", fd)

        def main() -> Generator:
            per_thread = [self.paths[t::threads] for t in range(threads)]
            workers = [
                system.sim.process(scan_files(chunk), name=f"grep-t{t}")
                for t, chunk in enumerate(per_thread)
            ]
            for worker in workers:
                yield worker

        system.run_to_completion(main(), name=f"grep-cpu{threads}")
        variant = "cpu" if threads == 1 else f"openmp{threads}"
        return WorkloadResult(
            "grep", variant, system.now - start, {"files_matched": sorted(found)}
        )

    # -- GENESYS variants ----------------------------------------------------------

    def run_genesys(
        self,
        granularity: Granularity = Granularity.WORK_ITEM,
        wait: WaitMode = WaitMode.POLL,
        workgroup_size: int = 64,
    ) -> WorkloadResult:
        system = self.system
        paths = self.paths
        chunk_bytes = self.chunk_bytes
        contains = self._contains_word
        cycles = GPU_SCAN_CYCLES_PER_BYTE
        start = system.now
        found: List[str] = []
        bufs = {}

        def file_index(ctx) -> Optional[int]:
            if granularity is Granularity.WORK_ITEM:
                idx = ctx.global_id
            else:
                idx = ctx.group_id
            return idx if idx < len(paths) else None

        max_word = max(len(word) for word in self.words)

        def emit_match(ctx, path: str) -> Generator:
            line = system.memsystem.alloc_buffer(len(path) + 1)
            line.data[:] = (path + "\n").encode()
            # First match: write the filename right away, non-blocking —
            # no need to wait for other files.
            yield from ctx.sys.write(1, line, line.size, blocking=False)
            found.append(path)

        def wi_kern(ctx) -> Generator:
            idx = file_index(ctx)
            if idx is None:
                return
            path = paths[idx]
            fd = yield from ctx.sys.open(path, O_RDONLY, wait=wait)
            buf = bufs.setdefault(idx, system.memsystem.alloc_buffer(chunk_bytes))
            matched = False
            while not matched:
                # Each work-item owns its fd, so the stateful read's
                # shared offset is private — Table I lists grep under
                # plain read/open/close.
                n = yield from ctx.sys.read(fd, buf, chunk_bytes, wait=wait)
                if n <= 0:
                    break
                yield Compute(n * cycles)
                if contains(bytes(buf.data[:n])):
                    matched = True
                    yield from emit_match(ctx, path)
            yield from ctx.sys.close(fd, blocking=False)

        def wg_kern(ctx) -> Generator:
            """Work-group variant: the group shares the fd and every
            lane scans its slice of each chunk in parallel; matches
            OR-reduce through group-shared state."""
            idx = file_index(ctx)
            if idx is None:
                return
            path = paths[idx]
            opts = dict(
                granularity=Granularity.WORK_GROUP,
                ordering=Ordering.RELAXED, wait=wait,
            )
            fd = yield from ctx.sys.open(path, O_RDONLY, **opts)
            buf = bufs.setdefault(idx, system.memsystem.alloc_buffer(chunk_bytes))
            shared = ctx.group.shared
            while True:
                # Producer call: the result broadcasts to every lane.
                n = yield from ctx.sys.read(fd, buf, chunk_bytes, **opts)
                if n <= 0:
                    break
                # Lane-parallel scan: each lane takes a slice (with a
                # word-length overlap so boundary matches aren't missed).
                per_lane = -(-n // ctx.group.size)
                lo = ctx.local_id * per_lane
                hi = min(n, lo + per_lane + max_word - 1)
                if lo < n:
                    yield Compute((hi - lo) * cycles)
                    if contains(bytes(buf.data[lo:hi])):
                        shared["hit"] = True
                yield Barrier()
                if shared.get("hit"):
                    if ctx.is_group_leader:
                        yield from emit_match(ctx, path)
                    break
                yield Barrier()
            yield from ctx.sys.close(
                fd, granularity=Granularity.WORK_GROUP,
                ordering=Ordering.RELAXED, blocking=False,
            )

        kern = wi_kern if granularity is Granularity.WORK_ITEM else wg_kern

        if granularity is Granularity.WORK_ITEM:
            global_size = len(paths)
            wg = min(workgroup_size, global_size)
        else:
            global_size = len(paths) * workgroup_size
            wg = workgroup_size
        system.run_kernel(kern, global_size, wg, name="grep-gpu")
        variant = {
            (Granularity.WORK_ITEM, WaitMode.POLL): "genesys-wi-poll",
            (Granularity.WORK_ITEM, WaitMode.HALT_RESUME): "genesys-wi-halt",
            (Granularity.WORK_GROUP, WaitMode.POLL): "genesys-wg",
            (Granularity.WORK_GROUP, WaitMode.HALT_RESUME): "genesys-wg-halt",
        }[(granularity, wait)]
        return WorkloadResult(
            "grep", variant, system.now - start, {"files_matched": sorted(found)}
        )

    def console_lines(self) -> List[str]:
        """Filenames printed to the console so far."""
        return [line for line in self.system.kernel.terminal.lines if line]
