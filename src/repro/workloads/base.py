"""Shared workload plumbing: results, shared inputs and deterministic
data generation."""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional


@dataclass
class WorkloadResult:
    """Outcome of one workload variant run."""

    name: str
    variant: str
    runtime_ns: float
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def runtime_ms(self) -> float:
        return self.runtime_ns / 1e6

    def __repr__(self) -> str:
        return (
            f"WorkloadResult({self.name}/{self.variant}: "
            f"{self.runtime_ms:.3f} ms, {self.metrics})"
        )


class SharedInput:
    """Weak-referenceable holder of one built workload input."""

    __slots__ = ("value", "__weakref__")

    def __init__(self, value: Any):
        self.value = value


_INPUTS: "weakref.WeakValueDictionary[tuple, SharedInput]" = (
    weakref.WeakValueDictionary()
)

#: The holders an open :func:`holding_inputs` block keeps alive, or
#: None outside one.
_HELD: Optional[Dict[tuple, SharedInput]] = None


@contextmanager
def holding_inputs() -> Iterator[None]:
    """Keep every input asked for inside the block alive until it ends.

    Outside such a block the memo is weak: an input dies with the last
    workload holding it, and a variant built after that builds it
    again.  :func:`repro.experiments.run` runs each experiment inside
    one block, so all its variants share one build of each input.  A
    nested block adds nothing: the outer one holds.
    """
    global _HELD
    if _HELD is not None:
        yield
        return
    _HELD = {}
    try:
        yield
    finally:
        _HELD = None


def shared_input(build: Callable[..., Any], *args: Any) -> SharedInput:
    """The holder of ``build(*args)``, built only when no live holder
    for the same builder and arguments exists.

    Every variant of a case study runs over one input, so a machine
    built while another still holds that input reuses it.  The caller
    keeps the holder as an attribute; the memo keeps only a weak
    reference, so the input lives exactly as long as some workload
    holds it and goes with the last machine that does, or, inside
    :func:`holding_inputs`, until the block ends.

    This is module state, safe only under two rules:

    * every value is immutable (tuples of ``bytes``, ``str`` and
      ``int``), so no caller can change what another one reads; a
      caller copies what it mutates;
    * ``build`` is a pure module-level function that reads nothing but
      ``args``, so the key ``(build, *args)`` names exactly one value.
    """
    key = (build, *args)
    holder = _INPUTS.get(key)
    if holder is None:
        holder = _INPUTS[key] = SharedInput(build(*args))
    if _HELD is not None:
        _HELD[key] = holder
    return holder


try:  # vectorised corpus generation; the scalar path needs nothing
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Maps a random byte to lowercase ascii, matching 97 + (b % 26).
_TEXT_TABLE = bytes(97 + (i % 26) for i in range(256))

_U64 = 0xFFFFFFFFFFFFFFFF


def _xs_step(x: int) -> int:
    """One xorshift64 step (must match DeterministicRandom.next_u64)."""
    x ^= (x << 13) & _U64
    x ^= x >> 7
    x ^= (x << 17) & _U64
    return x


def _xs_apply(cols, x: int) -> int:
    """Apply a GF(2)-linear map (given by its 64 basis images) to x."""
    out = 0
    i = 0
    while x:
        if x & 1:
            out ^= cols[i]
        x >>= 1
        i += 1
    return out


#: Basis images of one xorshift64 step: the step is linear over GF(2),
#: so any power of it is again a linear map — the classic jump-ahead.
_XS_STEP_COLS = [_xs_step(1 << i) for i in range(64)]


def _xs_jump_tables(k: int):
    """Byte-indexed lookup tables for the map advancing a state k steps.

    Eight tables of 256 entries; applying the jump is eight lookups and
    xors instead of up to 64 basis-column xors.
    """
    cols = [1 << i for i in range(64)]  # identity
    base = _XS_STEP_COLS
    while k:
        if k & 1:
            cols = [_xs_apply(base, c) for c in cols]
        k >>= 1
        if k:
            base = [_xs_apply(base, c) for c in base]
    tables = []
    for group in range(8):
        table = [0] * 256
        group_cols = cols[group * 8 : (group + 1) * 8]
        for v in range(1, 256):
            low = v & -v
            table[v] = table[v ^ low] ^ group_cols[low.bit_length() - 1]
        tables.append(table)
    return tables


_XS_JUMP_CACHE: dict = {}


class DeterministicRandom:
    """Tiny deterministic PRNG (xorshift) so workloads are reproducible
    without seeding global state."""

    def __init__(self, seed: int):
        self._state = (seed or 1) & 0xFFFFFFFFFFFFFFFF

    def next_u64(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._state = x
        return x

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        if hi < lo:
            raise ValueError("hi < lo")
        return lo + self.next_u64() % (hi - lo + 1)

    def random(self) -> float:
        return self.next_u64() / 2**64

    def bytes(self, n: int) -> bytes:
        m = (n + 7) >> 3  # u64 states to emit
        if _np is not None and m >= 1024:
            return self._bytes_vectorised(n, m)
        # Inlined xorshift steps + one join: identical byte stream and
        # final PRNG state as the per-call next_u64 loop, far fewer
        # temporaries.
        x = self._state
        chunks = []
        for _ in range(m):
            x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
            x ^= x >> 7
            x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
            chunks.append(x.to_bytes(8, "little"))
        self._state = x
        return b"".join(chunks)[:n]

    def _bytes_vectorised(self, n: int, m: int) -> bytes:
        """Bit-identical fast path for large corpora.

        xorshift64 is linear over GF(2), so the state K steps ahead is a
        linear map of the current one.  Lane j seeds at state j*K via the
        cached jump map, then all lanes advance one step per vector op,
        producing lane j's states s[j*K+1 .. (j+1)*K] — exactly the
        scalar sequence once the (K, L) matrix is transposed flat.
        """
        # More lanes shrink the numpy step loop (4 array ops per step);
        # fewer lanes shrink the scalar seed loop.  k ~ 64-256 balances.
        lanes = 1 << max(8, min(14, (m >> 7).bit_length()))
        k = -(-m // lanes)
        jump = _XS_JUMP_CACHE.get(k)
        if jump is None:
            jump = _XS_JUMP_CACHE[k] = _xs_jump_tables(k)
        t0, t1, t2, t3, t4, t5, t6, t7 = jump
        seeds = _np.empty(lanes, dtype=_np.uint64)
        s = self._state
        for j in range(lanes):
            seeds[j] = s
            s = (
                t0[s & 0xFF]
                ^ t1[(s >> 8) & 0xFF]
                ^ t2[(s >> 16) & 0xFF]
                ^ t3[(s >> 24) & 0xFF]
                ^ t4[(s >> 32) & 0xFF]
                ^ t5[(s >> 40) & 0xFF]
                ^ t6[(s >> 48) & 0xFF]
                ^ t7[s >> 56]
            )
        out = _np.empty((k, lanes), dtype=_np.uint64)
        vec = seeds
        c13, c7, c17 = _np.uint64(13), _np.uint64(7), _np.uint64(17)
        for t in range(k):
            vec = vec ^ (vec << c13)
            vec ^= vec >> c7
            vec ^= vec << c17
            out[t] = vec
        flat = out.T.astype("<u8").reshape(-1)[:m]
        self._state = int(flat[m - 1])
        return flat.tobytes()[:n]

    def text(self, n: int) -> bytes:
        """Printable filler text of length n."""
        return self.bytes(n).translate(_TEXT_TABLE)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]
