"""Deterministic named random streams.

Every stochastic component in the simulator pulls randomness from a named
child stream of one root seed, so experiments are exactly reproducible and
adding a new random consumer never perturbs the draws of existing ones.

A stream is a pure-Python PCG64 whose draws are bit-identical to
``numpy.random.default_rng(seed)``'s ``random()`` and ``permutation(n)``:
the same ``SeedSequence`` state words, the same 128-bit LCG and XSL-RR
output, the same double conversion and the same bounded-integer
rejection.  Those two draws are all the simulator takes (fault streams
and the TCP bottleneck), so no run imports numpy.
"""

from __future__ import annotations

# hashlib's own blake2b, without the import of hashlib, which maps
# OpenSSL's libcrypto (~3.3 MB resident) for hashes no run takes.
from _blake2 import blake2b
from typing import Dict, List

__all__ = ["Pcg64", "RandomStreams"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: numpy's SeedSequence hash constants (pool size 4, xor-shift 16).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` without numpy."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = []
    while True:
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL:]:
        for i_dst in range(_POOL):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    out32 = []
    h = _INIT_B
    for i in range(8):
        v = pool[i % _POOL] ^ h
        h = (h * _MULT_B) & _M32
        v = (v * h) & _M32
        out32.append(v ^ (v >> 16))
    return [out32[i] | out32[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """PCG64 (XSL-RR 128/64), draw-for-draw equal to numpy's ``default_rng``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        w = _seed_words(int(seed))
        initstate = w[0] << 64 | w[1]
        inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        state = (inc + initstate) & _M128  # step from 0, then add initstate
        self._state = (state * _PCG_MULT + inc) & _M128
        self._inc = inc
        #: The high 32 bits of the last output, kept for the next 32-bit
        #: draw (numpy's ``has_uint32`` / ``uinteger``); ``None`` if spent.
        self._half = None

    def random(self) -> float:
        """One uniform double in [0, 1)."""
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        x = ((x >> rot) | (x << (64 - rot))) & _M64
        return (x >> 11) * 2.0**-53

    def permutation(self, n: int) -> List[int]:
        """``range(n)`` shuffled as numpy's ``permutation(n)`` does it.

        Fisher–Yates from the top: position ``i`` swaps with a ``j`` in
        ``[0, i]`` drawn by rejection on ``next_uint32 & mask`` (the
        smallest all-ones mask covering ``i``).  A 32-bit draw takes the
        low half of a fresh output and keeps the high half for the next
        one; :meth:`random` leaves that half alone.  ``n`` stays below
        2**32, where numpy would switch to 64-bit draws.
        """
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = i + 1
            while j > i:
                half = self._half
                if half is None:
                    state = (self._state * _PCG_MULT + self._inc) & _M128
                    self._state = state
                    x = ((state >> 64) ^ state) & _M64
                    rot = state >> 122
                    x = ((x >> rot) | (x << (64 - rot))) & _M64
                    self._half = x >> 32
                    half = x & _M32
                else:
                    self._half = None
                j = half & mask
            out[i], out[j] = out[j], out[i]
        return out


class RandomStreams:
    """A factory of independent, deterministically-seeded RNG streams."""

    def __init__(self, seed: int = 0) -> None:
        self.root = int(seed)
        self._streams: Dict[str, Pcg64] = {}

    def seed(self, name: str) -> int:
        """The child seed of ``name``, derived from ``(root, name)`` with
        BLAKE2b so streams are independent of creation order."""
        digest = blake2b(
            f"{self.root}:{name}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little")

    def stream(self, name: str) -> Pcg64:
        """Return the stream for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = Pcg64(self.seed(name))
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child factory (e.g. per-host) with an independent seed."""
        digest = blake2b(
            f"{self.root}/{name}".encode(), digest_size=8
        ).digest()
        return RandomStreams(int.from_bytes(digest, "little"))
