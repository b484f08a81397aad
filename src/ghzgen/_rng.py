"""Seeded draws identical, bit for bit, to ``numpy.random.default_rng(seed)``.

A seeded run draws only a few numbers: one ``normal(mean, 1.0)`` per
homodyne branch and one or two ``random()``.  ``Generator`` reproduces
numpy's generator for those two calls without importing numpy: the
``SeedSequence`` entropy pool, PCG64 (XSL-RR 128/64, the state advances
before each output), doubles as ``(next64 >> 11) * 2**-53`` and normals
from numpy's 256-level ziggurat.  The ziggurat's ``ki``, ``wi`` and ``fi``
tables cannot be rebuilt bit-exactly here, so they ship as
``fixtures/ziggurat.bin`` (little-endian: 256 uint64, then 2 x 256
doubles), read on the first normal draw.
"""

from __future__ import annotations

import math
import operator
import struct
from functools import lru_cache
from importlib import resources

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# numpy's SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# right edge of the ziggurat's base strip, and its inverse
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596


@lru_cache(maxsize=None)
def _ziggurat() -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    data = (resources.files("ghzgen") / "fixtures" / "ziggurat.bin").read_bytes()
    return (
        struct.unpack_from("<256Q", data, 0),
        struct.unpack_from("<256d", data, 2048),
        struct.unpack_from("<256d", data, 4096),
    )


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected a nonnegative seed, got {seed}")
    entropy = [0] if seed == 0 else []
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """The ``random()`` and ``normal(loc, scale)`` draws of numpy's
    ``Generator(PCG64(seed))``."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        state = (self._inc + (s0 << 64 | s1)) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = (state >> 64) ^ (state & _MASK64)
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def random(self) -> float:
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def normal(self, loc: float, scale: float) -> float:
        return loc + scale * self._standard_normal()

    def _standard_normal(self) -> float:
        ki, wi, fi = _ziggurat()
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * wi[idx]
            if r & 1:
                x = -x
            if rabs < ki[idx]:
                return x
            if idx == 0:
                # tail beyond _NOR_R; 1 - U avoids log(0)
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return -(_NOR_R + xx) if (rabs >> 8) & 1 else _NOR_R + xx
            elif (fi[idx - 1] - fi[idx]) * self.random() + fi[idx] < math.exp(-0.5 * x * x):
                return x
