"""Deterministic pseudo-random numbers.

All sampling in this package flows through SplitMix64 so that a seed fully
determines every generated instance, apex, and direction independently of
Python version or platform.  SplitMix64 is the 64-bit mixing generator of
Steele, Lea and Flood (output function of java.util.SplittableRandom): the
state advances by a fixed odd constant and each output is a bijective
avalanche mix of the state.  It is not cryptographic; it is small, fast and
reproducible, which is all we need.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Seeded deterministic generator with a tiny random-like API."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n).  Uses rejection to avoid modulo bias.

        Draws as many 64-bit words as n needs (one for n <= 2**64), joins
        them most significant first, and rejects values at or above the
        largest multiple of n not exceeding 2**(64 * words)."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        words = max(1, ((n - 1).bit_length() + 63) // 64)
        span = 1 << (64 * words)
        limit = span - span % n
        while True:
            u = 0
            for _ in range(words):
                u = (u << 64) | self.next_u64()
            if u < limit:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], endpoints included."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.randrange(hi - lo + 1)
