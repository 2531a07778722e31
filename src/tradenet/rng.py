"""Deterministic, portable random number generation for synthetic fixtures.

The generator is counter-based splitmix64: output ``i`` of a stream seeded
with ``s`` is ``mix64(s + (i + 1) * GOLDEN)`` where ``mix64`` is the
splitmix64 finalizer (Steele, Lea & Flood 2014; reference code at
prng.di.unimi.it/splitmix64.c).  Every draw is a pure function of
(seed, counter), so streams can be reproduced from the seed alone and the
algorithm is easy to port to other languages.  Uniform doubles take the top
53 bits of an output; standard normals come from the Box-Muller transform.

Bit-level agreement across platforms does not hold yet.  The transform
takes numpy's ``log``, ``cos`` and ``sin``, and numpy 2.4.6 computes these
(and ``exp``, which ``synth`` applies to the draws) with AVX-512 kernels
where the CPU has them; those differ from libm in the last bit on some
inputs.  So the same seed gives different draws, and different synth
files, on CPUs with and without AVX-512.  Routing these calls through
libm (``math``) is an open item of ROADMAP.md, the one on CPU-independent
transcendentals.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python integer (mod 2**64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    """Derive a child seed from a base seed and integer keys (e.g. a year).

    Deterministic and order-sensitive in the keys.
    """
    z = mix64(seed)
    for k in keys:
        z = mix64((z + _GOLDEN + mix64(k)) & _MASK)
    return z


def _mix_array(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
        return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Seeded stream of splitmix64 outputs with a private counter."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._count = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError("n must be >= 0")
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            state = np.uint64(self._seed) + idx * np.uint64(_GOLDEN)
        return _mix_array(state)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1), using the top 53 bits per output."""
        return (self.raw(n) >> np.uint64(11)) * 2.0**-53

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal deviates via Box-Muller.

        Consumes exactly ``2 * ceil(n / 2)`` raw outputs.
        """
        pairs = (n + 1) // 2
        # u1 in (0, 1] so that log(u1) is finite.
        u1 = ((self.raw(pairs) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        u2 = self.uniform(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return out[:n]
