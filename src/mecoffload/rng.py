"""Deterministic 64-bit random numbers for instance generation and seed mixing.

The generator is SplitMix64: the state advances by the golden-ratio increment
and each output is a xor-shift-multiply scramble of the new state.  A 20-line
generator beats a library one here because reproducibility is part of the
contract: the same seed must give bit-identical streams on every platform and
under every library version, which numpy's Generator API does not promise for
its distribution methods.

`uniform_rows` draws many values for many seeds at once with wrapping
uint64 arithmetic: row r gives the same doubles as that many `uniform()`
calls of `SplitMix64(seeds[r])`, and the scalar methods stay the reference.
`SplitMix64.uniform_array` is its one-row form.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _scramble(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


# uint64 forms of the constants, for the array draws
_U64 = np.uint64
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = _U64(_GOLDEN), _U64(_MIX1), _U64(_MIX2)
_S11, _S27, _S30, _S31 = _U64(11), _U64(27), _U64(30), _U64(31)


class SplitMix64:
    """Seedable stream of 64-bit words and unit-interval doubles."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return _scramble(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 high bits give the usual dyadic rational in [0, 1).
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def uniform_array(self, n: int) -> np.ndarray:
        """The next n `uniform()` values in [0, 1), as a float64 array; the
        stream then continues n steps further on, as if `uniform()` had been
        called n times."""
        [u] = uniform_rows([self._state], n)
        self._state = (self._state + n * _GOLDEN) & MASK64
        return u


def uniform_rows(seeds, n: int) -> np.ndarray:
    """An (R, n) float64 array whose row r holds the first n `uniform()`
    values of `SplitMix64(seeds[r])`.

    The R x n states are formed as one broadcast of wrapping uint64
    arithmetic and scrambled in place."""
    states = np.array([seed & MASK64 for seed in seeds], dtype=_U64).reshape(-1, 1)
    z = np.arange(1, n + 1, dtype=_U64)
    z *= _GOLDEN_U64
    z = z + states
    z ^= z >> _S30
    z *= _MIX1_U64
    z ^= z >> _S27
    z *= _MIX2_U64
    z ^= z >> _S31
    z >>= _S11
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


def mix64(*values: int) -> int:
    """Hash an ordered tuple of integers into a single 64-bit seed.

    Used to derive independent per-realization seeds from (base seed,
    grid index, realization index) without any sequential coupling.
    """
    acc = 0
    for v in values:
        acc = _scramble((acc + _GOLDEN + (v & MASK64)) & MASK64)
    return acc
