"""Counter-based pseudo-random streams for reproducible simulations.

The generator is SplitMix64 used in counter mode: output ``k`` of the
stream with seed ``s`` is ``mix64(s + (k + 1) * GAMMA)`` where ``GAMMA``
is the 64-bit golden-ratio constant 0x9E3779B97F4A7C15 and ``mix64`` is
the standard SplitMix64 finalizer (Steele, Lea & Flood 2014; the same
sequence a stateful SplitMix64 emits).  Counter mode makes every draw
addressable, so streams can be produced in vectorized blocks.  Words and
uniforms replicate exactly in any language from the constants alone;
gaussians follow numpy's ``np.log``, whose AVX-512 kernel is 1 ulp off its
baseline kernel on some inputs, so fgn and fbm bits can differ by CPU.

Derived variates, in documented draw order:

* uniforms: ``(word >> 11) * 2**-53`` in [0, 1).
* gaussians: Box-Muller on consecutive uniform pairs ``(u1, u2)``;
  ``u1`` is biased to (0, 1] by adding one ulp before scaling, and both
  outputs ``r*cos``, ``r*sin`` are emitted in that order.  A request
  for an odd count consumes a full final pair and discards its second
  output.
"""

from __future__ import annotations

import numpy as np

from .errors import _integer

GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_TWO53 = float(2.0**-53)
_MAX_WORDS = np.iinfo(np.intp).max // 8  # the longest uint64 array numpy allocates


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, in place."""
    t = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        if mix is not None:
            z *= mix
    return z


def raw_words(seed: int, start: int, count: int) -> np.ndarray:
    """Return stream words ``start .. start+count-1`` as uint64; ``count`` keeps
    the counter below 2**64 and the array within numpy's size limit."""
    hi = min(_MAX_WORDS, 2**64 - 1 - start)
    _integer(count, f"count must be an integer at least 0, at most {hi}", 0, hi)
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= GAMMA
        z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        return _mix64(z)


class Stream:
    """A sequential view of the counter-based stream for one seed."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._pos = 0

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` doubles, i.i.d. uniform on [0, 1)."""
        words = raw_words(self.seed, self._pos, count)
        self._pos += count
        words >>= np.uint64(11)
        u = words.astype(np.float64)
        u *= _TWO53
        return u

    def gaussians(self, count: int) -> np.ndarray:
        """Next ``count`` i.i.d. standard normal doubles (Box-Muller)."""
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        r = u[0::2] + _TWO53  # shift into (0, 1] so log is finite
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = u[1::2] * (2.0 * np.pi)
        np.multiply(r, np.cos(theta), out=u[0::2])  # u is read: its halves take the output
        np.sin(theta, out=theta)
        np.multiply(r, theta, out=u[1::2])
        return u[:count]

    def bits(self, count: int) -> np.ndarray:
        """Next ``count`` fair bits (one stream word per bit, top bit)."""
        words = raw_words(self.seed, self._pos, count)
        self._pos += count
        return (words >> np.uint64(63)).astype(np.uint8)
