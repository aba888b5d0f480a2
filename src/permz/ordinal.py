"""Ordinal patterns: extraction, Lehmer coding, and window censuses.

A window of ``L`` reals is summarized by its rank vector: the tuple of
window positions sorted by value, ties broken so that the earlier entry
counts as smaller.  Rank vectors are permutations of ``0..L-1`` and are
keyed by their Lehmer code, an integer in ``[0, L!)``.

All censuses slide a stride-1 window over the series, so a series of
length ``N`` yields ``N - L + 1`` windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DataError, ValidationError

__all__ = [
    "OrdinalPattern",
    "PatternDistribution",
    "rank_vector",
    "lehmer_encode",
    "lehmer_decode",
    "window_codes",
    "pattern_census",
    "visible_curve",
]

_MAX_ORDER = 20  # 21! - 1 overflows the int64 codes


@dataclass(frozen=True)
class OrdinalPattern:
    """A rank vector together with its Lehmer code."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        L = len(self.ranks)
        if L < 2:
            raise ValidationError("pattern length must be at least 2")
        if sorted(self.ranks) != list(range(L)):
            raise ValidationError(
                f"ranks {self.ranks!r} are not a permutation of 0..{L - 1}"
            )

    @property
    def length(self) -> int:
        return len(self.ranks)

    @property
    def code(self) -> int:
        return lehmer_encode(self.ranks)

    @classmethod
    def from_code(cls, code: int, length: int) -> "OrdinalPattern":
        return cls(lehmer_decode(code, length))


@dataclass
class PatternDistribution:
    """Empirical distribution of ordinal patterns over a series.

    ``counts`` maps Lehmer codes to window counts; ``total_windows`` is
    the number of windows the census saw (``N - L + 1``).
    """

    order: int
    counts: dict[int, int]
    total_windows: int

    def __post_init__(self):
        if self.total_windows <= 0:
            raise DataError("census with no windows")
        fact = factorial(self.order)
        if len(self.counts) > fact:
            raise ValidationError("more patterns than L! -- invalid census")
        lo, hi = min(self.counts, default=0), max(self.counts, default=0)
        if lo < 0 or hi >= fact:
            raise ValidationError(
                f"code {lo if lo < 0 else hi} out of range for L={self.order}"
            )
        if min(self.counts.values(), default=0) < 0:
            raise DataError("pattern counts must be nonnegative")
        if sum(self.counts.values()) != self.total_windows:
            raise DataError("pattern counts do not add up to the window total")

    @property
    def support_size(self) -> int:
        return sum(1 for c in self.counts.values() if c > 0)

    @property
    def probabilities(self) -> np.ndarray:
        """Probabilities of the observed patterns (support only)."""
        vals = np.fromiter(
            (c for c in self.counts.values() if c > 0), dtype=np.float64
        )
        return vals / self.total_windows

    def probability_of(self, pattern: OrdinalPattern | int) -> float:
        code = pattern.code if isinstance(pattern, OrdinalPattern) else pattern
        return self.counts.get(code, 0) / self.total_windows


def _as_series(series) -> np.ndarray:
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"series must be 1-d, got {x.ndim} dimensions")
    if not np.all(np.isfinite(x)):
        raise DataError("series contains non-finite values")
    return x


def rank_vector(window) -> OrdinalPattern:
    """Rank vector of one window: positions ordered by value.

    Ties resolve in favor of the earlier position being smaller, which
    is what a stable sort of the values gives.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 1 or w.size < 2:
        raise ValidationError("window must be a 1-d sequence of length >= 2")
    if not np.all(np.isfinite(w)):
        raise DataError("window contains non-finite values")
    order = np.argsort(w, kind="stable")
    return OrdinalPattern(tuple(int(i) for i in order))


def lehmer_encode(pattern) -> int:
    """Lehmer code of a permutation word; identity maps to 0,
    the strictly decreasing word to ``L! - 1``."""
    ranks = pattern.ranks if isinstance(pattern, OrdinalPattern) else tuple(pattern)
    L = len(ranks)
    code = 0
    for i in range(L - 1):
        smaller_after = sum(1 for j in range(i + 1, L) if ranks[j] < ranks[i])
        code += smaller_after * factorial(L - 1 - i)
    return code


def lehmer_decode(code: int, length: int) -> tuple[int, ...]:
    """Inverse of :func:`lehmer_encode`."""
    if length < 2:
        raise ValidationError("pattern length must be at least 2")
    if not 0 <= code < factorial(length):
        raise ValidationError(f"code {code} out of range for length {length}")
    remaining = list(range(length))
    out = []
    for i in range(length):
        base = factorial(length - 1 - i)
        digit, code = divmod(code, base)
        out.append(remaining.pop(digit))
    return tuple(out)


def window_codes(series, L: int) -> np.ndarray:
    """Lehmer codes of every stride-1 window of the series.

    For window position ``a``, ``e_a`` counts the earlier positions with
    a larger value and ``l_a`` the later ones with a smaller value.  The
    stable-sort rank of ``a`` is ``r_a = a - e_a + l_a`` and the code is
    ``sum_a e_a * (L - 1 - r_a)!``: shifted-slice comparisons, no sort.
    """
    if L < 2:
        raise ValidationError("order L must be at least 2")
    if L > _MAX_ORDER:
        raise ValidationError(f"order L must be at most {_MAX_ORDER}")
    x = _as_series(series)
    if x.size < L:
        raise DataError(f"series of length {x.size} is shorter than L={L}")
    n = x.size - L + 1
    weight = np.array([factorial(L - 1 - r) for r in range(L)], dtype=np.int64)
    earlier = np.zeros((L, n), dtype=np.int8)
    codes = np.zeros(n, dtype=np.int64)
    for a in range(L):
        # e_a is complete here; l_a comes from comparing a with each later b
        later = np.zeros(n, dtype=np.int8)
        for b in range(a + 1, L):
            above = x[a : a + n] > x[b : b + n]
            later += above
            earlier[b] += above
        codes += earlier[a] * weight[a - earlier[a] + later]
    return codes


def pattern_census(series, L: int) -> PatternDistribution:
    """Count the ordinal patterns of all stride-1 windows."""
    codes = window_codes(series, L)
    uniq, counts = np.unique(codes, return_counts=True)
    return PatternDistribution(
        order=L,
        counts={int(c): int(k) for c, k in zip(uniq, counts)},
        total_windows=int(codes.size),
    )


def visible_curve(series, L: int) -> np.ndarray:
    """Distinct-pattern count at every prefix length.

    Entry ``t`` is the number of distinct patterns among windows
    ``0..t``, i.e. the visible count ``A_{L,T}`` for prefix length
    ``T = t + L``: 1 at ``T = L``, nondecreasing, bounded by ``L!``.
    This array is the one form of the prefix curve; the missing counts
    are ``L! - curve`` and the complexity function is ``ln(curve)``.
    """
    codes = window_codes(series, L)
    first_idx = np.unique(codes, return_index=True)[1]
    return np.cumsum(np.bincount(first_idx, minlength=codes.size))

