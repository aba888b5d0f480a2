"""Ordinal patterns: extraction, Lehmer coding, and window censuses.

A window of ``L`` reals is summarized by its rank vector: the tuple of
window positions sorted by value, ties broken so that the earlier entry
counts as smaller.  Rank vectors are permutations of ``0..L-1`` and are
keyed by their Lehmer code, an integer in ``[0, L!)``.

Every census lives here: each slides a stride-1 window over the series
(``N - L + 1`` windows of a series of length ``N``) and counts them by the
one census rule, ``_census``, which owns block size, stop and order and
returns code and count arrays.  Windows are coded by position codes, the
Lehmer code of the rank of each position, which follow order by order from
running sums of comparisons over the lags (``_lag_sums``), built once per
series up to its largest order: ``_position_codes`` serves every order of
a series from one pass at one multiply-add per order.  Counts and scans
work on position codes, in ``L!`` rows at any length up to order
``_TABLE_ORDER`` = 7.  Lehmer codes are made only where a pattern is named
(the codes a census keeps, a map scan's missing codes, ``window_codes``):
from per-process tables (``_names``) up to order 7, else by ``_lehmer``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cache
from math import factorial
from numbers import Integral
from operator import index

import numpy as np

from .errors import DataError, ValidationError, _integer, _reals

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
_MAX_FACTORIAL = sys.maxsize  # the largest n math.factorial takes
_TABLE_ORDER = 7  # named from tables, counted in L! rows: 8 would add 1.6 MB of RSS


def _check_order(L, hi=_MAX_ORDER) -> int:
    return _integer(L, f"order L must be an integer at least 2, at most {hi}", 2, hi)


@dataclass(frozen=True)
class OrdinalPattern:
    """A rank vector together with its Lehmer code.  ``ranks`` is kept as
    a tuple of Python ints, whatever sequence of integers it is given as."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        try:
            ranks = tuple(map(index, self.ranks))
        except TypeError:
            raise ValidationError(
                f"ranks {self.ranks!r} are not a sequence of integers"
            ) from None
        object.__setattr__(self, "ranks", ranks)
        L = len(ranks)
        _check_order(L, hi=_MAX_FACTORIAL)
        if sorted(ranks) != list(range(L)):
            raise ValidationError(f"ranks {ranks!r} are not a permutation of 0..{L - 1}")

    @property
    def length(self) -> int:
        return len(self.ranks)

    @property
    def code(self) -> int:
        return lehmer_encode(self)

    @classmethod
    def from_code(cls, code: int, length: int) -> "OrdinalPattern":
        return cls(lehmer_decode(code, length))


@dataclass
class PatternDistribution:
    """Empirical distribution of ordinal patterns over a series.

    ``counts`` maps Lehmer codes to integer window counts (the public
    censuses build it from ``_census``'s arrays) over ``total_windows``
    windows (``N - L + 1``).  ``probabilities`` (read-only, the positive
    counts in dict order) and ``support_size`` are computed at construction.
    """

    order: int
    counts: dict[int, int]
    total_windows: int
    probabilities: np.ndarray = field(init=False, repr=False, compare=False)
    support_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_order(self.order)  # the orders whose codes fit int64
        if not all(isinstance(k, Integral)
                   for k in (self.total_windows, *self.counts.values())):
            raise DataError("pattern counts and total_windows must be integers")
        if self.total_windows <= 0:
            raise DataError("census with no windows")
        n = len(self.counts)  # at most L! when every code is in range
        try:
            codes = np.fromiter(self.counts, np.int64, n)
        except OverflowError:  # beyond int64, so beyond 20! - 1
            raise ValidationError("a code is out of the int64 range") from None
        lo, hi = codes.min(initial=0), codes.max(initial=0)
        if lo < 0 or hi >= factorial(self.order):
            raise ValidationError(
                f"code {lo if lo < 0 else hi} out of range for L={self.order}"
            )
        try:
            counts = np.fromiter(self.counts.values(), np.int64, n)
        except OverflowError:  # beyond int64, so beyond any window total
            raise DataError("a pattern count is out of the int64 range") from None
        if np.any(counts < 0):
            raise DataError("pattern counts must be nonnegative")
        if counts.sum() != self.total_windows:
            raise DataError("pattern counts do not add up to the window total")
        self.probabilities = counts[counts > 0] / self.total_windows
        self.probabilities.flags.writeable = False
        self.support_size = self.probabilities.size


def _as_series(series) -> np.ndarray:
    x = _reals(series, "series")
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
    w = _reals(window, "window")
    if w.ndim != 1 or w.size < 2:
        raise ValidationError("window must be a 1-d sequence of length >= 2")
    if not np.all(np.isfinite(w)):
        raise DataError("window contains non-finite values")
    order = np.argsort(w, kind="stable")
    return OrdinalPattern(tuple(int(i) for i in order))


def lehmer_encode(pattern) -> int:
    """Lehmer code of a permutation word; identity maps to 0,
    the strictly decreasing word to ``L! - 1``.  A word that is not a
    permutation raises ValidationError."""
    if not isinstance(pattern, OrdinalPattern):
        pattern = OrdinalPattern(pattern)
    ranks = pattern.ranks
    L = len(ranks)
    code = 0
    for i in range(L - 1):
        smaller_after = sum(1 for j in range(i + 1, L) if ranks[j] < ranks[i])
        code += smaller_after * factorial(L - 1 - i)
    return code


def lehmer_decode(code: int, length: int) -> tuple[int, ...]:
    """Inverse of :func:`lehmer_encode`."""
    _check_order(length, hi=_MAX_FACTORIAL)
    _integer(code, f"code {code} out of range for length {length}",
             0, factorial(length) - 1)
    remaining = list(range(length))
    out = []
    for i in range(length):
        base = factorial(length - 1 - i)
        digit, code = divmod(code, base)
        out.append(remaining.pop(digit))
    return tuple(out)


def _lag_sums(x: np.ndarray, top: int) -> np.ndarray:
    """Running sums over the lags of ``c_l[t] = x[t - l] > x[t]``, ``l < top``.

    ``F[k, u] = sum_{j <= k} c_j[u + j]`` counts the values among the next
    ``k`` that lie below ``x[u]``, so in the window at ``w`` position ``a``
    has ``l_a = F[L - 1 - a, w + a]`` later positions with a smaller value,
    whatever the order ``L <= top``.
    """
    N = x.size
    F = np.zeros((top, N), dtype=np.int8)
    for lag in range(1, top):
        row = F[lag, : N - lag]
        np.greater(x[: N - lag], x[lag:], out=row)  # c_lag[t] at index t - lag
        row += F[lag - 1, : N - lag]
    return F


def _position_codes(series, orders) -> dict[int, np.ndarray]:
    """``{L: position codes}`` of every window of the series, for each of
    ``orders``.

    The position code of the window at ``w`` is ``P_L[w] = sum_a l_a (L-1-a)!``,
    the Lehmer code of the rank of each position; :func:`_lehmer` names its
    pattern.  With the lag sums it follows from ``P_2 = F[1]`` and
    ``P_{L+1}[w] = P_L[w + 1] + L! F[L, w]``: one multiply-add per order,
    each in the narrowest integer that holds ``L! - 1``.  The lag sums up
    to the largest order are built once, serve every order and are released
    when the call returns.  Orders, the series and its length are checked
    before any work.
    """
    orders = tuple(orders)
    for L in orders:
        _check_order(L)
    x = _as_series(series)
    for L in orders:
        if x.size < L:
            raise DataError(f"series of length {x.size} is shorter than L={L}")
    if not orders:
        return {}
    top = max(orders)
    F = _lag_sums(x, top)
    pos, codes = F[1, : x.size - 1].copy(), {}  # P_2, not a view that holds F
    for L in range(2, top + 1):
        if L > 2:
            step = np.multiply(F[L - 1, : pos.size - 1], factorial(L - 1),
                               dtype=np.min_scalar_type(-factorial(L)))
            step += pos[1:]
            pos = step
        if L in orders:
            codes[L] = pos
    return codes


def _positions(series, L: int) -> np.ndarray:
    return _position_codes(series, (L,))[L]


def _lehmer(pos: np.ndarray, L: int) -> np.ndarray:
    """Lehmer codes (int64) of the patterns whose position codes are ``pos``.

    Digit ``l_a = pos // (L-1-a)! % (L-a)`` counts the later positions of
    smaller value, so it is the rank of position ``a`` among positions
    ``a..L-1``; taken from the last position back, these give the rank
    ``r_a`` in the window, then ``e_a = a + l_a - r_a`` and the code of
    :func:`window_codes`.
    """
    digit = np.zeros((L, pos.size), dtype=np.int8)  # the last digit is 0
    q = pos.astype(np.min_scalar_type(-factorial(L)))
    for a in range(L - 2, 0, -1):  # mixed radix, from the last digit back
        top = q // (L - a)
        np.subtract(q, top * (L - a), out=digit[a], casting="unsafe")
        q = top
    digit[0] = q
    rank = digit.copy()
    for a in range(L - 2, -1, -1):
        later = rank[a + 1 :]
        later += later >= rank[a]
    weight = np.array([factorial(L - 1 - r) for r in range(L)], dtype=np.int64)
    codes = np.zeros(pos.size, dtype=np.int64)
    for a in range(1, L):  # e_0 = 0
        e = digit[a] - rank[a]
        e += a
        codes += e * weight.take(rank[a])
    return codes


@cache
def _names(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only name tables of order ``L <= _TABLE_ORDER``: ``names``, the Lehmer
    code of each position code, and its inverse ``by_name``, built on first use."""
    names = _lehmer(np.arange(factorial(L)), L)
    by_name = np.empty_like(names)
    by_name[names] = np.arange(names.size)
    names.flags.writeable = by_name.flags.writeable = False
    return names, by_name


def window_codes(series, L: int) -> np.ndarray:
    """Lehmer codes of every stride-1 window of the series.

    For window position ``a``, ``e_a`` counts the earlier positions with
    a larger value and ``l_a`` the later ones with a smaller value.  The
    stable-sort rank of ``a`` is ``r_a = a - e_a + l_a`` and the code is
    ``sum_a e_a * (L - 1 - r_a)!``.  The ``l_a`` are the digits of the
    window's position code (:func:`_position_codes`), built from running
    sums of shifted-slice comparisons over the lags ``1..L-1``: no sort.
    """
    pos = _positions(series, L)
    if L <= _TABLE_ORDER:
        return _names(L)[0][pos]
    if factorial(L) > pos.size:  # fewer windows than codes: no table
        return _lehmer(pos, L)
    return _lehmer(np.arange(factorial(L)), L)[pos]


def _census(pos: np.ndarray, L: int, stabilized: bool = False) -> tuple:
    """The census rule of :func:`stabilized_census` (``5 * L!`` blocks) or of
    :func:`pattern_census` over position codes, in ``L!`` rows up to order 7:
    the Lehmer codes seen, by first block then code, and their counts.
    Above order 7 a census of at most ``5 * L!`` windows, one block under
    both rules, counts its distinct codes with ``np.unique``; a longer one
    counts in ``L!`` rows, which is faster there."""
    n, m = pos.size, factorial(L)
    if L > _TABLE_ORDER and n <= 5 * m:  # one block under both rules
        seen, counts = np.unique(pos, return_counts=True)
        codes = _lehmer(seen, L)
        order = np.argsort(codes)
        return codes[order], counts[order]
    block = 5 * m if stabilized else n
    n_blocks = -(-n // block)
    cell = pos  # block-major cells, counted into a C-ordered (code, block) table
    if n_blocks > 1:
        cell = np.repeat(np.arange(0, m * n_blocks, m), block)[:n]
        cell += pos
    cum = np.bincount(cell, minlength=m * n_blocks).reshape(n_blocks, m).T.copy().cumsum(1)
    used = np.minimum(np.arange(1, n_blocks + 1) * block, n)  # windows after each block
    drift = np.abs(np.diff(cum / used, axis=1)).max(axis=0)
    settled = np.flatnonzero(drift <= 1e-4)
    stop = settled[0] + 1 if settled.size else n_blocks - 1
    if L > _TABLE_ORDER:
        seen = np.flatnonzero(cum[:, stop])
        codes = _lehmer(seen, L)
        order = np.lexsort((codes, (cum[seen] > 0).argmax(axis=1)))
        return codes[order], cum[seen[order], stop]
    names, by_name = _names(L)
    kept = by_name[cum[by_name, stop] > 0]  # the position codes kept, in code order
    if n_blocks > 1:  # by first block, stably
        kept = kept[np.argsort((cum[kept] > 0).argmax(axis=1), kind="stable")]
    return names[kept], cum[kept, stop]


def _distribution(series, L: int, stabilized: bool) -> PatternDistribution:
    codes, counts = _census(_positions(series, L), L, stabilized)
    return PatternDistribution(L, dict(zip(codes.tolist(), counts.tolist())),
                               int(counts.sum()))


def pattern_census(series, L: int) -> PatternDistribution:
    """Count the ordinal patterns of all stride-1 windows, in code
    order: the one-block case of the census rule."""
    return _distribution(series, L, stabilized=False)


def stabilized_census(series, L: int) -> PatternDistribution:
    """Census that stops once the pattern distribution stabilizes.

    Windows are counted in blocks of ``5 * L!``.  The census stops at the
    first block after which no pattern's running probability moved by
    more than ``1e-4``, otherwise at the end of the series; the consumed
    window count is ``total_windows``.  ``counts`` lists codes by the
    block of their first occurrence, then by code, and ``probabilities``
    follows that order: :func:`pattern_census` is the one-block case of
    this rule.  All ``N - L + 1`` windows are coded first, so the early
    exit decides how many are counted, not coded.
    """
    return _distribution(series, L, stabilized=True)


def visible_curve(series, L: int) -> np.ndarray:
    """Distinct-pattern count at every prefix length.

    Entry ``t`` is the number of distinct patterns among windows
    ``0..t``, i.e. the visible count ``A_{L,T}`` for prefix length
    ``T = t + L``: 1 at ``T = L``, nondecreasing, bounded by ``L!``.
    This array is the one form of the prefix curve; the missing counts
    are ``L! - curve`` and the complexity function is ``ln(curve)``.
    """
    return _prefix_curve(_positions(series, L), L)


def _prefix_curve(codes: np.ndarray, L: int) -> np.ndarray:
    """:func:`visible_curve` of these position codes: each code is counted
    at its first occurrence, in ``L!`` columns up to ``_TABLE_ORDER``."""
    m, col = factorial(L), codes  # a column per code
    if L > _TABLE_ORDER and m > codes.size:  # or per distinct code
        uniq, col = np.unique(codes, return_inverse=True)
        m = uniq.size
    first = np.full(m, codes.size)  # codes.size: never seen
    np.minimum.at(first, col, np.arange(codes.size))
    return np.cumsum(np.bincount(first, minlength=codes.size + 1)[:-1])
