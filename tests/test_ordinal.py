import math
import weakref
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from permz import ordinal
from permz.analysis import forbidden_patterns_of_map, stabilized_census
from permz.entropy import ComplexityClass
from permz.errors import DataError, ValidationError
from permz.experiments import entropy_cells
from permz.ordinal import (
    OrdinalPattern,
    PatternDistribution,
    _as_series,
    _check_order,
    _position_codes,
    lehmer_decode,
    lehmer_encode,
    pattern_census,
    rank_vector,
    visible_curve,
    window_codes,
)
from permz.processes import KINDS, ProcessSpec, generate


# -- rank vectors -----------------------------------------------------------

def test_rank_vector_basic():
    assert rank_vector((0.1, 0.3, 0.2)).ranks == (0, 2, 1)
    assert rank_vector((1, 2, 3, 4)).ranks == (0, 1, 2, 3)


def test_rank_vector_ties_earlier_is_smaller():
    assert rank_vector((5.0, 5.0)).ranks == (0, 1)
    assert rank_vector((2.0, 1.0, 2.0, 1.0)).ranks == (1, 3, 0, 2)


def test_rank_vector_rejects_short_and_nonfinite():
    with pytest.raises(ValidationError):
        rank_vector((1.0,))
    with pytest.raises(DataError):
        rank_vector((1.0, float("nan"), 2.0))
    with pytest.raises(DataError):
        rank_vector((1.0, float("inf")))


def test_ordinal_invariance_under_increasing_transforms():
    rng = np.random.default_rng(3)
    x = rng.normal(size=200)
    base = window_codes(x, 4)
    for transform in (np.exp, np.arctan, lambda v: v**3, lambda v: 2.0 * v + 1.0):
        assert np.array_equal(window_codes(transform(x), 4), base)


# -- Lehmer coding ----------------------------------------------------------

def test_lehmer_endpoints():
    for L in range(2, 7):
        assert lehmer_encode(tuple(range(L))) == 0
        assert lehmer_encode(tuple(range(L - 1, -1, -1))) == math.factorial(L) - 1


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_lehmer_roundtrip_exhaustive(L):
    seen = set()
    for perm in permutations(range(L)):
        code = lehmer_encode(perm)
        assert 0 <= code < math.factorial(L)
        assert lehmer_decode(code, L) == perm
        seen.add(code)
    assert len(seen) == math.factorial(L)  # bijection


@pytest.mark.parametrize("L", [7, 8])
def test_lehmer_roundtrip_sampled(L):
    rng = np.random.default_rng(L)
    for _ in range(500):
        perm = tuple(int(v) for v in rng.permutation(L))
        assert lehmer_decode(lehmer_encode(perm), L) == perm
    for code in rng.integers(0, math.factorial(L), size=500):
        assert lehmer_encode(lehmer_decode(int(code), L)) == int(code)


def test_ordinal_pattern_type():
    p = OrdinalPattern((0, 2, 1))
    assert p.length == 3 and p.code == 1
    assert OrdinalPattern.from_code(p.code, 3) == p
    assert rank_vector((0.5, 9.0, 0.7)).ranks == (0, 2, 1)
    with pytest.raises(ValidationError):
        OrdinalPattern((0, 2, 2))
    for bad in (3.0, 1, "3"):
        with pytest.raises(ValidationError):
            lehmer_decode(0, bad)
    assert lehmer_decode(5, np.int64(3)) == lehmer_decode(5, 3) == (2, 1, 0)


def test_ordinal_pattern_keeps_its_ranks_as_a_tuple_of_ints():
    # a list, a numpy array and numpy integers give the same hashable pattern
    for ranks in ([1, 0], np.array([1, 0]), (np.int64(1), np.int32(0))):
        p = OrdinalPattern(ranks)
        assert p == OrdinalPattern((1, 0)) and hash(p) == hash(OrdinalPattern((1, 0)))
        assert type(p.ranks) is tuple and all(type(r) is int for r in p.ranks)
    assert len({OrdinalPattern([0, 1]), OrdinalPattern((0, 1))}) == 1
    for bad in ((1.0, 0.0), (0, 1.5), np.array([1.0, 0.0]), ("0", "1"), "01", 5,
                np.eye(2, dtype=int)):
        with pytest.raises(ValidationError):
            OrdinalPattern(bad)


def test_lehmer_encode_rejects_words_that_are_not_permutations():
    for bad in ([1, 1, 1], [5, 7], [0], (0, 2), (0.0, 1.0), []):
        with pytest.raises(ValidationError):
            lehmer_encode(bad)
    assert lehmer_encode([2, 0, 1]) == lehmer_encode(np.array([2, 0, 1])) == 4


# -- censuses ---------------------------------------------------------------

def test_census_monotone_series():
    dist = pattern_census((1, 2, 3, 4, 5), 3)
    assert dist.counts == {0: 3}
    assert dist.total_windows == 3
    assert OrdinalPattern((0, 1, 2)).code == 0


def test_census_hand_enumeration():
    # five L=2 windows of (1,2,1,2,1,2): 3 ascents, 2 descents
    dist = pattern_census((1, 2, 1, 2, 1, 2), 2)
    assert dist.total_windows == 5
    assert dist.counts == {0: 3, 1: 2}


def test_census_white_noise_uniformity():
    x = generate(ProcessSpec("white-noise", length=50_000, seed=21))
    dist = pattern_census(x, 3)
    assert dist.support_size == 6
    for code in range(6):
        assert abs(dist.counts[code] / dist.total_windows - 1 / 6) < 0.01


def test_census_probabilities_sum_to_one():
    for L in (2, 3, 5):
        x = generate(ProcessSpec("white-noise", length=4_000, seed=L))
        dist = pattern_census(x, L)
        assert abs(dist.probabilities.sum() - 1.0) < 1e-12
        assert dist.support_size <= math.factorial(L)


def test_census_insufficient_data():
    with pytest.raises(DataError):
        pattern_census((1.0, 2.0), 3)


def test_pattern_distribution_invariants():
    with pytest.raises(DataError):
        PatternDistribution(order=3, counts={0: 2}, total_windows=3)
    with pytest.raises(ValidationError):
        PatternDistribution(order=2, counts={5: 1}, total_windows=1)
    with pytest.raises(ValidationError):
        PatternDistribution(order=2, counts={-1: 1}, total_windows=1)
    # a negative count could balance the total and give probabilities > 1
    with pytest.raises(DataError):
        PatternDistribution(order=3, counts={0: 3, 1: -1}, total_windows=2)
    with pytest.raises(DataError):
        PatternDistribution(order=3, counts={}, total_windows=1)
    with pytest.raises(DataError, match="census with no windows"):
        PatternDistribution(3, {}, 0)
    # a code beyond int64 is out of range for every order a census takes
    with pytest.raises(ValidationError):
        PatternDistribution(order=3, counts={2**70: 1}, total_windows=1)
    # so is an order outside 2..20, or one that is not an integer
    for order in (0, 1, 21, 25, 2.5, -1):
        with pytest.raises(ValidationError, match="order L"):
            PatternDistribution(order=order, counts={0: 1}, total_windows=1)
    # a fractional count or total is refused, not truncated
    for counts, total in (({0: 0.5, 1: 2}, 2), ({0: 3.9}, 3), ({0: 3.0}, 3),
                          ({0: 3}, 3.0), ({0: 2, 1: 1}, 2.5)):
        with pytest.raises(DataError, match="integers"):
            PatternDistribution(order=3, counts=counts, total_windows=total)
    assert PatternDistribution(3, {np.int64(0): np.int64(3)}, np.int64(3)).support_size == 1
    with pytest.raises(DataError, match="int64"):
        PatternDistribution(order=3, counts={0: 2**70}, total_windows=2**70)
    # a zero count is kept in ``counts`` but is not in the support
    dist = PatternDistribution(order=3, counts={0: 3, 1: 0}, total_windows=3)
    assert dist.support_size == 1
    assert dist.probabilities.tolist() == [1.0]
    with pytest.raises(ValueError):
        dist.probabilities[0] = 0.5  # shared by every reader: read-only


# -- census trace: the prefix curve A_{L,T} of visible_curve, T = L, L+1, ... --

def test_census_trace_first_checkpoint_is_one():
    x = generate(ProcessSpec("white-noise", length=500, seed=2))
    for L in (3, 4):
        assert visible_curve(x, L)[0] == 1  # at T = L, hence M = L! - 1


def test_census_trace_monotone_and_consistent_with_census():
    x = generate(ProcessSpec("fbm", length=3_000, seed=5, hurst=0.4))
    visible = visible_curve(x, 4)
    assert visible.size == 3_000 - 4 + 1  # one entry per T = 4..3000
    assert np.all(np.diff(visible) >= 0)
    assert visible[-1] == pattern_census(x, 4).support_size
    assert visible.max() <= math.factorial(4)


def test_census_trace_logistic_converges_to_five():
    x = generate(ProcessSpec("logistic", length=20_000, seed=0))
    assert visible_curve(x, 3)[-1] == 5


def test_census_trace_white_noise_saturates():
    x = generate(ProcessSpec("white-noise", length=20_000, seed=4))
    assert visible_curve(x, 6)[-1] == 720


def test_visible_curve_matches_trace():
    # the per-prefix trace of distinct codes, counted window by window
    x = generate(ProcessSpec("white-noise", length=800, seed=9))
    seen, trace = set(), []
    for code in window_codes(x, 3).tolist():
        seen.add(code)
        trace.append(len(seen))
    assert visible_curve(x, 3).tolist() == trace


def test_window_codes_match_scalar_path():
    rng = np.random.default_rng(11)
    x = rng.normal(size=300)
    for L in (2, 3, 5, 7):
        codes = window_codes(x, L)
        for t in (0, 17, 150, len(codes) - 1):
            assert codes[t] == rank_vector(x[t : t + L]).code


def test_window_codes_order_bound():
    # 20! - 1 is the largest code an int64 holds; 21! - 1 would wrap
    assert window_codes(np.arange(20.0)[::-1], 20).tolist() == [
        math.factorial(20) - 1
    ]
    # the census block, 5 * 20! windows, is beyond int64 too
    assert stabilized_census(np.arange(20.0)[::-1], 20).counts == {
        math.factorial(20) - 1: 1
    }
    with pytest.raises(ValidationError):
        window_codes(np.arange(21.0)[::-1], 21)
    # the order is an integer (numpy integers too), never a float
    x = np.arange(10.0)
    for census in (window_codes, pattern_census, visible_curve, stabilized_census):
        for bad in (3.0, 2.5, 1, 21, "3", None):
            with pytest.raises(ValidationError):
                census(x, bad)
    assert window_codes(x, np.int64(3)).tolist() == window_codes(x, 3).tolist()
    assert pattern_census(x, np.int64(3)).counts == pattern_census(x, 3).counts


def test_series_must_be_one_dimensional():
    # a flattened 2-d array would count windows straddling the row boundary
    x = np.arange(10.0).reshape(2, 5)
    for census in (window_codes, pattern_census, stabilized_census):
        with pytest.raises(ValidationError):
            census(x, 3)
        with pytest.raises(ValidationError):
            census(np.float64(1.0), 3)


def test_window_codes_signed_zero_ties_with_zero():
    # -0.0 == 0.0, so the earlier of the two ranks lower, as in a stable sort
    x = np.array([0.0, -0.0, 0.0, -0.0, 1.0])
    assert window_codes(x, 5).tolist() == [0]
    assert window_codes(x, 2).tolist() == [0, 0, 0, 0]


_CHUNK_WINDOWS = 1 << 20


def _codes_from_perms(perms: np.ndarray) -> np.ndarray:
    """Vectorized Lehmer coding of permutation rows."""
    n, L = perms.shape
    codes = np.zeros(n, dtype=np.int64)
    for i in range(L - 1):
        smaller_after = (perms[:, i + 1 :] < perms[:, i : i + 1]).sum(axis=1)
        codes += smaller_after * math.factorial(L - 1 - i)
    return codes


def reference_window_codes(series, L: int) -> np.ndarray:
    """The argsort coder, kept as the oracle for ``window_codes``: a
    stable argsort of every window, then Lehmer coding of the rows."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size - L + 1
    out = np.empty(n, dtype=np.int64)
    view = sliding_window_view(x, L)
    for lo in range(0, n, _CHUNK_WINDOWS):
        hi = min(lo + _CHUNK_WINDOWS, n)
        perms = np.argsort(view[lo:hi], axis=1, kind="stable")
        out[lo:hi] = _codes_from_perms(perms)
    return out


def pairwise_window_codes(series, L: int) -> np.ndarray:
    """The pairwise coder, kept as the second oracle for ``window_codes``:
    every pair of window positions compared afresh for each order."""
    _check_order(L)
    x = _as_series(series)
    if x.size < L:
        raise DataError(f"series of length {x.size} is shorter than L={L}")
    n = x.size - L + 1
    weight = np.array([math.factorial(L - 1 - r) for r in range(L)], dtype=np.int64)
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


def lehmer_per_order(series, orders):
    """The position codes of :func:`_position_codes` at each of ``orders``
    (repeats included), each order named as Lehmer codes by ``ordinal._lehmer``."""
    orders = tuple(orders)
    codes = _position_codes(series, orders)
    return [ordinal._lehmer(codes[L], L) for L in orders]


_KIND_PARAMETERS = {"fgn": {"hurst": 0.3}, "fbm": {"hurst": 0.7},
                    "xp": {"period": 3}, "piecewise-linear": {"sigma": 2.5}}


@pytest.mark.parametrize("kind", KINDS)
def test_window_codes_equal_reference_at_workload_length(kind):
    x = generate(ProcessSpec(kind, length=50_000, seed=13,
                             **_KIND_PARAMETERS.get(kind, {})))
    for L in (2, 3, 7, 8, 14, 20):
        assert np.array_equal(window_codes(x, L), reference_window_codes(x, L))


@pytest.mark.parametrize("spec", [
    ProcessSpec("white-noise", length=50_000, seed=3),
    ProcessSpec("xp", length=50_000, seed=4, period=2),
    ProcessSpec("xp", length=50_000, seed=5, period=3),
])
def test_position_codes_equal_pairwise_oracle_at_workload_length(spec):
    x = generate(spec)
    orders = (14, 2, 9, 20, 3, 9)
    for L, codes in zip(orders, lehmer_per_order(x, orders)):
        assert np.array_equal(codes, pairwise_window_codes(x, L))


@st.composite
def coder_series(draw):
    """Normal, tie-heavy integer, period-3, or signed-zero series."""
    kind = draw(st.sampled_from(["normal", "ties", "period-3", "signed-zero"]))
    size = draw(st.integers(20, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        return rng.normal(size=size)
    if kind == "ties":
        return rng.integers(0, 3, size=size).astype(np.float64)
    if kind == "period-3":
        return ((np.arange(size) + rng.integers(0, 3)) % 3).astype(np.float64)
    return rng.choice([0.0, -0.0, 1.0], size=size)


@settings(max_examples=80, deadline=None)
@given(x=coder_series(), orders=st.lists(st.integers(2, 20), min_size=1, max_size=8))
@example(x=np.array([0.0, -0.0] * 12), orders=[4, 3, 4, 20, 2, 20])
def test_position_codes_equal_pairwise_oracle_order_by_order(x, orders):
    got = list(lehmer_per_order(x, orders))
    assert len(got) == len(orders)
    for L, codes in zip(orders, got):
        assert codes.dtype == np.int64
        assert np.array_equal(codes, pairwise_window_codes(x, L))


def test_position_codes_checks_everything_before_any_work():
    x = np.arange(5.0)
    # raised by the call itself, naming the first order the series is too short for
    with pytest.raises(DataError, match=r"^series of length 5 is shorter than L=9$"):
        lehmer_per_order(x, (3, 9, 7))
    with pytest.raises(DataError, match=r"^series of length 5 is shorter than L=7$"):
        window_codes(x, 7)
    for bad in (1, 21, 3.0, "3"):
        with pytest.raises(ValidationError,
                           match=r"^order L must be an integer at least 2, at most 20$"):
            lehmer_per_order(x, (3, bad))
    with pytest.raises(DataError, match="non-finite"):
        lehmer_per_order(np.array([1.0, np.nan, 2.0]), (2,))
    assert list(lehmer_per_order(x, ())) == []


def test_position_codes_releases_the_lag_sums_with_the_last_order(monkeypatch):
    sums = []

    def kept(x, top):
        out = lag_sums(x, top)
        sums.append(weakref.ref(out))
        return out

    lag_sums = ordinal._lag_sums
    monkeypatch.setattr(ordinal, "_lag_sums", kept)
    codes = _position_codes(np.random.default_rng(1).normal(size=100), (5, 3))
    assert codes.keys() == {3, 5} and len(sums) == 1
    assert sums[0]() is None  # the sums are gone once the call returns


# a few value levels make ties; a leading run of equal values makes
# constant windows and windows that straddle the end of the run
tie_heavy_series = st.builds(
    lambda xs, run: np.array([xs[0]] * run + xs),
    st.lists(st.one_of(st.integers(0, 3).map(float),
                       st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)),
             min_size=1, max_size=300),
    st.integers(0, 12),
)


@settings(max_examples=80, deadline=None)
@given(x=tie_heavy_series, L=st.integers(2, 20))
def test_window_codes_equal_per_window_lehmer_codes(x, L):
    assume(x.size >= L)
    want = [lehmer_encode(rank_vector(x[t : t + L])) for t in range(x.size - L + 1)]
    assert window_codes(x, L).tolist() == want


@settings(max_examples=60, deadline=None)
@given(x=tie_heavy_series, L=st.integers(2, 6), data=st.data())
def test_census_trace_monotone_bounded_and_equal_to_visible_curve(x, L, data):
    assume(x.size >= L)
    ts = sorted(data.draw(st.lists(st.integers(L, x.size), min_size=1)))
    curve = visible_curve(x, L)
    assert curve.shape == (x.size - L + 1,)
    assert np.all(np.diff(curve) >= 0)
    assert curve[0] == 1 and curve[-1] <= math.factorial(L)
    codes = window_codes(x, L)
    assert [int(curve[t - L]) for t in ts] == [
        len(set(codes[: t - L + 1].tolist())) for t in ts
    ]


# -- the count rule: one column per code when L! <= n windows, else np.unique --

def reference_pattern_census(series, L: int) -> PatternDistribution:
    """The np.unique census, kept as the oracle for ``pattern_census``."""
    codes = window_codes(series, L)
    uniq, counts = np.unique(codes, return_counts=True)
    return PatternDistribution(
        order=L,
        counts={int(c): int(k) for c, k in zip(uniq, counts)},
        total_windows=int(codes.size),
    )


def reference_visible_curve(series, L: int) -> np.ndarray:
    """The np.unique prefix curve, kept as the oracle for ``visible_curve``."""
    codes = window_codes(series, L)
    first_idx = np.unique(codes, return_index=True)[1]
    return np.cumsum(np.bincount(first_idx, minlength=codes.size))


def assert_census_and_curve_equal_references(x, L):
    got, want = pattern_census(x, L), reference_pattern_census(x, L)
    assert list(got.counts.items()) == list(want.counts.items())
    assert got.total_windows == want.total_windows
    support = [c for c in want.counts.values() if c > 0]
    assert got.support_size == len(support)
    # the probabilities the entropies sum, in dict order, bit for bit
    expect = np.array(support, dtype=np.float64) / want.total_windows
    assert got.probabilities.tobytes() == expect.tobytes()
    curve = visible_curve(x, L)
    assert curve.dtype == np.int64
    assert np.array_equal(curve, reference_visible_curve(x, L))


@settings(max_examples=30, deadline=None)
@given(L=st.sampled_from([7, 8]), offset=st.integers(-60, 60),
       levels=st.sampled_from([0, 2, 3, 6]), seed=st.integers(0, 2**32 - 1))
def test_census_and_curve_equal_references_around_l_factorial_windows(
    L, offset, levels, seed
):
    # n = L! + offset windows: one column per code above, np.unique below;
    # levels > 0 gives a tie-heavy integer series
    n = math.factorial(L) + offset
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=n + L - 1) if levels == 0
         else rng.integers(0, levels, size=n + L - 1).astype(float))
    assert_census_and_curve_equal_references(x, L)


@settings(max_examples=60, deadline=None)
@given(x=tie_heavy_series, L=st.integers(2, 8))
def test_census_and_curve_equal_references_on_short_series(x, L):
    assume(x.size >= L)
    assert_census_and_curve_equal_references(x, L)


# -- the gather coder and the row-major census, kept as oracles for the
# -- position codes, _lehmer and the (code, block) census ---------------------

def gather_lag_sums(x: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """``E[a, t] = sum_{l <= a} c_l[t]`` and ``F[k, u] = sum_{j <= k} c_j[u + j]``
    for ``c_l[t] = x[t - l] > x[t]``."""
    N = x.size
    E = np.zeros((top, N), dtype=np.int8)
    F = np.zeros((top, N), dtype=np.int8)
    for lag in range(1, top):
        above = x[: N - lag] > x[lag:]
        np.add(E[lag - 1, lag:], above, out=E[lag, lag:])
        np.add(F[lag - 1, : N - lag], above, out=F[lag, : N - lag])
    return E, F


def gather_order_codes(E: np.ndarray, F: np.ndarray, L: int) -> np.ndarray:
    """Codes of every ``L``-window from ``e_a = E[a, w + a]`` and
    ``l_a = F[L - 1 - a, w + a]``: one weight gather per position."""
    n = E.shape[1] - L + 1
    dtype = np.min_scalar_type(-math.factorial(L))
    weight = np.array([math.factorial(L - 1 - r) for r in range(L)], dtype=dtype)
    codes = np.zeros(n, dtype=dtype)
    rank = np.empty(n, dtype=np.intp)
    term = np.empty(n, dtype=dtype)
    for a in range(1, L):
        e = E[a, a : a + n]
        np.subtract(F[L - 1 - a, a : a + n], e, out=rank, dtype=np.intp)
        rank += a
        weight.take(rank, out=term, mode="clip")
        term *= e
        codes += term
    return codes.astype(np.int64, copy=False)


def gather_window_codes(series, L: int) -> np.ndarray:
    x = np.asarray(series, dtype=np.float64)
    return gather_order_codes(*gather_lag_sums(x, L), L)


def row_major_census(codes: np.ndarray, L: int, stabilized: bool = False) -> tuple:
    """The census rule over Lehmer codes with (block, code) cells: the codes
    seen, by first block then code, and their counts."""
    n = codes.size
    if math.factorial(L) > n:
        return np.unique(codes, return_counts=True)
    m = math.factorial(L)
    block = 5 * m if stabilized else n
    n_blocks = -(-n // block)
    cell = codes if n_blocks == 1 else np.arange(n) // block * m + codes
    cum = np.bincount(cell, minlength=n_blocks * m).reshape(n_blocks, m)
    cum = cum.cumsum(axis=0)
    used = cum.sum(axis=1)
    drift = np.abs(np.diff(cum / used[:, None], axis=0)).max(axis=1)
    settled = np.flatnonzero(drift <= 1e-4)
    row = settled[0] + 1 if settled.size else n_blocks - 1
    kept = np.argsort((cum > 0).argmax(axis=0), kind="stable")
    kept = kept[cum[row, kept] > 0]
    return kept, cum[row, kept]


@settings(max_examples=80, deadline=None)
@given(x=coder_series(), L=st.integers(2, 20))
@example(x=np.array([0.0, -0.0, 1.0, -0.0, 0.0] * 5), L=4)
@example(x=np.array([1.0, 1.0, 0.0] * 8), L=20)
def test_window_codes_equal_the_gather_coder(x, L):
    codes = window_codes(x, L)
    assert codes.dtype == np.int64
    assert np.array_equal(codes, gather_window_codes(x, L))


def assert_census_equals_row_major(x, L, stabilized):
    codes, counts = ordinal._census(ordinal._positions(x, L), L, stabilized)
    want_codes, want_counts = row_major_census(window_codes(x, L), L, stabilized)
    assert codes.dtype == want_codes.dtype and counts.dtype == want_counts.dtype
    # codes, counts and their order
    assert codes.tolist() == want_codes.tolist()
    assert counts.tolist() == want_counts.tolist()


@settings(max_examples=80, deadline=None)
@given(x=coder_series(), L=st.integers(2, 8), stabilized=st.booleans())
def test_census_of_position_codes_equals_the_row_major_census(x, L, stabilized):
    assert_census_equals_row_major(x, L, stabilized)


@pytest.mark.parametrize("kind", KINDS)
def test_census_of_position_codes_equals_the_row_major_census_at_length(kind):
    x = generate(ProcessSpec(kind, length=20_000, seed=17,
                             **_KIND_PARAMETERS.get(kind, {})))
    for L in (2, 3, 4, 5, 6, 7, 9):
        for stabilized in (True, False):
            assert_census_equals_row_major(x, L, stabilized)
    # L = 7 over 2 full blocks of 5 * 7! windows and 9,601 more
    x = generate(ProcessSpec(kind, length=60_007, seed=17,
                             **_KIND_PARAMETERS.get(kind, {})))
    for stabilized in (True, False):
        assert_census_equals_row_major(x, 7, stabilized)


_MANY_BLOCK_SERIES = {
    "normal": lambda rng: rng.normal(size=250_007),
    "ties": lambda rng: rng.integers(0, 3, size=420_000).astype(np.float64),
    "xp-period-3": lambda rng: generate(ProcessSpec("xp", length=450_000, seed=23,
                                                    period=3)),
}


@pytest.mark.parametrize("kind", _MANY_BLOCK_SERIES)
def test_census_above_the_tables_in_many_blocks_equals_the_row_major_census(kind):
    # L = 8 over more than 5 * 8! = 201,600 windows: a stabilized census
    # of several blocks, whose codes are named without tables
    x = _MANY_BLOCK_SERIES[kind](np.random.default_rng(23))
    assert x.size - 7 > 5 * math.factorial(8)
    for stabilized in (True, False):
        assert_census_equals_row_major(x, 8, stabilized)


def _inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_lehmer_names_the_inverse_of_every_permutation(L):
    # a position code is the Lehmer code of the rank of each position;
    # the pattern is the inverse permutation, positions by rank
    perms = list(permutations(range(L)))
    pos = np.array([lehmer_encode(p) for p in perms])
    assert np.array_equal(pos, np.arange(math.factorial(L)))
    want = [lehmer_encode(_inverse(p)) for p in perms]
    got = ordinal._lehmer(pos, L)
    assert got.dtype == np.int64 and got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(perms=st.integers(2, 20).flatmap(
    lambda L: st.lists(st.permutations(range(L)), min_size=1, max_size=20)))
def test_lehmer_names_the_inverse_of_random_permutations(perms):
    L = len(perms[0])
    pos = np.array([lehmer_encode(p) for p in perms], dtype=np.int64)
    want = [lehmer_encode(_inverse(p)) for p in perms]
    assert ordinal._lehmer(pos, L).tolist() == want


# -- the name tables of orders 2.._TABLE_ORDER --------------------------------

@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_name_tables_are_lehmer_names_and_their_inverse(L):
    names, by_name = ordinal._names(L)
    every = np.arange(math.factorial(L))
    assert names.dtype == by_name.dtype == np.int64
    assert np.array_equal(names, ordinal._lehmer(every, L))
    assert np.array_equal(names[by_name], every)
    for table in (names, by_name):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_orders_up_to_the_cap_are_named_without_lehmer(monkeypatch):
    # tables built, every naming site of orders 2..7 reads them; one site
    # naming through _lehmer at an order up to the cap fails here
    for L in range(2, ordinal._TABLE_ORDER + 1):
        ordinal._names(L)

    def refused(pos, L):
        raise AssertionError(f"_lehmer called at L={L}")

    monkeypatch.setattr(ordinal, "_lehmer", refused)
    x = generate(ProcessSpec("white-noise", length=12_000, seed=5))
    for L in range(2, ordinal._TABLE_ORDER + 1):
        for series in (x, x[: L + 3]):  # L! <= windows; L! > 4 windows from L = 3
            window_codes(series, L)
            pattern_census(series, L)
            stabilized_census(series, L)
    assert forbidden_patterns_of_map(ProcessSpec("logistic", 1), 7, 2, 100)


class _UniqueCalled(Exception):
    pass


def test_orders_up_to_the_cap_never_reach_np_unique(monkeypatch):
    # one window and L! - 1 windows, fewer than the codes: orders 2..7 count
    # in L! rows all the same; L = 8 takes the np.unique exit, so the hook fires
    def refused(*args, **kwargs):
        raise _UniqueCalled

    x = generate(ProcessSpec("white-noise", length=7 + math.factorial(8), seed=5))
    monkeypatch.setattr(np, "unique", refused)
    for L in range(2, ordinal._TABLE_ORDER + 1):
        for windows in (1, math.factorial(L) - 1):
            series = x[: L - 1 + windows]
            for measure in (pattern_census, stabilized_census, visible_curve,
                            window_codes):
                measure(series, L)
    for windows in (1, math.factorial(8) - 1):
        for measure in (pattern_census, stabilized_census, visible_curve):
            with pytest.raises(_UniqueCalled):
                measure(x[: 7 + windows], 8)


@pytest.mark.parametrize("kind", ["normal", "xp-period-3"])
def test_census_above_the_cap_takes_np_unique_up_to_one_stabilized_block(
        kind, monkeypatch):
    # at most 5 * 8! windows the census is one block under both rules and
    # counts with np.unique; one window more, the stabilized rule makes two
    # blocks and both rules count in L! rows
    block = 5 * math.factorial(8)
    x = _MANY_BLOCK_SERIES[kind](np.random.default_rng(29))[: 7 + block + 1]
    unique, calls = np.unique, []

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    for windows in (block - 1, block, block + 1):
        for stabilized in (True, False):
            calls.clear()
            assert_census_equals_row_major(x[: 7 + windows], 8, stabilized)
            assert calls == ([windows] if windows <= block else [])


def test_a_fig4_sized_run_tables_no_order_above_the_cap():
    ordinal._names.cache_clear()
    x = generate(ProcessSpec("xp", length=50_000, seed=3, period=2))
    entropy_cells(x, range(2, 15), (0.5, 1.0), ComplexityClass.sub_factorial(0.5))
    assert ordinal._names.cache_info().currsize == 6
    misses = ordinal._names.cache_info().misses
    for L in range(2, 8):  # all six are orders 2..7
        ordinal._names(L)
    assert ordinal._names.cache_info().misses == misses


def test_stabilized_census_lists_later_blocks_by_first_block_then_code():
    # a falling ramp fills the first block of 5 * 5! windows with the last
    # code (and the few windows that reach into the noise); noise then
    # brings the other codes, block after block
    L, block = 5, 5 * math.factorial(5)
    rng = np.random.default_rng(11)
    x = np.concatenate([np.linspace(10.0, 9.0, block), rng.random(6 * block)])
    dist = stabilized_census(x, L)
    codes = window_codes(x, L)[: dist.total_windows]
    first = {}
    for t, code in enumerate(codes.tolist()):
        first.setdefault(code, t // block)
    want = sorted(first, key=lambda code: (first[code], code))
    assert first[math.factorial(L) - 1] == 0 and want != sorted(want)
    assert len({first[c] for c in want}) > 2  # codes first seen in later blocks
    assert list(dist.counts) == want
    assert list(dist.counts.values()) == np.bincount(codes)[want].tolist()
