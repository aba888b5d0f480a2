import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from permz.analysis import stabilized_census
from permz.errors import DataError, ValidationError
from permz.ordinal import (
    OrdinalPattern,
    PatternDistribution,
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


# -- censuses ---------------------------------------------------------------

def test_census_monotone_series():
    dist = pattern_census((1, 2, 3, 4, 5), 3)
    assert dist.counts == {0: 3}
    assert dist.total_windows == 3
    assert dist.probability_of(OrdinalPattern((0, 1, 2))) == 1.0


def test_census_hand_enumeration():
    # five L=2 windows of (1,2,1,2,1,2): 3 ascents, 2 descents
    dist = pattern_census((1, 2, 1, 2, 1, 2), 2)
    assert dist.total_windows == 5
    assert dist.probability_of(0) == pytest.approx(3 / 5)
    assert dist.probability_of(1) == pytest.approx(2 / 5)


def test_census_white_noise_uniformity():
    x = generate(ProcessSpec("white-noise", length=50_000, seed=21))
    dist = pattern_census(x, 3)
    assert dist.support_size == 6
    for code in range(6):
        assert abs(dist.probability_of(code) - 1 / 6) < 0.01


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
    with pytest.raises(ValidationError):
        window_codes(np.arange(21.0)[::-1], 21)


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


_KIND_PARAMETERS = {"fgn": {"hurst": 0.3}, "fbm": {"hurst": 0.7},
                    "xp": {"period": 3}, "piecewise-linear": {"sigma": 2.5}}


@pytest.mark.parametrize("kind", KINDS)
def test_window_codes_equal_reference_at_workload_length(kind):
    x = generate(ProcessSpec(kind, length=50_000, seed=13,
                             **_KIND_PARAMETERS.get(kind, {})))
    for L in (2, 3, 7, 8, 14, 20):
        assert np.array_equal(window_codes(x, L), reference_window_codes(x, L))


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
