import math
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permz.analysis import (
    _orbit_batch,
    estimate_class_constant,
    fit_decay,
    forbidden_patterns_of_map,
    stabilized_census,
    xp_allowed_count,
    xp_class_constant,
    xp_distribution,
    xp_pattern_probabilities,
)
from permz.entropy import renyi_entropy
from permz.errors import DataError, NumericalError, ValidationError
from permz.experiments import missing_curves
from permz.ordinal import (
    OrdinalPattern,
    PatternDistribution,
    lehmer_encode,
    pattern_census,
    rank_vector,
    visible_curve,
    window_codes,
)
from permz import processes
from permz.processes import ProcessSpec, derive_seed, generate
from permz.rng import Stream
from test_processes import _reference_orbit


# -- missing / pc traces ------------------------------------------------------

def test_missing_series_arithmetic():
    x = generate(ProcessSpec("white-noise", length=400, seed=1))
    curves = missing_curves(x, orders=(2, 3))
    assert curves[3][0] == 5  # single window leaves L! - 1 missing
    assert np.array_equal(curves[3], 6 - visible_curve(x, 3))
    assert curves[3].size == 400 - 3 + 1
    assert curves[2][-1] == 0  # saturated


def test_pc_function_trace_monotone_and_bounded():
    x = generate(ProcessSpec("fgn", length=3_000, seed=3, hurst=0.3))
    g = np.log(visible_curve(x, 4))  # g(4, T) = ln A_{4,T}, T = 4, 5, ...
    assert np.all(np.diff(g) >= 0)
    assert g[-1] <= math.log(math.factorial(4)) + 1e-12
    assert g[0] == 0.0


# -- decay fits ---------------------------------------------------------------

def test_fit_decay_exact_recovery():
    L, rate = 4, 0.01
    ts = np.arange(L, 2001)
    m = (math.factorial(L) - 1) * np.exp(-rate * (ts - L))
    fit = fit_decay(m, L)
    assert fit.model == "exponential" and fit.beta == 1.0
    assert fit.R == pytest.approx(rate, rel=1e-7)
    assert fit.C == pytest.approx((math.factorial(L) - 1) * math.exp(rate * L),
                                  rel=1e-6)
    free = fit_decay(m, L, fix_intercept=False)
    assert free.R == pytest.approx(rate, rel=1e-7)


def test_fit_decay_stretched_recovery():
    ts = np.arange(4, 3000)
    m = 50.0 * np.exp(-0.3 * ts**0.5)
    fit = fit_decay(m, 4, model="stretched")
    assert fit.beta == pytest.approx(0.5, abs=1e-3)
    assert fit.R == pytest.approx(0.3, rel=1e-3)
    assert fit.C == pytest.approx(50.0, rel=1e-2)


def test_fit_decay_prefix_selection():
    # points past the first M < 1 are ignored
    L = 4
    ts = np.arange(L, 500)
    m = (math.factorial(L) - 1) * np.exp(-0.05 * (ts - L))
    noisy = np.where(m >= 1.0, m, 0.0)
    fit = fit_decay(noisy, L)
    assert fit.R == pytest.approx(0.05, rel=1e-6)
    first_below = int(np.argmax(m < 1.0))
    assert fit.fit_range == (L, L + first_below - 1)
    assert fit.n_points == first_below


def test_fit_decay_errors():
    with pytest.raises(ValidationError):
        fit_decay([10.0] * 8, 4, model="cubic")
    with pytest.raises(DataError):
        fit_decay([23.0, 0.0, 0.0, 0.0], 4)  # saturated
    with pytest.raises(DataError):
        fit_decay([23.0, 12.0, 5.0], 4)  # too few points
    with pytest.raises(DataError):
        fit_decay([], 4)
    growing = 5.0 * np.exp(0.01 * np.arange(4, 50))
    with pytest.raises(DataError):
        fit_decay(growing, 4, fix_intercept=False)  # no decay present
    # (T, M) pairs are a 2-d input, not a curve: rejected, not fitted
    pairs = [(t, 23.0 * math.exp(-0.1 * (t - 4))) for t in range(4, 40)]
    with pytest.raises(ValidationError):
        fit_decay(pairs, 4)
    with pytest.raises(ValidationError):
        fit_decay(np.ones((2, 10)), 4)
    with_nan = 23.0 * np.exp(-0.1 * np.arange(36))
    with_nan[5] = np.nan
    with pytest.raises(DataError):
        fit_decay(with_nan, 4)
    # the order must be an integer in 2..20 (numpy integers accepted)
    curve = 23.0 * np.exp(-0.1 * np.arange(36))
    for bad in (1, 0, -3, 21, 2.5, 4.0, "4", None):
        with pytest.raises(ValidationError):
            fit_decay(curve, bad)
    assert fit_decay(curve, np.int64(4)) == fit_decay(curve, 4)


@pytest.mark.parametrize("kwargs", [{"fix_intercept": False}, {"model": "stretched"}])
def test_fit_decay_constant_beyond_a_double_raises_numerical_error(kwargs):
    curve = np.array([1e300, 1e250, 1e200, 1e150, 1e100, 1e50, 10.0])
    with pytest.raises(NumericalError, match="overflows at the fitted ln C = "):
        fit_decay(curve, 20, **kwargs)


# -- noisy-periodic combinatorics ----------------------------------------------

TABLE2 = {
    2: {2: 2, 3: 3, 4: 4, 5: 8, 6: 12, 7: 30, 8: 48, 9: 144, 10: 240,
        11: 840, 12: 1440, 13: 5760, 14: 10080},
    3: {3: 3, 4: 5, 5: 8, 6: 12, 7: 28, 8: 60, 9: 108, 10: 324,
        11: 864, 12: 1728, 13: 6336, 14: 20160},
    4: {4: 4, 5: 7, 6: 12, 7: 20, 8: 32, 9: 80, 10: 192, 11: 432,
        12: 864, 13: 2808, 14: 8640},
    5: {5: 5, 6: 9, 7: 16, 8: 28, 9: 48, 10: 80, 11: 208, 12: 528,
        13: 1296, 14: 3024},
    6: {6: 6, 7: 11, 8: 20, 9: 36, 10: 64, 11: 112, 12: 192, 13: 512,
        14: 1344},
}


def test_allowed_counts_reproduce_reference_table():
    for p, row in TABLE2.items():
        for L, expected in row.items():
            assert xp_allowed_count(p, L) == expected


def test_allowed_count_unsupported_range():
    with pytest.raises(ValidationError):
        xp_allowed_count(3, 2)
    with pytest.raises(ValidationError):
        xp_allowed_count(1, 4)
    for bad in (4.0, 2.5, "4"):
        with pytest.raises(ValidationError):
            xp_allowed_count(2, bad)
        with pytest.raises(ValidationError):
            xp_pattern_probabilities(2, bad)
    assert xp_allowed_count(np.int64(2), np.int64(5)) == 8


def test_allowed_count_exact_big_integers():
    # factorial growth quickly exceeds 64-bit range; stays exact
    value = xp_allowed_count(2, 60)
    assert value == 2 * math.factorial(30)
    assert value.bit_length() > 100


def test_xp_distribution_examples():
    d = xp_distribution(2, 5)
    assert (d.N1, d.N2) == (6, 2)
    assert d.P1 == Fraction(1, 12) and d.P2 == Fraction(1, 4)
    assert d.N1 * d.P1 + d.N2 * d.P2 == 1

    d = xp_distribution(2, 6)  # width a multiple of the period: equiprobable
    assert d.N2 == 0 and d.P1 == Fraction(1, 12)
    for alpha in (0.5, 1.0, 2.0):
        assert d.renyi(alpha) == pytest.approx(math.log(12))

    d = xp_distribution(3, 4)
    assert (d.N1, d.N2) == (4, 1)
    assert d.allowed == 5


def test_xp_renyi_closed_form():
    d = xp_distribution(3, 5)
    p1, p2 = float(d.P1), float(d.P2)
    expect_r2 = math.log(d.N1 * p1**2 + d.N2 * p2**2) / (1 - 2)
    assert d.renyi(2.0) == pytest.approx(expect_r2)
    shannon = -(d.N1 * p1 * math.log(p1) + d.N2 * p2 * math.log(p2))
    assert d.renyi(1.0) == pytest.approx(shannon)
    assert d.renyi(0.0) == pytest.approx(math.log(d.allowed))
    # alpha-monotone
    vals = [d.renyi(a) for a in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


@settings(max_examples=60, deadline=None)
@given(p=st.integers(2, 4), extra=st.integers(0, 7),
       alpha=st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(0.0, 6.0).filter(lambda a: abs(a - 1.0) > 1e-3)))
def test_xp_analytics_normalized_and_equal_to_expanded_renyi(p, extra, alpha):
    d = xp_distribution(p, p + extra)
    assert d.N1 * d.P1 + d.N2 * d.P2 == 1  # exact rationals
    assert d.allowed == d.N1 + d.N2 == xp_allowed_count(p, p + extra)
    expanded = np.array([float(d.P1)] * d.N1 + [float(d.P2)] * d.N2)
    # summation order differs; |1 - alpha| >= 1e-3 bounds the amplification
    assert d.renyi(alpha) == pytest.approx(renyi_entropy(expanded, alpha),
                                           rel=1e-10, abs=1e-10)


def decimal_xp_renyi(d, alpha: float) -> float:
    """Renyi entropy of the two-level distribution in 80-digit decimal:
    the reference for ``XpAnalytics.renyi`` at any order."""
    with localcontext() as ctx:
        ctx.prec = 80
        groups = [(n, Decimal(q.numerator) / q.denominator)
                  for n, q in ((d.N1, d.P1), (d.N2, d.P2)) if n]
        if alpha == 1.0:
            return float(-sum(n * q * q.ln() for n, q in groups))
        a = Decimal(alpha)
        return float(sum(n * (a * q.ln()).exp() for n, q in groups).ln() / (1 - a))


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("L", [7, 29, 147, 149, 151, 205, 257, 341, 400, 1000])
def test_xp_renyi_equals_a_decimal_reference_at_any_order(p, L):
    # float probabilities lose digits from L ~ 140 at p = 2, and underflow
    # to a domain or overflow error further on
    d = xp_distribution(p, L)
    for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
        assert d.renyi(alpha) == pytest.approx(decimal_xp_renyi(d, alpha), rel=2e-15)


@pytest.mark.parametrize("alpha", [1.0 + s * d for d in (1.1e-8, 1e-7, 1e-5, 9.99e-4)
                                   for s in (1, -1)])
@pytest.mark.parametrize("L", [8, 2000, 10_000])
def test_xp_renyi_keeps_its_digits_next_to_the_shannon_window(alpha, L):
    # from L ~ 2000, (alpha - 1) ln P_i leaves the reach of expm1 at the
    # band's edge, and the log-sum-exp form has to take over
    d = xp_distribution(3, L)
    assert d.renyi(alpha) == pytest.approx(decimal_xp_renyi(d, alpha), rel=1e-14)


def test_xp_class_constants():
    assert xp_class_constant(2, 0) == pytest.approx(0.5)
    assert xp_class_constant(2, 1) == pytest.approx(0.5)
    assert xp_class_constant(3, 0) == pytest.approx(2 / 3)
    assert xp_class_constant(3, 1) == pytest.approx(1 / 3)
    assert xp_class_constant(3, 2) == pytest.approx(2 / 3)
    assert xp_class_constant(5, 2) == pytest.approx(2 / 5)
    for bad in (3, -1, 1.5, "1"):
        with pytest.raises(ValidationError):
            xp_class_constant(3, bad)


@pytest.mark.parametrize("bad", [(3,), (1.5,), ("1",), 5])
def test_xp_pattern_probabilities_rejects_bad_residues(bad):
    with pytest.raises(ValidationError):
        xp_pattern_probabilities(3, 4, noiseless_residues=bad)


def test_oracle_agrees_with_closed_form():
    for p in (2, 3, 4):
        for L in range(p, 9):
            probs = xp_pattern_probabilities(p, L)
            d = xp_distribution(p, L)
            assert len(probs) == d.allowed
            assert sum(probs.values()) == 1
            levels = {}
            for value in probs.values():
                levels[value] = levels.get(value, 0) + 1
            if d.N2 == 0:
                assert levels == {d.P1: d.N1}
            elif d.P1 == d.P2:
                assert levels == {d.P1: d.N1 + d.N2}
            else:
                assert levels == {d.P1: d.N1, d.P2: d.N2}


def test_oracle_rank_vectors_are_valid():
    probs = xp_pattern_probabilities(3, 5)
    for ranks in probs:
        OrdinalPattern(ranks)  # raises if not a permutation


def test_oracle_handles_custom_noiseless_sets():
    # two noiseless phases of a period-3 cycle leave one noisy group
    probs = xp_pattern_probabilities(3, 6, noiseless_residues=(1, 2))
    assert len(probs) == 3 * math.factorial(2) ** 1


def test_empirical_census_matches_analytics():
    p, L, T = 3, 5, 100_000
    d = xp_distribution(p, L)
    oracle = xp_pattern_probabilities(p, L)
    spec = ProcessSpec("xp", length=T, seed=0, period=p)
    x = generate(replace(spec, seed=12345))
    dist = pattern_census(x, L)
    assert dist.support_size == d.allowed
    observed = {
        tuple(OrdinalPattern.from_code(code, L).ranks): cnt / dist.total_windows
        for code, cnt in dist.counts.items()
    }
    assert set(observed) == set(oracle)
    for ranks, prob in oracle.items():
        assert observed[ranks] == pytest.approx(float(prob), abs=0.01)


def test_asymptotic_growth_ratio_monotone():
    # ln A(p, nu*p) / ((p-1)/p * L ln L) climbs toward 1 (log-slowly);
    # frozen endpoints from exact counts, L = 60
    def ratio(p, L):
        nu = L // p
        return (math.log(p) + (p - 1) * math.lgamma(nu + 1)) / (
            ((p - 1) / p) * L * math.log(L)
        )

    r2 = [ratio(2, L) for L in range(6, 61, 2)]
    assert all(b > a for a, b in zip(r2, r2[1:]))
    assert r2[-1] == pytest.approx(0.6134590643611676, abs=1e-12)
    r3 = [ratio(3, L) for L in range(6, 61, 3)]
    assert all(b > a for a, b in zip(r3, r3[1:]))
    assert r3[-1] == pytest.approx(0.5237092525233495, abs=1e-12)
    # exact integer counts agree with the lgamma form
    for L in (20, 40, 60):
        assert math.log(xp_allowed_count(2, L)) == pytest.approx(
            math.log(2) + math.lgamma(L // 2 + 1)
        )


# -- growth-constant estimation -------------------------------------------------

def test_estimate_exponential_exact():
    fit = estimate_class_constant([(L, 2**L) for L in range(3, 16)], "exponential")
    assert fit.c == pytest.approx(math.log(2), abs=1e-12)
    assert fit.residual < 1e-12
    assert not fit.degenerate


def test_estimate_sub_linear_log_on_xp_counts():
    # frozen value 0.2440948572 for p=2 even widths up to 14; the true
    # constant 1/2 is approached only logarithmically in L
    counts = [(L, xp_allowed_count(2, L)) for L in range(2, 15, 2)]
    fit = estimate_class_constant(counts, "sub_linear_log")
    assert fit.c == pytest.approx(0.2440948572375009, abs=1e-12)
    big = [(L, xp_allowed_count(2, L)) for L in range(40, 201, 20)]
    assert estimate_class_constant(big, "sub_linear_log").c > fit.c


def test_estimate_degenerate_counts():
    fit = estimate_class_constant([(3, 1), (4, 1), (5, 1)], "exponential")
    assert fit.c == 0.0 and fit.degenerate


def test_estimate_validation():
    with pytest.raises(DataError):
        estimate_class_constant([(3, 8), (4, 16)], "exponential")
    with pytest.raises(ValidationError):
        estimate_class_constant([(3, 8), (4, 16), (5, 0)], "exponential")
    with pytest.raises(ValidationError):
        estimate_class_constant([(3, 8), (4, 16), (5, 32)], "quadratic")
    for bad in (0, 1, 3.7):  # an order outside 2, 3, ... or not an integer
        with pytest.raises(ValidationError):
            estimate_class_constant([(bad, 8), (4, 16), (5, 32)], "sub_linear_log")
    for bad in (math.inf, math.nan):
        with pytest.raises(DataError):
            estimate_class_constant([(3, 8), (4, bad), (5, 32)], "exponential")


# -- forbidden patterns ----------------------------------------------------------

def test_forbidden_logistic_small_scale():
    spec = ProcessSpec("logistic", length=1, seed=5)
    forbidden = forbidden_patterns_of_map(spec, 3, n_orbits=10, orbit_len=20_000)
    assert {p.ranks for p in forbidden} == {(2, 1, 0)}


def test_forbidden_shift_small_scale():
    spec = ProcessSpec("shift", length=1, seed=6)
    assert forbidden_patterns_of_map(spec, 3, 10, 20_000) == set()
    forbidden4 = forbidden_patterns_of_map(spec, 4, 20, 50_000)
    assert len(forbidden4) == 6


def reference_forbidden_patterns(spec, L, n_orbits, orbit_len):
    """The np.unique + set-union scan, kept as the oracle for
    ``forbidden_patterns_of_map`` (same orbits, no early exit)."""
    seen: set[int] = set()
    for row in _orbit_batch(spec, n_orbits, orbit_len):
        seen.update(np.unique(window_codes(row, L)).tolist())
    return {OrdinalPattern.from_code(code, L)
            for code in range(math.factorial(L)) if code not in seen}


@pytest.mark.parametrize("kind", ["shift", "logistic", "piecewise-linear"])
@pytest.mark.parametrize("seed", [0, 7, -1, 2**64 - 1])
def test_orbit_batch_follows_the_seed_rule(kind, seed):
    """The scan's seeds, written out: shift orbit i is the series at
    ``derive_seed(seed, i)``; a map's initial conditions are the uniforms
    of stream ``seed`` and orbit i is kicked by stream
    ``derive_seed(seed, i + 1)``, one uniform per 10 000 steps."""
    extra = {"sigma": 2.7} if kind == "piecewise-linear" else {}
    spec = ProcessSpec(kind, length=1, seed=seed, **extra)
    n_orbits, orbit_len = 3, 25_000  # three kick blocks per zigzag orbit
    if kind == "shift":
        rows = [generate(replace(spec, length=orbit_len, seed=derive_seed(seed, i)))
                for i in range(n_orbits)]
    else:
        x0 = 1e-6 + (1.0 - 2e-6) * Stream(seed).uniforms(n_orbits)
        rows = [_reference_orbit(spec, float(x0[i]), orbit_len,
                                 Stream(derive_seed(seed, i + 1)).uniforms(3)
                                 if kind == "piecewise-linear" else ())
                for i in range(n_orbits)]
    batch = _orbit_batch(spec, n_orbits, orbit_len)  # shift: one row at a time
    assert np.vstack(list(batch)).tobytes() == np.vstack(rows).tobytes()


@pytest.mark.parametrize("n_orbits", [1, 50])
def test_shift_scan_generates_no_orbit_after_every_pattern_is_seen(
        n_orbits, monkeypatch):
    calls = []

    def counting_generate(spec):
        calls.append(spec)
        return generate(spec)

    monkeypatch.setattr("permz.analysis.generate", counting_generate)
    spec = ProcessSpec("shift", length=1, seed=4)
    assert forbidden_patterns_of_map(spec, 2, n_orbits, 1_000) == set()
    assert [s.seed for s in calls] == [4]  # the first orbit shows both patterns
    # with forbidden patterns at L = 4, every orbit is generated
    calls.clear()
    assert len(forbidden_patterns_of_map(spec, 4, n_orbits, 1_000)) == 6
    assert len(calls) == n_orbits


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["logistic", "piecewise-linear", "shift"]),
       L=st.integers(2, 7), n_orbits=st.integers(1, 4),
       orbit_len=st.integers(7, 600), seed=st.integers(0, 2**32 - 1))
def test_forbidden_scan_equals_set_union_oracle(kind, L, n_orbits, orbit_len, seed):
    # orbit_len < L! for most draws at L >= 6: the per-orbit codes are sparse
    extra = {"sigma": 2.7} if kind == "piecewise-linear" else {}
    spec = ProcessSpec(kind, length=1, seed=seed, **extra)
    assert forbidden_patterns_of_map(spec, L, n_orbits, orbit_len) == (
        reference_forbidden_patterns(spec, L, n_orbits, orbit_len)
    )


@pytest.mark.parametrize("kind", ["logistic", "piecewise-linear", "shift"])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_forbidden_scan_equals_per_window_rank_vector_oracle(kind, L):
    """The scan against windows ranked one by one (``rank_vector``, then
    ``lehmer_encode``): an oracle with no lag sums, position codes or
    ``_lehmer`` in it, over the same orbits."""
    extra = {"sigma": 2.7} if kind == "piecewise-linear" else {}
    spec = ProcessSpec(kind, length=1, seed=11 + L, **extra)
    n_orbits, orbit_len = 3, 500
    seen = {lehmer_encode(rank_vector(row[t : t + L]))
            for row in _orbit_batch(spec, n_orbits, orbit_len)
            for t in range(orbit_len - L + 1)}
    want = {OrdinalPattern.from_code(code, L)
            for code in range(math.factorial(L)) if code not in seen}
    assert forbidden_patterns_of_map(spec, L, n_orbits, orbit_len) == want


def test_forbidden_validation():
    with pytest.raises(ValidationError):
        forbidden_patterns_of_map(ProcessSpec("white-noise", length=1), 3, 5, 100)
    for bad in (8, 1, 3.0):
        with pytest.raises(ValidationError):
            forbidden_patterns_of_map(ProcessSpec("logistic", length=1), bad, 5, 100)
    for n_orbits, orbit_len in ((2.5, 100), (0, 100), (2, 100.5), (2, 2)):
        with pytest.raises(ValidationError):
            forbidden_patterns_of_map(ProcessSpec("logistic", length=1), 3,
                                      n_orbits, orbit_len)


# -- stabilized census ------------------------------------------------------------

def test_stabilized_census_early_exit_and_consistency():
    x = generate(ProcessSpec("white-noise", length=50_000, seed=3))
    dist = stabilized_census(x, 3)
    assert dist.total_windows < 49_998  # exited before the end
    assert dist.support_size == 6
    assert abs(dist.probabilities.sum() - 1.0) < 1e-12
    full = pattern_census(x[: dist.total_windows + 2], 3)
    assert full.counts == dist.counts


def test_stabilized_census_short_series_runs_to_end():
    x = generate(ProcessSpec("white-noise", length=300, seed=4))
    dist = stabilized_census(x, 5)
    assert dist.total_windows == 296


def reference_stabilized_census(
    series, L: int, tol: float = 1e-4, block: int | None = None
) -> PatternDistribution:
    """Block-by-block census with a running probability dict: the slow
    reference that ``stabilized_census`` must reproduce, dict order
    included."""
    codes = window_codes(series, L)
    n = codes.size
    if block is None:
        block = 5 * math.factorial(L)
    if block >= n:
        uniq, cnt = np.unique(codes, return_counts=True)
        return PatternDistribution(
            order=L,
            counts={int(c): int(k) for c, k in zip(uniq, cnt)},
            total_windows=int(n),
        )
    counts: dict[int, int] = {}
    used = 0
    prev: dict[int, float] = {}
    while used < n:
        hi = min(used + block, n)
        uniq, cnt = np.unique(codes[used:hi], return_counts=True)
        for c, k in zip(uniq, cnt):
            counts[int(c)] = counts.get(int(c), 0) + int(k)
        used = hi
        probs = {c: k / used for c, k in counts.items()}
        if prev:
            drift = max(
                abs(probs.get(c, 0.0) - prev.get(c, 0.0))
                for c in set(probs) | set(prev)
            )
            if drift <= tol:
                break
        prev = probs
    return PatternDistribution(order=L, counts=counts, total_windows=used)


def assert_same_census(series, L):
    got = stabilized_census(series, L)
    want = reference_stabilized_census(series, L)
    assert list(got.counts.items()) == list(want.counts.items())
    assert got.total_windows == want.total_windows


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 6), n=st.integers(6, 4_000), seed=st.integers(0, 2**32 - 1))
def test_stabilized_census_equals_reference_on_floats(L, n, seed):
    x = np.random.default_rng(seed).normal(size=n)
    assert_same_census(x, L)


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 6), n=st.integers(6, 4_000), levels=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_stabilized_census_equals_reference_on_ties(L, n, levels, seed):
    x = np.random.default_rng(seed).integers(0, levels, size=n).astype(float)
    assert_same_census(x, L)


@pytest.mark.parametrize("kind, extra", [("white-noise", {}),
                                         ("fbm", {"hurst": 0.7}),
                                         ("logistic", {})])
@pytest.mark.parametrize("L", [3, 4])
def test_stabilized_census_equals_reference_at_workload_length(kind, extra, L):
    # at T = 50 000 the stop rule fires part-way through the series
    x = generate(ProcessSpec(kind, length=50_000, seed=8, **extra))
    assert_same_census(x, L)


@settings(max_examples=20, deadline=None)
@given(L=st.sampled_from([7, 8]), offset=st.integers(-60, 60),
       levels=st.sampled_from([0, 2, 3, 6]), seed=st.integers(0, 2**32 - 1))
def test_stabilized_census_equals_reference_around_l_factorial_windows(
    L, offset, levels, seed
):
    # n = L! + offset windows, one block: one column per code above L!,
    # np.unique below; levels > 0 gives a tie-heavy integer series
    n = math.factorial(L) + offset
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=n + L - 1) if levels == 0
         else rng.integers(0, levels, size=n + L - 1).astype(float))
    assert_same_census(x, L)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: xp_allowed_count(2.5, 5), id="allowed-count"),
    pytest.param(lambda: xp_pattern_probabilities(2.5, 4), id="oracle"),
    pytest.param(lambda: xp_class_constant(1, 0), id="constant-period-1"),
    pytest.param(lambda: xp_class_constant(2.5, 0), id="constant-period-2.5"),
    pytest.param(lambda: xp_distribution(np.float64(3.0), 6), id="distribution"),
])
def test_period_outside_its_domain_raises_validation_error(call):
    with pytest.raises(ValidationError, match="period"):
        call()


@pytest.mark.parametrize("n_orbits, orbit_len, named", [
    (1, 2**63, "orbit_len"), (1, 10**400, "orbit_len"),
    (10**400, 10, "n_orbits"), (processes._MAX_LENGTH + 1, 10, "n_orbits"),
    (10, 2**57, r"n_orbits \* orbit_len"), (2**57, 10, r"n_orbits \* orbit_len"),
], ids=["orbit_len-2**63", "orbit_len-10**400", "n_orbits-10**400", "n_orbits-bound+1",
        "batch-10x2**57", "batch-2**57x10"])
def test_forbidden_scan_sizes_beyond_the_array_bound(n_orbits, orbit_len, named):
    # each raised a bare numpy error while drawing or iterating the orbits
    with pytest.raises(ValidationError, match=f"{named} must be .* at most"):
        forbidden_patterns_of_map(ProcessSpec("logistic", length=1), 3,
                                  n_orbits, orbit_len)
