import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permz import processes
from permz.errors import ValidationError
from permz.ordinal import pattern_census, window_codes
from permz.processes import (
    ProcessSpec,
    derive_seed,
    dither_kicks,
    fgn_autocovariance,
    generate,
    map_orbit,
)


# -- spec validation ---------------------------------------------------------

def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        ProcessSpec("pink-noise", length=10)


def test_parameter_domains():
    with pytest.raises(ValidationError):
        ProcessSpec("fgn", length=10, hurst=1.5)
    with pytest.raises(ValidationError):
        ProcessSpec("fbm", length=10)
    with pytest.raises(ValidationError):
        ProcessSpec("xp", length=10, period=1)
    with pytest.raises(ValidationError):
        ProcessSpec("xp", length=10, period=3, delta=-1.0)
    with pytest.raises(ValidationError):
        ProcessSpec("xp", length=10, period=3, noiseless_residues=(3,))
    for bad in ((1.5,), ("1",), 5):  # a fraction, a string, a bare integer
        with pytest.raises(ValidationError):
            ProcessSpec("xp", length=6, period=3, noiseless_residues=bad)
    with pytest.raises(ValidationError):
        ProcessSpec("piecewise-linear", length=10, sigma=0.9)
    with pytest.raises(ValidationError):
        ProcessSpec("white-noise", length=0)
    with pytest.raises(ValidationError):
        ProcessSpec("white-noise", length=10, hurst=0.5)  # stray parameter


def test_length_and_period_must_be_integers():
    # a float length would round up the sample count and a float period
    # would give aperiodic phases
    with pytest.raises(ValidationError):
        ProcessSpec("white-noise", length=2.5)
    with pytest.raises(ValidationError):
        ProcessSpec("white-noise", length=10.0)
    with pytest.raises(ValidationError):
        ProcessSpec("xp", length=10, period=2.5)
    with pytest.raises(ValidationError):
        ProcessSpec("xp", length=10, period=np.float64(3.0))
    spec = ProcessSpec("xp", length=np.int64(12), period=np.int32(3))
    assert generate(spec).shape == (12,)
    plain = ProcessSpec("xp", length=12, period=3)
    assert np.array_equal(generate(spec), generate(plain))


@pytest.mark.parametrize("kind, field, extra", [
    ("fbm", "hurst", {}),
    ("noisy-logistic", "amplitude", {}),
    ("noisy-schuster", "x0", {}),
    ("xp", "delta", {"period": 2}),
    ("piecewise-linear", "sigma", {}),
    ("piecewise-linear", "x0", {"sigma": 2.0}),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_real_parameters_must_be_finite(kind, field, extra, value):
    # nan passes every range check written as a comparison, inf the
    # one-sided ones; either would be written out as a series of nan
    with pytest.raises(ValidationError):
        ProcessSpec(kind, length=3, **extra, **{field: value})


@pytest.mark.parametrize("seed", [2.5, math.nan, 3.0])
def test_seed_must_be_an_integer(seed):
    # int(2.5) would silently run seed 2, and nan failed only inside generate
    with pytest.raises(ValidationError):
        ProcessSpec("white-noise", length=5, seed=seed)


def test_seeds_of_either_sign_are_taken_modulo_2_64():
    def series(seed):
        return generate(ProcessSpec("white-noise", length=5, seed=seed))

    assert np.array_equal(series(-1), series(2**64 - 1))


def test_known_entropies():
    assert ProcessSpec("logistic", length=5).known_entropies == (
        math.log(2), math.log(2)
    )
    sigma = 3.7
    assert ProcessSpec("piecewise-linear", length=5, sigma=sigma).known_entropies == (
        math.log(sigma), math.log(sigma)
    )
    assert ProcessSpec("white-noise", length=5).known_entropies is None


# -- determinism -------------------------------------------------------------

@pytest.mark.parametrize(
    "spec",
    [
        ProcessSpec("white-noise", length=257, seed=9),
        ProcessSpec("fgn", length=257, seed=9, hurst=0.3),
        ProcessSpec("fbm", length=257, seed=9, hurst=0.7),
        ProcessSpec("noisy-logistic", length=257, seed=9),
        ProcessSpec("noisy-schuster", length=257, seed=9),
        ProcessSpec("xp", length=257, seed=9, period=4),
        ProcessSpec("piecewise-linear", length=257, seed=9, sigma=2.5),
        ProcessSpec("logistic", length=257, seed=9),
        ProcessSpec("shift", length=257, seed=9),
    ],
)
def test_bit_identical_reproducibility(spec):
    a = generate(spec)
    b = generate(spec)
    assert a.dtype == np.float64 and a.shape == (257,)
    assert np.array_equal(a, b)
    if spec.kind != "logistic":  # the noise-free orbit ignores the seed
        c = generate(replace(spec, seed=derive_seed(spec.seed, 1)))
        assert not np.array_equal(a, c)


@pytest.mark.parametrize("base", [2.5, math.nan, "3", None])
def test_derive_seed_rejects_a_non_integer_base(base):
    with pytest.raises(ValidationError, match="seed must be an integer"):
        derive_seed(base, 1)


def test_derive_seed_takes_numpy_integers_modulo_2_64():
    assert derive_seed(np.int64(2), 1) == 3
    assert derive_seed(np.uint64(2**64 - 1), 1) == 0
    assert derive_seed(-1, 0) == 2**64 - 1


# -- individual generators ---------------------------------------------------

def test_logistic_iterates():
    # direct iteration of 4x(1-x) from 0.2002
    x = generate(ProcessSpec("logistic", length=4, seed=0))
    v = 0.2002
    expected = [v]
    for _ in range(3):
        v = 4.0 * v * (1.0 - v)
        expected.append(v)
    assert np.array_equal(x, expected)
    assert x[1] == pytest.approx(0.64047984, abs=1e-12)
    assert x[2] == pytest.approx(0.9210616582142975, abs=1e-12)


def test_logistic_census_never_sees_descending_triple():
    x = generate(ProcessSpec("logistic", length=100_000, seed=0))
    dist = pattern_census(x, 3)
    assert 5 not in dist.counts  # code 5 is the (2,1,0) word
    assert dist.support_size == 5


def test_schuster_orbit_recurrence():
    x = generate(ProcessSpec("noisy-schuster", length=50, seed=3, amplitude=0.0))
    for t in range(1, 50):
        assert x[t] == pytest.approx((x[t - 1] + x[t - 1] ** 2) % 1.0)


def test_noisy_maps_bounded_noise():
    for kind, amp in (("noisy-logistic", 0.30), ("noisy-schuster", 0.25)):
        noisy = generate(ProcessSpec(kind, length=5_000, seed=4))
        clean = generate(ProcessSpec(kind, length=5_000, seed=4, amplitude=0.0))
        diff = noisy - clean
        assert np.max(np.abs(diff)) <= amp
        assert np.max(np.abs(diff)) > 0.5 * amp  # noise actually applied


def test_white_noise_range():
    x = generate(ProcessSpec("white-noise", length=10_000, seed=1))
    assert x.min() >= 0.0 and x.max() < 1.0


# -- fGn / fBm ---------------------------------------------------------------

def test_fgn_autocovariance_values():
    assert fgn_autocovariance(0.3, 0) == pytest.approx(1.0)
    assert fgn_autocovariance(0.5, 1) == pytest.approx(0.0, abs=1e-15)
    assert fgn_autocovariance(0.75, 1) == pytest.approx(2**1.5 / 2 - 1.0)
    with pytest.raises(ValidationError):
        fgn_autocovariance(1.0, 1)
    with pytest.raises(ValidationError):
        fgn_autocovariance(0.5, -1)


@pytest.mark.parametrize("hurst", [0.2, 0.5, 0.75])
def test_fgn_sample_autocovariance(hurst):
    n = 2**16
    x = generate(ProcessSpec("fgn", length=n, seed=42, hurst=hurst))
    xc = x - x.mean()
    # Bartlett-style standard error from the analytic covariances
    gammas = np.array([fgn_autocovariance(hurst, k) for k in range(1, 2000)])
    se = math.sqrt((1.0 + 2.0 * float(np.sum(gammas**2))) / n)
    for k in range(6):
        emp = float(np.mean(xc[: n - k] * xc[k:])) if k else float(np.mean(xc * xc))
        assert abs(emp - fgn_autocovariance(hurst, k)) < 5.0 * se


def test_fgn_h_half_is_white_gaussian():
    n = 2**15
    x = generate(ProcessSpec("fgn", length=n, seed=17, hurst=0.5))
    r1 = float(np.corrcoef(x[:-1], x[1:])[0, 1])
    assert abs(r1) < 3.0 / math.sqrt(n)


def test_fbm_is_cumsum_of_fgn():
    for hurst in (0.2, 0.6):
        fbm = generate(ProcessSpec("fbm", length=1_024, seed=6, hurst=hurst))
        fgn = generate(ProcessSpec("fgn", length=1_024, seed=6, hurst=hurst))
        assert np.array_equal(fbm, np.cumsum(fgn))


# -- noisy-periodic process --------------------------------------------------

def test_xp_group_splitting():
    # every window splits into residue groups ordered by phase value
    p, delta = 4, 1.0
    x = generate(ProcessSpec("xp", length=4_000, seed=8, period=p, delta=delta))
    phase = np.arange(4_000) % p
    for k in range(p - 1):
        assert x[phase == k].max() < x[phase == k + 1].min()


def test_xp_noiseless_residue_exact():
    p = 3
    x = generate(ProcessSpec("xp", length=300, seed=2, period=p))
    phase = np.arange(300) % p
    assert np.all(x[phase == p - 1] == float(p - 1))
    assert np.all(x[phase != p - 1] != phase[phase != p - 1])


def test_xp_custom_noiseless_residues():
    x = generate(
        ProcessSpec("xp", length=300, seed=2, period=3, noiseless_residues=(0, 2))
    )
    phase = np.arange(300) % 3
    assert np.all(x[phase == 0] == 0.0)
    assert np.all(x[phase == 2] == 2.0)


def test_xp_alternating_has_both_two_patterns():
    x = generate(ProcessSpec("xp", length=64, seed=5, period=2, delta=1e-6))
    dist = pattern_census(x, 2)
    assert dist.support_size == 2


# -- class-witness maps ------------------------------------------------------

def test_piecewise_linear_stays_in_unit_interval():
    x = generate(ProcessSpec("piecewise-linear", length=50_000, seed=3, sigma=3.7))
    assert x.min() >= 0.0 and x.max() <= 1.0
    # slope-sigma zigzag: consecutive points obey the map up to the dither
    y = 1.0 - np.abs((3.7 * x[:-1]) % 2.0 - 1.0)
    mismatch = np.abs(y - x[1:])
    assert np.sort(mismatch)[-10] < 1e-10  # only dither steps may differ


def test_piecewise_linear_exponential_pattern_growth():
    sigma = 2.5
    x = generate(ProcessSpec("piecewise-linear", length=200_000, seed=1, sigma=sigma))
    for L in (4, 5, 6):
        support = pattern_census(x, L).support_size
        assert support < math.factorial(L)
        assert math.log(support) < L * math.log(sigma) + math.log(L) + 1.0


def test_shift_series_follows_doubling_map():
    x = generate(ProcessSpec("shift", length=10_000, seed=7))
    assert np.all((x >= 0.0) & (x < 1.0))
    # x_{t+1} equals 2 x_t mod 1 up to the one dropped tail bit
    err = np.abs((2.0 * x[:-1]) % 1.0 - x[1:])
    assert np.max(np.minimum(err, 1.0 - err)) <= 2.0**-52


def test_shift_all_three_patterns_allowed():
    x = generate(ProcessSpec("shift", length=50_000, seed=9))
    assert pattern_census(x, 3).support_size == 6


def test_window_codes_on_generated_series_smoke():
    x = generate(ProcessSpec("xp", length=1_000, seed=1, period=2))
    codes = window_codes(x, 6)
    assert codes.size == 995


# -- batch orbits -------------------------------------------------------------

MAPS = (
    ProcessSpec("logistic", length=1),
    ProcessSpec("noisy-schuster", length=1),
    ProcessSpec("piecewise-linear", length=1, sigma=1.7),
)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(MAPS),
    x0=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=6),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**63),
)
def test_batch_orbit_rows_equal_scalar_orbits(spec, x0, n, seed):
    # a short dither period puts several kicks inside short orbits
    with mock.patch.object(processes, "_DITHER_PERIOD", 7):
        kicks = [dither_kicks(spec, seed + i, n) for i in range(len(x0))]
        stacked = None if kicks[0] is None else np.vstack(kicks)
        batch = map_orbit(spec, np.array(x0), n, stacked)
        for i, v in enumerate(x0):
            assert batch[i].tobytes() == map_orbit(spec, v, n, kicks[i]).tobytes()


def test_map_orbit_rejects_kinds_without_a_map():
    with pytest.raises(ValidationError):
        map_orbit(ProcessSpec("fgn", length=1, hurst=0.5), 0.3, 5)


def test_fgn_autocovariance_takes_the_generators_lag_array():
    lags = np.arange(40)
    for hurst in (0.2, 0.75):
        row = fgn_autocovariance(hurst, lags)
        scalars = [fgn_autocovariance(hurst, int(k)) for k in lags]
        # numpy's vector and scalar pow may differ in the last bit, and the
        # three powers cancel to a few digits at large lags
        assert row == pytest.approx(scalars, rel=1e-12, abs=1e-13)
    with pytest.raises(ValidationError, match="hurst"):
        fgn_autocovariance(math.nan, 1)
    with pytest.raises(ValidationError, match="lag"):
        fgn_autocovariance(0.5, np.array([0, -1]))
