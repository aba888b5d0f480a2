import math
import signal
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

from permz import processes
from permz.errors import NumericalError, ValidationError
from permz.ordinal import pattern_census, window_codes
from permz.processes import (
    KINDS,
    ProcessSpec,
    derive_seed,
    fgn_autocovariance,
    generate,
    map_orbit,
    member_seed,
)
from permz.rng import Stream


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


# the parameters each kind takes, written out here so that the kind table
# in processes.py is checked against an independent copy
TAKES = {
    "white-noise": set(),
    "fgn": {"hurst"},
    "fbm": {"hurst"},
    "noisy-logistic": {"amplitude", "x0"},
    "noisy-schuster": {"amplitude", "x0"},
    "xp": {"period", "delta", "noiseless_residues"},
    "piecewise-linear": {"sigma", "x0", "dither"},
    "logistic": {"x0"},
    "shift": set(),
}
REQUIRED = {"fgn": {"hurst": 0.3}, "fbm": {"hurst": 0.3}, "xp": {"period": 3},
            "piecewise-linear": {"sigma": 2.5}}
IN_RANGE = {"hurst": 0.3, "amplitude": 0.1, "x0": 0.4, "period": 3, "delta": 0.5,
            "noiseless_residues": (0,), "sigma": 2.5, "dither": False}


def test_kind_table_lists_every_kind_in_order():
    assert KINDS == tuple(TAKES)


@pytest.mark.parametrize("field", IN_RANGE)
@pytest.mark.parametrize("kind", TAKES)
def test_each_kind_takes_exactly_its_parameters(kind, field):
    params = {**REQUIRED.get(kind, {}), field: IN_RANGE[field]}
    if field in TAKES[kind]:
        spec = ProcessSpec(kind, length=5, **params)
        assert getattr(spec, field) == IN_RANGE[field]
    else:
        with pytest.raises(ValidationError) as info:
            ProcessSpec(kind, length=5, **params)
        assert str(info.value) == (
            f"parameter {field!r} does not apply to kind {kind!r}")


@pytest.mark.parametrize("kind, message", [
    ("fgn", "hurst must lie strictly inside (0, 1)"),
    ("fbm", "hurst must lie strictly inside (0, 1)"),
    ("xp", "period must be an integer >= 2"),
    ("piecewise-linear", "sigma must exceed 1"),
])
def test_a_missing_required_parameter_is_named(kind, message):
    with pytest.raises(ValidationError) as info:
        ProcessSpec(kind, length=5)
    assert type(info.value) is ValidationError and str(info.value) == message


@pytest.mark.parametrize("kind, params, message", [
    ("noisy-logistic", {"amplitude": -0.1}, "amplitude must be nonnegative"),
    ("logistic", {"x0": 1.0}, "x0 must lie inside (0, 1)"),
    ("piecewise-linear", {"sigma": 2.5, "x0": 1.5}, "x0 must lie in [0, 1]"),
])
def test_a_parameter_outside_its_range_is_named(kind, params, message):
    with pytest.raises(ValidationError) as info:
        ProcessSpec(kind, 5, **params)
    assert type(info.value) is ValidationError and str(info.value) == message


@pytest.mark.parametrize("kind", ["logistic", "noisy-logistic", "noisy-schuster"])
def test_logistic_x0_at_zero_is_refused(kind):
    # 0 is a fixed point of the logistic map: the interval is open at both ends
    with pytest.raises(ValidationError) as info:
        ProcessSpec(kind, length=10, x0=0.0)
    assert type(info.value) is ValidationError
    assert str(info.value) == "x0 must lie inside (0, 1)"


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


@pytest.mark.parametrize("kind, field, extra", [
    ("fgn", "hurst", {}),
    ("noisy-logistic", "amplitude", {}),
    ("noisy-logistic", "x0", {}),
    ("xp", "delta", {"period": 3}),
    ("piecewise-linear", "sigma", {}),
])
@pytest.mark.parametrize("value", [10**400, -10**400], ids=["+1e400", "-1e400"])
def test_real_parameters_beyond_the_double_range_are_not_finite(
        kind, field, extra, value):
    # math.isfinite raised a bare OverflowError on such an int
    with pytest.raises(ValidationError, match=f"^{field} must be finite$"):
        ProcessSpec(kind, length=5, **extra, **{field: value})


@pytest.mark.parametrize("kind, field, value, extra", [
    ("noisy-logistic", "x0", np.float32(0.3), {}),
    ("noisy-schuster", "amplitude", np.float32(0.3), {}),
    ("piecewise-linear", "sigma", np.float32(2.7), {}),
    ("xp", "delta", np.float32(0.3), {"period": 3}),
    ("fgn", "hurst", np.float32(0.3), {}),
])
def test_real_parameters_are_stored_as_python_floats(kind, field, value, extra):
    # a numpy float32 parameter compared and hashed equal to its float64
    # value, yet iterated a map (or scaled xp levels) in float32: equal
    # specs gave series up to 0.999 apart
    spec = ProcessSpec(kind, length=2_000, seed=4, **extra, **{field: value})
    plain = ProcessSpec(kind, length=2_000, seed=4, **extra, **{field: float(value)})
    assert type(getattr(spec, field)) is float
    assert spec == plain and hash(spec) == hash(plain)
    _clear_memos()
    first = generate(spec)
    _clear_memos()
    assert first.tobytes() == generate(plain).tobytes()


@pytest.mark.parametrize("field", ["x0", "amplitude"])
def test_real_parameters_must_be_real_numbers(field):
    with pytest.raises(ValidationError, match=f"{field} must be a real number"):
        ProcessSpec("noisy-logistic", length=5, **{field: "0.3"})


@pytest.mark.parametrize("seed", [2.5, math.nan, 3.0])
def test_seed_must_be_an_integer(seed):
    # int(2.5) would silently run seed 2, and nan failed only inside generate
    with pytest.raises(ValidationError):
        ProcessSpec("white-noise", length=5, seed=seed)


def test_seeds_of_either_sign_are_taken_modulo_2_64():
    def series(seed):
        return generate(ProcessSpec("white-noise", length=5, seed=seed))

    assert np.array_equal(series(-1), series(2**64 - 1))


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


@pytest.mark.parametrize("length", [1, 2, 1000])
@pytest.mark.parametrize("kind", ["fgn", "fbm"])
def test_fgn_series_owns_its_data(kind, length):
    # not a strided view of the 2T complex FFT buffer (nor, at T = 1, of the
    # drawn Box-Muller pair), which it would keep alive
    x = generate(ProcessSpec(kind, length=length, seed=1, hurst=0.3))
    assert x.flags.c_contiguous and x.flags.owndata


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


def test_xp_period_beyond_the_series_takes_no_period_sized_table():
    # the residue mask was an O(period) table: a period of 10**21 overflowed
    # int64 and one of 10**9 would have allocated 8 GB for 50 samples
    far = generate(ProcessSpec("xp", length=50, seed=3, period=10**21))
    near = generate(ProcessSpec("xp", length=50, seed=3, period=51))
    assert far.tobytes() == near.tobytes()


def test_xp_delta_whose_series_would_overflow_is_refused():
    # only min(period, length) phases are reached, so delta times that
    # bounds the largest sample; 1e308 at period 3 overflowed to inf
    largest = math.nextafter(sys.float_info.max / 3, 0.0)
    x = generate(ProcessSpec("xp", length=5, seed=1, period=3, delta=largest))
    assert np.all(np.isfinite(x)) and x.max() > largest
    for refused in (math.nextafter(largest, math.inf), 1e308):
        with pytest.raises(ValidationError, match="must be finite"):
            ProcessSpec("xp", length=5, period=3, delta=refused)
    # a period beyond the series reaches only length phases
    x = generate(ProcessSpec("xp", length=5, seed=1, period=10**21, delta=1e300))
    assert np.all(np.isfinite(x)) and x.max() > 3e300


def modulo_xp_series(spec: ProcessSpec) -> np.ndarray:
    """The xp series with its phase taken modulo the period at every sample."""
    p, delta = spec.period, 1.0 if spec.delta is None else spec.delta
    residues = processes._check_residues(spec.noiseless_residues, p)
    amplitude = delta / 2.0 - processes._XP_AMPLITUDE_MARGIN * delta
    levels = min(p, spec.length)
    phase = np.arange(spec.length) % levels
    zeta = amplitude * (2.0 * Stream(spec.seed).uniforms(spec.length) - 1.0)
    zeta[np.isin(np.arange(levels), residues)[phase]] = 0.0
    return delta * phase + zeta


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_xp_tiled_phase_equals_the_modulo_phase(p):
    for residues in (None, (0,), tuple(range(p)), (p - 1, 0, p - 1)):
        for delta in (None, 0.37, 3.0):
            for length in (1, p - 1, p, p + 1, 50_001):
                spec = ProcessSpec("xp", length=length, seed=length, period=p,
                                   delta=delta, noiseless_residues=residues)
                assert generate(spec).tobytes() == modulo_xp_series(spec).tobytes()


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


def test_dither_is_an_option_of_piecewise_linear_only():
    # no other kind is dithered, so dither=False would change nothing there
    for kind, extra in (("white-noise", {}), ("fbm", {"hurst": 0.6}),
                        ("noisy-logistic", {}), ("xp", {"period": 2}),
                        ("logistic", {}), ("shift", {})):
        with pytest.raises(ValidationError, match="'dither' does not apply"):
            ProcessSpec(kind, length=5, dither=False, **extra)
    spec = ProcessSpec("piecewise-linear", length=25_000, seed=3, sigma=3.7,
                       x0=0.3, dither=False)
    plain = generate(spec)
    assert plain.tobytes() == map_orbit(spec, 0.3, spec.length).tobytes()
    dithered = generate(replace(spec, dither=True))  # kicked every 10 000 steps
    assert not np.array_equal(plain[10_000:], dithered[10_000:])


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


def _reference_shift(n, seed):
    """The float rule the integer windows replaced: each 53-bit window of
    the stream bits dotted with the weights 2**-1 .. 2**-53."""
    bits = Stream(seed).bits(n + 52).astype(float)
    return sliding_window_view(bits, 53) @ 2.0 ** -np.arange(1, 54)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3000), seed=st.integers(-(2**64 - 1), 2**64 - 1))
def test_shift_series_equals_the_float_window_rule(n, seed):
    x = generate(ProcessSpec("shift", length=n, seed=seed))
    assert x.dtype == np.float64
    assert np.array_equal(x.view(np.int64), _reference_shift(n, seed).view(np.int64))


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


_REFERENCE_STEPS = {
    "logistic": lambda v, sigma: 4.0 * v * (1.0 - v),
    "noisy-schuster": lambda v, sigma: (v + v * v) % 1.0,
    "piecewise-linear": lambda v, sigma: 1.0 - abs((sigma * v) % 2.0 - 1.0),
}


def _reference_orbit(spec, x0, n, kicks=(), period=10_000):
    """The per-step loop of the map orbits, with its kicks written out:
    at each step t with ``t % period == 0`` the next kick u moves the value
    by ``(2u - 1) * 1e-14``, clipped to [0, 1], before the map steps it."""
    step = _REFERENCE_STEPS[spec.kind]
    v, out = float(x0), []
    for t in range(n):
        if len(kicks) and t % period == 0:
            v = min(1.0, max(0.0, v + (2.0 * float(kicks[t // period]) - 1.0) * 1e-14))
        out.append(v)
        v = step(v, spec.sigma)
    return np.array(out)


def _reference_kicks(spec, n, period):
    """The kicks of ``spec``'s orbit: one uniform of its stream per started block."""
    if spec.kind == "piecewise-linear" and spec.dither:
        return Stream(spec.seed).uniforms(-(-n // period))
    return ()


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(MAPS + (replace(MAPS[2], dither=False),)),
    x0=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=6),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**63),
)
def test_batch_orbit_rows_equal_scalar_orbits(spec, x0, n, seed):
    # row i is the float orbit of x0[i] under realization i; a short dither
    # period puts several kicks inside short orbits
    spec = replace(spec, seed=seed)
    with mock.patch.object(processes, "_DITHER_PERIOD", 7):
        batch = map_orbit(spec, np.array(x0), n)
        for i, v in enumerate(x0):
            member = replace(spec, seed=member_seed(seed, 0, i))
            assert batch[i].tobytes() == map_orbit(member, v, n).tobytes()
            reference = _reference_orbit(member, v, n, _reference_kicks(member, n, 7), 7)
            assert batch[i].tobytes() == reference.tobytes()


def test_batch_orbit_of_a_2d_x0_numbers_its_orbits_in_row_major_order():
    # a 2 x 3 array raised numpy's broadcast error, and a square one was
    # iterated transposed
    spec = replace(MAPS[2], seed=4)
    for shape in ((2, 3), (2, 2)):
        x0 = np.linspace(0.1, 0.9, math.prod(shape)).reshape(shape)
        batch = map_orbit(spec, x0, 12_000)  # two kick blocks
        assert batch.shape == shape + (12_000,)
        for i, (row, v) in enumerate(zip(batch.reshape(-1, 12_000), x0.ravel())):
            member = replace(spec, seed=member_seed(4, 0, i))
            assert row.tobytes() == map_orbit(member, v, 12_000).tobytes()


@pytest.mark.parametrize("period", [64, 100, processes._BLOCK, 300],
                         ids=["divides-block", "below-block", "block", "above-block"])
@pytest.mark.parametrize("spec", MAPS, ids=lambda spec: spec.kind)
def test_batch_rows_equal_the_oracle_across_block_ends(spec, period):
    # a batch is stepped through a time-major block of _BLOCK iterates, which
    # also ends at each kick; every row crosses block ends and kicks here
    block = processes._BLOCK
    spec = replace(spec, seed=11)
    with mock.patch.object(processes, "_DITHER_PERIOD", period):
        for n in (block - 1, block, block + 1, 3 * block + 5):
            for shape in ((5,), (2, 3)):
                x0 = np.linspace(0.05, 0.95, math.prod(shape)).reshape(shape)
                batch = map_orbit(spec, x0, n).reshape(-1, n)
                for i, v in enumerate(x0.ravel()):
                    member = replace(spec, seed=member_seed(11, 0, i))
                    kicks = _reference_kicks(member, n, period)
                    reference = _reference_orbit(member, v, n, kicks, period)
                    assert batch[i].tobytes() == reference.tobytes(), (n, shape, i)


def test_an_empty_batch_returns_at_once_and_draws_no_kick():
    # an empty x0 passed every guard and then stepped all n iterates of
    # nothing, 2.2 s per 10^6 steps: n = _MAX_LENGTH never returned
    def overdue(signum, frame):
        raise TimeoutError("an empty batch took more than a second")

    n = processes._MAX_LENGTH
    previous = signal.signal(signal.SIGALRM, overdue)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        for spec in MAPS + (replace(MAPS[2], dither=False),):
            for x0 in (np.array([]), np.empty((0, 3)), np.empty((3, 0))):
                with mock.patch.object(processes, "Stream",
                                       side_effect=AssertionError("a kick was drawn")):
                    batch = map_orbit(spec, x0, n)
                assert batch.shape == x0.shape + (n,)
                assert batch.dtype == np.float64
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


INVARIANT_SPECS = (
    ProcessSpec("logistic", length=1),
    ProcessSpec("piecewise-linear", length=1, sigma=2.7),
    ProcessSpec("piecewise-linear", length=1, sigma=2.7, dither=False),
)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(INVARIANT_SPECS),
    x0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    n=st.integers(1, 40),
    seed=st.integers(-(2**64 - 1), 2**64 - 1),
)
def test_map_orbit_is_the_generated_series(spec, x0, n, seed):
    spec = replace(spec, seed=seed)
    with mock.patch.object(processes, "_DITHER_PERIOD", 7):
        orbit = map_orbit(spec, x0, n)
        assert orbit.tobytes() == generate(replace(spec, x0=x0, length=n)).tobytes()
    reference = _reference_orbit(spec, x0, n, _reference_kicks(spec, n, 7), 7)
    assert orbit.tobytes() == reference.tobytes()


def test_map_orbit_rejects_kinds_without_a_map():
    with pytest.raises(ValidationError):
        map_orbit(ProcessSpec("fgn", length=1, hurst=0.5), 0.3, 5)


@pytest.mark.parametrize("spec, x0, n, message", [
    (MAPS[0], 0.3, -1, "n must be an integer at least 1"),
    (MAPS[0], 0.3, 5.0, "n must be an integer at least 1"),
    (MAPS[0], math.nan, 5, r"x0 must lie in \[0, 1\]"),
    (MAPS[0], math.inf, 5, r"x0 must lie in \[0, 1\]"),
    (MAPS[0], 1.5, 5, r"x0 must lie in \[0, 1\]"),
    (MAPS[1], -0.1, 5, r"x0 must lie in \[0, 1\]"),
    (MAPS[0], np.array([0.3, math.nan]), 5, r"x0 must lie in \[0, 1\]"),
    (MAPS[0], None, 5, r"x0 must lie in \[0, 1\]"),
    (MAPS[0], "x", 5, r"x0 must lie in \[0, 1\]"),
    (ProcessSpec("piecewise-linear", length=1, sigma=2.7), np.array(["a"]), 5,
     "x0 must hold real numbers"),
    (MAPS[0], np.array([10**400]), 5, "x0 must hold real numbers"),
    (MAPS[0], 0.3, 2**63, "n must be an integer at least 1, at most "),
    (MAPS[0], np.array([0.3, 0.4]), 10**400, "n must be an integer at least 1"),
    (MAPS[0], np.full(64, 0.3), 2**57, r"x0.size \* n must be an integer at least 0, "),
    (MAPS[2], np.full(64, 0.3), 2**57, r"x0.size \* n must be an integer at least 0, "),
    (MAPS[0], np.full(64, 0.3), np.int64(2**57), r"x0.size \* n must be an integer "),
], ids=["n-negative", "n-float", "x0-nan", "x0-inf", "x0-above",
        "x0-below", "x0-array-nan", "x0-none", "x0-string", "x0-array-string",
        "x0-array-10**400", "n-2**63", "n-10**400", "batch-64x2**57",
        "batch-zigzag-64x2**57", "batch-64xint64"])
def test_map_orbit_guards_raise_validation_error(spec, x0, n, message):
    with pytest.raises(ValidationError, match=message) as info:
        map_orbit(spec, x0, n)
    assert info.value.exit_code == 2


def test_map_orbit_takes_the_closed_unit_interval():
    assert map_orbit(MAPS[0], 1.0, 3).tolist() == [1.0, 0.0, 0.0]
    assert map_orbit(replace(MAPS[2], dither=False), 0.0, 2).tolist() == [0.0, 0.0]


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


# -- seed-free memos -----------------------------------------------------------

def _clear_memos():
    processes._fgn_amplitudes.cache_clear()
    processes._noiseless_orbit.cache_clear()


def _reference_fgn(n, hurst, stream):
    """``_fgn`` as written before its spectrum was memoized."""
    if n == 1:
        return stream.gaussians(1)
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -1e-6:
        raise NumericalError(
            f"circulant embedding produced negative spectrum for H={hurst}"
        )
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    g = stream.gaussians(m)
    a, b = g[: n + 1], g[n + 1 :]
    w = np.zeros(m, dtype=np.complex128)
    w[0] = math.sqrt(lam[0] / m) * a[0]
    w[n] = math.sqrt(lam[n] / m) * a[n]
    w[1:n] = np.sqrt(lam[1:n] / (2.0 * m)) * (a[1:n] + 1j * b)
    w[n + 1 :] = np.conj(w[1:n][::-1])
    return np.fft.fft(w)[:n].real


ORACLE_LENGTHS = [*range(1, 120), 1000, 4095, 4096, 4097, 7000, 49_999, 50_000, 50_001]


@pytest.mark.parametrize("hurst", [0.2, 0.4, 0.5, 0.6, 0.9])
def test_fgn_and_fbm_bytes_equal_the_reference_synthesis(hurst):
    for n in ORACLE_LENGTHS:
        for seed in (5, -(2**40 + 3)):
            expected = _reference_fgn(n, hurst, Stream(seed))
            fgn = generate(ProcessSpec("fgn", length=n, seed=seed, hurst=hurst))
            fbm = generate(ProcessSpec("fbm", length=n, seed=seed, hurst=hurst))
            assert fgn.tobytes() == expected.tobytes(), (n, seed)
            assert fbm.tobytes() == np.cumsum(expected).tobytes(), (n, seed)


@pytest.mark.parametrize("n, hurst", [(9, 0.999999999999999), (1000, 1 - 1e-13)])
def test_fgn_bytes_equal_the_reference_where_an_amplitude_is_zero(n, hurst):
    # a clipped spectrum leaves exact zeros in the memoized amplitudes, whose
    # products with a gaussian are zeros of either sign
    inner = processes._fgn_amplitudes(n, hurst)[2]
    assert np.any(inner == 0.0)
    for seed in range(-20, 20):
        expected = _reference_fgn(n, hurst, Stream(seed))
        fgn = generate(ProcessSpec("fgn", length=n, seed=seed, hurst=hurst))
        assert fgn.tobytes() == expected.tobytes(), seed


def test_fgn_leaves_the_memoized_amplitudes_unchanged():
    _clear_memos()
    first, last, inner = processes._fgn_amplitudes(1000, 0.3)
    before = inner.tobytes()
    generate(ProcessSpec("fgn", length=1000, seed=4, hurst=0.3))
    generate(ProcessSpec("fbm", length=1000, seed=5, hurst=0.3))
    assert processes._fgn_amplitudes(1000, 0.3) == (first, last, inner)
    assert processes._fgn_amplitudes(1000, 0.3)[2] is inner
    assert inner.tobytes() == before and not inner.flags.writeable


def _reference_generate(spec):
    """``generate`` without the memos, for the kinds that use them."""
    stream = Stream(spec.seed)
    n = spec.length
    if spec.kind == "fgn":
        return _reference_fgn(n, spec.hurst, stream)
    if spec.kind == "fbm":
        return np.cumsum(_reference_fgn(n, spec.hurst, stream))
    x0 = processes._DEFAULT_X0 if spec.x0 is None else spec.x0
    amplitude = processes._NOISE_AMPLITUDE[spec.kind]
    if spec.amplitude is not None:
        amplitude = spec.amplitude
    return map_orbit(spec, x0, n) + amplitude * (2.0 * stream.uniforms(n) - 1.0)


MEMO_SPECS = [
    ProcessSpec("white-noise", length=1),
    ProcessSpec("fgn", length=1, hurst=0.2),
    ProcessSpec("fgn", length=1, hurst=0.8),
    ProcessSpec("fbm", length=1, hurst=0.6),
    ProcessSpec("noisy-logistic", length=1),
    ProcessSpec("noisy-logistic", length=1, x0=0.3, amplitude=0.1),
    ProcessSpec("noisy-schuster", length=1),
    ProcessSpec("xp", length=1, period=3),
    ProcessSpec("piecewise-linear", length=1, sigma=2.7),
    ProcessSpec("piecewise-linear", length=1, sigma=2.7, dither=False),
    ProcessSpec("logistic", length=1),
    ProcessSpec("shift", length=1),
]


def test_memo_specs_cover_every_kind():
    assert {spec.kind for spec in MEMO_SPECS} == set(KINDS)


@pytest.mark.parametrize("length", [1, 2, 7, 7_000, 50_000])
@pytest.mark.parametrize("spec", MEMO_SPECS, ids=lambda s: s.kind)
def test_memoized_series_equal_cold_and_reference_series(spec, length):
    for seed in (0, 1, 2024):
        member = replace(spec, length=length, seed=seed)
        _clear_memos()
        cold = generate(member)
        warm = generate(member)
        assert cold.flags.writeable and warm.flags.writeable
        assert warm.tobytes() == cold.tobytes()
        if spec.kind in ("fgn", "fbm", "noisy-logistic", "noisy-schuster"):
            assert cold.tobytes() == _reference_generate(member).tobytes()


@pytest.mark.parametrize("spec", [
    ProcessSpec("noisy-logistic", length=3_000, seed=5),
    ProcessSpec("noisy-schuster", length=3_000, seed=5),
    ProcessSpec("logistic", length=3_000, seed=5),
    ProcessSpec("piecewise-linear", length=3_000, seed=5, sigma=2.7, dither=False),
    ProcessSpec("fgn", length=3_000, seed=5, hurst=0.3),
    ProcessSpec("fbm", length=3_000, seed=5, hurst=0.3),
], ids=lambda s: s.kind)
def test_writing_into_a_series_cannot_change_the_next(spec):
    first = generate(spec)
    expected = first.tobytes()
    first[:] = -1.0
    again = generate(spec)
    assert again.flags.writeable
    assert again.tobytes() == expected


def test_negative_spectrum_raises_on_every_call():
    calls = []

    def not_positive_definite(hurst, lag):
        calls.append(hurst)
        lag = np.asarray(lag)
        return np.where(lag == 0, 1.0, np.where(lag == 1, 2.0, 0.0))

    spec = ProcessSpec("fgn", length=16, seed=3, hurst=0.37)
    _clear_memos()
    with mock.patch.object(processes, "fgn_autocovariance", not_positive_definite):
        for attempt in range(3):
            with pytest.raises(NumericalError, match="negative spectrum"):
                generate(replace(spec, seed=attempt))
    assert len(calls) == 3
    assert processes._fgn_amplitudes.cache_info().currsize == 0
    assert generate(spec).tobytes() == _reference_generate(spec).tobytes()


@pytest.mark.parametrize("length", [processes._MAX_LENGTH + 1, 2**63, 10**400],
                         ids=["bound+1", "2**63", "10**400"])
@pytest.mark.parametrize("kind", TAKES)
def test_lengths_beyond_the_array_bound_raise_validation_error(kind, length):
    # 2**63 gave an empty white-noise series, 10**400 numpy's bare ValueError
    with pytest.raises(ValidationError) as info:
        ProcessSpec(kind, length=length, **REQUIRED.get(kind, {}))
    assert str(info.value) == (
        f"length must be an integer at least 1, at most {processes._MAX_LENGTH}")


def test_the_length_bound_keeps_the_fgn_embedding_within_numpy():
    # fGn's 2T complex128 embedding is the largest array a generator makes
    bound = processes._MAX_LENGTH
    assert 2 * bound * np.dtype(np.complex128).itemsize <= np.iinfo(np.intp).max
    assert 2 * (bound + 1) * np.dtype(np.complex128).itemsize > np.iinfo(np.intp).max
    ProcessSpec("fgn", length=bound, hurst=0.3)  # accepted; never generated here
