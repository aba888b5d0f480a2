import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from class_oracle import ComplexityClass as OracleClass
from permz.entropy import (
    ComplexityClass,
    entropy_rate_estimate,
    exp_iterated,
    lambert_w,
    renyi_entropy,
    z_entropy,
    z_topological,
)
from permz.analysis import xp_distribution
from permz.errors import DataError, ValidationError
from permz.ordinal import pattern_census
from permz.processes import ProcessSpec, generate


def _random_distributions(count, seed=0, max_w=40):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        w = rng.integers(2, max_w)
        p = rng.dirichlet(np.full(w, rng.uniform(0.2, 3.0)))
        yield p


# -- Renyi ------------------------------------------------------------------

def test_renyi_uniform_equals_log_w():
    p = np.full(6, 1 / 6)
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert renyi_entropy(p, alpha) == pytest.approx(math.log(6), abs=1e-12)


def test_renyi_singular_is_zero():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        assert renyi_entropy([1.0, 0.0, 0.0], alpha) == 0.0


def test_renyi_direct_value():
    # -ln(sum p^2) at alpha=2 for (1/2, 1/4, 1/4) is ln(8/3)
    assert renyi_entropy([0.5, 0.25, 0.25], 2.0) == pytest.approx(
        0.9808292530117262, abs=1e-12
    )


def test_renyi_alpha_zero_counts_support():
    assert renyi_entropy([0.7, 0.3, 0.0], 0.0) == pytest.approx(math.log(2))


def test_renyi_monotone_in_alpha():
    alphas = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0]
    for p in _random_distributions(100, seed=42):
        vals = [renyi_entropy(p, a) for a in alphas]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10


def test_renyi_validation():
    with pytest.raises(ValidationError):
        renyi_entropy([0.5, 0.5], -0.5)
    with pytest.raises(DataError):
        renyi_entropy([0.6, 0.5], 1.0)
    with pytest.raises(DataError):
        renyi_entropy([1.2, -0.2], 1.0)


def test_renyi_accepts_pattern_distribution():
    x = generate(ProcessSpec("white-noise", length=5_000, seed=1))
    dist = pattern_census(x, 3)
    assert renyi_entropy(dist, 1.0) == pytest.approx(
        renyi_entropy(dist.probabilities, 1.0)
    )


def test_shannon_bound_chain():
    x = generate(ProcessSpec("logistic", length=30_000, seed=3))
    dist = pattern_census(x, 3)
    h = renyi_entropy(dist, 1.0)
    # H* <= ln(support) <= ln L!, support is 5 for this map
    assert h <= math.log(dist.support_size) <= math.log(math.factorial(3))
    assert dist.support_size == 5


def test_shannon_uniform_and_singular():
    assert renyi_entropy(np.full(6, 1 / 6), 1.0) == pytest.approx(math.log(6))
    assert renyi_entropy([1.0, 0.0], 1.0) == 0.0


# -- complexity classes -----------------------------------------------------

def test_class_parse_round_trip():
    for token in ("exp:0.7", "fac", "sub:0.5", "subn:2"):
        assert ComplexityClass.parse(token).token() == token


def test_class_validation():
    with pytest.raises(ValidationError):
        ComplexityClass.exponential(0.0)
    with pytest.raises(ValidationError):
        ComplexityClass.sub_factorial(1.0)
    with pytest.raises(ValidationError):
        ComplexityClass.sub_iterated_log(1)
    with pytest.raises(ValidationError):
        ComplexityClass.parse("bogus")
    with pytest.raises(ValidationError):
        ComplexityClass.parse("exp:zero")


def test_class_inverse_round_trip():
    classes = [
        ComplexityClass.exponential(0.7),
        ComplexityClass.factorial(),
        ComplexityClass.sub_factorial(0.5),
        ComplexityClass.sub_iterated_log(2),
        ComplexityClass.sub_iterated_log(3),
    ]
    for cls in classes:
        for t in (1.5, 3.0, 10.0, 40.0):
            if cls.n >= 2 and t <= exp_iterated(0.0, cls.n):
                continue
            s = cls.growth(t)
            assert cls.inverse(s) == pytest.approx(t, rel=1e-9)
        assert cls.inverse(0.0) == pytest.approx(cls.inverse_zero, rel=1e-12)


# s = 0, or log-uniform over [1e-300, 1.7e308]
_S = st.one_of(st.just(0.0),
               st.floats(-300.0, math.log10(1.7e308)).map(lambda e: 10.0**e))


def _outcome(method, s):
    try:
        return method(s), None
    except Exception as exc:
        return None, type(exc)


@pytest.mark.parametrize("name, args", [
    ("exponential", (0.25,)), ("exponential", (1.0,)), ("exponential", (2.5,)),
    ("factorial", ()),
    ("sub_factorial", (0.3,)), ("sub_factorial", (2 / 3,)), ("sub_factorial", (1e-3,)),
])
@settings(max_examples=150, deadline=None)
@given(s=_S)
@example(s=1e-300)
@example(s=7e306)  # from here W(s) > 700, which the old exp_iterated capped
@example(s=1.7e308)
def test_class_matches_the_family_oracle_bit_for_bit(name, args, s):
    new, old = getattr(ComplexityClass, name)(*args), getattr(OracleClass, name)(*args)
    assert (new.token(), new.inverse_zero) == (old.token(), old.inverse_zero)
    for method in ("growth", "inverse"):
        want, want_error = _outcome(getattr(old, method), s)
        got, got_error = _outcome(getattr(new, method), s)
        if want_error is None:
            assert got_error is None
            assert struct.pack("<d", got) == struct.pack("<d", want)
        else:  # growth(0) of the log laws: a bare ValueError in the oracle
            assert got_error is not None and issubclass(got_error, want_error)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 4), s=_S)
def test_iterated_log_class_matches_the_family_oracle(n, s):
    new, old = ComplexityClass.sub_iterated_log(n), OracleClass.sub_iterated_log(n)
    assert (new.token(), new.inverse_zero) == (old.token(), old.inverse_zero)
    for method in ("growth", "inverse"):
        want, want_error = _outcome(getattr(old, method), s)
        if want_error is None:
            # both solvers stop at a relative residual of 1e-12, so two
            # correct inverses may differ by the sum of the two
            assert getattr(new, method)(s) == pytest.approx(want, rel=2e-12)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ComplexityClass.exponential(math.inf), id="exp-inf"),
    pytest.param(lambda: ComplexityClass.exponential(math.nan), id="exp-nan"),
    pytest.param(lambda: ComplexityClass.sub_factorial(math.nan), id="sub-nan"),
    pytest.param(lambda: ComplexityClass.sub_iterated_log(2.5), id="subn-2.5"),
    pytest.param(lambda: ComplexityClass.sub_iterated_log(0), id="subn-0"),
    pytest.param(lambda: ComplexityClass.parse("subn:1"), id="subn:1"),
    pytest.param(lambda: ComplexityClass.parse("sub:1"), id="sub:1"),
    pytest.param(lambda: renyi_entropy([0.5, 0.5], math.nan), id="renyi-nan"),
    pytest.param(lambda: renyi_entropy([0.5, 0.5], math.inf), id="renyi-inf"),
    pytest.param(lambda: z_entropy([0.5, 0.5], ComplexityClass.factorial(), math.nan),
                 id="z-nan"),
    pytest.param(lambda: z_entropy([0.5, 0.5], ComplexityClass.factorial(), math.inf),
                 id="z-inf"),
    pytest.param(lambda: xp_distribution(2, 5).renyi(math.nan), id="xp-renyi-nan"),
    pytest.param(lambda: xp_distribution(2, 5).renyi(-1.0), id="xp-renyi-negative"),
])
def test_out_of_domain_class_or_alpha_raises_validation_error(call):
    with pytest.raises(ValidationError):
        call()


# -- Z-entropies ------------------------------------------------------------

def test_z_singular_is_zero_for_every_class():
    singular = [1.0, 0.0, 0.0, 0.0]
    for cls in (
        ComplexityClass.exponential(2.0),
        ComplexityClass.factorial(),
        ComplexityClass.sub_factorial(0.3),
        ComplexityClass.sub_iterated_log(2),
    ):
        assert z_entropy(singular, cls, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_z_factorial_uniform_six():
    # independent bisection oracle for y e^y = ln 6 gives 1.231828624409009
    z = z_entropy(np.full(6, 1 / 6), ComplexityClass.factorial(), 1.0)
    assert z == pytest.approx(1.231828624409009, abs=1e-9)


def test_z_exponential_is_scaled_renyi():
    for p in _random_distributions(20, seed=9):
        for alpha in (0.5, 1.0, 2.0):
            r = renyi_entropy(p, alpha)
            assert z_entropy(p, ComplexityClass.exponential(0.25), alpha) == (
                pytest.approx(r / 0.25)
            )


def test_z_sub_factorial_matches_scaled_factorial():
    for p in _random_distributions(20, seed=10):
        r = renyi_entropy(p, 1.0)
        expect = math.exp(lambert_w(r / 0.5)) - 1.0
        assert z_entropy(p, ComplexityClass.sub_factorial(0.5), 1.0) == (
            pytest.approx(expect, rel=1e-12)
        )


def test_z_alpha_zero_rejected():
    with pytest.raises(ValidationError):
        z_entropy([0.5, 0.5], ComplexityClass.factorial(), 0.0)


def test_z_monotone_in_alpha():
    cls = ComplexityClass.factorial()
    for p in _random_distributions(50, seed=12):
        vals = [z_entropy(p, cls, a) for a in (0.25, 0.5, 1.0, 1.5, 2.5)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10


def test_topological_dominance():
    for p in _random_distributions(50, seed=13):
        support = int(np.sum(p > 0))
        for cls in (ComplexityClass.factorial(), ComplexityClass.exponential(1.0)):
            top = z_topological(support, cls)
            for alpha in (0.5, 1.0, 2.0):
                assert top >= z_entropy(p, cls, alpha) - 1e-12


def test_z_topological_values():
    assert z_topological(1, ComplexityClass.factorial()) == pytest.approx(0.0)
    assert z_topological(1, ComplexityClass.sub_iterated_log(2)) == pytest.approx(0.0)
    # bisection oracle for y e^y = ln 5040 gives e^y - 1 = 4.181917273559
    assert z_topological(5040, ComplexityClass.factorial()) == pytest.approx(
        4.181917273559007, abs=1e-9
    )
    # exponential class with c = ln 2 turns 2^L patterns into exactly L
    for L in (3, 10, 40):
        assert z_topological(2**L, ComplexityClass.exponential(math.log(2))) == (
            pytest.approx(L, rel=1e-12)
        )
    with pytest.raises(ValidationError):
        z_topological(0, ComplexityClass.factorial())


CLASS_FORMS = [ComplexityClass.exponential(0.7), ComplexityClass.factorial(),
               ComplexityClass.sub_factorial(0.4), ComplexityClass.sub_iterated_log(2),
               ComplexityClass.sub_iterated_log(3)]


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from(CLASS_FORMS), r=st.floats(0.0, 60.0),
       weights=st.lists(st.integers(1, 1000), min_size=1, max_size=30),
       alpha=st.sampled_from([0.5, 1.0, 2.0]), allowed=st.integers(1, 2 * 10**6))
def test_z_is_the_inline_formula_bit_for_bit(cls, r, weights, alpha, allowed):
    """``ComplexityClass.z`` and the two Z-entropies keep the bits of the
    formula ``g^{-1}(R) - g^{-1}(0)`` written out at each call site."""
    assert cls.z(r).hex() == (cls.inverse(r) - cls.inverse_zero).hex()
    p = np.array(weights) / sum(weights)
    assert z_entropy(p, cls, alpha).hex() == (
        cls.inverse(renyi_entropy(p, alpha)) - cls.inverse_zero).hex()
    assert z_topological(allowed, cls).hex() == (
        cls.inverse(math.log(allowed)) - cls.inverse_zero).hex()


def test_z_topological_equals_z_on_uniform_support():
    cls = ComplexityClass.factorial()
    for w in (3, 8, 20):
        p = np.full(w, 1.0 / w)
        for alpha in (0.5, 1.0, 2.0):
            assert z_topological(w, cls) == pytest.approx(
                z_entropy(p, cls, alpha), rel=1e-12
            )


def test_taylor_approximation_small_renyi():
    # Z_fac = R - R^2/2 + O(R^3) below R = 1/e
    rng = np.random.default_rng(77)
    cls = ComplexityClass.factorial()
    checked = 0
    while checked < 100:
        eps = rng.uniform(0.005, 0.1)
        w = int(rng.integers(2, 12))
        body = rng.dirichlet(np.ones(w)) * eps
        p = np.concatenate([[1.0 - eps], body])
        r = renyi_entropy(p, 1.0)
        if r >= 1.0 / math.e:
            continue
        z = z_entropy(p, cls, 1.0)
        assert abs(z - (r - r * r / 2.0)) <= 2.0 * r**3
        checked += 1


def test_composability_every_class():
    rng = np.random.default_rng(5)
    classes = [
        ComplexityClass.exponential(0.7),
        ComplexityClass.factorial(),
        ComplexityClass.sub_factorial(0.5),
        ComplexityClass.sub_iterated_log(2),
        ComplexityClass.sub_iterated_log(3),
    ]
    for cls in classes:
        offset = cls.inverse_zero

        def chi(t):
            return cls.growth(t + offset)

        def chi_inv(s):
            return cls.inverse(s) - offset

        for _ in range(10):
            p = rng.dirichlet(np.ones(rng.integers(2, 6)))
            q = rng.dirichlet(np.ones(rng.integers(2, 6)))
            prod = np.outer(p, q).ravel()
            for alpha in (0.5, 1.0, 2.0):
                left = z_entropy(prod, cls, alpha)
                right = chi_inv(
                    chi(z_entropy(p, cls, alpha)) + chi(z_entropy(q, cls, alpha))
                )
                assert left == pytest.approx(right, rel=1e-8, abs=1e-9)


def test_extensivity_over_designed_growth():
    # uniform over round(exp(g(L))) outcomes: Z/L approaches 1 per class
    cases = [
        (ComplexityClass.exponential(0.7), range(10, 501, 70)),
        (ComplexityClass.factorial(), range(10, 101, 15)),
        (ComplexityClass.sub_factorial(0.5), range(10, 151, 20)),
        (ComplexityClass.sub_iterated_log(2), range(10, 61, 10)),
    ]
    for cls, orders in cases:
        gaps = []
        for L in orders:
            allowed = max(2, round(math.exp(cls.growth(L))))
            gaps.append(abs(z_topological(allowed, cls) / L - 1.0))
        assert gaps[-1] < 0.15
        assert gaps[-1] <= gaps[0]


# -- rate extrapolation -----------------------------------------------------

def test_rate_estimate_exact_line():
    pairs = [(L, 0.7 + 1.3 / L) for L in range(3, 15)]
    fit = entropy_rate_estimate(pairs)
    assert fit.intercept == pytest.approx(0.7, abs=1e-12)
    assert fit.slope == pytest.approx(1.3, abs=1e-10)
    assert fit.residual < 1e-12


def test_rate_estimate_constant():
    fit = entropy_rate_estimate([(L, 1.0) for L in (4, 5, 6, 7)])
    assert fit.intercept == pytest.approx(1.0)
    assert fit.residual < 1e-12


def test_rate_estimate_analytic_factorial_sequence():
    # frozen from the independent bisection oracle over L = 4..20:
    # intercept 0.7757452794448368, final point 0.72302913153229
    cls = ComplexityClass.factorial()
    pairs = [
        (L, z_topological(math.factorial(L), cls) / L) for L in range(4, 21)
    ]
    values = [v for _, v in pairs]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.72302913153229, abs=1e-9)
    fit = entropy_rate_estimate(pairs)
    assert fit.intercept == pytest.approx(0.7757452794448368, abs=1e-9)
    assert fit.residual < 0.01


def test_rate_estimate_errors():
    with pytest.raises(DataError):
        entropy_rate_estimate([(4, 1.0), (5, 1.0)])
    with pytest.raises(DataError):
        entropy_rate_estimate([(4, 1.0), (4, 1.1), (4, 0.9)])
    for bad in (math.nan, math.inf):
        with pytest.raises(DataError):
            entropy_rate_estimate([(3, bad), (4, 1.0), (5, 1.0)])
    for bad in (0, 1, 3.7):  # an order outside 2, 3, ... or not an integer
        with pytest.raises(ValidationError):
            entropy_rate_estimate([(bad, 1.0), (4, 1.0), (5, 1.0)])


def test_white_noise_ensemble_tracks_analytic_uniform_law():
    # plug-in censuses undershoot the analytic uniform-law value by the
    # classic (W-1)/(2n) entropy bias mapped through the Z transform;
    # the ensemble mean must sit within twice that first-order bias
    from permz.entropy import lambert_w as _w

    cls = ComplexityClass.factorial()
    T, members = 30_000, 10
    means = []
    for L in (3, 4, 5, 6):
        values = []
        for i in range(members):
            x = generate(ProcessSpec("white-noise", length=T, seed=7_000 + i))
            values.append(z_entropy(pattern_census(x, L), cls, 1.0) / L)
        values = np.array(values)
        analytic = z_topological(math.factorial(L), cls) / L
        n_windows = T - L + 1
        bias_r = (math.factorial(L) - 1) / (2.0 * n_windows)
        r = math.log(math.factorial(L))
        w = _w(r)
        dz_dr = math.exp(w) * w / (r * (1.0 + w))
        tolerance = 2.0 * bias_r * dz_dr / L + 3.0 * values.std() + 1e-6
        assert 0.0 <= analytic - values.mean() <= tolerance, (L, analytic)
        means.append(values.mean())
    assert all(b > a for a, b in zip(means, means[1:]))  # climbing toward 1
