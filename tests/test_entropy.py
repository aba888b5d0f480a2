import math

import numpy as np
import pytest

from permz.entropy import (
    ComplexityClass,
    entropy_rate_estimate,
    entropy_report,
    exp_iterated,
    lambert_w,
    renyi_entropy,
    z_entropy,
    z_topological,
)
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
            if cls.family == "sub_iterated_log" and t <= exp_iterated(0.0, cls.n):
                continue
            s = cls.growth(t)
            assert cls.inverse(s) == pytest.approx(t, rel=1e-9)
        assert cls.inverse(0.0) == pytest.approx(cls.inverse_zero, rel=1e-12)


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


def test_entropy_report_fields():
    x = generate(ProcessSpec("white-noise", length=20_000, seed=8))
    dist = pattern_census(x, 4)
    cls = ComplexityClass.factorial()
    report = entropy_report(dist, cls, 1.0)
    assert report.order == 4
    assert report.z_rate_term == pytest.approx(report.z_value / 4)
    assert report.renyi == pytest.approx(renyi_entropy(dist, 1.0))
    top = entropy_report(dist, cls, 0.0)
    assert top.z_value >= report.z_value


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
