import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permz.entropy import exp_iterated, lambert_n, lambert_w, log_iterated
from permz.errors import NumericalError, ValidationError


def _bisect_root(f, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_special_values():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) < 1e-12
    assert abs(lambert_w(-1.0 / math.e) + 1.0) < 1e-12


def test_residuals_across_range():
    for x in np.concatenate([
        -np.exp(-1) + np.logspace(-12, -0.5, 25),
        np.logspace(-8, 6, 40),
    ]):
        w = lambert_w(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-13 * max(1.0, abs(x))


def test_strictly_increasing():
    xs = np.concatenate([[-1 / math.e], np.linspace(-0.36, 2, 50), np.logspace(1, 6, 30)])
    ws = [lambert_w(float(x)) for x in xs]
    assert all(b > a for a, b in zip(ws, ws[1:]))


def test_identity_on_log_grid():
    # W(x ln x) = ln x for x >= 1/e
    for x in np.exp(np.linspace(np.log(1 / math.e), np.log(1e6), 50)):
        assert abs(lambert_w(x * math.log(x)) - math.log(x)) <= 1e-11


def test_domain_error_below_branch():
    with pytest.raises(ValidationError):
        lambert_w(-1 / math.e - 1e-9)
    # within the documented slack it clamps to the branch value
    assert lambert_w(-1 / math.e - 1e-13) == -1.0


def test_against_independent_bisection():
    for x in (0.25, 1.0, 3.5, 42.0, 1e4):
        ref = _bisect_root(lambda y: y * math.exp(y) - x, 0.0, 50.0)
        assert abs(lambert_w(x) - ref) < 1e-10


# -- generalized family ------------------------------------------------------

def test_lambert_n_matches_w_for_n1():
    for x in (0.0, 0.5, 1.0, 10.0):
        assert lambert_n(x, 1) == lambert_w(x)


def test_lambert_n_zero():
    for n in (1, 2, 3):
        assert lambert_n(0.0, n) == 0.0


def test_lambert_n_residuals():
    for n in (2, 3):
        for x in (0.01, 0.5, 2.0, 10.0, 250.0):
            y = lambert_n(x, n)
            assert abs(y * exp_iterated(y, n) - x) <= 1e-12 * max(1.0, x)


def test_lambert_n_against_bisection_oracle():
    # y * e^{e^y} = 10
    ref = _bisect_root(lambda y: y * math.exp(math.exp(y)) - 10.0, 0.0, 5.0)
    got = lambert_n(10.0, 2)
    assert abs(got - ref) < 1e-10
    assert abs(got * math.exp(math.exp(got)) - 10.0) < 1e-12 * 10.0


def test_generalized_identity():
    for n in (2, 3):
        lo = exp_iterated(-1.0, n)
        for x in np.exp(np.linspace(math.log(lo), math.log(1e4), 40)):
            lnn = log_iterated(float(x), n)
            assert abs(lambert_n(float(x) * lnn, n) - lnn) <= 1e-10


def test_lambert_n_branch_point():
    for n in (2, 3):
        assert lambert_n(-exp_iterated(-1.0, n), n) == -1.0
    with pytest.raises(ValidationError):
        lambert_n(-exp_iterated(-1.0, 2) - 1e-6, 2)
    with pytest.raises(ValidationError):
        lambert_n(-0.5, 4)


def test_lambert_n_validation():
    with pytest.raises(ValidationError):
        lambert_n(1.0, 0)
    with pytest.raises(ValidationError):
        lambert_n(float("nan"), 2)


def test_exp_log_iterated():
    assert exp_iterated(0.0, 2) == math.exp(1.0)
    assert abs(log_iterated(exp_iterated(1.3, 3), 3) - 1.3) < 1e-12
    with pytest.raises(NumericalError):
        exp_iterated(800.0, 1)
    with pytest.raises(NumericalError):
        exp_iterated(10.0, 3)  # tower exceeds the float range
    with pytest.raises(ValidationError):
        log_iterated(0.5, 2)


# -- inverse identities (property tests) -------------------------------------

@settings(max_examples=200, deadline=None)
@given(d=st.floats(1e-12, 0.05))
def test_lambert_w_residual_near_branch_point(d):
    x = -1.0 / math.e + d
    w = lambert_w(x)
    assert -1.0 <= w <= 0.0
    # the documented residual bound, with the 10x slack of the last check
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


@settings(max_examples=200, deadline=None)
@given(y=st.floats(-0.5, 600.0))
def test_lambert_w_inverts_y_exp_y(y):
    # W'(x) = W / (x (1 + W)) stays bounded for y >= -0.5, so the residual
    # bound carries over to y itself
    assert abs(lambert_w(y * math.exp(y)) - y) <= 1e-11 * max(1.0, abs(y))


@settings(max_examples=200, deadline=None)
@given(x=st.floats(1e3, 1e300))
def test_lambert_w_residual_at_large_x(x):
    w = lambert_w(x)
    assert abs(w * math.exp(w) - x) <= 1e-12 * x


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 4), e=st.floats(-12.0, 20.0))
def test_lambert_n_residual_up_to_large_x(n, e):
    # x up to 1e20 covers every Renyi entropy an order L <= 20 can reach
    x = 10.0**e
    y = lambert_n(x, n)
    assert abs(y * exp_iterated(y, n) - x) <= 1e-12 * max(1.0, x)


# y at which y * exp^(n)(y) reaches about 1e20
_Y_MAX = {2: 3.8, 3: 1.3, 4: 0.29}


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 4), data=st.data())
def test_lambert_n_inverts_y_tower(n, data):
    y = data.draw(st.floats(0.0, _Y_MAX[n]))
    # the tower is steep, so the residual bound pins y to a relative 1e-12
    assert lambert_n(y * exp_iterated(y, n), n) == pytest.approx(y, rel=1e-11)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 3), d=st.floats(1e-9, 0.3))
def test_lambert_n_residual_near_branch_point(n, d):
    branch = -exp_iterated(-1.0, n)
    x = branch + d * abs(branch)
    y = lambert_n(x, n)
    assert -1.0 <= y <= 0.0
    assert abs(y * exp_iterated(y, n) - x) <= 1e-12 * max(1.0, abs(x))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 4), e=st.floats(-300.0, 300.0))
@example(n=2, e=-15.0)  # an absolute tolerance gave a relative 3.9e-6 here
@example(n=2, e=math.log10(2.5e24))  # Newton from above stalled from here
@example(n=3, e=math.log10(4e40))
@example(n=4, e=300.0)
def test_lambert_n_relative_residual_over_the_float_range(n, e):
    x = 10.0**e
    y = lambert_n(x, n)
    # ln(y * exp^(n)(y) / x), which cannot overflow
    assert abs(math.log(y) + exp_iterated(y, n - 1) - math.log(x)) <= 1e-12
