"""Acceptance gate: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Two criteria assert bounds that the mathematics itself cannot meet at
the stated scales; they are implemented verbatim and marked ``xfail``
(strict) rather than loosened:

* criterion 5 -- the topological rate of the uniform distribution over
  all L! patterns converges like 1/ln L, so at L = 4..20 the final
  value is 0.723 (< 0.85) and the 1/L-extrapolated intercept is 0.776
  (not within 0.1 of 1).
* criterion 6 -- at T = 7000 the mean visibility gap of persistent
  fractional Brownian motion (H = 0.6) is about 0.09, and the reference
  decay rate 5.05e-4 itself implies a gap of 0.03 > 0.02; the noisy
  logistic map measures about 0.05.

Details and derivations live in the developer decision log, outside the
package.
"""

import math
import time
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from permz.analysis import (
    forbidden_patterns_of_map,
    xp_allowed_count,
    xp_distribution,
    xp_pattern_probabilities,
)
from permz.entropy import (
    ComplexityClass,
    entropy_rate_estimate,
    exp_iterated,
    lambert_n,
    lambert_w,
    log_iterated,
    renyi_entropy,
    z_entropy,
    z_topological,
)
from permz.experiments import (
    FACTORIAL_PROCESSES,
    TABLE2_REFERENCE,
    ExperimentConfig,
    run_experiment,
)
from permz.ordinal import OrdinalPattern, pattern_census
from permz.processes import ProcessSpec, derive_seed, generate

FAC = ComplexityClass.factorial()
PROCESS_NAMES = [name for name, _ in FACTORIAL_PROCESSES]


@pytest.fixture(scope="module")
def fig1_result():
    return run_experiment("fig1", ExperimentConfig(realizations=35, seed=2024))


@pytest.fixture(scope="module")
def fig2_result():
    return run_experiment("fig2", ExperimentConfig(realizations=35, seed=2024))


@pytest.fixture(scope="module")
def fig3_result():
    return run_experiment("fig3", ExperimentConfig(realizations=35, seed=2024))


@pytest.fixture(scope="module")
def table1_result():
    return run_experiment("table1", ExperimentConfig(realizations=35, seed=2024))


def test_c01_allowed_count_table_exact():
    started = time.perf_counter()
    cells = 0
    for p, row in TABLE2_REFERENCE.items():
        for L, expected in row.items():
            assert xp_allowed_count(p, L) == expected, (p, L)
            cells += 1
    elapsed = time.perf_counter() - started
    assert cells == 55  # the populated p <= L <= 14 region
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 01 allowed-count table: PASS "
          f"({cells} cells exact, {elapsed:.4f}s)")


def test_c02_forbidden_pattern_counts():
    started = time.perf_counter()
    logistic = ProcessSpec("logistic", length=1, seed=101)
    shift = ProcessSpec("shift", length=1, seed=202)
    f3 = forbidden_patterns_of_map(logistic, 3, n_orbits=100, orbit_len=100_000)
    assert {p.ranks for p in f3} == {(2, 1, 0)}
    f4 = forbidden_patterns_of_map(logistic, 4, n_orbits=100, orbit_len=100_000)
    assert len(f4) == 12
    s4 = forbidden_patterns_of_map(shift, 4, n_orbits=100, orbit_len=100_000)
    assert len(s4) == 6
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 02 forbidden patterns: PASS "
          f"(logistic 1 and 12, shift 6; {elapsed:.1f}s)")


def test_c03_lambert_suite():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) <= 1e-12
    assert abs(lambert_w(-1.0 / math.e) + 1.0) <= 1e-12
    worst = 0.0
    for x in np.exp(np.linspace(np.log(1.0 / math.e), np.log(1e6), 50)):
        worst = max(worst, abs(lambert_w(x * math.log(x)) - math.log(x)))
    assert worst <= 1e-11
    worst_n = 0.0
    for n in (2, 3):
        lo = exp_iterated(-1.0, n)
        for x in np.exp(np.linspace(math.log(lo), math.log(1e4), 50)):
            lnn = log_iterated(float(x), n)
            worst_n = max(worst_n, abs(lambert_n(float(x) * lnn, n) - lnn))
    assert worst_n <= 1e-10
    print(f"ACCEPTANCE 03 Lambert suite: PASS "
          f"(identity err {worst:.2e}, generalized {worst_n:.2e})")


def test_c04_taylor_bound():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        eps = rng.uniform(0.005, 0.11)
        w = int(rng.integers(2, 15))
        body = rng.dirichlet(np.ones(w)) * eps
        p = np.concatenate([[1.0 - eps], body])
        r = renyi_entropy(p, 1.0)
        if r >= 1.0 / math.e:
            continue
        z = z_entropy(p, FAC, 1.0)
        assert abs(z - (r - r * r / 2.0)) <= 2.0 * r**3
        checked += 1
    print("ACCEPTANCE 04 Taylor bound: PASS (200 distributions, R < 1/e)")


@pytest.mark.xfail(
    strict=True,
    reason="1/ln L convergence: final value 0.723 < 0.85 and intercept "
    "0.776 not within 0.1 of 1 at orders 4..20",
)
def test_c05_extensivity_rate_extrapolation():
    pairs = [(L, z_topological(math.factorial(L), FAC) / L) for L in range(4, 21)]
    values = [v for _, v in pairs]
    assert all(b > a for a, b in zip(values, values[1:]))
    fit = entropy_rate_estimate(pairs)
    print(f"ACCEPTANCE 05 extensivity rate: final {values[-1]:.4f}, "
          f"intercept {fit.intercept:.4f}")
    assert values[-1] >= 0.85
    assert abs(fit.intercept - 1.0) <= 0.1
    print("ACCEPTANCE 05 extensivity rate: PASS")


@pytest.mark.xfail(
    strict=True,
    reason="persistent fBm (H=0.6) sits ~0.09 below ln 720 at T=7000 "
    "(its reference decay rate already implies ~0.03); noisy logistic ~0.05",
)
def test_c06_visibility_plateau_all_processes(fig2_result):
    target = math.log(720)
    finals = fig2_result.summary["final_g"]
    gaps = {name: target - finals[name] for name in PROCESS_NAMES}
    report = ", ".join(f"{n}={g:+.4f}" for n, g in gaps.items())
    print(f"ACCEPTANCE 06 plateau gaps at T=7000: {report}")
    for name in PROCESS_NAMES:
        assert abs(gaps[name]) <= 0.02, (name, gaps[name])
    print("ACCEPTANCE 06 visibility plateau: PASS")


def test_c07_decay_rate_table(table1_result):
    rates = table1_result.summary["R"]
    reference = {
        ("white-noise", 4): (4.43e-2, 0.30),
        ("white-noise", 5): (8.47e-3, 0.30),
        ("white-noise", 6): (1.40e-3, 0.30),
        ("fbm-0.60", 6): (5.05e-4, 0.40),
        ("noisy-schuster", 6): (1.30e-3, 0.40),
    }
    lines = []
    for (name, L), (ref, tol) in reference.items():
        got = rates[f"{name}|L{L}"]
        assert abs(got - ref) <= tol * ref, (name, L, got, ref)
        lines.append(f"{name} L{L}: {got:.3e} vs {ref:.2e}")
    print("ACCEPTANCE 07 decay rates: PASS (" + "; ".join(lines) + ")")


def test_c08_periodic_support_plateaus(fig3_result):
    support = fig3_result.summary["union_support"]
    expected = {"xp-p2": 12, "xp-p3": 12, "xp-p4": 12, "xp-p5": 9, "xp-p6": 6}
    assert support == expected
    finals = fig3_result.summary["final_g"]
    for p, target in ((2, 12), (5, 9), (6, 6)):
        assert finals[f"xp-p{p}"] <= math.log(target) + 1e-9
    print(f"ACCEPTANCE 08 periodic plateaus: PASS (supports {support})")


def test_c09_entropy_curves_qualitative(fig1_result):
    curves = fig1_result.summary["curves"]
    for L in (3, 4, 5, 6, 7):
        for alpha in (0.5, 1.0, 1.5):
            wn = curves[f"white-noise|L{L}|a{alpha:g}"]
            for name in PROCESS_NAMES[1:]:
                assert curves[f"{name}|L{L}|a{alpha:g}"] <= wn + 1e-12, (
                    name, L, alpha
                )
        for name in PROCESS_NAMES:
            ordered = [curves[f"{name}|L{L}|a{a:g}"] for a in (0.5, 1.0, 1.5)]
            assert ordered[0] >= ordered[1] >= ordered[2], (name, L)
    print("ACCEPTANCE 09 entropy curves: PASS "
          "(white-noise envelope and alpha ordering at every order)")


def test_c10_oracle_equivalence_and_empirical_levels():
    for p in (2, 3, 4):
        for L in range(p, 9):
            probs = xp_pattern_probabilities(p, L)
            d = xp_distribution(p, L)
            assert len(probs) == d.allowed, (p, L)
            assert sum(probs.values()) == 1
            expected_levels = {d.P1: d.N1}
            if d.N2:
                expected_levels[d.P2] = expected_levels.get(d.P2, 0) + d.N2
            observed_levels: dict = {}
            for value in probs.values():
                observed_levels[value] = observed_levels.get(value, 0) + 1
            assert observed_levels == expected_levels, (p, L)

    p, L, T, m = 3, 5, 100_000, 20
    d = xp_distribution(p, L)
    oracle = xp_pattern_probabilities(p, L)
    spec = ProcessSpec("xp", length=T, seed=0, period=p)
    samples = {ranks: [] for ranks in oracle}
    union: set = set()
    for i in range(m):
        census = pattern_census(generate(replace(spec, seed=derive_seed(4242, i))), L)
        union |= set(census.counts)
        for ranks in oracle:
            code = OrdinalPattern(ranks).code
            samples[ranks].append(census.counts.get(code, 0) / census.total_windows)
    assert len(union) == d.allowed
    worst = 0.0
    for ranks, values in samples.items():
        values = np.array(values)
        se = values.std(ddof=1) / math.sqrt(m)
        worst = max(worst, abs(values.mean() - float(oracle[ranks])) / se)
    assert worst <= 3.0
    print(f"ACCEPTANCE 10 oracle equivalence: PASS "
          f"(closed form matches enumeration; worst |t| = {worst:.2f})")


def test_c11_renyi_properties():
    rng = np.random.default_rng(11)
    alphas = (0.0, 0.5, 1.0, 1.5, 2.0)
    for _ in range(500):
        w = int(rng.integers(2, 30))
        p = rng.dirichlet(np.full(w, rng.uniform(0.3, 2.0)))
        values = [renyi_entropy(p, a) for a in alphas]
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(math.log(np.sum(p > 0)), abs=1e-12)
    for w in (2, 6, 24, 120):
        uniform = np.full(w, 1.0 / w)
        for a in alphas:
            assert abs(renyi_entropy(uniform, a) - math.log(w)) <= 1e-12
    print("ACCEPTANCE 11 Renyi properties: PASS "
          "(500 random distributions, uniform checks to 1e-12)")
