"""Higher-level analytics on pattern censuses.

Covers exponential and stretched-exponential fits of the missing-pattern
decay ``M_{L,T} = L! - A_{L,T}`` (an array over ``T = L, L+1, ...``, from
the prefix curve ``A_{L,T}`` of :func:`permz.ordinal.visible_curve`),
exact combinatorics of the noisy-periodic process family, growth-constant
estimation, empirical forbidden-pattern detection for deterministic
maps (window counts over the ``L!`` position codes; only the missing codes
are named as Lehmer codes and patterns).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, permutations, product

import numpy as np

from .entropy import ComplexityClass, _check_alpha, _fit_points, _line_fit
from .entropy import _is_near_shannon, _near_shannon
from .errors import DataError, NumericalError, ValidationError, _instance, _reals
from .ordinal import _MAX_FACTORIAL, OrdinalPattern, _check_order, stabilized_census
from .ordinal import _names, _positions
from .ordinal import window_codes  # noqa: F401 -- perfbench traces this binding
from .processes import (
    ProcessSpec, _check_length, _check_period, _check_residues,
    generate, map_orbit, member_seed, realization_specs,
)
from .rng import Stream

__all__ = [
    "DecayFit",
    "XpAnalytics",
    "ClassConstantFit",
    "fit_decay",
    "xp_allowed_count",
    "xp_distribution",
    "xp_class_constant",
    "xp_pattern_probabilities",
    "estimate_class_constant",
    "forbidden_patterns_of_map",
    "stabilized_census",  # from ordinal; this is its place in permz.__all__
]


# ---------------------------------------------------------------------------
# Missing patterns and decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """Fitted missing-pattern decay ``M(T) = C * exp(-R * T^beta)``."""

    R: float
    C: float
    beta: float
    model: str
    fit_range: tuple[float, float]
    residual: float
    n_points: int


def _decay_points(missing, L: int) -> tuple[np.ndarray, np.ndarray]:
    m = _reals(missing, "missing counts")
    if m.ndim != 1:
        raise ValidationError(
            "missing counts must be a 1-d curve over T = L, L+1, ..."
        )
    if m.size == 0:
        raise DataError("no missing-pattern points supplied")
    if not np.all(np.isfinite(m)):
        raise DataError("missing counts contain non-finite values")
    if not np.any(m[1:] > 0.0):
        raise DataError(
            "census is saturated: no positive missing counts beyond the first point"
        )
    # fit on the largest prefix where at least one pattern is missing
    below = np.flatnonzero(m < 1.0)
    k = below[0] if below.size else m.size
    if k < 4:
        raise DataError("need at least 4 checkpoints with M >= 1 to fit a decay")
    return L + np.arange(k, dtype=np.float64), m[:k]


def fit_decay(missing, L: int, model: str = "exponential",
              fix_intercept: bool = True) -> DecayFit:
    """Fit the decay law of missing ``L``-patterns versus series length.

    ``missing`` is the 1-d curve of missing counts ``M`` at
    ``T = L, L+1, ...`` -- ``L! - visible_curve(series, L)``, or an
    ensemble mean of such curves.  The fit uses the prefix before the
    first ``M < 1``.  The exponential model fits ``ln M`` against
    ``T - L`` with the intercept pinned to ``ln(L! - 1)`` -- the exact
    value at ``T = L`` -- unless ``fix_intercept=False``;
    ``fix_intercept`` applies to this model only.  The stretched model,
    whose intercept is always fitted, scans the exponent ``beta`` over a
    coarse grid and refines the best cell by golden-section search.
    """
    if model not in ("exponential", "stretched"):
        raise ValidationError("model must be 'exponential' or 'stretched'")
    _check_order(L)
    t, m = _decay_points(missing, L)
    y = np.log(m)

    if model == "exponential":  # ln M = ln(L! - 1) - R * (T - L)
        pinned = math.log(math.factorial(L) - 1) if fix_intercept else None
        intercept, rate, residual = _line_fit(L - t, y, pinned)
        beta, ln_c = 1.0, intercept + rate * L  # ln M = ln C - R * T
    else:
        def rms(beta):
            return _line_fit(-(t**beta), y)[2]

        best = min(np.arange(0.05, 1.0001, 0.05), key=rms)
        a = max(0.01, best - 0.05)
        b = min(1.0, best + 0.05)
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        c_pt = b - phi * (b - a)
        d_pt = a + phi * (b - a)
        fc = rms(c_pt)
        fd = rms(d_pt)
        for _ in range(60):
            if fc <= fd:
                b, d_pt, fd = d_pt, c_pt, fc
                c_pt = b - phi * (b - a)
                fc = rms(c_pt)
            else:
                a, c_pt, fc = c_pt, d_pt, fd
                d_pt = a + phi * (b - a)
                fd = rms(d_pt)
            if b - a < 1e-6:
                break
        beta = 0.5 * (a + b)
        ln_c, rate, residual = _line_fit(-(t**beta), y)
    if rate <= 0.0:
        raise DataError("no decay detected: fitted rate is not positive")
    try:
        c = math.exp(ln_c)
    except OverflowError:
        raise NumericalError(f"exp overflows at the fitted ln C = {ln_c!r}") from None
    return DecayFit(
        R=rate,
        C=c,
        beta=float(beta),
        model=model,
        fit_range=(float(t[0]), float(t[-1])),
        residual=residual,
        n_points=len(t),
    )


# ---------------------------------------------------------------------------
# Exact combinatorics of the noisy-periodic family
# ---------------------------------------------------------------------------

def _xp_counts(p: int, L: int) -> tuple[int, int, int, int]:
    _check_period(p)
    _check_order(L, hi=_MAX_FACTORIAL)
    if L < p:
        raise ValidationError(
            f"window width L={L} below period p={p} is outside the supported range"
        )
    nu, mu = divmod(L, p)
    f_nu = math.factorial(nu)
    f_nu1 = math.factorial(nu + 1)
    n1 = (p - mu) * f_nu1**mu * f_nu ** (p - mu - 1)
    n2 = mu * f_nu1 ** (mu - 1) * f_nu ** (p - mu) if mu >= 1 else 0
    return nu, mu, n1, n2


def xp_allowed_count(p: int, L: int) -> int:
    """Exact number of allowed ``L``-patterns of the noisy-periodic
    process of period ``p`` (one noiseless phase)."""
    _, _, n1, n2 = _xp_counts(p, L)
    return n1 + n2


def xp_class_constant(p: int, mu: int) -> float:
    """Growth constant ``c`` of ``g(L) = c L ln L`` along the order
    subsequence ``L = nu*p + mu``."""
    _check_period(p)
    _check_residues((mu,), p)
    if mu in (0, p - 1):
        return (p - 1) / p
    return mu / p


def _ln(q: Fraction) -> float:
    """``ln q`` of a positive rational, finite at any size of its terms."""
    return math.log(q.numerator) - math.log(q.denominator)


@dataclass(frozen=True)
class XpAnalytics:
    """Exact pattern statistics of the noisy-periodic process.

    The allowed patterns split into ``N1`` patterns of probability
    ``P1`` and ``N2`` of probability ``P2`` (``N2 = 0`` when the window
    width is a multiple of the period).  Probabilities are exact
    rationals so the normalization ``N1*P1 + N2*P2 = 1`` holds exactly.
    """

    p: int
    L: int
    nu: int
    mu: int
    N1: int
    N2: int
    P1: Fraction
    P2: Fraction
    allowed: int
    c: float

    def renyi(self, alpha: float) -> float:
        """Renyi entropy of the two-level distribution, any alpha >= 0, in
        log space from the exact counts and probabilities, so it stays
        finite and accurate at any order."""
        alpha = _check_alpha(alpha)
        if alpha == 0.0:
            return math.log(self.allowed)
        if self.N2 == 0:
            return math.log(self.N1)
        masses = (self.N1 * self.P1, self.N2 * self.P2)
        ln_p = (_ln(self.P1), _ln(self.P2))
        if _is_near_shannon(alpha, min(ln_p)):
            return _near_shannon([float(m) for m in masses], ln_p, alpha)
        # ln(N_i * P_i**alpha) = ln(N_i * P_i) + (alpha - 1) * ln P_i
        lo, hi = sorted(_ln(m) + (alpha - 1.0) * lp for m, lp in zip(masses, ln_p))
        return (hi + math.log1p(math.exp(lo - hi))) / (1.0 - alpha)


def xp_distribution(p: int, L: int) -> XpAnalytics:
    """Exact two-level pattern distribution of the noisy-periodic
    process, from the closed-form counts."""
    nu, mu, n1, n2 = _xp_counts(p, L)
    if mu == 0:
        p1 = Fraction(1, n1)
        p2 = Fraction(0)
    else:
        p1 = Fraction(p - mu, p * n1)
        p2 = Fraction(mu, p * n2)
    return XpAnalytics(
        p=p,
        L=L,
        nu=nu,
        mu=mu,
        N1=n1,
        N2=n2,
        P1=p1,
        P2=p2,
        allowed=n1 + n2,
        c=xp_class_constant(p, mu),
    )


def xp_pattern_probabilities(
    p: int, L: int, noiseless_residues: tuple[int, ...] | None = None
) -> dict[tuple[int, ...], Fraction]:
    """Brute-force oracle: exact probability of every allowed pattern.

    Enumerates window start residues and all orderings of the noisy
    value groups (positions in a noiseless residue class tie and keep
    index order).  Feasible for small ``p`` and ``L``; exponential in
    the group sizes.
    """
    _check_period(p)
    _check_order(L, hi=_MAX_FACTORIAL)
    residues = _check_residues(noiseless_residues, p)
    out: dict[tuple[int, ...], Fraction] = {}
    for start in range(p):
        groups = [
            tuple(j for j in range(L) if (start + j) % p == k) for k in range(p)
        ]
        options = []
        for k, grp in enumerate(groups):
            if len(grp) <= 1 or k in residues:
                options.append((grp,))
            else:
                options.append(tuple(permutations(grp)))
        weight = Fraction(1, p * math.prod(len(o) for o in options))
        for combo in product(*options):
            ranks = tuple(chain.from_iterable(combo))
            out[ranks] = out.get(ranks, Fraction(0)) + weight
    return out


# ---------------------------------------------------------------------------
# Growth-constant estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassConstantFit:
    """Through-origin fit of ``ln A_L`` against the family abscissa."""

    c: float
    residual: float
    degenerate: bool


def estimate_class_constant(counts, family: str) -> ClassConstantFit:
    """Estimate ``c`` in ``g(t) = c t`` or ``g(t) = c t ln t`` from
    observed allowed-pattern counts ``(L, A_L)``."""
    if family not in ("exponential", "sub_linear_log"):
        raise ValidationError("family must be 'exponential' or 'sub_linear_log'")
    pts = _fit_points(counts, "allowed counts")
    if any(a < 1 for _, a in pts):
        raise ValidationError("allowed counts must be at least 1")
    law = ComplexityClass(1.0, 0 if family == "exponential" else 1)
    x = np.array([law.growth(L) for L, _ in pts])
    y = np.array([math.log(a) for _, a in pts])
    _, c_hat, residual = _line_fit(x, y, 0.0)
    return ClassConstantFit(c=c_hat, residual=residual, degenerate=not np.any(y))


# ---------------------------------------------------------------------------
# Forbidden patterns of deterministic maps
# ---------------------------------------------------------------------------

def _orbit_batch(
    spec: ProcessSpec, n_orbits: int, orbit_len: int
) -> Iterable[np.ndarray]:
    """Orbits from random initial conditions, one row per orbit: shift orbit
    i is realization i of ``spec``; a map's initial conditions are drawn by
    realization 0's stream and map orbit i is realization i + 1's.
    Shift rows are generated one at a time, as they are taken; a map's
    rows are one ``n_orbits x orbit_len`` float64 array."""
    if spec.kind == "shift":
        members = realization_specs(replace(spec, length=orbit_len), n_orbits)
        return (generate(member) for member in members)
    x0 = 1e-6 + (1.0 - 2e-6) * Stream(member_seed(spec.seed, 0, 0)).uniforms(n_orbits)
    return map_orbit(replace(spec, seed=member_seed(spec.seed, 0, 1)), x0, orbit_len)


def forbidden_patterns_of_map(
    spec: ProcessSpec, L: int, n_orbits: int, orbit_len: int
) -> set[OrdinalPattern]:
    """Patterns never observed over an ensemble of map orbits.

    The result is the complement of the union of visible patterns over
    ``n_orbits`` random initial conditions iterated ``orbit_len`` steps
    each -- an empirical "missing at this sampling effort" set, not a
    proof of true forbiddenness.  Each orbit's windows are counted by
    position code with one ``np.bincount`` of ``L!`` bins; the scan stops
    as soon as every code has been seen, and only the codes never seen are
    named as patterns.  Shift orbits are generated and scanned one at a
    time (none past that stop); a map scan holds its orbits as one
    ``n_orbits x orbit_len`` float64 batch, stepped through a small
    time-major block (see :func:`~permz.processes.map_orbit`).
    """
    if not _instance(spec, ProcessSpec, "spec").is_deterministic:
        raise ValidationError(
            "forbidden-pattern scans require a deterministic kind "
            "(logistic, piecewise-linear or shift)"
        )
    _check_order(L, hi=7)  # the result enumerates the missing patterns
    _check_length("n_orbits", n_orbits)  # the length of the x0 array
    _check_length("orbit_len", orbit_len)
    _check_length("n_orbits * orbit_len", int(n_orbits) * int(orbit_len))
    if orbit_len < L:
        raise ValidationError("orbit_len must be at least L")
    orbits = _orbit_batch(spec, n_orbits, orbit_len)
    seen = np.zeros(math.factorial(L), dtype=np.intp)  # windows, by position code
    for row in orbits:
        seen += np.bincount(_positions(row, L), minlength=seen.size)
        if seen.all():
            break
    missing = _names(L)[0][np.flatnonzero(seen == 0)]
    return {OrdinalPattern.from_code(code, L) for code in missing.tolist()}

