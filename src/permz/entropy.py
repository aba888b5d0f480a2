"""Renyi entropies, Lambert-W inverses, and class-specific Z-entropies.

A complexity class is the growth law ``g`` of the log allowed-pattern
count.  Its Z-entropy is ``g^{-1}(R_alpha(p)) - g^{-1}(0)``, which is
zero on singular distributions and extensive over uniform ones.  The
supported growth laws and their inverses:

=================  ==================  ===============================
family             g(t)                g^{-1}(s)
=================  ==================  ===============================
exponential(c)     c*t                 s/c
factorial          t*ln(t)             exp(W(s))
sub_factorial(c)   c*t*ln(t), 0<c<1    exp(W(s/c))
sub_iterated_log   t*ln^(n)(t), n>=2   exp^(n)(W_n(s))
=================  ==================  ===============================

``W`` is the principal real Lambert function (inverse of ``y*e^y``) and
``W_n`` its tower generalization, the inverse of ``y*exp^(n)(y)`` on
``y >= 0``.  Entropy values are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, ValidationError
from .ordinal import PatternDistribution

__all__ = [
    "ComplexityClass",
    "EntropyReport",
    "RateFit",
    "lambert_w",
    "lambert_n",
    "exp_iterated",
    "log_iterated",
    "renyi_entropy",
    "z_entropy",
    "z_topological",
    "entropy_report",
    "entropy_rate_estimate",
]

_BRANCH_POINT = -math.exp(-1.0)
_BRANCH_SLACK = 1e-12
_EXP_CLAMP = 700.0  # just below log of the float64 overflow threshold


# ---------------------------------------------------------------------------
# Lambert functions
# ---------------------------------------------------------------------------

def lambert_w(x: float) -> float:
    """Principal branch of the real Lambert function.

    Solves ``y * exp(y) = x`` for ``x >= -1/e``, with ``W(0) = 0`` and
    ``W(-1/e) = -1``.  Initial guesses (branch-point series near the
    branch point, ``ln x - ln ln x`` for large ``x``) are polished by
    Halley iteration to ``|y e^y - x| <= 1e-13 * max(1, |x|)``.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError("lambert_w argument must be finite")
    if x < _BRANCH_POINT:
        if x < _BRANCH_POINT - _BRANCH_SLACK:
            raise ValidationError(
                f"lambert_w argument {x} below the branch point -1/e"
            )
        return -1.0
    if x == 0.0:
        return 0.0

    if x < _BRANCH_POINT + 0.05:
        # series around the branch point in p = sqrt(2(e*x + 1))
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
    elif x < 2.0:
        w = x / (1.0 + x)
    else:
        lx = math.log(x)
        llx = math.log(lx)
        w = lx - llx + llx / lx

    tol = 1e-13 * max(1.0, abs(x))
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        wp1 = w + 1.0
        if wp1 == 0.0:
            wp1 = 1e-300
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        w -= f / denom
    if abs(w * math.exp(w) - x) <= 10.0 * tol:
        return w
    raise NumericalError(f"lambert_w did not converge for x={x}")


def exp_iterated(x: float, n: int) -> float:
    """``exp`` composed ``n`` times.  Raises on float overflow rather
    than returning infinity (intermediate exponents are capped at 700).
    """
    if n < 0:
        raise ValidationError("iteration count must be nonnegative")
    v = float(x)
    for _ in range(n):
        if v > _EXP_CLAMP:
            raise NumericalError(f"exp_iterated overflow: exponent {v} > 700")
        v = math.exp(v)
    return v


def log_iterated(x: float, n: int) -> float:
    """``log`` composed ``n`` times; domain error if any stage hits a
    non-positive value."""
    if n < 0:
        raise ValidationError("iteration count must be nonnegative")
    v = float(x)
    for _ in range(n):
        if v <= 0.0:
            raise ValidationError(f"log_iterated domain: reached {v} <= 0")
        v = math.log(v)
    return v


def lambert_n(x: float, n: int) -> float:
    """Generalized Lambert inverse: the ``y`` solving
    ``y * exp^(n)(y) = x`` with ``y >= -1``.

    The map is strictly increasing on ``y >= 0`` for every ``n`` (and
    on all of ``[-1, oo)`` for ``n <= 3``), so the root is bracketed by
    doubling and polished by Newton steps safeguarded with bisection,
    down to a relative residual of 1e-12.  Arguments below zero are
    accepted down to the branch point ``-exp^(n)(-1)`` for ``n <= 3``;
    entropy computations only ever need ``x >= 0``.  ``n=1`` delegates
    to :func:`lambert_w`.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError("n must be an integer >= 1")
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError("lambert_n argument must be finite")
    if n == 1:
        return lambert_w(x)
    if x == 0.0:
        return 0.0

    def f_and_deriv(y: float) -> tuple[float, float]:
        towers = []
        v = y
        for _ in range(n):
            if v > _EXP_CLAMP:
                return math.inf, math.inf  # above the root: the solver bisects
            v = math.exp(v)
            towers.append(v)
        expn = towers[-1]
        dexpn = math.prod(towers)
        return y * expn - x, expn + y * dexpn

    if x < 0.0:
        if n > 3:
            raise ValidationError(
                "negative arguments are supported only for n <= 3 "
                "(the map is not monotone below 0 for larger n)"
            )
        branch_min = -exp_iterated(-1.0, n)
        if x < branch_min - _BRANCH_SLACK:
            raise ValidationError(
                f"lambert_n argument {x} below the branch point {branch_min}"
            )
        if x <= branch_min:
            return -1.0
        lo, hi = -1.0, 0.0
    else:
        lo, hi = 0.0, 1.0
        while f_and_deriv(hi)[0] < 0.0:
            lo = hi
            hi *= 2.0

    y = 0.5 * (lo + hi)
    tol = 1e-12 * max(1.0, abs(x))
    for _ in range(200):
        f, df = f_and_deriv(y)
        if abs(f) <= tol:
            return y
        if f > 0.0:
            hi = y
        else:
            lo = y
        step = y - f / df
        y = step if lo < step < hi else 0.5 * (lo + hi)
    raise NumericalError(f"lambert_n did not converge for x={x}, n={n}")


# ---------------------------------------------------------------------------
# Complexity classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityClass:
    """Growth law of the log allowed-pattern count.

    Build instances through the class methods (or :meth:`parse` for the
    CLI tokens ``exp:c``, ``fac``, ``sub:c``, ``subn:n``).
    """

    family: str
    c: float | None = None
    n: int | None = None

    def __post_init__(self):
        if self.family == "exponential":
            if self.c is None or not self.c > 0:
                raise ValidationError("exponential class requires c > 0")
        elif self.family == "factorial":
            pass
        elif self.family == "sub_factorial":
            if self.c is None or not 0 < self.c < 1:
                raise ValidationError("sub-factorial class requires 0 < c < 1")
        elif self.family == "sub_iterated_log":
            if self.n is None or not isinstance(self.n, int) or self.n < 2:
                raise ValidationError("iterated-log class requires integer n >= 2")
        else:
            raise ValidationError(f"unknown complexity class {self.family!r}")

    @classmethod
    def exponential(cls, c: float) -> "ComplexityClass":
        return cls("exponential", c=float(c))

    @classmethod
    def factorial(cls) -> "ComplexityClass":
        return cls("factorial")

    @classmethod
    def sub_factorial(cls, c: float) -> "ComplexityClass":
        return cls("sub_factorial", c=float(c))

    @classmethod
    def sub_iterated_log(cls, n: int) -> "ComplexityClass":
        return cls("sub_iterated_log", n=int(n))

    @classmethod
    def parse(cls, token: str) -> "ComplexityClass":
        token = token.strip().lower()
        try:
            if token == "fac":
                return cls.factorial()
            if token.startswith("exp:"):
                return cls.exponential(float(token[4:]))
            if token.startswith("sub:"):
                return cls.sub_factorial(float(token[4:]))
            if token.startswith("subn:"):
                return cls.sub_iterated_log(int(token[5:]))
        except ValueError as exc:
            raise ValidationError(f"bad class token {token!r}: {exc}") from None
        raise ValidationError(
            f"unknown class token {token!r}; expected exp:c, fac, sub:c or subn:n"
        )

    def token(self) -> str:
        if self.family == "exponential":
            return f"exp:{self.c:g}"
        if self.family == "factorial":
            return "fac"
        if self.family == "sub_factorial":
            return f"sub:{self.c:g}"
        return f"subn:{self.n}"

    def growth(self, t: float) -> float:
        """The law ``g(t)`` itself."""
        if self.family == "exponential":
            return self.c * t
        if self.family == "factorial":
            return t * math.log(t)
        if self.family == "sub_factorial":
            return self.c * t * math.log(t)
        return t * log_iterated(t, self.n)

    def inverse(self, s: float) -> float:
        """``g^{-1}(s)`` for ``s >= 0``."""
        if s < 0:
            raise ValidationError("inverse growth is only used for s >= 0")
        if self.family == "exponential":
            return s / self.c
        if self.family == "factorial":
            return math.exp(lambert_w(s))
        if self.family == "sub_factorial":
            return math.exp(lambert_w(s / self.c))
        return exp_iterated(lambert_n(s, self.n), self.n)

    @property
    def inverse_zero(self) -> float:
        """``g^{-1}(0)``, the additive offset that zeroes singular
        distributions."""
        if self.family == "exponential":
            return 0.0
        if self.family in ("factorial", "sub_factorial"):
            return 1.0
        return exp_iterated(0.0, self.n)


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------

def _as_probabilities(dist) -> np.ndarray:
    if isinstance(dist, PatternDistribution):
        return dist.probabilities
    p = np.asarray(dist, dtype=np.float64).reshape(-1)
    if p.size == 0:
        raise DataError("empty probability vector")
    if not np.all(np.isfinite(p)):
        raise DataError("probabilities must be finite")
    if np.any(p < 0):
        raise DataError("probabilities must be nonnegative")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise DataError(f"probabilities sum to {total!r}, not 1")
    return p


def renyi_entropy(dist, alpha: float) -> float:
    """Renyi entropy of order ``alpha`` in nats (``k = 1``).

    ``alpha = 0`` gives the log support size, ``alpha = 1`` (within
    1e-8) the Shannon entropy, otherwise
    ``(1 - alpha)^{-1} * ln(sum p_i^alpha)``.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0:
        raise ValidationError("alpha must be a finite real >= 0")
    p = _as_probabilities(dist)
    support = p[p > 0.0]
    if alpha == 0.0:
        return float(np.log(support.size))
    if abs(alpha - 1.0) < 1e-8:
        return float(-np.sum(support * np.log(support)))
    return float(np.log(np.sum(support**alpha)) / (1.0 - alpha))


def z_entropy(dist, complexity_class: ComplexityClass, alpha: float) -> float:
    """Z-entropy ``g^{-1}(R_alpha(p)) - g^{-1}(0)`` for ``alpha > 0``."""
    if float(alpha) <= 0.0:
        raise ValidationError(
            "alpha must be positive; use z_topological for the alpha=0 case"
        )
    r = renyi_entropy(dist, alpha)
    return complexity_class.inverse(r) - complexity_class.inverse_zero


def z_topological(allowed_count: int, complexity_class: ComplexityClass) -> float:
    """Topological Z-entropy ``g^{-1}(ln A) - g^{-1}(0)`` from an
    allowed-pattern count ``A >= 1``."""
    if allowed_count < 1:
        raise ValidationError("allowed_count must be at least 1")
    ln_a = math.log(allowed_count)
    return complexity_class.inverse(ln_a) - complexity_class.inverse_zero


@dataclass(frozen=True)
class EntropyReport:
    """One (order, alpha) row of an entropy analysis."""

    order: int
    alpha: float
    renyi: float
    z_value: float
    z_rate_term: float
    complexity_class: ComplexityClass


def entropy_report(
    dist: PatternDistribution, complexity_class: ComplexityClass, alpha: float
) -> EntropyReport:
    """Bundle Renyi, Z and Z/L values for one distribution."""
    if alpha == 0.0:
        z = z_topological(dist.support_size, complexity_class)
    else:
        z = z_entropy(dist, complexity_class, alpha)
    return EntropyReport(
        order=dist.order,
        alpha=float(alpha),
        renyi=renyi_entropy(dist, alpha),
        z_value=z,
        z_rate_term=z / dist.order,
        complexity_class=complexity_class,
    )


@dataclass(frozen=True)
class RateFit:
    """Straight-line extrapolation of Z/L against 1/L."""

    intercept: float
    slope: float
    residual: float


def entropy_rate_estimate(pairs) -> RateFit:
    """Extrapolate per-symbol entropy to ``1/L -> 0``.

    ``pairs`` is a sequence of ``(L, Z/L)`` values over a caller-chosen
    range of orders; the intercept of the least-squares line of ``Z/L``
    against ``1/L`` estimates the entropy rate.  The RMS residual of
    the fit is reported alongside.
    """
    data = [(int(L), float(v)) for L, v in pairs]
    orders = {L for L, _ in data}
    if len(orders) < 3:
        raise DataError("need at least 3 pairs with distinct orders")
    if any(L <= 0 for L in orders):
        raise ValidationError("orders must be positive")
    x = np.array([1.0 / L for L, _ in data])
    y = np.array([v for _, v in data])
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return RateFit(intercept=float(coef[0]), slope=float(coef[1]), residual=residual)
