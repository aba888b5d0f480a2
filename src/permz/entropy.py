"""Renyi entropies, Lambert-W inverses, and class-specific Z-entropies.

A complexity class is the growth law ``g`` of the log allowed-pattern
count.  Every supported law is ``g(t) = c * t * ln^(n)(t)``, with
``ln^(0)`` read as 1.  Its Z-entropy, :meth:`ComplexityClass.z`, is
``g^{-1}(R_alpha(p)) - g^{-1}(0)``, which is zero on singular
distributions and extensive over uniform ones:

=================  ======  ======  ===================  =================
class              c       n       g(t)                 g^{-1}(s)
=================  ======  ======  ===================  =================
exponential(c)     c > 0   0       c*t                  s/c
factorial          1       1       t*ln(t)              exp(W(s))
sub_factorial(c)   0<c<1   1       c*t*ln(t)            exp(W(s/c))
sub_iterated_log   1       n >= 2  t*ln^(n)(t)          exp^(n)(W_n(s))
=================  ======  ======  ===================  =================

``W = W_1`` is the principal real Lambert function (inverse of
``y*e^y``) and ``W_n`` its tower generalization, the inverse of
``y*exp^(n)(y)`` on ``y >= 0``.  Entropy values are in nats throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DataError, NumericalError, ValidationError
from .ordinal import PatternDistribution, _check_order

__all__ = [
    "ComplexityClass",
    "RateFit",
    "lambert_w",
    "lambert_n",
    "exp_iterated",
    "log_iterated",
    "renyi_entropy",
    "z_entropy",
    "z_topological",
    "entropy_rate_estimate",
]

_BRANCH_POINT = -math.exp(-1.0)
_BRANCH_SLACK = 1e-12
_EXP_MAX = math.log(sys.float_info.max)  # the largest v with a finite exp(v)


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
    than returning infinity."""
    if n < 0:
        raise ValidationError("iteration count must be nonnegative")
    v = float(x)
    for _ in range(n):
        if v > _EXP_MAX:
            raise NumericalError(f"exp_iterated overflow: exp({v}) is not finite")
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

    For ``x > 0`` the root is found in ``u = ln y``: the increasing,
    convex ``phi(u) = u + exp^(n-1)(e^u) - ln x`` (with ``ln y`` of the
    returned, normal ``y`` for ``u``) falls to ``|phi| <= 1e-12``, a
    relative residual of 1e-12.  Arguments down to the branch point
    ``-exp^(n)(-1)`` are solved in ``y`` for ``n <= 3``, where the map
    increases on ``[-1, 0]``, to an absolute residual of 1e-12.  Newton
    steps start at the top of the bracket; one that leaves it, or is not
    under half the step before last, is replaced by bisection.  ``n=1``
    delegates to :func:`lambert_w`; entropies only need ``x >= 0``.
    """
    if not isinstance(n, Integral) or n < 1:
        raise ValidationError("n must be an integer >= 1")
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError("lambert_n argument must be finite")
    if n == 1:
        return lambert_w(x)
    if x == 0.0:
        return 0.0

    if x > 0.0:
        ln_x = math.log(x)

        def f(u: float) -> tuple[float, float]:
            try:  # y = e^u, exp(y), ..., exp^(n-1)(y)
                towers = [exp_iterated(u, k) for k in range(1, n + 1)]
            except NumericalError:
                return math.inf, math.inf  # above the root: the solver bisects
            ln_y = math.log(towers[0]) if towers[0] >= sys.float_info.min else u
            return ln_y + towers[-1] - ln_x, 1.0 + math.prod(towers)

        # phi(hi) >= 0 as e^u > 0, and phi(lo) <= 0 as e^lo <= 1
        hi = ln_x - exp_iterated(0.0, n - 1)
        lo = min(0.0, ln_x - exp_iterated(1.0, n - 1))
    else:
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

        def f(y: float) -> tuple[float, float]:
            towers = [exp_iterated(y, k) for k in range(1, n + 1)]
            return y * towers[-1] - x, towers[-1] + y * math.prod(towers)

        lo, hi = -1.0, 0.0

    root, last, before = hi, math.inf, math.inf
    for _ in range(200):
        value, slope = f(root)
        if abs(value) <= 1e-12:
            return math.exp(root) if x > 0.0 else root
        if value > 0.0:
            hi = root
        else:
            lo = root
        step = root - value / slope
        if not (lo < step < hi and abs(step - root) <= 0.5 * before):
            step = 0.5 * (lo + hi)
        root, last, before = step, abs(step - root), last
    raise NumericalError(f"lambert_n did not converge for x={x}, n={n}")


# ---------------------------------------------------------------------------
# Complexity classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityClass:
    """Growth law ``g(t) = c*t*ln^(n)(t)``, ``ln^(0) = 1``, of the log
    allowed-pattern count.

    Build instances through the class methods (or :meth:`parse` for the
    CLI tokens ``exp:c``, ``fac``, ``sub:c``, ``subn:n``).
    """

    c: float
    n: int

    def __post_init__(self):
        if not isinstance(self.n, Integral) or self.n < 0:
            raise ValidationError("class order n must be an integer >= 0")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValidationError("class constant c must be finite and > 0")
        if self.c > 1 and self.n >= 1 or self.c != 1 and self.n >= 2:
            raise ValidationError("class constant c must be <= 1 at n = 1, 1 at n >= 2")

    @classmethod
    def exponential(cls, c: float) -> "ComplexityClass":
        return cls(float(c), 0)

    @classmethod
    def factorial(cls) -> "ComplexityClass":
        return cls(1.0, 1)

    @classmethod
    def sub_factorial(cls, c: float) -> "ComplexityClass":
        if c == 1:  # (1, 1) is the factorial class
            raise ValidationError("sub-factorial class requires 0 < c < 1")
        return cls(float(c), 1)

    @classmethod
    def sub_iterated_log(cls, n: int) -> "ComplexityClass":
        if n < 2:  # (1, 0) and (1, 1) are the exponential and factorial classes
            raise ValidationError("iterated-log class requires integer n >= 2")
        return cls(1.0, n)

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
        if self.n == 0:
            return f"exp:{self.c:g}"
        if self.n == 1:
            return "fac" if self.c == 1 else f"sub:{self.c:g}"
        return f"subn:{self.n}"

    def growth(self, t: float) -> float:
        """The law ``g(t)`` itself."""
        return self.c * t * (log_iterated(t, self.n) if self.n else 1.0)

    def inverse(self, s: float) -> float:
        """``g^{-1}(s)`` for ``s >= 0``: ``s / c``, or
        ``exp^(n)(W_n(s / c))`` for ``n >= 1``."""
        if s < 0:
            raise ValidationError("inverse growth is only used for s >= 0")
        if not self.n:
            return s / self.c
        return exp_iterated(lambert_n(s / self.c, self.n), self.n)

    @property
    def inverse_zero(self) -> float:
        """``g^{-1}(0)``, the additive offset that zeroes singular
        distributions."""
        return exp_iterated(0.0, self.n) if self.n else 0.0

    def z(self, r: float) -> float:
        """The Z-entropy ``g^{-1}(r) - g^{-1}(0)`` of a Renyi entropy r."""
        return self.inverse(r) - self.inverse_zero


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


def _check_alpha(alpha, positive: bool = False) -> float:
    """The alpha guard: a finite real >= 0, or > 0 for a Z-entropy (whose
    alpha = 0 case is :func:`z_topological`); returns alpha as a float."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0 or positive and alpha == 0:
        raise ValidationError(f"alpha must be finite and {'>' if positive else '>='} 0")
    return alpha


def _is_shannon(alpha: float) -> bool:
    return abs(alpha - 1.0) < 1e-8  # the Shannon limit of the Renyi family


def renyi_entropy(dist, alpha: float) -> float:
    """Renyi entropy of order ``alpha`` in nats (``k = 1``).

    ``alpha = 0`` gives the log support size, ``alpha = 1`` (within
    1e-8) the Shannon entropy, otherwise
    ``(1 - alpha)^{-1} * ln(sum p_i^alpha)``.
    """
    alpha = _check_alpha(alpha)
    p = _as_probabilities(dist)
    support = p[p > 0.0]
    if alpha == 0.0:
        return float(np.log(support.size))
    if _is_shannon(alpha):
        return float(-np.sum(support * np.log(support)))
    return float(np.log(np.sum(support**alpha)) / (1.0 - alpha))


def z_entropy(dist, complexity_class: ComplexityClass, alpha: float) -> float:
    """Z-entropy ``g^{-1}(R_alpha(p)) - g^{-1}(0)`` for ``alpha > 0``."""
    return complexity_class.z(renyi_entropy(dist, _check_alpha(alpha, positive=True)))


def z_topological(allowed_count: int, complexity_class: ComplexityClass) -> float:
    """Topological Z-entropy ``g^{-1}(ln A) - g^{-1}(0)`` from an
    allowed-pattern count ``A >= 1``."""
    if allowed_count < 1:
        raise ValidationError("allowed_count must be at least 1")
    return complexity_class.z(math.log(allowed_count))


@dataclass(frozen=True)
class RateFit:
    """Straight-line extrapolation of Z/L against 1/L."""

    intercept: float
    slope: float
    residual: float


def _fit_points(pairs, what: str) -> list[tuple[int, float]]:
    """The ``(L, value)`` points of a fit over orders: each L an order, each
    value finite (an int of any size is), and at least 3 distinct orders."""
    points = []
    for L, value in pairs:
        _check_order(L, hi=math.inf)
        if not isinstance(value, Integral) and not math.isfinite(value):
            raise DataError(f"{what} must be finite")
        points.append((int(L), value))
    if len({L for L, _ in points}) < 3:
        raise DataError("need at least 3 distinct orders")
    return points


def entropy_rate_estimate(pairs) -> RateFit:
    """Extrapolate per-symbol entropy to ``1/L -> 0``.

    ``pairs`` is a sequence of ``(L, Z/L)`` values over a caller-chosen
    range of orders; the intercept of the least-squares line of ``Z/L``
    against ``1/L`` estimates the entropy rate.  The RMS residual of
    the fit is reported alongside.
    """
    data = _fit_points(pairs, "Z/L values")
    x = np.array([1.0 / L for L, _ in data])
    y = np.array([float(v) for _, v in data])
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return RateFit(intercept=float(coef[0]), slope=float(coef[1]), residual=residual)
