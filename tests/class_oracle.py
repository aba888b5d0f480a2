"""The growth laws as they were written before the (c, n) form: one
``family`` string dispatched by if-ladders, with the generalized Lambert
solver and the capped ``exp_iterated`` they called.  Kept verbatim as the
oracle that ``tests/test_entropy.py`` compares ``ComplexityClass`` with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from permz.entropy import _BRANCH_SLACK, lambert_w, log_iterated
from permz.errors import NumericalError, ValidationError

_EXP_CLAMP = 700.0  # just below log of the float64 overflow threshold


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

