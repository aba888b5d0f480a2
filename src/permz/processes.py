"""Reference process generators with counter-based, replayable seeding.

Every generator is a pure function of its :class:`ProcessSpec`: equal
specs give bit-identical output.  Randomness comes exclusively from the
SplitMix64 stream keyed by ``spec.seed`` (see :mod:`permz.rng`), with a
documented draw order per kind:

* ``white-noise``       -- T uniforms on [0, 1).
* ``fgn`` / ``fbm``     -- 2T gaussians feeding a circulant-embedding
  synthesis (draws 0..T are the cosine coefficients for frequencies
  0..T, draws T+1..2T-1 the sine coefficients for frequencies 1..T-1);
  ``fbm`` is the running sum of the same fGn stream.
* ``noisy-logistic`` / ``noisy-schuster`` -- the noise-free orbit is
  iterated first, then T uniforms are mapped to observational noise
  uniform on [-amplitude, amplitude].
* ``xp``                -- T uniforms; each maps to noise uniform on
  (-delta/2, delta/2) except at the noiseless residues, where the
  sample is exact (the uniform is still consumed).
* ``piecewise-linear``  -- one uniform per started block of
  ``_DITHER_PERIOD`` steps when dithering is enabled.
* ``logistic``          -- none (pure orbit of 4x(1-x)).
* ``shift``             -- T+52 stream bits; sample t is the 53-bit
  window 0.b_t..b_{t+52}, a typical orbit of x -> 2x mod 1 evaluated
  to one ulp (iterating doubles directly would collapse onto 0, since
  every double is a dyadic rational).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral, Real

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError, ValidationError
from .rng import Stream

__all__ = [
    "KINDS",
    "ProcessSpec",
    "generate",
    "fgn_autocovariance",
    "derive_seed",
    "realization_specs",
    "map_orbit",
    "dither_kicks",
]

KINDS = (
    "white-noise",
    "fgn",
    "fbm",
    "noisy-logistic",
    "noisy-schuster",
    "xp",
    "piecewise-linear",
    "logistic",
    "shift",
)

_DITHER_SCALE = 1e-14
_DITHER_PERIOD = 10_000
_DEFAULT_X0 = 0.2002
_NOISE_AMPLITUDE = {"noisy-logistic": 0.30, "noisy-schuster": 0.25}
_XP_AMPLITUDE_MARGIN = 1e-9  # keeps noise strictly below delta/2
_PROC_SEED_STRIDE = 1_000_003


def _check_count(name: str, value) -> None:
    if not isinstance(value, Integral) or value < 1:
        raise ValidationError(f"{name} must be an integer at least 1")


def _check_seed(seed) -> None:
    if not isinstance(seed, Integral):  # of either sign: streams take it mod 2**64
        raise ValidationError("seed must be an integer")


def _check_period(p) -> None:
    if not isinstance(p, Integral) or p < 2:
        raise ValidationError("period must be an integer >= 2")


def _check_residues(residues, p) -> tuple[int, ...]:
    """The residue guard: a sequence of integers in ``0..p-1``, returned as
    a tuple."""
    residues = tuple(residues) if np.iterable(residues) else (None,)  # None fails
    if any(not isinstance(r, Integral) or not 0 <= r < p for r in residues):
        raise ValidationError(f"residues must be integers in 0..{p - 1}")
    return residues


@dataclass(frozen=True)
class ProcessSpec:
    """Full description of one generator run.

    Only the fields relevant to ``kind`` may be set; the rest must stay
    ``None`` so that a spec serializes without ambiguity.
    """

    kind: str
    length: int
    seed: int = 0
    hurst: float | None = None
    amplitude: float | None = None
    x0: float | None = None
    period: int | None = None
    delta: float | None = None
    noiseless_residues: tuple[int, ...] | None = None
    sigma: float | None = None
    dither: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(
                f"unknown process kind {self.kind!r}; choose from {', '.join(KINDS)}"
            )
        _check_count("length", self.length)
        _check_seed(self.seed)
        allowed = {
            "white-noise": set(),
            "fgn": {"hurst"},
            "fbm": {"hurst"},
            "noisy-logistic": {"amplitude", "x0"},
            "noisy-schuster": {"amplitude", "x0"},
            "xp": {"period", "delta", "noiseless_residues"},
            "piecewise-linear": {"sigma", "x0"},
            "logistic": {"x0"},
            "shift": set(),
        }[self.kind]
        for field in ("hurst", "amplitude", "x0", "period", "delta",
                      "noiseless_residues", "sigma"):
            value = getattr(self, field)
            if field not in allowed and value is not None:
                raise ValidationError(
                    f"parameter {field!r} does not apply to kind {self.kind!r}"
                )
            if isinstance(value, Real) and not math.isfinite(value):
                raise ValidationError(f"{field} must be finite")

        if self.kind in ("fgn", "fbm"):
            if self.hurst is None or not 0.0 < self.hurst < 1.0:
                raise ValidationError("hurst must lie strictly inside (0, 1)")
        if self.kind in ("noisy-logistic", "noisy-schuster"):
            if self.amplitude is not None and self.amplitude < 0:
                raise ValidationError("amplitude must be nonnegative")
        if self.kind in ("noisy-logistic", "noisy-schuster", "logistic"):
            if self.x0 is not None and not 0.0 < self.x0 < 1.0:
                raise ValidationError("x0 must lie inside (0, 1)")
        if self.kind == "xp":
            _check_period(self.period)
            if self.delta is not None and not self.delta > 0:
                raise ValidationError("delta must be positive")
            if self.noiseless_residues is not None:
                object.__setattr__(self, "noiseless_residues", _check_residues(
                    self.noiseless_residues, self.period))
        if self.kind == "piecewise-linear":
            if self.sigma is None or not self.sigma > 1.0:
                raise ValidationError("sigma must exceed 1")
            if self.x0 is not None and not 0.0 <= self.x0 <= 1.0:
                raise ValidationError("x0 must lie in [0, 1]")

    @property
    def is_deterministic(self) -> bool:
        """True for noise-free map orbits (the forbidden-pattern kinds)."""
        return self.kind in ("logistic", "piecewise-linear", "shift")

    @property
    def known_entropies(self) -> tuple[float, float] | None:
        """(metric, topological) entropy of the generating map, when
        known in closed form."""
        if self.kind == "logistic" or self.kind == "shift":
            return (math.log(2.0), math.log(2.0))
        if self.kind == "piecewise-linear":
            return (math.log(self.sigma), math.log(self.sigma))
        return None


def derive_seed(base_seed: int, index: int) -> int:
    """Per-realization seed for ensemble member ``index``."""
    _check_seed(base_seed)
    return (int(base_seed) + int(index)) & 0xFFFFFFFFFFFFFFFF


def member_seed(base: int, process_index: int, realization: int) -> int:
    """The one seed rule of every ensemble, experiment, CLI or map scan."""
    return derive_seed(base, _PROC_SEED_STRIDE * process_index + realization)


def realization_specs(spec: ProcessSpec, count: int,
                      process_index: int = 0) -> list[ProcessSpec]:
    """``count`` realizations of ``spec``, realization i seeded
    ``member_seed(spec.seed, process_index, i)`` (``derive_seed`` at index 0)."""
    _check_count("realizations", count)
    return [replace(spec, seed=member_seed(spec.seed, process_index, i))
            for i in range(count)]


def fgn_autocovariance(hurst: float, lag: int) -> float:
    """Autocovariance of unit-variance fractional Gaussian noise at ``lag``
    (or an array of lags): ``0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})``."""
    ProcessSpec("fgn", length=1, hurst=hurst)  # the spec holds the hurst guard
    k = np.asarray(lag, dtype=np.float64)
    if np.any(k < 0):
        raise ValidationError("lag must be nonnegative")
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1) ** h2 - 2.0 * k**h2 + np.abs(k - 1) ** h2)


def _fgn(n: int, hurst: float, stream: Stream) -> np.ndarray:
    """Exact-covariance fGn via circulant embedding, O(n log n)."""
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


def _logistic(v):
    return 4.0 * v * (1.0 - v)


def _schuster(v):
    return (v + v * v) % 1.0


def _zigzag(v, sigma):
    """Zigzag map with slope magnitude sigma everywhere on [0, 1]."""
    return 1.0 - abs((sigma * v) % 2.0 - 1.0)


_MAP_STEPS = {"logistic": _logistic, "noisy-logistic": _logistic,
              "noisy-schuster": _schuster}


def _kick(v, u):
    """Nudge ``v`` by ``(2u - 1) * _DITHER_SCALE``, staying inside [0, 1]."""
    v = v + (2.0 * u - 1.0) * _DITHER_SCALE
    return np.clip(v, 0.0, 1.0) if np.ndim(v) else min(1.0, max(0.0, float(v)))


def dither_kicks(spec: ProcessSpec, seed: int, n: int) -> np.ndarray | None:
    """Kicks of an ``n``-step orbit of the map of ``spec``: the first
    uniforms of stream ``seed``, one per started block of
    ``_DITHER_PERIOD`` steps, or ``None`` when the orbit is not dithered.

    Only the zigzag map is dithered: a kick of at most ``_DITHER_SCALE``
    at the start of each block keeps its orbit off short floating-point
    cycles.  Slopes that are powers of two make the arithmetic exact and
    still collapse between kicks; prefer non-dyadic sigma (or the shift
    kind).
    """
    if spec.kind != "piecewise-linear" or not spec.dither:
        return None
    return Stream(seed).uniforms(-(-n // _DITHER_PERIOD))


def map_orbit(spec: ProcessSpec, x0, n: int, kicks=None) -> np.ndarray:
    """``n`` iterates of the noise-free map of ``spec`` (logistic,
    Schuster or zigzag), starting with ``x0`` itself.

    A float ``x0`` gives one orbit, iterated in Python floats (as a one-row
    array it runs more than ten times slower).  An array of initial
    conditions gives one row per condition, iterated as arrays; row
    ``i`` equals the orbit of ``x0[i]`` bit for bit.
    ``kicks`` (see :func:`dither_kicks`; one row per condition for an
    array) are applied at the start of each block of ``_DITHER_PERIOD``
    steps.
    """
    if spec.kind == "piecewise-linear":
        step = partial(_zigzag, sigma=spec.sigma)
    elif spec.kind in _MAP_STEPS:
        step = _MAP_STEPS[spec.kind]
    else:
        raise ValidationError(f"kind {spec.kind!r} is not a map")
    out = np.empty(np.shape(x0) + (n,))
    steps = out if out.ndim == 1 else out.T  # steps[t] holds iterate t
    v = x0
    for lo in range(0, n, _DITHER_PERIOD):
        if kicks is not None:
            v = _kick(v, kicks[..., lo // _DITHER_PERIOD])
        for t in range(lo, min(lo + _DITHER_PERIOD, n)):
            steps[t] = v
            v = step(v)
    return out


def _shift_series(n: int, stream: Stream) -> np.ndarray:
    bits = stream.bits(n + 52).astype(np.float64)
    weights = 2.0 ** -(np.arange(1, 54, dtype=np.float64))
    return sliding_window_view(bits, 53) @ weights


def _xp_series(spec: ProcessSpec, stream: Stream) -> np.ndarray:
    p = spec.period
    delta = 1.0 if spec.delta is None else spec.delta
    residues = (
        (p - 1,) if spec.noiseless_residues is None else spec.noiseless_residues
    )
    amplitude = delta / 2.0 - _XP_AMPLITUDE_MARGIN * delta
    t = np.arange(spec.length)
    phase = t % p
    zeta = amplitude * (2.0 * stream.uniforms(spec.length) - 1.0)
    if residues:
        zeta[np.isin(phase, residues)] = 0.0
    return delta * phase + zeta


def generate(spec: ProcessSpec) -> np.ndarray:
    """Produce the length-T series described by ``spec``."""
    stream = Stream(spec.seed)
    n = spec.length
    if spec.kind == "white-noise":
        return stream.uniforms(n)
    if spec.kind == "fgn":
        return _fgn(n, spec.hurst, stream)
    if spec.kind == "fbm":
        return np.cumsum(_fgn(n, spec.hurst, stream))
    if spec.kind == "xp":
        return _xp_series(spec, stream)
    if spec.kind == "shift":
        return _shift_series(n, stream)
    x0 = _DEFAULT_X0 if spec.x0 is None else spec.x0
    orbit = map_orbit(spec, x0, n, dither_kicks(spec, spec.seed, n))
    if spec.kind not in _NOISE_AMPLITUDE:
        return orbit
    amplitude = spec.amplitude
    if amplitude is None:
        amplitude = _NOISE_AMPLITUDE[spec.kind]
    return orbit + amplitude * (2.0 * stream.uniforms(n) - 1.0)
