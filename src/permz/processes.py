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
  window 0.b_t..b_{t+52}, built exactly as the integer b_t..b_{t+52}
  times 2**-53: a typical orbit of x -> 2x mod 1 evaluated to one ulp
  (iterating doubles directly would collapse onto 0, since every double
  is a dyadic rational).

Seed-free work is done once per key and kept in two memos of at most
``_MEMO_KEYS`` (8) keys, least recently used out: the fGn/fBm
circulant-embedding amplitudes keyed by ``(T, hurst)``, and the
noiseless orbit of ``noisy-logistic``/``noisy-schuster`` keyed by
``(kind, x0, T)``.  A key holds one read-only array of about ``8 * T``
bytes (``16 * T`` for an fGn key and an orbit key), so the memos retain
at most about ``128 * T`` bytes for the largest ``T`` generated; ``T``
is the caller's choice.  Returned series are new writeable arrays,
bit-identical to uncached ones; each pool worker fills its own memos.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from numbers import Real

import numpy as np

from .errors import NumericalError, ValidationError, _float, _instance, _integer, _reals
from .rng import Stream

__all__ = [
    "KINDS",
    "ProcessSpec",
    "generate",
    "fgn_autocovariance",
    "derive_seed",
    "realization_specs",
    "map_orbit",
]

# the parameters each kind takes; every other parameter keeps its default
_TAKES = {
    "white-noise": (),
    "fgn": ("hurst",),
    "fbm": ("hurst",),
    "noisy-logistic": ("amplitude", "x0"),
    "noisy-schuster": ("amplitude", "x0"),
    "xp": ("period", "delta", "noiseless_residues"),
    "piecewise-linear": ("sigma", "x0", "dither"),
    "logistic": ("x0",),
    "shift": (),
}
KINDS = tuple(_TAKES)
# the numeric parameters with their types, in the CLI's option order
NUMERIC_PARAMS = {"hurst": float, "amplitude": float, "x0": float,
                  "period": int, "delta": float, "sigma": float}

_DITHER_SCALE = 1e-14
_DITHER_PERIOD = 10_000
_DEFAULT_X0 = 0.2002
_NOISE_AMPLITUDE = {"noisy-logistic": 0.30, "noisy-schuster": 0.25}
_XP_AMPLITUDE_MARGIN = 1e-9  # keeps noise strictly below delta/2
_PROC_SEED_STRIDE = 1_000_003
_MEMO_KEYS = 8
# the largest size that becomes an array length: fGn's 2T complex embedding,
# 32 bytes a sample, is the largest array and stays within numpy's size limit
_MAX_LENGTH = sys.maxsize // 32


def _check_count(name: str, value) -> None:
    _integer(value, f"{name} must be an integer at least 1", 1)


def _check_length(name: str, value, lo=1) -> None:
    _integer(value, f"{name} must be an integer at least {lo}, at most {_MAX_LENGTH}",
             lo, _MAX_LENGTH)


def _check_seed(seed) -> None:
    _integer(seed, "seed must be an integer")  # of either sign: streams take it mod 2**64


def _check_period(p) -> None:
    _integer(p, "period must be an integer >= 2", 2)


def _check_residues(residues, p) -> tuple[int, ...]:
    """The residue guard: a sequence of integers in ``0..p-1``, returned as
    a tuple; None gives the default, the one residue ``p - 1``."""
    if residues is None:
        return (p - 1,)
    message = f"residues must be integers in 0..{p - 1}"
    return tuple(_integer(r, message, 0, p - 1)
                 for r in (residues if np.iterable(residues) else (None,)))  # None fails


@dataclass(frozen=True)
class ProcessSpec:
    """Full description of one generator run.

    Only the parameters ``_TAKES`` lists for ``kind`` may be set; the rest
    keep their defaults (``None``, or ``True`` for ``dither``: only
    ``piecewise-linear`` is dithered) so that a spec serializes without
    ambiguity.
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
        _check_length("length", self.length)
        _check_seed(self.seed)
        takes = _TAKES[self.kind]
        for field, unset in _DEFAULTS.items():
            value = getattr(self, field)
            if field not in takes and value is not unset:
                raise ValidationError(
                    f"parameter {field!r} does not apply to kind {self.kind!r}"
                )
            if isinstance(value, Real) and not math.isfinite(_float(value)):
                raise ValidationError(f"{field} must be finite")
            if NUMERIC_PARAMS.get(field) is float and value is not None:
                if not isinstance(value, Real):
                    raise ValidationError(f"{field} must be a real number")
                # a Python float: a numpy float32 would iterate a map in
                # float32 yet compare and hash equal to its float64 value
                object.__setattr__(self, field, float(value))

        if self.kind in ("fgn", "fbm"):
            if self.hurst is None or not 0.0 < self.hurst < 1.0:
                raise ValidationError("hurst must lie strictly inside (0, 1)")
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


_DEFAULTS = {f.name: f.default for f in fields(ProcessSpec)[3:]}  # hurst .. dither


def derive_seed(base_seed: int, index: int) -> int:
    """Per-realization seed for ensemble member ``index``."""
    _check_seed(base_seed)
    _integer(index, "index must be an integer")  # of either sign, like the seed
    return (int(base_seed) + int(index)) & 0xFFFFFFFFFFFFFFFF


def member_seed(base: int, process_index: int, realization: int) -> int:
    """The one seed rule of every ensemble, experiment, CLI or map scan."""
    return derive_seed(base, _PROC_SEED_STRIDE * process_index + realization)


def realization_specs(spec: ProcessSpec, count: int,
                      process_index: int = 0) -> list[ProcessSpec]:
    """``count`` realizations of ``spec``, realization i seeded
    ``member_seed(spec.seed, process_index, i)`` (``derive_seed`` at index 0)."""
    _instance(spec, ProcessSpec, "spec")
    _check_count("realizations", count)
    return [replace(spec, seed=member_seed(spec.seed, process_index, i))
            for i in range(count)]


def fgn_autocovariance(hurst: float, lag: int) -> float:
    """Autocovariance of unit-variance fractional Gaussian noise at ``lag``
    (or an array of lags): ``0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})``."""
    ProcessSpec("fgn", length=1, hurst=hurst)  # the spec holds the hurst guard
    k = _reals(lag, "lag")
    if not np.all(k >= 0):  # nan fails
        raise ValidationError("lag must be nonnegative")
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1) ** h2 - 2.0 * k**h2 + np.abs(k - 1) ** h2)


@lru_cache(maxsize=_MEMO_KEYS)
def _fgn_amplitudes(n: int, hurst: float) -> tuple[float, float, np.ndarray]:
    """The seed-free half of :func:`_fgn`: the amplitudes of frequency 0,
    of frequency n and (read-only) of frequencies 1..n-1, from the clipped
    circulant-embedding spectrum.  A failing key raises on every call."""
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -1e-6:
        raise NumericalError(
            f"circulant embedding produced negative spectrum for H={hurst}"
        )
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    inner = np.sqrt(lam[1:n] / (2.0 * m))
    inner.flags.writeable = False
    return math.sqrt(lam[0] / m), math.sqrt(lam[n] / m), inner


def _fgn(n: int, hurst: float, stream: Stream) -> np.ndarray:
    """Exact-covariance fGn via circulant embedding, O(n log n)."""
    if n == 1:
        return stream.gaussians(1)
    first, last, inner = _fgn_amplitudes(n, hurst)
    m = 2 * n
    g = stream.gaussians(m)
    a, b = g[: n + 1], g[n + 1 :]
    w = np.zeros(m, dtype=np.complex128)
    w[0] = first * a[0]
    w[n] = last * a[n]
    w[1:n] = inner * (a[1:n] + 1j * b)
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


def map_orbit(spec: ProcessSpec, x0, n: int) -> np.ndarray:
    """``n`` iterates of the noise-free map of ``spec`` (logistic,
    Schuster or zigzag), starting with ``x0`` itself.

    A float ``x0`` gives one orbit, iterated in Python floats (as a one-row
    array it runs more than ten times slower).  An array of initial
    conditions gives one row per condition, iterated as arrays; row ``i``
    equals the float orbit of ``x0[i]`` under realization ``i``,
    ``replace(spec, seed=member_seed(spec.seed, 0, i))``; a float is orbit 0.
    A dithered zigzag (``spec.dither``) alone is kicked: orbit ``i`` moves by
    at most ``_DITHER_SCALE`` at the start of each block of ``_DITHER_PERIOD``
    steps, by the next uniform of realization ``i``'s stream, which keeps it
    off short floating-point cycles.  Slopes that are powers of two make the
    arithmetic exact and still collapse between kicks; prefer non-dyadic
    sigma (or the shift kind).  ``n`` must be an integer at least 1, every
    ``x0`` a real in [0, 1], and the batch ``x0.size * n`` at most ``_MAX_LENGTH``.
    """
    if _instance(spec, ProcessSpec, "spec").kind == "piecewise-linear":
        step = partial(_zigzag, sigma=spec.sigma)
    elif spec.kind in _MAP_STEPS:
        step = _MAP_STEPS[spec.kind]
    else:
        raise ValidationError(f"kind {spec.kind!r} is not a map")
    _check_length("n", n)
    x0 = _reals(x0, "x0") if np.ndim(x0) else _float(x0)
    if not np.all((0.0 <= x0) & (x0 <= 1.0)):  # nan fails both
        raise ValidationError("x0 must lie in [0, 1]")
    _check_length("x0.size * n", np.size(x0) * int(n), 0)  # the batch
    kicks = None
    if spec.kind == "piecewise-linear" and spec.dither:
        blocks = -(-n // _DITHER_PERIOD)
        kicks = np.reshape([Stream(member_seed(spec.seed, 0, i)).uniforms(blocks)
                            for i in range(np.size(x0))], np.shape(x0) + (blocks,))
    out = np.empty(np.shape(x0) + (n,))
    steps = np.moveaxis(out, -1, 0)  # steps[t] holds iterate t
    v = x0
    for lo in range(0, n, _DITHER_PERIOD):
        if kicks is not None:
            v = v + (2.0 * kicks[..., lo // _DITHER_PERIOD] - 1.0) * _DITHER_SCALE
            v = np.clip(v, 0.0, 1.0) if np.ndim(v) else min(1.0, max(0.0, float(v)))
        for t in range(lo, min(lo + _DITHER_PERIOD, n)):
            steps[t] = v
            v = step(v)
    return out


@lru_cache(maxsize=_MEMO_KEYS)
def _noiseless_orbit(kind: str, x0: float, n: int) -> np.ndarray:
    """The read-only orbit under a noisy map's observational noise."""
    orbit = map_orbit(ProcessSpec(kind, length=n, x0=x0), x0, n)
    orbit.flags.writeable = False
    return orbit


def _shift_series(n: int, stream: Stream) -> np.ndarray:
    """Sample t is the integer of bits t..t+52 times 2**-53, exact."""
    win = stream.bits(n + 52).astype(np.uint64)  # win[t]: bits t..t+width-1
    out = np.zeros(n, dtype=np.uint64)
    width, done = 1, 0  # out holds the last ``done`` bits of each window
    while True:  # 53 = 1 + 4 + 16 + 32
        if 53 & width:
            done += width
            out |= win[53 - done : 53 - done + n] << np.uint64(done - width)
            if done == 53:
                return out * 2.0**-53
        win = (win[:-width] << np.uint64(width)) | win[width:]
        width *= 2


def _xp_series(spec: ProcessSpec, stream: Stream) -> np.ndarray:
    p = spec.period
    delta = 1.0 if spec.delta is None else spec.delta
    residues = _check_residues(spec.noiseless_residues, p)
    amplitude = delta / 2.0 - _XP_AMPLITUDE_MARGIN * delta
    levels = min(p, spec.length)  # the phases the series reaches
    phase = np.arange(spec.length) % levels
    zeta = amplitude * (2.0 * stream.uniforms(spec.length) - 1.0)
    zeta[np.isin(np.arange(levels), residues)[phase]] = 0.0
    return delta * phase + zeta


def generate(spec: ProcessSpec) -> np.ndarray:
    """Produce the length-T series described by ``spec``."""
    stream = Stream(_instance(spec, ProcessSpec, "spec").seed)
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
    if spec.kind not in _NOISE_AMPLITUDE:
        return map_orbit(spec, x0, n)
    amplitude = spec.amplitude
    if amplitude is None:
        amplitude = _NOISE_AMPLITUDE[spec.kind]
    return (_noiseless_orbit(spec.kind, x0, n)
            + amplitude * (2.0 * stream.uniforms(n) - 1.0))
