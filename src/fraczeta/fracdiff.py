"""Discrete fractional differintegration and the relaxation equation.

The fractional derivative of order alpha in (0, 1] is realised with
Grunwald-Letnikov weights w_k = (-1)^k C(alpha, k) on a uniform grid,
lower terminal at t = 0 and zero history before it.  The relaxation
equation

    (1/vc)^alpha d^alpha/dt^alpha U(t) = z0 I(t) - U(t),   alpha = 1/d,

is integrated with the implicit (backward) coupling of the same weights,
which keeps the stiff large-c regime stable.  That scheme is a
lower-triangular Toeplitz system with symbol a(z) = 1 + c (1 - z)^alpha
(Lubich 1986), so its solution is z0 (g * I) with g the power series
1/a(z).  Newton iteration on FFT products gives g, and the convolution
with I, in O(N log N).  The memory convolution is kept in full and
exactly; truncating it is exactly the error this module exists to
measure, so no short-memory shortcut is taken.  Drives are capped at
MAX_SOLVER_SAMPLES = 1e5 samples; raising that cap is a separate,
explicit decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .transfer import ColeColeParams

MAX_SOLVER_SAMPLES = 100_000


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real signal: values[k] is the sample at t = k*h."""

    h: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise DomainError("h must be > 0")
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("values must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise DomainError("values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def times(self) -> np.ndarray:
        return self.h * np.arange(len(self.values))


@dataclass(frozen=True)
class SolverConfig:
    """Step size and sample count for building solver drives."""

    h: float
    steps: int

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise ConfigError("h must be > 0")
        if not (1 <= self.steps <= MAX_SOLVER_SAMPLES):
            raise ConfigError(f"steps must be in [1, {MAX_SOLVER_SAMPLES}]")


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    return float(alpha)


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the lengths numpy's FFT is fastest at."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _product_head(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` terms of the linear convolution of ``x[:n]`` and ``y[:n]``.

    Real FFTs padded to no less than the full product length, so no term
    wraps around; fewer than n terms come back only when the two factors
    are too short to reach n.
    """
    x, y = x[:n], y[:n]
    size = _fft_size(len(x) + len(y) - 1)
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[:n]


def gl_weights(alpha: float, count: int) -> np.ndarray:
    """First ``count`` Grunwald-Letnikov weights (-1)^k C(alpha, k).

    Generated by the stable recurrence w_0 = 1,
    w_k = w_{k-1} (1 - (alpha+1)/k).
    """
    _check_alpha(alpha)
    if count < 1:
        raise DomainError("count must be >= 1")
    if count == 1:
        return np.ones(1)
    k = np.arange(1.0, count)
    return np.concatenate(([1.0], np.cumprod(1.0 - (alpha + 1.0) / k)))


def gl_differintegral(f: SampledSignal, alpha: float) -> SampledSignal:
    """Discrete fractional derivative g_n = h^-alpha sum w_k f_{n-k}."""
    _check_alpha(alpha)
    n = len(f.values)
    if n < 2:
        raise DomainError("signal must have at least 2 samples")
    w = gl_weights(alpha, n)
    g = _product_head(f.values, w, n) * f.h ** (-alpha)
    return SampledSignal(h=f.h, values=g)


def solve_relaxation(params: ColeColeParams, drive: SampledSignal) -> SampledSignal:
    """Solve the relaxation equation under the given drive I(t).

    Implicit Grunwald-Letnikov step with c = (vc*h)^-alpha:

        U_n = (z0 I_n - c sum_{k=1..n} w_k U_{n-k}) / (1 + c)

    The whole march at once: with a_0 = 1 + c and a_k = c w_k the scheme
    reads sum_k a_k U_{n-k} = z0 I_n, so U = z0 (g * I) where g is the
    power series 1/a(z), got to N terms by Newton doubling
    g <- g (2 - a g).  Full memory, no truncation, O(N log N) cost;
    drives longer than 1e5 samples are rejected.
    """
    n = len(drive.values)
    if n > MAX_SOLVER_SAMPLES:
        raise ConfigError(f"drive length {n} exceeds {MAX_SOLVER_SAMPLES} samples")
    alpha = 1.0 / params.d
    c = (params.vc * drive.h) ** (-alpha)
    a = c * gl_weights(alpha, n)
    a[0] += 1.0
    g = np.array([1.0 / a[0]])
    m = 1
    while m < n:
        # g holds 1/a(z) to m terms; one Newton step doubles that
        m = min(2 * m, n)
        e = -_product_head(a, g, m)
        e[0] += 2.0
        g = _product_head(g, e, m)
    u = params.z0 * _product_head(g, drive.values, n)
    return SampledSignal(h=drive.h, values=u)


def fit_sinusoid(t: np.ndarray, y: np.ndarray, v: float) -> complex:
    """Least-squares fit y ~ a sin(vt) + b cos(vt), returned as A e^{i phi}.

    With A cos(phi) = a and A sin(phi) = b the phasor A e^{i phi} is just
    a + ib.
    """
    basis = np.column_stack([np.sin(v * t), np.cos(v * t)])
    (a, b), *_ = np.linalg.lstsq(basis, y, rcond=None)
    return complex(a, b)


def frequency_response_empirical(
    params: ColeColeParams, v: float, cycles: int, h: float = 1e-3
) -> complex:
    """Steady-state complex gain of the solver under I(t) = sin(v t).

    Runs ``cycles`` periods of the drive (at least 10, so the first
    cycles - 2 serve as transient), then fits A sin(vt + phi) over the
    final two cycles and returns A e^{i phi}, the amplitude ratio of U to
    the unit drive.  Cross-validates the time-domain solver against
    :func:`fraczeta.transfer.evaluate`.
    """
    if not v > 0:
        raise DomainError("v must be > 0")
    if cycles < 10:
        raise ConfigError("cycles must be >= 10")
    period = 2.0 * math.pi / v
    n = int(round(cycles * period / h)) + 1
    if n > MAX_SOLVER_SAMPLES:
        raise ConfigError(
            f"{cycles} cycles at h={h:g} need {n} samples "
            f"(guard is {MAX_SOLVER_SAMPLES}); raise h or v"
        )
    t = h * np.arange(n)
    drive = SampledSignal(h=h, values=np.sin(v * t))
    u = solve_relaxation(params, drive)
    tail = t >= (cycles - 2) * period
    return fit_sinusoid(t[tail], u.values[tail], v)
