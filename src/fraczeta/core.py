"""Shared numerical kernels.

Three primitives back everything else in the package:

* ``cpow_principal`` - complex powers on the principal branch for scalar
  fractional exponents like (iv/vc)^(1/d) or p^(2i*theta); powers of
  positive index arrays such as n^(-s) are exp(-s log n) in numpy;
* ``log_gamma`` - the continuous (principal-branch) log-gamma function,
  needed by the critical-line rotation in :mod:`fraczeta.zeta`;
* ``sum_alternating`` - accelerated summation of alternating series via
  the Cohen/Rodriguez Villegas/Zagier Chebyshev scheme, with a plain
  partial-sum mode kept alongside as a verification oracle.  The series
  term is array-valued: it receives a float array of indices n and
  returns the terms there (or a scalar that broadcasts), each index is
  evaluated once per sum, and every pass is one dot product with cached
  read-only weights.

All functions are pure and operate on immutable values, so they are safe
to call concurrently.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError, PoleError

Complexish = Union[complex, float, int]
# A term of an alternating series, evaluated at a float array of indices.
TermFn = Callable[[np.ndarray], Union[np.ndarray, Complexish]]

LN_PI = math.log(math.pi)
LN_2 = math.log(2.0)


@dataclass(frozen=True)
class ToleranceConfig:
    """Absolute tolerance and term budget for accelerated summation."""

    abs_tol: float = 1e-10
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if not (self.abs_tol >= 1e-15):
            raise ConfigError("abs_tol must be >= 1e-15")
        if not (0 < self.max_terms <= 10**8):
            raise ConfigError("max_terms must be a positive integer <= 1e8")


def require_finite(z: complex) -> complex:
    """Reject non-finite results before they escape an operation."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConvergenceError(f"non-finite value {z!r}")
    return z


def require_order(d: float) -> None:
    """Reject an order parameter d below 1 (or NaN)."""
    if not d >= 1:
        raise DomainError("d must be ≥ 1")


def cpow_principal(base: Complexish, exponent: Complexish) -> complex:
    """base**exponent with the principal log, argument in (-pi, pi].

    A zero base is only allowed for exponents with positive real part,
    where the limit is 0.
    """
    b = complex(base)
    e = complex(exponent)
    if b == 0:
        if e.real > 0:
            return 0j
        raise DomainError("0 cannot be raised to an exponent with Re <= 0")
    if b.imag == 0.0:
        # normalise -0.0 so negative reals land on the +pi side of the cut
        b = complex(b.real, 0.0)
    return cmath.exp(e * cmath.log(b))


# Lanczos g=7, n=9 coefficient set; relative error of the rational part
# is a few 1e-16 for Re(z) >= 1/4.
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _lanczos_loggamma(z: complex) -> complex:
    # Direct formula, reliable for Re(z) >= 1/4: every pole of the
    # rational part sits at Re <= 0 and the series stays in the right
    # half-plane, so the principal logs below never wind.
    a = _LANCZOS_C[0]
    for k in range(1, 9):
        a += _LANCZOS_C[k] / (z + (k - 1))
    t = z + 6.5
    return _HALF_LOG_TWO_PI + (z - 0.5) * cmath.log(t) - t + cmath.log(a)


def _log_sin_pi_upper(z: complex) -> complex:
    # log(sin(pi z)) on the branch that keeps log-gamma continuous, for
    # Im(z) >= 0.  Since |exp(2i pi z)| <= 1 there, 1 - exp(2i pi z)
    # stays in the closed right half-plane and the principal log is safe.
    return (
        -1j * math.pi * z
        + cmath.log(1.0 - cmath.exp(2j * math.pi * z))
        + (0.5j * math.pi - LN_2)
    )


def log_gamma(z: Complexish) -> complex:
    """Continuous principal branch of log Gamma(z).

    Matches the analytic continuation from the positive real axis; on the
    cut (negative real z) the side with Im -> -pi is returned.  Raises
    :class:`PoleError` at the poles 0, -1, -2, ...
    """
    w = complex(z)
    if w.imag == 0.0 and w.real <= 0.0 and w.real == math.floor(w.real):
        raise PoleError(f"log_gamma pole at z = {w.real:g}")
    if w.real >= 0.25:
        return _lanczos_loggamma(w)
    # reflection into Re >= 0.75
    if w.imag >= 0.0:
        return LN_PI - _log_sin_pi_upper(w) - _lanczos_loggamma(1.0 - w)
    return log_gamma(w.conjugate()).conjugate()


# The Chebyshev acceleration weight d_n = ((3+sqrt 8)^n + (3+sqrt 8)^-n)/2
# overflows binary64 a little past n = 400.
_ACCEL_DEGREE_CAP = 400


@functools.lru_cache(maxsize=None)
def _accel_weights(n: int) -> np.ndarray:
    """Read-only Chebyshev weights c_1..c_n of degree n, divided by d_n.

    One pass of degree n is ``dot(weights, term(1..n))``.  Dividing here
    keeps the weights at most 1: the raw c_k reach 1e306 at the cap, and
    their dot product with constant terms overflows.  Cached per degree;
    the engine never asks for a degree above the cap, so the cache holds
    at most one entry per degree up to it.
    """
    d = (3.0 + 2.0 * math.sqrt(2.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    weights = np.empty(n)
    for k in range(n):
        c = b - c
        weights[k] = c
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    weights /= d
    weights.flags.writeable = False
    return weights


def sum_alternating_info(
    term: TermFn, cfg: ToleranceConfig | None = None
) -> tuple[complex, int]:
    """Accelerated sum of Sum_{n>=1} (-1)^(n+1) term(n), plus terms used.

    ``term`` receives a float array of indices n and returns the terms at
    them, as an array of the same shape or a scalar that broadcasts.  It
    is called with consecutive blocks of indices, each index once.

    Runs the acceleration at a growing degree until two consecutive
    passes agree within ``cfg.abs_tol`` (that difference is the internal
    error estimate).  Each pass is one dot product of the cached weights
    with the terms evaluated so far.  For convergent alternating series
    this is the true sum; for Abel-summable boundary cases such as
    constant terms it returns the Abel value.
    """
    cfg = cfg or ToleranceConfig()
    cap = min(_ACCEL_DEGREE_CAP, cfg.max_terms)
    n = min(24, max(2, (2 * cfg.max_terms) // 3))
    terms = np.empty(0)
    prev = None
    while True:
        idx = np.arange(len(terms) + 1, n + 1, dtype=float)
        terms = np.concatenate((terms, np.broadcast_to(term(idx), idx.shape)))
        cur = complex(np.dot(_accel_weights(n), terms))
        if prev is not None and abs(cur - prev) <= cfg.abs_tol:
            return require_finite(cur), n
        n_next = min(max((3 * n) // 2, n + 8), cap)
        if n_next <= n:
            raise ConvergenceError(
                f"alternating sum did not reach abs_tol={cfg.abs_tol:g} "
                f"within {cap} terms"
            )
        n, prev = n_next, cur


def sum_alternating(
    term: TermFn, cfg: ToleranceConfig | None = None
) -> complex:
    """Accelerated value of Sum_{n>=1} (-1)^(n+1) term(n).

    ``term`` maps a float array of indices n to the terms at them (an
    array, or a scalar that broadcasts); see :func:`sum_alternating_info`.
    """
    value, _ = sum_alternating_info(term, cfg)
    return value

