"""Dirichlet eta, Riemann zeta in the critical strip, and zero finding.

eta(s) = Sum (-1)^(n+1) n^(-s) converges for Re(s) > 0 and is summed with
the accelerated engine from :mod:`fraczeta.core`; zeta follows through
the factor identity eta = (1 - 2^(1-s)) zeta, which extends zeta into the
strip 0 < Re(s) < 1.  (The factor is applied in this standard
orientation; dividing by it is refused near its removable zeros at
s = 1 + 2 pi i k / ln 2.)

On the critical line the rotation Z(t) = Re[e^{i vartheta(t)} zeta(1/2+it)]
with vartheta(t) = Im log Gamma(1/4 + it/2) - (t/2) ln pi is real up to
rounding, so zeros of zeta become sign changes of a real function and can
be bracketed on a grid and bisected.  Absolutely convergent cross-checks
(direct Dirichlet sums, the Euler product, the Mobius inverse series) are
provided for Re(s) > 1.

Everything here is deterministic: grids are integer-indexed lattices and
bulk reductions use a fixed association order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LN_2,
    LN_PI,
    ToleranceConfig,
    log_gamma,
    require_finite,
    sum_alternating_info,
)
from .errors import ConvergenceError, DomainError, PoleError, SingularFactorError
from .primes import PrimeSet, sieve
from .transfer import conjugate_exponent

ZERO_BRACKET_WIDTH = 1e-8
SINGULAR_FACTOR_FLOOR = 1e-8


@dataclass(frozen=True)
class SPoint:
    """Critical-strip point in (sigma, theta, sign) coordinates.

    Encodes s = sigma (1 + (1/sigma) i theta sign), which expands to the
    plain sigma + sign*i*theta.
    """

    sigma: float
    theta: float
    sign: int

    def __post_init__(self) -> None:
        if not (0 < self.sigma <= 1):
            raise DomainError("sigma must lie in (0, 1]")
        if self.theta < 0:
            raise DomainError("theta must be >= 0")
        if self.sign not in (-1, 1):
            raise DomainError("sign must be +1 or -1")

    def as_complex(self) -> complex:
        return complex(self.sigma, self.sign * self.theta)


@dataclass(frozen=True)
class ChartParams:
    """Order parameter d > 1 and ordinate theta for the paired points
    s1 = 1/d + i theta and s2 = 1/D + i theta (D the conjugate exponent)."""

    d: float
    theta: float

    def __post_init__(self) -> None:
        if not self.d > 1:
            raise DomainError("d must be > 1")

    def s1(self) -> complex:
        return complex(1.0 / self.d, self.theta)

    def s2(self) -> complex:
        return complex(1.0 / conjugate_exponent(self.d), self.theta)


@dataclass(frozen=True)
class ChartPartials:
    """The four partial sums Sum_{n<=N} n^{+-s1}, n^{+-s2} at explicit N.

    The positive-exponent columns diverge as N grows and are only
    meaningful as finite truncations, which is why N travels with them.
    """

    inv_xi_h: complex
    lambda_h: complex
    inv_xi_v: complex
    lambda_v: complex
    terms: int


@dataclass(frozen=True)
class ZeroBracket:
    """A refined critical-line zero: grid bracket, refined ordinate, and
    the residual |zeta(1/2 + i t_refined)|."""

    t_lo: float
    t_hi: float
    t_refined: float
    residual: float

    def __post_init__(self) -> None:
        if not (self.t_lo < self.t_refined < self.t_hi):
            raise DomainError("t_refined must lie strictly inside the bracket")
        if not self.residual < 1e-6:
            raise DomainError("residual too large for a refined zero")


def mobius(n: int) -> int:
    """Mobius mu(n) by trial factorisation: mu(1) = 1, (-1)^k for a
    product of k distinct primes, 0 when a square divides n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if n == 1:
        return 1
    remaining = n
    factors = 0
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            remaining //= p
            if remaining % p == 0:
                return 0
            factors += 1
        p += 1 if p == 2 else 2
    if remaining > 1:
        factors += 1
    return -1 if factors % 2 else 1


def _eta_term(s: complex):
    """The eta series term n^(-s) on a float array of indices n."""
    return lambda n: np.exp(-s * np.log(n))


def eta_info(
    s: complex, cfg: ToleranceConfig | None = None
) -> tuple[complex, int]:
    """eta(s) plus the number of series terms the acceleration used."""
    s = complex(s)
    if not s.real > 0:
        raise DomainError("eta requires Re(s) > 0")
    return sum_alternating_info(_eta_term(s), cfg)


def eta(s: complex, cfg: ToleranceConfig | None = None) -> complex:
    """Dirichlet eta(s) = Sum (-1)^(n+1) n^(-s), Re(s) > 0."""
    value, _ = eta_info(s, cfg)
    return value


def eta_factor(s: complex) -> complex:
    """The conversion factor 1 - 2^(1-s) linking eta and zeta."""
    return 1.0 - cmath.exp((1.0 - complex(s)) * LN_2)


def zeta_from_eta_info(
    s: complex, cfg: ToleranceConfig | None = None
) -> tuple[complex, int]:
    """zeta(s) through the eta series, plus the terms the sum used.

    Raises :class:`PoleError` exactly at s = 1 and
    :class:`SingularFactorError` when the factor is numerically zero at
    one of its removable singularities on Re(s) = 1.
    """
    s = complex(s)
    if s == 1:
        raise PoleError("zeta has its pole at s = 1")
    factor = eta_factor(s)
    if abs(factor) <= SINGULAR_FACTOR_FLOOR:
        raise SingularFactorError(
            f"conversion factor |1 - 2^(1-s)| = {abs(factor):.3g} at s = {s}"
        )
    value, used = eta_info(s, cfg)
    return require_finite(value / factor), used


def zeta_from_eta(s: complex, cfg: ToleranceConfig | None = None) -> complex:
    """zeta(s) = eta(s) / (1 - 2^(1-s)) in the strip Re(s) > 0."""
    value, _ = zeta_from_eta_info(s, cfg)
    return value


def zeta_direct(s: complex, terms: int) -> complex:
    """Plain partial sum Sum_{n<=terms} n^(-s) for Re(s) > 1.

    Verification oracle: no acceleration, fixed pairwise reduction order.
    """
    s = complex(s)
    if not s.real > 1:
        raise DomainError("zeta_direct requires Re(s) > 1")
    if terms < 1:
        raise DomainError("terms must be >= 1")
    n = np.arange(1, terms + 1, dtype=float)
    return require_finite(complex(np.sum(np.exp(-s * np.log(n)))))


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as an int8 table (mu(0) stored as 0)."""
    if limit < 1:
        raise DomainError("limit must be >= 1")
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in sieve(limit).primes:
        mu[p::p] *= -1
        square = p * p
        if square <= limit:
            mu[square::square] = 0
    return mu


def mobius_inverse_zeta(s: complex, terms: int) -> complex:
    """Partial sum of 1/zeta(s) = Sum mu(n) n^(-s), Re(s) > 1.

    Uses a sieved mu table for the bulk sum; per-value trial division
    would dominate the runtime.
    """
    s = complex(s)
    if not s.real > 1:
        raise DomainError("mobius_inverse_zeta requires Re(s) > 1")
    if terms < 1:
        raise DomainError("terms must be >= 1")
    mu = mobius_sieve(terms)[1:].astype(float)
    n = np.arange(1, terms + 1, dtype=float)
    return require_finite(complex(np.sum(mu * np.exp(-s * np.log(n)))))


def euler_product(s: complex, primes: PrimeSet) -> complex:
    """Truncated Euler product prod_p (1 - p^(-s))^(-1), Re(s) > 1."""
    s = complex(s)
    if not s.real > 1:
        raise DomainError("euler_product requires Re(s) > 1")
    if len(primes) == 0:
        raise DomainError("primes must be non-empty")
    p = np.asarray(primes.primes, dtype=float)
    factors = 1.0 / (1.0 - np.exp(-s * np.log(p)))
    return require_finite(complex(np.cumprod(factors)[-1]))


def s_point(sigma: float, theta: float, sign: int) -> complex:
    """The strip point sigma + sign*i*theta with sigma in (0, 1]."""
    return SPoint(sigma=sigma, theta=theta, sign=sign).as_complex()


def _power_sums(s: complex, terms: int) -> tuple[complex, complex]:
    """(Sum n^-s, Sum n^+s) over n = 1..terms."""
    n = np.arange(1, terms + 1, dtype=float)
    log_n = np.log(n)
    return (
        complex(np.sum(np.exp(-s * log_n))),
        complex(np.sum(np.exp(s * log_n))),
    )


def chart1_partials(params: ChartParams, terms: int) -> ChartPartials:
    """The four distance sums at truncation N = terms.

    Each summand is one theta-parametrised distance: n^(-s1) and n^(+s1)
    horizontally, n^(-s2) and n^(+s2) vertically.
    """
    if terms < 1:
        raise DomainError("terms must be >= 1")
    inv_h, lam_h = _power_sums(params.s1(), terms)
    inv_v, lam_v = _power_sums(params.s2(), terms)
    return ChartPartials(
        inv_xi_h=inv_h,
        lambda_h=lam_h,
        inv_xi_v=inv_v,
        lambda_v=lam_v,
        terms=terms,
    )


def assertion_one_residual(
    d: float, theta: float, cfg: ToleranceConfig | None = None
) -> float:
    """|eta(s1) - eta(s2)| for s1 = 1/d + i theta, s2 = 1/D + i theta.

    Identically zero at d = 2 where the two points coincide; bounded away
    from zero elsewhere (the literal content of the self-duality claim).
    """
    params = ChartParams(d=d, theta=theta)
    return abs(eta(params.s1(), cfg) - eta(params.s2(), cfg))


def riemann_siegel_theta(t: float) -> float:
    """vartheta(t) = Im log Gamma(1/4 + it/2) - (t/2) ln pi."""
    return log_gamma(complex(0.25, 0.5 * t)).imag - 0.5 * t * LN_PI


def hardy_rotation(t: float, cfg: ToleranceConfig | None = None) -> float:
    """Z(t) = Re[e^{i vartheta(t)} zeta(1/2 + it)], real up to rounding.

    The imaginary part of the rotated product is asserted to be below
    1e-6 (1 + |Z|); a violation means the rotation or the eta sum lost
    precision and is reported as a numerical failure.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    rotated = cmath.exp(1j * riemann_siegel_theta(t)) * zeta_from_eta(
        complex(0.5, t), cfg
    )
    if abs(rotated.imag) > 1e-6 * (1.0 + abs(rotated.real)):
        raise ConvergenceError(
            f"rotated zeta not real at t={t:g}: imag={rotated.imag:.3g}"
        )
    return rotated.real


def _bisect_sign_change(f, a: float, b: float, f_a: float) -> float:
    while b - a > ZERO_BRACKET_WIDTH:
        mid = 0.5 * (a + b)
        f_mid = f(mid)
        if (f_mid > 0) == (f_a > 0):
            a, f_a = mid, f_mid
        else:
            b = mid
    return 0.5 * (a + b)


def find_zeros(
    t_lo: float,
    t_hi: float,
    grid_step: float = 0.05,
    cfg: ToleranceConfig | None = None,
) -> list[ZeroBracket]:
    """Critical-line zeros in [t_lo, t_hi] via sign changes of Z(t).

    The scan grid is the integer lattice {k * grid_step} clipped to the
    range, so splitting a range at a lattice point reproduces the exact
    grid of the single-range scan and the refined ordinates are bitwise
    identical.  Each sign-change bracket is bisected to width 1e-8.
    """
    if not (0 <= t_lo < t_hi):
        raise DomainError("need 0 <= t_lo < t_hi")
    if not (0 < grid_step <= 0.25):
        raise DomainError("grid_step must lie in (0, 0.25]")
    k_lo = math.ceil(t_lo / grid_step - 1e-9)
    k_hi = math.floor(t_hi / grid_step + 1e-9)
    if k_hi <= k_lo:
        return []
    ts = [k * grid_step for k in range(k_lo, k_hi + 1)]
    z_of = lambda t: hardy_rotation(t, cfg)
    zs = [z_of(t) for t in ts]
    zeros = []
    for (t_a, t_b, z_a, z_b) in zip(ts, ts[1:], zs, zs[1:]):
        if z_a == 0.0 or (z_a > 0) == (z_b > 0):
            continue
        t_ref = _bisect_sign_change(z_of, t_a, t_b, z_a)
        residual = abs(zeta_from_eta(complex(0.5, t_ref), cfg))
        zeros.append(
            ZeroBracket(t_lo=t_a, t_hi=t_b, t_refined=t_ref, residual=residual)
        )
    return zeros
