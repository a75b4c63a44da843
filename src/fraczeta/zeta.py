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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LN_2,
    LN_PI,
    ToleranceConfig,
    log_gamma,
    require_finite,
    sum_alternating_info,
)
from .errors import ConvergenceError, DomainError, LimitError, PoleError, SingularFactorError
from .primes import SIEVE_LIMIT_CAP, PrimeSet, sieve
from .transfer import conjugate_exponent

ZERO_BRACKET_WIDTH = 1e-8
SINGULAR_FACTOR_FLOOR = 1e-8
_SUM_BLOCK = 1 << 18  # n per block of the direct and Mobius sums


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
    ``cumulative`` is the read-only (4, N) array of every partial sum,
    rows in field order; the four scalars are its last column.
    """

    inv_xi_h: complex
    lambda_h: complex
    inv_xi_v: complex
    lambda_v: complex
    terms: int
    cumulative: np.ndarray = field(compare=False, repr=False)


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


def _require_terms(terms: int, name: str) -> None:
    if terms < 1:
        raise DomainError(f"{name} must be >= 1")
    if terms > SIEVE_LIMIT_CAP:
        raise LimitError(f"{name} {terms} exceeds {SIEVE_LIMIT_CAP}")


def zeta_direct(s: complex, terms: int) -> complex:
    """Plain partial sum Sum_{n<=terms} n^(-s) for Re(s) > 1.

    Verification oracle: no acceleration.  The terms are summed one block
    of n at a time, each block by ``np.sum``'s pairwise reduction, and the
    block sums are added in order, so memory stays O(block).
    """
    s = complex(s)
    if not s.real > 1:
        raise DomainError("zeta_direct requires Re(s) > 1")
    _require_terms(terms, "terms")
    total = 0j
    for lo in range(1, terms + 1, _SUM_BLOCK):
        x = np.log(np.arange(lo, min(lo + _SUM_BLOCK, terms + 1), dtype=float)) * -s
        total += complex(np.sum(np.exp(x, out=x)))
    return require_finite(total)


def _mobius_blocks(limit: int):
    """Yield (first n, int8 block of mu(n)) for consecutive blocks covering 1..limit.

    Per prime p <= sqrt(limit): flip the sign of every multiple of p, zero
    every multiple of p^2, and multiply p into an int32 running product of
    each n's prime factors up to sqrt(limit) (at most n, so no overflow).
    A squarefree n whose product falls short of n has exactly one more
    prime factor, above sqrt(limit), and one more flip.
    """
    base = sieve(math.isqrt(limit)).array.tolist()
    for lo in range(1, limit + 1, _SUM_BLOCK):
        hi = min(lo + _SUM_BLOCK, limit + 1)
        mu = np.ones(hi - lo, dtype=np.int8)
        product = np.ones(hi - lo, dtype=np.int32)
        for p in base:
            first = -lo % p  # offset of the block's first multiple of p
            mu[first::p] *= -1
            product[first::p] *= p
            square = p * p
            if square < hi:
                mu[-lo % square :: square] = 0
        mu[product < np.arange(lo, hi, dtype=np.int32)] *= -1
        yield lo, mu


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as an int8 table (mu(0) stored as 0); limit is capped
    as the sieve's is."""
    _require_terms(limit, "limit")
    table = np.empty(limit + 1, dtype=np.int8)
    table[0] = 0
    for lo, mu in _mobius_blocks(limit):
        table[lo : lo + mu.size] = mu
    return table


def mobius_inverse_zeta(s: complex, terms: int) -> complex:
    """Partial sum of 1/zeta(s) = Sum mu(n) n^(-s), Re(s) > 1.

    Walks the sieved mu one block at a time and sums only the squarefree
    n (per-value trial division would dominate the runtime); each block
    is reduced by ``np.sum`` and the block sums are added in order, so
    memory stays O(block).
    """
    s = complex(s)
    if not s.real > 1:
        raise DomainError("mobius_inverse_zeta requires Re(s) > 1")
    _require_terms(terms, "terms")
    total = 0j
    for lo, mu in _mobius_blocks(terms):
        squarefree = np.flatnonzero(mu)
        x = np.log((squarefree + lo).astype(float)) * -s
        np.exp(x, out=x)
        x *= mu[squarefree]
        total += complex(np.sum(x))
    return require_finite(total)


def euler_product(s: complex, primes: PrimeSet) -> complex:
    """Truncated Euler product prod_p (1 - p^(-s))^(-1), Re(s) > 1."""
    s = complex(s)
    if not s.real > 1:
        raise DomainError("euler_product requires Re(s) > 1")
    if len(primes) == 0:
        raise DomainError("primes must be non-empty")
    factors = 1.0 / (1.0 - np.exp(-s * primes.log_primes))
    return require_finite(complex(np.cumprod(factors)[-1]))


def s_point(sigma: float, theta: float, sign: int) -> complex:
    """The strip point sigma + sign*i*theta with sigma in (0, 1]."""
    return SPoint(sigma=sigma, theta=theta, sign=sign).as_complex()


def chart1_partials(params: ChartParams, terms: int) -> ChartPartials:
    """The four distance sums at truncation N = terms, and at every N'
    below it in ``cumulative``.

    Each summand is one theta-parametrised distance: n^(-s1) and n^(+s1)
    horizontally, n^(-s2) and n^(+s2) vertically.
    """
    if terms < 1:
        raise DomainError("terms must be >= 1")
    s1, s2 = params.s1(), params.s2()
    log_n = np.log(np.arange(1, terms + 1, dtype=float))
    cumulative = np.stack([np.cumsum(np.exp(e * log_n)) for e in (-s1, s1, -s2, s2)])
    cumulative.flags.writeable = False
    return ChartPartials(*cumulative[:, -1].tolist(), terms=terms, cumulative=cumulative)


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
