"""Reference computations made apart from fraczeta.

Nothing here imports fraczeta.  Each function computes a quantity the
program also computes, by another route: mpmath for zeta values and
zeros, a power-series reciprocal for the relaxation scheme, closed forms
for the varpi moduli and the Cole-Cole response, exact prime counts.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"

# pi(x) for the cutoffs the workloads sieve to.
PRIME_COUNTS = {10**4: 1229, 10**5: 9592, 10**6: 78498, 10**7: 664579}

# Every window that any workload scans for zeros, the CLI ones included;
# data/zetazeros.json holds the ordinates of the zeros inside them.
ZERO_WINDOWS = ((10.0, 60.0), (100.0, 130.0), (380.0, 400.0))


# ------------------------------- zeta ---------------------------------------


@lru_cache(maxsize=None)
def zetazero_table() -> dict[int, float]:
    """Ordinates of mpmath.zetazero(k), stored by make_zetazeros.py."""
    raw = json.loads((DATA / "zetazeros.json").read_text())["ordinates"]
    return {int(k): float(v) for k, v in raw.items()}


@lru_cache(maxsize=None)
def zero_indices(t_lo: float, t_hi: float) -> range:
    """Indices k of the zeros with t_lo < Im rho_k <= t_hi, from mpmath.nzeros."""
    import mpmath

    return range(int(mpmath.nzeros(t_lo)) + 1, int(mpmath.nzeros(t_hi)) + 1)


def zeta_critical(t: float) -> complex:
    import mpmath

    return complex(mpmath.zeta(mpmath.mpc(0.5, t)))


def altzeta(s: complex) -> complex:
    import mpmath

    return complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))


# ---------------------------- relaxation ------------------------------------


def _fft_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = len(x) + len(y) - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[:n]


def binomial_series(alpha: float, n: int) -> np.ndarray:
    """First n coefficients of (1 - z)^alpha."""
    k = np.arange(1.0, n)
    return np.concatenate(([1.0], np.cumprod((k - 1.0 - alpha) / k)))


def series_reciprocal(a: np.ndarray) -> np.ndarray:
    """Power series 1/a(z) to len(a) terms, by Newton iteration g <- g(2 - a g)."""
    n = len(a)
    g = np.array([1.0 / a[0]])
    m = 1
    while m < n:
        m = min(2 * m, n)
        e = -_fft_mul(a[:m], g)[:m]
        e[0] += 2.0
        g = _fft_mul(g, e)[:m]
    return g


def relaxation_impulse(d: float, vc: float, h: float, n: int) -> np.ndarray:
    """Impulse response of the implicit GL scheme: the series 1/(1 + c (1-z)^alpha).

    The scheme sum_k a_k U_{m-k} = z0 I_m has a_0 = 1 + c and
    a_k = c w_k, i.e. a(z) = 1 + c (1 - z)^alpha with c = (vc h)^-alpha.
    """
    alpha = 1.0 / d
    a = (vc * h) ** (-alpha) * binomial_series(alpha, n)
    a[0] += 1.0
    return series_reciprocal(a)


def relaxation_exact(d: float, vc: float, z0: float, h: float,
                     drive: np.ndarray) -> np.ndarray:
    """Exact discrete solution z0 (g * I) of the scheme for any drive."""
    g = relaxation_impulse(d, vc, h, len(drive))
    if np.all(drive == 1.0):
        return z0 * np.cumsum(g)
    return z0 * _fft_mul(g, drive)[: len(drive)]


def scheme_symbol(d: float, vc: float, z0: float, h: float, v: float) -> complex:
    """Steady-state gain of the scheme at angular frequency v."""
    alpha = 1.0 / d
    c = (vc * h) ** (-alpha)
    return z0 / (1.0 + c * (1.0 - complex(math.cos(v * h), -math.sin(v * h))) ** alpha)


def cole_cole(d: float, vc: float, z0: float, v: float) -> complex:
    """Closed-form Z(v) = z0 / (1 + (iv/vc)^(1/d))."""
    if v == 0:
        return complex(z0)
    return z0 / (1.0 + complex(0.0, v / vc) ** (1.0 / d))


# ------------------------------- primes -------------------------------------


def varpi_moduli(thetas: np.ndarray, primes: np.ndarray, convention: str) -> np.ndarray:
    """|varpi(theta)| from real closed forms of the factor moduli.

    With x = theta ln p the as_printed factor is 1 + 2i sin(x)/sqrt(p),
    of squared modulus 1 + 4 sin(x)^2 / p; the both_minus factor is the
    real number 1 - 2 cos(x)/sqrt(p).  Sums of logs, chunked over theta.
    """
    log_p = np.log(primes.astype(float))
    inv_sqrt_p = 1.0 / np.sqrt(primes.astype(float))
    out = np.empty(len(thetas))
    for start in range(0, len(thetas), 32):
        x = np.outer(thetas[start:start + 32], log_p)
        if convention == "as_printed":
            logs = 0.5 * np.log1p(4.0 * np.sin(x) ** 2 * inv_sqrt_p ** 2)
        else:
            logs = np.log(np.abs(1.0 - 2.0 * np.cos(x) * inv_sqrt_p))
        out[start:start + 32] = np.exp(logs.sum(axis=1))
    return out


def varpi_mp(theta: float, primes: np.ndarray, convention: str) -> complex:
    """varpi(theta) as mpmath.fprod of its factors, at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        s_plus = mpmath.mpc(0.5, theta)
        s_minus = mpmath.mpc(0.5, -theta)
        sign = 1 if convention == "as_printed" else -1
        factors = [1 - mpmath.mpf(int(p)) ** (-s_plus)
                   + sign * mpmath.mpf(int(p)) ** (-s_minus) for p in primes]
        return complex(mpmath.fprod(factors))


def theta_branch(p: int, k: int, sign: int) -> float:
    return (sign * math.pi / 3.0 + 2.0 * math.pi * k) / (2.0 * math.log(p))


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes p with lo < p <= hi, from sympy."""
    import sympy

    return list(sympy.primerange(lo + 1, hi + 1))


def is_prime(n: int) -> bool:
    import sympy

    return bool(sympy.isprime(int(n)))


def rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)
