"""Prime generation, the fractal gauge relation and the varpi product.

The gauge relation 1/delta = (vc/p)^(1/d) ties a measurement gauge to a
covering count p; normalising its complex pair form p^(2i theta') yields
the residual condition 2 cos(2 theta' ln p) = 1 whose closed-form
solutions are theta' = (+-pi/3 + 2 pi k)/(2 ln p).  The same +-theta'
parameter drives the truncated prime product

    varpi(theta') = prod_p (1 - p^(-s+) + p^(-s-)),  s+- = (1 +- 2i theta')/2,

whose modulus is scanned on a grid for local minima.  The truncated
product is all that is computed here; nothing is claimed about its
infinite-cutoff limit, and the scan's stability is measured, not assumed
(rerunning with a doubled prime cutoff visibly moves the minima, see the
test suite).  The products read a :class:`PrimeSet`'s cached arrays and
take each factor's real closed form, one block of theta' at a time.
The segmented, wheel-filled sieve hands its int64 array straight to the
set; the public ``primes`` tuple is built on its first read, and no
library code reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import cpow_principal, require_order
from .errors import DomainError, LimitError

SIEVE_LIMIT_CAP = 100_000_000
GRID_POINT_CAP = 1_000_000  # the CLI writes 1e6 rows in about 3 s at 157-184 MiB resident
_GRID_BLOCK_CELLS = 1 << 15  # theta' x prime cells per block of varpi_grid
_SIEVE_BLOCK = 1 << 20  # odd numbers per block of the sieve: 1 MB of table

_WHEEL = (3, 5, 7, 11, 13)
# slot i stands for the odd number 2i + 1, and is True where no wheel prime
# divides it; the pattern repeats every 3*5*7*11*13 = 15015 odd numbers
_WHEEL_PATTERN = np.ones(math.prod(_WHEEL), dtype=bool)
for _q in _WHEEL:
    _WHEEL_PATTERN[_q // 2 :: _q] = False
del _q


class _TupleOnRead:
    """Dataclass field that stores the value it is given and reads as a
    tuple: a stored non-tuple is replaced, on the first read, by the tuple
    of Python ints in the owner's ``array``."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            raise AttributeError(self.name)  # no class-level default: the field is required
        value = obj.__dict__[self.name]
        if not isinstance(value, tuple):
            value = obj.__dict__[self.name] = tuple(obj.array.tolist())
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class PrimeSet:
    """All primes up to ``limit``, ascending.

    ``primes`` may be given as any sequence of integers: a tuple, a list or
    an integer array.  Construction validates it once, vectorised, into a
    read-only int64 copy, ``array``, and ln p as the read-only
    ``log_primes``; the products read only these.  Read back, ``primes`` is
    a tuple: the one given, or else the tuple of Python ints built from
    ``array`` on the first read and then kept.  ``len`` is ``array.size``.
    ``==``, ``hash`` and ``repr`` use ``limit`` and the tuple;
    ``dataclasses.replace`` re-validates.
    """

    limit: int
    primes: tuple[int, ...] = _TupleOnRead()
    array: np.ndarray = field(init=False, repr=False, compare=False)
    log_primes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        given = vars(self)["primes"]
        array = np.array(given, dtype=None if len(given) else np.int64)
        if array.dtype.kind not in "iu" or array.ndim != 1:
            raise DomainError("primes must be a flat sequence of integers")
        array = array.astype(np.int64, copy=False)
        if array.size and not 2 <= array.min() <= array.max() <= self.limit:
            raise DomainError("primes must lie in [2, limit]")
        if not np.all(array[1:] > array[:-1]):
            raise DomainError("primes must be strictly ascending")
        if not isinstance(given, tuple):
            object.__setattr__(self, "primes", array)  # drop the caller's list or array
        for name, value in (("array", array), ("log_primes", np.log(array, dtype=float))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.array.size


@dataclass(frozen=True)
class ThetaPrimeSolution:
    """One closed-form branch theta' = (sign*pi/3 + 2 pi k)/(2 ln p)."""

    p: int
    k: int
    sign: int
    theta_prime: float

    def __post_init__(self) -> None:
        expected = (self.sign * math.pi / 3.0 + 2.0 * math.pi * self.k) / (
            2.0 * math.log(self.p)
        )
        if self.theta_prime != expected:
            raise DomainError("theta_prime does not match its branch formula")
        resid, _ = hausdorff_residual(self.p, 1.0, self.theta_prime)
        if abs(resid) > 1e-12:
            raise DomainError("branch value fails the residual check")


@dataclass(frozen=True)
class VarpiConfig:
    """Prime cutoff and sign convention for the varpi product.

    ``as_printed`` keeps the mixed-sign factor 1 - p^(-s+) + p^(-s-);
    ``both_minus`` flips the last sign, the reading under which factors
    can actually vanish.  Neither is endorsed; both are computable.
    """

    prime_limit: int
    sign_convention: Literal["as_printed", "both_minus"] = "as_printed"

    def __post_init__(self) -> None:
        if self.prime_limit < 2:
            raise DomainError("prime_limit must be >= 2")
        if self.sign_convention not in ("as_printed", "both_minus"):
            raise DomainError("sign_convention must be as_printed or both_minus")


def sieve(limit: int) -> PrimeSet:
    """All primes up to ``limit`` inclusive (cap 1e8), by a segmented
    sieve of Eratosthenes over the odd numbers.

    The table starts as copies of a pattern already free of the multiples
    of 3, 5, 7, 11 and 13; the base primes from 17 to sqrt(limit), sieved
    the same way, then cross off their odd multiples one block of the
    table at a time, so the block being written stays in cache.
    """
    if limit < 1:
        raise DomainError("limit must be >= 1")
    if limit > SIEVE_LIMIT_CAP:
        raise LimitError(f"sieve limit {limit} exceeds {SIEVE_LIMIT_CAP}")
    return PrimeSet(limit=limit, primes=_sieve_array(limit) if limit >= 2 else ())


def _sieve_array(limit: int) -> np.ndarray:
    """The primes up to ``limit`` >= 2 as a fresh int64 array."""
    size = (limit + 1) // 2
    odd = np.resize(_WHEEL_PATTERN, size)  # odd[i]: is 2i + 1 prime
    odd[[q // 2 for q in _WHEEL if q <= limit]] = True
    root = math.isqrt(limit)
    if root >= 17:  # below 17^2 every odd composite has a wheel prime factor
        base = _sieve_array(root)[1 + len(_WHEEL) :]  # past 2 and the wheel
        nxt = base * base // 2  # table index of each base prime's next odd multiple, from p^2
        for lo in range(0, size, _SIEVE_BLOCK):
            hi = min(lo + _SIEVE_BLOCK, size)
            live = np.flatnonzero(nxt < hi)
            for p, j in zip(base[live].tolist(), nxt[live].tolist()):
                odd[j:hi:p] = False
            nxt[live] += (hi - nxt[live] + base[live] - 1) // base[live] * base[live]
    primes = np.flatnonzero(odd)  # odd[0] (the number 1) is never cleared: its slot holds 2
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def mandelbrot_gauge(p: float, vc: float, d: float) -> float:
    """Gauge value 1/delta = (vc/p)^(1/d); equals 1 at the trivial p = vc."""
    if not (p > 0 and vc > 0):
        raise DomainError("p and vc must be > 0")
    require_order(d)
    return (vc / p) ** (1.0 / d)


def hausdorff_residual(
    p: int, inv_delta: float, theta_prime: float
) -> tuple[float, float]:
    """Deviation of the normalised conjugate pair from (1, 0).

    Computes S = inv_delta * (p^(2i theta') + p^(-2i theta')) through the
    actual complex pair (not its real closed form) and returns
    (Re(S) - 1, Im(S)); the imaginary part vanishes to rounding because
    the pair is conjugate.
    """
    if p < 2:
        raise DomainError("p must be >= 2")
    if not inv_delta > 0:
        raise DomainError("inv_delta must be > 0")
    e = complex(0.0, 2.0 * theta_prime)
    s = inv_delta * (cpow_principal(p, e) + cpow_principal(p, -e))
    return (s.real - 1.0, s.imag)


def solve_theta_prime(p: int, branches: int) -> list[ThetaPrimeSolution]:
    """All branches theta' = (+-pi/3 + 2 pi k)/(2 ln p), k < branches.

    The k = 0 minus branch is negative and excluded; results are sorted
    ascending and each is verified against :func:`hausdorff_residual`
    (delta = 1) on construction.
    """
    if p < 2:
        raise DomainError("p must be >= 2")
    if branches < 1:
        raise DomainError("branches must be >= 1")
    log_p = math.log(p)
    out = []
    for k in range(branches):
        for sign in (-1, 1):
            if k == 0 and sign == -1:
                continue
            theta = (sign * math.pi / 3.0 + 2.0 * math.pi * k) / (2.0 * log_p)
            out.append(ThetaPrimeSolution(p=p, k=k, sign=sign, theta_prime=theta))
    out.sort(key=lambda sol: sol.theta_prime)
    return out


def _varpi_factors(theta_prime, primes: PrimeSet, cfg: VarpiConfig) -> np.ndarray:
    """Factors at a scalar theta', or one row each for a column of theta'.
    With a = p^(-s+) = p^(-1/2) e^(-i theta' ln p) and p^(-s-) = conj(a):
    1 - a + conj(a) = 1 + i sin(theta' ln p) 2/sqrt(p), real part exactly 1.0;
    1 - a - conj(a) = 1 - cos(theta' ln p) 2/sqrt(p), real."""
    x = theta_prime * primes.log_primes
    scale = 2.0 / np.sqrt(primes.array)
    if cfg.sign_convention == "both_minus":
        return 1.0 - np.cos(x) * scale
    factors = np.ones(x.shape, dtype=complex)
    factors.imag = np.sin(x) * scale
    return factors


def _guarded_product(factors: np.ndarray):
    """Left-to-right product along the last axis; rejects partial products outside 1e+-300."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        partial = np.cumprod(factors, axis=-1)
        mods = np.abs(partial)
    if (
        not np.all(np.isfinite(mods))
        or mods.max() > 1e300
        or mods.min() < 1e-300
    ):
        raise OverflowError("varpi partial product left the range [1e-300, 1e300]")
    return partial[..., -1]


def varpi(theta_prime: float, primes: PrimeSet, cfg: VarpiConfig) -> complex:
    """Truncated product prod_p (1 - p^(-s+) +- p^(-s-)) over the set.

    At theta' = 0 every as_printed factor is exactly 1 and so is the
    product; both_minus values are real (imaginary part exactly 0).
    """
    if len(primes) == 0:
        raise DomainError("primes must be non-empty")
    return complex(_guarded_product(_varpi_factors(theta_prime, primes, cfg)))


def strict_local_minima(
    thetas: np.ndarray, mods: np.ndarray
) -> list[tuple[float, float]]:
    """Grid points strictly below both neighbours, as (theta, modulus)."""
    out = []
    for i in range(1, len(mods) - 1):
        if mods[i] < mods[i - 1] and mods[i] < mods[i + 1]:
            out.append((float(thetas[i]), float(mods[i])))
    return out


def grid_size(theta_lo: float, theta_hi: float, step: float) -> int:
    """Point count of the grid theta_lo + k*step <= theta_hi, capped before allocating."""
    if not all(math.isfinite(v) for v in (theta_lo, theta_hi, step)):
        raise DomainError("theta_lo, theta_hi and step must be finite")
    if not theta_lo <= theta_hi:
        raise DomainError("theta_lo must be <= theta_hi")
    if not step > 0:
        raise DomainError("step must be > 0")
    span = (theta_hi - theta_lo) / step + 1e-9
    if not span < GRID_POINT_CAP:
        raise LimitError(f"grid of {span + 1:.6g} points exceeds {GRID_POINT_CAP}")
    return int(math.floor(span)) + 1


def varpi_grid(
    theta_lo: float,
    theta_hi: float,
    step: float,
    primes: PrimeSet,
    cfg: VarpiConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thetas, complex varpi values, moduli) on the grid theta_lo + k*step <= theta_hi.

    The grid is anchored at theta_lo and evaluated in blocks of theta';
    each value equals the single-point :func:`varpi` bitwise.
    theta_lo == theta_hi gives the single point theta_lo.
    """
    count = grid_size(theta_lo, theta_hi, step)
    if len(primes) == 0:
        raise DomainError("primes must be non-empty")
    thetas = theta_lo + step * np.arange(count)
    values = np.empty(count, dtype=complex)
    rows = max(1, _GRID_BLOCK_CELLS // len(primes))
    for start in range(0, count, rows):
        block = thetas[start : start + rows, None]
        values[start : start + rows] = _guarded_product(_varpi_factors(block, primes, cfg))
    return thetas, values, np.hypot(values.real, values.imag)  # == abs bitwise, unlike np.abs


def varpi_scan(
    theta_lo: float,
    theta_hi: float,
    step: float,
    primes: PrimeSet,
    cfg: VarpiConfig,
) -> list[tuple[float, float]]:
    """Strict local minima of |varpi| on :func:`varpi_grid`'s grid; spans
    shorter than one step have no interior points and yield an empty list."""
    if not theta_lo < theta_hi:
        raise DomainError("theta_lo must be < theta_hi")
    thetas, _, mods = varpi_grid(theta_lo, theta_hi, step, primes, cfg)
    return strict_local_minima(thetas, mods)
