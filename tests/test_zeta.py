import cmath
import dataclasses
import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraczeta.zeta
from fraczeta.core import LN_2, LN_PI, log_gamma
from fraczeta.errors import DomainError, LimitError, PoleError, SingularFactorError
from fraczeta.primes import SIEVE_LIMIT_CAP, sieve
from fraczeta.zeta import (
    _SUM_BLOCK,
    ChartParams,
    assertion_one_residual,
    chart1_partials,
    eta,
    eta_factor,
    euler_product,
    find_zeros,
    hardy_rotation,
    mobius_inverse_zeta,
    mobius_sieve,
    riemann_siegel_theta,
    s_point,
    zeta_direct,
    zeta_from_eta,
)

PI2_OVER_6 = math.pi**2 / 6.0


def dirichlet_tail(s: complex, n: int) -> complex:
    """Euler-Maclaurin estimate of sum_{k>n} k^-s, error O(|s|^3 n^-Re(s)-3)."""
    s = complex(s)
    return n ** (1 - s) / (s - 1) - 0.5 * n ** (-s) + s / 12.0 * n ** (-s - 1)


def eta_partial_bracket(s: float, n_terms: int) -> tuple[float, float]:
    """Consecutive partial sums of the alternating series (they bracket
    the limit for real s > 0)."""
    n = np.arange(1, n_terms + 2, dtype=float)
    running = np.cumsum(np.where(n % 2 == 1, 1.0, -1.0) * n ** (-s))
    a, b = float(running[-2]), float(running[-1])
    return min(a, b), max(a, b)


def golden_section_min(f, a: float, b: float, tol: float = 1e-7) -> float:
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def eta_modulus_minimum_oracle(center: float, halfwidth: float = 0.05) -> float:
    """Dense |eta(1/2+it)| scan at step 1e-3, refined by golden section.

    Independent route to a zero ordinate: no Hardy rotation, no sign
    changes, just the modulus landscape of the eta series.
    """
    grid = np.arange(center - halfwidth, center + halfwidth + 1e-12, 1e-3)
    f = lambda t: abs(eta(complex(0.5, float(t))))
    values = [f(t) for t in grid]
    k = int(np.argmin(values))
    lo = grid[max(0, k - 2)]
    hi = grid[min(len(grid) - 1, k + 2)]
    return golden_section_min(f, float(lo), float(hi))


# -------------------------------- mobius ------------------------------------


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


def _mobius_sieve_reference(limit: int) -> np.ndarray:
    """mu(0..limit) with one slice pass per prime up to limit."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in sieve(limit).primes:
        mu[p::p] *= -1
        square = p * p
        if square <= limit:
            mu[square::square] = 0
    return mu


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(2) == -1
    assert mobius(30) == -1
    with pytest.raises(DomainError):
        mobius(0)


def test_mobius_large_arguments():
    p = 999_983  # prime
    assert mobius(p * p) == 0
    assert mobius(2 * 3 * p) == -1
    assert mobius(2 * p) == 1


def test_mobius_agrees_with_sieve_table():
    table = mobius_sieve(5000)
    for n in range(1, 5001):
        assert mobius(n) == int(table[n])


# the blocks of the direct and Mobius sums start at n = 1 + k * _SUM_BLOCK
_SUM_EDGES = [_SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, _SUM_BLOCK + 2]


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 24, 25, 26, 48, 49, 50, *_SUM_EDGES, 1_000_333])
def test_mobius_sieve_matches_reference(limit):
    got = mobius_sieve(limit)
    assert got.dtype == np.int8
    assert np.array_equal(got, _mobius_sieve_reference(limit))


def test_mobius_sieve_validation():
    with pytest.raises(DomainError):
        mobius_sieve(0)


def test_mobius_sieve_matches_trial_division_across_block_edge():
    limit = _SUM_EDGES[-1]
    table = mobius_sieve(limit)
    near_edge = range(_SUM_BLOCK - 30, limit + 1)
    assert [int(table[n]) for n in near_edge] == [mobius(n) for n in near_edge]


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(1, 5000), block=st.integers(4, 2000))
@example(limit=121, block=121)
@example(limit=122, block=121)
def test_mobius_sieve_matches_reference_for_any_block_size(limit, block):
    with mock.patch.object(fraczeta.zeta, "_SUM_BLOCK", block):
        got = mobius_sieve(limit)
    assert got.tobytes() == _mobius_sieve_reference(limit).tobytes()


@pytest.mark.parametrize("k,mertens", [(4, -23), (5, -48), (6, 212), (7, 1037)])
def test_mertens_at_powers_of_ten(k, mertens):
    # M(10^k), OEIS A084237
    assert np.cumsum(mobius_sieve(10**k))[-1] == mertens


def test_oversized_sums_raise_limit_error_before_allocating(monkeypatch):
    # without numpy, a call that got past the cap fails instead of allocating
    monkeypatch.setattr(fraczeta.zeta, "np", None)
    over = SIEVE_LIMIT_CAP + 1
    with pytest.raises(LimitError):
        mobius_sieve(over)
    with pytest.raises(LimitError):
        mobius_inverse_zeta(2.0, over)
    with pytest.raises(LimitError):
        zeta_direct(2.0, over)


def test_mobius_divisor_sum_identity():
    limit = 2000
    mu = np.array([0] + [mobius(n) for n in range(1, limit + 1)], dtype=np.int64)
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        acc[d::d] += mu[d]
    assert acc[1] == 1
    assert not np.any(acc[2:])


# --------------------------------- eta ---------------------------------------


def test_eta_at_one_is_ln2():
    value = eta(1.0)
    assert abs(value - math.log(2.0)) < 1e-12
    lo, hi = eta_partial_bracket(1.0, 100_000)
    assert lo <= value.real <= hi


def test_eta_at_two():
    value = eta(2.0)
    assert abs(value - math.pi**2 / 12.0) < 1e-12
    lo, hi = eta_partial_bracket(2.0, 100_000)
    assert lo <= value.real <= hi


def test_eta_vanishes_at_first_zero():
    s = complex(0.5, 14.134725)
    assert abs(eta(s)) < 1e-4
    # dense-evaluation oracle: a genuine dip of the modulus sits nearby
    t_min = eta_modulus_minimum_oracle(14.134725, halfwidth=0.02)
    assert abs(eta(complex(0.5, t_min))) <= abs(eta(s))


_ORACLE_GRID = np.linspace(0.0, 405.0, 40)


def _close(value: complex, ref, tol: float = 1e-9) -> bool:
    ref = complex(ref)
    return abs(value - ref) <= tol * max(1.0, abs(ref))


@pytest.mark.parametrize("t", _ORACLE_GRID)
def test_eta_and_zeta_on_critical_line_against_mpmath(t):
    s = complex(0.5, t)
    assert _close(eta(s), mpmath.altzeta(mpmath.mpc(0.5, t)))
    assert _close(zeta_from_eta(s), mpmath.zeta(mpmath.mpc(0.5, t)))


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0])
def test_eta_and_zeta_on_real_axis_against_mpmath(sigma):
    assert _close(eta(sigma), mpmath.altzeta(sigma))
    if sigma != 1.0:  # zeta's pole; eta(1) = ln 2 is finite
        assert _close(zeta_from_eta(sigma), mpmath.zeta(sigma))


def test_eta_rejects_left_half_plane():
    for s in (0.0, -1.0, complex(-0.2, 5.0)):
        with pytest.raises(DomainError):
            eta(s)


# ------------------------------ zeta_from_eta --------------------------------


def test_zeta_two_against_direct_oracle():
    direct = zeta_direct(2.0, 1_000_000) + dirichlet_tail(2.0, 1_000_000)
    value = zeta_from_eta(2.0)
    assert abs(value - direct) < 1e-8
    assert abs(value - PI2_OVER_6) < 1e-8


def test_zeta_at_half():
    value = zeta_from_eta(0.5)
    assert abs(value - (-1.46035451)) < 1e-7
    # bracket oracle through the raw alternating series
    lo, hi = eta_partial_bracket(0.5, 1_000_000)
    eta_value = value * eta_factor(0.5)
    assert lo <= eta_value.real <= hi


def test_zeta_limit_toward_zero():
    assert abs(zeta_from_eta(1e-9) - (-0.5)) < 1e-6


def test_zeta_pole_and_singular_factors():
    with pytest.raises(PoleError):
        zeta_from_eta(1.0)
    with pytest.raises(SingularFactorError):
        zeta_from_eta(complex(1.0, 2.0 * math.pi / math.log(2.0)))
    with pytest.raises(DomainError):
        zeta_from_eta(complex(-0.5, 3.0))


def test_zeta_conjugate_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(50):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-30.0, 30.0))
        a = zeta_from_eta(s.conjugate())
        b = zeta_from_eta(s).conjugate()
        assert abs(a - b) < 1e-10 * max(1.0, abs(b))


def _log_sin(z: complex) -> complex:
    """A logarithm of sin z, from the larger of its two exponentials, so that
    it neither overflows nor cancels for large |Im z|."""
    if z.imag >= 0:
        return -1j * z + cmath.log((1 - cmath.exp(2j * z)) / -2j)
    return 1j * z + cmath.log((1 - cmath.exp(-2j * z)) / 2j)


def chi(s: complex) -> complex:
    """chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s), with zeta(s) = chi(s) zeta(1-s).

    Taken as one exponential of a sum of logarithms: at |t| = 400 the sine
    and the Gamma factor are each near e^(+-628)."""
    return cmath.exp(s * LN_2 + (s - 1) * LN_PI + _log_sin(math.pi * s / 2) + log_gamma(1 - s))


# the eta engine's degree cap: t ~ 401 at sigma = 0.05 or 0.95, ~410 at 1/2
_STRIP = st.builds(complex, st.floats(0.05, 0.95), st.floats(-400.0, 400.0))
# worst residual measured on 1 500 seeded strip points: 8.4e-13
SYMMETRY_TOL = 1e-11


@settings(max_examples=100, deadline=None)
@given(s=_STRIP)
@example(s=complex(0.5, 14.134725141734694))
@example(s=complex(0.05, 400.0))
@example(s=complex(0.95, -400.0))
def test_functional_equation_across_the_strip(s):
    value = zeta_from_eta(s)
    assert abs(value - chi(s) * zeta_from_eta(1 - s)) <= SYMMETRY_TOL * max(1.0, abs(value))


@settings(max_examples=100, deadline=None)
@given(s=_STRIP)
def test_conjugate_symmetry_across_the_strip(s):
    value = zeta_from_eta(s)
    assert abs(zeta_from_eta(s.conjugate()) - value.conjugate()) <= SYMMETRY_TOL * max(1.0, abs(value))


def test_chi_on_the_critical_line_is_a_rotation():
    # chi(1/2 + it) = e^(-2i vartheta(t)): checks chi against riemann_siegel_theta
    for t in (1.0, 14.0, 100.0, 400.0):
        assert abs(chi(complex(0.5, t)) - cmath.exp(-2j * riemann_siegel_theta(t))) <= 1e-11


def test_factor_identity_against_direct_sums():
    # eta(s) = (1 - 2^(1-s)) zeta(s); the direct sum needs its tail
    # estimate at s = 1.5 where raw truncation alone is ~6e-4.
    for s in (1.5, 2.0, 3.0, complex(2.0, 10.0)):
        zeta_ref = zeta_direct(s, 1_000_000) + dirichlet_tail(s, 1_000_000)
        assert abs(eta(s) - eta_factor(s) * zeta_ref) < 1e-5


# --------------------------- absolutely convergent ---------------------------


def test_zeta_direct_examples():
    assert abs(zeta_direct(2.0, 1_000_000) - 1.64493307) < 1e-7
    assert abs(zeta_direct(4.0, 10_000) - math.pi**4 / 90.0) < 1e-9
    assert zeta_direct(2.0, 1) == 1.0 + 0j
    with pytest.raises(DomainError):
        zeta_direct(1.0, 100)


def test_mobius_inverse_examples():
    assert abs(mobius_inverse_zeta(2.0, 1_000_000) - 6.0 / math.pi**2) < 1e-4
    assert abs(mobius_inverse_zeta(4.0, 10_000) - 90.0 / math.pi**4) < 1e-6
    assert mobius_inverse_zeta(17.0, 1) == 1.0 + 0j
    with pytest.raises(DomainError):
        mobius_inverse_zeta(0.5, 100)


def test_mobius_inverse_reciprocal_identity():
    for s in (2.0, 3.0):
        product = mobius_inverse_zeta(s, 1_000_000) * zeta_from_eta(s)
        assert abs(product - 1.0) < 1e-3


def _zeta_direct_reference(s: complex, terms: int) -> complex:
    """The partial sum over one full array: the unblocked oracle."""
    n = np.arange(1, terms + 1, dtype=float)
    return complex(np.sum(np.exp(-s * np.log(n))))


def _mobius_inverse_zeta_reference(s: complex, mu: np.ndarray) -> complex:
    """Sum mu(n) n^(-s) over n = 1..len(mu)-1 as one full array: the unblocked oracle."""
    n = np.arange(1, mu.size, dtype=float)
    return complex(np.sum(mu[1:] * np.exp(-s * np.log(n))))


# blocking and the squarefree-only Mobius sum move the last bits: 6.7e-16 measured
BLOCKED_SUM_TOL = 4e-15


@pytest.mark.parametrize("s", [2.0, complex(1.5, 20.0), complex(3.0, -7.0)])
def test_blocked_sums_match_unblocked(s):
    terms_cases = [1, 2, *_SUM_EDGES, 3 * _SUM_BLOCK + 5]
    mu = _mobius_sieve_reference(max(terms_cases))
    for terms in terms_cases:
        assert abs(zeta_direct(s, terms) - _zeta_direct_reference(s, terms)) <= BLOCKED_SUM_TOL
        want = _mobius_inverse_zeta_reference(s, mu[: terms + 1])
        assert abs(mobius_inverse_zeta(s, terms) - want) <= BLOCKED_SUM_TOL


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_blocked_sums_any_block_size(block):
    s = complex(2.0, 3.0)
    mu = _mobius_sieve_reference(5000)
    with mock.patch.object(fraczeta.zeta, "_SUM_BLOCK", block):
        assert abs(zeta_direct(s, 5000) - _zeta_direct_reference(s, 5000)) <= BLOCKED_SUM_TOL
        assert abs(mobius_inverse_zeta(s, 5000) - _mobius_inverse_zeta_reference(s, mu)) <= BLOCKED_SUM_TOL


def _peak_bytes(f, *args) -> int:
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("f", [zeta_direct, mobius_inverse_zeta])
def test_blocked_sums_memory_does_not_grow_with_terms(f):
    # the unblocked sums peaked at 40 and 48 MB at 1e6 terms, and 4x that at 4e6
    peak = _peak_bytes(f, 2.0, 10**6)
    assert peak <= 16e6
    assert _peak_bytes(f, 2.0, 4 * 10**6) <= 1.1 * peak


def test_euler_product_examples():
    assert abs(euler_product(2.0, sieve(2)) - 4.0 / 3.0) < 1e-15
    assert abs(euler_product(2.0, sieve(100_000)) - zeta_from_eta(2.0)) < 1e-5
    direct3 = zeta_direct(3.0, 1_000_000) + dirichlet_tail(3.0, 1_000_000)
    assert abs(euler_product(3.0, sieve(10_000)) - direct3) < 1e-8
    with pytest.raises(DomainError):
        euler_product(1.0, sieve(100))


def test_euler_product_bitwise_equals_tuple_formula():
    for limit in (2, 1000, 100_000):
        prime_set = sieve(limit)
        p = np.asarray(prime_set.primes, dtype=float)
        for s in (2.0, 1.5 + 14.0j, 3.0 - 7.5j):
            want = complex(np.cumprod(1.0 / (1.0 - np.exp(-s * np.log(p))))[-1])
            got = euler_product(s, prime_set)
            assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_euler_dirichlet_agreement():
    primes = sieve(100_000)
    for s in (2.0, 3.0, 4.0):
        assert abs(euler_product(s, primes) - zeta_direct(s, 1_000_000)) < 1e-4


# ----------------------------- strip machinery --------------------------------


def test_s_point():
    assert s_point(0.5, 0.0, 1) == 0.5 + 0j
    assert s_point(0.5, 7.0, 1) == complex(0.5, 7.0)
    assert abs(s_point(1 / 3, 2.0, -1) - complex(1 / 3, -2.0)) < 1e-15
    for sigma in (0.0, 1.2, -0.3):
        with pytest.raises(DomainError):
            s_point(sigma, 1.0, 1)


def test_chart1_partials_first_term():
    parts = chart1_partials(ChartParams(d=3.0, theta=2.0), 1)
    assert parts.inv_xi_h == 1.0 + 0j
    assert parts.lambda_h == 1.0 + 0j
    assert parts.inv_xi_v == 1.0 + 0j
    assert parts.lambda_v == 1.0 + 0j
    assert parts.terms == 1


def test_chart1_partials_two_terms_d2():
    parts = chart1_partials(ChartParams(d=2.0, theta=0.0), 2)
    assert abs(parts.inv_xi_h - (1.0 + 2.0 ** (-0.5))) < 1e-15
    assert abs(parts.lambda_h - (1.0 + 2.0**0.5)) < 1e-15
    assert abs(parts.inv_xi_h - 1.70710678) < 1e-8
    assert abs(parts.lambda_h - 2.41421356) < 1e-8


def test_chart1_lambda_column_diverges():
    small = chart1_partials(ChartParams(d=2.0, theta=0.0), 10)
    large = chart1_partials(ChartParams(d=2.0, theta=0.0), 100)
    assert abs(large.lambda_h) > abs(small.lambda_h)


def test_chart1_partials_cumulative_columns():
    params = ChartParams(d=3.0, theta=2.0)
    parts = chart1_partials(params, 50)
    cum = parts.cumulative
    assert cum.shape == (4, 50) and cum.dtype == complex
    assert not cum.flags.writeable
    assert cum[:, -1].tolist() == [parts.inv_xi_h, parts.lambda_h, parts.inv_xi_v, parts.lambda_v]
    s1, s2 = params.s1(), params.s2()
    for row, exponent in zip(cum, (-s1, s1, -s2, s2)):
        for n in (1, 7, 50):
            want = sum(cmath.exp(exponent * math.log(k)) for k in range(1, n + 1))
            assert abs(row[n - 1] - want) < 1e-13 * max(1.0, abs(want))
    # the array is derived data: equality, hash and repr ignore it
    assert dataclasses.replace(parts, cumulative=None) == parts
    assert hash(dataclasses.replace(parts, cumulative=None)) == hash(parts)
    assert "cumulative" not in repr(parts)


def test_chart_params_validation():
    with pytest.raises(DomainError):
        ChartParams(d=1.0, theta=0.0)


def test_assertion_residual_vanishes_only_at_d2():
    for theta in (1.0, 5.0, 10.0, 14.134725):
        assert assertion_one_residual(2.0, theta) < 1e-12
    for d in (2.5, 3.0, 4.0):
        assert assertion_one_residual(d, 5.0) > 1e-3


def test_assertion_residual_at_first_zero():
    assert assertion_one_residual(2.0, 14.134725) < 1e-12
    params = ChartParams(d=2.0, theta=14.134725)
    assert abs(eta(params.s1())) < 1e-4
    assert abs(eta(params.s2())) < 1e-4


# ------------------------------- zero finding --------------------------------


def test_hardy_rotation_at_origin():
    assert riemann_siegel_theta(0.0) == 0.0
    assert hardy_rotation(0.0) == zeta_from_eta(0.5).real
    assert abs(hardy_rotation(0.0) - (-1.46035451)) < 1e-7


def test_hardy_rotation_vanishes_at_first_zero():
    assert abs(hardy_rotation(14.134725)) < 1e-4


def test_hardy_rotation_is_real():
    for t in (5.0, 10.0, 23.7):
        rotated = cmath.exp(1j * riemann_siegel_theta(t)) * zeta_from_eta(
            complex(0.5, t)
        )
        assert abs(rotated.imag) < 1e-6


def test_no_zeros_below_fourteen():
    assert find_zeros(0.0, 5.0, 0.05) == []
    # oracle: the modulus never gets anywhere near zero down there
    mods = [abs(zeta_from_eta(complex(0.5, t))) for t in np.arange(0.0, 5.01, 0.05)]
    assert min(mods) > 0.5


def test_first_zero_bracketed_and_refined():
    zeros = find_zeros(14.0, 15.0, 0.05)
    assert len(zeros) == 1
    z = zeros[0]
    assert abs(z.t_refined - 14.134725) < 1e-4
    assert z.t_lo < z.t_refined < z.t_hi
    assert hardy_rotation(z.t_lo) * hardy_rotation(z.t_hi) < 0
    assert z.residual < 1e-6
    oracle = eta_modulus_minimum_oracle(14.13)
    assert abs(z.t_refined - oracle) < 1e-4


def test_two_zeros_in_20_26():
    zeros = find_zeros(20.0, 26.0, 0.05)
    assert [round(z.t_refined, 6) for z in zeros] == [
        pytest.approx(21.022040, abs=1e-4),
        pytest.approx(25.010858, abs=1e-4),
    ]
    for z, center in zip(zeros, (21.02, 25.01)):
        assert abs(z.t_refined - eta_modulus_minimum_oracle(center)) < 1e-4


def test_zero_finder_split_scan_is_bitwise_identical():
    whole = find_zeros(14.0, 26.0, 0.05)
    split = find_zeros(14.0, 20.0, 0.05) + find_zeros(20.0, 26.0, 0.05)
    assert [z.t_refined for z in whole] == [z.t_refined for z in split]
    assert [z.residual for z in whole] == [z.residual for z in split]


def test_find_zeros_validation():
    with pytest.raises(DomainError):
        find_zeros(5.0, 4.0, 0.05)
    with pytest.raises(DomainError):
        find_zeros(-1.0, 4.0, 0.05)
    with pytest.raises(DomainError):
        find_zeros(0.0, 4.0, 0.3)
