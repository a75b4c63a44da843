import cmath
import math
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fraczeta.core import (
    _ACCEL_DEGREE_CAP,
    Complexish,
    ToleranceConfig,
    _accel_weights,
    cpow_principal,
    log_gamma,
    sum_alternating,
    sum_alternating_info,
)
from fraczeta.errors import ConfigError, ConvergenceError, DomainError, PoleError
from fraczeta.zeta import _eta_term


# ---------------------------- cpow_principal -------------------------------


def test_cpow_sqrt_of_i_is_principal():
    z = cpow_principal(1j, 0.5)
    assert abs(z - cmath.exp(1j * math.pi / 4)) < 1e-15


def test_cpow_one_to_any_complex_power():
    assert cpow_principal(1.0, 0.3 + 7j) == 1.0 + 0j


def test_cpow_unit_modulus_for_imaginary_exponent():
    z = cpow_principal(2.0, 14.1347j)
    assert abs(abs(z) - 1.0) < 1e-15


def test_cpow_zero_base():
    assert cpow_principal(0.0, 2.0) == 0j
    for bad_exp in (0.0, -1.0, 1j, -2 + 5j):
        with pytest.raises(DomainError):
            cpow_principal(0.0, bad_exp)


def test_cpow_negative_real_uses_upper_side_of_cut():
    # argument pi, not -pi, regardless of the sign of a zero imaginary part
    assert abs(cpow_principal(-1.0, 0.5) - 1j) < 1e-15
    assert abs(cpow_principal(complex(-1.0, -0.0), 0.5) - 1j) < 1e-15


def test_cpow_exponent_one_and_zero():
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if abs(b) < 1e-6:
            continue
        assert abs(cpow_principal(b, 1.0) - b) <= 1e-13 * abs(b)
        assert cpow_principal(b, 0.0) == 1.0 + 0j


def test_cpow_matches_real_exponentiation():
    rng = np.random.default_rng(11)
    for _ in range(300):
        r = rng.uniform(0.1, 100.0)
        x = rng.uniform(-5.0, 5.0)
        zc = cpow_principal(r, x)
        zr = math.pow(r, x)
        assert zc.imag == 0.0
        assert abs(zc.real - zr) <= 1e-14 * abs(zr)


# ------------------------------- log_gamma ---------------------------------


def test_log_gamma_small_integers():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13


def test_log_gamma_half_against_quadrature_oracle():
    # Gamma(1/2) by direct numerical quadrature of its integral definition
    gamma_half, err = quad(lambda t: math.exp(-t) / math.sqrt(t), 0.0, np.inf)
    assert err < 1e-10
    assert abs(log_gamma(0.5).real - math.log(gamma_half)) < 1e-12
    assert abs(log_gamma(0.5).real - 0.57236494) < 1e-8
    assert log_gamma(0.5).imag == 0.0


def test_log_gamma_poles():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_log_gamma_recurrence_property():
    # exp(L(z+1) - L(z)) = z to >= 10 digits on 100 random points
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.uniform(0.5, 10.0), rng.uniform(-30.0, 30.0))
        ratio = cmath.exp(log_gamma(z + 1) - log_gamma(z))
        assert abs(ratio - z) <= 1e-10 * abs(z)


def test_log_gamma_reflection_region_consistency():
    # Re(z) < 1/4 goes through the reflection path; check it against the
    # recurrence Gamma(z) = Gamma(z+2)/(z (z+1)) evaluated on the direct path.
    for z in (-0.5 + 0.3j, -2.25 + 1j, 0.1 - 4j, -1.5 - 0.7j):
        direct = cmath.exp(log_gamma(z + 2)) / (z * (z + 1))
        assert abs(cmath.exp(log_gamma(z)) - direct) <= 1e-12 * abs(direct)


# ---------------------------- sum_alternating -------------------------------


# The raw partial sum, moved here from fraczeta.core: no code in src/ calls it.
def sum_alternating_direct(term: Callable[[int], Complexish], n_terms: int) -> complex:
    """Raw partial sum of the alternating series, no acceleration.

    Verification oracle for :func:`sum_alternating`; for real decreasing
    terms the truncation error is bounded by |term(n_terms + 1)|.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    s = 0j
    sign = 1.0
    for n in range(1, n_terms + 1):
        s += sign * complex(term(n))
        sign = -sign
    return s


def _direct_eta_partial(s: float, n_terms: int) -> tuple[float, float]:
    """Partial sums S_N and S_{N+1} of sum (-1)^(n+1) n^-s, real s."""
    n = np.arange(1, n_terms + 2, dtype=float)
    terms = np.where(n % 2 == 1, 1.0, -1.0) * n ** (-s)
    running = np.cumsum(terms)
    return float(running[n_terms - 1]), float(running[n_terms])


def test_alternating_harmonic_is_ln2():
    value = sum_alternating(lambda n: 1.0 / n)
    assert abs(value - math.log(2.0)) < 1e-12
    # Leibniz bracket oracle: consecutive partial sums enclose the limit
    s_even, s_odd = _direct_eta_partial(1.0, 10_000)
    lo, hi = min(s_even, s_odd), max(s_even, s_odd)
    assert lo <= value.real <= hi


def test_alternating_basel_value():
    value = sum_alternating(lambda n: 1.0 / n**2)
    assert abs(value - math.pi**2 / 12.0) < 1e-12
    s_a, s_b = _direct_eta_partial(2.0, 10_000)
    lo, hi = min(s_a, s_b), max(s_a, s_b)
    assert lo <= value.real <= hi


def test_abel_sum_of_constant_terms():
    value = sum_alternating(lambda n: 1.0)
    assert abs(value - 0.5) < 1e-12
    # Abel oracle: sum (-1)^(n+1) x^n = x/(1+x) -> 1/2 as x -> 1-
    x = 1.0 - 1e-9
    assert abs(x / (1.0 + x) - 0.5) < 1e-9


def test_accelerated_matches_direct_partial_sums_within_tail_bound():
    # 20 random real exponents; the 1e6-term partial sum differs from the
    # accelerated value by less than the alternating-series tail bound.
    rng = np.random.default_rng(19)
    n_terms = 1_000_000
    n = np.arange(1, n_terms + 1, dtype=float)
    signs = np.where(n % 2 == 1, 1.0, -1.0)
    for _ in range(20):
        s = rng.uniform(0.1, 2.0)
        direct = float(np.sum(signs * n ** (-s)))
        accel = sum_alternating(lambda k, s=s: k ** (-s))
        tail_bound = (n_terms + 1.0) ** (-s)
        assert abs(accel.real - direct) < tail_bound


def test_terms_used_is_reported():
    value, used = sum_alternating_info(lambda n: 1.0 / n**2)
    assert used >= 2
    assert abs(value - math.pi**2 / 12.0) < 1e-12


def test_convergence_error_on_geometric_growth():
    with pytest.raises(ConvergenceError):
        sum_alternating(lambda n: 6.0**n, ToleranceConfig(max_terms=60))


def test_direct_mode_small_case():
    s4 = sum_alternating_direct(lambda n: 1.0 / n, 4)
    assert abs(s4 - (1 - 0.5 + 1 / 3 - 0.25)) < 1e-15
    with pytest.raises(DomainError):
        sum_alternating_direct(lambda n: 1.0, 0)


def test_tolerance_config_validation():
    with pytest.raises(ConfigError):
        ToleranceConfig(abs_tol=1e-16)
    with pytest.raises(ConfigError):
        ToleranceConfig(max_terms=0)
    with pytest.raises(ConfigError):
        ToleranceConfig(max_terms=10**8 + 1)


# ------------------- reference engine: the scalar Chebyshev loop --------------


def _accel_pass_reference(term, n: int) -> complex:
    """One Chebyshev-weighted pass of degree n over term(1..n)."""
    d = (3.0 + 2.0 * math.sqrt(2.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0j
    for k in range(n):
        c = b - c
        s += c * complex(term(k + 1))
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return s / d


def _sum_alternating_reference(term, cfg=None) -> tuple[complex, int]:
    """The scalar engine: the same degree schedule and stopping rule as
    sum_alternating_info, with term(k) called per integer index and every
    pass recomputed from scratch."""
    cfg = cfg or ToleranceConfig()
    cap = min(_ACCEL_DEGREE_CAP, cfg.max_terms)
    n = min(24, max(2, (2 * cfg.max_terms) // 3))
    prev = _accel_pass_reference(term, n)
    while True:
        n_next = min(max((3 * n) // 2, n + 8), cap)
        if n_next <= n:
            raise ConvergenceError(f"no convergence within {cap} terms")
        cur = _accel_pass_reference(term, n_next)
        if abs(cur - prev) <= cfg.abs_tol:
            return cur, n_next
        n, prev = n_next, cur


def _scalar_eta_term(s: complex):
    def term(n: int) -> complex:
        if n == 1:
            return 1.0 + 0j
        return cmath.exp(-s * math.log(n))

    return term


def _assert_matches_reference(term, ref_term, cfg=None):
    try:
        ref_value, ref_used = _sum_alternating_reference(ref_term, cfg)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            sum_alternating_info(term, cfg)
        return
    value, used = sum_alternating_info(term, cfg)
    assert used == ref_used
    assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))


@settings(max_examples=100, deadline=None)
@given(
    sigma=st.floats(0.1, 2.0),
    t=st.floats(-405.0, 405.0),
)
def test_engine_matches_scalar_reference_on_eta_terms(sigma, t):
    s = complex(sigma, t)
    _assert_matches_reference(_eta_term(s), _scalar_eta_term(s))


@pytest.mark.parametrize(
    "term",
    [lambda n: 1.0 / n, lambda n: 1.0 / n**2, lambda n: 1.0],
    ids=["harmonic", "basel", "constant"],
)
@pytest.mark.parametrize(
    "cfg",
    [None, ToleranceConfig(abs_tol=1e-13), ToleranceConfig(max_terms=3)],
    ids=["default", "tight", "three-terms"],
)
def test_engine_matches_scalar_reference_on_real_series(term, cfg):
    _assert_matches_reference(term, term, cfg)


@pytest.mark.parametrize(
    "term",
    [lambda n: 1.0 / n, _eta_term(0.5 + 300j), _eta_term(0.5 + 420j)],
    ids=["harmonic", "eta-t300", "eta-past-cap"],
)
def test_term_gets_float_index_arrays_each_index_once(term):
    blocks = []

    def counted(n):
        assert isinstance(n, np.ndarray) and n.dtype == np.float64 and n.ndim == 1
        blocks.append(n.copy())
        return term(n)

    try:
        _, used = sum_alternating_info(counted)
    except ConvergenceError:
        used = _ACCEL_DEGREE_CAP
    seen = np.concatenate(blocks)
    # every index 1..used exactly once, in order: no pass re-evaluates
    assert np.array_equal(seen, np.arange(1, used + 1, dtype=float))


def test_scalar_term_broadcasts_to_the_abel_value():
    array_value, array_used = sum_alternating_info(lambda n: np.ones_like(n))
    assert abs(array_value - 0.5) < 1e-12
    for constant in (1.0, 1, 1.0 + 0j):
        value, used = sum_alternating_info(lambda n: constant)
        assert used == array_used
        assert abs(value - array_value) <= 1e-14  # dot rounding, n * eps


def test_accel_weights_are_cached_read_only_and_match_the_recurrence():
    weights = _accel_weights(24)
    assert weights.shape == (24,)
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 0.0
    assert _accel_weights(24) is weights
    # a pass is the dot product of the weights with the terms: unit
    # vectors pick out each weight of the scalar recurrence
    for k in (1, 2, 13, 24):
        unit = _accel_pass_reference(lambda j: float(j == k), 24)
        assert abs(weights[k - 1] - unit.real) <= 1e-15 * abs(unit)
    # at the cap the raw weights reach 1e306; divided by d_n they stay small
    assert np.all(np.abs(_accel_weights(_ACCEL_DEGREE_CAP)) <= 1.0)


def test_accel_weights_cache_holds_one_entry_per_degree_used():
    _accel_weights.cache_clear()
    degrees = set()

    def recording(term):
        def wrapped(n):
            degrees.add(int(n[-1]))
            return term(n)

        return wrapped

    for max_terms in (2, 3, 7, 50, 399, 400, 401, 10**6):
        cfg = ToleranceConfig(max_terms=max_terms)
        for term in (lambda n: 1.0 / n, _eta_term(0.5 + 200j), _eta_term(0.5 + 420j)):
            try:
                sum_alternating_info(recording(term), cfg)
            except ConvergenceError:
                pass
    size = _accel_weights.cache_info().currsize
    assert size == len(degrees)
    assert max(degrees) <= _ACCEL_DEGREE_CAP
    assert size <= _ACCEL_DEGREE_CAP - 1  # degrees 2..cap
