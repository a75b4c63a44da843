"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 10's cutoff-stability clause is implemented faithfully
and marked as a strict expected failure: the truncated prime product has
no stable minima (doubling the cutoff reshapes the |varpi| landscape and
moves every grid minimum by many grid steps), so the assertion cannot
hold; the xfail reason and the README carry the analysis.
"""

import cmath
import math

import numpy as np
import pytest

import fraczeta as fz
from fraczeta.core import cpow_principal
from fraczeta.primes import VarpiConfig, varpi_scan
from fraczeta.zeta import zeta_direct

from test_transfer import circumcircle
from test_zeta import dirichlet_tail, eta_modulus_minimum_oracle, mobius

ZERO_ORDINATES = (14.134725, 21.022040, 25.010858)


def report(num: int, text: str) -> None:
    print(f"[acceptance] criterion {num:>2}: PASS  {text}")


def test_criterion_01_zeta_golden_values():
    oracle = zeta_direct(2.0, 1_000_000) + dirichlet_tail(2.0, 1_000_000)
    value = fz.zeta_from_eta(2.0)
    assert abs(value - math.pi**2 / 6.0) < 1e-8
    assert abs(value - oracle) < 1e-8
    near_zero = fz.zeta_from_eta(1e-9)
    assert abs(near_zero - (-0.5)) < 1e-6
    report(1, "zeta(2) and the s->0 limit hit their golden values")


def test_criterion_02_critical_line_zeros():
    zeros = fz.find_zeros(10.0, 30.0, 0.05)
    assert len(zeros) == 3
    for bracket, want in zip(zeros, ZERO_ORDINATES):
        assert abs(bracket.t_refined - want) < 1e-4
        # independent oracle: dense |eta| scan + golden-section refinement
        oracle = eta_modulus_minimum_oracle(want)
        assert abs(bracket.t_refined - oracle) < 1e-4
    report(2, "three zeros in [10, 30] at the oracle ordinates")


def test_criterion_03_first_assertion_residual():
    for theta in (1.0, 5.0, 10.0, 14.134725):
        assert fz.assertion_one_residual(2.0, theta) < 1e-10
    for d in (2.5, 3.0, 4.0):
        assert fz.assertion_one_residual(d, 5.0) > 1e-3
    report(3, "eta residual vanishes at d = 2 and only there")


def test_criterion_04_euler_dirichlet_mobius_triangle():
    zeta_2 = fz.zeta_from_eta(2.0)
    assert abs(fz.euler_product(2.0, fz.sieve(100_000)) - zeta_2) < 1e-4
    assert abs(fz.mobius_inverse_zeta(2.0, 1_000_000) * zeta_2 - 1.0) < 1e-3
    limit = 10_000
    mu = np.array([0] + [mobius(n) for n in range(1, limit + 1)], dtype=np.int64)
    divisor_sums = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        divisor_sums[d::d] += mu[d]
    assert divisor_sums[1] == 1
    assert not np.any(divisor_sums[2:])
    report(4, "Euler product, Mobius series and divisor identity agree")


def test_criterion_05_phase_pinning():
    for d in (1.25, 2.0, 3.0, 5.0):
        target = math.pi / (2.0 * d)
        for v in np.logspace(-3, 3, 50):
            w = cpow_principal(complex(0.0, float(v)), 1.0 / d)
            assert abs(cmath.phase(w) - target) < 1e-12
    assert math.pi / (2.0 * 2.0) == math.pi / 4.0
    report(5, "fractional-term phase pinned at pi/(2d), pi/4 at d = 2")


def test_criterion_06_arc_membership():
    for d in (1.25, 2.0, 3.0, 5.0):
        params = fz.ColeColeParams(z0=1.0, vc=1.0, d=d)
        arc = fz.arc_geometry(params)
        center, radius = circumcircle(
            *[fz.evaluate(params, v) for v in (0.1, 1.0, 10.0)]
        )
        assert abs(arc.center - center) < 1e-9 * radius
        assert abs(arc.radius - radius) < 1e-9 * radius
        for v in np.logspace(-3, 3, 50):
            dist = abs(fz.evaluate(params, float(v)) - arc.center)
            assert abs(dist - arc.radius) < 1e-9 * arc.radius
    report(6, "locus sits on the circumcircle-validated arc to 1e-9")


def test_criterion_07_time_frequency_consistency():
    vc = 10.0
    for d in (1.0, 2.0, 4.0):
        params = fz.ColeColeParams(z0=1.0, vc=vc, d=d)
        for ratio in (0.1, 1.0, 10.0):
            v = ratio * vc
            measured = fz.frequency_response_empirical(params, v, cycles=12, h=1e-3)
            assert abs(measured - fz.evaluate(params, v) / params.z0) < 0.02
    report(7, "solver gain matches the transfer function on all 9 points")


def test_criterion_08_fractional_operator_laws():
    h = 1e-3
    t = h * np.arange(2001)
    sig = fz.SampledSignal(h=h, values=t**2)
    composed = fz.gl_differintegral(fz.gl_differintegral(sig, 0.4), 0.3)
    direct = fz.gl_differintegral(sig, 0.7)
    window = (t >= 0.5) & (t <= 2.0)
    gap = np.max(np.abs(composed.values[window] - direct.values[window]))
    assert gap < 0.03 * np.max(np.abs(direct.values[window]))

    step = fz.SampledSignal(h=h, values=np.ones(1001))
    half = fz.gl_differintegral(step, 0.5)
    target = 1.0 / math.sqrt(math.pi)
    assert abs(half.values[-1] - target) < 0.02 * target

    params = fz.ColeColeParams(z0=1.0, vc=1.0, d=1.0)
    errors = []
    for step_h in (1e-2, 5e-3, 2.5e-3):
        n = int(round(1.0 / step_h)) + 1
        u = fz.solve_relaxation(
            params, fz.SampledSignal(h=step_h, values=np.ones(n))
        )
        tt = step_h * np.arange(n)
        errors.append(np.max(np.abs(u.values - (1.0 - np.exp(-tt)))))
    for e_coarse, e_fine in zip(errors, errors[1:]):
        assert 0.8 <= math.log2(e_coarse / e_fine) <= 1.2
    report(8, "semigroup, step response and O(h) convergence all hold")


def test_criterion_09_theta_prime_closed_forms():
    for p in (2, 3, 5, 7, 11):
        for sol in fz.solve_theta_prime(p, 4):
            first, _ = fz.hausdorff_residual(p, 1.0, sol.theta_prime)
            assert abs(first) < 1e-12
    rng = np.random.default_rng(9)
    primes = fz.sieve(10_000).primes
    for _ in range(1000):
        p = int(primes[rng.integers(0, len(primes))])
        inv_delta = float(rng.uniform(1e-3, 2.0))
        theta = float(rng.uniform(0.0, 20.0))
        _, second = fz.hausdorff_residual(p, inv_delta, theta)
        assert abs(second) <= 1e-15
    report(9, "all closed-form branches zero the residual; pair stays real")


def test_criterion_10a_varpi_identity_at_zero():
    value = fz.varpi(0.0, fz.sieve(10_000), VarpiConfig(prime_limit=10_000))
    assert value == 1.0 + 0j
    report(10, "varpi(0) is exactly 1 (identity half)")


@pytest.mark.xfail(
    strict=True,
    reason="truncated-product minima are horizon artifacts: doubling the "
    "prime cutoff from 1e4 to 2e4 moves every |varpi| grid minimum by "
    "0.03..0.35, far beyond the 0.01 grid step, under both sign "
    "conventions; the stability clause cannot hold",
)
def test_criterion_10b_varpi_scan_stability_under_cutoff_doubling():
    primes_lo = fz.sieve(10_000)
    primes_hi = fz.sieve(20_000)
    step = 0.01
    for convention in ("as_printed", "both_minus"):
        cfg_lo = VarpiConfig(prime_limit=10_000, sign_convention=convention)
        cfg_hi = VarpiConfig(prime_limit=20_000, sign_convention=convention)
        minima_lo = varpi_scan(0.1, 5.0, step, primes_lo, cfg_lo)
        minima_hi = varpi_scan(0.1, 5.0, step, primes_hi, cfg_hi)
        drift = max(
            min(abs(t_lo - t_hi) for t_hi, _ in minima_hi)
            for t_lo, _ in minima_lo
        )
        print(
            f"[acceptance] criterion 10: {convention}: "
            f"{len(minima_lo)} -> {len(minima_hi)} minima, "
            f"max nearest-minimum drift {drift:.3f} vs grid step {step}"
        )
        assert len(minima_lo) == len(minima_hi)
        for (t_lo, _), (t_hi, _) in zip(minima_lo, minima_hi):
            assert abs(t_lo - t_hi) < step
    report(10, "scan minima stable under cutoff doubling (stability half)")


def test_criterion_11_determinism():
    first = fz.find_zeros(10.0, 30.0, 0.05)
    second = fz.find_zeros(10.0, 30.0, 0.05)
    split = fz.find_zeros(10.0, 20.0, 0.05) + fz.find_zeros(20.0, 30.0, 0.05)
    for other in (second, split):
        assert [z.t_refined for z in first] == [z.t_refined for z in other]
        assert [z.residual for z in first] == [z.residual for z in other]

    primes = fz.sieve(10_000)
    cfg = VarpiConfig(prime_limit=10_000)
    scan_a = varpi_scan(0.1, 5.0, 0.01, primes, cfg)
    scan_b = varpi_scan(0.1, 5.0, 0.01, primes, cfg)
    assert scan_a == scan_b
    report(11, "zero scan and varpi scan are bitwise reproducible")
