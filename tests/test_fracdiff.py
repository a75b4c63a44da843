import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fraczeta.errors import ConfigError, DomainError
from fraczeta.fracdiff import (
    MAX_SOLVER_SAMPLES,
    SampledSignal,
    SolverConfig,
    frequency_response_empirical,
    gl_differintegral,
    gl_weights,
    solve_relaxation,
)
from fraczeta.transfer import ColeColeParams, evaluate


def binomial_weight_oracle(alpha: float, k: int) -> float:
    """(-1)^k C(alpha, k) through Gamma ratios, independent of the recurrence."""
    if k == 0:
        return 1.0
    binom = math.gamma(alpha + 1) / (math.gamma(k + 1) * math.gamma(alpha - k + 1))
    return (-1) ** k * binom


def _march_reference(params: ColeColeParams, drive: SampledSignal) -> SampledSignal:
    """The implicit Grunwald-Letnikov step marched one sample at a time.

        U_n = (z0 I_n - c sum_{k=1..n} w_k U_{n-k}) / (1 + c)

    Full memory, one dot product over the whole history per step:
    quadratic cost, and the oracle for the O(N log N) solve.
    """
    n = len(drive.values)
    if n > MAX_SOLVER_SAMPLES:
        raise ConfigError(f"drive length {n} exceeds {MAX_SOLVER_SAMPLES} samples")
    alpha = 1.0 / params.d
    h = drive.h
    c = (params.vc * h) ** (-alpha)
    w = gl_weights(alpha, n) if n > 1 else np.ones(1)
    wrev = w[::-1].copy()  # wrev[i] = w[n-1-i], contiguous for the dot below
    i_t = drive.values
    u = np.empty(n)
    denom = 1.0 + c
    for m in range(n):
        # memory term sum_{k=1..m} w_k U_{m-k} = dot(w[m..1], U[0..m-1])
        mem = np.dot(wrev[n - 1 - m : n - 1], u[:m]) if m else 0.0
        u[m] = (params.z0 * i_t[m] - c * mem) / denom
    return SampledSignal(h=h, values=u)


# -------------------------------- weights -----------------------------------


def test_gl_weights_integer_order_is_first_difference():
    assert gl_weights(1.0, 4).tolist() == [1.0, -1.0, 0.0, 0.0]


def test_gl_weights_half_order_values():
    w = gl_weights(0.5, 5)
    assert w.tolist() == [1.0, -0.5, -0.125, -0.0625, -0.0390625]
    for k in range(1, 5):
        assert abs(w[k] - binomial_weight_oracle(0.5, k)) < 1e-14


def test_gl_weights_gamma_oracle_other_orders():
    for alpha in (0.3, 0.7):
        w = gl_weights(alpha, 8)
        for k in range(8):
            assert abs(w[k] - binomial_weight_oracle(alpha, k)) < 1e-13


def test_gl_weights_identity_limit():
    w = gl_weights(1e-12, 3)
    assert w[0] == 1.0
    assert abs(w[1]) < 2e-12
    assert abs(w[2]) < 2e-12


def test_gl_weights_partial_sum_decays():
    w = gl_weights(0.5, 10_001)
    assert abs(w.sum()) < 1e-2


def test_gl_weights_validation():
    with pytest.raises(DomainError):
        gl_weights(0.0, 4)
    with pytest.raises(DomainError):
        gl_weights(1.5, 4)
    with pytest.raises(DomainError):
        gl_weights(0.5, 0)


# ----------------------------- differintegral --------------------------------


def test_first_difference_of_ramp():
    h = 0.01
    t = h * np.arange(200)
    g = gl_differintegral(SampledSignal(h=h, values=t), 1.0)
    assert np.max(np.abs(g.values[1:] - 1.0)) < 1e-12


def test_half_derivative_of_unit_step():
    h = 1e-3
    n = 1001  # reaches t = 1
    sig = SampledSignal(h=h, values=np.ones(n))
    g = gl_differintegral(sig, 0.5)
    target = 1.0 / math.sqrt(math.pi * 1.0)
    assert abs(g.values[-1] - target) < 0.02 * target


def test_half_derivative_applied_twice_on_ramp():
    h = 1e-3
    t = h * np.arange(1001)
    once = gl_differintegral(SampledSignal(h=h, values=t), 0.5)
    twice = gl_differintegral(once, 0.5)
    assert abs(twice.values[-1] - 1.0) < 0.02


def test_linearity_to_machine_precision():
    rng = np.random.default_rng(5)
    h = 0.01
    f = rng.standard_normal(300)
    g = rng.standard_normal(300)
    a, b = 2.75, -1.25
    combo = gl_differintegral(SampledSignal(h=h, values=a * f + b * g), 0.4)
    fa = gl_differintegral(SampledSignal(h=h, values=f), 0.4)
    gb = gl_differintegral(SampledSignal(h=h, values=g), 0.4)
    recombined = a * fa.values + b * gb.values
    scale = np.max(np.abs(recombined)) + 1.0
    assert np.max(np.abs(combo.values - recombined)) < 1e-12 * scale


@pytest.mark.parametrize("n", [2, 3, 17, 640, 2000])
def test_differintegral_matches_direct_convolution(n):
    rng = np.random.default_rng(n)
    h = 10.0 ** rng.uniform(-3, 0)
    for alpha in (0.05, 0.5, 1.0, float(rng.uniform(0.01, 1.0))):
        f = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        g = gl_differintegral(SampledSignal(h=h, values=f), alpha).values
        direct = np.convolve(f, gl_weights(alpha, n))[:n] * h ** (-alpha)
        assert np.max(np.abs(g - direct)) <= 1e-12 * np.max(np.abs(g))


def test_semigroup_composition():
    h = 1e-3
    t = h * np.arange(2001)  # covers [0, 2]
    sig = SampledSignal(h=h, values=t**2)
    composed = gl_differintegral(gl_differintegral(sig, 0.4), 0.3)
    direct = gl_differintegral(sig, 0.7)
    window = (t >= 0.5) & (t <= 2.0)
    gap = np.max(np.abs(composed.values[window] - direct.values[window]))
    assert gap < 0.03 * np.max(np.abs(direct.values[window]))


def test_sampled_signal_validation():
    with pytest.raises(DomainError):
        SampledSignal(h=0.0, values=np.ones(3))
    with pytest.raises(DomainError):
        SampledSignal(h=0.1, values=np.array([]))
    with pytest.raises(DomainError):
        SampledSignal(h=0.1, values=np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        gl_differintegral(SampledSignal(h=0.1, values=np.ones(1)), 0.5)


# ------------------------------ relaxation -----------------------------------


@settings(max_examples=100, deadline=None)
@given(
    d=st.floats(1.0, 5.0),
    vc=st.floats(1e-2, 1e2),
    z0=st.floats(1e-3, 1e3),
    h=st.floats(1e-4, 1e-1),
    values=hnp.arrays(
        float,
        st.integers(1, 4096),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
)
def test_solve_matches_marching_oracle(d, vc, z0, h, values):
    params = ColeColeParams(z0=z0, vc=vc, d=d)
    drive = SampledSignal(h=h, values=values)
    u = solve_relaxation(params, drive).values
    ref = _march_reference(params, drive).values
    assert len(u) == len(ref)
    assert np.max(np.abs(u - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


# c = 1 (vc = h = 1); d = 1: U_n = (1 + U_{n-1}) / 2; d = 2: w = 1, -1/2, -1/8
@pytest.mark.parametrize(
    "d,expected", [(1.0, [0.5, 0.75, 0.875]), (2.0, [0.5, 0.625, 0.6875])]
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_solve_first_samples_by_hand(d, expected, n):
    params = ColeColeParams(z0=1.0, vc=1.0, d=d)
    drive = SampledSignal(h=1.0, values=np.ones(n))
    u = solve_relaxation(params, drive).values
    assert np.max(np.abs(u - expected[:n])) < 1e-15
    assert np.max(np.abs(u - _march_reference(params, drive).values)) < 1e-15


def test_long_step_solve_matches_marching_oracle():
    params = ColeColeParams(z0=1.0, vc=1.0, d=1.7)
    drive = SampledSignal(h=1e-3, values=np.ones(30_000))
    u = solve_relaxation(params, drive).values
    ref = _march_reference(params, drive).values
    assert np.max(np.abs(u - ref)) <= 1e-12


def test_step_response_d1_matches_exponential():
    h = 1e-3
    n = 5000
    params = ColeColeParams(z0=1.0, vc=1.0, d=1.0)
    u = solve_relaxation(params, SampledSignal(h=h, values=np.ones(n)))
    t = h * np.arange(n)
    assert np.max(np.abs(u.values - (1.0 - np.exp(-t)))) < 1e-2


def test_step_response_reaches_equilibrium():
    params = ColeColeParams(z0=3.0, vc=2.0, d=2.0)
    u = solve_relaxation(params, SampledSignal(h=0.1, values=np.ones(10_000)))
    assert abs(u.values[-1] - params.z0) < 0.05 * params.z0


def test_sinusoid_steady_state_matches_transfer_function():
    # gain about 0.54120 and phase about -22.5 degrees at v = vc, d = 2
    vc = 10.0
    params = ColeColeParams(z0=1.0, vc=vc, d=2.0)
    resp = frequency_response_empirical(params, vc, cycles=12, h=1e-3)
    ref = evaluate(params, vc)
    assert abs(abs(resp) - 0.54120) < 0.02 * 0.54120
    assert abs(math.degrees(cmath.phase(resp)) + 22.5) < 0.5
    assert abs(resp - ref) < 0.02


def test_solver_sample_guard():
    params = ColeColeParams(z0=1.0, vc=1.0, d=2.0)
    with pytest.raises(ConfigError):
        solve_relaxation(
            params, SampledSignal(h=1e-3, values=np.ones(MAX_SOLVER_SAMPLES + 1))
        )


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(h=0.0, steps=10)
    with pytest.raises(ConfigError):
        SolverConfig(h=1e-3, steps=MAX_SOLVER_SAMPLES + 1)


def test_order_one_convergence_at_d1():
    params = ColeColeParams(z0=1.0, vc=1.0, d=1.0)
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        n = int(round(1.0 / h)) + 1
        u = solve_relaxation(params, SampledSignal(h=h, values=np.ones(n)))
        t = h * np.arange(n)
        errors.append(np.max(np.abs(u.values - (1.0 - np.exp(-t)))))
    for e_coarse, e_fine in zip(errors, errors[1:]):
        order = math.log2(e_coarse / e_fine)
        assert 0.8 <= order <= 1.2


# --------------------------- frequency response ------------------------------


@pytest.mark.parametrize("d", [1.0, 2.0, 3.5])
def test_frequency_response_matches_scheme_symbol(d):
    # The scheme's exact steady-state gain z0 / (1 + c (1 - e^{-ivh})^alpha)
    # leaves only the transient in the fit; Z(v) also holds the O(h)
    # discretisation error, which at h = 1e-2 is the larger of the two.
    h = 1e-2
    params = ColeColeParams(z0=1.5, vc=1.0, d=d)
    alpha = 1.0 / d
    c = (params.vc * h) ** (-alpha)
    for v in (1.0, 2.0, 5.0):
        resp = frequency_response_empirical(params, v, cycles=12, h=h)
        symbol = params.z0 / (1.0 + c * (1.0 - cmath.exp(-1j * v * h)) ** alpha)
        assert abs(resp - symbol) < 1e-4
        assert abs(resp - symbol) < abs(resp - evaluate(params, v))


def test_frequency_response_classic_rc_point():
    vc = 10.0
    params = ColeColeParams(z0=1.0, vc=vc, d=1.0)
    resp = frequency_response_empirical(params, vc, cycles=12, h=1e-3)
    assert abs(abs(resp) - 1.0 / math.sqrt(2.0)) < 0.02 / math.sqrt(2.0)
    assert abs(math.degrees(cmath.phase(resp)) + 45.0) < 1.0


def test_frequency_response_quasistatic_limit():
    # At v = 1e-3 vc the transfer value itself still sits (v/vc)^(1/d),
    # about 3.2 percent, away from 1 + 0i; what the solver owes is the
    # transfer value, and 1 + 0i only at the quasistatic approach rate.
    vc = 1000.0
    v = 1e-3 * vc
    params = ColeColeParams(z0=1.0, vc=vc, d=2.0)
    resp = frequency_response_empirical(params, v, cycles=10, h=1e-3)
    assert abs(resp - evaluate(params, v)) < 0.02
    assert abs(resp - 1.0) < 1.5 * (v / vc) ** 0.5


def test_frequency_response_scales_with_z0():
    vc = 10.0
    base = frequency_response_empirical(
        ColeColeParams(z0=1.0, vc=vc, d=2.0), vc, cycles=12, h=1e-3
    )
    doubled = frequency_response_empirical(
        ColeColeParams(z0=2.0, vc=vc, d=2.0), vc, cycles=12, h=1e-3
    )
    assert abs(doubled - 2.0 * base) < 1e-9


def test_frequency_response_validation():
    params = ColeColeParams(z0=1.0, vc=1.0, d=2.0)
    with pytest.raises(ConfigError):
        frequency_response_empirical(params, 1.0, cycles=9)
    with pytest.raises(DomainError):
        frequency_response_empirical(params, 0.0, cycles=12)
    with pytest.raises(ConfigError):
        # 12 cycles at this frequency would need more than 1e5 samples
        frequency_response_empirical(params, 1e-3, cycles=12, h=1e-3)
