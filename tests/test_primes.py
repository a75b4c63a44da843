import cmath
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraczeta.primes
import fraczeta.zeta
from fraczeta.errors import DomainError, LimitError
from fraczeta.primes import (
    _GRID_BLOCK_CELLS,
    _SIEVE_BLOCK,
    GRID_POINT_CAP,
    PrimeSet,
    ThetaPrimeSolution,
    VarpiConfig,
    _guarded_product,
    _varpi_factors,
    hausdorff_residual,
    mandelbrot_gauge,
    sieve,
    solve_theta_prime,
    strict_local_minima,
    varpi,
    varpi_grid,
    varpi_scan,
)
from fraczeta.zeta import euler_product, mobius_sieve, zeta_from_eta


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _sieve_reference(limit: int) -> tuple[int, ...]:
    """Primes up to limit >= 1: every p marks all its multiples, and the
    tuple is built one numpy scalar at a time."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return tuple(int(p) for p in np.nonzero(mask)[0])


def _varpi_factors_reference(theta_prime, primes, cfg):
    """The varpi factors with both p^(-s+) and p^(-s-) taken by exp, one
    theta' at a time: the oracle for the closed-form, blocked path."""
    log_p = np.log(np.asarray(primes.primes, dtype=float))
    a = np.exp(-complex(0.5, theta_prime) * log_p)
    b = np.exp(-complex(0.5, -theta_prime) * log_p)
    if cfg.sign_convention == "as_printed":
        return 1.0 - a + b
    return 1.0 - a - b


def bits(values) -> bytes:
    """The exact bytes of a complex or an array, signed zeros included."""
    return np.asarray(values, dtype=complex).tobytes()


def rel_err(got, want) -> float:
    """Normwise relative error max |got - want| / max |want|."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# --------------------------------- sieve -------------------------------------


def test_sieve_small():
    assert sieve(10).primes == (2, 3, 5, 7)
    assert sieve(1).primes == ()
    assert sieve(2).primes == (2,)


def test_sieve_pi_100():
    assert len(sieve(100)) == 25


def test_sieve_matches_trial_division():
    got = sieve(10_000).primes
    want = tuple(n for n in range(2, 10_001) if is_prime_trial(n))
    assert got == want


def test_sieve_limits():
    with pytest.raises(LimitError):
        sieve(100_000_001)
    with pytest.raises(DomainError):
        sieve(0)


def test_prime_set_validation():
    with pytest.raises(DomainError):
        PrimeSet(limit=10, primes=(3, 2))
    with pytest.raises(DomainError):
        PrimeSet(limit=10, primes=(2, 11))


def test_prime_set_rejects_one_and_repeats():
    with pytest.raises(DomainError):
        PrimeSet(limit=10, primes=(1, 2))
    with pytest.raises(DomainError):
        PrimeSet(limit=10, primes=(3, 3))


def test_sieve_matches_reference_small_limits():
    with pytest.raises(DomainError):
        sieve(0)
    for limit in range(1, 301):
        assert sieve(limit).primes == _sieve_reference(limit)


def test_sieve_matches_reference_large_limit():
    limit = 1_000_000 + int(np.random.default_rng(8).integers(1000))
    got = sieve(limit)
    assert got.primes == _sieve_reference(limit)
    assert all(type(p) is int for p in got.primes)


def _sieve_matches_reference(limit: int) -> bool:
    want = np.array(_sieve_reference(limit), dtype=np.int64)
    return sieve(limit).array.tobytes() == want.tobytes()


# Table slot i holds the odd number 2i + 1, so the sieve's first block holds
# the odd numbers below 2 * _SIEVE_BLOCK; the wheel repeats every 2 * 15015.
_BLOCK_EDGE = 2 * _SIEVE_BLOCK
_SIEVE_EDGES = sorted(
    {_BLOCK_EDGE + d for d in (-2, -1, 0, 1, 2)}
    | {2 * _BLOCK_EDGE + d for d in (-1, 1)}
    | {30030 * k + d for k in (1, 2, 7) for d in (-1, 1)}
    # squares of base primes: the first ones, and those on either side of the block edge
    | {p * p + d for p in (17, 19, 23, 1447, 1451) for d in (-2, 0, 2)}
)


@pytest.mark.parametrize("limit", _SIEVE_EDGES)
def test_sieve_matches_reference_at_block_and_wheel_edges(limit):
    assert _sieve_matches_reference(limit)


@settings(max_examples=60, deadline=None)
@given(limit=st.integers(1, 100_000),
       block=st.one_of(st.just(_SIEVE_BLOCK), st.integers(16, 5000)))
@example(limit=30031, block=15015)
@example(limit=289, block=144)
def test_sieve_matches_reference_for_any_block_size(limit, block):
    with mock.patch.object(fraczeta.primes, "_SIEVE_BLOCK", block):
        assert _sieve_matches_reference(limit)


def test_log_primes_equal_float_cast_then_log():
    # np.log(array, dtype=float) casts inside the loop: bitwise the same values
    prime_set = sieve(10**7)
    want = np.log(prime_set.array.astype(float))
    assert prime_set.log_primes.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", True, None, 2**70])
def test_prime_set_rejects_non_integers(bad):
    with pytest.raises(DomainError):
        PrimeSet(limit=10, primes=(bad,))
    with pytest.raises(DomainError):
        PrimeSet(limit=10, primes=(bad, 7))


def test_prime_set_accepts_numpy_integers():
    prime_set = PrimeSet(limit=10, primes=(np.int64(2), np.uint8(3), 5))
    assert prime_set.array.tolist() == [2, 3, 5]


@pytest.mark.parametrize("limit", [1, 2, 10, 10_000])
def test_prime_set_cached_arrays(limit):
    prime_set = sieve(limit)
    assert prime_set.array.dtype == np.int64
    assert np.array_equal(prime_set.array, np.array(prime_set.primes, dtype=np.int64))
    want_log = np.log(np.array(prime_set.primes, dtype=float))
    assert prime_set.log_primes.tobytes() == want_log.tobytes()
    for cached in (prime_set.array, prime_set.log_primes):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[:] = 0


def test_prime_set_equality_ignores_cache():
    first, second = sieve(100), sieve(100)
    assert first.array is not second.array
    assert first == second
    assert hash(first) == hash(second)
    assert "array" not in repr(first)


def test_prime_set_replace_revalidates():
    prime_set = sieve(100)
    dropped = dataclasses.replace(prime_set, primes=prime_set.primes[:3] + prime_set.primes[4:])
    assert 7 not in dropped.array.tolist()
    assert len(dropped.array) == len(dropped.log_primes) == len(prime_set) - 1
    assert dropped != prime_set
    with pytest.raises(DomainError):
        dataclasses.replace(prime_set, primes=prime_set.primes[::-1])
    with pytest.raises(DomainError):
        dataclasses.replace(prime_set, primes=prime_set.primes + (101,))
    with pytest.raises(DomainError):
        dataclasses.replace(prime_set, primes=(2, 3.5))


def _holds_tuple(prime_set: PrimeSet) -> bool:
    """Whether the set has built (or was given) its ``primes`` tuple."""
    return isinstance(vars(prime_set)["primes"], tuple)


@pytest.mark.parametrize(
    "given",
    [
        (2, 3, 5, 7),
        [2, 3, 5, 7],
        np.array([2, 3, 5, 7], dtype=np.int64),
        np.array([2, 3, 5, 7], dtype=np.int32),
        (np.int64(2), np.int32(3), np.uint8(5), np.int16(7)),
    ],
    ids=["tuple", "list", "int64", "int32", "numpy-ints"],
)
def test_prime_set_accepts_integer_sequences(given):
    prime_set = PrimeSet(limit=10, primes=given)
    assert prime_set.array.dtype == np.int64
    assert prime_set.array.tolist() == [2, 3, 5, 7]
    assert len(prime_set) == 4
    assert prime_set == PrimeSet(limit=10, primes=(2, 3, 5, 7))


@pytest.mark.parametrize(
    "bad",
    [
        np.array([2.0, 3.0, 5.0]),
        np.array([True, True]),
        np.array([3, 2, 5]),
        np.array([2, 3, 3, 5]),
        np.array([2, 3, 11]),
        np.array([1, 2, 3]),
        np.array([[2, 3], [5, 7]]),
    ],
    ids=["float", "bool", "unsorted", "repeats", "above-limit", "below-two", "2-d"],
)
def test_prime_set_rejects_bad_arrays(bad):
    with pytest.raises(DomainError):
        PrimeSet(limit=10, primes=bad)


@pytest.mark.parametrize("limit", [2, 3, 10_000, 100_003])
def test_array_built_primes_read_as_python_int_tuple(limit):
    prime_set = PrimeSet(limit=limit, primes=sieve(limit).array)
    assert not _holds_tuple(prime_set)
    got = prime_set.primes
    assert type(got) is tuple
    assert all(type(p) is int for p in got)
    assert got == _sieve_reference(limit)
    assert prime_set.primes is got  # built once, then kept


def test_array_built_and_tuple_built_sets_agree():
    from_array = sieve(1000)
    from_tuple = PrimeSet(limit=1000, primes=_sieve_reference(1000))
    assert from_array == from_tuple
    assert hash(from_array) == hash(from_tuple)
    assert repr(from_array) == repr(from_tuple)
    assert from_array != PrimeSet(limit=1001, primes=_sieve_reference(1000))


def test_prime_set_copies_the_callers_array_and_list():
    given = np.array([2, 3, 5, 7])
    as_list = given.tolist()
    from_array = PrimeSet(limit=10, primes=given)
    from_list = PrimeSet(limit=10, primes=as_list)
    given[0] = 11
    as_list[0] = 11
    for prime_set in (from_array, from_list):
        assert prime_set.array.tolist() == [2, 3, 5, 7]
        assert vars(prime_set)["primes"] is prime_set.array
        assert prime_set.primes == (2, 3, 5, 7)


def test_prime_set_field_stays_frozen_and_required():
    prime_set = sieve(30)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prime_set.primes = (2, 3)
    with pytest.raises(TypeError):
        PrimeSet(limit=30)
    assert dataclasses.replace(prime_set, primes=prime_set.array[:-1]).primes[-1] == 23


def test_library_paths_never_build_the_tuple(monkeypatch):
    prime_set = sieve(10_000)
    cfg = VarpiConfig(prime_limit=10_000)
    assert len(prime_set) == 1229
    varpi(0.3, prime_set, cfg)
    varpi_scan(0.1, 0.5, 0.05, prime_set, cfg)
    euler_product(2.0, prime_set)
    assert not _holds_tuple(prime_set)

    built = []

    def recording_sieve(limit):
        built.append(sieve(limit))
        return built[-1]

    monkeypatch.setattr(fraczeta.zeta, "sieve", recording_sieve)
    mobius_sieve(10_000)
    assert [len(s) for s in built] == [25]
    assert not _holds_tuple(built[0])


# ---------------------------- gauge relation ----------------------------------


def test_gauge_trivial_solution():
    for p, d in ((2.0, 1.0), (7.0, 2.0), (3.5, 4.2)):
        assert mandelbrot_gauge(p, p, d) == 1.0


def test_gauge_values():
    assert mandelbrot_gauge(4.0, 1.0, 2.0) == 0.5
    assert abs(mandelbrot_gauge(7.0, 1.0, 2.0) - 7.0 ** (-0.5)) < 1e-16
    assert abs(mandelbrot_gauge(7.0, 1.0, 2.0) - 0.37796447) < 1e-8


def test_gauge_validation():
    with pytest.raises(DomainError):
        mandelbrot_gauge(0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        mandelbrot_gauge(1.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        mandelbrot_gauge(1.0, 1.0, 0.5)


# --------------------------- hausdorff residual -------------------------------


def test_residual_at_theta_zero():
    for p in (2, 3, 97):
        assert hausdorff_residual(p, 1.0, 0.0) == (1.0, 0.0)


def test_residual_closed_form_zero():
    for p in (2, 3, 5):
        theta = math.pi / (6.0 * math.log(p))
        first, second = hausdorff_residual(p, 1.0, theta)
        assert abs(first) < 1e-12
        assert second == 0.0


def test_residual_imaginary_part_is_conjugate_exact():
    rng = np.random.default_rng(41)
    primes = sieve(10_000).primes
    for _ in range(1000):
        p = int(primes[rng.integers(0, len(primes))])
        inv_delta = float(rng.uniform(1e-3, 2.0))
        theta = float(rng.uniform(0.0, 20.0))
        _, second = hausdorff_residual(p, inv_delta, theta)
        assert abs(second) <= 1e-15


def test_residual_with_gauge_value():
    # case (i): inv_delta from the gauge relation instead of 1
    inv_delta = mandelbrot_gauge(7.0, 1.0, 2.0)
    first, second = hausdorff_residual(7, inv_delta, 0.0)
    assert abs(first - (2.0 * inv_delta - 1.0)) < 1e-15
    assert second == 0.0


def test_residual_validation():
    with pytest.raises(DomainError):
        hausdorff_residual(1, 1.0, 0.5)
    with pytest.raises(DomainError):
        hausdorff_residual(5, 0.0, 0.5)


# ------------------------------ theta' branches -------------------------------


def test_theta_prime_first_branches():
    sols = solve_theta_prime(2, 1)
    assert len(sols) == 1
    assert sols[0].theta_prime == (math.pi / 3.0) / (2.0 * math.log(2.0))
    assert abs(sols[0].theta_prime - math.pi / (6.0 * math.log(2.0))) < 1e-15
    assert abs(sols[0].theta_prime - 0.7553933569711989) < 1e-15

    sols3 = solve_theta_prime(3, 1)
    assert abs(sols3[0].theta_prime - math.pi / (6.0 * math.log(3.0))) < 1e-15
    assert abs(sols3[0].theta_prime - 0.47660014456335453) < 1e-15


def test_theta_prime_minus_branch_k1():
    sols = solve_theta_prime(2, 2)
    minus_k1 = [s for s in sols if s.k == 1 and s.sign == -1]
    assert len(minus_k1) == 1
    want = (2.0 * math.pi - math.pi / 3.0) / (2.0 * math.log(2.0))
    assert minus_k1[0].theta_prime == want
    assert abs(want - 3.7769667848559946) < 1e-12


def test_theta_prime_excludes_negative_and_sorts():
    for p in (2, 5):
        sols = solve_theta_prime(p, 3)
        assert all(s.theta_prime > 0 for s in sols)
        values = [s.theta_prime for s in sols]
        assert values == sorted(values)
        # k = 0 contributes only the plus sign: 2 per k afterwards
        assert len(sols) == 1 + 2 * 2


def test_theta_prime_branches_zero_residual():
    for p in (2, 3, 5, 7, 11):
        for sol in solve_theta_prime(p, 4):
            first, _ = hausdorff_residual(p, 1.0, sol.theta_prime)
            assert abs(first) < 1e-12


def test_theta_prime_solution_rejects_wrong_value():
    with pytest.raises(DomainError):
        ThetaPrimeSolution(p=2, k=0, sign=1, theta_prime=0.75551368)


# --------------------------------- varpi --------------------------------------


def test_varpi_is_exactly_one_at_zero():
    for limit in (2, 100, 10_000):
        prime_set = sieve(limit)
        value = varpi(0.0, prime_set, VarpiConfig(prime_limit=limit))
        assert value.real == 1.0
        assert value.imag == 0.0


def test_varpi_single_factor_against_direct_arithmetic():
    prime_set = PrimeSet(limit=2, primes=(2,))
    cfg = VarpiConfig(prime_limit=2, sign_convention="as_printed")
    got = varpi(1.0, prime_set, cfg)
    # oracle: the factor written out in plain complex arithmetic
    s_plus = complex(0.5, 1.0)
    s_minus = complex(0.5, -1.0)
    oracle = 1.0 - cmath.exp(-s_plus * math.log(2.0)) + cmath.exp(-s_minus * math.log(2.0))
    assert abs(got - oracle) < 1e-15
    # and the sine closed form of the same factor
    closed = 1.0 + 2.0j * 2.0 ** (-0.5) * math.sin(math.log(2.0))
    assert abs(got - closed) < 1e-15
    assert abs(got - complex(1.0, 0.903627702793965)) < 1e-12


def test_varpi_single_factor_both_minus():
    prime_set = PrimeSet(limit=2, primes=(2,))
    cfg = VarpiConfig(prime_limit=2, sign_convention="both_minus")
    got = varpi(1.0, prime_set, cfg)
    closed = 1.0 - 2.0 * 2.0 ** (-0.5) * math.cos(math.log(2.0))
    assert abs(got - closed) < 1e-15
    assert abs(got - (-0.08786808701390902)) < 1e-12


def test_varpi_empty_primes_rejected():
    with pytest.raises(DomainError):
        varpi(1.0, PrimeSet(limit=1, primes=()), VarpiConfig(prime_limit=2))


def test_varpi_log_modulus_reassociation():
    from fraczeta.primes import _varpi_factors

    prime_set = sieve(1000)
    cfg = VarpiConfig(prime_limit=1000)
    for theta in (0.3, 0.7, 2.9):
        product = varpi(theta, prime_set, cfg)
        factors = _varpi_factors(theta, prime_set, cfg)
        log_sum = float(np.sum(np.log(np.abs(factors))))
        assert abs(math.log(abs(product)) - log_sum) < 1e-10


PRIMES_TO_2000 = sieve(2000).primes


@settings(max_examples=100, deadline=None)
@given(
    theta=st.floats(-50.0, 50.0),
    convention=st.sampled_from(["as_printed", "both_minus"]),
    picks=st.sets(st.integers(0, 302), min_size=1, max_size=120),
)
def test_varpi_within_1e12_of_two_exp_reference(theta, convention, picks):
    subset = tuple(PRIMES_TO_2000[i] for i in sorted(picks))
    prime_set = PrimeSet(limit=2000, primes=subset)
    cfg = VarpiConfig(prime_limit=2000, sign_convention=convention)
    want = _varpi_factors_reference(theta, prime_set, cfg)
    assert rel_err(_varpi_factors(theta, prime_set, cfg), want) <= 1e-12
    # a both_minus factor near a root of 1 - 2 cos(theta ln p)/sqrt(p) (p = 2
    # or 3) divides the product's relative error, on either path, by its size
    amplify = max(1.0, float(np.max(1.0 / np.abs(want))))
    assert rel_err(varpi(theta, prime_set, cfg), _guarded_product(want)) <= 1e-12 * amplify


def test_guarded_product_overflow_and_underflow():
    with pytest.raises(OverflowError):
        _guarded_product(np.full(200, 50.0, dtype=complex))
    with pytest.raises(OverflowError):
        _guarded_product(np.full(200, 0.01, dtype=complex))
    assert _guarded_product(np.full(10, 2.0, dtype=complex)) == 1024.0 + 0j


def test_guarded_product_checks_every_partial_of_every_row():
    # row 1 dips to 1e-320 and climbs back to 1: only its partials show it
    rows = np.array([[2.0, 2.0, 0.5, 0.5], [1e-160, 1e-160, 1e160, 1e160]])
    with pytest.raises(OverflowError):
        _guarded_product(rows)
    assert _guarded_product(rows[:1]).tolist() == [1.0]


def test_varpi_is_exactly_one_at_negative_zero():
    for limit in (2, 100, 10_000):
        assert varpi(-0.0, sieve(limit), VarpiConfig(prime_limit=limit)) == 1.0


def test_both_minus_factor_is_squared_modulus_less_inverse_p():
    # 1 - a - conj(a) = |1 - a|^2 - 1/p with a = p^(-1/2 - i theta)
    prime_set = sieve(10_000)
    cfg = VarpiConfig(prime_limit=10_000, sign_convention="both_minus")
    p = prime_set.array.astype(float)
    for theta in (0.37, 14.1, 33.3, 59.9):
        factors = _varpi_factors(theta, prime_set, cfg)
        identity = np.abs(1.0 - p ** complex(-0.5, -theta)) ** 2 - 1.0 / p
        assert np.max(np.abs(factors - identity)) <= 1e-15


def test_both_minus_values_are_real():
    prime_set = sieve(10_000)
    cfg = VarpiConfig(prime_limit=10_000, sign_convention="both_minus")
    for theta in (0.37, 14.1, 33.3):
        assert varpi(theta, prime_set, cfg).imag == 0.0
    _, values, _ = varpi_grid(0.1, 5.0, 0.01, prime_set, cfg)
    assert np.all(values.imag == 0.0)


PRIMES_TO_10000 = sieve(10_000)


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(-50.0, 50.0))
@example(theta=1.0462873692215732e-09)
def test_as_printed_modulus_is_at_least_one(theta):
    # every factor 1 + 2i sin(theta ln p)/sqrt(p) has modulus >= 1; near
    # theta = 1e-9 the rounded real part takes the product below 1 by up to
    # 3.5e-14 at this cutoff, well inside one eps per factor
    value = varpi(theta, PRIMES_TO_10000, VarpiConfig(prime_limit=10_000))
    assert abs(value) >= 1.0 - len(PRIMES_TO_10000) * np.finfo(float).eps


def test_varpi_config_validation():
    with pytest.raises(DomainError):
        VarpiConfig(prime_limit=1)
    with pytest.raises(DomainError):
        VarpiConfig(prime_limit=10, sign_convention="bogus")


# ------------------------------- varpi scan -----------------------------------


def test_strict_local_minima_basic():
    thetas = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    mods = np.array([3.0, 1.0, 2.0, 0.5, 4.0])
    assert strict_local_minima(thetas, mods) == [(1.0, 1.0), (3.0, 0.5)]
    flat = np.array([1.0, 1.0, 1.0])
    assert strict_local_minima(thetas[:3], flat) == []


def test_scan_empty_when_span_below_step():
    prime_set = sieve(200)
    cfg = VarpiConfig(prime_limit=200)
    assert varpi_scan(0.1, 0.105, 0.01, prime_set, cfg) == []


def test_scan_reports_zero_when_neighbors_exceed_one():
    # |varpi(0)| = 1 exactly; as_printed factor moduli are >= 1, so the
    # neighbors strictly exceed 1 and the origin is a strict minimum.
    prime_set = sieve(500)
    cfg = VarpiConfig(prime_limit=500)
    minima = varpi_scan(-0.02, 0.02, 0.01, prime_set, cfg)
    assert (0.0, 1.0) in minima


def test_scan_rerun_is_identical():
    prime_set = sieve(2000)
    cfg = VarpiConfig(prime_limit=2000, sign_convention="both_minus")
    first = varpi_scan(0.1, 2.0, 0.01, prime_set, cfg)
    second = varpi_scan(0.1, 2.0, 0.01, prime_set, cfg)
    assert first == second
    assert len(first) > 0


def test_grid_values_and_moduli():
    prime_set = sieve(300)
    cfg = VarpiConfig(prime_limit=300, sign_convention="both_minus")
    thetas, values, mods = varpi_grid(0.5, 0.9, 0.1, prime_set, cfg)
    assert thetas.tolist() == [0.5 + 0.1 * k for k in range(5)]
    for theta, value, modulus in zip(thetas, values, mods):
        assert bits(value) == bits(varpi(float(theta), prime_set, cfg))
        assert modulus == abs(value)
    minima = varpi_scan(0.5, 0.9, 0.1, prime_set, cfg)
    assert minima == strict_local_minima(thetas, mods)


def test_grid_single_point():
    prime_set = sieve(100)
    cfg = VarpiConfig(prime_limit=100)
    thetas, values, mods = varpi_grid(0.0, 0.0, 1.0, prime_set, cfg)
    assert thetas.tolist() == [0.0]
    assert values == [1.0 + 0j]
    assert mods.tolist() == [1.0]
    with pytest.raises(DomainError):
        varpi_grid(1.0, 0.5, 0.01, prime_set, cfg)
    with pytest.raises(DomainError):
        varpi_grid(0.1, 1.0, 0.0, prime_set, cfg)
    with pytest.raises(DomainError):
        varpi_scan(0.5, 0.5, 0.01, prime_set, cfg)


def test_scan_validation():
    prime_set = sieve(100)
    cfg = VarpiConfig(prime_limit=100)
    with pytest.raises(DomainError):
        varpi_scan(1.0, 0.5, 0.01, prime_set, cfg)
    with pytest.raises(DomainError):
        varpi_scan(0.1, 1.0, 0.0, prime_set, cfg)


@pytest.mark.parametrize("convention", ["as_printed", "both_minus"])
def test_grid_blocks_equal_single_points_bitwise(convention):
    prime_set = sieve(100_000)
    cfg = VarpiConfig(prime_limit=100_000, sign_convention=convention)
    rows = _GRID_BLOCK_CELLS // len(prime_set)
    count = 3 * rows + 2  # three full blocks and a partial one
    thetas, values, mods = varpi_grid(0.3, 0.3 + (count - 1) * 0.37, 0.37, prime_set, cfg)
    assert len(thetas) == count
    assert bits(values) == bits([varpi(float(t), prime_set, cfg) for t in thetas])
    assert mods.tolist() == [abs(complex(v)) for v in values]


@pytest.mark.parametrize("limit", [10_000, 100_000])
def test_grid_within_1e12_of_two_exp_reference(limit):
    prime_set = sieve(limit)
    for convention in ("as_printed", "both_minus"):
        cfg = VarpiConfig(prime_limit=limit, sign_convention=convention)
        thetas, values, _ = varpi_grid(0.5, 60.0, 5.5, prime_set, cfg)
        want = [_guarded_product(_varpi_factors_reference(t, prime_set, cfg)) for t in thetas]
        for value, ref in zip(values, want):
            assert rel_err(value, ref) <= 1e-12


def test_grid_rejects_non_finite_arguments():
    prime_set = sieve(100)
    cfg = VarpiConfig(prime_limit=100)
    for args in ((0.0, math.inf, 0.1), (-math.inf, 1.0, 0.1), (0.0, 1.0, math.inf),
                 (math.nan, 1.0, 0.1), (0.0, math.nan, 0.1), (0.0, 1.0, math.nan)):
        with pytest.raises(DomainError):
            varpi_grid(*args, prime_set, cfg)


def test_grid_point_cap_raises_limit_error_before_allocating(monkeypatch):
    prime_set = sieve(100)
    cfg = VarpiConfig(prime_limit=100)
    # without numpy, a grid that got past the cap fails instead of allocating
    monkeypatch.setattr(fraczeta.primes, "np", None)
    for lo, hi, step in ((0.0, float(GRID_POINT_CAP), 1.0),  # cap + 1 points
                         (0.0, 1e9, 1e-6), (0.0, 1.0, 1e-300), (-1e308, 1e308, 1.0)):
        with pytest.raises(LimitError):
            varpi_grid(lo, hi, step, prime_set, cfg)
    with pytest.raises(AttributeError):  # cap points pass the guard
        varpi_grid(0.0, GRID_POINT_CAP - 1.0, 1.0, prime_set, cfg)


def test_both_minus_log_modulus_tracks_inverse_zeta_squared():
    """The measured zeta reading of both_minus on theta in [10, 60], step
    0.01, cutoff 1e4 (5001 points).  Each factor is |1 - p^(-1/2-i theta)|^2
    - 1/p, so log|varpi| follows -log|zeta_X(1/2 + i theta)|^2, zeta_X the
    truncated Euler product: correlation 0.892.  Against -log|zeta|^2 from
    the eta engine it reads 0.826.  Thresholds sit 0.04 below each."""
    prime_set = sieve(10_000)
    cfg = VarpiConfig(prime_limit=10_000, sign_convention="both_minus")
    thetas, _, mods = varpi_grid(10.0, 60.0, 0.01, prime_set, cfg)
    p = prime_set.array.astype(float)
    inv_zeta_x_sq = np.empty(len(thetas))  # 1/|zeta_X|^2 = prod |1 - p^(-s)|^2
    for start in range(0, len(thetas), 64):
        x = thetas[start : start + 64, None] * prime_set.log_primes
        inv_zeta_x_sq[start : start + 64] = np.prod(1.0 + 1.0 / p - 2.0 * np.cos(x) / np.sqrt(p), axis=1)
    zeta = np.array([zeta_from_eta(complex(0.5, t)) for t in thetas])
    log_mods = np.log(mods)
    assert np.corrcoef(log_mods, np.log(inv_zeta_x_sq))[0, 1] > 0.85
    assert np.corrcoef(log_mods, -2.0 * np.log(np.abs(zeta)))[0, 1] > 0.78
