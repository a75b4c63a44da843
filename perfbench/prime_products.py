"""prime-products: one large sieve, many reads of small prime sets.

``sieve(10**7)`` builds a 1e7 mask and 664 579 primes; the varpi scans
then read a 1229- or 9592-prime set once per theta point.  A change to
the PrimeSet representation that helps one use and costs the other shows
as ``heavy_mean_ms`` (the big sieve) against ``light_mean_ms`` (one
varpi at cutoff 1e4, a read of the 1229-prime set).  Mobius and Euler
cross-checks ride along.

Every round draws fresh inputs: the big sieve's limit, the theta grid's
offset, the theta points and the Mobius term count.  Only the two small
sieves, at the fixed cutoffs 1e4 and 1e5, repeat their inputs.
"""

from __future__ import annotations

import math

import numpy as np

import fraczeta
import oracles
from harness import Round, median_mean_ms, median_rate, stratified

BIG_LIMIT = 10**7
BIG_EXTRA = 1000  # each round sieves to BIG_LIMIT plus a seeded 0..999
CUTOFFS = (10**4, 10**5)
CONVENTIONS = ("as_printed", "both_minus")
THETA_LO, THETA_HI, STEP = 0.1, 5.0, 0.01
POINTS = 50  # seeded theta per round and convention where varpi is read at cutoff 1e4
LARGE_POINTS = 2  # the same at cutoff 1e5: the first two of them
MOBIUS_TERMS = 10**6
MOBIUS_EXTRA = 1000
SAMPLE = 200  # primes and non-primes checked with sympy.isprime
VARPI_TOL = 1e-10
MODULUS_TOL = 1e-9


def grid_points(step: float) -> int:
    return round((THETA_HI - THETA_LO) / step) + 1


def grid(lo: float, step: float) -> np.ndarray:
    """The theta points of a scan from lo, as varpi_scan lays them out."""
    return lo + step * np.arange(grid_points(step))


def setup(rng: np.random.Generator, small: bool = False) -> dict:
    state = {
        "rng": rng,
        "big": 10**6 if small else BIG_LIMIT,
        "cutoffs": CUTOFFS[:1] if small else CUTOFFS,
        "step": 0.05 if small else STEP,
        "mobius_terms": 10**5 if small else MOBIUS_TERMS,
        "points": 10 if small else POINTS,
    }
    # one untimed call per operation class
    small_set = fraczeta.primes.sieve(1000)
    for convention in CONVENTIONS:
        cfg = fraczeta.VarpiConfig(prime_limit=1000, sign_convention=convention)
        fraczeta.primes.varpi_scan(THETA_LO, 1.0, 0.1, small_set, cfg)
    fraczeta.zeta.mobius_inverse_zeta(2.0, 1000)
    fraczeta.zeta.euler_product(2.0, small_set)
    return state


def run_round(state: dict, rnd: Round) -> dict:
    rng = state["rng"]
    step = state["step"]
    out = {"limit": state["big"] + int(rng.integers(BIG_EXTRA)),
           # the grid moves by a seeded part of a step; its point count stays
           "theta_lo": THETA_LO + float(rng.random()) * step,
           # theta = 0, then seeded theta in equal strata of [THETA_LO, THETA_HI)
           "thetas": [0.0] + stratified(rng, THETA_LO, THETA_HI, state["points"]),
           "mobius_terms": state["mobius_terms"] + int(rng.integers(MOBIUS_EXTRA)),
           "sets": {}, "minima": {}, "points": {}}
    out["big"] = rnd.call("sieve", fraczeta.primes.sieve, out["limit"])
    lo = out["theta_lo"]
    hi = lo + (grid_points(step) - 0.5) * step
    for cutoff in state["cutoffs"]:
        out["sets"][cutoff] = prime_set = rnd.call("small_sieve", fraczeta.primes.sieve, cutoff)
        kind = "scan_small" if cutoff == CUTOFFS[0] else "scan_large"
        for convention in CONVENTIONS:
            cfg = fraczeta.VarpiConfig(prime_limit=cutoff, sign_convention=convention)
            out["minima"][cutoff, convention] = rnd.call(
                kind, fraczeta.primes.varpi_scan, lo, hi, step, prime_set, cfg)
            small_set = cutoff == CUTOFFS[0]
            for theta in out["thetas"] if small_set else out["thetas"][:1 + LARGE_POINTS]:
                out["points"][cutoff, convention, theta] = rnd.call(
                    "point" if small_set else "point_large", fraczeta.primes.varpi,
                    theta, prime_set, cfg)
    rnd.results = grid_points(step) * len(out["minima"])  # theta points scanned
    out["mobius"] = rnd.call("mobius", fraczeta.zeta.mobius_inverse_zeta, 2.0,
                             out["mobius_terms"])
    out["euler"] = rnd.call("euler", fraczeta.zeta.euler_product, 2.0, out["big"])
    return out


def check_prime_set(prime_set, limit: int, rng: np.random.Generator,
                    base: int | None = None) -> list[str]:
    """pi(base) from the table, the primes in (base, limit] from sympy, and
    seeded samples of returned and omitted integers through sympy.isprime."""
    if prime_set is None:  # counted as failed
        return []
    base = limit if base is None else base
    primes = np.asarray(prime_set.primes)
    below = int(np.searchsorted(primes, base, side="right"))
    if below != oracles.PRIME_COUNTS[base]:
        return [f"sieve({limit}) returned {below} primes up to {base}, "
                f"pi({base}) = {oracles.PRIME_COUNTS[base]}"]
    if primes[below:].tolist() != oracles.primes_between(base, limit):
        return [f"sieve({limit}) is off sympy.primerange above {base}"]
    problems = [f"sieve({limit}) returned the composite {p}"
                for p in rng.choice(primes, SAMPLE) if not oracles.is_prime(p)]
    candidates = rng.integers(2, limit + 1, 4 * SAMPLE)
    at = np.minimum(np.searchsorted(primes, candidates), len(primes) - 1)
    omitted = candidates[primes[at] != candidates][:SAMPLE]
    problems += [f"sieve({limit}) omitted the prime {n}"
                 for n in omitted if oracles.is_prime(n)]
    return problems


def check_minima(minima, primes: np.ndarray, convention: str, lo: float,
                 step: float) -> list[str]:
    """Reported minima of a scan from lo against moduli from closed forms."""
    if minima is None:  # counted as failed
        return []
    thetas = grid(lo, step)
    mods = oracles.varpi_moduli(thetas, primes, convention)
    problems = []
    reported = set()
    for theta, modulus in minima:
        k = round((theta - lo) / step)
        reported.add(k)
        if not (0 < k < len(mods) - 1 and abs(thetas[k] - theta) <= 1e-12):
            problems.append(f"minimum at theta={theta!r} is not an interior grid point")
            continue
        if oracles.rel_err(modulus, mods[k]) > MODULUS_TOL:
            problems.append(f"|varpi({theta!r})| = {modulus!r}, closed form {mods[k]!r}")
        if not modulus < min(mods[k - 1], mods[k + 1]) * (1 + MODULUS_TOL):
            problems.append(f"theta={theta!r} is not a local minimum of |varpi|")
    inner = mods[1:-1]
    clear = np.nonzero((inner * (1 + MODULUS_TOL) < mods[:-2])
                       & (inner * (1 + MODULUS_TOL) < mods[2:]))[0] + 1
    problems += [f"local minimum at theta={thetas[k]!r} not reported"
                 for k in clear if k not in reported]
    return problems


def check_points(out: dict, cutoff: int, convention: str, primes: np.ndarray,
                 compared: set) -> list[str]:
    """varpi(0) = 1 under as_printed; every |varpi| against the closed-form
    moduli; the complex values in ``compared`` against mpmath.fprod."""
    problems = []
    points = {theta: value for (c, conv, theta), value in out["points"].items()
              if (c, conv) == (cutoff, convention) and value is not None}
    if convention == "as_printed" and points.get(0.0, 1) != 1:
        problems.append(f"varpi(0) at cutoff {cutoff} is {points[0.0]!r}, not 1")
    thetas = sorted(points)
    mods = oracles.varpi_moduli(np.array(thetas), primes, convention)
    problems += [f"|varpi({theta!r}, {cutoff}, {convention})| = {abs(points[theta])!r}, "
                 f"closed form {mod!r}" for theta, mod in zip(thetas, mods)
                 if oracles.rel_err(abs(points[theta]), mod) > MODULUS_TOL]
    for theta in thetas:
        if (cutoff, convention, theta) in compared:
            ref = oracles.varpi_mp(theta, primes, convention)
            if oracles.rel_err(points[theta], ref) > VARPI_TOL:
                problems.append(f"varpi({theta!r}, {cutoff}, {convention}) = "
                                f"{points[theta]!r}, mpmath.fprod {ref!r}")
    return problems


def check(state: dict, out: dict, first: dict | None = None) -> list[str]:
    """Every sieve, every varpi modulus, varpi(0) and the Mobius and Euler
    sums in every round.  The minima of every scan and varpi against
    mpmath.fprod at two seeded theta (both conventions at cutoff 1e4, the
    first theta under as_printed at 1e5) in the first round; in later
    rounds the minima of one seeded scan, and mpmath.fprod at one seeded
    theta and convention at cutoff 1e4 (a 1229-factor product at 30 digits
    costs about 0.2 s, a 9592-factor one 1 s, the closed-form moduli of a
    cutoff-1e5 scan 0.15 s)."""
    rng = state["rng"]
    problems = check_prime_set(out["big"], out["limit"], rng, base=state["big"])
    scans = list(out["minima"])
    seeded = out["thetas"][1:]
    if first is None:
        compared = {(CUTOFFS[0], convention, theta)
                    for convention in CONVENTIONS for theta in seeded[:2]}
        compared.add((CUTOFFS[-1], "as_printed", seeded[0]))
    else:
        theta = seeded[int(rng.integers(len(seeded)))]
        compared = {(CUTOFFS[0], CONVENTIONS[int(rng.integers(len(CONVENTIONS)))], theta)}
        scans = [scans[int(rng.integers(len(scans)))]]
    for cutoff in state["cutoffs"]:
        problems += check_prime_set(out["sets"][cutoff], cutoff, rng)
        if out["sets"][cutoff] is None:
            continue
        primes = np.asarray(out["sets"][cutoff].primes)
        for convention in CONVENTIONS:
            if (cutoff, convention) in scans:
                problems += check_minima(out["minima"][cutoff, convention], primes,
                                         convention, out["theta_lo"], state["step"])
            problems += check_points(out, cutoff, convention, primes, compared)
    n = out["mobius_terms"]
    if out["mobius"] is not None and not abs(out["mobius"] - 6 / math.pi**2) <= 1 / n:
        problems.append(f"mobius_inverse_zeta(2, {n}) = {out['mobius']!r}")
    if out["euler"] is not None and oracles.rel_err(out["euler"], math.pi**2 / 6) > 2 / out["limit"]:
        problems.append(f"euler_product(2, primes <= {out['limit']}) = {out['euler']!r}")
    return problems


def end_to_end(state: dict, rounds: list[Round]) -> dict:
    return {
        "light_mean_ms": median_mean_ms(rounds, "point"),
        "heavy_mean_ms": median_mean_ms(rounds, "sieve"),
        "results_per_s": median_rate(rounds, "scan_small", "scan_large"),
    }
