"""critical-line: zero finding and zeta points at low and high ordinates.

Nearly all the time is in the accelerated eta sum, log-gamma and the
grid and bisection of ``find_zeros``.  Low ordinates need Chebyshev
degree 50-180; from t ~ 300 every call runs at the degree cap of 400, so
the two bands of zeta points separate an eta-engine change that helps
one height from one that helps the other.  No fracdiff, primes or cli
code runs here.
"""

from __future__ import annotations

import numpy as np

import fraczeta
import oracles
from harness import Round, median_mean_ms, median_rate, stratified

WINDOWS = oracles.ZERO_WINDOWS
SMALL_WINDOWS = ((10.0, 30.0),)
# Each round scans with grid step 400/k for a k drawn from the seed: the
# lattice points differ from round to round, and 400 stays on the lattice,
# so the zero at t = 399.985 stays bracketed.
GRID_END = 400.0
GRID_DIVISIONS = (8000, 8200)  # step 0.05 down to 0.0488
LOW_BAND = (0.0, 100.0)
HIGH_BAND = (200.0, 380.0)
BAND_POINTS = 100  # per band and round: p90 then has ten samples beyond it
CHECKED_POINTS = 20  # per band, in every round after the first
ZERO_TOL = 1e-7
ZETA_TOL = 1e-8


def setup(rng: np.random.Generator, small: bool = False) -> dict:
    state = {
        "rng": rng,
        "windows": SMALL_WINDOWS if small else WINDOWS,
        "points": 10 if small else BAND_POINTS,
    }
    # one untimed call per operation class
    fraczeta.zeta.find_zeros(10.0, 15.0)
    fraczeta.zeta.zeta_from_eta(complex(0.5, LOW_BAND[1] / 2))
    fraczeta.zeta.zeta_from_eta(complex(0.5, sum(HIGH_BAND) / 2))
    return state


def run_round(state: dict, rnd: Round) -> dict:
    """Fresh inputs every round: a new grid step and new band points."""
    rng = state["rng"]
    step = GRID_END / int(rng.integers(*GRID_DIVISIONS))
    low_t = stratified(rng, *LOW_BAND, state["points"])
    high_t = stratified(rng, *HIGH_BAND, state["points"])
    zeros = [rnd.call("zeros", fraczeta.zeta.find_zeros, lo, hi, step)
             for lo, hi in state["windows"]]
    low = [rnd.call("low", fraczeta.zeta.zeta_from_eta, complex(0.5, t)) for t in low_t]
    high = [rnd.call("high", fraczeta.zeta.zeta_from_eta, complex(0.5, t)) for t in high_t]
    rnd.results = sum(len(z) for z in zeros if z is not None)
    return {"step": step, "zeros": zeros,
            "low": list(zip(low_t, low)), "high": list(zip(high_t, high))}


def check_zeros(window: tuple[float, float], found) -> list[str]:
    """Count against mpmath.nzeros, ordinates against mpmath.zetazero."""
    table = oracles.zetazero_table()
    expected = oracles.zero_indices(*window)
    if found is None:  # counted as failed
        return []
    if len(found) != len(expected):
        return [f"find_zeros{window}: {len(found)} zeros, mpmath.nzeros says {len(expected)}"]
    return [f"zero {k}: t = {z.t_refined!r}, mpmath {table[k]!r}"
            for k, z in zip(expected, found)
            if not abs(z.t_refined - table[k]) <= ZERO_TOL]


def check(state: dict, out: dict, first: dict | None = None) -> list[str]:
    """Every zero of every round; every zeta point of the first round and a
    seeded sample of CHECKED_POINTS per band in later ones (mpmath.zeta
    costs about 8 ms a point near t = 300)."""
    problems = []
    for window, found in zip(state["windows"], out["zeros"]):
        problems += check_zeros(window, found)
    for band in ("low", "high"):
        points = out[band]
        if first is not None:
            picked = state["rng"].choice(len(points), min(CHECKED_POINTS, len(points)),
                                         replace=False)
            points = [points[i] for i in sorted(picked)]
        for t, value in points:
            if value is not None and not abs(value - oracles.zeta_critical(t)) <= ZETA_TOL:
                problems.append(f"zeta(1/2 + {t!r}i) = {value!r} is off mpmath.zeta")
    return problems


def end_to_end(state: dict, rounds: list[Round]) -> dict:
    return {
        "light_mean_ms": median_mean_ms(rounds, "low"),
        "heavy_mean_ms": median_mean_ms(rounds, "high"),
        "results_per_s": median_rate(rounds, "zeros"),
    }
