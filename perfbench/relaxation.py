"""relaxation: long step-drive solves and a frequency-response sweep.

The quadratic memory kernel of ``solve_relaxation`` (``np.dot`` on
growing slices) does nearly all the work.  Every step solve draws a
fresh order d, so no two solves in a run share (params, h); the five
fits of a round's sweep share one params and h = 1e-3, with an order
drawn afresh for every round.  A faster solver shows on both; a
per-(params, h) cache can only show on the sweep, and only within a
round.
"""

from __future__ import annotations

import math
import time

import numpy as np

import fraczeta
import oracles
from harness import Round, median_mean_ms, median_rate

STEP_SAMPLES = 100_000
STEP_H = 1e-3
SOLVES_PER_ROUND = 3
D_RANGE = (1.2, 4.0)
SWEEP_D_RANGE = (1.5, 3.5)
SWEEP_H = 1e-3
SWEEP_CYCLES = 12
SWEEP_V = (1.5, 2.0, 3.0, 4.0, 6.0)  # longest drive 50 266 samples
WARMUP_SAMPLES = 30_000
SOLVE_TOL = 1e-9
SYMBOL_TOL = 1e-4
COLE_COLE_TOL = 2e-2


def setup(rng: np.random.Generator, small: bool = False) -> dict:
    state = {
        "rng": rng,
        "samples": 5_000 if small else STEP_SAMPLES,
        "solves": 2 if small else SOLVES_PER_ROUND,
        "sweep_v": (4.0, 6.0) if small else SWEEP_V,
        "cycles": 10 if small else SWEEP_CYCLES,
    }
    warm = fraczeta.ColeColeParams(z0=1.0, vc=1.0, d=2.0)
    # The first np.dot above OpenBLAS's threading threshold (1e4 elements)
    # can stall for about a second while the thread pool starts; this
    # warm-up solve takes that stall so that no timed solve does.
    start = time.perf_counter()
    fraczeta.fracdiff.solve_relaxation(
        warm, fraczeta.SampledSignal(h=STEP_H, values=np.ones(WARMUP_SAMPLES)))
    state["warmup_solve_s"] = time.perf_counter() - start
    fraczeta.fracdiff.frequency_response_empirical(warm, 6.0, 10, SWEEP_H)
    return state


def sweep_samples(v: float, cycles: int) -> int:
    """Samples of the drive that covers ``cycles`` periods of sin(v t) at SWEEP_H."""
    return round(cycles * (2.0 * math.pi / v) / SWEEP_H) + 1


def run_round(state: dict, rnd: Round) -> dict:
    rng = state["rng"]
    drive = fraczeta.SampledSignal(h=STEP_H, values=np.ones(state["samples"]))
    solves = []
    for _ in range(state["solves"]):
        d = float(rng.uniform(*D_RANGE))
        params = fraczeta.ColeColeParams(z0=1.0, vc=1.0, d=d)
        u = rnd.call("solve", fraczeta.fracdiff.solve_relaxation, params, drive)
        solves.append((d, None if u is None else u.values))
    sweep_d = float(rng.uniform(*SWEEP_D_RANGE))
    sweep = fraczeta.ColeColeParams(z0=1.0, vc=1.0, d=sweep_d)
    gains = [rnd.call("fit", fraczeta.fracdiff.frequency_response_empirical,
                      sweep, v, state["cycles"], SWEEP_H)
             for v in state["sweep_v"]]
    # results: samples solved, step drives and sweep drives alike
    rnd.results = state["solves"] * state["samples"] + sum(
        sweep_samples(v, state["cycles"]) for v in state["sweep_v"])
    return {"solves": solves, "sweep_d": sweep_d, "gains": gains}


def check_solve(d: float, values) -> list[str]:
    if values is None:  # counted as failed
        return []
    exact = oracles.relaxation_exact(d, 1.0, 1.0, STEP_H, np.ones(len(values)))
    err = float(np.max(np.abs(values - exact)))
    return [] if err <= SOLVE_TOL else [f"solve at d={d!r}: {err:.3g} off the exact scheme"]


def check_gain(d: float, v: float, gain) -> list[str]:
    if gain is None:  # counted as failed
        return []
    problems = []
    symbol = oracles.scheme_symbol(d, 1.0, 1.0, SWEEP_H, v)
    if not abs(gain - symbol) <= SYMBOL_TOL:
        problems.append(f"gain at v={v!r} is {abs(gain - symbol):.3g} off the scheme symbol")
    if not abs(gain - oracles.cole_cole(d, 1.0, 1.0, v)) <= COLE_COLE_TOL:
        problems.append(f"gain at v={v!r} is off the Cole-Cole Z(v)")
    return problems


def check(state: dict, out: dict, first: dict | None = None) -> list[str]:
    """Every solve and every gain of every round: each round has fresh orders."""
    problems = [p for d, u in out["solves"] for p in check_solve(d, u)]
    for v, gain in zip(state["sweep_v"], out["gains"]):
        problems += check_gain(out["sweep_d"], v, gain)
    return problems


def end_to_end(state: dict, rounds: list[Round]) -> dict:
    return {
        "light_mean_ms": median_mean_ms(rounds, "fit"),
        "heavy_mean_ms": median_mean_ms(rounds, "solve"),
        "results_per_s": median_rate(rounds, "solve", "fit"),
    }
