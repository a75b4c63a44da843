"""Rounds, timed operations and the statistics the workloads share."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Round:
    """One pass over a workload's fixed job list.

    ``call`` times one operation into the program and counts it; an
    operation that raises is counted as failed, keeps its place in the
    job list with a time of None, and yields None.
    """

    ops: list[tuple[str, float | None]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    wall: float = 0.0
    results: int = 0  # the workload's headline results, for results_per_s

    def call(self, kind: str, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failed += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            self.ops.append((kind, None))
            return None
        self.ops.append((kind, time.perf_counter() - start))
        return result

    def record(self, kind: str, seconds: float, ok: bool, error: str = "") -> None:
        """Count an operation timed by the caller (a subprocess, say)."""
        self.attempted += 1
        self.ops.append((kind, seconds if ok else None))
        if not ok:
            self.failed += 1
            self.errors.append(f"{kind}: {error}")

    def times(self, kind: str) -> list[float | None]:
        return [dt for k, dt in self.ops if k == kind]


def median_times(rounds: list[Round], kind: str) -> list[float]:
    """Each operation's median time over the rounds, by its place in the job list.

    Every round runs the same job list on inputs of the same make-up, so
    the i-th operation of a kind is like work in every round.  Other load
    on the shared machine slows a whole process by up to 2x, in stretches
    of seconds to minutes; a run's median moves with how much of the run
    such load covered, its best time with whether any quiet moment fell
    in it at all, and over ten-run sets the median moved least.  A failed
    operation (time None) is left out of its place's median.
    """
    per_round = [r.times(kind) for r in rounds]
    return [statistics.median(t for t in times if t is not None)
            for times in zip(*per_round) if any(t is not None for t in times)]


def median_total(rounds: list[Round]) -> float:
    """The job list's time with every operation at its median over the rounds."""
    kinds = dict.fromkeys(kind for kind, _ in rounds[0].ops)
    return sum(sum(median_times(rounds, kind)) for kind in kinds)


def median_mean_ms(rounds: list[Round], kind: str) -> float:
    return statistics.fmean(median_times(rounds, kind)) * 1e3


def median_rate(rounds: list[Round], *kinds: str) -> float:
    """Headline results of one round per second of its median times of ``kinds``."""
    return rounds[0].results / sum(sum(median_times(rounds, kind)) for kind in kinds)


def stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """n points in [lo, hi), one uniform draw in each of n equal strata.

    The points then spread alike for every seed, so their mean cost
    barely moves with the seed.
    """
    width = (hi - lo) / n
    return [float(lo + (i + u) * width) for i, u in enumerate(rng.random(n))]
