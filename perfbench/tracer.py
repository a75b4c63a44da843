"""In-memory spans around calls into fraczeta's layers.

fraczeta's modules import names directly (``fraczeta.zeta`` holds its
own ``sum_alternating_info``, ``log_gamma`` and ``sieve``), so a wrapper
only sees a call when it sits on the name where the caller looks the
function up.  ``SITES`` lists those lookup sites.  Each wrapper appends
one span (name, start, end, parent, extra) to the tracer's list; the
list is only turned into numbers or written out after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from critical_line import HIGH_BAND, LOW_BAND


def _terms(args, result):
    return result[1]


def _count(args, result):
    return len(result)


def _drive_len(args, result):
    return len(args[1].values)


def _n_primes(args, result):
    return len(args[1])


def _mobius_terms(args, result):
    return args[1]


def _ordinate(args, result):
    return complex(args[0]).imag


def _written_bytes(args, result):
    path = args[0].path
    return os.path.getsize(path) if path else 0


# (module, attribute, span name, extra recorded from (args, result))
SITES = (
    ("fraczeta.zeta", "sum_alternating_info", "core.sum_alternating_info", _terms),
    ("fraczeta.zeta", "log_gamma", "core.log_gamma", None),
    ("fraczeta.transfer", "cpow_principal", "core.cpow_principal", None),
    ("fraczeta.primes", "cpow_principal", "core.cpow_principal", None),
    ("fraczeta.zeta", "find_zeros", "zeta.find_zeros", _count),
    ("fraczeta.zeta", "hardy_rotation", "zeta.hardy_rotation", None),
    ("fraczeta.zeta", "zeta_from_eta", "zeta.zeta_from_eta", _ordinate),
    ("fraczeta.zeta", "eta_info", "zeta.eta_info", None),
    ("fraczeta.zeta", "mobius_sieve", "zeta.mobius_sieve", None),
    ("fraczeta.zeta", "sieve", "zeta.sieve", None),
    ("fraczeta.zeta", "mobius_inverse_zeta", "zeta.mobius_inverse_zeta", _mobius_terms),
    ("fraczeta.zeta", "euler_product", "zeta.euler_product", None),
    ("fraczeta.fracdiff", "solve_relaxation", "fracdiff.solve_relaxation", _drive_len),
    ("fraczeta.fracdiff", "gl_weights", "fracdiff.gl_weights", None),
    ("fraczeta.fracdiff", "fit_sinusoid", "fracdiff.fit_sinusoid", None),
    ("fraczeta.fracdiff", "frequency_response_empirical",
     "fracdiff.frequency_response_empirical", None),
    ("fraczeta.transfer", "evaluate", "transfer.evaluate", None),
    ("fraczeta.primes", "sieve", "primes.sieve", _count),
    ("fraczeta.primes", "varpi", "primes.varpi", _n_primes),
    ("fraczeta.primes", "varpi_scan", "primes.varpi_scan", None),
    ("fraczeta.primes", "strict_local_minima", "primes.strict_local_minima", None),
    ("fraczeta.primes", "solve_theta_prime", "primes.solve_theta_prime", None),
    ("fraczeta.cli", "main", "cli.main", None),
    ("fraczeta.cli", "cmd_transfer", "cli.cmd_transfer", None),
    ("fraczeta.cli", "cmd_relax", "cli.cmd_relax", None),
    ("fraczeta.cli", "cmd_zeta", "cli.cmd_zeta", None),
    ("fraczeta.cli", "cmd_zeros", "cli.cmd_zeros", None),
    ("fraczeta.cli", "cmd_varpi", "cli.cmd_varpi", None),
    ("fraczeta.cli", "cmd_chart1", "cli.cmd_chart1", None),
    ("fraczeta.cli", "write_output", "cli.write_output", _written_bytes),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level call
    extra: float | None = None


@dataclass
class Tracer:
    """Owns the span list and the patched lookup sites of one run."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, fn, name, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extra is not None:
                span.extra = extra(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, extra in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, extra))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def dump(spans: list[Span], path) -> None:
    with open(path, "w") as handle:
        for i, s in enumerate(spans):
            handle.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "extra": s.extra}) + "\n")


# ------------------------------ metrics -------------------------------------

CALLS = (
    "core.sum_alternating_info", "core.log_gamma", "core.cpow_principal",
    "zeta.hardy_rotation", "zeta.zeta_from_eta", "fracdiff.solve_relaxation",
    "transfer.evaluate", "primes.sieve", "primes.varpi", "cli.write_output",
)
SELF = (
    "core.sum_alternating_info", "core.log_gamma", "core.cpow_principal",
    "zeta.find_zeros", "zeta.hardy_rotation", "zeta.zeta_from_eta",
    "zeta.eta_info", "zeta.mobius_sieve", "zeta.sieve",
    "zeta.mobius_inverse_zeta", "zeta.euler_product",
    "fracdiff.solve_relaxation", "fracdiff.gl_weights",
    "fracdiff.fit_sinusoid", "fracdiff.frequency_response_empirical",
    "transfer.evaluate", "primes.sieve", "primes.varpi", "primes.varpi_scan",
    "primes.strict_local_minima", "primes.solve_theta_prime",
    "cli.main", "cli.cmd_transfer", "cli.cmd_relax", "cli.cmd_zeta",
    "cli.cmd_zeros", "cli.cmd_varpi", "cli.cmd_chart1", "cli.write_output",
)
# Per-layer metrics that are not a plain count or self time.
DERIVED = {
    "core.sum_alternating_info.terms_per_call": "count",
    "zeta.evals_per_zero": "count",
    "zeta.zeta_from_eta.low_p90_ms": "ms",
    "zeta.zeta_from_eta.high_p90_ms": "ms",
    "zeta.mobius_terms_per_s": "1/s",
    "fracdiff.solve_relaxation.samples": "count",
    "fracdiff.memory_madds": "count",
    "fracdiff.memory_gmadds_per_s": "Gmadd/s",
    "primes.sieve.primes_per_s": "1/s",
    "primes.factor_evals": "count",
    "cli.write_output.bytes": "bytes",
    "cli.write_output.mb_per_s": "MB/s",
}


def metric_units() -> dict[str, str]:
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({f"{n}.self_s": "s" for n in SELF})
    units.update(DERIVED)
    return units


def _p90_ms(durations: list[float]) -> float:
    if len(durations) < 100:  # fewer than ten samples beyond the p90
        return 0.0
    return statistics.quantiles(durations, n=10)[-1] * 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def round_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced round."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    extra: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    selftime: dict[str, float] = defaultdict(float)
    low, high = [], []
    for i, s in enumerate(spans):
        dur = s.end - s.start
        calls[s.name] += 1
        total[s.name] += dur
        selftime[s.name] += dur - child[i]
        if s.extra is not None:
            extra[s.name] += s.extra
        if s.name == "zeta.zeta_from_eta" and s.parent < 0:
            if LOW_BAND[0] <= s.extra < LOW_BAND[1]:
                low.append(dur)
            elif HIGH_BAND[0] <= s.extra < HIGH_BAND[1]:
                high.append(dur)
    madds = sum(s.extra * (s.extra - 1) / 2 for s in spans
                if s.name == "fracdiff.solve_relaxation")
    out = {f"{n}.calls": float(calls[n]) for n in CALLS}
    out.update({f"{n}.self_s": selftime[n] for n in SELF})
    out.update({
        "core.sum_alternating_info.terms_per_call": _ratio(
            extra["core.sum_alternating_info"], calls["core.sum_alternating_info"]),
        "zeta.evals_per_zero": _ratio(calls["zeta.hardy_rotation"],
                                      extra["zeta.find_zeros"]),
        "zeta.zeta_from_eta.low_p90_ms": _p90_ms(low),
        "zeta.zeta_from_eta.high_p90_ms": _p90_ms(high),
        "zeta.mobius_terms_per_s": _ratio(extra["zeta.mobius_inverse_zeta"],
                                          total["zeta.mobius_inverse_zeta"]),
        "fracdiff.solve_relaxation.samples": extra["fracdiff.solve_relaxation"],
        "fracdiff.memory_madds": madds,
        "fracdiff.memory_gmadds_per_s": _ratio(
            madds / 1e9, selftime["fracdiff.solve_relaxation"]),
        "primes.sieve.primes_per_s": _ratio(extra["primes.sieve"],
                                            total["primes.sieve"]),
        "primes.factor_evals": extra["primes.varpi"],
        "cli.write_output.bytes": extra["cli.write_output"],
        "cli.write_output.mb_per_s": _ratio(extra["cli.write_output"] / 1e6,
                                            selftime["cli.write_output"]),
    })
    return out
