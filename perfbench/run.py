"""The fraczeta benchmark: one command, four workloads.

    python3 perfbench/run.py --workload critical-line --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory.  With ``--trace 0`` the last line of standard output
is a JSON object holding the end-to-end metrics; with ``--trace 1``
untraced and traced rounds alternate and it holds the per-layer
metrics.  Diagnostics go to standard error.  The exit code is 0 only
when every output passed its checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = {
    "critical-line": "critical_line",
    "relaxation": "relaxation",
    "prime-products": "prime_products",
    "cli-batch": "cli_batch",
}
SETUP_PROBES = 6  # fresh processes that repeat the set-up, for the setup_s median
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "light_mean_ms": "ms",
                    "heavy_mean_ms": "ms", "results_per_s": "1/s"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time; whole rounds run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print its time and exit")
    return parser.parse_args(argv)


def timed_setup(args):
    """Import fraczeta, build the seeded inputs, warm up; all of it timed.

    numpy is imported before the clock starts.  Its import, 0.10-0.17 s
    on a 2-vCPU shared Xeon, is most of a library workload's set-up
    and moves with the state of the machine (page cache, other load) far
    more than anything fraczeta does at set-up; it is a cost of numpy,
    which fraczeta cannot do without.
    """
    import numpy as np

    start = time.perf_counter()
    import fraczeta

    if Path(fraczeta.__file__).resolve().parent != SRC / "fraczeta":
        raise SystemExit(f"fraczeta imported from {fraczeta.__file__}, not {SRC}")
    module = importlib.import_module(WORKLOADS[args.workload])
    state = module.setup(np.random.default_rng(args.seed), small=args.small)
    return time.perf_counter() - start, module, state


def probe_setup(args) -> float:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.small:
        argv.append("--small")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def import_seconds() -> float:
    """Median time of ``import fraczeta.cli`` in three fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import fraczeta.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        times.append(float(proc.stdout))
    return statistics.median(times)


def run(args) -> int:
    if not (SRC / "fraczeta" / "__init__.py").is_file():
        print(f"no fraczeta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s, module, state = timed_setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s]

    from harness import Round, median_total
    from tracer import Tracer, dump, metric_units, round_metrics

    RESULTS.mkdir(exist_ok=True)

    tracer = Tracer() if args.trace else None
    if args.workload == "cli-batch":
        state["inprocess"] = bool(args.trace)  # traced and untraced rounds alike
    untraced, traced_walls, per_round = [], [], []
    problems, first = [], None
    attempted = failed = 0
    measured = 0.0
    while not untraced or measured < args.seconds:
        for traced in (False, True) if tracer else (False,):
            rnd = Round()
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                outputs = module.run_round(state, rnd)
            finally:
                rnd.wall = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
            measured += rnd.wall
            attempted += rnd.attempted
            failed += rnd.failed
            for error in rnd.errors:
                print(f"failed: {error}", file=sys.stderr)
            problems += module.check(state, outputs, first)
            first = first or outputs
            if traced:
                spans = tracer.take()
                if not per_round:
                    dump(spans, RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
                per_round.append(round_metrics(spans))
                traced_walls.append(rnd.wall)
            else:
                untraced.append(rnd)
        if len(setups) <= SETUP_PROBES:  # probes spread over the run, outside the timing
            setups.append(probe_setup(args))
    setups += [probe_setup(args) for _ in range(SETUP_PROBES + 1 - len(setups))]

    (RESULTS / f"rounds-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"setups": setups, "traced_walls": traced_walls,
                    "rounds": [{"wall": r.wall, "ops": r.ops, "results": r.results}
                               for r in untraced]}))
    typical = statistics.median(r.wall for r in untraced)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced_walls)} traced rounds, setups {['%.3f' % s for s in setups]}",
          file=sys.stderr)
    if "warmup_solve_s" in state:
        print(f"warm-up solve of 3e4 samples: {state['warmup_solve_s']:.3f} s",
              file=sys.stderr)
    if failed:  # a missing output is a wrong output
        problems.append(f"{failed} of {attempted} operations failed")
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)

    if failed:  # no timing stands for a job list that did not run whole
        units = {}
    elif tracer:
        units = metric_units()
        values = {name: statistics.median(m[name] for m in per_round) for name in units}
        overhead = statistics.median(traced_walls) - typical
        units.update({"trace.overhead_s": "s", "trace.overhead_pct": "%", "cli.import_s": "s"})
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / typical
        values["cli.import_s"] = import_seconds() if args.workload == "cli-batch" else 0.0
    else:
        units = END_TO_END_UNITS
        values = {"setup_s": statistics.median(setups), "run_s": median_total(untraced),
                  **module.end_to_end(state, untraced)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(run(parse_args()))
