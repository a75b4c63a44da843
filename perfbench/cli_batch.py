"""cli-batch: every subcommand, run as a subprocess of the same interpreter.

The only workload that pays interpreter and numpy import on every
command, and the only one that runs the CLI's own formatting
(``write_output``) and the loops the CLI re-implements (``cmd_varpi``,
``cmd_chart1``, ``cmd_relax``).  The light commands are README
examples; the heavy ones add large outputs (2000 transfer points, 2e4
relaxation steps, 2e4 chart1 terms in CSV and JSON, 491 varpi rows) and
larger computations (zeros on 10-60, an Euler product over the primes
to 1e6).  The traced run calls ``fraczeta.cli.main`` in-process
with ``--out`` pointing into the results directory.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fraczeta.cli
import oracles
import prime_products
from harness import Round, median_mean_ms, median_rate

COMMAND_TIMEOUT_S = 120
ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / "perfbench" / "results" / "cli"


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    heavy: bool


def commands(rng: np.random.Generator, small: bool = False) -> list[Command]:
    d_transfer, d_relax, d_chart = (float(x) for x in rng.uniform(1.5, 3.5, 3))
    theta = float(rng.uniform(0.0, 30.0))
    # The README examples, less those that run the same subcommand and mode
    # as a large command below (relax step, zeta euler, zeros): every
    # command is timed in each round, so a shorter job list gives more
    # rounds, and more samples of each command, in a run.
    readme = [
        ("transfer", "transfer --z0 1 --vc 1 --d 2 --vmin 0.001 --vmax 1000 --points 50 --log"),
        ("relax-sin", "relax --d 2 --drive sin --freq 1 --vc 1 --h 0.01 --steps 7600"),
        ("zeta", "zeta --mode zeta --sigma 0.5 --theta 14.134725"),
        ("zeta-mobius", "zeta --mode mobius --sigma 2 --terms 1000000"),
        ("chart1", "chart1 --d 2 --theta 5 --terms 100"),
    ]
    large = [
        ("transfer-2000", f"transfer --d {d_transfer!r} --vmin 0.001 --vmax 1000 --points 2000 --log"),
        ("relax-2e4", f"relax --d {d_relax!r} --drive step --h 0.001 --steps 20000"),
        ("chart1-csv", f"chart1 --d {d_chart!r} --theta {theta!r} --terms 20000"),
        ("chart1-json", f"chart1 --d {d_chart!r} --theta {theta!r} --terms 20000 --format json"),
        ("varpi", "varpi --from 0.1 --to 5 --step 0.01 --primes 10000 --convention both_minus"),
        ("zeros", "zeros --from 10 --to 60"),
        ("zeta-euler-1e6", "zeta --mode euler --sigma 2 --prime-limit 1000000"),
    ]
    if small:
        readme = [c for c in readme if c[0] in ("transfer", "relax-sin", "zeta", "chart1")]
        large = [(name, argv.replace("20000", "500").replace("2000 ", "200 ")
                  .replace("--to 60", "--to 30"))
                 for name, argv in large
                 if name in ("transfer-2000", "relax-2e4", "chart1-json", "varpi", "zeros")]
    return ([Command(n, tuple(a.split()), False) for n, a in readme]
            + [Command(n, tuple(a.split()), True) for n, a in large])


def setup(rng: np.random.Generator, small: bool = False) -> dict:
    state = {"rng": rng, "commands": commands(rng, small), "inprocess": False}
    # one untimed subcommand, through the same path as the timed ones
    run_subprocess(state, Command("warm-up", tuple("zeta --theta 14".split()), False))
    return state


def run_subprocess(state: dict, cmd: Command) -> tuple[float, int, bytes, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fraczeta.cli", *cmd.argv],
                          cwd=ROOT, env=env, capture_output=True,
                          timeout=COMMAND_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr.decode()


def run_inprocess(cmd: Command) -> bytes:
    OUTDIR.mkdir(parents=True, exist_ok=True)
    path = OUTDIR / f"{cmd.name}.out"
    code = fraczeta.cli.main([*cmd.argv, "--out", str(path)])
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return path.read_bytes()


def run_round(state: dict, rnd: Round) -> dict:
    out = {}
    for cmd in state["commands"]:
        kind = "heavy" if cmd.heavy else "light"
        if state["inprocess"]:
            out[cmd.name] = rnd.call(kind, run_inprocess, cmd)
            continue
        seconds, code, stdout, stderr = run_subprocess(state, cmd)
        rnd.record(kind, seconds, code == 0, f"{cmd.name} exit {code}: {stderr.strip()}")
        out[cmd.name] = stdout if code == 0 else None
    rnd.results = sum(text is not None for text in out.values())
    return out


# ------------------------------- parsing ------------------------------------


def parse(text: bytes) -> tuple[dict, list[str], list[list]]:
    """(meta, header, rows) of a CSV or JSON output; CSV cells stay strings."""
    s = text.decode()
    if s.startswith("{"):
        payload = json.loads(s)
        meta = payload["meta"]
        return meta, meta["header"], payload["rows"]
    meta, body = {}, []
    for line in s.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    table = list(csv.reader(io.StringIO("\n".join(body))))
    return meta, table[0], table[1:]


def _column(header, rows, name) -> np.ndarray:
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


# ------------------------------- checks -------------------------------------


def check_transfer(argv, meta, header, rows, rng) -> list[str]:
    d = float(_flag(argv, "--d", 2.0))
    n = int(_flag(argv, "--points", 50))
    vmin, vmax = float(_flag(argv, "--vmin")), float(_flag(argv, "--vmax"))
    if len(rows) != n:
        return [f"transfer: {len(rows)} rows, asked for {n}"]
    v = _column(header, rows, "v")
    z = _column(header, rows, "re") + 1j * _column(header, rows, "im")
    grid = vmin * (vmax / vmin) ** (np.arange(n) / (n - 1))
    ref = np.array([oracles.cole_cole(d, 1.0, 1.0, x) for x in grid])
    problems = []
    if np.max(np.abs(v - grid) / grid) > 1e-12:
        problems.append("transfer: frequency grid is off")
    if np.max(np.abs(z - ref)) > 1e-12:
        problems.append("transfer: Z(v) rows are off the closed form")
    if np.max(np.abs(_column(header, rows, "modulus") - np.abs(ref))) > 1e-12:
        problems.append("transfer: modulus column is off the closed form")
    if np.max(np.abs(_column(header, rows, "phase_deg") - np.degrees(np.angle(ref)))) > 1e-9:
        problems.append("transfer: phase column is off the closed form")
    center = float(meta["arc_center_re"]) + 1j * float(meta["arc_center_im"])
    radius = float(meta["arc_radius"])
    if np.max(np.abs(np.abs(z - center) - radius)) > 1e-9 * radius:
        problems.append("transfer: rows do not lie on the reported arc")
    return problems


def check_relax(argv, meta, header, rows, rng) -> list[str]:
    d, h = float(_flag(argv, "--d")), float(_flag(argv, "--h"))
    steps = int(_flag(argv, "--steps"))
    if len(rows) != steps:
        return [f"relax: {len(rows)} rows, asked for {steps}"]
    t, i_t, u = (_column(header, rows, c) for c in ("t", "i_t", "u_t"))
    problems = []
    if np.max(np.abs(t - h * np.arange(steps))) > 1e-9:
        problems.append("relax: time column is off the grid")
    if _flag(argv, "--drive") == "sin":
        freq = float(_flag(argv, "--freq"))
        if np.max(np.abs(i_t - np.sin(freq * h * np.arange(steps)))) > 1e-12:
            problems.append("relax: drive column is not sin(freq t)")
        gain = oracles.scheme_symbol(d, float(_flag(argv, "--vc", 1.0)), 1.0, h, freq)
        if abs(float(meta["fit_gain"]) - abs(gain)) > 1e-4:
            problems.append(f"relax: fit_gain {meta['fit_gain']} off the scheme symbol {abs(gain)!r}")
    elif not np.all(i_t == 1.0):
        problems.append("relax: step drive column is not 1")
    exact = oracles.relaxation_exact(d, float(_flag(argv, "--vc", 1.0)), 1.0, h, i_t)
    err = float(np.max(np.abs(u - exact)))
    if err > 1e-9:
        problems.append(f"relax: u_t is {err:.3g} off the exact discrete solution")
    return problems


def check_zeta(argv, meta, header, rows, rng) -> list[str]:
    if len(rows) != 1:
        return [f"zeta: {len(rows)} rows, expected 1"]
    row = dict(zip(header, rows[0]))
    value = float(row["value_re"]) + 1j * float(row["value_im"])
    mode = row["mode"]
    if mode == "zeta":
        ref = oracles.zeta_critical(float(row["s_im"]))
        ok = abs(value - ref) <= 1e-8
    elif mode == "euler":
        ok = oracles.rel_err(value, math.pi**2 / 6) <= 2 / float(_flag(argv, "--prime-limit"))
    else:
        ok = abs(value - 6 / math.pi**2) <= 1 / float(_flag(argv, "--terms"))
    return [] if ok else [f"zeta --mode {mode}: {value!r} fails its oracle"]


def check_zeros(argv, meta, header, rows, rng) -> list[str]:
    window = (float(_flag(argv, "--from")), float(_flag(argv, "--to")))
    expected = oracles.zero_indices(*window)
    if len(rows) != len(expected) or int(meta["count"]) != len(expected):
        return [f"zeros {window}: {len(rows)} rows, mpmath.nzeros says {len(expected)}"]
    table = oracles.zetazero_table()
    t = _column(header, rows, "t_refined")
    residual = _column(header, rows, "residual")
    problems = [f"zeros: row {i} t = {t[i]!r}, mpmath {table[k]!r}"
                for i, k in enumerate(expected) if abs(t[i] - table[k]) > 1e-7]
    problems += [f"zeros: row {i} residual {residual[i]!r} is not |zeta| there"
                 for i in range(len(rows))
                 if abs(residual[i] - abs(oracles.zeta_critical(t[i]))) > 1e-8]
    return problems


def check_varpi(argv, meta, header, rows, rng) -> list[str]:
    cutoff = int(_flag(argv, "--primes"))
    convention = _flag(argv, "--convention")
    step = float(_flag(argv, "--step"))
    n = prime_products.grid_points(step)
    if len(rows) != n:
        return [f"varpi: {len(rows)} rows, expected {n}"]
    primes = np.array([p for p in range(2, cutoff + 1) if oracles.is_prime(p)])
    theta = _column(header, rows, "theta_prime")
    mods = oracles.varpi_moduli(theta, primes, convention)
    problems = []
    if np.max(np.abs(_column(header, rows, "modulus") - mods) / mods) > 1e-9:
        problems.append("varpi: modulus column is off the closed form")
    for i in rng.choice(n, 2, replace=False):
        value = float(rows[i][1]) + 1j * float(rows[i][2])
        if oracles.rel_err(value, oracles.varpi_mp(theta[i], primes, convention)) > 1e-10:
            problems.append(f"varpi: row {i} is off mpmath.fprod")
    minima = [tuple(m) for m in json.loads(meta["minima"])]
    problems += ["varpi: " + p for p in
                 prime_products.check_minima(minima, primes, convention,
                                             float(_flag(argv, "--from")), step)]
    for p, k, sign, value in json.loads(meta["theta_reference"]):
        if abs(value - oracles.theta_branch(p, k, sign)) > 1e-15:
            problems.append(f"varpi: theta reference ({p}, {k}, {sign}) is off its closed form")
    return problems


def check_chart1(argv, meta, header, rows, rng) -> list[str]:
    d, theta = float(_flag(argv, "--d")), float(_flag(argv, "--theta", 0.0))
    terms = int(_flag(argv, "--terms"))
    if len(rows) != terms:
        return [f"chart1: {len(rows)} rows, asked for {terms}"]
    if [int(r[0]) for r in rows] != list(range(1, terms + 1)):
        return ["chart1: n column is not 1..terms"]
    s1 = complex(1.0 / d, theta)
    s2 = complex(1.0 - 1.0 / d, theta)
    problems = []
    sample = sorted({0, terms - 1, *rng.choice(terms, min(terms, 4), replace=False)})
    for col, s in (("inv_xi_h", -s1), ("lambda_h", s1), ("inv_xi_v", -s2), ("lambda_v", s2)):
        re, im = _column(header, rows, col + "_re"), _column(header, rows, col + "_im")
        powers = [n ** s for n in range(1, terms + 1)]
        # every row adds its own term to the row before it ...
        partial = re + 1j * im
        step = np.abs(np.diff(partial) - np.array(powers[1:]))
        slack = 1e-9 * np.abs(powers[1:]) + 1e-15 * (np.abs(partial[1:]) + np.abs(partial[:-1]))
        if partial[0] != powers[0] or np.any(step > slack):
            problems.append(f"chart1: {col} rows do not add up term by term")
        # ... and seeded rows match partial sums summed exactly
        for i in sample:
            prefix = powers[: i + 1]
            ref = complex(math.fsum(z.real for z in prefix), math.fsum(z.imag for z in prefix))
            scale = math.fsum(abs(z) for z in prefix)
            if abs(complex(re[i], im[i]) - ref) > 1e-9 * scale:
                problems.append(f"chart1: {col} row {i + 1} is off its fsum partial sum")
    for col, s in (("eta_s1", s1), ("eta_s2", s2)):
        ref = oracles.altzeta(s)
        values = _column(header, rows, col + "_re") + 1j * _column(header, rows, col + "_im")
        if np.max(np.abs(values - ref)) > 1e-8:
            problems.append(f"chart1: {col} is off mpmath.altzeta")
    return problems


def check_output(cmd: Command, text: bytes | None, rng) -> list[str]:
    if text is None:  # counted as failed
        return []
    try:
        meta, header, rows = parse(text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{cmd.name}: output does not parse ({exc})"]
    try:
        problems = CHECKS[cmd.argv[0]](cmd.argv, meta, header, rows, rng)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{cmd.name}: malformed output ({type(exc).__name__}: {exc})"]
    return [f"{cmd.name}: {p}" for p in problems]


CHECKS = {"transfer": check_transfer, "relax": check_relax, "zeta": check_zeta,
          "zeros": check_zeros, "varpi": check_varpi, "chart1": check_chart1}


def check(state: dict, out: dict, first: dict | None = None) -> list[str]:
    if first is not None:
        return [f"{name}: output differs from the first round"
                for name in out if out[name] != first[name]]
    problems = []
    for cmd in state["commands"]:
        problems += check_output(cmd, out[cmd.name], state["rng"])
    csv_rows = out.get("chart1-csv")
    json_rows = out.get("chart1-json")
    if csv_rows and json_rows:
        _, _, a = parse(csv_rows)
        _, _, b = parse(json_rows)
        if [[float(x) for x in r] for r in a] != [[float(x) for x in r] for r in b]:
            problems.append("chart1: CSV and JSON rows differ")
    return problems


def end_to_end(state: dict, rounds: list[Round]) -> dict:
    return {
        "light_mean_ms": median_mean_ms(rounds, "light"),
        "heavy_mean_ms": median_mean_ms(rounds, "heavy"),
        "results_per_s": median_rate(rounds, "light", "heavy"),
    }
