"""Batch command-line frontend.

Every subcommand computes one table and emits it as CSV (header row, LF
endings, 17-significant-digit floats) or as a single JSON object with
"meta" and "rows" keys.  CSV carries the meta block as leading "# key:
value" comment lines.  Angles are emitted in degrees in CSV (keys and
columns suffixed _deg) and in radians in JSON meta (suffixed _rad).

Commands hand ``write_output`` one column per header name, plus the row
count.  A column is an ndarray, list or range of one cell type; a bare
scalar is a constant column.  Each column is formatted in one pass.

Exit codes: 0 success, 2 validation or domain errors, 3 numerical
failures.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fracdiff, primes, transfer, zeta
from .core import ToleranceConfig
from .errors import ConfigError, ConvergenceError, DomainError, LimitError
from .fracdiff import SampledSignal, SolverConfig
from .transfer import ColeColeParams

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
_WRITE_BLOCK_ROWS = 1 << 16  # rows formatted and written at a time


@dataclass(frozen=True)
class OutputSpec:
    format: str
    path: str | None = None


def _fmt_meta(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return str(value)


def _csv_cells(values: list) -> list[str]:
    floats = bool(values) and isinstance(values[0], float)
    return list(map("%.17g".__mod__ if floats else str, values))


# item separator "\n": an encoded scalar never holds a raw newline
_JSON_CELLS = json.JSONEncoder(separators=("\n", ": "))


def _json_cells(values: list) -> list[str]:
    return _JSON_CELLS.encode(values)[1:-1].split("\n") if values else []


def _cells(column, start: int, stop: int, encode) -> list[str]:
    """Rows start..stop-1 of one column, formatted."""
    if isinstance(column, np.ndarray):
        return encode(column[start:stop].tolist())
    if isinstance(column, (list, range)):
        return encode(list(column[start:stop]))
    return encode([column]) * (stop - start)


def _row_blocks(columns: list, n_rows: int, encode):
    """The rows of formatted cells, in blocks of at most _WRITE_BLOCK_ROWS."""
    for start in range(0, n_rows, _WRITE_BLOCK_ROWS):
        stop = min(start + _WRITE_BLOCK_ROWS, n_rows)
        yield zip(*(_cells(col, start, stop, encode) for col in columns))


def _chunks(out: OutputSpec, header: list[str], columns: list, n_rows: int, meta: dict):
    """The output text, one block of rows at a time."""
    if out.format == "json":
        # json.dumps's indent=2 layout, with the closing "\n}" cut off for the rows
        head = json.dumps({"meta": {**meta, "header": list(header)}}, indent=2)[:-2]
        if not n_rows:
            yield head + ',\n  "rows": []\n}\n'
            return
        yield head + ',\n  "rows": [\n    [\n      '
        row_sep = "\n    ],\n    [\n      "
        for k, rows in enumerate(_row_blocks(columns, n_rows, _json_cells)):
            yield (row_sep if k else "") + row_sep.join(map(",\n      ".join, rows))
        yield "\n    ]\n  ]\n}\n"
        return
    lines = []
    for key, value in meta.items():
        if key.endswith("_rad") and isinstance(value, float):
            key, value = key[:-4] + "_deg", math.degrees(value)
        lines.append(f"# {key}: {_fmt_meta(value)}")
    lines.append(",".join(header))
    yield "\n".join(lines) + "\n"
    for rows in _row_blocks(columns, n_rows, _csv_cells):
        yield "\n".join(map(",".join, rows)) + "\n"


def write_output(
    out: OutputSpec, header: list[str], columns: list, n_rows: int, meta: dict
) -> None:
    """Emit ``n_rows`` rows of ``columns`` (one per header name) as CSV or
    JSON, formatting and writing one block of rows at a time."""
    with open(out.path, "w", newline="") if out.path else contextlib.nullcontext(sys.stdout) as handle:
        for chunk in _chunks(out, header, columns, n_rows, meta):
            handle.write(chunk)


def _output_spec(args) -> OutputSpec:
    return OutputSpec(format=args.format, path=args.out)


def _echo_flags(args) -> dict:
    skip = {"func", "out"}  # the destination is not part of the output
    return {k: v for k, v in vars(args).items() if k not in skip}


# ------------------------------- commands ---------------------------------


def cmd_transfer(args) -> int:
    params = ColeColeParams(z0=args.z0, vc=args.vc, d=args.d)
    if not args.vmin < args.vmax:
        raise DomainError("vmin must be < vmax")
    if args.points < 2:
        raise DomainError("points must be >= 2")
    if args.log and args.vmin <= 0:
        raise DomainError("log spacing needs vmin > 0")
    if args.vmin < 0:
        raise DomainError("vmin must be >= 0")
    idx = np.arange(args.points)
    if args.log:
        grid = args.vmin * (args.vmax / args.vmin) ** (idx / (args.points - 1))
    else:
        grid = args.vmin + (args.vmax - args.vmin) * idx / (args.points - 1)
    z = [transfer.evaluate(params, float(v)) for v in grid]
    zs = np.array(z)
    phase_deg = [math.degrees(cmath.phase(w)) for w in z]
    columns = [grid, zs.real, zs.imag, list(map(abs, z)), phase_deg]
    arc = transfer.arc_geometry(params)
    meta = {
        "command": "transfer",
        **_echo_flags(args),
        "arc_center_re": arc.center.real,
        "arc_center_im": arc.center.imag,
        "arc_radius": arc.radius,
        "arc_chord": arc.chord,
        "depression_angle_rad": arc.depression_angle,
    }
    header = ["v", "re", "im", "modulus", "phase_deg"]
    write_output(_output_spec(args), header, columns, len(z), meta)
    return EXIT_OK


def cmd_relax(args) -> int:
    params = ColeColeParams(z0=args.z0, vc=args.vc, d=args.d)
    cfg = SolverConfig(h=args.h, steps=args.steps)
    t = cfg.h * np.arange(cfg.steps)
    if args.drive == "step":
        drive_values = np.ones(cfg.steps)
    else:
        if not args.freq > 0:
            raise DomainError("freq must be > 0")
        period = 2.0 * math.pi / args.freq
        span = cfg.h * (cfg.steps - 1)
        if span < 4 * period:
            raise ConfigError("sin drive needs steps*h >= 4 periods for the fit")
        drive_values = np.sin(args.freq * t)
    drive = SampledSignal(h=cfg.h, values=drive_values)
    u = fracdiff.solve_relaxation(params, drive)
    meta = {"command": "relax", **_echo_flags(args)}
    if args.drive == "sin":
        tail = t >= span - 2 * period
        gain = fracdiff.fit_sinusoid(t[tail], u.values[tail], args.freq)
        meta["fit_gain"] = abs(gain)
        meta["fit_phase_rad"] = cmath.phase(gain)
    columns = [t, drive_values, u.values]
    write_output(_output_spec(args), ["t", "i_t", "u_t"], columns, cfg.steps, meta)
    return EXIT_OK


def cmd_zeta(args) -> int:
    if args.sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    # Modes with Re(s) > 1 need sigma beyond the strip, so s is assembled
    # directly; the strip parameterisation itself is s_point's business.
    s = complex(args.sigma, args.sign * args.theta)
    cfg = ToleranceConfig(abs_tol=args.tol, max_terms=args.max_terms)
    if args.mode == "eta":
        value, used = zeta.eta_info(s, cfg)
    elif args.mode == "zeta":
        value, used = zeta.zeta_from_eta_info(s, cfg)
    elif args.mode == "direct":
        value, used = zeta.zeta_direct(s, args.terms), args.terms
    elif args.mode == "mobius":
        value, used = zeta.mobius_inverse_zeta(s, args.terms), args.terms
    else:
        prime_set = primes.sieve(args.prime_limit)
        value, used = zeta.euler_product(s, prime_set), len(prime_set)
    meta = {"command": "zeta", **_echo_flags(args)}
    write_output(
        _output_spec(args),
        ["mode", "s_re", "s_im", "value_re", "value_im", "terms_used"],
        [args.mode, s.real, s.imag, value.real, value.imag, used],
        1,
        meta,
    )
    return EXIT_OK


def cmd_zeros(args) -> int:
    found = zeta.find_zeros(args.t_from, args.t_to, args.step)
    header = ["t_lo", "t_hi", "t_refined", "residual"]
    columns = [[getattr(z, name) for z in found] for name in header]
    meta = {"command": "zeros", **_echo_flags(args), "count": len(found)}
    write_output(_output_spec(args), header, columns, len(found), meta)
    return EXIT_OK


def cmd_varpi(args) -> int:
    cfg = primes.VarpiConfig(prime_limit=args.primes, sign_convention=args.convention)
    primes.grid_size(args.t_from, args.t_to, args.step)  # a bad grid fails before the sieve
    prime_set = primes.sieve(cfg.prime_limit)
    thetas, values, mods = primes.varpi_grid(args.t_from, args.t_to, args.step, prime_set, cfg)
    minima = primes.strict_local_minima(thetas, mods)
    reference = [
        [sol.p, sol.k, sol.sign, sol.theta_prime]
        for p in (2, 3, 5, 7, 11, 13, 17, 19)
        for sol in primes.solve_theta_prime(p, branches=2)
    ]
    meta = {
        "command": "varpi",
        **_echo_flags(args),
        "n_primes": len(prime_set),
        "minima": [[t, m] for t, m in minima],
        "theta_reference": reference,
    }
    write_output(
        _output_spec(args),
        ["theta_prime", "varpi_re", "varpi_im", "modulus"],
        [thetas, np.real(values), np.imag(values), mods],
        len(thetas),
        meta,
    )
    return EXIT_OK


def cmd_chart1(args) -> int:
    params = zeta.ChartParams(d=args.d, theta=args.theta)
    cumulative = zeta.chart1_partials(params, args.terms).cumulative
    s1, s2 = params.s1(), params.s2()
    eta1 = zeta.eta(s1)
    eta2 = zeta.eta(s2)
    columns = [range(1, args.terms + 1)]
    for partial in cumulative:
        columns += [partial.real, partial.imag]
    columns += [eta1.real, eta1.imag, eta2.real, eta2.imag]
    meta = {
        "command": "chart1",
        **_echo_flags(args),
        "conjugate_exponent": transfer.conjugate_exponent(args.d),
        "s1_re": s1.real, "s1_im": s1.imag,
        "s2_re": s2.real, "s2_im": s2.imag,
    }
    header = [
        "n",
        "inv_xi_h_re", "inv_xi_h_im",
        "lambda_h_re", "lambda_h_im",
        "inv_xi_v_re", "inv_xi_v_im",
        "lambda_v_re", "lambda_v_im",
        "eta_s1_re", "eta_s1_im",
        "eta_s2_re", "eta_s2_im",
    ]
    write_output(_output_spec(args), header, columns, args.terms, meta)
    return EXIT_OK


# -------------------------------- parser -----------------------------------


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraczeta",
        description="Cole-Cole transfer functions, fractional relaxation, "
        "eta/zeta evaluation, critical-line zeros and prime-product scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transfer", help="frequency sweep of the transfer function")
    p.add_argument("--z0", type=float, default=1.0)
    p.add_argument("--vc", type=float, default=1.0)
    p.add_argument("--d", type=float, default=2.0)
    p.add_argument("--vmin", type=float, default=1e-3)
    p.add_argument("--vmax", type=float, default=1e3)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--log", action="store_true", help="logarithmic frequency spacing")
    _add_output_args(p)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("relax", help="time-domain relaxation under a drive")
    p.add_argument("--z0", type=float, default=1.0)
    p.add_argument("--vc", type=float, default=1.0)
    p.add_argument("--d", type=float, default=2.0)
    p.add_argument("--drive", choices=("step", "sin"), default="step")
    p.add_argument("--freq", type=float, default=1.0, help="angular drive frequency for sin")
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=10_000)
    _add_output_args(p)
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("zeta", help="eta/zeta/direct/mobius/euler point evaluation")
    p.add_argument("--mode", choices=("eta", "zeta", "direct", "mobius", "euler"),
                   default="zeta")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--sign", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-terms", type=int, default=1_000_000, dest="max_terms")
    p.add_argument("--terms", type=int, default=1_000_000,
                   help="partial-sum length for direct/mobius modes")
    p.add_argument("--prime-limit", type=int, default=100_000, dest="prime_limit")
    _add_output_args(p)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("zeros", help="critical-line zero scan")
    p.add_argument("--from", type=float, required=True, dest="t_from")
    p.add_argument("--to", type=float, required=True, dest="t_to")
    p.add_argument("--step", type=float, default=0.05)
    _add_output_args(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("varpi", help="theta'-scan of the truncated prime product")
    p.add_argument("--from", type=float, required=True, dest="t_from")
    p.add_argument("--to", type=float, required=True, dest="t_to")
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--primes", type=int, default=10_000, help="prime cutoff")
    p.add_argument("--convention", choices=("as_printed", "both_minus"),
                   default="as_printed")
    _add_output_args(p)
    p.set_defaults(func=cmd_varpi)

    p = sub.add_parser("chart1", help="partial distance sums and eta columns")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--terms", type=int, default=100)
    _add_output_args(p)
    p.set_defaults(func=cmd_chart1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ConfigError, LimitError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, OverflowError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
