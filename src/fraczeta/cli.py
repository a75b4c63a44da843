"""Batch command-line frontend.

Every subcommand computes one table and emits it as CSV (header row, LF
endings, 17-significant-digit floats) or as a single JSON object with
"meta" and "rows" keys.  CSV carries the meta block as leading "# key:
value" comment lines.  Angles are emitted in degrees in CSV (keys and
columns suffixed _deg) and in radians in JSON meta (suffixed _rad).

Exit codes: 0 success, 2 validation or domain errors, 3 numerical
failures.
"""

from __future__ import annotations

import argparse
import cmath
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


@dataclass(frozen=True)
class OutputSpec:
    format: str
    path: str | None = None


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _fmt_meta(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return str(value)


def write_output(out: OutputSpec, header: list[str], rows: list[list], meta: dict) -> None:
    if out.format == "json":
        payload = {"meta": {**meta, "header": list(header)}, "rows": [list(r) for r in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = []
        for key, value in meta.items():
            if key.endswith("_rad") and isinstance(value, float):
                key, value = key[:-4] + "_deg", math.degrees(value)
            lines.append(f"# {key}: {_fmt_meta(value)}")
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(x) for x in row))
        text = "\n".join(lines) + "\n"
    if out.path:
        with open(out.path, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _output_spec(args) -> OutputSpec:
    return OutputSpec(format=args.format, path=args.out)


def _echo_flags(args) -> dict:
    skip = {"func"}
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
    rows = []
    for v in grid:
        z = transfer.evaluate(params, float(v))
        rows.append([float(v), z.real, z.imag, abs(z), math.degrees(cmath.phase(z))])
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
    write_output(_output_spec(args), ["v", "re", "im", "modulus", "phase_deg"], rows, meta)
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
        drive_values = np.sin(args.freq * t)
    drive = SampledSignal(h=cfg.h, values=drive_values)
    u = fracdiff.solve_relaxation(params, drive)
    rows = [[float(tk), float(ik), float(uk)] for tk, ik, uk in zip(t, drive_values, u.values)]
    meta = {"command": "relax", **_echo_flags(args)}
    if args.drive == "sin":
        period = 2.0 * math.pi / args.freq
        span = cfg.h * (cfg.steps - 1)
        if span < 4 * period:
            raise ConfigError("sin drive needs steps*h >= 4 periods for the fit")
        tail = t >= span - 2 * period
        gain = fracdiff.fit_sinusoid(t[tail], u.values[tail], args.freq)
        meta["fit_gain"] = abs(gain)
        meta["fit_phase_rad"] = cmath.phase(gain)
    write_output(_output_spec(args), ["t", "i_t", "u_t"], rows, meta)
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
    rows = [[args.mode, s.real, s.imag, value.real, value.imag, used]]
    meta = {"command": "zeta", **_echo_flags(args)}
    write_output(
        _output_spec(args),
        ["mode", "s_re", "s_im", "value_re", "value_im", "terms_used"],
        rows,
        meta,
    )
    return EXIT_OK


def cmd_zeros(args) -> int:
    found = zeta.find_zeros(args.t_from, args.t_to, args.step)
    rows = [[z.t_lo, z.t_hi, z.t_refined, z.residual] for z in found]
    meta = {"command": "zeros", **_echo_flags(args), "count": len(found)}
    write_output(
        _output_spec(args), ["t_lo", "t_hi", "t_refined", "residual"], rows, meta
    )
    return EXIT_OK


def cmd_varpi(args) -> int:
    cfg = primes.VarpiConfig(prime_limit=args.primes, sign_convention=args.convention)
    prime_set = primes.sieve(cfg.prime_limit)
    thetas, values, mods = primes.varpi_grid(args.t_from, args.t_to, args.step, prime_set, cfg)
    rows = [[float(t), v.real, v.imag, float(m)] for t, v, m in zip(thetas, values, mods)]
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
        rows,
        meta,
    )
    return EXIT_OK


def cmd_chart1(args) -> int:
    params = zeta.ChartParams(d=args.d, theta=args.theta)
    if args.terms < 1:
        raise DomainError("terms must be >= 1")
    s1, s2 = params.s1(), params.s2()
    log_n = np.log(np.arange(1, args.terms + 1, dtype=float))
    cum = {
        "inv_h": np.cumsum(np.exp(-s1 * log_n)),
        "lam_h": np.cumsum(np.exp(s1 * log_n)),
        "inv_v": np.cumsum(np.exp(-s2 * log_n)),
        "lam_v": np.cumsum(np.exp(s2 * log_n)),
    }
    eta1 = zeta.eta(s1)
    eta2 = zeta.eta(s2)
    rows = []
    for i in range(args.terms):
        rows.append(
            [
                i + 1,
                cum["inv_h"][i].real, cum["inv_h"][i].imag,
                cum["lam_h"][i].real, cum["lam_h"][i].imag,
                cum["inv_v"][i].real, cum["inv_v"][i].imag,
                cum["lam_v"][i].real, cum["lam_v"][i].imag,
                eta1.real, eta1.imag,
                eta2.real, eta2.imag,
            ]
        )
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
    write_output(_output_spec(args), header, rows, meta)
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
