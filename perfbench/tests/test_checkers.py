"""Each workload's checks pass real outputs and reject perturbed ones."""

import dataclasses
import json

import numpy as np
import pytest

import cli_batch
import critical_line
import prime_products
import relaxation
import run
from harness import Round, median_times


def small_round(module, seed=5):
    state = module.setup(np.random.default_rng(seed), small=True)
    rnd = Round()
    out = module.run_round(state, rnd)
    assert rnd.failed == 0, rnd.errors
    return state, out


@pytest.fixture(scope="module")
def zeros_round():
    return small_round(critical_line)


@pytest.fixture(scope="module")
def relax_round():
    return small_round(relaxation)


@pytest.fixture(scope="module")
def primes_round():
    return small_round(prime_products)


@pytest.fixture(scope="module")
def cli_round():
    return small_round(cli_batch)


@pytest.mark.parametrize("fixture", ["zeros_round", "relax_round", "primes_round", "cli_round"])
def test_real_outputs_pass(fixture, request):
    state, out = request.getfixturevalue(fixture)
    module = {"zeros_round": critical_line, "relax_round": relaxation,
              "primes_round": prime_products, "cli_round": cli_batch}[fixture]
    assert module.check(state, out) == []
    assert module.check(state, out, out) == []


def test_zero_shifted_by_1e6_is_rejected(zeros_round):
    state, out = zeros_round
    zeros = list(out["zeros"][0])
    zeros[1] = dataclasses.replace(zeros[1], t_refined=zeros[1].t_refined + 1e-6)
    assert critical_line.check(state, {**out, "zeros": [zeros]})


def test_missing_zero_is_rejected(zeros_round):
    state, out = zeros_round
    assert critical_line.check(state, {**out, "zeros": [out["zeros"][0][:-1]]})


def test_zeta_point_off_by_1e7_is_rejected(zeros_round):
    state, out = zeros_round
    high = list(out["high"])
    t, value = high[3]
    high[3] = (t, value + 1e-7)
    assert critical_line.check(state, {**out, "high": high})


def test_gain_off_by_1e3_is_rejected(relax_round):
    state, out = relax_round
    gains = list(out["gains"])
    gains[0] += 1e-3
    assert relaxation.check(state, {**out, "gains": gains})


def test_solve_off_by_1e8_is_rejected(relax_round):
    state, out = relax_round
    d, u = out["solves"][0]
    u = u.copy()
    u[len(u) // 2] += 1e-8
    assert relaxation.check(state, {**out, "solves": [(d, u)]})


def test_dropped_prime_is_rejected(primes_round):
    state, out = primes_round
    big = out["big"]
    dropped = dataclasses.replace(big, primes=big.primes[:100] + big.primes[101:])
    assert prime_products.check(state, {**out, "big": dropped})


def test_shifted_minimum_is_rejected(primes_round):
    state, out = primes_round
    key = next(iter(out["minima"]))
    minima = list(out["minima"][key])
    theta, modulus = minima[0]
    minima[0] = (theta + state["step"], modulus)
    assert prime_products.check(state, {**out, "minima": {**out["minima"], key: minima}})


def test_varpi_value_off_by_1e9_is_rejected(primes_round):
    state, out = primes_round
    key = next(k for k in out["points"] if k[2] != 0.0)
    points = {**out["points"], key: out["points"][key] * (1 + 1e-9)}
    assert prime_products.check(state, {**out, "points": points})


@pytest.mark.parametrize("name", ["transfer", "relax-sin", "zeros", "varpi",
                                  "chart1", "chart1-json", "relax-2e4"])
def test_altered_cli_row_is_rejected(cli_round, name):
    state, out = cli_round
    meta, header, rows = cli_batch.parse(out[name])
    row = len(rows) // 2
    if out[name].startswith(b"{"):
        rows[row][1] *= 1 + 1e-3
        altered = json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    else:  # CSV: alter the last cell of one data row
        lines = out[name].decode().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1 + row
        cells = lines[at].rstrip("\n").split(",")
        cells[-1] = repr(float(cells[-1]) * (1 + 1e-3) + 1e-6)
        lines[at] = ",".join(cells) + "\n"
        altered = "".join(lines)
    assert cli_batch.check(state, {**out, name: altered.encode()})


def test_failed_operation_keeps_its_place_in_the_job_list():
    broken = Round()
    broken.call("k", lambda: None)
    broken.call("k", int, "not a number")  # raises ValueError
    broken.call("k", lambda: None)
    assert broken.failed == 1 and broken.times("k")[1] is None
    slow = Round(ops=[("k", 5.0)] * 3)
    fast = Round(ops=[("k", 1.0)] * 3)
    # place 1 has two times, 5 and 1; the other places three, 5, 1 and about 0
    assert median_times([slow, broken, fast], "k") == [1.0, 3.0, 1.0]


def test_failed_operation_makes_the_run_incorrect(monkeypatch, capsys):
    import fraczeta

    find_zeros = fraczeta.zeta.find_zeros

    def broken(t_lo, t_hi, *args):
        if t_hi > 20.0:  # the small window, not the warm-up scan
            raise RuntimeError("broken on purpose")
        return find_zeros(t_lo, t_hi, *args)

    monkeypatch.setattr(fraczeta.zeta, "find_zeros", broken)
    args = run.parse_args(["--workload", "critical-line", "--seed", "3", "--seconds", "0",
                           "--trace", "0", "--small"])
    assert run.run(args) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["failed"] >= 1 and not result["correct"] and result["metrics"] == {}
