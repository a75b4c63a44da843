import contextlib
import io
import json
import math
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraczeta.cli
import fraczeta.fracdiff
import fraczeta.primes
import fraczeta.zeta
from fraczeta.cli import OutputSpec, main, write_output


# The row-wise writer the columnar ``write_output`` replaced, kept verbatim
# as the byte-for-byte oracle for the output format.
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


def _write_output_reference(out: OutputSpec, header: list[str], rows: list[list], meta: dict) -> None:
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


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def parse_csv(path):
    meta = {}
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def as_number(token):
    try:
        return float(token)
    except ValueError:
        return token


# -------------------------------- transfer -----------------------------------


def test_transfer_sweep_rows_and_arc_meta(tmp_path):
    code, out = run_to_file(
        tmp_path,
        "t.csv",
        ["transfer", "--z0", "1", "--vc", "1", "--d", "2", "--vmin", "0.001",
         "--vmax", "1000", "--points", "50", "--log"],
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["v", "re", "im", "modulus", "phase_deg"]
    assert len(rows) == 50
    nearest = min(rows, key=lambda r: abs(float(r[0]) - 1.0))
    assert abs(float(nearest[1]) - 0.5) < 0.03
    assert abs(float(meta["arc_center_re"]) - 0.5) < 1e-12
    assert abs(float(meta["arc_center_im"]) - 0.5) < 1e-12
    # CSV meta carries the angle in degrees
    assert abs(float(meta["depression_angle_deg"]) - 45.0) < 1e-9


def test_transfer_rejects_bad_order(capsys):
    code = main(["transfer", "--d", "0.5"])
    assert code == 2
    assert "d must be ≥ 1" in capsys.readouterr().err


def test_transfer_debye_meta_json(tmp_path):
    code, out = run_to_file(
        tmp_path, "t.json",
        ["transfer", "--z0", "1", "--vc", "1", "--d", "1", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["meta"]["arc_center_re"] - 0.5) < 1e-12
    assert abs(payload["meta"]["arc_center_im"]) < 1e-12
    # JSON meta carries the angle in radians
    assert payload["meta"]["depression_angle_rad"] == 0.0


# --------------------------------- relax -------------------------------------


def test_relax_step_saturates(tmp_path):
    code, out = run_to_file(
        tmp_path, "r.csv",
        ["relax", "--d", "1", "--drive", "step", "--h", "0.001", "--steps", "10000"],
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 10_000
    assert abs(float(rows[-1][2]) - 1.0) < 0.01


def test_relax_sin_fit_meta(tmp_path):
    code, out = run_to_file(
        tmp_path, "r.csv",
        ["relax", "--d", "2", "--drive", "sin", "--freq", "1", "--vc", "1",
         "--h", "0.01", "--steps", "7600"],
    )
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert abs(float(meta["fit_gain"]) - 0.5412) < 0.02 * 0.5412
    assert abs(float(meta["fit_phase_deg"]) + 22.5) < 0.5


def test_relax_sin_too_short_fails_before_solving(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_relaxation ran before the span check")

    monkeypatch.setattr(fraczeta.fracdiff, "solve_relaxation", no_solve)
    code = main(["relax", "--drive", "sin", "--freq", "1", "--h", "0.01", "--steps", "100"])
    assert code == 2
    assert "sin drive needs steps*h >= 4 periods for the fit" in capsys.readouterr().err


def test_relax_step_guard(capsys):
    assert main(["relax", "--steps", "200000"]) == 2
    assert "steps" in capsys.readouterr().err


# --------------------------------- zeta ---------------------------------------


def test_zeta_pole_exit(capsys):
    code = main(["zeta", "--mode", "zeta", "--sigma", "1", "--theta", "0"])
    assert code == 2
    assert "PoleError" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["mobius", "direct"])
def test_zeta_oversized_terms_exit2_before_allocating(monkeypatch, capsys, mode):
    # without numpy, a call that got past the cap fails instead of allocating
    monkeypatch.setattr(fraczeta.zeta, "np", None)
    code = main(["zeta", "--mode", mode, "--sigma", "2", "--theta", "0",
                 "--terms", "2000000000"])
    assert code == 2
    assert "LimitError" in capsys.readouterr().err


def test_zeta_first_zero_small_modulus(tmp_path):
    code, out = run_to_file(
        tmp_path, "z.csv",
        ["zeta", "--mode", "zeta", "--sigma", "0.5", "--theta", "14.134725"],
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    value = complex(float(rows[0][3]), float(rows[0][4]))
    assert abs(value) < 1e-4


def test_zeta_euler_needs_right_half_plane(capsys):
    code = main(["zeta", "--mode", "euler", "--sigma", "1", "--theta", "0"])
    assert code == 2
    assert "DomainError" in capsys.readouterr().err


def test_zeta_euler_value(tmp_path):
    code, out = run_to_file(
        tmp_path, "z.csv",
        ["zeta", "--mode", "euler", "--sigma", "2", "--theta", "0",
         "--prime-limit", "10000"],
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert abs(float(rows[0][3]) - math.pi**2 / 6.0) < 1e-4
    assert int(rows[0][5]) == 1229  # primes below 1e4


def test_zeta_convergence_failure_exit3(capsys):
    code = main(
        ["zeta", "--mode", "eta", "--sigma", "0.5", "--theta", "25",
         "--tol", "1e-15", "--max-terms", "30"]
    )
    assert code == 3
    assert "ConvergenceError" in capsys.readouterr().err


def test_zeta_at_documented_ordinate_limit_matches_mpmath(tmp_path):
    code, out = run_to_file(
        tmp_path, "z.csv", ["zeta", "--mode", "zeta", "--theta", "400"]
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    value = complex(float(rows[0][3]), float(rows[0][4]))
    assert abs(value - complex(mpmath.zeta(mpmath.mpc(0.5, 400)))) < 1e-8


def test_zeta_past_documented_ordinate_limit_exit3(capsys):
    # the accelerated sum's degree cap (400 terms) runs out near t = 410
    assert main(["zeta", "--mode", "zeta", "--theta", "420"]) == 3
    assert "ConvergenceError" in capsys.readouterr().err


# --------------------------------- zeros --------------------------------------


def test_zeros_scan_10_30(tmp_path):
    code, out = run_to_file(tmp_path, "zz.csv", ["zeros", "--from", "10", "--to", "30"])
    assert code == 0
    _, _, rows = parse_csv(out)
    refined = [float(r[2]) for r in rows]
    assert len(refined) == 3
    for got, want in zip(refined, (14.134725, 21.022040, 25.010858)):
        assert abs(got - want) < 1e-4


def test_zeros_none_found(tmp_path):
    code, out = run_to_file(tmp_path, "zz.csv", ["zeros", "--from", "0", "--to", "5"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows == []


def test_zeros_reversed_range(capsys):
    assert main(["zeros", "--from", "30", "--to", "10"]) == 2
    capsys.readouterr()


# --------------------------------- varpi --------------------------------------


def test_varpi_single_point_exact_unity(tmp_path):
    code, out = run_to_file(
        tmp_path, "v.csv",
        ["varpi", "--from", "0", "--to", "0", "--step", "1", "--primes", "100"],
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0][3]) == 1.0


def test_varpi_reference_rows_in_meta(tmp_path):
    code, out = run_to_file(
        tmp_path, "v.json",
        ["varpi", "--from", "0", "--to", "0.5", "--step", "0.1", "--primes", "50",
         "--format", "json"],
    )
    assert code == 0
    meta = json.loads(out.read_text())["meta"]
    reference = meta["theta_reference"]
    assert [row[0] for row in reference[:3]] == [2, 2, 2]
    first = [row for row in reference if row[:3] == [2, 0, 1]][0]
    assert abs(first[3] - math.pi / (6 * math.log(2))) < 1e-15


def test_varpi_prime_limit_guard(capsys):
    assert main(["varpi", "--from", "0", "--to", "1", "--step", "0.5",
                 "--primes", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("grid, error", [
    (["--to", "inf", "--step", "0.1"], "DomainError"),
    (["--to", "nan", "--step", "0.1"], "DomainError"),
    (["--to", "1e9", "--step", "1e-6"], "LimitError"),
    (["--to", "1", "--step", "1e-300"], "LimitError"),
])
def test_varpi_bad_grid_exit2_before_allocating(monkeypatch, capsys, grid, error):
    # without numpy, a grid that got past the checks fails instead of allocating
    monkeypatch.setattr(fraczeta.primes, "np", None)
    code = main(["varpi", "--from", "0", *grid, "--primes", "100"])
    assert code == 2
    assert error in capsys.readouterr().err


def test_varpi_both_minus_imaginary_column_is_zero(tmp_path):
    code, out = run_to_file(
        tmp_path, "v.csv",
        ["varpi", "--from", "0.1", "--to", "5", "--step", "0.01", "--primes", "10000",
         "--convention", "both_minus"],
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 491
    assert {row[2] for row in rows} == {"0"}


# --------------------------------- chart1 -------------------------------------


def test_chart1_single_term(tmp_path):
    code, out = run_to_file(
        tmp_path, "c.csv", ["chart1", "--d", "2", "--theta", "0", "--terms", "1"]
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 1
    assert [float(x) for x in rows[0][1:9]] == [1, 0, 1, 0, 1, 0, 1, 0]


def test_chart1_eta_columns_match_at_d2(tmp_path):
    code, out = run_to_file(
        tmp_path, "c.csv", ["chart1", "--d", "2", "--theta", "5", "--terms", "100"]
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 100
    for row in rows:
        assert row[9] == row[11] and row[10] == row[12]


def test_chart1_eta_columns_differ_at_d3(tmp_path):
    code, out = run_to_file(
        tmp_path, "c.csv", ["chart1", "--d", "3", "--theta", "5", "--terms", "100"]
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    eta1 = complex(float(rows[0][9]), float(rows[0][10]))
    eta2 = complex(float(rows[0][11]), float(rows[0][12]))
    assert abs(eta1 - eta2) > 1e-3


def test_chart1_rejects_low_d(capsys):
    assert main(["chart1", "--d", "1", "--theta", "0"]) == 2
    capsys.readouterr()


# ----------------------------- output contracts -------------------------------


CASES = [
    ("transfer", ["transfer", "--z0", "2", "--vc", "3", "--d", "2.5",
                  "--vmin", "0.01", "--vmax", "100", "--points", "7", "--log"]),
    ("relax", ["relax", "--d", "2", "--drive", "sin", "--freq", "2", "--vc", "1",
               "--h", "0.02", "--steps", "800"]),
    ("zeta", ["zeta", "--mode", "zeta", "--sigma", "0.5", "--theta", "3"]),
    ("zeros", ["zeros", "--from", "14", "--to", "15"]),
    ("varpi", ["varpi", "--from", "0.3", "--to", "0.6", "--step", "0.1",
               "--primes", "200"]),
    ("chart1", ["chart1", "--d", "2.5", "--theta", "1", "--terms", "5"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_rerun_is_byte_identical(tmp_path, name, argv):
    # identical flags both times, including --out
    _, path = run_to_file(tmp_path, f"{name}.csv", argv)
    first = path.read_bytes()
    _, path = run_to_file(tmp_path, f"{name}.csv", argv)
    assert path.read_bytes() == first


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_csv_and_json_rows_agree(tmp_path, name, argv):
    _, csv_path = run_to_file(tmp_path, f"{name}.csv", argv + ["--format", "csv"])
    _, json_path = run_to_file(tmp_path, f"{name}.json", argv + ["--format", "json"])
    _, header, csv_rows = parse_csv(csv_path)
    payload = json.loads(json_path.read_text())
    assert payload["meta"]["header"] == header
    assert len(payload["rows"]) == len(csv_rows)
    for csv_row, json_row in zip(csv_rows, payload["rows"]):
        assert len(csv_row) == len(json_row)
        for a, b in zip(map(as_number, csv_row), json_row):
            if isinstance(a, str):
                assert a == b
            else:
                assert a == pytest.approx(b, abs=1e-12, rel=1e-12)


def test_stdout_when_no_out_flag(capsys):
    code = main(["zeta", "--mode", "direct", "--sigma", "2", "--theta", "0",
                 "--terms", "10"])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.splitlines()[-1].startswith("direct,2,")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [["chart1", "--d", "2.5", "--theta", "3", "--terms", "40"],
     ["zeros", "--from", "10", "--to", "30"]],
    ids=["chart1", "zeros"],
)
def test_out_file_matches_stdout(tmp_path, capsys, argv, fmt):
    argv = argv + ["--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / f"out.{fmt}"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == printed.encode()


@pytest.mark.parametrize(
    "argv",
    [["zeros", "--from", "1", "--to", "2"], ["chart1", "--d", "2", "--terms", "1"]],
    ids=["zeros-empty", "chart1-one-term"],
)
def test_json_layout_is_json_dumps_indent2(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e308, -1e308]),
)
_CELLS = {
    "float": _FLOATS,
    "int": st.integers(-(2**70), 2**70),
    "bool": st.booleans(),
    "str": st.text(st.one_of(st.sampled_from(',"\n\r\\é€ '), st.characters()), max_size=8),
}
_SCALARS = st.one_of(*_CELLS.values(), _FLOATS.map(np.float64))


@st.composite
def _tables(draw):
    """(header, columns, n_rows, reference rows): homogeneous columns as
    lists, ndarrays or ranges, and constant columns given as one scalar."""
    n_rows = draw(st.integers(0, 50))
    header, columns, cells = [], [], []
    for k in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(sorted(_CELLS) + ["constant", "range"]))
        if kind == "constant":
            value = draw(_SCALARS)
            columns.append(value)
            cells.append([value] * n_rows)
        elif kind == "range":
            start = draw(st.integers(-5, 5))
            columns.append(range(start, start + n_rows))
            cells.append(list(columns[-1]))
        else:
            values = draw(st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows))
            as_array = kind != "str" and draw(st.booleans())
            if kind == "int" and any(abs(v) >= 2**63 for v in values):
                as_array = False
            columns.append(np.array(values, dtype=type(values[0])) if as_array and values
                           else values)
            cells.append(values)
        header.append(f"c{k}")
    return header, columns, n_rows, [list(row) for row in zip(*cells)]


def _printed(writer, *args) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as buffer:
        writer(*args)
    return buffer.getvalue()


def test_all_constant_columns_at_zero_rows_print_no_rows():
    header, columns, meta = ["a", "b", "c"], [1.5, "x", np.float64(2.0)], {"command": "t"}
    csv = _printed(write_output, OutputSpec(format="csv"), header, columns, 0, meta)
    assert csv == "# command: t\na,b,c\n"
    text = _printed(write_output, OutputSpec(format="json"), header, columns, 0, meta)
    assert json.loads(text)["rows"] == []
    for fmt, got in (("csv", csv), ("json", text)):
        assert got == _printed(_write_output_reference, OutputSpec(format=fmt), header, [], meta)


@settings(max_examples=100, deadline=None)
@given(table=_tables(), angle=_FLOATS, plain=_FLOATS,
       block=st.one_of(st.just(fraczeta.cli._WRITE_BLOCK_ROWS), st.integers(1, 8)))
def test_columnar_writer_matches_row_reference(table, angle, plain, block):
    header, columns, n_rows, rows = table
    meta = {"command": "t", "angle_rad": angle, "value": plain,
            "nested": [[1, 2.5], ["a,b", [True, None]]], "label": "x y"}
    with mock.patch.object(fraczeta.cli, "_WRITE_BLOCK_ROWS", block):
        for fmt in ("csv", "json"):
            out = OutputSpec(format=fmt)
            assert (_printed(write_output, out, header, columns, n_rows, meta)
                    == _printed(_write_output_reference, out, header, rows, meta))


@pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_constant_columns_across_row_blocks(fmt, n_rows):
    header, columns, meta = ["a", "b", "c"], [1.5, "x", range(n_rows)], {"command": "t"}
    rows = [[1.5, "x", k] for k in range(n_rows)]
    want = _printed(_write_output_reference, OutputSpec(format=fmt), header, rows, meta)
    with mock.patch.object(fraczeta.cli, "_WRITE_BLOCK_ROWS", 2):
        assert _printed(write_output, OutputSpec(format=fmt), header, columns, n_rows, meta) == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_varpi_output_across_row_blocks(tmp_path, fmt):
    argv = ["varpi", "--from", "0.1", "--to", "2", "--step", "0.01", "--primes", "500",
            "--format", fmt]
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    with mock.patch.object(fraczeta.cli, "_WRITE_BLOCK_ROWS", 7):
        assert main(argv + ["--out", str(tmp_path / "blocked")]) == 0
    assert (tmp_path / "blocked").read_bytes() == (tmp_path / "one").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_memory_is_bounded_by_the_row_block(tmp_path, fmt):
    # one float column of 2e5 rows: about 20 (CSV) and 29 MiB (JSON) when the
    # whole table was formatted at once, 8 and 10 MiB in row blocks
    column = np.random.default_rng(4).standard_normal(200_000)
    out = OutputSpec(format=fmt, path=str(tmp_path / f"table.{fmt}"))
    tracemalloc.start()
    try:
        write_output(out, ["x"], [column], column.size, {"command": "t"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
