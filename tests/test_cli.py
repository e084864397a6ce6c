"""Tests for matrix file parsing, serialization, and the command front end."""

import functools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import (
    BLOCK_ROUNDED_CSV,
    CliRunner,
    EX_M,
    EX_M_CSV,
    TAIL_CYCLE_ROWS,
    TOLERANCE_EDGE_CSV,
    lexicographic_widest,
    reference_csv_matrix,
)
from stovar import (
    DEFAULT_TOLERANCE,
    Domain,
    Matrix,
    MatrixParseError,
    StovarError,
    analyze,
    tolerance,
)
from stovar import analysis, cli, core
from stovar.cli import (
    main,
    parse_matrix,
    parse_pattern,
)

F = Fraction


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseMatrix:
    def test_csv_fractions(self, tmp_path):
        path = write(tmp_path, "m.csv", EX_M_CSV)
        m = parse_matrix(path)
        assert m == EX_M
        assert m.domain is Domain.RATIONAL

    def test_csv_decimals_load_as_floats(self, tmp_path):
        path = write(tmp_path, "m.csv", "1.5,2\n0,3\n")
        m = parse_matrix(path)
        assert m.domain is Domain.FLOAT
        assert m.entries == (1.5, 2.0, 0.0, 3.0)

    def test_csv_mixed_forces_exact_rationals(self, tmp_path):
        path = write(tmp_path, "m.csv", "0.5,1/2\n0.1,2\n")
        m = parse_matrix(path)
        assert m.domain is Domain.RATIONAL
        assert m.entries == (F(1, 2), F(1, 2), F(1, 10), F(2))

    def test_csv_ragged_rows(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3\n")
        with pytest.raises(MatrixParseError):
            parse_matrix(path)

    def test_csv_empty_file(self, tmp_path):
        path = write(tmp_path, "m.csv", "\n")
        with pytest.raises(MatrixParseError):
            parse_matrix(path)

    def test_csv_bad_token(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,frog\n2,3\n")
        with pytest.raises(MatrixParseError):
            parse_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixParseError):
            parse_matrix(str(tmp_path / "nope.csv"))

    def test_json_identity(self, tmp_path):
        path = write(tmp_path, "m.json", '{"rows":2,"cols":2,"data":[[1,0],[0,1]]}')
        m = parse_matrix(path)
        assert m.domain is Domain.FLOAT
        assert m == Matrix.identity(2).to_float()

    def test_json_fraction_strings(self, tmp_path):
        path = write(
            tmp_path, "m.json", '{"rows":1,"cols":3,"data":[["1/3", 1, 0.5]]}'
        )
        m = parse_matrix(path)
        assert m.domain is Domain.RATIONAL
        assert m.entries == (F(1, 3), F(1), F(1, 2))

    def test_json_shape_mismatch(self, tmp_path):
        path = write(tmp_path, "m.json", '{"rows":2,"cols":2,"data":[[1,0]]}')
        with pytest.raises(MatrixParseError):
            parse_matrix(path)

    def test_json_missing_field(self, tmp_path):
        path = write(tmp_path, "m.json", '{"rows":1,"data":[[1]]}')
        with pytest.raises(MatrixParseError):
            parse_matrix(path)

    def test_json_bad_entry(self, tmp_path):
        path = write(tmp_path, "m.json", '{"rows":1,"cols":1,"data":[[true]]}')
        with pytest.raises(MatrixParseError):
            parse_matrix(path)

    def test_format_flag_overrides_extension(self, tmp_path):
        path = write(tmp_path, "m.txt", '{"rows":1,"cols":1,"data":[[2]]}')
        m = parse_matrix(path, fmt="json")
        assert m.entries == (2.0,)

    def test_csv_byte_order_mark(self, tmp_path):
        assert parse_matrix(write(tmp_path, "m.csv", "\ufeff" + EX_M_CSV)) == EX_M

    def test_json_byte_order_mark(self, tmp_path):
        path = write(tmp_path, "m.json", '\ufeff{"rows":1,"cols":2,"data":[["1/3", 1]]}')
        assert parse_matrix(path).entries == (F(1, 3), F(1))

    def test_undecodable_byte_after_a_byte_order_mark(self, tmp_path):
        # the error names the byte's offset in the file, mark included
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\xff\n")
        with pytest.raises(MatrixParseError, match="byte 0xff in position 6"):
            parse_matrix(str(path))


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rational_round_trip(self, tmp_path, fmt):
        path = write(tmp_path, f"m.{fmt}", _serialize_by_entry(EX_M, fmt))
        once = parse_matrix(path)
        assert once == EX_M
        again = _serialize_by_entry(once, fmt)
        assert again == _serialize_by_entry(EX_M, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_float_round_trip(self, tmp_path, fmt):
        m = Matrix([[0.1, 2.0], [3.25, -1e-3]], domain=Domain.FLOAT)
        path = write(tmp_path, f"m.{fmt}", _serialize_by_entry(m, fmt))
        once = parse_matrix(path)
        assert once == m
        path2 = write(tmp_path, f"m2.{fmt}", _serialize_by_entry(once, fmt))
        assert parse_matrix(path2) == m

    def test_all_integer_rational_matrix_keeps_domain(self, tmp_path):
        m = Matrix([[1, 0], [0, 1]])
        path = write(tmp_path, "m.csv", _serialize_by_entry(m, "csv"))
        assert parse_matrix(path) == m


def _growing_signed_8x8():
    """A signed 8x8 type-1 matrix whose power variations pass 4300 digits by M^32."""
    rng = random.Random(0)
    body = [
        [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(8)]
        for _ in range(7)
    ]
    return Matrix(body + [[1 - sum(col) for col in zip(*body)]])


def _serialize_by_entry(m, fmt="csv"):
    """Matrix file text that parses back to m, written entry by entry through Matrix.entry.

    Rational entries are written p/q, so an all-integer matrix reparses in
    the rational domain; float entries are written by repr.
    """
    def token(value):
        return f"{value.numerator}/{value.denominator}"

    if fmt == "json":
        if m.domain is Domain.RATIONAL:
            data = [[token(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]
        else:
            data = [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]
        return json.dumps({"rows": m.rows, "cols": m.cols, "data": data})
    lines = []
    for i in range(m.rows):
        if m.domain is Domain.RATIONAL:
            cells = [token(m.entry(i, j)) for j in range(m.cols)]
        else:
            cells = [repr(m.entry(i, j)) for j in range(m.cols)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestParsePattern:
    def test_worked_pattern(self, tmp_path):
        path = write(tmp_path, "p.csv", "0,+,0\n0,0,+\n+,+,0\n")
        p = parse_pattern(path)
        assert p.row_strings() == ("0+0", "00+", "++0")

    def test_rejects_other_symbols(self, tmp_path):
        path = write(tmp_path, "p.csv", "0,1\n+,0\n")
        with pytest.raises(MatrixParseError):
            parse_pattern(path)

    def test_byte_order_mark(self, tmp_path):
        path = write(tmp_path, "p.csv", "\ufeff0,+\n+,0\n")
        assert parse_pattern(path).row_strings() == ("0+", "+0")

    def test_padded_cells(self, tmp_path):
        path = write(tmp_path, "p.csv", " 0\x1f,\t+ \n\x1f+, 0\x1f\n")
        assert parse_pattern(path).row_strings() == ("0+", "+0")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0, \n+,0\n", "pattern entries must be 0 or +"),
            (" \n\n\t\n", "empty pattern file"),
            ("0,+\n+\n", "ragged rows: every line needs the same number of entries"),
        ],
        ids=["whitespace-cell", "blank-file", "ragged"],
    )
    def test_error_line(self, runner, tmp_path, text, message):
        result = runner.invoke(main, ["pattern", write(tmp_path, "p.csv", text)])
        assert result.exit_code == 1
        assert result.stderr == f"error: {message}\n"


class TestAnalyzeCommand:
    def test_worked_example_converges(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", EX_M_CSV)
        result = runner.invoke(main, ["analyze", path, "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["schema"] == "stovar/1"
        assert report["variation"]["value"] == "6/5"
        assert report["variation"]["columns"] == [2, 3]
        assert report["contraction_power"] == 2
        assert report["variation_at_power"] == "18/25"
        assert report["stationary"] == ["-2", "1/3", "8/3"]
        assert report["projection"][0] == ["-2", "-2", "-2"]
        assert report["verdict"] == "converges"

    def test_identity_is_inconclusive(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        result = runner.invoke(main, ["analyze", path])
        assert result.exit_code == 3
        assert "no contraction power" in result.output

    def test_non_square_fails_precondition(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", "1,2,3\n4,5,6\n")
        result = runner.invoke(main, ["analyze", path])
        assert result.exit_code == 2

    def test_wrong_type_fails_precondition(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n0,2\n")
        result = runner.invoke(main, ["analyze", path])
        assert result.exit_code == 2

    def test_parse_error(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3\n")
        result = runner.invoke(main, ["analyze", path])
        assert result.exit_code == 1

    @pytest.mark.parametrize("command", ["analyze", "variation"])
    @pytest.mark.parametrize("text", ["inf\n", "0.5,nan\n0.5,0.5\n"], ids=["inf", "nan"])
    def test_non_finite_entry_is_a_parse_error(self, runner, tmp_path, command, text):
        path = write(tmp_path, "m.csv", text)
        result = runner.invoke(main, [command, path])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: non-finite entry")

    @pytest.mark.parametrize("command", ["analyze", "variation", "pattern"])
    def test_non_utf8_file_is_a_parse_error(self, runner, tmp_path, command):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xff\xfe")
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert "not UTF-8" in result.stderr

    def test_overflowing_power_fails_precondition(self, runner, tmp_path):
        # lower triangular with eigenvalue 1e200: M^2 overflows a float
        path = write(tmp_path, "m.csv", "1e200,0,0\n-1e200,1,0\n1,0,1\n")
        result = runner.invoke(main, ["analyze", path])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: non-finite entry")

    @pytest.mark.parametrize(
        "text",
        [EX_M_CSV, "1,0\n0,1\n", "0.1,0.3\n0.9,0.7\n"],
        ids=["converges", "inconclusive", "float"],
    )
    def test_type_field_matches_the_variation_command(self, runner, tmp_path, text):
        path = write(tmp_path, "m.csv", text)
        analyzed = json.loads(runner.invoke(main, ["analyze", path, "--json"]).output)
        varied = json.loads(runner.invoke(main, ["variation", path, "--json"]).output)
        assert analyzed["type"] == varied["type"]

    def test_module_runs_as_a_program(self, tmp_path):
        path = write(tmp_path, "m.csv", EX_M_CSV)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "stovar.cli", "analyze", path, "--json"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert '"contraction_power": 2' in done.stdout

    def test_rational_report_is_reproducible(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", EX_M_CSV)
        first = runner.invoke(main, ["analyze", path, "--json"])
        second = runner.invoke(main, ["analyze", path, "--json"])
        assert first.output == second.output

    def test_pmax_flag(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", EX_M_CSV)
        result = runner.invoke(main, ["analyze", path, "--pmax", "1", "--json"])
        assert result.exit_code == 3
        report = json.loads(result.output)
        assert report["contraction_power"] is None
        assert report["variation_per_power"] == ["6/5"]

    def test_k_report_flag_bounds_the_decay_table(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", EX_M_CSV)
        result = runner.invoke(main, ["analyze", path, "--k-report", "7", "--json"])
        report = json.loads(result.output)
        assert [row["k"] for row in report["decay_bounds"]] == [1, 2, 3, 4, 5, 7]

    def test_recurring_float_powers_report_every_power(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", "0,0,1\n1,0,0\n0,1,0\n")
        result = runner.invoke(main, ["analyze", path, "--pmax", "5000", "--json"])
        assert result.exit_code == 3
        report = json.loads(result.output)
        assert report["variation_per_power"] == ["1"] * 5000
        assert report["contraction_power"] is None

    @pytest.mark.parametrize(
        "text, flags",
        [
            # type 1 within the tolerance; the float var(M^2) = 1 - 1.8e-9
            # passed as a contraction, and the solve then failed
            ("0.9999999991,0\n0,0.9999999991\n", []),
            # reducible; under this tolerance the rounded var(M^15) =
            # 0.99999999999999989 passed as a contraction
            ("0.5,0.5,0,0\n0.5,0.5,0,0\n0,0,0.3,0.7\n0,0,0.7,0.3\n", ["--tol", "1e-300"]),
        ],
        ids=["diagonal-within-tolerance", "reducible-tiny-tolerance"],
    )
    def test_disjoint_float_supports_are_inconclusive(self, runner, tmp_path, text, flags):
        path = write(tmp_path, "m.csv", text)
        result = runner.invoke(main, ["analyze", path, "--json", *flags])
        assert result.exit_code == 3
        report = json.loads(result.output)
        assert report["contraction_power"] is None
        assert report["variation_per_power"][1:] == ["1"] * 63

    def test_float_variation_one_is_reported_at_the_first_disjoint_pair(self, runner, tmp_path):
        # `stovar variation` sums 1.0000000000000002 at columns (1, 5) up to Python 3.11
        path = write(tmp_path, "m.csv", BLOCK_ROUNDED_CSV)
        result = runner.invoke(main, ["analyze", path, "--json"])
        assert result.exit_code == 3
        report = json.loads(result.output)
        assert report["variation"] == {"value": "1", "decimal": 1.0, "columns": [1, 3]}
        assert report["variation_per_power"] == ["1"] * 64

    def test_report_value_over_the_int_string_limit(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", _serialize_by_entry(_growing_signed_8x8()))
        result = runner.invoke(main, ["analyze", path, "--pmax", "32"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: a report value is too long to print")

    def test_wide_products_sum_entry_by_entry(self, runner, tmp_path, monkeypatch):
        # the numerators of M^2 already pass 1600 bits, far past a 64-bit slot
        path = write(tmp_path, "m.csv", _serialize_by_entry(_growing_signed_8x8()))
        products, packs = [], []
        step, pack = analysis._step, core._pack
        monkeypatch.setattr(analysis, "_step", lambda *args: products.append(1) or step(*args))
        monkeypatch.setattr(core, "_pack", lambda *args: packs.append(1) or pack(*args))
        result = runner.invoke(main, ["analyze", path, "--pmax", "4"])
        assert result.exit_code == 3
        assert (len(products), packs) == (3, [])

    def test_decay_bound_too_long_to_print_fails_before_it_is_formed(self, runner, tmp_path):
        # forming (1/6)^100000000 took minutes before str rejected it
        path = write(tmp_path, "m.csv", "1/2,1/3\n1/2,2/3\n")
        start = time.monotonic()
        result = runner.invoke(main, ["analyze", path, "--k-report", "100000000"])
        assert time.monotonic() - start < 10
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: a report value is too long to print")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("text", ["1/2,1/3\n1/2,2/3\n", EX_M_CSV], ids=["2x2", "worked"])
    def test_decay_bound_rejection_agrees_with_printing(self, tmp_path, monkeypatch, text):
        m = parse_matrix(write(tmp_path, "m.csv", text))
        formed = analysis.decay_bound
        early = []
        for k in range(4000, 16001, 500):
            result = analyze(m, k_report=k)
            try:
                prints = bool(str(result.decay_bound_at(k)))
            except ValueError:
                prints = False
            if prints:
                cli.analysis_report(m, result)
                continue
            with pytest.raises(StovarError, match="too long to print"):
                cli.analysis_report(m, result)
            # with forming stubbed out, only the early check can raise StovarError
            monkeypatch.setattr(analysis, "decay_bound", lambda *args: pytest.fail("formed"))
            try:
                cli.analysis_report(m, result)
            except StovarError:
                early.append(k)
            except pytest.fail.Exception:
                pass
            monkeypatch.setattr(analysis, "decay_bound", formed)
        # b^q / c^r only bounds the denominator from below, so the early check
        # starts a little past the first bound that fails to print
        assert early and early == list(range(early[0], 16001, 500))

    def test_zero_decay_bound_prints_at_any_k_report(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", "1/2,1/2\n1/2,1/2\n")
        result = runner.invoke(main, ["analyze", path, "--k-report", "100000000"])
        assert result.exit_code == 0
        assert "k=100000000: 0" in result.stdout

    def test_tol_flag_loosens_type_detection(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", "0.5,0.500001\n0.5,0.5\n")
        strict = runner.invoke(main, ["analyze", path])
        assert strict.exit_code == 2
        loose = runner.invoke(main, ["analyze", path, "--tol", "1e-3"])
        assert loose.exit_code == 0

    @pytest.mark.parametrize(
        "text, code", [("0.5,0.25\n0.5,0.75\n", 0), ("0.5,0.5\n0.5,0.6\n", 2)]
    )
    def test_tol_flag_holds_for_the_command_only(self, runner, tmp_path, text, code):
        path = write(tmp_path, "m.csv", text)
        result = runner.invoke(main, ["analyze", path, "--tol", "1e-3"])
        assert result.exit_code == code
        assert tolerance() == DEFAULT_TOLERANCE


def _csv(rows):
    return "".join(",".join(row) + "\n" for row in rows)


def _lazy_path_csv(n, half, quarter, three_quarters):
    """The lazy path on n states in the given tokens: columns 1 and n first overlap at power n // 2."""
    return _csv(
        [
            [
                {0: three_quarters if i in (0, n - 1) else half, 1: quarter}.get(abs(i - j), "0")
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def _wide_columns():
    """A seeded 64-column Markov matrix and a 48-column one with tied columns."""
    rng = random.Random(16)

    def column(n):
        w = [rng.randint(1, 9) for _ in range(n)]
        return [v / sum(w) for v in w]

    base = [column(48) for _ in range(3)]
    files = {
        "markov-64.csv": [column(64) for _ in range(64)],
        "tied-48.csv": base[:1] * 5 + [rng.choice(base) for _ in range(43)],
    }
    return {
        name: _csv([[repr(col[i]) for col in cols] for i in range(len(cols))])
        for name, cols in files.items()
    }


def _exhaustive_variation(text):
    """Report form of the variation and first widest pair, from every column pair."""
    rows = [[float(t) for t in line.split(",")] for line in text.splitlines()]
    best, pair = lexicographic_widest([v for row in rows for v in row], len(rows[0]))
    return format(best / 2, ".17g"), list(pair)


WIDE_COLUMNS = _wide_columns()

# Console checks: each command runs on these files through check_console_command,
# which CI also calls with the installed `stovar` script.
CONSOLE_FILES = {
    "worked.csv": EX_M_CSV,
    "dense-float.csv": "0.3,0.3,0.4\n0.3,0.4,0.3\n0.4,0.3,0.3\n",
    "worked-float.csv": "0,0.4,-0.8\n-0.2,-0.2,0\n1.2,0.8,1.8\n",
    "reducible.csv": "0.5,0.5,0,0\n0.5,0.5,0,0\n0,0,0.3,0.7\n0,0,0.7,0.3\n",
    "tail-cycle.csv": _csv([[str(float(v)) for v in row] for row in TAIL_CYCLE_ROWS]),
    "tail-cycle-pattern.csv": _csv([["+" if v else "0" for v in row] for row in TAIL_CYCLE_ROWS]),
    # row 0 minus 1/4 and row 1 plus 1/4: every variation is 1, and M^13 = M^3
    "tail-cycle-twin.csv": _csv(
        [[str(v + (i == 1) / 4 - (i == 0) / 4) for v in row] for i, row in enumerate(TAIL_CYCLE_ROWS)]
    ),
    # the same twin in p/q tokens, so the rational scan runs
    "tail-cycle-twin-rational.csv": _csv(
        [[f"{4 * v + (i == 1) - (i == 0)}/4" for v in row] for i, row in enumerate(TAIL_CYCLE_ROWS)]
    ),
    "two-cycle.csv": "0,+\n+,0\n",
    # var(M) = 1 - 1e-6: contracts at the default tolerance, not within 1e-3 of one
    "near-one.csv": "0.9999995,5e-07\n5e-07,0.9999995\n",
    # a lazy path on 9 states: columns 1 and 9 first overlap at power 4
    "lazy-path.csv": _lazy_path_csv(9, "1/2", "1/4", "3/4"),
    # the same path in float tokens, so the float scan squares its way to M^4
    "lazy-path-float.csv": _lazy_path_csv(9, "0.5", "0.25", "0.75"),
    # on 32 states: var(M^16) is within 1e-9 of one, so the scan steps on from
    # the squared M^16 to M^17
    "lazy-path-float-32.csv": _lazy_path_csv(32, "0.5", "0.25", "0.75"),
    # the lazy path on 60 states, row 0 minus 1/4 and row 1 plus 1/4: its row
    # minima sum to zero, so the scan walks the path's support to power 30
    "lazy-path-twin.csv": _csv(
        [
            [f"{int(t) + (i == 1) - (i == 0)}/4" for t in line.split(",")]
            for i, line in enumerate(_lazy_path_csv(60, "2", "1", "3").splitlines())
        ]
    ),
    # saved with a UTF-8 byte-order mark, as some spreadsheet programs do
    "bom.csv": "\ufeff" + EX_M_CSV,
    # the worked example in JSON, with "p/q" strings
    "worked.json": json.dumps(
        {"rows": 3, "cols": 3, "data": [line.split(",") for line in EX_M_CSV.splitlines()]}
    ),
    # exact column sums 1 + 2**-55 and 1 - 2**-54: converges at the default
    # tolerance, and fails the fixed-point check at --tol 1e-300
    "rounded-sums.csv": "0.1,0.3\n0.9,0.7\n",
    # float files whose first bad token repeats: each prints one error: line
    "repeated-bad-entry.csv": "x,0.5\nx,0.5\n",
    "repeated-inf.csv": "inf,0.5\ninf,0.5\n",
    # float files with two disjoint columns: var(M) = 1 is read from the masks,
    # not summed to 0.99999999865 (a contraction at p = 1, then no unique E)
    # or to 1.0000000000000002 (up to Python 3.11)
    "tolerance-edge.csv": TOLERANCE_EDGE_CSV,
    "block-rounded.csv": BLOCK_ROUNDED_CSV,
    **WIDE_COLUMNS,
}
# the contraction power of each analyze --json report
CONSOLE_POWERS = {
    "worked.csv": 2,
    "worked.json": 2,
    "worked-float.csv": 2,
    "lazy-path.csv": 4,
    "lazy-path-float.csv": 4,
    "lazy-path-float-32.csv": 17,
    "lazy-path-twin.csv": 30,
    "dense-float.csv": 1,
    "tolerance-edge.csv": None,
    "block-rounded.csv": None,
}
CONSOLE_COMMANDS = [
    (["analyze", "worked.csv"], 0),
    (["analyze", "--json", "worked.csv"], 0),
    (["variation", "worked.csv"], 0),
    (["analyze", "--pmax", "0", "worked.csv"], 2),
    (["analyze", "near-one.csv"], 0),
    (["analyze", "--tol", "1e-3", "near-one.csv"], 3),
    (["analyze", "--k-report", "100000000", "worked.csv"], 2),
    (["analyze", "dense-float.csv"], 0),
    (["analyze", "worked-float.csv"], 0),
    (["analyze", "--tol", "1e-300", "reducible.csv"], 3),
    (["analyze", "--pmax", "100000", "tail-cycle.csv"], 3),
    (["analyze", "--pmax", "100000", "tail-cycle-twin.csv"], 3),
    (["analyze", "--pmax", "100000", "tail-cycle-twin-rational.csv"], 3),
    (["analyze", "--json", "lazy-path.csv"], 0),
    (["analyze", "--json", "lazy-path-float.csv"], 0),
    (["analyze", "--json", "lazy-path-float-32.csv"], 0),
    (["analyze", "--json", "lazy-path-twin.csv"], 0),
    (["analyze", "--json", "worked-float.csv"], 0),
    (["pattern", "--kmax", "100000", "tail-cycle-pattern.csv"], 0),
    (["variation", "--json", "markov-64.csv"], 0),
    (["variation", "--json", "tied-48.csv"], 0),
    (["classify2x2", "1/2", "1/3"], 0),
    (["pattern", "--kmax", "1000000", "two-cycle.csv"], 0),
    (["--bogus"], 2),
    (["analyze", "bom.csv"], 0),
    (["analyze", "--json", "dense-float.csv"], 0),
    (["variation", "--json", "worked.csv"], 0),
    (["variation", "--json", "dense-float.csv"], 0),
    (["pattern", "--json", "two-cycle.csv"], 0),
    (["classify2x2", "1/3", "1/4", "--json"], 0),
    (["analyze", "--tol", "nan", "worked.csv"], 2),
    (["analyze", "rounded-sums.csv"], 0),
    (["analyze", "--tol", "1e-300", "rounded-sums.csv"], 2),
    (["analyze", "--json", "worked.json"], 0),
    (["analyze", "./missing.csv"], 1),
    (["analyze", "repeated-bad-entry.csv"], 1),
    (["variation", "repeated-inf.csv"], 1),
    (["classify2x2", "1e-10000000", "1/2"], 1),
    (["analyze", "--tol", "inf", "worked.csv"], 2),
    (["analyze", "--json", "tolerance-edge.csv"], 3),
    (["analyze", "--json", "block-rounded.csv"], 3),
]


def check_console_command(command, workdir, args, code, env=None):
    """Run ``command + args`` on ``CONSOLE_FILES`` written into ``workdir``, and check the output.

    ``command`` starts the CLI: ``[sys.executable, "-m", "stovar.cli"]`` in
    the tests, the installed ``stovar`` script in CI.  The exit code must be
    ``code``; exit 1 or 2 prints one ``error:`` line; ``--json`` output is byte for
    byte the stock encoder's text; ``analyze --json`` finds the power of
    ``CONSOLE_POWERS``; ``variation --json`` on a wide file finds the value and
    pair of an exhaustive search.
    """
    workdir = Path(workdir)
    for name, text in CONSOLE_FILES.items():
        write(workdir, name, text)
    done = subprocess.run(
        command + [str(workdir / a) if a in CONSOLE_FILES else a for a in args],
        capture_output=True,
        text=True,
        env=env,
        cwd=workdir,
        timeout=120,
    )
    assert done.returncode == code, (args, done.stderr)
    if code in (1, 2):
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1, done.stderr
    if "--json" in args:
        assert done.stdout == json.dumps(json.loads(done.stdout), indent=2) + "\n", args
    if args[:2] == ["analyze", "--json"]:
        assert json.loads(done.stdout)["contraction_power"] == CONSOLE_POWERS[args[-1]], args
    if args[:2] == ["variation", "--json"] and args[-1] in WIDE_COLUMNS:
        got = json.loads(done.stdout)["variation"]
        want = _exhaustive_variation(CONSOLE_FILES[args[-1]])
        assert (got["value"], got["columns"]) == want, args


class TestConsoleScriptChecks:
    @pytest.mark.parametrize(
        "args, code", CONSOLE_COMMANDS, ids=[" ".join(args) for args, _ in CONSOLE_COMMANDS]
    )
    def test_command_exit_code(self, tmp_path, args, code):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        check_console_command([sys.executable, "-m", "stovar.cli"], tmp_path, args, code, env)


# imports stovar.cli in a fresh interpreter; prints the top-level modules it adds from outside the
# stdlib, then those it adds of dataclasses and inspect, which cost about 10 ms to import
_THIRD_PARTY_IMPORTS = """
import sys
before = set(sys.modules)
import stovar.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(added - {"stovar"} - set(sys.stdlib_module_names)))
print(sorted(added & {"dataclasses", "inspect"}))
"""


def test_cli_needs_only_the_standard_library():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _THIRD_PARTY_IMPORTS], capture_output=True, text=True, env=env, timeout=120
    )
    assert (done.returncode, done.stdout) == (0, "[]\n[]\n"), done.stderr


def test_cli_import_leaves_pathlib_out():
    # under -S, as site may load pathlib itself
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import stovar.cli; print('pathlib' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def _run_with_stdout_closed(tmp_path, args):
    """Exit code and stderr of ``python -m stovar.cli ARGS`` whose reader closes stdout at once."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "stovar.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=env,
    )
    child.stdout.close()  # before the child has imported stovar, so its output finds no reader
    stderr = child.stderr.read()
    child.stderr.close()
    return child.wait(timeout=120), stderr


def test_stdout_closed_by_the_reader_keeps_the_exit_code(tmp_path):
    (tmp_path / "worked.csv").write_text(CONSOLE_FILES["worked.csv"], encoding="utf-8")
    assert _run_with_stdout_closed(tmp_path, ["analyze", "--json", "worked.csv"]) == (0, b"")


@pytest.mark.parametrize("args", [["--help"], ["analyze", "--help"]], ids=" ".join)
def test_help_to_a_closed_stdout_exits_0_with_nothing_on_stderr(tmp_path, args):
    # argparse before Python 3.11 lets the BrokenPipeError of its help out
    assert _run_with_stdout_closed(tmp_path, args) == (0, b"")


USAGE_ERRORS = [
    ["analyze", "--pmax", "0", "m.csv"],
    ["analyze"],
    ["analyze", "--bogus", "m.csv"],
    ["nosuch"],
    ["classify2x2", "--json", "1/2"],
    ["--bogus"],
    ["analyze", "--tol", "nan", "m.csv"],
    ["analyze", "--tol", "inf", "m.csv"],
    ["analyze", "--tol", "1e999", "m.csv"],
    ["analyze", "--js", "m.csv"],
    ["classify2x2", "1/2", "1/2", "a\nb"],
    ["analyze", "--bo\ngus", "m.csv"],
]


class TestUsageErrors:
    @pytest.mark.parametrize("args", USAGE_ERRORS, ids=" ".join)
    def test_one_error_line_and_exit_2(self, runner, tmp_path, args):
        path = write(tmp_path, "m.csv", EX_M_CSV)
        result = runner.invoke(main, [path if a == "m.csv" else a for a in args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("name", ["no\nsuch.csv", "no\u2028such.csv"], ids=["newline", "u2028"])
    def test_missing_path_with_a_line_break_is_one_error_line(self, runner, tmp_path, name):
        result = runner.invoke(main, ["analyze", str(tmp_path / name)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: cannot read ")
        assert len(result.stderr.splitlines()) == 1 and result.stderr.endswith("\n")

    @pytest.mark.parametrize(
        "path, line",
        [("./missing.csv", "error: cannot read ./missing.csv: [Errno 2] No such file or directory: "
                           "'./missing.csv'\n"),
         ("", "error: cannot read : [Errno 2] No such file or directory: ''\n")],
        ids=["dot-slash", "empty"],
    )
    def test_an_unreadable_path_is_named_as_typed(self, runner, tmp_path, monkeypatch, path, line):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["analyze", path])
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", line)

    def test_help_still_prints_help(self, runner):
        result = runner.invoke(main, ["analyze", "--help"])
        assert result.exit_code == 0
        assert "--pmax" in result.stdout

    def test_group_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        assert "commands:" in result.stdout

    def test_bare_command_prints_the_group_help(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: ") and "commands:" in result.stderr


class TestOversizedInput:
    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_boolean_dimension_is_a_parse_error(self, runner, tmp_path, field):
        payload = {"rows": 1, "cols": 1, "data": [["1"]]}
        payload[field] = True
        path = write(tmp_path, "m.json", json.dumps(payload))
        result = runner.invoke(main, ["analyze", path])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: the rows and cols fields must be integers")

    def test_json_integer_over_the_int_string_limit(self, runner, tmp_path):
        path = write(tmp_path, "m.json", '{"rows": 1, "cols": 1, "data": [[%s]]}' % ("1" * 5000))
        result = runner.invoke(main, ["analyze", path])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: invalid JSON")

    @pytest.mark.parametrize("command", ["analyze", "variation"])
    def test_rational_entry_over_the_int_string_limit(self, runner, tmp_path, command):
        path = write(tmp_path, "m.csv", "1e-300000,1/2\n1/2,1/2\n")
        result = runner.invoke(main, [command, path])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: entry too long to print")

    def test_json_integer_too_large_for_a_float(self, runner, tmp_path):
        path = write(tmp_path, "m.json", '{"rows": 1, "cols": 1, "data": [[1%s]]}' % ("0" * 400))
        result = runner.invoke(main, ["analyze", path])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: bad matrix entry")

    def test_exponent_entry_under_the_limit_still_loads(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", "1e-700,1/2\n0,1/2\n")
        result = runner.invoke(main, ["variation", path, "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["type"]["max_deviation"] == f"{10**700 - 1}/{10**700}"

    def test_variation_too_large_for_a_float(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", "1e400,1/2\n1/2,1/2\n")
        result = runner.invoke(main, ["variation", path])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: a report value is too large for a float")

    def test_classify_scalars_over_the_int_string_limit(self, runner):
        result = runner.invoke(main, ["classify2x2", "1e-300000", "1/2"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: entry too long to print")
        # each input prints, but c = a + b has a denominator of 4401 digits
        a, b = f"1/{10**2200 + 1}", f"1/{10**2200 + 3}"
        result = runner.invoke(main, ["classify2x2", a, b])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: a report value is too long to print")


@pytest.fixture
def fraction_calls(monkeypatch):
    """Arguments of every ``Fraction(...)`` call the CLI and core modules make.

    The CLI reads its exact tokens with ``core._exact``.  A string with a
    ten-million exponent raises ValueError at once instead of building
    ``10**10000000``, so code that hands such a token to ``Fraction``
    fails the test quickly rather than stalling it.
    """
    calls = []

    def recording(*args):
        calls.append(args)
        if any(isinstance(a, str) and "e-10000000" in a for a in args):
            raise ValueError("Fraction was handed a ten-million exponent")
        return Fraction(*args)

    monkeypatch.setattr(cli, "Fraction", recording)
    monkeypatch.setattr(core, "Fraction", recording)
    return calls


class TestDecimalExponentBound:
    def test_huge_exponent_is_a_parse_error_before_fraction(
        self, runner, tmp_path, fraction_calls
    ):
        path = write(tmp_path, "m.csv", "1/2,1e-10000000\n1/2,1\n")
        result = runner.invoke(main, ["analyze", path])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: entry too long to print")
        assert ("1e-10000000",) not in fraction_calls

    def test_zero_mantissa_loads_as_zero(self, tmp_path, fraction_calls):
        m = parse_matrix(write(tmp_path, "m.csv", "1/2,0e-10000000\n1/2,1\n"))
        assert m == Matrix([[F(1, 2), 0], [F(1, 2), 1]])
        assert ("0e-10000000",) not in fraction_calls

    def test_classify_rejects_a_huge_exponent(self, runner, fraction_calls):
        result = runner.invoke(main, ["classify2x2", "1e-10000000", "1/2"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: entry too long to print")
        assert ("1e-10000000",) not in fraction_calls

    def test_no_bound_when_the_int_string_limit_is_off(self, monkeypatch):
        with pytest.raises(MatrixParseError):
            cli._exact("1e-5000")
        monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: 0)
        assert cli._exact("1e-5000") == F(1, 10**5000)

    def test_a_mantissa_with_factors_of_ten_may_pass_the_limit(self):
        # 50000e-4302 = 1/(2 * 10**4297): the exponent passes the 4300-digit
        # limit, the reduced denominator does not
        assert cli._distinct_fractions(["50000e-4302"]) == [F(1, 2 * 10**4297)]

    @given(
        st.from_regex(r"-?[0-9]{1,5}(\.[0-9]{0,5})?", fullmatch=True),
        st.sampled_from(["e", "E", "e+", "e-"]),
        st.integers(4280, 4330),
    )
    @settings(max_examples=200, deadline=None)
    def test_early_rejection_agrees_with_printing(self, mantissa, marker, exponent):
        # exponents near the default 4300-digit limit; 10**4330 builds quickly
        token = f"{mantissa}{marker}{exponent}"
        try:
            str(Fraction(token))
            printable = True
        except ValueError:
            printable = False
        try:
            value = cli._distinct_fractions([token])
        except MatrixParseError:
            assert not printable
        else:
            assert printable and value == [Fraction(token)]


# exact tokens of every kind: unreduced and negative p/q, int strings,
# decimals, exponent literals and JSON int cells
_RATIONAL_TOKENS = st.one_of(
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(1, 40)),
    st.integers(-(10**20), 10**20),
    st.integers(-50, 50).map(str),
    st.from_regex(r"-?[0-9]{1,3}\.[0-9]{1,4}", fullmatch=True),
    st.builds("{}e{}".format, st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{1,2})?", fullmatch=True),
              st.integers(-30, 30)),
)


class TestIntegerFormFromTheReader:
    @given(st.lists(_RATIONAL_TOKENS, min_size=1, max_size=8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_form_and_entries_match_fraction(self, pool, data):
        tokens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
        m = cli._entries_to_matrix(1, len(tokens), tokens, True)
        want = [Fraction(t) for t in tokens]
        assert list(m.entries) == want == cli._distinct_fractions(tokens)
        assert all(type(v) is Fraction for v in m.entries)
        assert m._form == core._over_lcm(m.entries)

    def test_each_distinct_token_is_read_once_in_order(self, tmp_path, monkeypatch):
        calls = []
        exact = cli._exact
        monkeypatch.setattr(cli, "_exact", lambda token: calls.append(token) or exact(token))
        m = parse_matrix(write(tmp_path, "m.csv", "1/2,1/3,2/4\n1/2,2/3,1/2\n"))
        assert calls == ["1/2", "1/3", "2/4", "2/3"]
        assert m._form == ([3, 2, 3, 3, 4, 3], 6)

    @pytest.mark.parametrize(
        "bad, line",
        [("1/0", "error: bad matrix entry: Fraction(1, 0)\n"),
         ("1e-5000", "error: entry too long to print: its exponent gives over "
                     f"{sys.get_int_max_str_digits()} digits\n")],
    )
    def test_a_repeated_bad_token_names_the_same_error(self, runner, tmp_path, bad, line):
        for text in (f"{bad},1/2\n1/2,1/2\n", f"{bad},{bad}\n1/2,{bad}\n"):
            result = runner.invoke(main, ["analyze", write(tmp_path, "m.csv", text)])
            assert (result.exit_code, result.stderr) == (1, line)


# tokens that each reader handles in its own way, and short runs of their characters
_SOUP_TOKENS = st.one_of(
    st.sampled_from(
        ["1/2", "-1/3", "0/1", "3", "0.5", "-2.5e-1", "1e400", "nan", "inf", "", " ", " 1/4\t",
         "\x1f1/2", "0.5\x1f", "\u20031", "²/3", "1_0/3", "1/-2", "+1/2", "１/２", "-0/5", "1/0",
         "1e-700", "1/" + "3" * 639, "7/" + "1" * 5000, "x", "-0.0", "0.0", "-0", "0.1", "0.10"]
    ),
    st.text(alphabet="0123456789/.-+e_ \t\x1f²１", max_size=8),
)


@st.composite
def _csv_soup(draw):
    cols = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        n = cols if draw(st.integers(0, 9)) else draw(st.integers(1, 5))  # now and then ragged
        lines.append(",".join(draw(st.lists(_SOUP_TOKENS, min_size=n, max_size=n))))
        if not draw(st.integers(0, 5)):
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _read_with(reader, text):
    """A matrix as its domain, shape, entries and their reprs, or the parse error's message.

    The reprs tell -0.0 from 0.0, which compare equal, and name each entry's type.
    """
    try:
        m = reader(text)
    except MatrixParseError as exc:
        return str(exc)
    return m.domain, m.rows, m.cols, m.entries, list(map(repr, m.entries))


class TestOnePassReader:
    """The whole-text CSV reader gives the step-by-step reader's matrix or error."""

    @settings(max_examples=400, deadline=None)
    @given(text=_csv_soup())
    # str.strip removes \x1f, which float and Fraction(str) reject; all three skip U+2003
    @example(text="\x1f1\x1f,2\n3,4\n")
    @example(text="\x1f1/2,1/2\n1/2,1/2\n")
    @example(text="\u20031,2\n")
    @example(text="²/3,1/3\n")
    @example(text="1_0/3,1\n")
    @example(text="1/-2,1\n")
    @example(text="+1/2,1/2\n")
    @example(text="１/２,1/2\n")
    @example(text="-0/5,1\n")
    @example(text="1/0,1\n")
    @example(text="0.5,1/2\n1/3,0\n")
    @example(text="1e400,1\n")
    @example(text="nan,1\n")
    @example(text="1/" + "3" * 639 + ",1\n")
    @example(text="1,,2\n")
    @example(text="1,2\n3\n")
    @example(text="\n1,2\n \n3,4\n\n")
    @example(text="1/2,1/3\r\n1/2,2/3\r\n")
    @example(text="x,1\nx,1\n")
    @example(text="inf,1\ninf,0\n")
    @example(text="-0.0,0.0\n0.0,-0.0\n")
    def test_same_matrix_or_error_as_the_step_by_step_reader(self, text):
        assert _read_with(cli._parse_csv_matrix, text) == _read_with(reference_csv_matrix, text)


class TestOneReadPerDistinctToken:
    """Each distinct token of a file is converted once, in first-seen order, in either domain and format.

    A rational CSV file is covered by ``TestIntegerFormFromTheReader``.
    """

    @pytest.mark.parametrize(
        "name, text, want, entries",
        [
            ("m.csv", "0.5,0.25,0.5\n0.5,0.75,0.5\n", ["0.5", "0.25", "0.75"], [0.5, 0.25, 0.5, 0.5, 0.75, 0.5]),
            ("m.csv", "-0.0,0.0\n0.1,0.10\n", ["-0.0", "0.0", "0.1", "0.10"], [-0.0, 0.0, 0.1, 0.1]),
            ("m.json", '{"rows": 2, "cols": 2, "data": [[0.5, 1], [0.5, 0]]}', ["0.5", 1, 0], [0.5, 1.0, 0.5, 0.0]),
            ("m.json", '{"rows": 2, "cols": 2, "data": [["1/2", 1], ["1/2", 0]]}', ["1/2", 1, 0],
             [F(1, 2), F(1), F(1, 2), F(0)]),
        ],
        ids=["float", "float-distinct", "json-float", "json-rational"],
    )
    def test_each_distinct_token_is_converted_once(self, tmp_path, monkeypatch, name, text, want, entries):
        calls = []
        for attr, convert in (("float", float), ("_exact", cli._exact)):
            monkeypatch.setattr(
                cli, attr, lambda token, convert=convert: calls.append(token) or convert(token), raising=False
            )
        m = parse_matrix(write(tmp_path, name, text))
        assert calls == want
        assert list(map(repr, m.entries)) == list(map(repr, entries))


class TestVariationCommand:
    def test_worked_example(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", EX_M_CSV)
        result = runner.invoke(main, ["variation", path, "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["variation"]["value"] == "6/5"
        assert report["type"]["value"] == "1"

    def test_identical_columns(self, runner, tmp_path):
        path = write(tmp_path, "m.csv", "1/2,1/2\n1/3,1/3\n")
        result = runner.invoke(main, ["variation", path, "--json"])
        report = json.loads(result.output)
        assert report["variation"]["value"] == "0"


class TestFloatOverflowInReports:
    @pytest.mark.parametrize(
        "text",
        ["1e308,-1e308\n-1e308,1e308\n", "1e308,1e308\n1e308,1e308\n"],
        ids=["variation", "column-sums"],
    )
    @pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
    def test_variation_command_fails_precondition(self, runner, tmp_path, text, as_json):
        path = write(tmp_path, "m.csv", text)
        result = runner.invoke(main, ["variation", path, *as_json])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("error: non-finite entry inf")

    @pytest.mark.parametrize("other", ["0", "-1e307"], ids=["one-sided", "signed"])
    def test_wide_variation_command_fails_precondition(self, runner, tmp_path, other):
        # 40 columns: 1e307 where i + j is odd; unlike columns overflow
        rows = [["1e307" if (i + j) % 2 else other for j in range(40)] for i in range(40)]
        path = write(tmp_path, "m.csv", _csv(rows))
        result = runner.invoke(main, ["variation", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: non-finite entry inf in a float-domain value\n"

    def test_classify_with_an_overflowing_sum_fails_precondition(self, runner):
        # c = a + b overflows to inf
        result = runner.invoke(main, ["classify2x2", "1e308", "1e308", "--json"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: non-finite entry inf")


class TestPatternCommand:
    def test_worked_pattern(self, runner, tmp_path):
        path = write(tmp_path, "p.csv", "0,+,0\n0,0,+\n+,+,0\n")
        result = runner.invoke(main, ["pattern", path, "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["first_positive_power"] == 5
        assert report["pairwise_positive_overlap"] is False
        assert report["powers"][0]["rows"] == ["0+0", "00+", "++0"]
        assert report["powers"][-1]["rows"] == ["+++", "+++", "+++"]

    def test_never_positive_pattern(self, runner, tmp_path):
        path = write(tmp_path, "p.csv", "+,+,+\n0,+,+\n0,0,+\n")
        result = runner.invoke(main, ["pattern", path])
        assert result.exit_code == 0
        assert "none up to k_max=32" in result.output
        assert "shares a positive row: yes" in result.output

    def test_bad_pattern_file(self, runner, tmp_path):
        path = write(tmp_path, "p.csv", "0,2\n+,0\n")
        result = runner.invoke(main, ["pattern", path])
        assert result.exit_code == 1

    def test_non_square_pattern(self, runner, tmp_path):
        path = write(tmp_path, "p.csv", "0,+\n")
        result = runner.invoke(main, ["pattern", path])
        assert result.exit_code == 2


class TestClassifyCommand:
    def test_identity_case(self, runner):
        result = runner.invoke(main, ["classify2x2", "0", "0"])
        assert result.exit_code == 0
        assert "Identity" in result.output

    def test_rational_convergent_case(self, runner):
        result = runner.invoke(main, ["classify2x2", "3/10", "1/5", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["case"] == "ConvergesGeneric"
        assert report["stationary"] == ["2/5", "3/5"]
        assert report["variation"] == "1/2"

    def test_float_divergent_case(self, runner):
        result = runner.invoke(main, ["classify2x2", "1.5", "1.0", "--json"])
        report = json.loads(result.output)
        assert report["case"] == "DivergesGeneric"

    def test_negative_weight_arguments(self, runner):
        result = runner.invoke(main, ["classify2x2", "1/2", "-1/2", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["case"] == "DivergesLinear"
        assert report["c"] == "0"

    def test_bad_scalar(self, runner):
        result = runner.invoke(main, ["classify2x2", "x", "0"])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "args, code, line",
        [
            (["-inf", "0"], 1, "error: non-finite scalar: A=-inf, B=0"),
            (["-1e-3", "0"], 0, "case: DivergesGeneric"),
            # a "--" after the "--" marker is a value too
            (["--", "1/2", "--"], 1, "error: bad scalar: Invalid literal for Fraction: '--'"),
        ],
    )
    def test_arguments_that_start_with_a_dash(self, runner, args, code, line):
        result = runner.invoke(main, ["classify2x2", *args])
        assert result.exit_code == code
        assert line in result.output.splitlines()

    @pytest.mark.parametrize("pair", [("inf", "nan"), ("nan", "0.5")], ids=["inf-nan", "nan"])
    def test_non_finite_scalar(self, runner, pair):
        result = runner.invoke(main, ["classify2x2", *pair])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: non-finite scalar")


def _text_rendered(report):
    raise AssertionError("a text report was rendered")


JSON_COMMANDS = [
    (["analyze", "worked.csv"], 0),
    (["analyze", "--tol", "1e-300", "reducible.csv"], 3),
    (["variation", "worked.csv"], 0),
    (["pattern", "two-cycle.csv"], 0),
    (["classify2x2", "1/2", "1/3"], 0),
]


class TestJsonRendersNoText:
    @pytest.mark.parametrize(
        "args, code", JSON_COMMANDS, ids=[" ".join(args) for args, _ in JSON_COMMANDS]
    )
    def test_json_report_without_text_rendering(self, runner, tmp_path, monkeypatch, args, code):
        for name in ("analysis_text", "variation_text", "pattern_text", "classification_text"):
            monkeypatch.setattr(cli, name, _text_rendered)
        # a parser of this test's own, whose commands render with the patched functions
        monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
        for name, text in CONSOLE_FILES.items():
            write(tmp_path, name, text)
        args = [str(tmp_path / a) if a in CONSOLE_FILES else a for a in args]
        result = runner.invoke(main, args + ["--json"])
        assert result.exit_code == code, result.exception
        assert json.loads(result.stdout)["schema"] == "stovar/1"


# text lines that no other test reads; --json no longer renders them
TEXT_LINES = [
    (["variation", "m.csv"], "1,0\n0,2\n", "type: none (column sums are not constant)"),
    (["pattern", "m.csv"], "0,+,0\n0,0,+\n+,+,0\n", "first positive power: 5"),
    (["classify2x2", "3/10", "1/5"], "", "stationary vector: 2/5, 3/5"),
]


class TestTextReports:
    @pytest.mark.parametrize("args, text, line", TEXT_LINES, ids=[a[0] for a, _, _ in TEXT_LINES])
    def test_text_report_line(self, runner, tmp_path, args, text, line):
        path = write(tmp_path, "m.csv", text)
        result = runner.invoke(main, [path if a == "m.csv" else a for a in args])
        assert result.exit_code == 0
        assert line in result.stdout.splitlines()


# half of the bytes come from the characters of CSV and JSON matrix files
_MATRIX_FILE_BYTES = st.sampled_from([bytes([c]) for c in b'0123456789/.,e+-\n{}[]":'])
_FILE_BYTES = st.lists(
    st.one_of(st.binary(min_size=1, max_size=1), _MATRIX_FILE_BYTES), max_size=200
).map(b"".join)
_FILE_COMMANDS = [["analyze"], ["analyze", "--json"], ["variation"], ["pattern"]]


@pytest.fixture(scope="class")
def class_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("arbitrary")


class TestArbitraryInput:
    """Every command prints a report or one ``error:`` line with its exit code."""

    @staticmethod
    def _check(result, as_json):
        assert result.exit_code in (0, 1, 2, 3)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.exit_code in (1, 2):
            assert result.stdout == ""
            assert result.stderr.startswith("error: ")
            assert len(result.stderr.splitlines()) == 1
        else:
            assert result.stderr == ""
            if as_json:
                assert json.loads(result.stdout)["schema"] == "stovar/1"

    @settings(max_examples=300, deadline=None)
    @given(
        data=_FILE_BYTES,
        command=st.sampled_from(_FILE_COMMANDS),
        suffix=st.sampled_from([".csv", ".json"]),
    )
    def test_file_bytes(self, class_dir, data, command, suffix):
        path = class_dir / f"input{suffix}"
        path.write_bytes(data)
        result = CliRunner().invoke(main, [command[0], str(path), *command[1:]])
        self._check(result, "--json" in command)

    @settings(max_examples=200, deadline=None)
    @given(a=st.text(), b=st.text())
    @example(a="inf\n", b="0")
    def test_classify_arguments(self, a, b):
        # "--" keeps an argument such as "--json" or "--help" a value
        self._check(CliRunner().invoke(main, ["classify2x2", "--", a, b]), False)


_JSON_TEXT = st.text(st.characters(exclude_categories=()))  # lone surrogates included
_JSON_LEAVES = st.one_of(
    _JSON_TEXT,
    st.sampled_from(["\x00", "\x1b[31m", "\x7f", "é", "\u2028", "\ud800", "\udfff", "\U0001f600"]),
    st.integers(-(10**300), 10**300),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.booleans(),
    st.none(),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_JSON_TEXT, inner, max_size=5),
        # one element repeated, as in the rows of a projection
        st.tuples(inner, st.integers(0, 5)).map(lambda pair: [pair[0]] * pair[1]),
        # strings, then maybe one more item of any kind, as in variation_per_power
        st.tuples(st.lists(_JSON_TEXT, max_size=5), st.lists(inner, max_size=1)).map(
            lambda pair: pair[0] + pair[1]
        ),
        # one string repeated, then maybe another one
        st.tuples(_JSON_TEXT, st.integers(1, 5), st.lists(_JSON_TEXT, max_size=1)).map(
            lambda t: [t[0]] * t[1] + t[2]
        ),
    ),
    max_leaves=30,
)


class TestReportEncoder:
    @settings(max_examples=500, deadline=None)
    @given(_JSON_VALUES)
    @example(float("nan"))
    @example({"projection": [["1/3"] * 3] * 3, "empty": [{}, []]})
    @example(("a", ("b", "b"), (1, -0.0)))
    @example(["a", 1])
    @example(["a", "a", "b"])
    @example([True, 1, False, 0, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), None])
    @example({"a": [[], {}, [[]], [{}]], "b": {"c": {}, "d": []}, "e": ()})
    @example({"variation_per_power": ["1/2"] + ["1"] * 63, "stationary": None})
    @example(["1"] * 63 + ["1/2"])
    @example([["x"], "x"])
    def test_same_text_as_the_stock_encoder(self, value):
        assert json.dumps(value, indent=2, cls=cli._ReportEncoder) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1, v], lambda v: {"k": (v,)}])
    def test_an_int_past_the_string_limit_raises_as_in_the_stock_encoder(self, wrap):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            value = wrap(10**640)
            with pytest.raises(ValueError, match="integer string conversion") as stock:
                json.dumps(value, indent=2)
            with pytest.raises(ValueError, match="integer string conversion") as ours:
                json.dumps(value, indent=2, cls=cli._ReportEncoder)
            assert str(ours.value) == str(stock.value)
            assert json.dumps(wrap(10**639), indent=2, cls=cli._ReportEncoder) == json.dumps(
                wrap(10**639), indent=2
            )
        finally:
            sys.set_int_max_str_digits(previous)


class TestReportEcho:
    def test_reports_skip_the_escape_scan(self, runner, tmp_path):
        path = write(tmp_path, "m\x1b[31m.csv", EX_M_CSV)
        for args in (["analyze", path, "--json"], ["analyze", path], ["variation", path, "--json"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 0
            assert "\x1b" not in result.stdout
        assert json.loads(result.stdout)["input"]["path"] == path
        result = runner.invoke(main, ["analyze", path + ".missing"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: cannot read")
