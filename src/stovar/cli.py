"""Command-line front end: parse matrix files, run analyses, emit reports.

Input formats
    CSV   one row per line, comma-separated entries.  An entry is either a
          decimal literal or a fraction ``p/q``.  A file containing only
          decimal literals loads in the float domain; any fraction forces
          the rational domain, with decimal literals converted exactly
          from their digits (never through a binary float).
    JSON  an object ``{"rows": m, "cols": n, "data": [[...], ...]}`` whose
          entries are numbers or ``"p/q"`` strings, same domain rule.

Both formats are UTF-8 text; a leading byte-order mark is ignored.

Machine-readable reports are JSON objects with a top-level
``"schema": "stovar/1"`` field, written byte for byte as
``json.dumps(report, indent=2)``.  String values are exact fractions in
the rational domain and 17 significant digits in the float domain, so
rational-domain reports are byte-identical across runs and platforms;
every ``decimal`` field is a JSON number in shortest round-trip form.

Exit codes: 0 success (analysis converged), 1 parse error,
2 precondition failure (not square, not type 1, bad entries) or usage
error (unknown command or option; a command's bad option value or
missing argument), 3 inconclusive (no contraction power within the
search bound).  Each error prints one ``error:`` line on stderr.
``run`` is the one place where these codes are decided: it parses the
command line, builds the command's report, and renders only the form
asked for, JSON or text.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import inf, isfinite
from typing import Callable, NoReturn, Optional, Sequence, Union

from . import analysis as _analysis
from .analysis import (
    DEFAULT_K_REPORT,
    DEFAULT_P_MAX,
    Classification2x2,
    ConvergenceAnalysis,
    classify_2x2,
    matrix_2x2,
)
from .core import (
    DEFAULT_TOLERANCE,
    Domain,
    Matrix,
    Scalar,
    TypeReport,
    VariationReport,
    _exact,
    _finite,
    _over_lcm,
    _row_slices,
    set_tolerance,
    type_of,
    variation,
)
from .errors import MatrixParseError, StovarError
from .nonneg import SignPattern, _pattern_powers, pairwise_positive_overlap

SCHEMA = "stovar/1"

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------------------
# scalar and matrix serialization


def format_scalar(value: Scalar, domain: Domain) -> str:
    """Report form of a scalar: exact fraction string, or 17 digits.

    Raises :class:`StovarError` for a fraction whose numerator or
    denominator has more digits than Python's int-string limit
    (``sys.get_int_max_str_digits()``) lets ``str`` print, and for a
    float that is not finite: a float result over finite entries, such
    as a variation, can still overflow.
    """
    if domain is Domain.RATIONAL:
        try:
            return str(value if isinstance(value, Fraction) else Fraction(value))
        except ValueError as exc:
            raise StovarError(f"a report value is too long to print: {exc}") from exc
    return format(_finite([float(value)], domain)[0], ".17g")


def _decimal(value: Scalar) -> float:
    """Float form of a report value; StovarError when it overflows a float."""
    try:
        return float(value)
    except OverflowError as exc:
        raise StovarError(f"a report value is too large for a float: {exc}") from exc


# Python's int-string limit is either 0 (no limit) or at least this many digits
_MIN_INT_STR_LIMIT = 640


def _distinct_fractions(distinct: list[Union[int, str]]) -> list[Fraction]:
    """Exact values of the tokens, in order; MatrixParseError if ``str`` cannot print one.

    The reader hands each distinct token once, in first-seen order, so the
    first bad token names the error.  A token without an exponent has no
    fewer characters than its reduced numerator or denominator has digits,
    so the values are printed on trial only when some token has an exponent
    or is longer than the smallest limit Python allows.
    """
    values = list(map(_exact, distinct))
    pieces = list(map(str, distinct))
    text = "".join(pieces)
    if "e" in text or "E" in text or max(map(len, pieces)) > _MIN_INT_STR_LIMIT:
        for value in values:
            try:
                str(value)
            except ValueError as exc:
                raise MatrixParseError(f"entry too long to print: {exc}") from exc
    return values


def _spread(tokens: list, distinct: list, values: list) -> list:
    """The value of each token, from the values of the distinct tokens; ``values`` when none repeats."""
    if len(distinct) == len(tokens):
        return values
    return list(map(dict(zip(distinct, values)).__getitem__, tokens))


def _detect_format(path: str, fmt: Optional[str]) -> str:
    if fmt is not None:
        return fmt
    return "json" if os.path.splitext(path)[1].lower() == ".json" else "csv"


def _entries_to_matrix(rows: int, cols: int, tokens: list[Union[int, str]], ratio: bool) -> Matrix:
    """The matrix of the tokens, each distinct token read once, in first-seen order.

    Equal tokens have equal values, so the first bad or non-finite token
    still names the error.  A rational matrix comes with its integer form,
    scaled once per distinct token.
    """
    distinct = list(dict.fromkeys(tokens))
    try:
        if not ratio:
            values = _finite(list(map(float, distinct)), Domain.FLOAT)
            return Matrix._of(rows, cols, _spread(tokens, distinct, values), Domain.FLOAT)
        values = _distinct_fractions(distinct)
        numerators, d = _over_lcm(values)
        form = (_spread(tokens, distinct, numerators), d)
        return Matrix._of(rows, cols, _spread(tokens, distinct, values), Domain.RATIONAL, form)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # OverflowError: a JSON integer too large for a float
        raise MatrixParseError(f"bad matrix entry: {exc}") from exc
    except StovarError as exc:
        raise MatrixParseError(str(exc)) from exc


def _csv_tokens(text: str, what: str) -> tuple[int, list[str]]:
    """Number of non-blank lines and their comma-separated tokens, as they stand."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixParseError(f"empty {what} file")
    if len({line.count(",") for line in lines}) > 1:
        raise MatrixParseError("ragged rows: every line needs the same number of entries")
    return len(lines), ",".join(lines).split(",")


def _parse_csv_matrix(text: str) -> Matrix:
    """Read the tokens as they stand; if that fails, read them stripped, naming the error.

    ``float`` and ``Fraction(str)`` skip whitespace around a token but read
    no empty token and none padded with U+001F, which ``str.strip`` removes.
    """
    rows, tokens = _csv_tokens(text, "matrix")
    try:
        return _entries_to_matrix(rows, len(tokens) // rows, tokens, "/" in text)
    except MatrixParseError:
        tokens = [tok.strip() for tok in tokens]
    if "" in tokens:
        raise MatrixParseError("empty entry in matrix file")
    return _entries_to_matrix(rows, len(tokens) // rows, tokens, "/" in text)


def _parse_json_matrix(text: str) -> Matrix:
    try:
        # parse_float=str keeps the literal digits so rational conversion
        # can be exact when a fraction elsewhere forces that domain
        payload = json.loads(text, parse_float=str)
    except ValueError as exc:  # a JSONDecodeError, or an int over the int-string limit
        raise MatrixParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MatrixParseError("JSON matrix must be an object with rows, cols, data")
    try:
        rows_n = payload["rows"]
        cols_n = payload["cols"]
        data = payload["data"]
    except KeyError as exc:
        raise MatrixParseError(f"JSON matrix is missing the {exc.args[0]!r} field") from exc
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (rows_n, cols_n)):
        raise MatrixParseError("the rows and cols fields must be integers")
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise MatrixParseError("the data field must be an array of arrays")
    if len(data) != rows_n or any(len(row) != cols_n for row in data):
        raise MatrixParseError(
            f"data shape does not match rows={rows_n}, cols={cols_n}"
        )
    if rows_n == 0 or cols_n == 0:
        raise MatrixParseError("empty matrix")
    cells = [cell for row in data for cell in row]
    for cell in cells:
        if isinstance(cell, bool) or not isinstance(cell, (int, str)):
            raise MatrixParseError(f"bad matrix entry: {cell!r}")
    ratio = any(isinstance(cell, str) and "/" in cell for cell in cells)
    return _entries_to_matrix(rows_n, cols_n, cells, ratio)


def _read_text(path: str) -> str:
    try:
        # a leading byte-order mark is not part of the text; stripped after a
        # plain utf-8 decode, so a decoding error counts bytes from the file's start
        with open(path, encoding="utf-8") as file:
            return file.read().removeprefix("\ufeff")
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path} is not UTF-8 text: {exc}") from exc


def parse_matrix(path: str, fmt: Optional[str] = None) -> Matrix:
    """Load a matrix from a CSV or JSON file.

    The format is taken from the extension unless ``fmt`` is given.
    Raises :class:`MatrixParseError` for unreadable or malformed files.
    """
    text = _read_text(path)
    if _detect_format(path, fmt) == "json":
        return _parse_json_matrix(text)
    return _parse_csv_matrix(text)


def parse_pattern(path: str) -> SignPattern:
    """Load a sign pattern from a CSV-style file of 0 and + entries."""
    rows, tokens = _csv_tokens(_read_text(path), "pattern")
    try:
        return SignPattern(_row_slices([tok.strip() for tok in tokens], len(tokens) // rows))
    except ValueError as exc:
        raise MatrixParseError("pattern entries must be 0 or +") from exc


# ---------------------------------------------------------------------------
# report construction


def _input_echo(m: Matrix, path: Optional[str]) -> dict:
    echo = {"rows": m.rows, "cols": m.cols, "domain": m.domain.value}
    if path is not None:
        echo["path"] = path
    return echo


def _type_dict(report: TypeReport, domain: Domain) -> dict:
    return {
        "has_type": report.has_type,
        "value": format_scalar(report.type_value, domain),
        "max_deviation": format_scalar(report.max_deviation, domain),
    }


def _variation_dict(report: VariationReport, domain: Domain) -> dict:
    return {
        "value": format_scalar(report.value, domain),
        "decimal": _decimal(report.value),
        "columns": [report.arg_j, report.arg_k],
    }


def _verdict_string(result: ConvergenceAnalysis) -> str:
    if result.converged:
        return "converges"
    return f"no contraction power found up to p_max={result.p_max}"


def analysis_report(m: Matrix, result: ConvergenceAnalysis, path: Optional[str] = None) -> dict:
    """JSON-ready report for the analyze command."""
    domain = m.domain
    limit = sys.get_int_max_str_digits()
    if result.converged and domain is Domain.RATIONAL and limit:
        # the bound (a/b)^q (c/d)^r at k_report has a denominator >= b^q / c^r
        q, r = divmod(result.k_report, result.contraction_power)
        b, c = result.variation_at_p.denominator, result.variation_per_power[0].numerator
        if q * (b.bit_length() - 1) - r * c.bit_length() > limit * 3.33:  # 3.33 > log2(10)
            raise StovarError(
                f"a report value is too long to print: Exceeds the limit ({limit} digits) for "
                "integer string conversion; use sys.set_int_max_str_digits() to increase the limit"
            )
    stationary = (
        None
        if result.stationary is None
        else [format_scalar(v, domain) for v in result.stationary]
    )
    # each distinct variation is formatted once, in first-seen order; a
    # variation is never -0.0, so no two values with different texts are equal
    texts = {v: format_scalar(v, domain) for v in dict.fromkeys(result.variation_per_power)}
    report = {
        "schema": SCHEMA,
        "command": "analyze",
        "input": _input_echo(m, path),
        "parameters": {"p_max": result.p_max, "k_report": result.k_report},
        "type": _type_dict(result.type_report, domain),
        "variation": _variation_dict(result.first_variation, domain),
        "variation_per_power": list(map(texts.__getitem__, result.variation_per_power)),
        "contraction_power": result.contraction_power,
        "variation_at_power": (
            None
            if result.variation_at_p is None
            else format_scalar(result.variation_at_p, domain)
        ),
        "stationary": stationary,
        # the projection is E times the all-ones row: row i repeats E_i
        "projection": (
            None if stationary is None else [[v] * m.cols for v in stationary]
        ),
        "decay_bounds": [
            {"k": k, "bound": format_scalar(v, domain), "decimal": _decimal(v)}
            for k, v in result.decay_bounds
        ],
        "verdict": _verdict_string(result),
    }
    return report


def _matrix_lines(cells: list[list[str]], indent: str = "  ") -> list[str]:
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    return [
        indent + "  ".join(row[j].rjust(widths[j]) for j in range(len(row)))
        for row in cells
    ]


def _header_lines(report: dict) -> list[str]:
    """The input, type and variation lines of an analyze or variation report."""
    echo = report["input"]
    t = report["type"]
    var = report["variation"]
    lines = [f"input: {echo['rows']}x{echo['cols']} matrix, {echo['domain']} domain"]
    if t["has_type"]:
        lines.append(f"type: {t['value']} (max column-sum deviation {t['max_deviation']})")
    else:
        lines.append("type: none (column sums are not constant)")
    lines.append(
        f"variation: {var['value']} (~{var['decimal']:.6g}) "
        f"between columns {var['columns'][0]} and {var['columns'][1]}"
    )
    return lines


def analysis_text(report: dict) -> str:
    """Human-readable rendering of an analyze report."""
    lines = _header_lines(report)
    per_power = ", ".join(
        f"p={i + 1}: {v}" for i, v in enumerate(report["variation_per_power"])
    )
    lines.append(f"variation per power: {per_power}")
    if report["contraction_power"] is not None:
        lines.append(
            f"contraction power: {report['contraction_power']} "
            f"(variation {report['variation_at_power']})"
        )
        lines.append("stationary vector: " + ", ".join(report["stationary"]))
        lines.append("limit projection:")
        lines.extend(_matrix_lines(report["projection"]))
        bounds = "  ".join(
            f"k={b['k']}: {b['decimal']:.6g}" for b in report["decay_bounds"]
        )
        lines.append(f"decay bounds on variation of M^k: {bounds}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)


def variation_report_dict(m: Matrix, path: Optional[str] = None) -> dict:
    return {
        "schema": SCHEMA,
        "command": "variation",
        "input": _input_echo(m, path),
        "type": _type_dict(type_of(m), m.domain),
        "variation": _variation_dict(variation(m), m.domain),
    }


def variation_text(report: dict) -> str:
    return "\n".join(_header_lines(report))


def pattern_report_dict(p: SignPattern, k_max: int) -> dict:
    first, powers = _pattern_powers(p, k_max)
    return {
        "schema": SCHEMA,
        "command": "pattern",
        "rows": p.rows,
        "cols": p.cols,
        "k_max": k_max,
        "powers": [{"k": k, "rows": list(q.row_strings())} for k, q in enumerate(powers, 1)],
        "first_positive_power": first,
        "pairwise_positive_overlap": pairwise_positive_overlap(p),
    }


def pattern_text(report: dict) -> str:
    lines = [f"pattern: {report['rows']}x{report['cols']}"]
    for block in report["powers"]:
        lines.append(f"power {block['k']}:")
        lines.extend("  " + row for row in block["rows"])
    first = report["first_positive_power"]
    if first is None:
        lines.append(f"first positive power: none up to k_max={report['k_max']}")
    else:
        lines.append(f"first positive power: {first}")
    overlap = "yes" if report["pairwise_positive_overlap"] else "no"
    lines.append(f"every column pair shares a positive row: {overlap}")
    return "\n".join(lines)


def classification_report_dict(result: Classification2x2) -> dict:
    m = matrix_2x2(result.a, result.b)
    domain = m.domain
    return {
        "schema": SCHEMA,
        "command": "classify2x2",
        "domain": domain.value,
        "a": format_scalar(result.a, domain),
        "b": format_scalar(result.b, domain),
        "c": format_scalar(result.c, domain),
        "matrix": [[format_scalar(v, domain) for v in row] for row in m.row_lists()],
        "variation": format_scalar(result.variation, domain),
        "eigenvalues": [format_scalar(v, domain) for v in result.eigenvalues],
        "eigenvectors": (
            None
            if result.eigenvectors is None
            else [[format_scalar(v, domain) for v in vec] for vec in result.eigenvectors]
        ),
        "case": result.case.value,
        "stationary": (
            None
            if result.stationary is None
            else [format_scalar(v, domain) for v in result.stationary]
        ),
    }


def classification_text(report: dict) -> str:
    lines = [
        f"a = {report['a']}, b = {report['b']}, c = {report['c']} ({report['domain']} domain)",
        "matrix:",
    ]
    lines.extend(_matrix_lines(report["matrix"]))
    lines.append(f"variation: {report['variation']}")
    lines.append("eigenvalues: " + ", ".join(report["eigenvalues"]))
    lines.append(f"case: {report['case']}")
    if report["stationary"] is not None:
        lines.append("stationary vector: " + ", ".join(report["stationary"]))
    return "\n".join(lines)


class _ReportEncoder(json.JSONEncoder):
    """The text of ``json.dumps(report, indent=2)``, default options otherwise, written directly.

    With an indent the stock encoder runs in pure Python, one chunk per
    value.  This one joins each dict (string keys) and list at once.  It
    writes an int, a finite float and None as the stock encoder does
    (``int.__repr__``, ``float.__repr__``, ``null``), a list of strings
    with one ``map``, and a list that repeats one string (a projection
    row, or the 1s of an inconclusive scan) by string repetition.  A
    bool, a nan or an infinity goes to the stock scalar encoder.
    """

    _scalar = json.JSONEncoder()  # its C encoder writes a scalar as any indent would

    def encode(self, o) -> str:
        return self._text(o, "\n")

    def _text(self, o, newline: str) -> str:
        kind = type(o)
        if kind is str:
            return encode_basestring_ascii(o)
        if kind is int:
            return int.__repr__(o)  # past the int-string limit, the same ValueError
        if kind is float and isfinite(o):
            return float.__repr__(o)
        if o is None:
            return "null"
        inner = newline + "  "
        if isinstance(o, dict):
            brackets = "{}"
            items = [encode_basestring_ascii(k) + ": " + self._text(v, inner) for k, v in o.items()]
        elif isinstance(o, (list, tuple)):
            brackets = "[]"
            if o and isinstance(o[0], str):
                if o.count(o[0]) == len(o):
                    item = inner + encode_basestring_ascii(o[0])
                    return "[" + item + ("," + item) * (len(o) - 1) + newline + "]"
                try:
                    items = list(map(encode_basestring_ascii, o))
                except TypeError:  # an item that is not a string
                    items = [self._text(v, inner) for v in o]
            else:
                items = [self._text(v, inner) for v in o]
        else:
            return self._scalar.encode(o)
        if not items:
            return brackets
        return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


# ---------------------------------------------------------------------------
# commands


def _analyze(opts: argparse.Namespace) -> dict:
    """Full convergence analysis of a square matrix file."""
    m = parse_matrix(opts.path, opts.format)
    set_tolerance(opts.tol)
    result = _analysis.analyze(m, p_max=opts.pmax, k_report=opts.k_report)
    return analysis_report(m, result, path=opts.path)


def _variation(opts: argparse.Namespace) -> dict:
    """Column variation and type report of a matrix file."""
    return variation_report_dict(parse_matrix(opts.path, opts.format), path=opts.path)


def _pattern(opts: argparse.Namespace) -> dict:
    """Sign-pattern powers for a file of 0 and + entries.

    Prints the pattern powers (stopping at the first all-positive power
    or when the patterns start repeating), the first positive power, and
    whether every column pair shares a positive row.
    """
    return pattern_report_dict(parse_pattern(opts.path), opts.kmax)


def _classify(opts: argparse.Namespace) -> dict:
    """Classify the 2x2 type-1 matrix [[1-A, B], [A, 1-B]].

    A and B follow the entry syntax of matrix files: a fraction p/q selects
    the exact rational domain for both, otherwise they load as floats.
    """
    # argparse drops a "--" argument after the "--" marker, and leaves [] in its place
    a, b = ("--" if value == [] else value for value in (opts.a, opts.b))
    ratio = "/" in a + b
    try:
        pair = _distinct_fractions([a, b]) if ratio else [float(a), float(b)]
    except (ValueError, ZeroDivisionError) as exc:
        raise MatrixParseError(f"bad scalar: {exc}") from exc
    if not ratio and not all(map(isfinite, pair)):
        raise MatrixParseError(f"non-finite scalar: A={a.strip()}, B={b.strip()}")
    return classification_report_dict(classify_2x2(*pair))


def _positive(kind: type) -> Callable[[str], Union[int, float]]:
    """Option type: a ``kind`` read from the option's text, above zero (so not nan) and finite."""

    def value(text: str) -> Union[int, float]:
        try:
            number = kind(text)
        except ValueError:
            number = 0  # unreadable text is refused as not positive
        if not number > 0:
            raise argparse.ArgumentTypeError(f"{text!r} is not a positive {kind.__name__}")
        if not number < inf:
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite {kind.__name__}")
        return number

    return value


def _error_line(message: str) -> str:
    """``error: message`` on one line: each character where ``str.splitlines`` breaks escaped by repr."""
    escaped = re.sub("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]", lambda c: repr(c[0])[1:-1], message)
    return f"error: {escaped}\n"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors print one ``error:`` line and exit 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_PRECONDITION, _error_line(message))


@functools.cache
def _parser() -> _Parser:
    """The ``stovar`` parser, built once; each command's help is its report builder's docstring."""
    parser = _Parser(prog="stovar", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", dest="command")

    def command(name: str, build: Callable, render: Callable) -> _Parser:
        doc = build.__doc__
        sub = commands.add_parser(name, help=doc.split("\n")[0], description=doc, allow_abbrev=False)
        sub.add_argument("--json", action="store_true", help="emit the machine-readable JSON report")
        sub.set_defaults(build=build, render=render)
        return sub

    analyze = command("analyze", _analyze, analysis_text)
    variation_ = command("variation", _variation, variation_text)
    pattern = command("pattern", _pattern, pattern_text)
    classify = command("classify2x2", _classify, classification_text)
    for sub in (analyze, variation_, pattern):
        sub.add_argument("path")
    for sub in (analyze, variation_):
        sub.add_argument("--format", choices=["csv", "json"],
                         help="input file format; default is by file extension")
    for sub, option, kind, default, text in (
        (analyze, "--pmax", int, DEFAULT_P_MAX, "largest power searched for a variation below one"),
        (analyze, "--tol", float, DEFAULT_TOLERANCE, "float-domain comparison tolerance"),
        (analyze, "--k-report", int, DEFAULT_K_REPORT, "largest power covered by the decay-bound table"),
        (pattern, "--kmax", int, 32, "largest power searched for an all-positive pattern"),
    ):
        sub.add_argument(option, type=_positive(kind), default=default,
                         help=f"{text} (default: %(default)s)")
    classify.add_argument("a", metavar="A")
    classify.add_argument("b", metavar="B")
    # any other argument with one leading dash is a value, such as -1/2, -1e-3 or -inf
    classify._negative_number_matcher = re.compile(r"-(?!-)")
    return parser


def run(args: Sequence[str]) -> int:
    """Run one ``stovar`` command line: print its report or its ``error:`` line, return its exit code.

    The one place exit codes are decided.  A usage error exits 2 with one
    ``error:`` line, and ``--help`` prints on stdout and exits 0; a command
    line without a command prints the help on stderr and exits 2.  A
    :class:`MatrixParseError` exits 1 and any other :class:`StovarError`
    exits 2, each with one ``error:`` line on stderr; a line break in the
    message is escaped.  A report is printed in the form asked for, JSON or
    text, and exits 0, or 3 for an analysis without a contraction power.
    The help and the report keep their exit code, with nothing on stderr,
    when the reader has closed stdout early.  The report is built in a
    copy of the context, so a tolerance set there ends with it.
    """
    parser = _parser()
    try:
        opts = parser.parse_args(args)
    except SystemExit as exc:  # --help, or a usage error after its error: line
        return exc.code
    except BrokenPipeError:  # --help to a closed stdout; argparse lets it out before Python 3.11
        _drop_stdout()
        return EXIT_OK
    if opts.command is None:
        parser.print_help(sys.stderr)
        return EXIT_PRECONDITION
    try:
        report = contextvars.copy_context().run(opts.build, opts)
    except StovarError as exc:
        sys.stderr.write(_error_line(str(exc)))
        return EXIT_PARSE if isinstance(exc, MatrixParseError) else EXIT_PRECONDITION
    inconclusive = opts.command == "analyze" and report["contraction_power"] is None
    text = json.dumps(report, indent=2, cls=_ReportEncoder) if opts.json else opts.render(report)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        _drop_stdout()
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def _drop_stdout() -> None:
    """The reader closed stdout; as Python's signal docs advise, the final flush goes to devnull."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(args: Optional[Sequence[str]] = None) -> NoReturn:
    """Convergence analysis of matrix powers via the column variation."""
    sys.exit(run(sys.argv[1:] if args is None else args))


main.main = lambda args=None, prog_name=None: main(args)  # click's in-process form; perfbench calls it


if __name__ == "__main__":
    main()
