"""Shared fixtures, strategies, and random generators for the test suite."""

from __future__ import annotations

import io
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from hypothesis import strategies as st

from stovar import Domain, Matrix, MatrixParseError, SignPattern, StovarError, Vector, mat_vec
from stovar.core import _finite

F = Fraction

# Worked 3x3 example used across the suite: type 1, one negative column,
# variation 6/5 at the first power and 18/25 at the second.
EX_M = Matrix(
    [
        [F(0, 5), F(2, 5), F(-4, 5)],
        [F(-1, 5), F(-1, 5), F(0, 5)],
        [F(6, 5), F(4, 5), F(9, 5)],
    ]
)
EX_M_SQUARED = Matrix(
    [
        [F(-26, 25), F(-18, 25), F(-36, 25)],
        [F(1, 25), F(-1, 25), F(4, 25)],
        [F(50, 25), F(44, 25), F(57, 25)],
    ]
)
EX_E = Vector([F(-2), F(1, 3), F(8, 3)])
EX_LIMIT = Matrix(
    [
        [F(-6, 3), F(-6, 3), F(-6, 3)],
        [F(1, 3), F(1, 3), F(1, 3)],
        [F(8, 3), F(8, 3), F(8, 3)],
    ]
)
EX_M_CSV = "0/5,2/5,-4/5\n-1/5,-1/5,0/5\n6/5,4/5,9/5\n"

# The three 3x3 Markov support shapes studied in the nonneg module, with
# concrete stochastic instances for each.
K_PATTERN = SignPattern(["+++", "0++", "00+"])
L_PATTERN = SignPattern(["++0", "+0+", "0++"])
M_PATTERN = SignPattern(["0+0", "00+", "++0"])
M_POWER_PATTERNS = [
    SignPattern(["0+0", "00+", "++0"]),
    SignPattern(["00+", "++0", "0++"]),
    SignPattern(["++0", "0++", "+++"]),
    SignPattern(["0++", "+++", "+++"]),
    SignPattern(["+++", "+++", "+++"]),
]
K_INSTANCE = Matrix([[1, F(1, 2), F(1, 3)], [0, F(1, 2), F(1, 3)], [0, 0, F(1, 3)]])
L_INSTANCE = Matrix(
    [[F(1, 2), F(1, 2), 0], [F(1, 2), 0, F(1, 2)], [0, F(1, 2), F(1, 2)]]
)
M_INSTANCE = Matrix([[0, F(1, 2), 0], [0, 0, 1], [1, F(1, 2), 0]])

# The 0/1 matrix of the map 10 -> 11 -> 12 -> 0 -> 1 -> ... -> 9 -> 0: a
# 3-step tail into a 10-cycle, with the 1 of column j in row step[j].  Its
# powers are 12 distinct patterns, then P^13 = P^3; no two columns of any
# power overlap.
TAIL_CYCLE_STEP = [(j + 1) % 10 for j in range(10)] + [11, 12, 0]
TAIL_CYCLE_ROWS = [[int(TAIL_CYCLE_STEP[j] == i) for j in range(13)] for i in range(13)]


def block_tail_rows(block: int, tail: int) -> list[list[Fraction]]:
    """A dense block of states fed by a lazy path of ``tail`` states, each column over its sum.

    Block column j puts weight (7 i + 3 j) % 9 + 1 on every block state i.
    Tail state j keeps weight 2 (3 at the far end) and steps to j - 1 and
    j + 1 with weight 1, the first tail state into the last block state.
    Every row has a zero, so M is its own Markov part, and the columns
    first overlap pairwise when the far end reaches the block, at power
    ``tail``.
    """
    n = block + tail
    weights = [[0] * n for _ in range(n)]
    for j in range(block):
        for i in range(block):
            weights[i][j] = (7 * i + 3 * j) % 9 + 1
    for j in range(block, n):
        weights[j][j] = 3 if j == n - 1 else 2
        weights[j - 1][j] = 1
        if j + 1 < n:
            weights[j + 1][j] = 1
    sums = [sum(col) for col in zip(*weights)]
    return [[F(w, t) for w, t in zip(row, sums)] for row in weights]


def lazy_path_rows(n: int) -> list[list[Fraction]]:
    """The lazy path on n states: stay with 1/2 (3/4 at the ends), move with 1/4.

    Columns 1 and n first share a row at power n // 2.
    """
    rows = [[{0: F(1, 2), 1: F(1, 4)}.get(abs(i - j), F(0)) for j in range(n)] for i in range(n)]
    rows[0][0] = rows[n - 1][n - 1] = F(3, 4)
    return rows


def lazy_path_shear_rows(n: int = 16) -> list[list[Fraction]]:
    """S Q S^-1 for Q the lazy path on n states and S = I + (e_1 - e_6) e_10^T.

    S^-1 = I - (e_1 - e_6) e_10^T and 1^T S = 1^T, so M is type 1.  At
    n = 16 its row minima sum to -3/4 (c = 7/4) and no two columns of
    L = M - r 1^T are disjoint, so the scan steps power by power, from M
    on, to p = 32.
    """
    q = lazy_path_rows(n)
    u = [(i == 0) - (i == 5) for i in range(n)]

    def times(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    s = [[int(i == j) + u[i] * (j == 9) for j in range(n)] for i in range(n)]
    s_inv = [[int(i == j) - u[i] * (j == 9) for j in range(n)] for i in range(n)]
    return times(times(s, q), s_inv)


def two_class_rows(c: Fraction, n: int = 10) -> list[list[Fraction]]:
    """c P + (1 - c) e_1 1^T, for P two lazy paths of n states on the diagonal.

    Every row of P has a zero, so the row minima are (1 - c) e_1 and
    L = M - r 1^T is c P.  The two classes never meet: columns 1 and
    n + 1 of every power of L are disjoint, and var(M^k) = c^k for every
    k.  For c > 1, M has no contraction power.
    """
    path = lazy_path_rows(n)
    rows = [[c * v for v in row] + [F(0)] * n for row in path]
    rows += [[F(0)] * n + [c * v for v in row] for row in path]
    rows[0] = [v + 1 - c for v in rows[0]]
    return rows


# Float type-1 matrices with two disjoint columns, whose var(M) is exactly 1
# in the type-1 matrix the tolerance admits.  Summed, the first one's var(M)
# is 0.99999999865 (column sums 1 - 9e-10 and 1 - 1.8e-9), below the guard
# band; the second one's, two diagonal blocks, is 1.0000000000000002 at
# columns (1, 5) where sum() adds left to right (up to Python 3.11), and
# (1, 3) is the first disjoint pair.
TOLERANCE_EDGE_CSV = "0.9999999991,0\n0,0.9999999982\n"
BLOCK_ROUNDED_CSV = (
    "0.5714285714285714,0.6153846153846154,0,0,0,0\n"
    "0.42857142857142855,0.38461538461538464,0,0,0,0\n"
    "0,0,0.16666666666666666,0.34782608695652173,0.35,0.3684210526315789\n"
    "0,0,0.125,0.13043478260869565,0.35,0.10526315789473684\n"
    "0,0,0.3333333333333333,0.30434782608695654,0.1,0.21052631578947367\n"
    "0,0,0.375,0.21739130434782608,0.2,0.3157894736842105\n"
)


def basis_vector(n: int, j: int, domain: Domain = Domain.RATIONAL) -> Vector:
    """Standard basis vector with a one at 0-based position j."""
    one = F(1) if domain is Domain.RATIONAL else 1.0
    zero = F(0) if domain is Domain.RATIONAL else 0.0
    return Vector([one if i == j else zero for i in range(n)], domain=domain)


def linear_divergence_power(a: Fraction, k: int) -> Matrix:
    """Closed form of the k-th power in the 2x2 case with b = -a."""
    return Matrix([[1 - k * a, -k * a], [k * a, 1 + k * a]])


def power_iterate(m: Matrix, start: Vector, steps: int) -> Vector:
    """Plain power iteration; independent oracle for stationary vectors."""
    x = start
    for _ in range(steps):
        x = mat_vec(m, x)
    return x


def kernel_fixed_vector(m: Matrix) -> Optional[Vector]:
    """Independent oracle: nullspace of M - I by full reduced echelon form.

    Returns the kernel vector normalized to entry sum one, or None when
    the kernel dimension is not one or the kernel vector has entry sum
    zero.  Exact rational arithmetic only.
    """
    n = m.rows
    rows = (m - Matrix.identity(n)).row_lists()
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [F(0)] * n
    vec[free[0]] = F(1)
    for row_index, pivot_col in enumerate(pivots):
        vec[pivot_col] = -rows[row_index][free[0]]
    total = sum(vec, F(0))
    if total == 0:
        return None
    return Vector([v / total for v in vec])


# ---------------------------------------------------------------------------
# in-process command runner


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: Optional[BaseException]

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class CliRunner:
    """Runs ``main(args)`` in this process, with stdout and stderr captured.

    The result has the fields of click's ``CliRunner`` result; ``exception``
    is the ``SystemExit`` that ends the command.  Any other exception
    propagates and fails the test with its traceback.
    """

    def invoke(self, main: Callable, args: list[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                return Result(exc.code, out.getvalue(), err.getvalue(), exc)
        raise AssertionError(f"main({args!r}) returned without exiting")


# ---------------------------------------------------------------------------
# hypothesis strategies (exact rational domain)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def rational_matrices(draw, min_rows=1, max_rows=4, min_cols=1, max_cols=4):
    m = draw(st.integers(min_rows, max_rows))
    n = draw(st.integers(min_cols, max_cols))
    entries = draw(st.lists(small_fractions, min_size=m * n, max_size=m * n))
    return Matrix([entries[i * n : (i + 1) * n] for i in range(m)])


@st.composite
def nonneg_matrices(draw, min_rows=1, max_rows=4, min_cols=1, max_cols=4):
    a = draw(rational_matrices(min_rows, max_rows, min_cols, max_cols))
    return Matrix([[abs(a.entry(i, j)) for j in range(a.cols)] for i in range(a.rows)])


@st.composite
def typed_matrices(draw, min_rows=2, max_rows=4, min_cols=1, max_cols=4, type_value=None):
    """Matrix with an exact column-sum type, forced through the last row."""
    m = draw(st.integers(min_rows, max_rows))
    n = draw(st.integers(min_cols, max_cols))
    t = type_value if type_value is not None else draw(small_fractions)
    body = [[draw(small_fractions) for _ in range(n)] for _ in range(m - 1)]
    last = [t - sum(body[i][j] for i in range(m - 1)) for j in range(n)]
    return Matrix(body + [last]), t


@st.composite
def matrix_with_sum_zero_vector(draw):
    a = draw(rational_matrices())
    raw = draw(st.lists(small_fractions, min_size=a.cols, max_size=a.cols))
    mean = sum(raw, F(0)) / len(raw)
    return a, Vector([v - mean for v in raw], domain=Domain.RATIONAL)


# ---------------------------------------------------------------------------
# seeded random generators (exact rational domain)


def rand_fraction(rng: random.Random, max_num: int = 8, max_den: int = 9) -> Fraction:
    return F(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_matrix(rng: random.Random, m: int, n: int) -> Matrix:
    return Matrix([[rand_fraction(rng) for _ in range(n)] for _ in range(m)])


def rand_typed_matrix(rng: random.Random, m: int, n: int, t: Fraction) -> Matrix:
    body = [[rand_fraction(rng) for _ in range(n)] for _ in range(m - 1)]
    last = [t - sum(body[i][j] for i in range(m - 1)) for j in range(n)]
    return Matrix(body + [last])


def rand_sum_zero_vector(rng: random.Random, n: int) -> Vector:
    raw = [rand_fraction(rng) for _ in range(n)]
    mean = sum(raw, F(0)) / n
    return Vector([v - mean for v in raw], domain=Domain.RATIONAL)


def rand_nonneg_typed(
    rng: random.Random,
    m: int,
    n: int,
    t: Fraction,
    zero_prob: float = 0.35,
    fill_max: int = 9,
) -> Matrix:
    """Support pattern then positive integer fills, columns scaled to sum t.

    Every column keeps at least one positive entry, so the exact column
    normalization is always possible.
    """
    columns = []
    for _ in range(n):
        col = [0 if rng.random() < zero_prob else rng.randint(1, fill_max) for _ in range(m)]
        if not any(col):
            col[rng.randrange(m)] = rng.randint(1, fill_max)
        columns.append(col)
    return Matrix(
        [[t * F(columns[j][i], sum(columns[j])) for j in range(n)] for i in range(m)]
    )


def rand_markov_3x3(rng: random.Random) -> Matrix:
    """Random 3x3 Markov matrix by pattern-then-fill with small denominators."""
    return rand_nonneg_typed(rng, 3, 3, F(1), zero_prob=0.45, fill_max=4)


def rand_contractive_type1(rng: random.Random, n: int) -> Matrix:
    """Random type-1 matrix with variation exactly one half.

    Built as a rank-one projection onto the first basis vector plus a
    type-0 perturbation rescaled to variation 1/2, so the contraction
    hypothesis holds at the first power.
    """
    from stovar import variation

    perturbation = rand_typed_matrix(rng, n, n, F(0))
    spread = variation(perturbation).value
    while spread == 0:
        perturbation = rand_typed_matrix(rng, n, n, F(0))
        spread = variation(perturbation).value
    perturbation = perturbation.scale(F(1, 2) / spread)
    one = F(1)
    zero = F(0)
    projection = Matrix([[one if i == 0 else zero] * n for i in range(n)])
    return projection + perturbation


def lexicographic_widest(entries, n):
    """Every column pair j < k in lexicographic order; the first at the largest distance.

    The reference for the column search: each distance is the builtin
    ``sum`` of the same terms in the same order, so floats agree bit for
    bit on every interpreter.
    """
    cols = [entries[j::n] for j in range(n)]
    best, pair = None, (1, 2)
    for j in range(n):
        for k in range(j + 1, n):
            dist = sum(abs(x - y) for x, y in zip(cols[j], cols[k]))
            if best is None or dist > best:
                best, pair = dist, (j + 1, k + 1)
    return best, pair


# ---------------------------------------------------------------------------
# reference CSV matrix reader


_REFERENCE_EXPONENT = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(?P<mantissa>\d*(?:\.\d*)?)[eE](?P<exponent>[-+]?\d+)\s*"
)


def _reference_fraction(token: str) -> Fraction:
    """``Fraction(token)`` with Python 3.10's grammar: no ``_`` on any version."""
    if "_" in token:
        raise ValueError(f"Invalid literal for Fraction: {token!r}")
    return Fraction(token)


def _reference_exact(token: str) -> Fraction:
    limit = sys.get_int_max_str_digits()
    match = limit and _REFERENCE_EXPONENT.fullmatch(token)
    if not match or abs(int(match["exponent"])) <= limit + len(token):
        return _reference_fraction(token)
    if match["mantissa"].strip("0."):
        raise MatrixParseError(f"entry too long to print: its exponent gives over {limit} digits")
    return Fraction(0)


def _reference_fractions(tokens: list[str]) -> list[Fraction]:
    text = "".join(tokens)
    if "e" not in text and "E" not in text and max(map(len, tokens)) <= 640:
        return list(map(_reference_fraction, tokens))
    values = list(map(_reference_exact, tokens))
    for value in values:
        try:
            str(value)
        except ValueError as exc:
            raise MatrixParseError(f"entry too long to print: {exc}") from exc
    return values


def reference_csv_matrix(text: str) -> Matrix:
    """The CSV matrix reader as it was before the one-pass reader.

    Step by step: strip every token of every non-blank line, check the
    row lengths and for empty entries, then read each token with
    ``Fraction(str)`` (if any token holds a ``/``) or ``float``.
    """
    rows = [[tok.strip() for tok in line.split(",")] for line in text.splitlines() if line.strip()]
    if not rows:
        raise MatrixParseError("empty matrix file")
    if any(len(row) != len(rows[0]) for row in rows):
        raise MatrixParseError("ragged rows: every line needs the same number of entries")
    if any(tok == "" for row in rows for tok in row):
        raise MatrixParseError("empty entry in matrix file")
    tokens = [tok for row in rows for tok in row]
    try:
        if any("/" in tok for tok in tokens):
            values, domain = _reference_fractions(tokens), Domain.RATIONAL
        else:
            values, domain = list(map(float, tokens)), Domain.FLOAT
        return Matrix._of(len(rows), len(rows[0]), _finite(values, domain), domain)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise MatrixParseError(f"bad matrix entry: {exc}") from exc
    except StovarError as exc:
        raise MatrixParseError(str(exc)) from exc
