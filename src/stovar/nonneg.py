"""Sign-pattern machinery for non-negative matrices.

A non-negative matrix of type a has variation at most a, with equality
exactly when some pair of columns has disjoint positive supports.  That
makes the {zero, positive} pattern of a matrix enough to decide whether
the variation is strictly below the type, and pattern products soundly
track the supports of matrix products.  This module implements the
patterns, the strictness test, the regularity index search, and the
sampled 3x3 Markov convergence criterion based on the third power.

Boolean products work on column masks: column j is an int whose bit i
is set when cell (i, j) is nonzero, and column j of a product A B is
the OR of the columns l of A over the set bits l of column j of B.  The
same kernel serves :func:`pattern_product` and the support walk that
lets ``analyze`` report var(M^k) = 1 for a non-negative type-1 M
without forming M^k: the supports of the powers of M are the boolean
powers of its support, with a zero being an exact zero.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core import (
    Domain,
    Matrix,
    Scalar,
    _column_slices,
    _ensure_typed,
    _row_slices,
    ensure_type_one,
    mat_pow,
    scalars_equal,
    strictly_less,
    tolerance,
    variation,
)
from .errors import (
    DimensionError,
    NegativeEntryError,
    NonPositiveTypeError,
    NotSquareError,
)

_CELL_VALUES = {
    "0": False,
    "+": True,
    0: False,
    1: True,
    False: False,
    True: True,
}


class SignPattern:
    """Entrywise {zero, positive} abstraction of a non-negative matrix.

    Cells accept ``0``/``1``, booleans, or the characters ``"0"``/``"+"``.
    """

    __slots__ = ("_rows", "_cols", "_cells")

    def __init__(self, rows: Iterable[Iterable[Union[bool, int, str]]]):
        data = [list(row) for row in rows]
        if not data or not data[0]:
            raise DimensionError("a pattern needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionError("all pattern rows must have the same number of entries")
        cells = []
        for row in data:
            for cell in row:
                try:
                    cells.append(_CELL_VALUES[cell])
                except (KeyError, TypeError):
                    raise ValueError(f"pattern cell must be 0 or +, got {cell!r}") from None
        self._rows = len(data)
        self._cols = width
        self._cells = tuple(cells)

    @classmethod
    def _of(cls, rows: int, cols: int, cells: Iterable[bool]) -> "SignPattern":
        """Pattern over row-major booleans computed by this module; no checks."""
        p = object.__new__(cls)
        p._rows, p._cols, p._cells = rows, cols, tuple(cells)
        return p

    @classmethod
    def identity(cls, n: int) -> "SignPattern":
        if n < 1:
            raise DimensionError("a pattern needs at least one row and one column")
        return cls._of(n, n, [i == j for i in range(n) for j in range(n)])

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def is_square(self) -> bool:
        return self._rows == self._cols

    def entry(self, i: int, j: int) -> bool:
        """True when the (0-based) cell is positive."""
        if not (0 <= i < self._rows and 0 <= j < self._cols):
            raise IndexError(f"cell ({i}, {j}) outside a {self._rows}x{self._cols} pattern")
        return self._cells[i * self._cols + j]

    def is_all_positive(self) -> bool:
        return all(self._cells)

    def row_strings(self) -> tuple[str, ...]:
        """Rows rendered as strings of '0' and '+'."""
        return tuple(
            "".join("+" if cell else "0" for cell in row)
            for row in _row_slices(self._cells, self._cols)
        )

    def __iter__(self) -> Iterator[bool]:
        return iter(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignPattern):
            return NotImplemented
        return (
            (self._rows, self._cols) == (other._rows, other._cols)
            and self._cells == other._cells
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._cols, self._cells))

    def __repr__(self) -> str:
        return f"SignPattern([{', '.join(repr(s) for s in self.row_strings())}])"


def _floor(domain: Domain) -> Scalar:
    """Largest value that counts as zero: 0, or the tolerance for floats."""
    return 0 if domain is Domain.RATIONAL else tolerance()


def _ensure_nonnegative(a: Matrix) -> None:
    floor = _floor(a.domain)
    if any(v < -floor for v in a.entries):
        raise NegativeEntryError(f"matrix has an entry below {-floor}")


def sign_pattern(a: Matrix) -> SignPattern:
    """The {zero, positive} pattern of a non-negative matrix.

    Float entries count as positive only above the module tolerance, so
    pattern results are reproducible for a fixed tolerance.
    """
    _ensure_nonnegative(a)
    floor = _floor(a.domain)
    return SignPattern._of(a.rows, a.cols, [v > floor for v in a.entries])


def _column_supports(cells: Sequence, width: int) -> list[list[int]]:
    """Row indices of the nonzero cells of each column of row-major cells."""
    return [[i for i, cell in enumerate(col) if cell] for col in _column_slices(cells, width)]


def _masks(supports: list[list[int]]) -> list[int]:
    """Column masks: bit i of column j is set when i is in its support."""
    return [sum(1 << i for i in support) for support in supports]


def _mask_product(left: list[int], right: list[list[int]]) -> list[int]:
    """Column masks of A B, from the column masks of A and the supports of B."""
    return [reduce(or_, [left[c] for c in support], 0) for support in right]


def _masks_overlap(masks: list[int]) -> bool:
    """Whether every pair of columns, (k, k) included, shares a set bit."""
    return all(a & b for k, a in enumerate(masks) for b in masks[k:])


def pattern_product(p: SignPattern, q: SignPattern) -> SignPattern:
    """Boolean matrix product; sound for supports of non-negative products."""
    if p.cols != q.rows:
        raise DimensionError(f"cannot multiply {p.rows}x{p.cols} by {q.rows}x{q.cols} patterns")
    left = _masks(_column_supports(p._cells, p.cols))
    out = _mask_product(left, _column_supports(q._cells, q.cols))
    cells = [bool(mask >> i & 1) for i in range(p.rows) for mask in out]
    return SignPattern._of(p.rows, q.cols, cells)


def pattern_power(p: SignPattern, k: int) -> SignPattern:
    """k-th boolean power of a square pattern; the zeroth power is identity."""
    if not p.is_square:
        raise NotSquareError(f"cannot raise a {p.rows}x{p.cols} pattern to a power")
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = SignPattern.identity(p.rows)
    for _ in range(k):
        result = pattern_product(result, p)
    return result


def _pattern_powers(p: SignPattern, k_max: int) -> list[SignPattern]:
    """P^1, P^2, ..., ending at the first all-positive or repeated power.

    The list also ends at P^k_max, and no product past its last power is
    formed. Stopping at a repeat loses nothing: once P^j = P^i with
    i < j, the powers cycle through P^i .. P^(j-1), none of which is all
    positive, so no later power is.
    """
    if not p.is_square:
        raise NotSquareError(f"regularity index needs a square pattern, got {p.rows}x{p.cols}")
    if not isinstance(k_max, int) or k_max < 1:
        raise ValueError("k_max must be a positive integer")
    powers = [p]
    seen: set[SignPattern] = set()
    while len(powers) < k_max and not powers[-1].is_all_positive() and powers[-1] not in seen:
        seen.add(powers[-1])
        powers.append(pattern_product(powers[-1], p))
    return powers


def first_positive_power(p: SignPattern, k_max: int) -> Optional[int]:
    """Smallest k <= k_max with P^k entirely positive, or None."""
    powers = _pattern_powers(p, k_max)
    return len(powers) if powers[-1].is_all_positive() else None


def pairwise_positive_overlap(p: SignPattern) -> bool:
    """Whether every pair of columns shares a row where both are positive.

    Pairs include (k, k), so a pattern with an all-zero column fails.
    """
    return _masks_overlap(_masks(_column_supports(p._cells, p.cols)))


def _first_overlapping_power(a: Matrix, k_max: int, window: int) -> Optional[int]:
    """Smallest k <= k_max whose support pattern P^k overlaps pairwise, or None.

    P is the support of the square matrix A: cell (i, j) is set exactly
    when A[i][j] != 0, with no tolerance floor, so for a non-negative A
    the support of A^k is P^k.  A float product can only lose support,
    by underflow, so two columns disjoint in P^k are disjoint in the
    computed power too.  The walk also ends, with None, when a power
    equals P or one of the ``window`` powers before it: from there the
    powers cycle through patterns already found not to overlap.  So it
    holds P and at most ``window`` powers, whatever k_max is.
    """
    supports = _column_supports(a.entries, a.cols)
    first = power = _masks(supports)
    recent: deque[list[int]] = deque(maxlen=window)
    k = 1
    while not _masks_overlap(power):
        if k == k_max:
            return None
        power = _mask_product(power, supports)
        k += 1
        if power == first or power in recent:
            return None
        recent.append(power)
    return k


def _typed_positive(a: Matrix) -> Scalar:
    t = _ensure_typed(a).type_value
    if not t > _floor(a.domain):
        raise NonPositiveTypeError(f"column-sum type must be positive, got {t}")
    return t


def strict_variation_test(a: Matrix) -> bool:
    """True when the variation of a non-negative type-a matrix is below a.

    Decided from the sign pattern (every column pair overlapping in a
    positive row) and cross-checked against the direct variation
    comparison; a disagreement would falsify the equivalence the pattern
    route relies on and raises RuntimeError.
    """
    t = _typed_positive(a)
    via_pattern = pairwise_positive_overlap(sign_pattern(a))
    direct = strictly_less(variation(a).value, t, a.domain)
    if via_pattern != direct:
        raise RuntimeError(
            "pattern overlap test disagrees with the direct variation comparison"
        )
    return direct


def variation_type_bound_check(a: Matrix) -> bool:
    """Check variation <= type for a non-negative typed matrix.

    Always true; exposed as an assertion-style operation for test suites.
    The float domain allows the tolerance as slack on the comparison.
    """
    t = _ensure_typed(a).type_value
    _ensure_nonnegative(a)
    value = variation(a).value
    return value <= t or scalars_equal(value, t, a.domain)


def criterion_3x3(m: Matrix) -> bool:
    """Convergence criterion for a 3x3 Markov matrix: variation(M^3) < 1.

    Strict comparison, with the float guard band treating values within
    tolerance of one as not below it.
    """
    if m.rows != 3 or m.cols != 3:
        raise DimensionError(f"criterion needs a 3x3 matrix, got {m.rows}x{m.cols}")
    _ensure_nonnegative(m)
    ensure_type_one(m)
    cube = mat_pow(m, 3)
    return strictly_less(variation(cube).value, 1, m.domain)
