"""Sign-pattern machinery for non-negative matrices.

A non-negative matrix of type a has variation at most a, with equality
exactly when some pair of columns has disjoint positive supports.  That
makes the {zero, positive} pattern of a matrix enough to decide whether
the variation is strictly below the type, and pattern products soundly
track the supports of matrix products.  This module implements the
patterns, the strictness test, the regularity index search, and the
sampled 3x3 Markov convergence criterion based on the third power.
"""

from __future__ import annotations

from operator import and_
from typing import Iterable, Iterator, Optional, Union

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


def pattern_product(p: SignPattern, q: SignPattern) -> SignPattern:
    """Boolean matrix product; sound for supports of non-negative products."""
    if p.cols != q.rows:
        raise DimensionError(f"cannot multiply {p.rows}x{p.cols} by {q.rows}x{q.cols} patterns")
    rows = _row_slices(p._cells, p.cols)
    cols = _column_slices(q._cells, q.cols)
    return SignPattern._of(p.rows, q.cols, [any(map(and_, r, c)) for r in rows for c in cols])


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
    cols = _column_slices(p._cells, p.cols)
    return all(any(map(and_, ck, cl)) for k, ck in enumerate(cols) for cl in cols[k:])


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
