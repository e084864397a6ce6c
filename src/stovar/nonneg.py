"""Sign-pattern machinery for non-negative matrices.

A non-negative matrix of type a has variation at most a, with equality
exactly when some pair of columns has disjoint positive supports.  That
makes the {zero, positive} pattern of an exact matrix enough to decide
whether the variation is strictly below the type, and pattern products
soundly track the supports of matrix products.  This module implements the
patterns, the strictness test, the regularity index search, and the
sampled 3x3 Markov convergence criterion based on the third power.

A pattern is stored as column masks: column j is an int whose bit i is
set when cell (i, j) is nonzero, and column j of a product A B is the
OR of the columns l of A over the set bits l of column j of B.  A
product reads B through its support layers (:func:`_layers`): layer t
holds, for every column of B, its t-th set bit, so one ``itemgetter``
call per layer picks a column of A for every column of the product,
and one ``map(or_, ...)`` per layer joins them.  One
walk over the boolean powers of a square pattern, :func:`_power_walk`,
stops at the first power that meets a test or at the first repeat of
an earlier power.  It serves :func:`first_positive_power` and the
``stovar pattern`` listing (test: all positive), and the support walk
that lets ``analyze`` report var(M^k) = 1 for a non-negative type-1 M
without forming M^k (test: columns overlap pairwise): the supports of
the powers of M are the boolean powers of its support, with a zero
being an exact zero.
"""

from __future__ import annotations

from itertools import compress, count, zip_longest
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .core import (
    Domain,
    Matrix,
    Scalar,
    _column_slices,
    _ensure_typed,
    _power_by_squaring,
    _rectangle,
    _require_count,
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

# False and True are found as the keys 0 and 1, which they equal
_CELL_VALUES = {
    "0": False,
    "+": True,
    0: False,
    1: True,
}


class SignPattern:
    """Entrywise {zero, positive} abstraction of a non-negative matrix.

    Cells accept ``0``/``1``, booleans, or the characters ``"0"``/``"+"``.
    It is stored as one int per column, with bit i set when cell (i, j)
    is positive.
    """

    __slots__ = ("_rows", "_masks")

    def __init__(self, rows: Iterable[Iterable[Union[bool, int, str]]]):
        self._rows, width, cells = _rectangle(rows, "pattern")
        bits = []
        for cell in cells:
            try:
                bits.append(_CELL_VALUES[cell])
            except (KeyError, TypeError):
                raise ValueError(f"pattern cell must be 0 or +, got {cell!r}") from None
        self._masks = _column_masks(bits, width)

    @classmethod
    def _of(cls, rows: int, masks: tuple[int, ...]) -> "SignPattern":
        """Pattern over column masks computed by this module; no checks."""
        p = object.__new__(cls)
        p._rows, p._masks = rows, masks
        return p

    @classmethod
    def identity(cls, n: int) -> "SignPattern":
        if n < 1:
            raise DimensionError("a pattern needs at least one row and one column")
        return cls._of(n, tuple(1 << j for j in range(n)))

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return len(self._masks)

    @property
    def is_square(self) -> bool:
        return self._rows == len(self._masks)

    def entry(self, i: int, j: int) -> bool:
        """True when the (0-based) cell is positive."""
        if not (0 <= i < self._rows and 0 <= j < self.cols):
            raise IndexError(f"cell ({i}, {j}) outside a {self._rows}x{self.cols} pattern")
        return bool(self._masks[j] >> i & 1)

    def is_all_positive(self) -> bool:
        full = (1 << self._rows) - 1
        return all(mask == full for mask in self._masks)

    def row_strings(self) -> tuple[str, ...]:
        """Rows rendered as strings of '0' and '+'."""
        return tuple(
            "".join("+" if mask >> i & 1 else "0" for mask in self._masks)
            for i in range(self._rows)
        )

    def __iter__(self) -> Iterator[bool]:
        """Cells in row-major order."""
        return (bool(mask >> i & 1) for i in range(self._rows) for mask in self._masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignPattern):
            return NotImplemented
        return (self._rows, self._masks) == (other._rows, other._masks)

    def __hash__(self) -> int:
        return hash((self._rows, self._masks))

    def __repr__(self) -> str:
        return f"SignPattern([{', '.join(repr(s) for s in self.row_strings())}])"


def _floor(domain: Domain) -> Scalar:
    """Largest value that counts as zero: 0, or the tolerance for floats."""
    return 0 if domain is Domain.RATIONAL else tolerance()


def _ensure_nonnegative(a: Matrix) -> None:
    floor = _floor(a.domain)
    if any(v < -floor for v in a.entries):
        raise NegativeEntryError(f"matrix has an entry below {-floor}")


def _column_masks(cells: Sequence, width: int) -> tuple[int, ...]:
    """Column masks of row-major cells: bit i of column j is set when cell (i, j) is truthy."""
    bits = [1 << i for i in range(len(cells) // width)]
    return tuple([sum(compress(bits, col)) for col in _column_slices(cells, width)])


def sign_pattern(a: Matrix) -> SignPattern:
    """The {zero, positive} pattern of a non-negative matrix.

    Float entries count as positive only above the current tolerance, so
    pattern results are reproducible for a fixed tolerance.
    """
    _ensure_nonnegative(a)
    floor = _floor(a.domain)
    return SignPattern._of(a.rows, _column_masks([v > floor for v in a.entries], a.cols))


_BITS = bytes.maketrans(b"01", b"\0\1")


def _supports(masks: tuple[int, ...]) -> list[list[int]]:
    """Set bits of each column mask, read from its binary digits, lowest first."""
    return [list(compress(count(), bin(mask)[:1:-1].encode().translate(_BITS))) for mask in masks]


def _layers(masks: tuple[int, ...]) -> list[Callable[[tuple[int, ...]], Sequence[int]]]:
    """Support layers of a pattern B with column masks ``masks``, as getters.

    Layer t reads, from the column masks of A with a 0 appended, the
    column of A at the t-th set bit of each column of B, or the 0 where
    that column of B has fewer set bits.  There is one layer per set bit
    of B's fullest column, and one layer of zeros when B is all zero.
    """
    depths = list(zip_longest(*_supports(masks), fillvalue=-1)) or [(-1,) * len(masks)]
    if len(masks) == 1:
        # a one-index itemgetter returns a bare value; a one-item slice keeps a tuple
        return [itemgetter(slice(i, i + 1 or None)) for (i,) in depths]
    return [itemgetter(*depth) for depth in depths]


def _mask_product(left: tuple[int, ...], right: list[Callable]) -> tuple[int, ...]:
    """Column masks of A B, from the column masks of A and the layers of B.

    Column j of A B is the OR, over the layers of B, of the column of A
    each layer reads for column j: one getter call and one
    ``map(or_, ...)`` per layer, with no Python loop over the columns.
    """
    padded = left + (0,)
    columns = right[0](padded)
    for layer in right[1:]:
        columns = [*map(or_, columns, layer(padded))]
    return tuple(columns)


def _masks_overlap(masks: tuple[int, ...]) -> bool:
    """Whether every pair of columns, (k, k) included, shares a set bit."""
    return all(a & b for k, a in enumerate(masks) for b in masks[k:])


def pattern_product(p: SignPattern, q: SignPattern) -> SignPattern:
    """Boolean matrix product; sound for supports of non-negative products."""
    if p.cols != q.rows:
        raise DimensionError(f"cannot multiply {p.rows}x{p.cols} by {q.rows}x{q.cols} patterns")
    return SignPattern._of(p.rows, _mask_product(p._masks, _layers(q._masks)))


def pattern_power(p: SignPattern, k: int) -> SignPattern:
    """k-th boolean power of a square pattern; the zeroth power is identity.

    Formed by repeated squaring, in O(log k) mask products.
    """
    if not p.is_square:
        raise NotSquareError(f"cannot raise a {p.rows}x{p.cols} pattern to a power")
    _require_count(k, "exponent", 0)
    if not k:
        return SignPattern.identity(p.rows)
    power = _power_by_squaring(p._masks, k, lambda a, b: _mask_product(a, _layers(b)))
    return SignPattern._of(p.rows, power)


def _power_walk(
    first: tuple[int, ...], k_max: int, stop: Callable[[tuple[int, ...]], bool]
) -> tuple[Optional[int], list[tuple[int, ...]]]:
    """Smallest k <= k_max whose power P^k meets ``stop``, or None; and P^1 .. P^k.

    P is the square pattern with column masks ``first``.  The walk ends
    with None at P^k_max, or at the first power equal to an earlier one:
    from a repeat on, the powers cycle through patterns already found not
    to meet ``stop``.  It forms no product past the last power it
    returns, so it holds at most min(k_max, index of the first repeat)
    powers.
    """
    layers = _layers(first)
    powers = [first]
    seen: set[tuple[int, ...]] = set()
    power = first
    while not stop(power):
        if len(powers) == k_max or power in seen:
            return None, powers
        seen.add(power)
        power = _mask_product(power, layers)
        powers.append(power)
    return len(powers), powers


def _pattern_powers(p: SignPattern, k_max: int) -> tuple[Optional[int], list[SignPattern]]:
    """First all-positive power of P up to k_max, or None; and the powers walked."""
    if not p.is_square:
        raise NotSquareError(f"regularity index needs a square pattern, got {p.rows}x{p.cols}")
    _require_count(k_max, "k_max")
    first, powers = _power_walk(
        p._masks, k_max, lambda masks: SignPattern._of(p.rows, masks).is_all_positive()
    )
    return first, [SignPattern._of(p.rows, masks) for masks in powers]


def first_positive_power(p: SignPattern, k_max: int) -> Optional[int]:
    """Smallest k <= k_max with P^k entirely positive, or None."""
    return _pattern_powers(p, k_max)[0]


def pairwise_positive_overlap(p: SignPattern) -> bool:
    """Whether every pair of columns shares a row where both are positive.

    Pairs include (k, k), so a pattern with an all-zero column fails.
    """
    return _masks_overlap(p._masks)


def _typed_positive(a: Matrix) -> Scalar:
    t = _ensure_typed(a).type_value
    if not t > _floor(a.domain):
        raise NonPositiveTypeError(f"column-sum type must be positive, got {t}")
    return t


def strict_variation_test(a: Matrix) -> bool:
    """True when the variation of a non-negative type-a matrix is below a.

    A rational matrix is decided by its exact sign pattern: every column
    pair overlaps in a positive row.  A float one is decided by its
    variation, compared with a within the tolerance, since its pattern
    counts an entry at or below the tolerance as zero.
    """
    t = _typed_positive(a)
    if a.domain is Domain.RATIONAL:
        return pairwise_positive_overlap(sign_pattern(a))
    _ensure_nonnegative(a)
    return strictly_less(variation(a).value, t, a.domain)


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
