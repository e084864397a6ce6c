"""Scalar domains, vectors, matrices, and the column-variation primitives.

:class:`Matrix`, :class:`Vector` (an n-by-1 value) and :class:`RowVector`
(1-by-n) share one body, ``_Dense``: row-major entries with a shape and a
domain, one arithmetic, one equality, and one product, ``_product``.
Values are immutable after construction and can be shared between
threads.  Two scalar domains are supported: exact rationals backed by
``fractions.Fraction`` and finite IEEE floats guarded by a comparison
tolerance.  A vector or matrix belongs to exactly one domain, chosen at
construction; mixing domains in a single operation raises
:class:`DomainMismatchError`.  Rational operations are pure; float ones
also read that tolerance, which is a context variable: each thread (and
each ``stovar`` command, which runs in a copy of its caller's context)
has its own, so setting it in one thread leaves every other unchanged.
"""

from __future__ import annotations

import re
import struct
import sys
from contextvars import ContextVar
from enum import Enum
from fractions import Fraction
from itertools import compress, repeat
from math import floor, frexp, gcd, inf, isfinite, lcm, ldexp
from operator import add, le, lshift, mul, rshift, sub, xor
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import (
    DimensionError,
    DomainMismatchError,
    MatrixParseError,
    NotSquareError,
    NotTypedError,
    NotTypeOneError,
)

Scalar = Union[Fraction, float]
ScalarLike = Union[int, float, str, Fraction]

DEFAULT_TOLERANCE = 1e-9

_tolerance: ContextVar[float] = ContextVar("stovar.tolerance", default=DEFAULT_TOLERANCE)


class Domain(Enum):
    """Scalar domain a vector or matrix lives in."""

    RATIONAL = "rational"
    FLOAT = "float"


def set_tolerance(value: float) -> float:
    """Replace the float-domain comparison tolerance, returning the old one.

    The tolerance guards float-domain equality tests (type detection,
    fixed-point verification) and the strictness margin applied when a
    variation is compared against a threshold.  It is set in the current
    context only; rational-domain computations never consult it.  A value
    that is not positive and finite raises ValueError.
    """
    tol = _to_float(value)
    if not 0.0 < tol < inf:
        raise ValueError("tolerance must be positive and finite")
    previous = _tolerance.get()
    _tolerance.set(tol)
    return previous


def tolerance() -> float:
    """Current float-domain comparison tolerance."""
    return _tolerance.get()


def scalars_close(x: float, y: float) -> bool:
    """Float equality within the tolerance, relative to max(1, |x|, |y|)."""
    return _all_close((x,), (y,))


def _all_close(xs: Sequence[float], ys: Sequence[float]) -> bool:
    """Whether |x - y| <= tolerance * max(1, |x|, |y|) for every pair of xs and ys, in one ``map`` pass."""
    tol = repeat(_tolerance.get())
    bounds = map(mul, tol, map(max, repeat(1.0), map(abs, xs), map(abs, ys)))
    return all(map(le, map(abs, map(sub, xs, ys)), bounds))


def scalars_equal(x: Scalar, y: Scalar, domain: Domain) -> bool:
    """Equality in the domain: exact for rationals, within tolerance for floats; ValueError for any other domain."""
    if domain is Domain.RATIONAL:
        return x == y
    _require_domain(domain)
    return scalars_close(float(x), float(y))


def is_zero(value: Scalar, domain: Domain) -> bool:
    return scalars_equal(value, 0, domain)


def strictly_less(x: Scalar, y: Scalar, domain: Domain) -> bool:
    """Strict comparison; float values within tolerance of each other tie."""
    return x < y and not scalars_equal(x, y, domain)


_ZEROS = {Domain.RATIONAL: Fraction(0), Domain.FLOAT: 0.0}
_ONES = {Domain.RATIONAL: Fraction(1), Domain.FLOAT: 1.0}


def zero_of(domain: Domain) -> Scalar:
    return _ZEROS[_require_domain(domain)]


def one_of(domain: Domain) -> Scalar:
    return _ONES[_require_domain(domain)]


# a decimal literal with an exponent, in the syntax that Fraction accepts
_EXPONENT_LITERAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(?P<mantissa>\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?)"
    r"[eE](?P<exponent>[-+]?\d+(?:_\d+)*)\s*"
)

# an ASCII p/q; int alone would also take "_", "+", spaces, a signed q and other digits
_RATIO = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _exact(token: ScalarLike) -> Fraction:
    """``Fraction(token)``, an ASCII ``p/q`` from its ints and a huge exponent decided first.

    ``Fraction`` builds ``10**e`` for an exponent e before anything can
    look at the value.  A nonzero mantissa times ``10**e`` with |e| above
    the int-string limit plus the token's length has a reduced numerator
    or denominator longer than that limit, which ``str`` cannot print, so
    such a token raises :class:`MatrixParseError` at once; a zero mantissa
    gives 0.  With the limit off (0) every exponent is converted.
    """
    ratio = isinstance(token, str) and _RATIO.fullmatch(token)
    if ratio:
        return Fraction(int(ratio[1]), int(ratio[2]))
    limit = sys.get_int_max_str_digits()
    match = limit and isinstance(token, str) and _EXPONENT_LITERAL.fullmatch(token)
    if not match or abs(int(match["exponent"])) <= limit + len(token):
        return Fraction(token)
    if match["mantissa"].strip("0._"):
        raise MatrixParseError(f"entry too long to print: its exponent gives over {limit} digits")
    return Fraction(0)


def _coerce(value: ScalarLike, domain: Domain) -> Scalar:
    """The value in the domain; a rational one read by :func:`_exact`."""
    if domain is Domain.RATIONAL:
        if isinstance(value, float):
            raise DomainMismatchError(
                "float entry in a rational-domain value; pass a Fraction, "
                "an int, or a literal string such as '3/5' or '0.24'"
            )
        try:
            return _exact(value)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise DomainMismatchError(f"cannot interpret {value!r} as a rational") from exc
    try:
        result = float(value)
    except (ValueError, TypeError) as exc:
        raise DomainMismatchError(f"cannot interpret {value!r} as a float") from exc
    except OverflowError as exc:
        # no repr: an int beyond the int-string limit cannot be printed
        raise DomainMismatchError("entry beyond the float range in a float-domain value") from exc
    if not isfinite(result):
        raise DomainMismatchError(f"non-finite entry {value!r} in a float-domain value")
    return result


def _finite(values: list[Scalar], domain: Domain) -> list[Scalar]:
    """The computed values, after checking that float ones are finite."""
    if domain is Domain.FLOAT and not all(map(isfinite, values)):
        bad = next(v for v in values if not isfinite(v))
        raise DomainMismatchError(f"non-finite entry {bad!r} in a float-domain value")
    return values


def _to_float(value: Scalar) -> float:
    """float(value), but inf or -inf where float() of a huge Fraction overflows."""
    try:
        return float(value)
    except OverflowError:
        return inf if value > 0 else -inf


def _require_count(value: int, name: str, least: int = 1) -> None:
    """ValueError unless value is an int, not a bool, of at least ``least`` (1, or 0 for an exponent)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be a {'positive' if least else 'non-negative'} integer")


def _require_size(value: int, name: str, message: str) -> None:
    """:func:`_require_count`'s ValueError for a bool or non-int size, DimensionError(message) for an int below 1."""
    if isinstance(value, int) and not isinstance(value, bool) and value < 1:
        raise DimensionError(message)
    _require_count(value, name)


def _require_domain(domain: Domain) -> Domain:
    """The domain itself; ValueError, naming the value, unless it is a :class:`Domain`."""
    if not isinstance(domain, Domain):
        raise ValueError(f"domain must be a Domain, not {domain!r}")
    return domain


def _rectangle(rows: Iterable[Iterable], noun: str) -> tuple[int, int, list]:
    """Row count, width and row-major cells of nonempty rows of one width; DimensionError otherwise."""
    data = [list(row) for row in rows]
    if not data or not data[0]:
        raise DimensionError(f"a {noun} needs at least one row and one column")
    width = len(data[0])
    if any(len(row) != width for row in data):
        raise DimensionError(f"all {noun} rows must have the same number of entries")
    return len(data), width, [cell for row in data for cell in row]


def _infer_domain(values: Iterable[ScalarLike]) -> Domain:
    for value in values:
        if isinstance(value, float):
            return Domain.FLOAT
    return Domain.RATIONAL


def _require_same_domain(a: Domain, b: Domain) -> Domain:
    if a is not b:
        raise DomainMismatchError(
            f"cannot mix {a.value}-domain and {b.value}-domain values in one operation"
        )
    return a


class _Dense:
    """Immutable one-domain row-major value with at least one entry.

    The one body of :class:`Matrix`, :class:`Vector` (n-by-1) and
    :class:`RowVector` (1-by-n).  A value equals only a value of its own
    class, and arithmetic needs a peer of the same class, domain and shape.

    Every value has one form, the pair (cells, scale) in the slot
    ``_form`` that :func:`_step` multiplies and :func:`_variation_of`
    measures, set when the value is built: for a rational value its
    :func:`_over_lcm`, for a float one its entries over 1.0.  A caller
    that already holds the form (the CLI reader, a product) passes it.
    The form is left out of equality, hashing and repr.
    """

    __slots__ = ("_rows", "_cols", "_entries", "_domain", "_form")

    def _fill(self, rows: int, cols: int, flat: list, domain: Optional[Domain]) -> None:
        """Set this value from outside input, coercing it into one domain."""
        dom = _infer_domain(flat) if domain is None else _require_domain(domain)
        self._set(rows, cols, tuple(_coerce(v, dom) for v in flat), dom)

    def _set(self, rows: int, cols: int, entries: tuple, domain: Domain, form=None) -> None:
        """Set this value over entries already in the domain, and its form unless given."""
        self._rows, self._cols, self._entries, self._domain = rows, cols, entries, domain
        if form is None:
            form = (entries, 1.0) if domain is Domain.FLOAT else _over_lcm(entries)
        self._form = form

    @classmethod
    def _new(cls, rows: int, cols: int, entries: Iterable[Scalar], domain: Domain, form=None):
        """Value over row-major entries already in the domain, with ``form`` if given; no coercion."""
        v = object.__new__(cls)
        v._set(rows, cols, tuple(entries), domain, form)
        return v

    @property
    def entries(self) -> tuple[Scalar, ...]:
        """Row-major tuple of all entries."""
        return self._entries

    @property
    def domain(self) -> Domain:
        return self._domain

    def _computed(self, entries: Iterable[Scalar]):
        """Value of this class, shape and domain over entries computed from its own."""
        values = _finite(list(entries), self._domain)
        return self._new(self._rows, self._cols, values, self._domain)

    def __add__(self, other):
        self._check_peer(other)
        return self._computed(map(add, self._entries, other._entries))

    def __sub__(self, other):
        self._check_peer(other)
        return self._computed(map(sub, self._entries, other._entries))

    def __rmul__(self, scalar: ScalarLike):
        factor = _coerce(scalar, self._domain)
        return self._computed(factor * v for v in self._entries)

    def scale(self, scalar: ScalarLike):
        return scalar * self

    def as_matrix(self) -> "Matrix":
        """This value as a matrix of the same shape."""
        return Matrix._new(self._rows, self._cols, self._entries, self._domain, self._form)

    def _check_peer(self, other: object) -> None:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}, got {type(other).__name__}")
        _require_same_domain(self._domain, other._domain)
        if (self._rows, self._cols) != (other._rows, other._cols):
            raise DimensionError(
                f"shape mismatch: {self._rows}x{self._cols} vs {other._rows}x{other._cols}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self._domain, self._rows, self._cols, self._entries) == (
            other._domain, other._rows, other._cols, other._entries
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._domain, self._rows, self._cols, self._entries))


class _Entries(_Dense):
    """A value built from, and read as, one flat sequence of entries."""

    __slots__ = ()
    _noun = "vector"

    def __init__(self, entries: Iterable[ScalarLike], domain: Optional[Domain] = None):
        items = list(entries)
        if not items:
            raise DimensionError(f"a {self._noun} needs at least one entry")
        self._fill(*self._shape(len(items)), items, domain)

    @classmethod
    def _of(cls, entries: Iterable[Scalar], domain: Domain):
        """Value over entries already in the domain; no coercion."""
        values = tuple(entries)
        return cls._new(*cls._shape(len(values)), values, domain)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> Scalar:
        return self._entries[index]

    def __repr__(self) -> str:
        inner = ", ".join(str(v) for v in self._entries)
        return f"{type(self).__name__}([{inner}])"


class Vector(_Entries):
    """Column vector with at least one entry, fixed at construction."""

    __slots__ = ()

    @staticmethod
    def _shape(n: int) -> tuple[int, int]:
        return n, 1


class RowVector(_Entries):
    """Row vector with at least one entry, fixed at construction."""

    __slots__ = ()
    _noun = "row vector"

    @staticmethod
    def _shape(n: int) -> tuple[int, int]:
        return 1, n

    def __matmul__(self, other: "Matrix") -> "RowVector":
        if not isinstance(other, Matrix):
            return NotImplemented
        return row_mat_mul(self, other)


def ones_row(length: int, domain: Domain = Domain.RATIONAL) -> RowVector:
    """Row vector of the given length with every entry equal to one."""
    _require_size(length, "length", "a row vector needs at least one entry")
    _require_domain(domain)
    return RowVector._of([one_of(domain)] * length, domain)


class Matrix(_Dense):
    """Dense m-by-n matrix stored row-major over a single scalar domain.

    Both dimensions must be at least one; empty matrices are rejected at
    construction.  Index accessors are 0-based.
    """

    __slots__ = ()

    def __init__(
        self,
        rows: Iterable[Iterable[ScalarLike]],
        domain: Optional[Domain] = None,
    ):
        self._fill(*_rectangle(rows, "matrix"), domain)

    _of = classmethod(_Dense._new.__func__)

    @classmethod
    def identity(cls, n: int, domain: Domain = Domain.RATIONAL) -> "Matrix":
        _require_size(n, "n", "a matrix needs at least one row and one column")
        _require_domain(domain)
        entries = [zero_of(domain)] * (n * n)
        entries[:: n + 1] = [one_of(domain)] * n
        return cls._of(n, n, entries, domain)

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def is_square(self) -> bool:
        return self._rows == self._cols

    def entry(self, i: int, j: int) -> Scalar:
        """Entry at 0-based row i, column j."""
        if not (0 <= i < self._rows and 0 <= j < self._cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self._rows}x{self._cols} matrix")
        return self._entries[i * self._cols + j]

    def row(self, i: int) -> RowVector:
        """Row i (0-based) as a row vector."""
        if not 0 <= i < self._rows:
            raise IndexError(f"row {i} outside a {self._rows}x{self._cols} matrix")
        start = i * self._cols
        return RowVector._of(self._entries[start : start + self._cols], self._domain)

    def column(self, j: int) -> Vector:
        """Column j (0-based) as a column vector."""
        if not 0 <= j < self._cols:
            raise IndexError(f"column {j} outside a {self._rows}x{self._cols} matrix")
        return Vector._of(self._entries[j :: self._cols], self._domain)

    def columns(self) -> tuple[Vector, ...]:
        return tuple(self.column(j) for j in range(self._cols))

    def col_sums(self) -> tuple[Scalar, ...]:
        cells, d = self._form
        return tuple(_over(sum(c), d) for c in _column_slices(cells, self._cols))

    def row_lists(self) -> list[list[Scalar]]:
        """Mutable row-major copy, for elimination-style algorithms."""
        return [list(row) for row in _row_slices(self._entries, self._cols)]

    def to_float(self) -> "Matrix":
        """The same matrix converted to the float domain."""
        values = _finite(list(map(_to_float, self._entries)), Domain.FLOAT)
        return Matrix._of(self._rows, self._cols, values, Domain.FLOAT)

    def __matmul__(self, other: object):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        if isinstance(other, Vector):
            return mat_vec(self, other)
        return NotImplemented

    def __repr__(self) -> str:
        rows = [
            "[" + ", ".join(map(str, row)) + "]"
            for row in _row_slices(self._entries, self._cols)
        ]
        return f"Matrix([{', '.join(rows)}], {self._domain.value})"


class TypeReport(NamedTuple):
    """Whether all column sums agree, and by how much they fail to.

    ``type_value`` is the first column's sum and is meaningful only when
    ``has_type`` is true.  ``max_deviation`` is the largest observed
    |column sum - type_value|, exactly zero for a typed rational matrix.
    """

    has_type: bool
    type_value: Scalar
    max_deviation: Scalar


class VariationReport(NamedTuple):
    """Half the largest pairwise column distance, with the achieving pair.

    Column indices are 1-based.  ``(arg_j, arg_k)`` is the lexicographically
    smallest maximizing pair with ``arg_j < arg_k``; a single-column matrix
    reports value zero with pair (1, 1).
    """

    value: Scalar
    arg_j: int
    arg_k: int


def _sum_left(values: Iterable[Scalar], domain: Domain) -> Scalar:
    """The values summed left to right from the domain's zero, checked finite."""
    # a loop, not sum(): from CPython 3.12 sum() compensates, which changes the last bits
    total = zero_of(domain)
    for value in values:
        total = total + value
    return _finite([total], domain)[0]


def vsum(x: Union[Vector, RowVector]) -> Scalar:
    """Sum of the entries; equals the all-ones row applied to the vector."""
    return _sum_left(x, x.domain)


def l1_norm(x: Union[Vector, RowVector]) -> Scalar:
    """Sum of absolute values of the entries, left to right as in :func:`vsum`."""
    return _sum_left(map(abs, x), x.domain)


def variation(a: Matrix) -> VariationReport:
    """Column variation: half the maximum l1 distance between two columns.

    :func:`_variation_of` reads the matrix's form.  Rational matrices are
    read as their integer form, numerators over the lcm d of all their
    denominators; the integer distances are compared and the result is
    the same exact fraction, ``best / (2 d)``.  Float distances are summed
    row by row, left to right (CPython 3.12+ sums floats with
    compensation, so the last bits may differ across interpreters); a
    float distance that overflows raises :class:`DomainMismatchError`.
    From 16 integer or 32 float columns on, a popcount bound skips the
    pairs that cannot be the widest (:func:`_widest_pair`); it changes
    neither the value nor the pair, to the last bit.
    """
    return _variation_of(a._form, a.cols)


def _over(x, d):
    """x / d: a float checked to be finite over a float d, a Fraction over an int d."""
    if isinstance(d, float):
        return _finite([x / d], Domain.FLOAT)[0]
    return Fraction(x, d)


def _variation_of(form: tuple, n: int) -> VariationReport:
    """:func:`variation` of the value whose form (cells, scale) has n columns."""
    cells, d = form
    best, pair = _widest_pair(cells, n)
    return VariationReport(_over(best, 2 * d), *pair)


def _widest_pair(entries: Sequence, n: int) -> tuple:
    """Largest l1 distance between two of the n columns, and the first 1-based pair at it.

    From ``_PRUNE_FROM`` columns on (``_PRUNE_INTEGERS_FROM`` for int
    entries), a pair is summed only when its popcount bound
    (:func:`_code_distances`) reaches the best distance summed so far,
    starting from the distance of the pair with the largest popcount.  A
    skipped pair is strictly below a distance that some pair has, so it is
    neither the widest nor the first at the widest.
    """
    if n == 1:
        return 0, (1, 1)
    cols = _column_slices(entries, n)
    prune_from = _PRUNE_INTEGERS_FROM if isinstance(entries[0], int) else _PRUNE_FROM
    bound = _code_distances(entries, cols) if n >= prune_from else None
    if bound is not None:
        counts, cut_below = bound
        tops = list(map(max, counts))
        j = tops.index(max(tops))
        cut = cut_below(sum(map(abs, map(sub, cols[j], cols[j + 1 + counts[j].index(tops[j])]))))
    best, best_pair = -1, (1, 2)  # any distance, being >= 0, beats -1
    for j in range(n - 1):
        cj = cols[j]
        ks = range(j + 1, n)
        if bound is not None:
            ks = list(compress(ks, map(cut.__le__, counts[j])))
        dists = [sum(map(abs, map(sub, cj, cols[k]))) for k in ks]
        top = max(dists, default=-1)
        if top > best:
            best, best_pair = top, (j + 1, ks[dists.index(top)] + 1)
            if bound is not None:
                cut = max(cut, cut_below(best))
    return best, best_pair


# Columns from which _widest_pair bounds pairs before summing them; on fewer
# columns the bound pass costs more than the sums it saves.  Integer pairs
# cost more to sum (multi-digit numerators) and their bound has no rounding
# slack, so it pays from fewer columns.
_PRUNE_FROM = 32
_PRUNE_INTEGERS_FROM = 16

# Thermometer code of each level 0..63: its low ``level`` bits set, in 8 bytes.
_UNARY = [((1 << level) - 1).to_bytes(8, "little") for level in range(64)]


def _code_distances(entries: Sequence, cols: list[Sequence]) -> Optional[tuple]:
    """Popcounts of every column pair, ``counts[j][k - j - 1]``, and ``cut_below``.

    Each row is quantized against its own minimum, on one scale for all
    rows, to levels 0..63, and each column becomes one int with the
    thermometer code of its level in one 64-bit slot per row, so the
    popcount P of two codes' xor is the sum over the m rows of |Δlevel|.
    For a distance t that some pair has, a pair with P < ``cut_below(t)``
    has a distance below t.  For integers a row differs by at most
    2^shift (|Δlevel| + 1) - 1, with no slack at shift 0.  For floats a
    level is exact for the rounded x - min; that rounding and the rounding
    of each difference and of either ``sum`` (left to right, or
    compensated from CPython 3.12) add less than 1 to 2^s times a computed
    distance for m < 2^20 rows, so it is below P + m + 1.  None for
    constant rows, and where float row spans may sum past 2^1000: every
    pair is then summed, so an overflow is still seen.
    """
    rows = _row_slices(entries, len(cols))
    m = len(rows)
    mins = list(map(min, rows))
    spans = list(map(sub, map(max, rows), mins))
    widest = max(spans)
    if isinstance(widest, int):
        if not widest:
            return None
        shift = max(widest.bit_length() - 6, 0)

        def levels(col):
            return map(rshift, map(sub, col, mins), repeat(shift))

        def cut_below(t):
            return ((t + m - 1) >> shift) - m + 1

    else:
        if not (0 < widest and sum(spans) < 2.0**1000 and m < 1 << 20):
            return None
        s = 6 - frexp(widest)[1]

        def levels(col):
            return map(floor, map(ldexp, map(sub, col, mins), repeat(s)))

        def cut_below(t):
            return floor(ldexp(t, s)) - m

    codes = [int.from_bytes(b"".join(map(_UNARY.__getitem__, levels(c))), "little") for c in cols]
    return [
        list(map(int.bit_count, map(xor, repeat(c), codes[j + 1 :])))
        for j, c in enumerate(codes[:-1])
    ], cut_below


def row_variation(z: RowVector) -> Scalar:
    """Half of (max entry - min entry); the variation of z as a 1-row matrix."""
    return _finite([(max(z.entries) - min(z.entries)) / 2], z.domain)[0]


def type_of(a: Matrix) -> TypeReport:
    """Detect a constant column sum.

    The column sums S_j of the matrix's form are compared with S_0:
    exactly for a rational matrix, where the form is integer and no
    Fraction is formed per column, and within the current tolerance for a
    float one.  The type is S_0 over the form's scale and the deviation
    max |S_j - S_0| over it; a float deviation past the float range
    reads inf.
    """
    cells, d = a._form
    sums = _finite(list(map(sum, _column_slices(cells, a.cols))), a.domain)
    dev = max(map(abs, map(sub, sums, repeat(sums[0]))))
    if a.domain is Domain.FLOAT:
        return TypeReport(_all_close(sums, [sums[0]] * len(sums)), sums[0], dev)
    return TypeReport(dev == 0, Fraction(sums[0], d), Fraction(dev, d))


def _ensure_typed(a: Matrix, error: type = NotTypedError) -> TypeReport:
    """Return the type report, raising ``error`` (NotTypeOneError for ensure_type_one) unless typed."""
    report = type_of(a)
    if not report.has_type:
        raise error(f"column sums are not constant (max deviation {report.max_deviation})")
    return report


def ensure_type_one(a: Matrix) -> TypeReport:
    """Return the type report, raising NotTypeOneError unless the type is 1."""
    report = _ensure_typed(a, NotTypeOneError)
    if not scalars_equal(report.type_value, 1, a.domain):
        raise NotTypeOneError(f"matrix is of type {report.type_value}, expected type 1")
    return report


def _row_slices(entries: Sequence, width: int) -> list[Sequence]:
    return [entries[i : i + width] for i in range(0, len(entries), width)]


def _column_slices(entries: Sequence, width: int) -> list[Sequence]:
    return [entries[j::width] for j in range(width)]


def _over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the values over the lcm of their denominators."""
    d = lcm(*{v.denominator for v in values})
    return [v.numerator * (d // v.denominator) for v in values], d


def _step(left: tuple, right: tuple, n: int) -> tuple:
    """The product of two forms (cells, scale), n the inner dimension.

    Integer cells are divided by the gcd of the product's numerators and
    denominator: in that lowest form the product is :func:`_over_lcm` of
    its entries, and equal values are equal forms.  When n times the
    largest |cell| of each factor is below 2**63, every product entry fits
    a signed 64-bit slot (Kronecker substitution): each row of the right
    factor is packed as one int (:func:`_pack`), a product row is one
    big-int sum of n products, and :func:`_slots` reads every entry at
    once.  Wider products sum entry by entry, since packed slots would be
    as wide as the widest entry.  Float cells must be finite, or
    :class:`DomainMismatchError` is raised, and come back as a tuple over
    1.0, the sequence type of a float value's own form.
    """
    (cells, d), (factor, scale) = left, right
    cols = _column_slices(factor, len(factor) // n)
    rows = _row_slices(cells, n)
    if isinstance(d, float) or (max(map(abs, cells)) * max(map(abs, factor)) * n).bit_length() > 63:
        product = [sum(map(mul, r, c)) for r in rows for c in cols]
    else:
        packed = _pack(cols, 8)  # the rows of the right factor
        product = _slots([sum(map(mul, r, packed)) for r in rows], len(cols))
    if isinstance(d, float):
        return tuple(_finite(product, Domain.FLOAT)), 1.0
    g = gcd(d * scale, *product)
    if g == 1:
        return product, d * scale
    return [v // g for v in product], d * scale // g


def _pack(rows: list[Sequence[int]], size: int) -> list[int]:
    """Each column of the rows as one int, each entry in a signed slot of ``size`` bytes."""
    shifts = range(0, 8 * size * len(rows), 8 * size)
    return [sum(map(lshift, column, shifts)) for column in zip(*rows)]


def _slots(ints: list[int], width: int) -> list[int]:
    """The ``width`` signed 64-bit slots of each int, lowest first, one int after another.

    An int plus 2**63 in every slot holds each value plus 2**63 in its
    slot, with no borrow between slots; flipping the top bit of every
    slot leaves each value's two's complement, read little-endian on any
    host.
    """
    offset = int.from_bytes((bytes(7) + b"\x80") * width, "little")
    data = b"".join([((x + offset) ^ offset).to_bytes(8 * width, "little") for x in ints])
    return list(struct.unpack(f"<{len(data) // 8}q", data))


def _product(a: _Dense, b: _Dense, cls):
    """a times b, built as a value of class cls; TypeError for other operands.

    The product is :func:`_step` of the two forms, and keeps the form it
    returns.
    """
    left = RowVector if cls is RowVector else Matrix
    right = Vector if cls is Vector else Matrix
    if not (isinstance(a, left) and isinstance(b, right)):
        raise TypeError(f"no {cls.__name__} product of {type(a).__name__} and {type(b).__name__}")
    _require_same_domain(a._domain, b._domain)
    if a._cols != b._rows:
        raise DimensionError(f"cannot multiply {a._rows}x{a._cols} by {b._rows}x{b._cols}")
    form = _step(a._form, b._form, a._cols)
    cells, d = form
    if a._domain is Domain.RATIONAL:
        cells = [Fraction(v, d) for v in cells]
    return cls._new(a._rows, b._cols, cells, a._domain, form)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product; exact in the rational domain.

    :func:`_step` multiplies the two forms.  Rational entries are the
    integer product of the two integer forms, over the product of their
    denominators, in lowest terms; the result keeps that form, and its
    entries are the same exact fractions as a product computed in
    ``Fraction`` arithmetic.  When every integer entry fits a signed
    64-bit slot, each product row is one big-int sum over the rows of
    ``b``, each packed as one int.  Float entries are summed left to right, with
    the same last-bit caveat as :func:`variation`; one that overflows
    raises :class:`DomainMismatchError`.
    """
    return _product(a, b, Matrix)


def mat_vec(a: Matrix, x: Vector) -> Vector:
    """Matrix-vector product."""
    return _product(a, x, Vector)


def row_mat_mul(z: RowVector, a: Matrix) -> RowVector:
    """Row-vector-matrix product."""
    return _product(z, a, RowVector)


def _power_by_squaring(x, k: int, times: Callable):
    """x^k, k >= 1, under the associative ``times``, in O(log k) products: x^2, x^4 for k = 4."""
    result = None
    while k:
        if k & 1:
            result = x if result is None else times(result, x)
        k >>= 1
        x = times(x, x) if k else x
    return result


def mat_pow(m: Matrix, k: int) -> Matrix:
    """k-th power by repeated multiplication; the zeroth power is identity."""
    if not m.is_square:
        raise NotSquareError(f"cannot raise a {m.rows}x{m.cols} matrix to a power")
    _require_count(k, "exponent", 0)
    result = Matrix.identity(m.rows, domain=m.domain)
    for _ in range(k):
        result = mat_mul(result, m)
    return result
