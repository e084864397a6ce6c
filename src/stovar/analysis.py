"""Convergence analysis for square matrices with constant column sums.

The central question: given a square matrix M whose column sums are all 1,
do the powers M^k approach a rank-one projection?  They do exactly when
some power has column variation strictly below one.  This module searches
for that contraction power, finds the fixed vector E with entry sum one
(by a solve, or for a float Markov matrix by iterating M under the
contraction's own stopping rule), builds the limit projection P = E * J,
and evaluates the a priori decay and iterate error bounds that the
contraction provides.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd, inf, isqrt, log, prod
from operator import floordiv, mul, ne, sub
from typing import NamedTuple, Optional

from .core import (
    Domain,
    Matrix,
    Scalar,
    ScalarLike,
    TypeReport,
    VariationReport,
    Vector,
    _all_close,
    _coerce,
    _ensure_typed,
    _finite,
    _infer_domain,
    _pack,
    _power_by_squaring,
    _require_count,
    _row_slices,
    _step,
    _variation_of,
    ensure_type_one,
    is_zero,
    l1_norm,
    mat_mul,  # unused here, but perfbench/tracer.py wraps stovar.analysis.mat_mul by name
    mat_pow,
    mat_vec,
    one_of,
    scalars_close,
    scalars_equal,
    strictly_less,
    tolerance,
    variation,
    vsum,
    zero_of,
)
from .errors import (
    DimensionError,
    NonUniqueFixedVectorError,
    NotSquareError,
    VsumNotOneError,
)
from .nonneg import _column_masks, _masks_overlap, _power_walk

DEFAULT_P_MAX = 64
DEFAULT_K_REPORT = 200


class Verdict(Enum):
    CONVERGES = "converges"
    NO_CONTRACTION_FOUND = "no-contraction-found"


class ConvergenceAnalysis(NamedTuple):
    """Full convergence report for a type-1 square matrix.

    It stores what :func:`analyze` found.  ``variation_per_power`` holds
    the variation of M^k for k = 1 up to the contraction power, or up to
    ``p_max`` when no contraction was found; ``first_variation`` is the
    full report for M itself, column pair included, ``type_report`` the
    type check that admitted M, and ``stationary`` E, found only on
    convergence.  The verdict, var(M^p), the limit projection E * J and
    the decay table up to ``k_report`` are computed from these on access.
    A missing contraction power is never a divergence proof, only failure
    to certify convergence within the search bound.
    """

    p_max: int
    k_report: int
    contraction_power: Optional[int]
    variation_per_power: tuple[Scalar, ...]
    first_variation: VariationReport
    type_report: TypeReport
    stationary: Optional[Vector]

    @property
    def converged(self) -> bool:
        return self.contraction_power is not None

    @property
    def verdict(self) -> Verdict:
        return Verdict.CONVERGES if self.converged else Verdict.NO_CONTRACTION_FOUND

    @property
    def variation_at_p(self) -> Optional[Scalar]:
        return self.variation_per_power[-1] if self.converged else None

    @property
    def projection(self) -> Optional[Matrix]:
        # E sums to one: a rational E by its exact solve, a float E by its check
        return None if self.stationary is None else _projection(self.stationary)

    @property
    def decay_bounds(self) -> tuple[tuple[int, Scalar], ...]:
        """The decay bound at a fixed set of exponents up to ``k_report``."""
        if not self.converged:
            return ()
        powers = {1, 2, 3, 4, 5, 10, 20, 50, 100, self.contraction_power, self.k_report}
        return tuple((k, self.decay_bound_at(k)) for k in sorted(powers) if k <= self.k_report)

    def decay_bound_at(self, k: int) -> Scalar:
        """Upper bound on the variation of M^k; certified for rational input, rounded for floats."""
        if not self.converged:
            raise ValueError("decay bounds require a contraction power")
        p = self.contraction_power
        return decay_bound(self.variation_per_power[0], self.variation_at_p, p, k)


class Case2x2(Enum):
    CONVERGES_GENERIC = "ConvergesGeneric"
    DIVERGES_GENERIC = "DivergesGeneric"
    DIVERGES_LINEAR = "DivergesLinear"
    IDENTITY = "Identity"


class Classification2x2(NamedTuple):
    """Complete taxonomy of the 2x2 type-1 matrix [[1-a, b], [a, 1-b]].

    With c = a + b the eigenvalues are 1 and 1 - c and the variation is
    |1 - c|.  Powers converge exactly when 0 < c < 2 and (a, b) != (0, 0);
    the stationary vector (b/c, a/c) is present only in that case.
    Eigenvectors ((b, a), (1, -1)) are present whenever c != 0.
    """

    case: Case2x2
    a: Scalar
    b: Scalar
    c: Scalar
    variation: Scalar
    eigenvalues: tuple[Scalar, Scalar]
    eigenvectors: Optional[tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]]
    stationary: Optional[Vector]


def _require_square(m: Matrix) -> None:
    if not m.is_square:
        raise NotSquareError(f"expected a square matrix, got {m.rows}x{m.cols}")


def _variation_scan(
    m: Matrix, p_max: int
) -> tuple[Optional[int], list[Scalar], VariationReport]:
    """Variations of M^1..M^p, stopping at the first power with variation < 1.

    Also returns the full variation report of M^1, so callers that need
    its column pair do not compute it again.

    One rule decides, in both domains, whether M first walks the support
    patterns of the powers of its Markov part (:func:`nonneg._power_walk`).
    With x the row minima of M's form, L = M - x 1^T is Markov when it
    is found without rounding: for a rational M when x sums to 0, for a
    float M only when every x_i is 0, so that L = M.  A float M is never
    shifted: its column sums are 1 only within the tolerance, and a
    shift would round.  Then M^k = L^k + s 1^T for some vector s, and
    var reads only differences of columns, so var(M^k) = var(L^k) for
    every k.  A non-negative type-1 matrix has variation exactly 1 when
    two of its columns have disjoint supports, and below 1 otherwise;
    the support P of L has cell (i, j) set exactly when L[i][j] != 0,
    with no tolerance floor, so the support of L^k is P^k.

    When two columns of P are disjoint, var(M) = 1 is reported with the
    first such pair, read from the masks with no sum, and so is every
    power before the first one k0 whose columns overlap pairwise, with no
    variation computed or repeat looked for; k0 >= 2.  With no such k0
    up to p_max, or once a pattern equals an earlier one, the scan ends
    inconclusive and forms no product.  Otherwise var(M) is summed and
    k0 is 1.  With L found, or with x summing to more than 0 (var(M) <=
    1 - sum(x)), var(M) is then below 1, for a float M up to rounding;
    any other M is scanned numerically.  For a float M, each 1 is the
    value its variation has for the type-1 matrix that the tolerance
    admits, so the first disjoint pair is that matrix's first widest
    pair.  A float product can only lose support, by underflow, so
    columns disjoint in P^k are disjoint in the computed power too.

    M and its powers are read as forms (``Matrix._form``): integer
    numerators over one denominator for a rational M, the entries over 1.0
    for a float one.  Every power is :func:`core._step` of two forms and
    every variation after the first :func:`core._variation_of` a form.
    M^k0 is formed by squaring.  Its variation is below 1 exactly for a
    rational M, so p = k0; a float one may lie within the tolerance of 1.

    Otherwise each new power M^k, k >= k0, is compared by value with the
    saved M^j, k0 <= j < k, with j <= n or j a power of two.  When it equals
    M^j, every later power repeats with period k - j, since a product
    depends only on the values of its factors, and no repeated variation
    is below one: the history is filled up to p_max by copying, and the
    scan ends inconclusive.  Exact powers stop at their first repeat: if
    M^a = M^b with a < b, the minimal polynomial divides
    x^a (x^(b-a) - 1), so the powers cycle from an index at most n; and
    no power from k0 on equals one before k0.  A float rounding cycle
    with tail t and period l is caught at a power-of-two checkpoint
    after about 2t + l products.  At most n + log2(p_max) powers are held.
    """
    _require_count(p_max, "p_max")
    one = one_of(m.domain)
    n = m.rows
    power = base = m._form
    cells, pair = base[0], None
    rows = _row_slices(cells, n)
    lows = list(map(min, rows)) if m.domain is Domain.RATIONAL else [0.0] * n
    # L = M - lows 1^T is Markov when the lows sum to zero; a float M only
    # when L = M, so its row minima are read only until one is not 0 (and
    # its masks compare with 0.0: a float against an int compares slower)
    if not (sum(lows) or m.domain is Domain.FLOAT and any(map(min, rows))):
        # L's support: the cells above their row's minimum
        masks = _column_masks(list(map(ne, cells, [r for r in lows for _ in range(n)])), n)
        pair = next((p for p in combinations(range(n), 2) if not masks[p[0]] & masks[p[1]]), None)
    first = VariationReport(one, pair[0] + 1, pair[1] + 1) if pair else variation(m)
    history: list[Scalar] = [first.value]
    if pair:
        k0 = _power_walk(masks, p_max, _masks_overlap)[0]
        if k0 is None:
            return None, [one] * p_max, first
        power = _power_by_squaring(base, k0, lambda a, b: _step(a, b, n))
        history += [one] * (k0 - 2) + [_variation_of(power, n).value]
    saved: list[tuple[int, tuple]] = []
    while not strictly_less(history[-1], one, m.domain):
        k = len(history)  # power is M^k
        if k == p_max:
            return None, history, first
        if k <= n or not k & (k - 1):
            saved.append((k, power))
        power = _step(power, base, n)
        # Value equality lets only signed zeros differ, and a signed zero
        # changes neither a sum that starts at 0 nor an abs, so equal
        # powers have equal products and variations.  A nan never matches.
        start = next((j for j, seen in saved if seen == power), None)
        if start is not None:
            period = k + 1 - start
            while len(history) < p_max:
                history.append(history[-period])
            return None, history, first
        history.append(_variation_of(power, n).value)
    return len(history), history, first


def find_contraction_power(
    m: Matrix, p_max: int = DEFAULT_P_MAX
) -> Optional[tuple[int, Scalar]]:
    """Smallest p <= p_max with variation(M^p) < 1, or None.

    The comparison is exact in the rational domain; in the float domain a
    variation within tolerance of one is treated as inconclusive, so only
    values strictly below 1 - tolerance qualify.
    """
    _require_square(m)
    ensure_type_one(m)
    p, history, _ = _variation_scan(m, p_max)
    if p is None:
        return None
    return p, history[-1]


def _float_solve(rows: list[list[float]], rhs: list[float]) -> Optional[list[float]]:
    """Solve the square float system ``rows · x = rhs``; None when singular.

    The system goes through :func:`_float_eliminate` and is singular when
    some column has no candidate above the guard band
    tolerance * max(1, largest input entry).
    """
    n = len(rows)
    limit = tolerance() * max(1.0, max(abs(v) for row in rows for v in row))
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    if _float_eliminate(aug, n, limit)[1] < n:
        return None
    solution = [0.0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = row[n]
        for a, x in zip(row[i + 1 : n], solution[i + 1 :]):
            acc = acc - a * x
        solution[i] = acc / row[i]
    return solution


def _integer_solve(gcds: list[int], aug: list[list[int]]) -> Optional[list[Fraction]]:
    """x with x_j = g_n z_j / g_j, for z the solution of the n-by-(n + 1) ``aug``; None when singular.

    ``gcds`` and ``aug`` are :func:`_over_column_gcds` of an integer system
    N x = b: column j of N is g_j times column j of ``aug``, and b is g_n
    times its last column.  ``aug`` goes through :func:`_bareiss_eliminate`,
    in place, and integer back-substitution gives det * z_i exactly, so
    x_i is the fraction g_n * (det * z_i) / (det * g_i), normalized once.
    """
    n = len(aug)
    if _bareiss_eliminate(aug, n)[1] < n:
        return None
    det = aug[n - 1][n - 1]
    scaled: list[int] = [0] * n  # det * z_i
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = det * row[n] - sum(map(mul, row[i + 1 : n], scaled[i + 1 :]))
        scaled[i] = acc // row[i]
    return [Fraction(gcds[n] * v, det * g) for g, v in zip(gcds, scaled)]


def _over_column_gcds(rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Column gcds g_j (1 for a zero column) and new rows with column j divided by g_j."""
    gcds = [g or 1 for g in map(gcd, *rows)]
    return gcds, [list(map(floordiv, row, gcds)) for row in rows]


def _bareiss_eliminate(aug: list[list[int]], ncols: int) -> tuple[int, int]:
    """Bareiss row echelon form of the first ncols columns, in place.

    Pivots on the first nonzero entry at or below the next pivot row and
    skips a column that has none (Bareiss, Math. Comp. 22, 1968).  Every
    entry below and right of a pivot stays a minor of the input, so the
    division by the previous pivot is exact and the pivot count is the
    rank.  Returns ``(sign, rank)``, with sign the sign of the row
    permutation; for a square block of full rank n the determinant is
    sign times ``aug[n - 1][n - 1]``.

    Each column is one int (Kronecker substitution; Harvey, J. Symbolic
    Comput. 44, 2009), packed by :func:`core._pack`, which also packs the
    right factor of a small integer product in :func:`core._step`: slot
    i, ``8 * size`` bits wide, holds the entry of the i-th row not yet a
    pivot row as a signed value, and the int is the sum of the slots, each
    shifted by its bit offset.  After t pivots the entries are minors of
    order t + 1, so a minor of order t is at most the product of the t
    largest row 2-norms (Hadamard), each rounded up as isqrt + 1; a slot
    one bit wider than that bound holds it with its sign.  Slots start
    wide enough for minors of order 4; once the next minors outgrow them,
    every column is repacked, byte by byte, wide enough for twice the
    next order.

    The first nonzero slot of a column is found from its lowest set bit;
    a row swap exchanges two slots of every later column.  With the
    pivot column x_k, its pivot in slot 0, and p slot 0 of a later column
    x, ``pivot * x - p * x_k`` holds the numerators of the Bareiss update
    of x in its slots, and 0 in slot 0.  The int is the sum of its slots
    whatever their size, so the shift drops slot 0 (the new pivot row)
    exactly and, every numerator being a multiple of ``previous``, the
    quotient by ``previous`` is the sum of the quotients, each within its
    slot.  Each pivot row is written back into ``aug`` from its pivot
    column on; its entries before that column, and the rows from the rank
    on, keep their input entries, in the order of the row swaps.
    """
    height = len(aug)
    norms = sorted([isqrt(sum(map(mul, row, row))) + 1 for row in aug], reverse=True)
    # widths[t - 1]: bytes per slot for every minor of order t, with its sign;
    # no minor has an order above the height
    widths = [(bound.bit_length() + 8) // 8 for bound in accumulate(norms, mul)]
    widths += widths[-1:] * (height + 4)
    sign, rank, previous = 1, 0, 1
    size = widths[3]
    rest = _pack(aug, size)  # columns k, k + 1, ...
    for k in range(ncols):
        if rank == height:
            break
        if widths[rank + 1] > size:
            wider = widths[2 * rank + 3]
            rest = _repack(rest, height - rank, size, wider)
            size = wider
        bits = 8 * size
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        column, *rest = rest
        if not column:
            continue
        shift = ((column & -column).bit_length() - 1) // bits * bits
        pivot = (((column >> shift) + half) & mask) - half
        if shift:
            other = rank + shift // bits
            aug[rank], aug[other] = aug[other], aug[rank]
            sign = -sign
            column += pivot - (pivot << shift)
            rest = [_swap_slots(x, shift, half, mask) for x in rest]
        entries = [((x + half) & mask) - half for x in rest]
        aug[rank][k:] = [pivot, *entries]
        rank += 1
        rest = [((pivot * x - p * column) >> bits) // previous for x, p in zip(rest, entries)]
        previous = pivot
    return sign, rank


def _repack(columns: list[int], slots: int, size: int, wider: int) -> list[int]:
    """Columns of ``slots`` slots of ``size`` bytes, repacked with ``wider`` bytes per slot.

    A column plus half = 2**(8 size - 1) in every slot holds each value
    plus half in its slot, byte for byte, with no borrow between slots;
    zero bytes above each slot widen it, and the halves are taken off again.
    """
    half = bytes(size - 1) + b"\x80"
    offset = int.from_bytes(half * slots, "little")
    data = b"".join([(x + offset).to_bytes(slots * size, "little") for x in columns])
    wide = bytearray(len(data) // size * wider)
    for j in range(size):
        wide[j::wider] = data[j::size]
    offset = int.from_bytes((half + bytes(wider - size)) * slots, "little")
    step = slots * wider
    return [int.from_bytes(wide[i : i + step], "little") - offset for i in range(0, len(wide), step)]


def _swap_slots(x: int, shift: int, half: int, mask: int) -> int:
    """Column x with slot 0 and the slot at bit offset ``shift`` exchanged.

    Adding half a unit of that slot before shifting rounds the slots below
    it away, so the slot decodes as slot 0 does.
    """
    high = (x + (1 << (shift - 1))) >> shift
    d = ((high + half) & mask) - ((x + half) & mask)
    return x + d - (d << shift)


def _float_eliminate(aug: list[list[float]], ncols: int, limit: float) -> tuple[int, int]:
    """Gaussian row echelon form of the first ncols columns, in place.

    Partial pivoting: the pivot is the first largest magnitude above
    ``limit`` at or below the next pivot row, and a column with none is
    skipped.  Returns ``(sign, rank)`` as :func:`_bareiss_eliminate` does;
    the pivots are on the diagonal when the rank equals ncols.
    """
    sign, rank = 1, 0
    for k in range(ncols):
        above = (r for r in range(rank, len(aug)) if abs(aug[r][k]) > limit)
        pivot_row = max(above, key=lambda r: abs(aug[r][k]), default=None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
            sign = -sign
        pivot = aug[rank][k]
        tail = aug[rank][k + 1 :]
        for row in aug[rank + 1 :]:
            if row[k] == 0:
                continue
            factor = row[k] / pivot
            row[k + 1 :] = [a - factor * p for a, p in zip(row[k + 1 :], tail)]
        rank += 1
    return sign, rank


def stationary_vector(m: Matrix) -> Vector:
    """The unique vector E with M E = E and entry sum one.

    The rows of M - I sum to zero for a type-1 matrix, so the kernel
    equation is solved by replacing the last row of M - I with the
    all-ones row and putting a one on the right-hand side of that row.
    Every row of M - I is minus the sum of the others, so replacing any
    other row gives a system with the same row space: one solve decides.
    The system is singular exactly when the eigenvalue 1 has geometric
    multiplicity two or more, or its eigenvector has entry sum zero; both
    raise :class:`NonUniqueFixedVectorError`, and so does a float
    solution that fails the fixed-point check M E = E; a rational one is exact.
    """
    _require_square(m)
    ensure_type_one(m)
    return _solved_stationary(m)


def _solved_stationary(m: Matrix) -> Vector:
    """:func:`stationary_vector` of a square type-1 M, without checking either.

    A rational M = N / D is solved from its integer form: the system
    times D is the rows of N - D I but the last, then a row of D's, with
    right-hand side D e_n, and goes through :func:`_integer_solve`.  Its
    exact solution is E with no check after it: it meets rows 1..n-1 of
    (M - I) x = 0 and sum(x) = 1, and the last row of M - I is minus the
    sum of the others, as the type check found every column sum exactly 1.
    """
    n = m.rows
    cells, d = m._form
    rows = [list(row) for row in _row_slices(cells, n)]
    for i in range(n - 1):
        rows[i][i] -= d
    rows[-1] = [d] * n
    if m.domain is Domain.RATIONAL:
        aug = [row + [0] for row in rows]
        aug[-1][-1] = d
        solution = _integer_solve(*_over_column_gcds(aug))
    else:
        solution = _float_solve(rows, [0.0] * (n - 1) + [1.0])
    if solution is None:
        raise NonUniqueFixedVectorError(
            "no unique fixed vector with entry sum one "
            "(eigenvalue 1 appears with multiplicity two or more)"
        )
    if m.domain is Domain.RATIONAL:
        return Vector._of(solution, Domain.RATIONAL)
    candidate = _fixed_vector(m, solution)
    if candidate is None:
        raise NonUniqueFixedVectorError(
            "solved system's result is not a fixed vector of the matrix"
        )
    return candidate


def _fixed_vector(m: Matrix, values: list[float]) -> Optional[Vector]:
    """The float values as a vector E when M E = E and its entry sum is one, else None.

    A float E, solved or iterated, is only close to the fixed vector, so
    the image :func:`core._step` of M's form and E's, and the entry sum,
    are checked within the tolerance; an image entry that overflows raises
    :class:`DomainMismatchError`.  A rational E needs no check: it is
    solved exactly (see :func:`_solved_stationary`).
    """
    candidate = Vector._of(_finite(values, Domain.FLOAT), Domain.FLOAT)
    image = _step(m._form, candidate._form, m.cols)
    fixed = _all_close(image[0], values) and scalars_close(vsum(candidate), 1.0)
    return candidate if fixed else None


def _iterated_stationary(m: Matrix, var_m: float) -> Optional[Vector]:
    """Float E of a Markov M by iterating x <- M x; None to solve instead.

    For x with entry sum one, x - E sums to zero and M E = E, so
    |x - E| <= |M x - x| + var(M) |x - E|, that is
    |x - E| <= |M x - x| / (1 - var(M)) in the l1 norm, and M x is no
    farther from E than x.  The iteration starts from the uniform vector,
    stops once that bound is at most n * 2**-52, about the accuracy of
    the float solve, and returns the iterate if it passes the solve's
    fixed-point check.  The bound holds in exact arithmetic; M has no
    negative entry and its columns sum to one, so rounding moves each
    product by about n * 2**-53 at most.

    It gives up after n matrix-vector products, about the cost of the
    solve, and sooner when a step is no shorter than the one before it,
    or when the ratio of the last two steps, continued geometrically,
    would not bring a step down to the bound within n products.  So a
    slow mixer, with var(M) near one, costs two products.
    """
    n = m.rows
    rows = _row_slices(m.entries, n)
    target = n * 2.0**-52 * (1.0 - var_m)
    x = [1.0 / n] * n
    previous = inf
    for k in range(1, n + 1):
        y = [sum(map(mul, row, x)) for row in rows]
        step = sum(map(abs, map(sub, y, x)))
        x = y
        if step <= target:
            return _fixed_vector(m, x)
        if not step < previous:  # also a nan or an overflow
            return None
        ratio = step / previous  # 0 after the first product
        if ratio > 0 and k + (log(target) - log(step)) / log(ratio) > n:
            return None
        previous = step
    return None


def limit_projection(e: Vector) -> Matrix:
    """Square matrix with every column equal to e; requires entry sum one.

    The result P is the outer product of e with the all-ones row, so
    P P = P and P x = (entry sum of x) * e for every vector x.
    """
    total = vsum(e)
    if not scalars_equal(total, 1, e.domain):
        raise VsumNotOneError(f"entry sum is {total}, expected 1")
    return _projection(e)


def _projection(e: Vector) -> Matrix:
    """:func:`limit_projection` of e, without checking its entry sum."""
    n = len(e)
    # the entries are already in the domain: row i repeats e_i
    return Matrix._of(n, n, [v for v in e for _ in range(n)], e.domain)


def decay_bound(var_m: Scalar, var_mp: Scalar, p: int, k: int) -> Scalar:
    """Upper bound (var M)^r * (var M^p)^q on the variation of M^k.

    Here k = p*q + r with 0 <= r < p from the division algorithm.  The
    bound is valid whenever var_mp, the variation at the contraction
    power p, is below one.
    """
    _require_count(p, "p")
    _require_count(k, "k")
    if not var_mp < 1:
        raise ValueError("decay bound requires variation below one at power p")
    q, r = divmod(k, p)
    try:
        bound = var_m**r * var_mp**q
    except OverflowError:  # a float power past the float range
        bound = inf
    return _finite([bound], Domain.FLOAT)[0] if isinstance(bound, float) else bound


def iterate_error_bound(
    m: Matrix, k: int, x: Vector, e: Vector
) -> tuple[Scalar, Scalar]:
    """Actual distance of M^k x from e, next to its bound.

    The bound is certified for rational input only; in floats both are rounded.
    Requires a type-1 square matrix and entry sum one for both x and e.
    Returns (|M^k x - e|, variation(M^k) * |x - e|) in the l1 norm; the
    first component never exceeds the second.
    """
    _require_square(m)
    ensure_type_one(m)
    _require_count(k, "k")
    if len(x) != m.rows or len(e) != m.rows:
        raise DimensionError("vector lengths must match the matrix dimension")
    for vec, name in ((x, "x"), (e, "e")):
        total = vsum(vec)
        if not scalars_equal(total, 1, m.domain):
            raise VsumNotOneError(f"entry sum of {name} is {total}, expected 1")
    mk = mat_pow(m, k)
    actual = l1_norm(mat_vec(mk, x) - e)
    bound = variation(mk).value * l1_norm(x - e)
    return actual, bound


def analyze(
    m: Matrix,
    p_max: int = DEFAULT_P_MAX,
    k_report: int = DEFAULT_K_REPORT,
) -> ConvergenceAnalysis:
    """Contraction search plus stationary vector and limit projection.

    Scans powers 1..p_max for variation strictly below one.  On success
    the verdict is CONVERGES and the report carries the per-power
    variations up to the contraction power and the stationary vector,
    from which it derives the limit projection and the decay table.
    Otherwise the verdict is NO_CONTRACTION_FOUND, no E is sought, and
    the report is deliberately inconclusive: the variation function is
    continuous, so failure below a finite bound proves nothing about
    divergence (outside the fully classified 2x2 case).

    Some M are scanned on a support first: that of their Markov part
    M - x 1^T (x the row minima), which has the same variation at every
    power, when it is found without rounding: for a rational M whose row
    minima sum to zero, and for a float M whose row minima are all zero,
    which is its own Markov part.  A power whose support has two disjoint
    columns has variation exactly 1, M itself included, so such powers
    are reported as 1 with no variation computed, var(M) at the first
    disjoint pair, and the numeric scan starts at the first power whose
    columns overlap pairwise.  With no such power up to p_max, or once a
    support pattern equals an earlier one, the verdict is inconclusive
    and no product is formed.  M^k0 is formed alone, by squaring.
    Rational reports are the same as from a full scan; a float report
    says 1 at the first disjoint pair where the full scan (and
    :func:`variation`) gave 1 up to rounding, perhaps at another pair,
    and from k0 on may differ from it in the last bits.

    Once a power equals an earlier one, the later powers repeat with a
    fixed period, so the scan copies the variations up to p_max instead
    of forming more products; the report is the same.  Exact powers stop
    at their first repeat, a float rounding cycle at a power-of-two
    checkpoint inside it, and at most n + log2(p_max) powers are kept,
    whatever p_max is.  M and each power are read as one form in either
    domain: a rational one as integer numerators over one denominator, in
    lowest terms for a power, a float one as its entries over 1.0.  The
    type check and the solve of a rational E read the same integers.

    E comes from the solve of :func:`stationary_vector`, except for a
    float Markov matrix (no negative entry) with var(M) < 1.  There E
    comes from iterating x <- M x from the uniform vector, stopped once
    the contraction bounds its error in the l1 norm:
    |x - E| <= |M x - x| / (1 - var(M)) <= n * 2**-52.  The iterate must
    pass the same fixed-point check as a solved E.  When it fails that
    check, when n matrix-vector products do not reach the bound, or when
    the steps stop shrinking or shrink too slowly to reach it within n
    products, E is solved for after all.
    """
    _require_square(m)
    type_report = ensure_type_one(m)
    _require_count(k_report, "k_report")
    p, history, first = _variation_scan(m, p_max)
    e = None
    if m.domain is Domain.FLOAT and p == 1 and min(m.entries) >= 0.0:
        e = _iterated_stationary(m, history[0])
    if p is not None and e is None:
        e = _solved_stationary(m)
    return ConvergenceAnalysis(p_max, k_report, p, tuple(history), first, type_report, e)


def determinant(m: Matrix) -> Scalar:
    """Determinant by elimination; exact in the rational domain.

    A rational M = N / D is read as its integer form, each column of N
    divided by its gcd g_j, and goes through Bareiss's fraction-free
    elimination, so det M is the signed last pivot times the product of
    the g_j, over D^n.  A float matrix goes through partial pivoting,
    and det M is the signed product of the pivots, left to right.
    """
    _require_square(m)
    n = m.rows
    if m.domain is Domain.RATIONAL:
        numerators, d = m._form
        gcds, work = _over_column_gcds(_row_slices(numerators, n))
        sign, rank = _bareiss_eliminate(work, n)
        return Fraction(sign * work[-1][-1] * prod(gcds) if rank == n else 0, d**n)
    work = m.row_lists()
    sign, rank = _float_eliminate(work, n, 0.0)
    if rank < n:
        return 0.0
    return _finite([prod((row[i] for i, row in enumerate(work)), start=float(sign))], m.domain)[0]


def type_eigenvalue_certificate(m: Matrix) -> Scalar:
    """Return the column-sum type c, an eigenvalue of M.

    The type check that finds c is the certificate: every column sum of
    M - cI is zero, so 1^T (M - cI) = 0 and the all-ones row is a left
    null vector of M - cI, which is therefore singular.  For a rational
    M the integer column sums of its form are equal, so this holds
    exactly; for a float M it holds within the tolerance that the type
    check applies.
    """
    _require_square(m)
    return _ensure_typed(m).type_value


def _weights_2x2(a: ScalarLike, b: ScalarLike) -> tuple[Scalar, Scalar, Domain]:
    """a and b as floats when either is a float, else as rationals, read as matrix entries are."""
    domain = _infer_domain((a, b))
    return _coerce(a, domain), _coerce(b, domain), domain


def matrix_2x2(a: ScalarLike, b: ScalarLike) -> Matrix:
    """The 2x2 type-1 matrix [[1-a, b], [a, 1-b]]."""
    a, b, domain = _weights_2x2(a, b)
    one = one_of(domain)
    return Matrix._of(2, 2, _finite([one - a, b, a, one - b], domain), domain)


def classify_2x2(a: ScalarLike, b: ScalarLike) -> Classification2x2:
    """Complete convergence taxonomy for [[1-a, b], [a, 1-b]] with c = a + b.

    Float inputs use the current tolerance as a guard band: c within
    tolerance of zero counts as zero, and the convergent window requires c
    clearly inside (0, 2).
    """
    a, b, domain = _weights_2x2(a, b)
    c = _finite([a + b], domain)[0]
    one = one_of(domain)
    var_value = abs(one - c)
    eigenvalues = (one, one - c)
    eigenvectors = None if is_zero(c, domain) else ((b, a), (one, -one))
    if is_zero(a, domain) and is_zero(b, domain):
        case = Case2x2.IDENTITY
        stationary = None
    elif is_zero(c, domain):
        case = Case2x2.DIVERGES_LINEAR
        stationary = None
    elif strictly_less(zero_of(domain), c, domain) and strictly_less(c, 2 * one, domain):
        case = Case2x2.CONVERGES_GENERIC
        stationary = Vector._of(_finite([b / c, a / c], domain), domain)
    else:
        case = Case2x2.DIVERGES_GENERIC
        stationary = None
    return Classification2x2(case, a, b, c, var_value, eigenvalues, eigenvectors, stationary)
