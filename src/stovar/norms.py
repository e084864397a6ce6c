"""Explicit maximizers realizing the variation as an operator norm.

The variation of a matrix A equals the largest value of |A x| over
sum-zero vectors x of unit l1 norm, and, for a typed matrix B, the
largest row variation of z B over rows z of row variation one.  Both
maxima are attained by finite witnesses built from the variation
report's column pair; this module constructs those witnesses instead of
running any optimization.
"""

from __future__ import annotations

from .core import (
    Matrix,
    RowVector,
    Vector,
    _ensure_typed,
    one_of,
    strictly_less,
    variation,
    zero_of,
)
from .errors import DimensionError, ZeroVariationError


def variation_maximizer(a: Matrix) -> Vector:
    """Sum-zero unit vector x0 with |A x0| equal to the variation of A.

    x0 carries +1/2 at the report's first column index, -1/2 at the
    second, and zeros elsewhere; it satisfies |x0| = 1 and sum 0.
    """
    if a.cols < 2:
        raise DimensionError("maximizer needs a matrix with at least two columns")
    report = variation(a)
    half = one_of(a.domain) / 2
    entries = [zero_of(a.domain)] * a.cols
    entries[report.arg_j - 1] = half
    entries[report.arg_k - 1] = -half
    return Vector._of(entries, a.domain)


def row_variation_maximizer(b: Matrix) -> RowVector:
    """Row z0 of row variation one with row_variation(z0 B) = variation(B).

    Requires a typed matrix with at least two rows and positive variation.
    With (k0, l0) the variation report's column pair, entry j of z0 is +1
    when B[j, k0] > B[j, l0] and -1 otherwise.  For a typed matrix the
    column difference sums to zero, so z0 always carries both signs and
    its row variation is exactly one.
    """
    if b.rows < 2:
        raise DimensionError("row maximizer needs a matrix with at least two rows")
    _ensure_typed(b)
    report = variation(b)
    if not strictly_less(zero_of(b.domain), report.value, b.domain):
        raise ZeroVariationError("all columns are identical; the maximum over rows is zero")
    k0 = report.arg_j - 1
    l0 = report.arg_k - 1
    one = one_of(b.domain)
    entries = [one if row[k0] > row[l0] else -one for row in b.row_lists()]
    return RowVector._of(entries, b.domain)
