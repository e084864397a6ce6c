"""Unit and property tests for the scalar-domain and variation primitives."""

import copy
import math
import pickle
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import support
from support import EX_E, EX_M, EX_M_SQUARED, small_fractions
from stovar import cli, core
from stovar import (
    DimensionError,
    Domain,
    DomainMismatchError,
    Matrix,
    MatrixParseError,
    NotSquareError,
    NotTypedError,
    NotTypeOneError,
    RowVector,
    StovarError,
    Vector,
    analyze,
    classify_2x2,
    decay_bound,
    determinant,
    ensure_type_one,
    find_contraction_power,
    iterate_error_bound,
    l1_norm,
    limit_projection,
    mat_mul,
    mat_pow,
    mat_vec,
    ones_row,
    row_mat_mul,
    row_variation,
    row_variation_maximizer,
    stationary_vector,
    strict_variation_test,
    type_eigenvalue_certificate,
    type_of,
    variation,
    variation_type_bound_check,
    vsum,
)

F = Fraction


class TestConstruction:
    def test_rejects_empty_shapes(self):
        with pytest.raises(DimensionError):
            Matrix([])
        with pytest.raises(DimensionError):
            Matrix([[]])
        with pytest.raises(DimensionError):
            Vector([])
        with pytest.raises(DimensionError):
            RowVector([])

    def test_rejects_ragged_rows(self):
        with pytest.raises(DimensionError):
            Matrix([[1, 2], [3]])

    def test_domain_inference(self):
        assert Matrix([[1, 2], [3, 4]]).domain is Domain.RATIONAL
        assert Matrix([[1.0, 2], [3, 4]]).domain is Domain.FLOAT
        assert Vector([F(1, 2)]).domain is Domain.RATIONAL

    def test_domain_none_is_inferred(self):
        assert Matrix([[1, 2]], domain=None).domain is Domain.RATIONAL
        assert Vector([0.5], domain=None).domain is Domain.FLOAT
        assert RowVector([1, 0.5], domain=None).domain is Domain.FLOAT

    @pytest.mark.parametrize(
        "build, text",
        [
            (lambda: Matrix.identity(2, "float"), "'float'"),
            (lambda: ones_row(2, None), "None"),
            (lambda: Matrix([[1]], domain="rational"), "'rational'"),
            (lambda: Vector([1], domain="float"), "'float'"),
            (lambda: RowVector([1.0], domain=1), "1"),
            (lambda: core.zero_of("rational"), "'rational'"),
            (lambda: core.one_of("float"), "'float'"),
            (lambda: core.scalars_equal(F(1, 3), F(1, 3) + F(1, 10**12), "rational"), "'rational'"),
            (lambda: core.is_zero(0.0, None), "None"),
            (lambda: core.strictly_less(F(1, 3), F(1, 2), "rational"), "'rational'"),
        ],
        ids=["identity", "ones_row", "matrix", "vector", "row-vector"]
        + ["zero_of", "one_of", "scalars_equal", "is_zero", "strictly_less"],
    )
    def test_a_domain_that_is_not_a_domain_is_refused(self, build, text):
        with pytest.raises(ValueError, match=f"^domain must be a Domain, not {text}$"):
            build()

    def test_float_entry_rejected_in_rational_domain(self):
        with pytest.raises(DomainMismatchError):
            Matrix([[0.5]], domain=Domain.RATIONAL)

    def test_string_entries_are_exact(self):
        m = Matrix([["0.24", "1/3"]], domain=Domain.RATIONAL)
        assert m.entries == (F(6, 25), F(1, 3))

    @pytest.mark.parametrize(
        "build",
        [lambda: Matrix([["1e-10000000"]]), lambda: Vector(["1e-10000000"]),
         lambda: classify_2x2("1e-10000000", "1/2")],
        ids=["matrix", "vector", "classify"],
    )
    def test_a_huge_exponent_is_refused_at_once(self, build):
        # the CLI's rule: Fraction would first build 10**10000000, which takes seconds
        start = time.perf_counter()
        with pytest.raises(StovarError, match="^entry too long to print"):
            build()
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("token", ["1_0/20", "1_0", "0.1_5", "1e1_0", "1e-1_0000000"])
    def test_digit_group_underscores_are_refused_on_every_version(self, token):
        # Fraction reads them from Python 3.11 on; 3.10's error is raised on each
        with pytest.raises(ValueError, match=re.escape(f"Invalid literal for Fraction: {token!r}")):
            core._exact(token)
        with pytest.raises(DomainMismatchError, match="^cannot interpret"):
            Matrix([[token]], domain=Domain.RATIONAL)

    def test_no_exponent_bound_when_the_int_string_limit_is_off(self, monkeypatch):
        with pytest.raises(MatrixParseError):
            Matrix([["1e-5000"]])
        monkeypatch.setattr(core.sys, "get_int_max_str_digits", lambda: 0)
        assert Matrix([["1e-5000"]]).entries == (F(1, 10**5000),)

    @pytest.mark.parametrize(
        "bad", [0.0, -1.0, float("inf"), float("nan"), pytest.param(10**400, id="10**400")]
    )
    def test_set_tolerance_refuses_a_value_not_positive_and_finite(self, bad):
        previous = core.tolerance()
        with pytest.raises(ValueError, match="^tolerance must be positive and finite$"):
            core.set_tolerance(bad)
        assert core.tolerance() == previous

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), "inf", "nan"])
    def test_non_finite_float_rejected(self, bad):
        with pytest.raises(DomainMismatchError):
            Matrix([[0.5, bad]], domain=Domain.FLOAT)
        with pytest.raises(DomainMismatchError):
            Vector([bad], domain=Domain.FLOAT)
        with pytest.raises(DomainMismatchError):
            Matrix([[1.0]]).scale(bad)

    def test_mixed_domain_operations_rejected(self):
        a = Matrix([[1, 0], [0, 1]])
        b = Matrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainMismatchError):
            mat_mul(a, b)
        with pytest.raises(DomainMismatchError):
            a + b


class TestVsum:
    def test_plain_sum(self):
        assert vsum(Vector([1, 2, 3])) == 6

    def test_worked_stationary_vector(self):
        assert vsum(EX_E) == 1

    def test_cancellation(self):
        assert vsum(Vector([F(1, 2), F(-1, 2)])) == 0

    def test_equals_ones_row_product(self):
        x = Vector([F(3, 7), F(-2), F(5, 3)])
        j_times_x = row_mat_mul(ones_row(3), x.as_matrix())
        assert vsum(x) == j_times_x[0]


class TestL1Norm:
    def test_absolute_sum(self):
        assert l1_norm(Vector([1, -2, 3])) == 6

    def test_worked_column_difference(self):
        diff = EX_M.column(1) - EX_M.column(2)
        assert l1_norm(diff) == F(12, 5)

    def test_zero_vector(self):
        assert l1_norm(Vector([0, 0, 0, 0])) == 0


class TestVariation:
    def test_worked_example(self):
        report = variation(EX_M)
        assert report.value == F(6, 5)
        assert (report.arg_j, report.arg_k) == (2, 3)

    def test_worked_example_square(self):
        report = variation(EX_M_SQUARED)
        assert report.value == F(18, 25)

    def test_identical_columns(self):
        m = Matrix([[F(1, 3)] * 4, [F(-2)] * 4])
        report = variation(m)
        assert report.value == 0
        assert (report.arg_j, report.arg_k) == (1, 2)

    def test_single_column(self):
        report = variation(Matrix([[1], [2], [3]]))
        assert report.value == 0
        assert (report.arg_j, report.arg_k) == (1, 1)

    def test_tie_break_is_lexicographic(self):
        # columns 1 and 2 and columns 1 and 3 both at distance 2
        m = Matrix([[0, 1, 1], [0, 1, 1]])
        report = variation(m)
        assert report.value == 1
        assert (report.arg_j, report.arg_k) == (1, 2)


class TestRowVariation:
    def test_examples(self):
        assert row_variation(RowVector([1, -1, -1])) == 1
        assert row_variation(RowVector([F(5, 7)] * 3)) == 0
        assert row_variation(RowVector([3, 0, -1])) == 2

    @given(st.lists(small_fractions, min_size=1, max_size=6))
    def test_agrees_with_one_row_matrix(self, entries):
        z = RowVector(entries)
        assert row_variation(z) == variation(z.as_matrix()).value


class TestTypeOf:
    def test_worked_example_is_type_one(self):
        report = type_of(EX_M)
        assert report.has_type
        assert report.type_value == 1
        assert report.max_deviation == 0

    def test_identity(self):
        report = type_of(Matrix.identity(3))
        assert report.has_type and report.type_value == 1

    def test_unequal_sums(self):
        report = type_of(Matrix([[1, 0], [0, 2]]))
        assert not report.has_type
        assert report.max_deviation == 1

    def test_float_tolerance(self):
        m = Matrix([[0.5, 0.5 + 1e-12], [0.5, 0.5]], domain=Domain.FLOAT)
        assert type_of(m).has_type
        m = Matrix([[0.5, 0.51], [0.5, 0.5]], domain=Domain.FLOAT)
        assert not type_of(m).has_type


class TestMatMul:
    def test_identity(self):
        assert mat_mul(Matrix.identity(3), EX_M) == EX_M

    def test_worked_square(self):
        assert mat_mul(EX_M, EX_M) == EX_M_SQUARED

    def test_ones_row_hits_column_sums(self):
        assert row_mat_mul(ones_row(3), EX_M) == RowVector([1, 1, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat_mul(Matrix([[1, 2]]), Matrix([[1, 2]]))

    def test_mat_vec(self):
        assert mat_vec(EX_M, EX_E) == EX_E
        with pytest.raises(DimensionError):
            mat_vec(EX_M, Vector([1, 2]))

    def test_matmul_operator(self):
        row = RowVector([F(1, 2), 3, -1])
        assert EX_M @ EX_M == mat_mul(EX_M, EX_M)
        assert EX_M @ EX_E == mat_vec(EX_M, EX_E)
        assert row @ EX_M == row_mat_mul(row, EX_M)
        with pytest.raises(TypeError):
            EX_M @ 3
        with pytest.raises(TypeError):
            row @ EX_E

    @pytest.mark.parametrize(
        "product, a, b",
        [
            (mat_vec, Matrix.identity(2), Matrix([[1, 2], [3, 4]])),
            (mat_vec, RowVector([1, 2]), Vector([1, 2])),
            (row_mat_mul, Matrix([[1, 2]]), Matrix.identity(2)),
            (row_mat_mul, RowVector([1, 2]), Vector([1, 2])),
            (mat_mul, Matrix.identity(2), Vector([1, 2])),
            (mat_mul, RowVector([1, 2]), Matrix.identity(2)),
        ],
        ids=lambda v: getattr(v, "__name__", None) or type(v).__name__,
    )
    def test_wrong_operand_class(self, product, a, b):
        with pytest.raises(TypeError):
            product(a, b)


class TestMatPow:
    def test_zeroth_power(self):
        assert mat_pow(EX_M, 0) == Matrix.identity(3)

    def test_second_power(self):
        assert mat_pow(EX_M, 2) == EX_M_SQUARED

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7])
    def test_linear_divergence_closed_form(self, k):
        a = F(2, 3)
        m = Matrix([[1 - a, -a], [a, 1 + a]])
        assert mat_pow(m, k) == support.linear_divergence_power(a, k)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            mat_pow(Matrix([[1, 2]]), 2)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            mat_pow(Matrix.identity(2), -1)


class TestContractionInequality:
    @given(support.matrix_with_sum_zero_vector())
    @settings(max_examples=120, deadline=None)
    def test_sum_zero_vectors_contract(self, pair):
        a, x = pair
        assert vsum(x) == 0
        assert l1_norm(mat_vec(a, x)) <= variation(a).value * l1_norm(x)


class TestSubmultiplicativity:
    @given(support.rational_matrices(min_cols=2, max_cols=4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_variation_of_product(self, a, data):
        b, _ = data.draw(
            support.typed_matrices(min_rows=a.cols, max_rows=a.cols, min_cols=1, max_cols=4)
        )
        assert variation(mat_mul(a, b)).value <= variation(a).value * variation(b).value

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_type_of_product(self, data):
        a, ta = data.draw(support.typed_matrices(min_cols=2, max_cols=4))
        b, tb = data.draw(
            support.typed_matrices(min_rows=a.cols, max_rows=a.cols, min_cols=1, max_cols=4)
        )
        report = type_of(mat_mul(a, b))
        assert report.has_type
        assert report.type_value == ta * tb


class TestPseudoNormLaws:
    @given(support.rational_matrices(), small_fractions)
    @settings(max_examples=80, deadline=None)
    def test_absolute_homogeneity(self, a, c):
        assert variation(a.scale(c)).value == abs(c) * variation(a).value

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_triangle_inequality(self, data):
        a = data.draw(support.rational_matrices())
        entries = data.draw(
            st.lists(small_fractions, min_size=a.rows * a.cols, max_size=a.rows * a.cols)
        )
        b = Matrix([entries[i * a.cols : (i + 1) * a.cols] for i in range(a.rows)])
        assert variation(a + b).value <= variation(a).value + variation(b).value

    @given(support.rational_matrices())
    @settings(max_examples=80, deadline=None)
    def test_zero_iff_identical_columns(self, a):
        identical = all(a.column(j) == a.column(0) for j in range(a.cols))
        assert (variation(a).value == 0) == identical


# ---------------------------------------------------------------------------
# kernels against naive loops over Fraction or float scalars


def _ref_dot(xs, ys, zero):
    total = zero
    for x, y in zip(xs, ys):
        total = total + x * y
    return total


def _ref_columns(m):
    rows = m.row_lists()
    return [[row[j] for row in rows] for j in range(m.cols)]


def _ref_variation(m, zero):
    cols = _ref_columns(m)
    best, pair = None, (1, 1)
    for j in range(m.cols):
        for k in range(j + 1, m.cols):
            dist = zero
            for x, y in zip(cols[j], cols[k]):
                dist = dist + abs(x - y)
            if best is None or dist > best:
                best, pair = dist, (j + 1, k + 1)
    return (zero if best is None else best / 2), pair


_ZERO = {Domain.RATIONAL: F(0), Domain.FLOAT: 0.0}
_SCALARS = {
    # signed, zero, and with many distinct denominators
    Domain.RATIONAL: st.one_of(
        st.just(F(0)),
        small_fractions,
        st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
    ),
    Domain.FLOAT: st.floats(min_value=-100, max_value=100, allow_nan=False),
}


@st.composite
def _matrices(draw, domain, rows=None, cols=None):
    m = rows if rows is not None else draw(st.integers(1, 5))
    n = cols if cols is not None else draw(st.integers(1, 5))
    values = draw(st.lists(_SCALARS[domain], min_size=m * n, max_size=m * n))
    return Matrix([values[i * n : (i + 1) * n] for i in range(m)], domain=domain)


def _assert_same(got, want, domain):
    """Exact for rationals; bit for bit for floats summed left to right.

    CPython 3.12+ sums floats with compensation, so there the float
    kernels need only agree within rounding.
    """
    if domain is Domain.RATIONAL or sys.version_info < (3, 12):
        assert [repr(v) for v in got] == [repr(v) for v in want]
    else:
        assert list(got) == pytest.approx(list(want), rel=1e-12, abs=1e-9)


_domains = st.sampled_from([Domain.RATIONAL, Domain.FLOAT])


def _assert_kept_form(value):
    """A value keeps its form: a rational one its integer form, in lowest terms; a float one its entries over 1.0."""
    form = value._form
    if value.domain is Domain.FLOAT:
        assert form == (value.entries, 1.0)
        return
    numerators, d = form
    assert form == core._over_lcm(value.entries)
    assert math.gcd(d, *numerators) == 1


class TestKernelsMatchNaiveLoops:
    @given(_domains, st.data())
    @settings(max_examples=150, deadline=None)
    def test_variation(self, domain, data):
        a = data.draw(_matrices(domain))
        value, pair = _ref_variation(a, _ZERO[domain])
        report = variation(a)
        _assert_same([report.value], [value], domain)
        assert (report.arg_j, report.arg_k) == pair

    @given(_domains, st.data())
    @settings(max_examples=150, deadline=None)
    def test_mat_mul_any_shape(self, domain, data):
        a = data.draw(_matrices(domain))
        b = data.draw(_matrices(domain, rows=a.cols))
        want = [
            _ref_dot(row, col, _ZERO[domain])
            for row in a.row_lists()
            for col in _ref_columns(b)
        ]
        product = mat_mul(a, b)
        assert (product.rows, product.cols, product.domain) == (a.rows, b.cols, domain)
        _assert_same(product.entries, want, domain)
        rebuilt = Matrix(product.row_lists(), domain=domain)
        assert product == rebuilt
        assert hash(product) == hash(rebuilt)
        _assert_kept_form(product)

    @given(_domains, st.data())
    @settings(max_examples=100, deadline=None)
    def test_col_sums(self, domain, data):
        a = data.draw(_matrices(domain))
        want = [_ref_dot(col, [1] * a.rows, _ZERO[domain]) for col in _ref_columns(a)]
        _assert_same(a.col_sums(), want, domain)

    @given(
        st.one_of(
            support.rational_matrices(max_rows=5, max_cols=5),
            support.typed_matrices(max_rows=5, max_cols=5).map(lambda drawn: drawn[0]),
            st.builds(lambda v: Matrix([[v]]), support.small_fractions),
            _matrices(Domain.RATIONAL),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_rational_type_of(self, m):
        sums = [sum(col, F(0)) for col in zip(*m.row_lists())]
        want = core.TypeReport(
            all(s == sums[0] for s in sums), sums[0], max(abs(s - sums[0]) for s in sums)
        )
        assert repr(type_of(m)) == repr(want)

    @given(_domains, st.data())
    @settings(max_examples=100, deadline=None)
    def test_mat_vec_and_row_mat_mul(self, domain, data):
        a = data.draw(_matrices(domain))
        scalars = _SCALARS[domain]
        x = Vector(data.draw(st.lists(scalars, min_size=a.cols, max_size=a.cols)), domain=domain)
        z = RowVector(data.draw(st.lists(scalars, min_size=a.rows, max_size=a.rows)), domain=domain)
        zero = _ZERO[domain]
        _assert_same(mat_vec(a, x), [_ref_dot(row, x, zero) for row in a.row_lists()], domain)
        _assert_same(
            row_mat_mul(z, a), [_ref_dot(z, col, zero) for col in _ref_columns(a)], domain
        )
        _assert_kept_form(mat_vec(a, x))
        _assert_kept_form(row_mat_mul(z, a))

    def test_errors_still_raised(self):
        rational = Matrix([[F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)]])
        floats = rational.to_float()
        for mixed in ((rational, floats), (floats, rational)):
            with pytest.raises(DomainMismatchError):
                mat_mul(*mixed)
        with pytest.raises(DomainMismatchError):
            mat_vec(rational, Vector([0.5, 0.5]))
        with pytest.raises(DomainMismatchError):
            row_mat_mul(RowVector([0.5, 0.5]), rational)
        with pytest.raises(DimensionError):
            mat_mul(rational, Matrix([[1, 2, 3]]))
        with pytest.raises(DimensionError):
            mat_vec(floats, Vector([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionError):
            row_mat_mul(RowVector([1, 2, 3]), rational)


# ---------------------------------------------------------------------------
# the integer product against per-entry sums, and packed slots read back

# n max|A| max|B| reaches 2^63 from n = 2 at 2^31 and from n = 3 at 2^31 - 1
_EDGE_CELLS = st.one_of(
    st.sampled_from([0, 2**31 - 1, -(2**31 - 1), 2**31, -(2**31)]), st.integers(-9, 9)
)
_SLOT_VALUES = st.one_of(
    st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)
)


@st.composite
def _integer_forms(draw, rows, cols):
    """Cells of a rows-by-cols integer form, all 0 one time in eight, and a scale."""
    zero = draw(st.integers(0, 7)) == 0
    cells = [0] * (rows * cols) if zero else draw(
        st.lists(_EDGE_CELLS, min_size=rows * cols, max_size=rows * cols)
    )
    return cells, draw(st.integers(1, 12))


class TestIntegerProduct:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_step_is_the_per_entry_sums_over_their_gcd(self, data):
        # 1-by-n, n-by-1 and n-by-n shapes are those of row_mat_mul, mat_vec and mat_mul
        m, n, w = (data.draw(st.integers(1, 7)) for _ in range(3))
        (a, d), (b, scale) = data.draw(_integer_forms(m, n)), data.draw(_integer_forms(n, w))
        sums = [
            sum(a[i * n + k] * b[k * w + j] for k in range(n)) for i in range(m) for j in range(w)
        ]
        g = math.gcd(d * scale, *sums)
        assert core._step((a, d), (b, scale), n) == ([v // g for v in sums], d * scale // g)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([2**31 - 1] * 2, [-(2**31 - 1)] * 2),  # 2 (2^31 - 1)^2 < 2^63
            ([2**31] * 2, [2**31] * 2),  # the sum is 2^63
            ([-(2**31)] * 2, [2**31] * 2),  # the sum is -2^63
            ([2**31 - 1] * 3, [2**31 - 1] * 3),
            ([0, 0], [2**200, -(2**200)]),  # a zero factor times a wide one
        ],
    )
    def test_dot_products_at_the_64_bit_edge_are_exact(self, a, b):
        dot = sum(x * y for x, y in zip(a, b))
        assert core._step((a, 1), (b, 1), len(a)) == ([dot], 1)

    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_slots_read_back_every_packed_value(self, m, w, data):
        rows = [data.draw(st.lists(_SLOT_VALUES, min_size=w, max_size=w)) for _ in range(m)]
        columns = [v for column in zip(*rows) for v in column]
        assert core._slots(core._pack(rows, 8), m) == columns

    def test_a_lazy_path_squaring_is_the_fraction_product(self):
        n = 8
        weight = {0: F(1, 2), 1: F(1, 4)}
        rows = [[weight.get(abs(i - j), F(0)) for j in range(n)] for i in range(n)]
        rows[0][0] = rows[n - 1][n - 1] = F(3, 4)
        m = Matrix(rows)
        square = mat_mul(m, m)
        assert square == Matrix([[_ref_dot(r, c, F(0)) for c in _ref_columns(m)] for r in rows])
        _assert_kept_form(square)


def _root_below(bound, k):
    """The largest d with d**k < bound."""
    d = round(bound ** (1 / k))
    while d**k >= bound:
        d -= 1
    while (d + 1) ** k < bound:
        d += 1
    return d


@st.composite
def _column_sum_forms(draw):
    """(cells, d, n, k): L = cells / d, n-by-n, every column of the cells summing to D >= d.

    n <= 8 and 1 <= k <= 24.  Each row is all zero, has one nonzero (in a
    drawn column), or is free, and the last row is free when no other is.
    D is small, or one of the two integers around the k-th root of 2**63
    or 2**64, so D**k falls on either side of each bound.  d is D (a
    Markov L) or at most D (column sums of L at least 1).
    """
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 24))
    roots = [r + step for r in (_root_below(2**63, k), _root_below(2**64, k)) for step in (0, 1)]
    total = draw(st.one_of(st.sampled_from(roots), st.integers(1, 40)))
    kinds = draw(st.lists(st.sampled_from(["zero", "single", "free"]), min_size=n, max_size=n))
    if "free" not in kinds:
        kinds[-1] = "free"
    owners = {i: draw(st.integers(0, n - 1)) for i, kind in enumerate(kinds) if kind == "single"}
    free = [i for i, kind in enumerate(kinds) if kind == "free"]
    cells = [0] * (n * n)
    for j in range(n):
        singles = [i for i, owner in owners.items() if owner == j]
        assume(len(singles) <= total)
        rows = singles + [i for i in free if draw(st.booleans())] or free[:1]
        rest = total - len(singles)  # each single row holds 1 before the split
        cuts = sorted(draw(st.lists(st.integers(0, rest), min_size=len(rows) - 1, max_size=len(rows) - 1)))
        for place, (i, a, b) in enumerate(zip(rows, [0] + cuts, cuts + [rest])):
            cells[i * n + j] = b - a + (place < len(singles))
    return cells, draw(st.one_of(st.just(total), st.integers(1, total))), n, k


def _integer_power(cells, n, k):
    """L^k of the n-by-n integer cells, one row-by-column sum per entry."""
    rows = [cells[i * n : (i + 1) * n] for i in range(n)]
    power = rows
    for _ in range(k - 1):
        power = [[sum(p[t] * rows[t][j] for t in range(n)) for j in range(n)] for p in power]
    return [v for row in power for v in row]


# row 1 is all zero and row 2 has one nonzero; d**2 just below and above 2**63 and 2**64
_EDGE_COLUMN_SUMS = [
    ([d, 0, d, 0, 0, 0, 0, d, 0], d, 3, 2) for d in (3037000499, 3037000500, 2**32 - 1, 2**32)
]


class TestMarkovPower:
    @given(_column_sum_forms())
    @example(_EDGE_COLUMN_SUMS[0])
    @example(_EDGE_COLUMN_SUMS[1])
    @example(_EDGE_COLUMN_SUMS[2])
    @example(_EDGE_COLUMN_SUMS[3])
    @settings(max_examples=300, deadline=None)
    def test_power_is_the_integer_power_over_d_to_the_k(self, drawn):
        cells, d, n, k = drawn
        assert core._markov_power(cells, d, n, k) == (_integer_power(cells, n, k), d**k)

    def test_slots_widen_past_eight_bytes_with_d_to_the_k(self, monkeypatch):
        sizes = []
        slots = core._slots

        def recording(ints, width, size=8):
            sizes.append(size)
            return slots(ints, width, size)

        monkeypatch.setattr(core, "_slots", recording)
        for cells, d, n, k in _EDGE_COLUMN_SUMS:
            core._markov_power(cells, d, n, k)
        assert sizes == [8, 9, 9, 9]


# ---------------------------------------------------------------------------
# the popcount-bounded column search against an exhaustive one

_CUTOFF = core._PRUNE_FROM


def _markov(rng, m, n):
    weights = [[rng.uniform(0.01, 1) for _ in range(n)] for _ in range(m)]
    sums = [sum(row[j] for row in weights) for j in range(n)]
    return [row[j] / sums[j] for row in weights for j in range(n)]


def _from_columns(cols, m):
    return [col[i] for i in range(m) for col in cols]


def _permutation(rng, m, n):
    image = rng.sample(range(n), n)
    return [float(image[j] == i) for i in range(m) for j in range(n)]


def _repeated(rng, m, n):
    base = [[rng.choice((0.0, 0.25, 0.5, 1.0)) for _ in range(m)] for _ in range(3)]
    return _from_columns([rng.choice(base) for _ in range(n)], m)


def _lexicographic_tie(rng, m, n):
    # columns of one unit entry each, on a background of small ones: every
    # pair of them with the unit in different rows is at the same distance
    units = set(rng.sample(range(n), rng.randint(3, 6)))
    cols = []
    for j in range(n):
        if j in units:
            row = rng.randrange(m)
            cols.append([float(i == row) for i in range(m)])
        else:
            cols.append([rng.random() / (100 * m) for _ in range(m)])
    return _from_columns(cols, m)


_WIDE_FAMILIES = {
    "markov": _markov,
    "signed": lambda rng, m, n: [rng.uniform(-1, 1) for _ in range(m * n)],
    "permutation": _permutation,
    "repeated": _repeated,
    "lexicographic-tie": _lexicographic_tie,
    "magnitudes": lambda rng, m, n: [
        rng.choice((-1, 1)) * 10.0 ** rng.uniform(-300, 300) for _ in range(m * n)
    ],
    "subnormal": lambda rng, m, n: [
        rng.choice((0.0, 5e-324, -5e-324, 1e-320, -3e-318, 2.2e-308)) for _ in range(m * n)
    ],
    "small-integer": lambda rng, m, n: [rng.randint(-31, 32) for _ in range(m * n)],
    "huge-integer": lambda rng, m, n: [rng.randint(-(10**40), 10**40) for _ in range(m * n)],
}


_INTEGER_CUTOFF = core._PRUNE_INTEGERS_FROM

_INTEGER_FAMILIES = {
    "small-integer": _WIDE_FAMILIES["small-integer"],
    "huge-integer": _WIDE_FAMILIES["huge-integer"],
    "integer-permutation": lambda rng, m, n: list(map(int, _permutation(rng, m, n))),
}


class TestWidestPairBound:
    """Matrices with enough columns that the search bounds pairs before summing."""

    @given(
        st.sampled_from(sorted(_WIDE_FAMILIES)),
        st.integers(_CUTOFF, _CUTOFF + 16),
        st.integers(1, 40),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_the_exhaustive_search(self, family, n, m, rng):
        m = n if family == "permutation" else m
        self._check(tuple(_WIDE_FAMILIES[family](rng, m, n)), n)

    @given(
        st.sampled_from(sorted(_INTEGER_FAMILIES)),
        st.integers(_INTEGER_CUTOFF, _INTEGER_CUTOFF + 16),
        st.integers(1, 40),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_integer_columns_match_from_their_own_cutoff(self, family, n, m, rng):
        m = n if family == "integer-permutation" else m
        self._check(tuple(_INTEGER_FAMILIES[family](rng, m, n)), n)

    @pytest.mark.parametrize("kind, bounded", [(int, True), (float, False)])
    def test_integer_columns_are_bounded_from_fewer_columns(self, monkeypatch, kind, bounded):
        calls = []
        bound = core._code_distances
        monkeypatch.setattr(core, "_code_distances", lambda *args: calls.append(1) or bound(*args))
        n = _INTEGER_CUTOFF
        core._widest_pair(tuple(map(kind, _permutation(random.Random(3), n, n))), n)
        assert calls == [1] * bounded

    @staticmethod
    def _check(entries, n):
        got, want = core._widest_pair(entries, n), support.lexicographic_widest(entries, n)
        assert got == want
        assert type(got[0]) is type(want[0])
        # each pair's bound holds its own distance, so no pair is ever
        # skipped against a threshold it reaches
        cols = [entries[j::n] for j in range(n)]
        bound = core._code_distances(entries, cols)
        if bound is not None:
            counts, cut_below = bound
            for j in range(n - 1):
                for k in range(j + 1, n):
                    dist = sum(abs(x - y) for x, y in zip(cols[j], cols[k]))
                    assert counts[j][k - j - 1] >= cut_below(dist)

    def test_a_dense_markov_matrix_sums_few_pairs(self):
        n = 64
        entries = tuple(_markov(random.Random(1), n, n))
        counts, cut_below = core._code_distances(entries, [entries[j::n] for j in range(n)])
        best, _ = support.lexicographic_widest(entries, n)
        kept = sum(p >= cut_below(best) for row in counts for p in row)
        assert 0 < kept < n * (n - 1) // 10


# ---------------------------------------------------------------------------
# values built without coercion against the coercing constructors


def _rows_of(values, width):
    return [list(values[i : i + width]) for i in range(0, len(values), width)]


def _assert_rebuilt(got, want):
    """Same class, value, hash and repr as the reference; floats bit for bit."""
    assert type(got) is type(want)
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    bits = [(type(v), v.hex() if isinstance(v, float) else v) for v in got.entries]
    assert bits == [(type(v), v.hex() if isinstance(v, float) else v) for v in want.entries]


@st.composite
def _shaped(draw, domain):
    """A matrix of shape 1..6 by 1..6, a second one of the same shape, and a scalar."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = draw(_matrices(domain, rows=m, cols=n))
    b = draw(_matrices(domain, rows=m, cols=n))
    return a, b, draw(_SCALARS[domain])


class TestTrustedConstructionMatchesCoercion:
    @given(_domains, st.data())
    @settings(max_examples=150, deadline=None)
    def test_matrix_operations(self, domain, data):
        a, b, c = data.draw(_shaped(domain))
        n = a.cols

        def coerced(values, dom=domain):
            return Matrix(_rows_of(values, n), domain=dom)

        pairs = list(zip(a.entries, b.entries))
        _assert_rebuilt(a + b, coerced([x + y for x, y in pairs]))
        _assert_rebuilt(a - b, coerced([x - y for x, y in pairs]))
        _assert_rebuilt(a.scale(c), coerced([c * x for x in a.entries]))
        _assert_rebuilt(c * a, coerced([c * x for x in a.entries]))
        _assert_rebuilt(a.to_float(), coerced([float(x) for x in a.entries], Domain.FLOAT))
        for i in range(a.rows):
            _assert_rebuilt(a.row(i), RowVector(a.entries[i * n : (i + 1) * n], domain=domain))
        for j in range(n):
            column = [a.entries[i * n + j] for i in range(a.rows)]
            _assert_rebuilt(a.column(j), Vector(column, domain=domain))
        assert a.columns() == tuple(a.column(j) for j in range(n))

    @given(_domains, st.integers(1, 6))
    def test_identity_and_ones_row(self, domain, n):
        one, zero = (F(1), F(0)) if domain is Domain.RATIONAL else (1.0, 0.0)
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        _assert_rebuilt(Matrix.identity(n, domain), Matrix(rows, domain=domain))
        _assert_rebuilt(ones_row(n, domain), RowVector([one] * n, domain=domain))

    @given(_domains, st.data())
    @settings(max_examples=150, deadline=None)
    def test_vector_operations_and_products(self, domain, data):
        a, _, c = data.draw(_shaped(domain))
        scalars = _SCALARS[domain]
        xs = data.draw(st.lists(scalars, min_size=a.cols, max_size=a.cols))
        ys = data.draw(st.lists(scalars, min_size=a.cols, max_size=a.cols))
        zs = data.draw(st.lists(scalars, min_size=a.rows, max_size=a.rows))
        x, y = Vector(xs, domain=domain), Vector(ys, domain=domain)
        z = RowVector(zs, domain=domain)
        pairs = list(zip(x.entries, y.entries))
        _assert_rebuilt(x + y, Vector([u + v for u, v in pairs], domain=domain))
        _assert_rebuilt(x - y, Vector([u - v for u, v in pairs], domain=domain))
        _assert_rebuilt(c * x, Vector([c * u for u in x.entries], domain=domain))
        _assert_rebuilt(x.scale(c), Vector([c * u for u in x.entries], domain=domain))
        _assert_rebuilt(x.as_matrix(), Matrix([[u] for u in x.entries], domain=domain))
        _assert_rebuilt(z.as_matrix(), Matrix([list(z.entries)], domain=domain))
        # the builtin sum, as in the kernels, so floats agree bit for bit on every CPython
        rows = _rows_of(a.entries, a.cols)
        want = [sum(u * v for u, v in zip(row, x.entries)) for row in rows]
        _assert_rebuilt(mat_vec(a, x), Vector(want, domain=domain))
        cols = [a.entries[j :: a.cols] for j in range(a.cols)]
        want = [sum(u * v for u, v in zip(z.entries, col)) for col in cols]
        _assert_rebuilt(row_mat_mul(z, a), RowVector(want, domain=domain))

    def test_row_and_column_bounds(self):
        for bad in (-1, 3):
            with pytest.raises(IndexError):
                EX_M.row(bad)
            with pytest.raises(IndexError):
                EX_M.column(bad)
        with pytest.raises(DimensionError):
            ones_row(0)
        with pytest.raises(DimensionError):
            Matrix.identity(0)
        with pytest.raises(DimensionError):
            Matrix.identity(-2)

    @pytest.mark.parametrize(
        "build, size, name",
        [
            (Matrix.identity, 2.5, "n"),
            (ones_row, 2.5, "length"),
            (Matrix.identity, "3", "n"),
            (Matrix.identity, True, "n"),
            (ones_row, True, "length"),
        ],
    )
    def test_a_size_that_is_not_an_int_is_refused(self, build, size, name):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer$"):
            build(size)


# ---------------------------------------------------------------------------
# one value contract for Matrix, Vector and RowVector

_VALUE_CLASSES = [Matrix, Vector, RowVector]


def _value(cls, entries, domain=None):
    """A value of class cls over the flat entries: a Matrix as one column."""
    if cls is Matrix:
        return Matrix([[v] for v in entries], domain=domain)
    return cls(entries, domain=domain)


class TestValueContract:
    def test_same_entries_in_another_class_are_unequal(self):
        assert Vector([1, 2]) != RowVector([1, 2])
        assert Vector([1, 2]) != Matrix([[1], [2]])
        assert RowVector([1, 2]) != Matrix([[1, 2]])

    @pytest.mark.parametrize("cls", _VALUE_CLASSES)
    def test_equals_only_its_own_class(self, cls):
        x = _value(cls, [1, 2])
        assert x == _value(cls, [1, 2])
        assert hash(x) == hash(_value(cls, [1, 2]))
        for other in _VALUE_CLASSES:
            if other is not cls:
                assert x != _value(other, [1, 2])
                assert _value(other, [1, 2]) != x

    @pytest.mark.parametrize("cls", _VALUE_CLASSES)
    def test_arithmetic_across_classes_is_a_type_error(self, cls):
        x = _value(cls, [1, 2])
        for other in _VALUE_CLASSES:
            if other is not cls:
                with pytest.raises(TypeError):
                    x + _value(other, [1, 2])
                with pytest.raises(TypeError):
                    x - _value(other, [1, 2])

    @pytest.mark.parametrize("cls", _VALUE_CLASSES)
    def test_shape_mismatch_is_a_dimension_error(self, cls):
        with pytest.raises(DimensionError, match="shape mismatch"):
            _value(cls, [1, 2]) + _value(cls, [1, 2, 3])
        with pytest.raises(DimensionError, match="shape mismatch"):
            _value(cls, [1, 2, 3]) - _value(cls, [1, 2])

    def test_matrices_of_one_size_but_another_shape_do_not_add(self):
        with pytest.raises(DimensionError, match="shape mismatch: 1x2 vs 2x1"):
            Matrix([[1, 2]]) + Matrix([[1], [2]])

    @pytest.mark.parametrize("cls", _VALUE_CLASSES)
    def test_mixed_domains_do_not_add(self, cls):
        with pytest.raises(DomainMismatchError):
            _value(cls, [1, 2]) + _value(cls, [1.0, 2.0])
        with pytest.raises(DomainMismatchError):
            _value(cls, [1.0, 2.0]) - _value(cls, [1, 2])

    @pytest.mark.parametrize("domain", list(Domain))
    def test_row_vector_arithmetic_agrees_with_vector(self, domain):
        xs, ys = [F(1, 2), -3, F(5, 8)], [2, F(1, 4), 0]
        x, y = Vector(xs, domain=domain), Vector(ys, domain=domain)
        zx, zy = RowVector(xs, domain=domain), RowVector(ys, domain=domain)
        for row, column in [(zx + zy, x + y), (zx - zy, x - y), (2 * zx, 2 * x)]:
            assert type(row) is RowVector
            assert row.entries == column.entries
            assert row.domain is column.domain is domain

    def test_integer_form_cache_is_not_part_of_the_value(self):
        rows = [[F(1, 2), F(-1, 3)], [F(1, 2), F(4, 3)]]
        first, second = Matrix(rows), Matrix(rows)
        assert first._form == ([3, -2, 3, 8], 6)
        for twin in (copy.copy(first), pickle.loads(pickle.dumps(first))):
            assert twin == first == second and second == twin
            assert hash(twin) == hash(first) == hash(second)
            assert repr(twin) == repr(first) == repr(second)
            assert twin._form == first._form
        assert {first, second} == {second}
        assert second._form == first._form

    @pytest.mark.parametrize("domain", list(Domain))
    def test_every_value_gets_its_form_when_it_is_built(self, domain):
        m = Matrix([[F(1, 2), F(-1, 3)], [F(1, 2), F(4, 3)]], domain=domain)
        x = Vector([F(1, 3), F(2, 3)], domain=domain)
        z = RowVector([F(1, 4), F(-5, 6)], domain=domain)
        text = "1/2,-1/3\n1/2,4/3\n" if domain is Domain.RATIONAL else "0.5,-0.25\n0.5,1.25\n"
        built = [
            m, x, z, m + m, x - x, 3 * z, mat_mul(m, m), mat_vec(m, x), row_mat_mul(z, m),
            m.row(1), m.column(0), x.as_matrix(), z.as_matrix(), m.to_float(),
            Matrix.identity(3, domain), ones_row(3, domain), limit_projection(x),
            cli._parse_csv_matrix(text),
        ]
        for value in built:
            _assert_kept_form(value)
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert twin == value
                assert twin._form == value._form

    @pytest.mark.parametrize(
        "cls, shape", [(Matrix, (3, 1)), (Vector, (3, 1)), (RowVector, (1, 3))]
    )
    def test_as_matrix_keeps_the_shape(self, cls, shape):
        m = _value(cls, [1, 2, 3]).as_matrix()
        assert type(m) is Matrix
        assert (m.rows, m.cols) == shape
        assert m.entries == (1, 2, 3)


# ---------------------------------------------------------------------------
# float results stay finite


# lower triangular with eigenvalue 1e200: its powers diverge, and the
# second power overflows a float
_OVERFLOWING = Matrix([[1e200, 0.0, 0.0], [-1e200, 1.0, 0.0], [1.0, 0.0, 1.0]])


# entries summing past the float range
_SUMS_PAST_THE_RANGE = Vector([1e308, 1e308])


class TestFloatOverflow:
    def test_contraction_search_rejects_an_overflowing_power(self):
        with pytest.raises(DomainMismatchError, match="non-finite entry"):
            find_contraction_power(_OVERFLOWING, 5)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_results_are_finite_or_rejected(self, data):
        big = st.floats(min_value=-1e300, max_value=1e300)
        n = data.draw(st.integers(1, 6))

        def square():
            values = data.draw(st.lists(big, min_size=n * n, max_size=n * n))
            return Matrix(_rows_of(values, n), domain=Domain.FLOAT)

        a, b = square(), square()
        x = Vector(data.draw(st.lists(big, min_size=n, max_size=n)), domain=Domain.FLOAT)
        y = Vector(data.draw(st.lists(big, min_size=n, max_size=n)), domain=Domain.FLOAT)
        z = RowVector(data.draw(st.lists(big, min_size=n, max_size=n)), domain=Domain.FLOAT)
        c = data.draw(big)
        operations = [
            lambda: mat_mul(a, b),
            lambda: mat_vec(a, x),
            lambda: row_mat_mul(z, a),
            lambda: a + b,
            lambda: a - b,
            lambda: a.scale(c),
            lambda: x + y,
            lambda: x - y,
            lambda: x.scale(c),
        ]
        for operation in operations:
            try:
                result = operation()
            except DomainMismatchError:
                continue
            assert all(map(math.isfinite, result.entries))
            if isinstance(result, Matrix):
                # finite entries may still lie farther apart than the float range
                try:
                    value = variation(result).value
                except DomainMismatchError as exc:
                    assert str(exc).startswith("non-finite entry")
                else:
                    assert math.isfinite(value) and value >= 0

    def test_variation_that_overflows_is_rejected(self):
        m = Matrix([[1e308, -1e308], [-1e308, 1e308]])
        with pytest.raises(DomainMismatchError, match="^non-finite entry inf in a float-domain"):
            variation(m)

    @pytest.mark.parametrize(
        "value, other",
        [(1e307, 0.0), (1e307, -1e307), (1e308, -1e308)],
        ids=["one-sided", "signed", "infinite-row-span"],
    )
    def test_overflow_past_the_pruning_cutoff_is_rejected(self, value, other):
        # value where i + j is odd: columns of unlike parity are farther
        # apart than the float range, and the last row span overflows too
        n = 40
        m = Matrix([[value if (i + j) % 2 else other for j in range(n)] for i in range(n)])
        with pytest.raises(
            DomainMismatchError, match="^non-finite entry inf in a float-domain value$"
        ):
            variation(m)

    def test_constant_matrix_past_the_pruning_cutoff(self):
        report = variation(Matrix([[0.025] * 40] * 40))
        assert (report.value, report.arg_j, report.arg_k) == (0.0, 1, 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Matrix([[10**400, 0.5]]),
            lambda: Matrix([[Fraction(10**400)]], Domain.FLOAT),
            lambda: Vector([10**400, 0.5]),
        ],
        ids=["matrix-int", "matrix-fraction", "vector-int"],
    )
    def test_constructors_reject_values_beyond_the_float_range(self, build):
        with pytest.raises(DomainMismatchError, match="^entry beyond the float range"):
            build()

    def test_rejection_of_an_int_too_long_to_print(self):
        # repr of this int raises ValueError, so the message must not use it
        with pytest.raises(DomainMismatchError, match="^entry beyond the float range"):
            Vector([10**5000, 0.5])

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: vsum(_SUMS_PAST_THE_RANGE),
            lambda: l1_norm(_SUMS_PAST_THE_RANGE),
            lambda: row_variation(RowVector([1e308, -1e308])),
            lambda: limit_projection(_SUMS_PAST_THE_RANGE),
            lambda: iterate_error_bound(
                Matrix([[0.5, 0.5], [0.5, 0.5]]), 1, _SUMS_PAST_THE_RANGE, Vector([0.5, 0.5])
            ),
            lambda: classify_2x2(1e308, 1e308),
            lambda: determinant(Matrix([[1e200, 0.0], [0.0, 1e200]])),
            lambda: decay_bound(1e200, 0.5, 3, 2),
        ],
        ids=[
            "vsum",
            "l1_norm",
            "row_variation",
            "limit_projection",
            "iterate_error_bound",
            "classify_2x2",
            "determinant",
            "decay_bound",
        ],
    )
    def test_result_past_the_float_range_is_rejected(self, compute):
        # finite entries whose sum, difference, product or power overflows
        with pytest.raises(
            DomainMismatchError, match="^non-finite entry inf in a float-domain value$"
        ):
            compute()

    def test_column_sums_that_overflow_are_rejected(self):
        # equal columns, so no type deviation may be hidden behind inf - inf
        m = Matrix([[1e308, 1e308], [1e308, 1e308]])
        with pytest.raises(DomainMismatchError, match="^non-finite entry inf in a float-domain"):
            m.col_sums()
        with pytest.raises(DomainMismatchError):
            type_of(m)

    @pytest.mark.parametrize(
        "big, text", [(10**400, "inf"), (-(10**400), "-inf")], ids=["positive", "negative"]
    )
    def test_to_float_of_a_fraction_beyond_the_float_range(self, big, text):
        m = Matrix([[Fraction(1, 3), Fraction(big)]])
        with pytest.raises(DomainMismatchError, match=f"^non-finite entry {text} in a float-domain"):
            m.to_float()
        assert Matrix([[Fraction(1, 3), Fraction(10**300)]]).to_float().entries == (1 / 3, 1e300)


@pytest.mark.parametrize(
    "check",
    [
        type_eigenvalue_certificate,
        strict_variation_test,
        variation_type_bound_check,
        row_variation_maximizer,
    ],
)
def test_untyped_matrix_is_rejected_with_one_message(check):
    message = r"^column sums are not constant \(max deviation 1\)$"
    with pytest.raises(NotTypedError, match=message):
        check(Matrix([[1, 0], [0, 2]]))


@pytest.mark.parametrize(
    "check", [ensure_type_one, analyze, find_contraction_power, stationary_vector]
)
def test_untyped_matrix_is_not_type_one_with_the_same_message(check):
    message = r"^column sums are not constant \(max deviation 1\)$"
    with pytest.raises(NotTypeOneError, match=message):
        check(Matrix([[1, 0], [0, 2]]))
