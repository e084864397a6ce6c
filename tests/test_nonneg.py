"""Tests for sign patterns, the strictness criterion, and the 3x3 rule."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from support import (
    K_INSTANCE,
    K_PATTERN,
    L_INSTANCE,
    L_PATTERN,
    M_INSTANCE,
    M_PATTERN,
    M_POWER_PATTERNS,
)
from stovar import (
    DimensionError,
    Domain,
    Matrix,
    NegativeEntryError,
    NonPositiveTypeError,
    NotSquareError,
    NotTypeOneError,
    NotTypedError,
    SignPattern,
    criterion_3x3,
    first_positive_power,
    mat_mul,
    mat_pow,
    pairwise_positive_overlap,
    pattern_power,
    pattern_product,
    sign_pattern,
    strict_variation_test,
    variation,
    variation_type_bound_check,
)
from stovar import nonneg
from stovar.cli import pattern_report_dict

F = Fraction


@st.composite
def _cells(draw):
    """0/1 cells of 1..7 x 1..7, some with an all-zero row or column."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    row = st.lists(st.integers(0, 1), min_size=cols, max_size=cols)
    cells = draw(st.lists(row, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        cells[draw(st.integers(0, rows - 1))] = [0] * cols
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for r in cells:
            r[j] = 0
    return cells


class TestSignPattern:
    def test_construction_from_strings_and_ints(self):
        assert SignPattern(["0+", "+0"]) == SignPattern([[0, 1], [1, 0]])

    def test_rejects_bad_cells(self):
        with pytest.raises(ValueError):
            SignPattern([["-"]])
        with pytest.raises(DimensionError):
            SignPattern([])

    def test_of_worked_instance(self):
        assert sign_pattern(M_INSTANCE) == M_PATTERN

    def test_zero_and_positive_matrices(self):
        assert sign_pattern(Matrix([[0, 0], [0, 0]])) == SignPattern(["00", "00"])
        assert sign_pattern(Matrix([[F(1, 7), 2], [3, F(5, 9)]])).is_all_positive()

    def test_rejects_negative_entries(self):
        with pytest.raises(NegativeEntryError):
            sign_pattern(Matrix([[1, -1], [0, 2]]))

    def test_float_threshold(self):
        tiny = Matrix([[1e-12, 1.0]], domain=Domain.FLOAT)
        assert sign_pattern(tiny) == SignPattern(["0+"])
        with pytest.raises(NegativeEntryError):
            sign_pattern(Matrix([[-1e-3]], domain=Domain.FLOAT))

    def test_row_strings(self):
        assert M_PATTERN.row_strings() == ("0+0", "00+", "++0")

    def test_row_count_takes_part_in_equality(self):
        # both have the one column mask 0
        assert SignPattern([[0], [0]]) != SignPattern([[0]])
        assert len({SignPattern([[0], [0]]), SignPattern([[0]])}) == 2

    def test_repr_lists_the_row_strings(self):
        assert repr(M_PATTERN) == "SignPattern(['0+0', '00+', '++0'])"

    def test_a_non_pattern_is_never_equal(self):
        # __eq__ returns NotImplemented, so Python falls back to identity
        assert M_PATTERN.__eq__(M_PATTERN.row_strings()) is NotImplemented
        assert M_PATTERN != M_PATTERN.row_strings()
        assert not M_PATTERN == Matrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])

    @given(_cells(), _cells())
    @example([[0, 0, 0, 0, 0, 0, 0]], [[0]] * 7)
    @example([[1]] * 7, [[1, 1, 1, 1, 1, 1, 1]])
    @settings(max_examples=200, deadline=None)
    def test_cells_round_trip_through_the_column_masks(self, cells, other):
        p = SignPattern(cells)
        rows, cols = len(cells), len(cells[0])
        flat = [bool(cell) for row in cells for cell in row]
        items = list(p)
        assert items == flat and all(type(cell) is bool for cell in items)
        assert (p.rows, p.cols) == (rows, cols)
        assert all(p.entry(i, j) == bool(cells[i][j]) for i in range(rows) for j in range(cols))
        assert p.row_strings() == tuple(
            "".join("+" if cell else "0" for cell in row) for row in cells
        )
        assert p.is_all_positive() == all(flat)
        same = SignPattern(p.row_strings())
        assert same == p and hash(same) == hash(p)
        assert (SignPattern(other) == p) == (other == cells)
        # an extra zero row or column changes the shape; an extra zero row
        # leaves every column mask as it was
        assert SignPattern(cells + [[0] * cols]) != p
        assert SignPattern([row + [0] for row in cells]) != p


class TestPatternProduct:
    def test_worked_square(self):
        assert pattern_product(M_PATTERN, M_PATTERN) == M_POWER_PATTERNS[1]

    def test_identity_is_neutral(self):
        eye = SignPattern.identity(3)
        assert pattern_product(eye, L_PATTERN) == L_PATTERN
        assert pattern_product(L_PATTERN, eye) == L_PATTERN

    def test_all_zero_absorbs(self):
        zero = SignPattern(["00", "00"])
        assert pattern_product(zero, SignPattern(["++", "++"])) == zero

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pattern_product(SignPattern(["+0"]), SignPattern(["+0"]))

    @given(
        support.nonneg_matrices(min_cols=1, max_cols=3),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_sound_for_nonnegative_products(self, a, data):
        b = data.draw(
            support.nonneg_matrices(min_rows=a.cols, max_rows=a.cols, max_cols=3)
        )
        assert sign_pattern(mat_mul(a, b)) == pattern_product(
            sign_pattern(a), sign_pattern(b)
        )


class TestPatternPower:
    def test_worked_power_sequence(self):
        for k, expected in enumerate(M_POWER_PATTERNS, start=1):
            assert pattern_power(M_PATTERN, k) == expected

    def test_zeroth_power(self):
        assert pattern_power(M_PATTERN, 0) == SignPattern.identity(3)

    @pytest.mark.parametrize(
        "pattern",
        [M_PATTERN, K_PATTERN, SignPattern(["000+", "+000", "0+00", "00++"])],
        ids=["worked", "triangular", "four-cycle-with-loop"],
    )
    def test_matches_repeated_products(self, pattern):
        power = SignPattern.identity(pattern.rows)
        for k in range(1, 20):
            power = pattern_product(power, pattern)
            assert pattern_power(pattern, k) == power

    def test_huge_exponent_of_a_two_cycle(self):
        # by squaring, a million is about forty products
        assert pattern_power(SignPattern(["0+", "+0"]), 10**6) == SignPattern.identity(2)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            pattern_power(SignPattern(["+0"]), 2)


class TestFirstPositivePower:
    def test_worked_examples(self):
        assert first_positive_power(M_PATTERN, 32) == 5
        assert first_positive_power(L_PATTERN, 32) == 2
        assert first_positive_power(K_PATTERN, 32) is None

    def test_positive_pattern_is_index_one(self):
        assert first_positive_power(SignPattern(["++", "++"]), 8) == 1

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            first_positive_power(SignPattern(["+0"]), 4)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            first_positive_power(M_PATTERN, 0)


def _naive_product(p, q):
    return [
        [any(p[i][j] and q[j][k] for j in range(len(q))) for k in range(len(q[0]))]
        for i in range(len(p))
    ]


def _naive_pattern_report(rows, k_max):
    """The pattern report as two separate walks over the powers compute it."""
    strings = lambda acc: ["".join("+" if c else "0" for c in row) for row in acc]
    positive = lambda acc: all(map(all, acc))
    # the listing walk: stops at the first positive or repeated power
    powers, seen, acc = [], set(), rows
    for k in range(1, k_max + 1):
        powers.append({"k": k, "rows": strings(acc)})
        key = tuple(map(tuple, acc))
        if positive(acc) or key in seen:
            break
        seen.add(key)
        acc = _naive_product(acc, rows)
    # the regularity-index walk: every power up to k_max
    first, acc = None, rows
    for k in range(1, k_max + 1):
        if positive(acc):
            first = k
            break
        if k < k_max:
            acc = _naive_product(acc, rows)
    n = len(rows)
    overlap = all(
        any(rows[j][k] and rows[j][l] for j in range(n)) for k in range(n) for l in range(k, n)
    )
    return {
        "schema": "stovar/1",
        "command": "pattern",
        "rows": n,
        "cols": n,
        "k_max": k_max,
        "powers": powers,
        "first_positive_power": first,
        "pairwise_positive_overlap": overlap,
    }


@st.composite
def _square_cells(draw, max_n=7):
    """Square 0/1 cells of any density, some laid over a permutation."""
    n = draw(st.integers(1, max_n))
    density = draw(st.integers(0, 10))
    digits = draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n))
    cells = [[digits[i * n + j] < density for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        for i in range(n):
            cells[i][perm[i]] = True
    return cells


def _naive_overlap_walk(cells, k_max):
    """P^1, P^2, ... up to the first power whose columns overlap pairwise, and its k.

    k is None when the powers reach P^k_max, or a power equal to an
    earlier one (from there on they cycle), without such an overlap.
    """
    n = len(cells)
    powers, power = [], cells
    for k in range(1, k_max + 1):
        powers.append(power)
        if all(any(power[i][j] and power[i][l] for i in range(n)) for j in range(n) for l in range(n)):
            return k, powers
        if power in powers[:-1]:
            return None, powers
        power = _naive_product(power, cells)
    return None, powers


# a permutation of 9 states with cycles of length 4 and 5, so of order 20
_CYCLES_4_5 = [1, 2, 3, 0, 5, 6, 7, 8, 4]


def _cells_of(draw, rows, cols):
    """0/1 cells of any density, with some columns all zero."""
    density = draw(st.integers(0, 10))
    digits = draw(st.lists(st.integers(0, 9), min_size=rows * cols, max_size=rows * cols))
    zero = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    return [[int(j not in zero and digits[i * cols + j] < density) for j in range(cols)] for i in range(rows)]


@st.composite
def _support_masks(draw):
    """Column masks of a square support, n = 1..9, of any density, with no empty column."""
    cells = draw(_square_cells(max_n=9))
    n = len(cells)
    for j in range(n):
        if not any(row[j] for row in cells):
            cells[draw(st.integers(0, n - 1))][j] = True
    return SignPattern(cells)._masks


def _one_aperiodic_closed_class(masks):
    """Whether the digraph with an edge j -> i for bit i of column j has one closed class, aperiodic.

    A class is closed when no edge leaves it, that is, when every state
    reachable from one of its states u reaches u.  Its period is the gcd of level(u) + 1 - level(v) over
    its edges u -> v, for the levels of a breadth-first search inside it.
    """
    n = len(masks)
    successors = [[i for i in range(n) if mask >> i & 1] for mask in masks]
    reach = []
    for start in range(n):
        seen, stack = {start}, [start]
        while stack:
            for v in successors[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach.append(frozenset(seen))
    closed = {reach[u] for u in range(n) if all(u in reach[v] for v in reach[u])}
    if len(closed) != 1:
        return False
    (states,) = closed
    root = min(states)
    level, queue = {root: 0}, [root]
    for u in queue:
        for v in successors[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    period = 0
    for u in states:
        for v in successors[u]:
            period = math.gcd(period, level[u] + 1 - level[v])
    return period == 1


@st.composite
def _factor_pairs(draw, max_side=9):
    """Cells of A (m x n) and B (n x r), each side 1..max_side; some B all zero."""
    m, n, r = (draw(st.integers(1, max_side)) for _ in range(3))
    a, b = _cells_of(draw, m, n), _cells_of(draw, n, r)
    if draw(st.integers(0, 9)) == 0:
        b = [[0] * r for _ in range(n)]
    return a, b


class TestPatternWalk:
    @given(_square_cells(), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_two_naive_walks(self, cells, k_max):
        p = SignPattern(cells)
        expected = _naive_pattern_report(cells, k_max)
        assert json.dumps(pattern_report_dict(p, k_max)) == json.dumps(expected)
        assert first_positive_power(p, k_max) == expected["first_positive_power"]

    @given(_factor_pairs())
    @settings(max_examples=400, deadline=None)
    @example(([[1, 1]], [[1], [0]]))  # a one-row left factor, a one-column right factor
    @example(([[1], [1]], [[1, 0, 1]]))  # a one-column left factor, a one-row right factor
    @example(([[1, 0], [1, 1]], [[0, 0], [0, 0]]))  # an all-zero right factor
    @example(([[1, 1], [0, 1]], [[0], [0]]))  # an all-zero one-column right factor
    @example(([[1]], [[0]]))
    @example(([[0, 1, 1]] * 9, [[1] * 9, [0] * 9, [1, 0] * 4 + [0]]))  # zero and full columns
    def test_product_matches_a_triple_loop(self, pair):
        a, b = pair
        product = pattern_product(SignPattern(a), SignPattern(b))
        assert (product.rows, product.cols) == (len(a), len(b[0]))
        assert product == SignPattern(_naive_product(a, b))
        assert all(type(cell) is bool for cell in product)
        assert all(type(mask) is int for mask in product._masks)

    @given(_square_cells(max_n=9), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    @example([[j == (i + 1) % 9 for j in range(9)] for i in range(9)], 8)  # order 9 > k_max
    @example([[j == _CYCLES_4_5[i] for j in range(9)] for i in range(9)], 19)  # order 20 > k_max
    @example([[j == _CYCLES_4_5[i] for j in range(9)] for i in range(9)], 40)  # a repeat first
    def test_overlap_walk_matches_a_naive_walk(self, cells, k_max):
        n = len(cells)
        k, powers = nonneg._power_walk(SignPattern(cells)._masks, k_max, nonneg._masks_overlap)
        expected_k, expected = _naive_overlap_walk(cells, k_max)
        assert k == expected_k
        assert [list(SignPattern._of(n, masks)) for masks in powers] == [
            [bool(c) for row in power for c in row] for power in expected
        ]

    @given(_support_masks())
    @settings(max_examples=500, deadline=None)
    @example((0b1,))  # one state with a loop
    @example((0b10, 0b01))  # a 2-cycle: one closed class, of period 2
    @example((0b01, 0b10))  # two closed classes
    @example((0b01, 0b01))  # a transient state into a loop
    @example(tuple(1 << _CYCLES_4_5.index(j) for j in range(9)))  # cycles of 4 and 5
    def test_overlap_walk_reaches_k0_exactly_for_one_aperiodic_closed_class(self, masks):
        # the SIA criterion (Wolfowitz 1963), read on the support digraph
        k0 = nonneg._power_walk(masks, 10**6, nonneg._masks_overlap)[0]
        assert (k0 is not None) == _one_aperiodic_closed_class(masks)

    def test_cycle_stops_at_the_first_repeat(self, monkeypatch):
        # the powers of a 20-cycle are 20 distinct permutations, then P^21 = P
        cycle = SignPattern([[j == (i + 1) % 20 for j in range(20)] for i in range(20)])
        calls = []
        product = nonneg.pattern_product

        def counted(p, q):
            calls.append(1)
            if len(calls) > 25:
                raise AssertionError("the walk did not stop at the repeated power")
            return product(p, q)

        monkeypatch.setattr(nonneg, "pattern_product", counted)
        assert first_positive_power(cycle, 10**6) is None
        assert len(calls) <= 20
        calls.clear()
        report = pattern_report_dict(cycle, 10**6)
        assert len(calls) <= 20
        assert len(report["powers"]) == 21
        assert report["powers"][-1]["rows"] == report["powers"][0]["rows"]
        assert report["first_positive_power"] is None

    def test_tail_into_a_cycle_lists_up_to_its_first_repeat(self):
        p = SignPattern(support.TAIL_CYCLE_ROWS)
        report = pattern_report_dict(p, 100000)
        assert len(report["powers"]) == 13
        assert report["powers"][12]["rows"] == report["powers"][2]["rows"]
        assert report["first_positive_power"] is None
        assert first_positive_power(p, 100000) is None


class TestPairwiseOverlap:
    def test_worked_examples(self):
        assert pairwise_positive_overlap(K_PATTERN)
        assert not pairwise_positive_overlap(M_PATTERN)
        assert pairwise_positive_overlap(SignPattern(["++", "++"]))

    def test_zero_column_fails(self):
        assert not pairwise_positive_overlap(SignPattern(["+0", "+0"]))


class TestStrictVariationTest:
    def test_worked_instances(self):
        assert strict_variation_test(K_INSTANCE)
        assert strict_variation_test(L_INSTANCE)
        assert not strict_variation_test(M_INSTANCE)

    def test_triangular_instance_converges_to_first_basis_vector(self):
        # var K < 1 already at the first power, despite K never becoming
        # positive; the fixed vector is the first standard basis vector
        from stovar import analyze, Vector

        result = analyze(K_INSTANCE)
        assert result.contraction_power == 1
        assert result.stationary == Vector([1, 0, 0])

    def test_permutation_matrix_has_full_variation(self):
        assert not strict_variation_test(Matrix([[0, 1], [1, 0]]))

    def test_positive_markov_matrix(self):
        m = Matrix([[F(1, 2), F(1, 4)], [F(1, 2), F(3, 4)]])
        assert strict_variation_test(m)

    def test_float_entries_within_the_tolerance_are_decided_by_the_variation(self):
        # var = 1 - 1.8e-9, below 1 by more than the tolerance, while the
        # pattern counts 0.9e-9 as zero and shows two disjoint columns
        small = 0.9e-9
        m = Matrix([[1 - small, small], [small, 1 - small]])
        assert not pairwise_positive_overlap(sign_pattern(m))
        assert strict_variation_test(m)

    def test_rational_input_is_decided_by_the_pattern_alone(self, monkeypatch):
        def refused(a):
            raise AssertionError("a rational matrix needs no variation")

        monkeypatch.setattr(nonneg, "variation", refused)
        assert strict_variation_test(K_INSTANCE)
        assert not strict_variation_test(M_INSTANCE)

    def test_rejects_untyped(self):
        with pytest.raises(NotTypedError):
            strict_variation_test(Matrix([[1, 0], [0, 2]]))

    def test_rejects_non_positive_type(self):
        with pytest.raises(NonPositiveTypeError):
            strict_variation_test(Matrix([[0, 0], [0, 0]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(NegativeEntryError):
            strict_variation_test(Matrix([[2, -1], [-1, 2]]))

    @given(st.integers(2, 4), st.integers(2, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_pattern_route_equals_direct_comparison(self, m, n, data):
        import random

        seed = data.draw(st.integers(0, 10**9))
        rng = random.Random(seed)
        t = F(rng.randint(1, 4), rng.randint(1, 3))
        a = support.rand_nonneg_typed(rng, m, n, t)
        assert strict_variation_test(a) == (variation(a).value < t)


class TestVariationTypeBound:
    def test_random_nonneg_typed(self):
        import random

        rng = random.Random(5)
        for _ in range(50):
            a = support.rand_nonneg_typed(rng, 3, 4, F(rng.randint(1, 3)))
            assert variation_type_bound_check(a)

    def test_equality_case(self):
        assert variation_type_bound_check(M_INSTANCE)
        assert variation(M_INSTANCE).value == 1

    def test_identical_columns(self):
        col = [F(1, 3), F(2, 3)]
        m = Matrix([[col[0]] * 3, [col[1]] * 3])
        assert variation_type_bound_check(m)
        assert variation(m).value == 0


class TestCriterion3x3:
    def test_worked_instance_converges(self):
        assert criterion_3x3(M_INSTANCE)
        assert variation(mat_pow(M_INSTANCE, 3)).value == F(1, 2)

    def test_cyclic_permutation_fails(self):
        cyc = Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert not criterion_3x3(cyc)
        assert mat_pow(cyc, 3) == Matrix.identity(3)

    def test_identity_fails(self):
        assert not criterion_3x3(Matrix.identity(3))

    def test_preconditions(self):
        with pytest.raises(DimensionError):
            criterion_3x3(Matrix.identity(2))
        with pytest.raises(NegativeEntryError):
            criterion_3x3(Matrix([[2, 0, 0], [-1, 1, 0], [0, 0, 1]]))
        with pytest.raises(NotTypeOneError):
            criterion_3x3(Matrix([[1] * 3] * 3))
