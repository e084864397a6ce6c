"""Tests for contraction search, stationary vectors, bounds, and the 2x2 taxonomy."""

import random
import re
import threading
from fractions import Fraction
from math import fsum, gcd, inf, lcm, log2, nextafter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import support
from support import EX_E, EX_LIMIT, EX_M, EX_M_SQUARED, basis_vector
from stovar import (
    DEFAULT_TOLERANCE,
    Case2x2,
    ConvergenceAnalysis,
    Domain,
    DomainMismatchError,
    Matrix,
    NonUniqueFixedVectorError,
    NotSquareError,
    NotTypeOneError,
    NotTypedError,
    VariationReport,
    Vector,
    Verdict,
    VsumNotOneError,
    analyze,
    classify_2x2,
    decay_bound,
    determinant,
    find_contraction_power,
    first_positive_power,
    iterate_error_bound,
    l1_norm,
    limit_projection,
    mat_mul,
    mat_pow,
    mat_vec,
    matrix_2x2,
    set_tolerance,
    sign_pattern,
    stationary_vector,
    type_eigenvalue_certificate,
    variation,
    vsum,
)
from stovar import analysis, cli, core, nonneg
from stovar.analysis import _float_solve, _variation_scan
from stovar.core import scalars_close, scalars_equal, strictly_less, tolerance

F = Fraction


class TestFindContractionPower:
    def test_worked_example(self):
        assert find_contraction_power(EX_M, p_max=10) == (2, F(18, 25))

    def test_identity_never_contracts(self):
        assert find_contraction_power(Matrix.identity(3), p_max=10) is None

    def test_uniform_matrix_contracts_immediately(self):
        m = Matrix([[F(1, 3)] * 3] * 3)
        assert find_contraction_power(m, p_max=10) == (1, F(0))

    def test_rejects_wrong_type(self):
        with pytest.raises(NotTypeOneError):
            find_contraction_power(Matrix([[1, 0], [0, 2]]))
        with pytest.raises(NotTypeOneError):
            find_contraction_power(Matrix([[2, 0], [1, 3]]))

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            find_contraction_power(Matrix([[1, 1]]))

    def test_float_guard_band_near_one(self):
        # variation exactly 1.0 must stay inconclusive in the float domain
        assert find_contraction_power(Matrix.identity(2).to_float(), p_max=5) is None


# ---------------------------------------------------------------------------
# the repeat-aware scan against a scan that forms every power


def _naive_scan(m, p_max):
    """Variations of M^1..M^p up to the first below one, forming every power."""
    one = F(1) if m.domain is Domain.RATIONAL else 1.0
    first = variation(m)
    history = [first.value]
    power = m
    while not strictly_less(history[-1], one, m.domain):
        if len(history) == p_max:
            return None, history, first
        power = mat_mul(power, m)
        history.append(variation(power).value)
    return len(history), history, first


@st.composite
def _recurring_matrices(draw, domain):
    """Type-1 matrices whose powers often recur exactly, n = 1..7.

    Permutations return to M; block-diagonal rank-one projections are
    idempotent; a 0/1 matrix with one 1 per column (a map of the states)
    enters a cycle after a tail; a periodic chain alternates between two
    classes of states; a random signed matrix rarely recurs.
    """
    kind = draw(st.sampled_from(["permutation", "idempotent", "map", "periodic", "signed"]))
    n = draw(st.integers(2 if kind == "periodic" else 1, 7))
    states = range(n)
    if kind == "signed":
        entries = st.fractions(min_value=-2, max_value=2, max_denominator=4)
        body = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n - 1)]
        rows = body + [[1 - sum(col) for col in zip(*body)] if body else [F(1)]]
        if domain is Domain.FLOAT:
            rows = [[float(v) for v in row] for row in rows]
        return Matrix(rows, domain=domain)
    weights = [[0] * n for _ in states]
    if kind == "permutation":
        for j, i in enumerate(draw(st.permutations(states))):
            weights[i][j] = 1
    elif kind == "map":
        for j in states:
            weights[draw(st.integers(0, n - 1))][j] = 1
    elif kind == "idempotent":
        block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        mass = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        for i in states:
            for j in states:
                if block[i] == block[j]:
                    weights[i][j] = mass[i]
    else:
        split = draw(st.integers(1, n - 1))
        for i in states:
            for j in states:
                if (i < split) != (j < split):
                    weights[i][j] = draw(st.integers(1, 3))
    totals = [sum(col) for col in zip(*weights)]
    if domain is Domain.RATIONAL:
        return Matrix([[F(w, t) for w, t in zip(row, totals)] for row in weights])
    return Matrix([[w / t for w, t in zip(row, totals)] for row in weights], domain=domain)


def _naive_powers(m, count):
    """M^1..M^count, each formed from the one before."""
    powers = [m]
    while len(powers) < count:
        powers.append(mat_mul(powers[-1], m))
    return powers


def _first_disjoint_pair(m):
    """The first 1-based pair of columns of M with no row where both are nonzero, or None."""
    cols = [[v != 0 for v in col] for col in zip(*m.row_lists())]
    return next(
        (
            (j + 1, k + 1)
            for j, cj in enumerate(cols)
            for k, ck in enumerate(cols[j + 1 :], j + 1)
            if not any(a and b for a, b in zip(cj, ck))
        ),
        None,
    )


@st.composite
def _random_support_markov(
    draw, lazy_sizes=st.integers(4, 12), sizes=st.integers(1, 8), densities=(0.0, 0.1, 0.25, 0.5)
):
    """Rational Markov matrices on random supports, n = 1..8, or lazy paths.

    Weights 1..9 sit on a random mask plus the diagonal, over their column
    sums.  A lazy path (n = 4..12) puts them on the diagonal and both
    neighbours, so its columns 1 and n first overlap at power n // 2.
    """
    lazy = draw(st.booleans())
    n = draw(lazy_sizes if lazy else sizes)
    if lazy:
        mask = [[abs(i - j) <= 1 for j in range(n)] for i in range(n)]
    else:
        density = draw(st.sampled_from(densities))
        mask = [
            [i == j or draw(st.floats(0, 1)) < density for j in range(n)] for i in range(n)
        ]
    weights = [[draw(st.integers(1, 9)) if cell else 0 for cell in row] for row in mask]
    totals = [sum(col) for col in zip(*weights)]
    return lazy, Matrix([[F(w, t) for w, t in zip(row, totals)] for row in weights])


# n = 6..16: a lazy path has k0 = n // 2 >= 3, and a sparse random support
# often has k0 above 2, or none
_late_overlap_markov = _random_support_markov(
    st.integers(6, 16), st.integers(6, 16), (0.05, 0.1, 0.2)
).map(lambda drawn: drawn[1])


def _lazy_path(n):
    """The lazy path on n states: columns 1 and n first share a row at power n // 2."""
    weight = {0: F(1, 2), 1: F(1, 4)}
    rows = [[weight.get(abs(i - j), F(0)) for j in range(n)] for i in range(n)]
    rows[0][0] = rows[n - 1][n - 1] = F(3, 4)
    return Matrix(rows)


def _signed_twin(rows, low):
    """P + x 1^T, where x is -1/4 at row ``low``, +1/4 at the next row, 0 elsewhere.

    x sums to zero, so M^k = P^k + s_k 1^T with s_k = (I + P + ... + P^(k-1)) x:
    every column of a power moves by the same vector, the variations are
    those of P, and M^k recurs exactly when P^k and s_k do.
    """
    x = [F(0)] * len(rows)
    x[low], x[low + 1] = F(-1, 4), F(1, 4)
    return Matrix([[v + x[i] for v in row] for i, row in enumerate(rows)])


def _assert_float_scan_near_naive_scan(m, p_max):
    """The float scan of M against the naive scan: the same p and first report.

    A signed M is scanned power by power, so every variation matches bit
    for bit.  A non-negative M is walked: each power M^k before the first
    whose columns overlap pairwise, M^k0, reads exactly 1.0, M itself
    included, and from k0 on the scan squares its way up, so a variation
    may differ from the naive one in the last bits, within the tolerance.
    A non-negative M with two disjoint columns (so a zero in every row)
    reports var(M) = 1.0 with the first disjoint pair, where the naive
    scan sums 1.0 up to rounding, perhaps at a later pair.
    """
    p, history, first = _variation_scan(m, p_max)
    want_p, want_history, want_first = _naive_scan(m, p_max)
    assert p == want_p
    if min(m.entries) < 0:
        assert first == want_first
        assert list(map(repr, history)) == list(map(repr, want_history))
        return
    pair = _first_disjoint_pair(m)
    assert first == (VariationReport(1.0, *pair) if pair else want_first)
    assert len(history) == len(want_history)
    powers = _naive_powers(m, len(history))
    k0 = next((k for k, power in enumerate(powers, 1) if not _first_disjoint_pair(power)), None)
    for k, (got, want) in enumerate(zip(history, want_history), start=1):
        if k0 is None or k < k0:
            # variation exactly 1, reported as such and not as the rounded sum
            assert repr(got) == "1.0"
            assert scalars_close(want, 1.0)
        else:
            assert abs(got - want) <= tolerance()


class TestVariationScanMatchesNaiveScan:
    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.FLOAT], ids=lambda d: d.value)
    @given(data=st.data(), p_max=st.integers(1, 70))
    @settings(max_examples=120, deadline=None)
    def test_same_power_history_and_first_report(self, domain, data, p_max):
        m = data.draw(_recurring_matrices(domain))
        if domain is Domain.FLOAT:
            _assert_float_scan_near_naive_scan(m, p_max)
            return
        p, history, first = _variation_scan(m, p_max)
        want_p, want_history, want_first = _naive_scan(m, p_max)
        assert (p, first) == (want_p, want_first)
        assert list(map(repr, history)) == list(map(repr, want_history))

    def test_float_squaring_may_round_apart_from_the_naive_scan(self):
        # a non-negative "signed" draw with k0 = 3: var(M^3) reads 0.8125 from
        # the squared M^2, and 0.8124999999999999 from M^2 M
        rows = [[1, F(3, 4), 0, 0], [0, 0, 0, F(3, 4)], [0, 0, F(2, 3), F(1, 4)], [0, F(1, 4), F(1, 3), 0]]
        _assert_float_scan_near_naive_scan(Matrix([[float(v) for v in row] for row in rows]), 70)

    @given(_random_support_markov(), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_random_supports_match_the_naive_scan_exactly(self, drawn, p_max):
        lazy, m = drawn
        p, history, first = _variation_scan(m, p_max)
        assert (p, history, first) == _naive_scan(m, p_max)
        if lazy and p_max >= m.rows // 2:
            assert p == m.rows // 2
        with mock.patch.object(analysis, "_variation_scan", _naive_scan):
            want = analyze(m, p_max)
        assert analyze(m, p_max) == want

    @given(_late_overlap_markov, st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_squaring_to_the_first_overlapping_power_matches_the_naive_scan(self, m, p_max):
        p, history, first = _variation_scan(m, p_max)
        want_p, want_history, want_first = _naive_scan(m, p_max)
        assert (p, first) == (want_p, want_first)
        assert list(map(repr, history)) == list(map(repr, want_history))

    @given(_late_overlap_markov.map(Matrix.to_float), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_float_squaring_to_the_first_overlapping_power_stays_near_the_naive_scan(
        self, m, p_max
    ):
        _assert_float_scan_near_naive_scan(m, p_max)

    @given(_random_support_markov(), st.data(), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_shifted_markov_matrices_match_the_naive_scan_exactly(self, drawn, data, p_max):
        # M = L + x 1^T with x summing to zero: the scan walks L's support when
        # M's row minima sum to zero, and its first pair must be variation's
        _, markov = drawn
        n = markov.rows
        shifts = st.fractions(min_value=-2, max_value=2, max_denominator=8)
        x = data.draw(st.lists(shifts, min_size=n - 1, max_size=n - 1))
        x.append(-sum(x))
        m = Matrix([[v + x[i] for v in row] for i, row in enumerate(markov.row_lists())])
        p, history, first = _variation_scan(m, p_max)
        want_p, want_history, want_first = _naive_scan(m, p_max)
        assert (p, first) == (want_p, want_first)
        assert list(map(repr, history)) == list(map(repr, want_history))

    def test_signed_lazy_path_squares_its_way_to_the_first_overlapping_power(self, monkeypatch):
        # the signed twin's Markov part is the lazy path: var(M) = 1 from the
        # masks, M^30 by 7 products and var(M^30) its only sum: not 29
        # products and 30 variations, as a power-by-power scan needs
        calls = self._count_calls(
            monkeypatch, {"_step": "step", "variation": "variation", "_variation_of": "variation_of"}
        )
        m = _signed_twin(_lazy_path(60).row_lists(), 0)
        p, history, first = _variation_scan(m, 64)
        assert calls == {"step": 7, "variation": 0, "variation_of": 1}
        assert p == 30
        assert history == [1] * 29 + [variation(mat_pow(m, 30)).value]
        assert first == variation(m)

    def test_positive_markov_matrix_contracts_at_its_first_variation(self, monkeypatch):
        # every row minimum is positive, so var(M) < 1 and nothing is walked
        rows = [[F(1, 2), F(1, 3), F(1, 4)], [F(1, 4), F(1, 3), F(1, 2)], [F(1, 4), F(1, 3), F(1, 4)]]
        calls = self._count_calls(monkeypatch)
        p, history, first = _variation_scan(Matrix(rows), 64)
        assert calls == {"mat_mul": 0, "variation": 1}
        assert (p, history, first) == (1, [F(1, 4)], variation(Matrix(rows)))

    @pytest.mark.parametrize(
        "domain, want_p", [(Domain.RATIONAL, 30), (Domain.FLOAT, 50)], ids=["rational", "float"]
    )
    def test_lazy_path_squares_its_way_to_the_first_overlapping_power(
        self, monkeypatch, domain, want_p
    ):
        # k0 = 30: M^2, M^4, M^8, M^16 and three more products, not 29; a
        # float var(M^30) is within the tolerance of 1, and the scan steps on
        calls = self._count_calls(monkeypatch, {"_step": "step"})
        m = _lazy_path(60)
        m = m if domain is Domain.RATIONAL else m.to_float()
        p, history, first = _variation_scan(m, 64)
        assert calls["step"] <= 2 * log2(30) + (p - 30)
        assert p == want_p and len(history) == want_p
        assert history[1:29] == [1] * 28 and history[-1] < 1
        assert scalars_equal(history[-1], variation(mat_pow(m, p)).value, domain)

    # every power is formed by the step and measured by _variation_of, in
    # either domain; M itself is measured by variation
    _COUNTED = {
        "mat_mul": "mat_mul",
        "_step": "mat_mul",
        "variation": "variation",
        "_variation_of": "variation",
    }

    @staticmethod
    def _count_calls(monkeypatch, counted=_COUNTED):
        calls = dict.fromkeys(counted.values(), 0)

        def counting(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        for attr, name in counted.items():
            monkeypatch.setattr(analysis, attr, counting(name, getattr(analysis, attr)))
        return calls

    @given(
        st.one_of(
            _recurring_matrices(Domain.RATIONAL),
            _random_support_markov().map(lambda drawn: drawn[1]),
        ),
        st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_rational_powers_are_integer_numerators_in_lowest_terms(self, m, p_max):
        # each step multiplies two powers, M^a M^b = M^(a+b); a factor that
        # no step returned is M itself (states keeps every result alive)
        step = analysis._step
        exponents = {}
        states = []

        def recording(left, right, n):
            k = exponents.get(id(left), 1) + exponents.get(id(right), 1)
            state = step(left, right, n)
            exponents[id(state)] = k
            states.append((k, state))
            return state

        with mock.patch.object(analysis, "_step", recording):
            _variation_scan(m, p_max)
        powers = _naive_powers(m, max((k for k, _ in states), default=1))
        for k, (numerators, d) in states:
            assert (numerators, d) == core._over_lcm(powers[k - 1].entries)
            assert gcd(d, *numerators) == 1

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.FLOAT], ids=lambda d: d.value)
    def test_every_power_is_formed_by_the_step(self, monkeypatch, domain):
        # float M^2 .. M^13 = M^3 are formed as forms, never as matrices; the
        # rational twin's row minima sum to zero, so the support walk forms none
        m = Matrix(_signed_twin(support.TAIL_CYCLE_ROWS, 0).row_lists(), domain=domain)
        calls = self._count_calls(monkeypatch, {"mat_mul": "mat_mul", "_step": "step"})
        _variation_scan(m, 2000)
        assert calls == {"mat_mul": 0, "step": 12 if domain is Domain.FLOAT else 0}

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.FLOAT], ids=lambda d: d.value)
    def test_permutation_cycle_forms_one_product_per_step(self, monkeypatch, domain):
        n = 24
        rows = [[F(int(i == (j + 1) % n)) for j in range(n)] for i in range(n)]
        calls = self._count_calls(monkeypatch)
        p, history, first = _variation_scan(Matrix(rows), 100000)
        # rational and non-negative: the support walk shows every power has
        # disjoint columns, and the masks give var(M) = 1 with no sums
        assert calls == {"mat_mul": 0, "variation": 0}
        assert (p, len(history), first.value) == (None, 100000, 1)
        assert all(v == 1 for v in history)
        # the signed twin has the same variations; the rational one is walked
        # on its Markov part, the permutation.  M^25 = M ends the float numeric
        # scan (its entries 0, 1 and ±1/4 are exact floats), which needs M's
        # own form and a computed power to compare equal
        calls.update(mat_mul=0, variation=0)
        twin = Matrix(_signed_twin(rows, 0).row_lists(), domain=domain)
        p, history, first = _variation_scan(twin, 100000)
        assert p is None
        products = 24 if domain is Domain.FLOAT else 0
        assert calls == {"mat_mul": products, "variation": products}
        assert len(history) == 100000
        assert all(v == 1 for v in history)
        assert first.value == 1

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.FLOAT], ids=lambda d: d.value)
    def test_late_cycle_of_eight_is_found_at_its_first_repeat(self, monkeypatch, domain):
        # states 0..7 form a cycle and 8 -> 9 -> 10 -> 0 is a tail, so
        # M^11 = M^3 is the first repeat and M is never repeated; for the
        # signed twin too, since s_11 - s_3 sums x over a whole turn of the cycle
        step = [(j + 1) % 8 for j in range(8)] + [9, 10, 0]
        rows = [[F(int(step[j] == i)) for j in range(11)] for i in range(11)]
        calls = self._count_calls(monkeypatch)
        p, history, _ = _variation_scan(Matrix(rows, domain=domain), 64)
        # var(M) = 1 is read from the masks in either domain
        assert calls == {"mat_mul": 0, "variation": 0}
        assert (p, history) == (None, [1] * 64)
        calls.update(mat_mul=0, variation=0)
        twin = _signed_twin(rows, 2)
        p, history, _ = _variation_scan(Matrix(twin.row_lists(), domain=domain), 64)
        assert p is None
        # the rational twin is walked on its Markov part, the map itself
        products = 10 if domain is Domain.FLOAT else 0
        assert calls == {"mat_mul": products, "variation": products}
        assert history == [1] * 64

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.FLOAT], ids=lambda d: d.value)
    def test_signed_tail_into_a_long_cycle_stops_at_its_first_repeat(self, monkeypatch, domain):
        # M^13 = M^3 lies 10 powers back, beyond a window of recent powers
        m = Matrix(_signed_twin(support.TAIL_CYCLE_ROWS, 0).row_lists(), domain=domain)
        calls = self._count_calls(monkeypatch)
        got = _variation_scan(m, 2000)
        assert calls["mat_mul"] <= 12
        assert got[:2] == (None, [1] * 2000)
        assert got == _naive_scan(m, 2000)

    @given(
        st.lists(st.integers(0, 11), min_size=2, max_size=12),
        st.integers(0, 10),
        st.integers(1, 60),
    )
    @example(support.TAIL_CYCLE_STEP, 0, 60)
    @settings(max_examples=100, deadline=None)
    def test_signed_maps_stop_at_their_first_repeated_power(self, step, low, p_max):
        # the twin of the map j -> step[j] % n; exact powers repeat first at M^b
        n = len(step)
        m = _signed_twin([[int(s % n == i) for s in step] for i in range(n)], low % (n - 1))
        want = _naive_scan(m, p_max)
        powers = [power.entries for power in _naive_powers(m, len(want[1]))]
        b = next((k for k in range(2, len(powers) + 1) if powers[k - 1] in powers[: k - 1]), inf)
        with pytest.MonkeyPatch.context() as patch:
            calls = self._count_calls(patch)
            got = _variation_scan(m, p_max)
        assert got == want
        if sum(map(min, m.row_lists())):
            assert calls["mat_mul"] == min(len(want[1]), b) - 1
        else:
            # the support walk of the map: M^p alone, by squaring, or no product
            k = want[0]
            assert calls["mat_mul"] == (k.bit_length() + k.bit_count() - 2 if k else 0)

    @given(st.data(), st.integers(1, 60))
    @settings(max_examples=150, deadline=None)
    def test_signed_conjugate_maps_stop_at_their_first_repeated_power(self, data, p_max):
        # M = S Q S^-1 with Q the map j -> step[j] and S = I + (e_a - e_b) e_c^T,
        # a, b and c distinct: S^-1 = I - (e_a - e_b) e_c^T and 1^T S = 1^T, so
        # M is type 1, and M^k = S Q^k S^-1 repeats exactly when Q^k does.
        # Row minima summing below zero keep M off the support walk
        n = data.draw(st.integers(3, 8))
        step = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        a, b, c = data.draw(st.permutations(range(n)))[:3]

        def shear(sign):
            return Matrix(
                [[int(i == j) + sign * ((i == a) - (i == b)) * (j == c) for j in range(n)] for i in range(n)]
            )

        q = Matrix([[int(s == i) for s in step] for i in range(n)])
        m = mat_mul(mat_mul(shear(1), q), shear(-1))
        assume(sum(map(min, m.row_lists())) < 0)
        want = _naive_scan(m, p_max)
        powers = [power.entries for power in _naive_powers(m, len(want[1]))]
        repeat = next((k for k in range(2, len(powers) + 1) if powers[k - 1] in powers[: k - 1]), inf)
        with pytest.MonkeyPatch.context() as patch:
            calls = self._count_calls(patch)
            got = _variation_scan(m, p_max)
        assert got == want
        assert calls["mat_mul"] == min(len(want[1]), repeat) - 1

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.FLOAT], ids=lambda d: d.value)
    def test_repeat_copies_each_variation_of_the_cycle_in_turn(self, monkeypatch, domain):
        # S Q S^-1, with Q the map 0 -> 1 -> 2 -> 0, 3 -> 0, 4 -> 3 and
        # S = I + (e_0 - e_4) e_1^T: M^5 = M^2, and the cycle's variations differ
        rows = [
            [1, -1, 1, 1, 0],
            [1, -1, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 1, 0, 0, 1],
            [-1, 1, 0, 0, 0],
        ]
        m = Matrix(rows, domain=domain)
        calls = self._count_calls(monkeypatch)
        got = _variation_scan(m, 50)
        assert calls["mat_mul"] == 4
        assert got[1][:8] == [4, 2, 3, 4, 2, 3, 4, 2]
        assert got == _naive_scan(m, 50)

    def test_float_rounding_cycle_is_caught_at_a_checkpoint(self, monkeypatch):
        # the exact powers never repeat; the computed ones enter a 2-cycle
        # at M^53, which no power up to M^3 can show but M^64 does
        rows = [[-0.25, 0.75, 0.25], [1.0, 0.0, 0.0], [0.25, 0.25, 0.75]]
        m = Matrix(rows, domain=Domain.FLOAT)
        calls = self._count_calls(monkeypatch)
        got = _variation_scan(m, 100000)
        assert calls["mat_mul"] <= 65
        assert got == _naive_scan(m, 100000)

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.FLOAT], ids=lambda d: d.value)
    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
            [
                [F(1, 2), F(1, 2), 0, 0],
                [F(1, 2), F(1, 2), 0, 0],
                [0, 0, F(3, 10), F(7, 10)],
                [0, 0, F(7, 10), F(3, 10)],
            ],
            [
                [0, 0, F(1, 3), F(1, 2)],
                [0, 0, F(2, 3), F(1, 2)],
                [F(1, 4), 1, 0, 0],
                [F(3, 4), 0, 0, 0],
            ],
        ],
        ids=["permutation", "block-diagonal", "periodic"],
    )
    def test_nonnegative_inputs_without_overlap_form_no_product(self, monkeypatch, domain, rows):
        m = Matrix(rows, domain=domain)
        calls = self._count_calls(monkeypatch)
        p, history, _ = _variation_scan(m, 64)
        # var(M) = 1 is read from the masks in either domain
        assert calls == {"mat_mul": 0, "variation": 0}
        assert (p, history) == (None, [1] * 64)
        assert all(type(v) is type(history[0]) for v in history)

    def test_walk_stops_at_the_first_overlapping_power(self, monkeypatch):
        # a lazy path on 9 states: columns 1 and 9 first share a row at power 4
        m = _lazy_path(9)
        calls = self._count_calls(monkeypatch)
        p, history, _ = _variation_scan(m, 64)
        assert p == 4
        # M^2, then M^4 by squaring; var(M) = 1 is read from the masks
        assert calls == {"mat_mul": 2, "variation": 1}
        assert history[1:3] == [1, 1] and history[3] < 1
        assert _naive_scan(m, 64)[1] == history

    def test_float_tolerance_edge_with_disjoint_columns_stays_inconclusive(self):
        # summed, var(M) = 0.99999999865 clears the guard band, and the solve
        # finds no unique E; the masks give var(M) = 1, and the diagonal repeats
        m = support.reference_csv_matrix(support.TOLERANCE_EDGE_CSV)
        assert _variation_scan(m, 8) == (None, [1.0] * 8, VariationReport(1.0, 1, 2))
        assert find_contraction_power(m) is None
        assert analyze(m).verdict is Verdict.NO_CONTRACTION_FOUND

    def test_float_variation_one_is_read_from_the_masks_not_summed(self):
        # variation still sums every pair: 1.0000000000000002 at columns
        # (1, 5) where sum() adds left to right (up to Python 3.11)
        m = support.reference_csv_matrix(support.BLOCK_ROUNDED_CSV)
        best, pair = support.lexicographic_widest(m.entries, m.cols)
        assert variation(m) == VariationReport(best / 2, *pair)
        result = analyze(m)
        assert result.first_variation == VariationReport(1.0, 1, 3)
        assert repr(result.variation_per_power[0]) == "1.0"

    @given(_random_support_markov(), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_float_twin_reads_variation_one_at_the_rational_first_pair(self, drawn, p_max):
        # two disjoint columns give var(M) = 1 at the first such pair in both
        # domains; without them, the float var(M) is summed, and a tie between
        # pairs may round to another pair than the rational one
        m = drawn[1]
        want = _variation_scan(m, p_max)[2]
        first = _variation_scan(m.to_float(), p_max)[2]
        if want.value == 1:
            assert (repr(first.value), first[1:]) == ("1.0", want[1:])
        else:
            assert first == variation(m.to_float())

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.FLOAT], ids=lambda d: d.value)
    def test_tail_into_a_long_cycle_stops_at_its_first_repeat(self, monkeypatch, domain):
        # P^13 = P^3 lies 10 powers back: the walk stops there, not at p_max
        products = []
        product = nonneg._mask_product

        def counted(left, right):
            products.append(1)
            if len(products) > 50:
                raise AssertionError("the support walk did not stop at the repeated pattern")
            return product(left, right)

        monkeypatch.setattr(nonneg, "_mask_product", counted)
        calls = self._count_calls(monkeypatch)
        result = analyze(Matrix(support.TAIL_CYCLE_ROWS, domain=domain), 100000)
        assert result.verdict is Verdict.NO_CONTRACTION_FOUND
        assert len(result.variation_per_power) == 100000
        assert all(v == 1 for v in result.variation_per_power)
        assert calls["mat_mul"] == 0
        assert len(products) <= 12


class TestStationaryVector:
    def test_worked_example(self):
        assert stationary_vector(EX_M) == EX_E

    def test_two_by_two_against_power_iteration(self):
        m = matrix_2x2(0.3, 0.2)
        e = stationary_vector(m)
        iterated = support.power_iterate(m, basis_vector(2, 0, Domain.FLOAT), 200)
        assert max(abs(u - v) for u, v in zip(e, iterated)) < 1e-9
        assert max(abs(u - v) for u, v in zip(e, (0.4, 0.6))) < 1e-9

    def test_uniform_matrix(self):
        n = 5
        m = Matrix([[F(1, n)] * n] * n)
        assert stationary_vector(m) == Vector([F(1, n)] * n)

    def test_identity_has_no_unique_fixed_vector(self):
        with pytest.raises(NonUniqueFixedVectorError):
            stationary_vector(Matrix.identity(3))

    _FIXED = [
        (EX_M, EX_E),
        (Matrix([[F(1, 2), F(1, 4)], [F(1, 2), F(3, 4)]]), Vector([F(1, 3), F(2, 3)])),
        (support.L_INSTANCE, Vector([F(1, 3)] * 3)),
    ]

    @pytest.mark.parametrize("m, e", _FIXED)
    def test_rational_solve_is_its_own_fixed_point_check(self, m, e):
        # the exact solve meets M E = E and sum(E) = 1 with no check after it
        with mock.patch.object(analysis, "_fixed_vector", side_effect=AssertionError):
            found = stationary_vector(m)
        assert found == e
        assert mat_vec(m, found) == found
        assert vsum(found) == 1

    def test_float_fixed_point_check_is_within_the_tolerance(self):
        m = Matrix([[0.5, 0.25], [0.5, 0.75]])
        values = [1 / 3, 2 / 3]
        assert analysis._fixed_vector(m, values) == Vector(values)
        for shift in (1e-7, -1e-7):
            # the entry sum stays one; M E misses E by 0.75e-7 in each entry
            assert analysis._fixed_vector(m, [values[0] + shift, values[1] - shift]) is None
        # M (2E) = 2E, but the entry sum is 2
        assert analysis._fixed_vector(m, [2 * v for v in values]) is None

    def test_float_fixed_point_check_rejects_an_overflowing_image(self):
        # type 1, and the first entry of M E is 2e308 - 1e308, past the float range
        with pytest.raises(DomainMismatchError, match="non-finite entry"):
            analysis._fixed_vector(Matrix([[2.0, 1.0], [-1.0, 0.0]]), [1e308, -1e308])

    def test_defective_eigenvalue_one(self):
        # type 1, eigenvalue 1 of algebraic multiplicity 2, kernel sums to zero
        with pytest.raises(NonUniqueFixedVectorError):
            stationary_vector(Matrix([[2, 1], [-1, 0]]))

    def test_agrees_with_independent_kernel_oracle(self):
        for m in (EX_M, Matrix([[F(1, 2), F(1, 4)], [F(1, 2), F(3, 4)]])):
            oracle = support.kernel_fixed_vector(m)
            assert oracle is not None
            assert stationary_vector(m) == oracle

    def test_large_identity_fails_with_one_solve(self):
        with pytest.raises(NonUniqueFixedVectorError):
            stationary_vector(Matrix.identity(30))

    def test_solution_outside_the_tolerance_fails_the_fixed_point_check(self):
        # exact column sums 1 + 2**-55 and 1 - 2**-54: the float type check
        # passes, but at this tolerance the solved E is not fixed by M
        set_tolerance(1e-300)
        with pytest.raises(NonUniqueFixedVectorError) as info:
            analyze(Matrix([[0.1, 0.3], [0.9, 0.7]]))
        assert str(info.value) == "solved system's result is not a fixed vector of the matrix"


def _relative_gap(x, y):
    """|x - y| over max(1, |x|, |y|): scalars_close holds for any tolerance from about here up."""
    return abs(x - y) / max(1.0, abs(x), abs(y))


def _set_tolerance_near(data, gaps):
    """Set a random tolerance, or one at a drawn gap or one ulp either side of it."""
    tol = data.draw(st.floats(1e-12, 1.0))
    gaps = [g for g in gaps if g > 0]
    if gaps and data.draw(st.booleans()):
        gap = data.draw(st.sampled_from(gaps))
        tol = nextafter(gap, data.draw(st.sampled_from([0.0, gap, inf]))) or gap
    set_tolerance(tol)


class TestToleranceRule:
    """The whole-sequence checks apply scalars_close's rule entry by entry."""

    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    @settings(max_examples=400, deadline=None)
    def test_float_type_check_agrees_with_a_per_column_loop(self, rows, cols, data):
        s0 = data.draw(st.floats(-50.0, 50.0))  # |s| > 1 included
        cells = [[data.draw(st.floats(-2.0, 2.0)) for _ in range(cols)] for _ in range(rows - 1)]
        shifts = [data.draw(st.sampled_from([0.0, 1e-9, -1e-9, 1e-3])) for _ in range(cols)]
        # the last row brings each column sum near s0, and a one-row matrix's sums are s0 + shift
        last = [
            s0 + shift * max(1.0, abs(s0)) - sum(row[j] for row in cells)
            for j, shift in enumerate(shifts)
        ]
        m = Matrix(cells + [last])
        sums = [sum(m.entries[j :: cols]) for j in range(cols)]
        _set_tolerance_near(data, [_relative_gap(s, sums[0]) for s in sums])
        assert core.type_of(m).has_type == all(scalars_close(s, sums[0]) for s in sums)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=400, deadline=None)
    def test_float_fixed_point_check_agrees_with_a_per_entry_loop(self, n, data):
        entries = st.floats(-2.0, 2.0)
        m = Matrix([[data.draw(entries) for _ in range(n)] for _ in range(n)])
        values = [data.draw(entries) for _ in range(n)]
        if data.draw(st.booleans()):  # near a fixed point: E of a Markov M
            set_tolerance(DEFAULT_TOLERANCE)
            m = Matrix([[abs(v) + 0.5 for v in row] for row in m.row_lists()])
            m = Matrix([[v / s for v, s in zip(row, m.col_sums())] for row in m.row_lists()])
            values = list(stationary_vector(m))
        image = list(mat_vec(m, Vector(values)))
        total = vsum(Vector(values))
        gaps = [_relative_gap(y, x) for y, x in zip(image, values)] + [_relative_gap(total, 1.0)]
        _set_tolerance_near(data, gaps)
        fixed = all(scalars_close(y, x) for y, x in zip(image, values)) and scalars_close(total, 1.0)
        assert (analysis._fixed_vector(m, values) is not None) == fixed


def _row_list_solve(m):
    """E from ``_naive_solve`` on the ``Fraction`` rows of M - I with the last row all ones."""
    n = m.rows
    rows = m.row_lists()
    for i in range(n - 1):
        rows[i][i] -= 1
    rows[-1] = [F(1)] * n
    return _naive_solve(rows, [F(0)] * (n - 1) + [F(1)], Domain.RATIONAL)


_NO_UNIQUE_E = (
    "no unique fixed vector with entry sum one (eigenvalue 1 appears with multiplicity two or more)"
)


class TestIntegerFormSolve:
    """The rational E solved from the integer form against naive elimination of its Fraction rows."""

    def _check(self, m):
        want = _row_list_solve(m)
        if want is None:
            with pytest.raises(NonUniqueFixedVectorError) as info:
                analysis._solved_stationary(m)
            assert str(info.value) == _NO_UNIQUE_E
        else:
            assert analysis._solved_stationary(m).entries == tuple(want)

    @given(st.integers(2, 6).flatmap(lambda n: support.typed_matrices(n, n, n, n, type_value=F(1))))
    @settings(max_examples=150, deadline=None)
    def test_signed_type_one_matrices(self, drawn):
        self._check(drawn[0])

    @pytest.mark.parametrize("seed", range(20))
    def test_nonnegative_type_one_matrices(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        self._check(support.rand_nonneg_typed(rng, n, n, F(1)))

    def test_a_singular_matrix_raises_the_same_error_on_both_paths(self):
        # two closed classes, {1} and {2, 3}: every mix of their fixed vectors is fixed
        m = Matrix([[1, 0, 0], [0, F(1, 2), F(1, 3)], [0, F(1, 2), F(2, 3)]])
        assert _row_list_solve(m) is None
        for matrix in (m, m.to_float()):
            with pytest.raises(NonUniqueFixedVectorError) as info:
                analysis._solved_stationary(matrix)
            assert str(info.value) == _NO_UNIQUE_E


# ---------------------------------------------------------------------------
# the elimination kernel against naive Gaussian elimination


def _naive_solve(rows, rhs, domain):
    """Gaussian elimination in plain scalar arithmetic; None when singular.

    Rationals pivot on the first nonzero entry; floats on the largest
    magnitude above the tolerance guard band, updating entry by entry.
    """
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    limit = 0.0
    if domain is Domain.FLOAT:
        limit = tolerance() * max(1.0, max(abs(v) for row in rows for v in row))
    for col in range(n):
        pivot_row = None
        if domain is Domain.RATIONAL:
            for r in range(col, n):
                if aug[r][col] != 0:
                    pivot_row = r
                    break
        else:
            best = limit
            for r in range(col, n):
                if abs(aug[r][col]) > best:
                    best, pivot_row = abs(aug[r][col]), r
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        for r in range(col + 1, n):
            if aug[r][col] == 0:
                continue
            factor = aug[r][col] / aug[col][col]
            for c in range(col + 1, n + 1):
                aug[r][c] = aug[r][c] - factor * aug[col][c]
    solution = [None] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n]
        for j in range(i + 1, n):
            acc = acc - aug[i][j] * solution[j]
        solution[i] = acc / aug[i][i]
    return solution


def _integer_rows(rows):
    """Fraction rows times the lcm of their denominators, as int rows."""
    d = lcm(*(v.denominator for row in rows for v in row))
    return [[int(v * d) for v in row] for row in rows]


def _rational_solve(rows, rhs):
    """``_integer_solve`` on the integer form of the augmented system, each column over its gcd."""
    aug = _integer_rows([list(row) + [b] for row, b in zip(rows, rhs)])
    return analysis._integer_solve(*analysis._over_column_gcds(aug))


_SYSTEM_ENTRIES = {
    Domain.RATIONAL: st.one_of(
        st.sampled_from([F(0), F(1)]),
        st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
    ),
    Domain.FLOAT: st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
}


@st.composite
def _type_one_systems(draw, domain):
    """A square system built from a signed type-1 matrix M, n = 1..8.

    ``stationary`` is the system stationary_vector solves (M - I with its
    last row replaced by ones), ``matrix`` is M itself with a drawn
    right-hand side, ``shifted`` is M - I (always singular: its rows sum
    to zero) and ``repeated`` copies a row of M over another.  With
    ``zero_lead`` the first entry of the system is zero, so the first
    column needs a row swap.
    """
    one = F(1) if domain is Domain.RATIONAL else 1.0
    entries = _SYSTEM_ENTRIES[domain]
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["stationary", "matrix", "shifted", "repeated"]))
    body = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n - 1)]
    if n > 1 and draw(st.booleans()):  # zero_lead
        body[0][0] = one if kind in ("stationary", "shifted") else 0 * one
    m = body + [[one - sum(col) for col in zip(*body)] if body else [one]]
    shifted = [[v - one if i == j else v for j, v in enumerate(row)] for i, row in enumerate(m)]
    rhs = draw(st.lists(entries, min_size=n, max_size=n))
    if kind == "stationary":
        return shifted[:-1] + [[one] * n], [0 * one] * (n - 1) + [one]
    if kind == "shifted":
        return shifted, rhs
    if kind == "repeated" and n > 1:
        m[-1] = list(m[0])
    return m, rhs


class TestSolveSquareMatchesNaiveElimination:
    @given(_type_one_systems(Domain.RATIONAL))
    # a column gcd need not divide the common denominator: x = 2/3, not 1
    @example(([[F(1)]], [F(2, 3)]))
    @settings(max_examples=150, deadline=None)
    def test_rational_solution_is_exact(self, system):
        rows, rhs = system
        got = _rational_solve(rows, rhs)
        assert got == _naive_solve(rows, rhs, Domain.RATIONAL)

    @given(_type_one_systems(Domain.FLOAT))
    @settings(max_examples=150, deadline=None)
    def test_float_solution_is_bit_identical(self, system):
        rows, rhs = system
        got = _float_solve([list(r) for r in rows], list(rhs))
        want = _naive_solve(rows, rhs, Domain.FLOAT)
        if want is None:
            assert got is None
        else:
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_row_swap_and_singular_systems(self):
        rows = [[F(0), F(1, 3)], [F(2, 7), F(-1)]]
        assert _rational_solve(rows, [F(1), F(2)]) == [F(35, 2), F(3)]
        singular = [[F(1, 2), F(1, 3)], [F(3, 2), F(1)]]
        assert _rational_solve(singular, [F(1), F(0)]) is None


class TestLimitProjection:
    def test_worked_example(self):
        assert limit_projection(EX_E) == EX_LIMIT

    def test_small_outer_product(self):
        assert limit_projection(Vector([1, 0])) == Matrix([[1, 1], [0, 0]])

    def test_projection_scales_by_entry_sum(self):
        p = limit_projection(EX_E)
        assert mat_vec(p, Vector([2, 3, 4])) == Vector([9 * v for v in EX_E])

    def test_is_idempotent(self):
        p = limit_projection(EX_E)
        assert mat_mul(p, p) == p

    def test_rejects_wrong_entry_sum(self):
        with pytest.raises(VsumNotOneError):
            limit_projection(Vector([1, 1]))


class TestDecayBound:
    def test_worked_example_power_four(self):
        bound = decay_bound(F(6, 5), F(18, 25), 2, 4)
        assert bound == F(324, 625)
        assert variation(mat_pow(EX_M, 4)).value <= bound

    def test_k_equal_p(self):
        assert decay_bound(F(6, 5), F(18, 25), 2, 2) == F(18, 25)

    def test_k_below_p(self):
        assert decay_bound(F(6, 5), F(18, 25), 3, 2) == F(36, 25)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            decay_bound(F(6, 5), F(18, 25), 0, 4)
        with pytest.raises(ValueError):
            decay_bound(F(6, 5), F(18, 25), 2, 0)
        with pytest.raises(ValueError):
            decay_bound(F(6, 5), F(6, 5), 2, 4)


class TestIterateErrorBound:
    def test_fixed_point_gives_zero(self):
        assert iterate_error_bound(EX_M, 3, EX_E, EX_E) == (0, 0)

    def test_first_basis_vector_power_two(self):
        e1 = basis_vector(3, 0)
        actual, bound = iterate_error_bound(EX_M, 2, e1, EX_E)
        assert actual == l1_norm(mat_vec(EX_M_SQUARED, e1) - EX_E)
        assert bound == F(18, 25) * l1_norm(e1 - EX_E)
        assert actual <= bound

    def test_second_basis_vector_power_one(self):
        e2 = basis_vector(3, 1)
        actual, bound = iterate_error_bound(EX_M, 1, e2, EX_E)
        assert bound == F(6, 5) * l1_norm(e2 - EX_E)
        assert actual <= bound

    def test_rejects_bad_entry_sums(self):
        with pytest.raises(VsumNotOneError):
            iterate_error_bound(EX_M, 1, Vector([1, 1, 0]), EX_E)

    def test_holds_along_the_whole_orbit(self):
        power = EX_M
        for k in range(1, 31):
            var_k = variation(power).value
            for j in range(3):
                ej = basis_vector(3, j)
                actual = l1_norm(mat_vec(power, ej) - EX_E)
                assert actual <= var_k * l1_norm(ej - EX_E)
            power = mat_mul(power, EX_M)


class TestDecayEnvelope:
    def test_whole_orbit_stays_under_certified_bounds(self):
        starts = [l1_norm(basis_vector(3, j) - EX_E) for j in range(3)]
        power = EX_M
        for k in range(1, 201):
            bound = decay_bound(F(6, 5), F(18, 25), 2, k)
            for j in range(3):
                assert l1_norm(power.column(j) - EX_E) <= bound * starts[j]
            power = mat_mul(power, EX_M)

    def test_envelope_decays_geometrically_along_multiples_of_p(self):
        bounds = [decay_bound(F(6, 5), F(18, 25), 2, 2 * q) for q in range(1, 8)]
        assert all(b2 == b1 * F(18, 25) for b1, b2 in zip(bounds, bounds[1:]))


class TestStationaryUniqueness:
    def test_random_contractive_matrices_have_unique_fixed_vector(self):
        import random

        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(2, 5)
            m = support.rand_contractive_type1(rng, n)
            assert variation(m).value < 1
            e = stationary_vector(m)
            assert mat_vec(m, e) == e
            assert vsum(e) == 1
            oracle = support.kernel_fixed_vector(m)
            assert oracle == e


class TestAnalyze:
    def test_worked_example(self):
        result = analyze(EX_M)
        assert result.verdict is Verdict.CONVERGES
        assert result.contraction_power == 2
        assert result.variation_at_p == F(18, 25)
        assert result.variation_per_power == (F(6, 5), F(18, 25))
        assert result.stationary == EX_E
        assert result.projection == EX_LIMIT
        assert result.decay_bound_at(50) == F(18, 25) ** 25

    def test_projection_commutes_with_matrix(self):
        result = analyze(EX_M)
        p = result.projection
        assert mat_mul(EX_M, p) == p
        assert mat_mul(p, EX_M) == p
        assert mat_mul(p, p) == p

    def test_identity_is_inconclusive(self):
        result = analyze(Matrix.identity(2), p_max=12)
        assert result.verdict is Verdict.NO_CONTRACTION_FOUND
        assert result.contraction_power is None
        assert len(result.variation_per_power) == 12
        assert result.stationary is None and result.projection is None
        with pytest.raises(ValueError):
            result.decay_bound_at(3)

    def test_zero_trace_direction_is_inconclusive(self):
        # a = 1/2, b = -1/2: variation of every power is exactly one
        result = analyze(matrix_2x2(F(1, 2), F(-1, 2)), p_max=16)
        assert result.verdict is Verdict.NO_CONTRACTION_FOUND
        assert all(v == 1 for v in result.variation_per_power)

    def test_solved_report_checks_the_type_once(self, monkeypatch):
        calls = []
        type_of = core.type_of

        def counting(m):
            calls.append(m)
            return type_of(m)

        monkeypatch.setattr(core, "type_of", counting)
        result = analyze(EX_M)
        assert result.stationary == EX_E
        assert len(calls) == 1
        # the public solve still checks its own input
        assert stationary_vector(EX_M) == EX_E
        assert len(calls) == 2

    def test_preconditions(self):
        with pytest.raises(NotSquareError):
            analyze(Matrix([[1, 2, 3], [4, 5, 6]]))
        with pytest.raises(NotTypeOneError):
            analyze(Matrix([[1, 0], [0, 2]]))

    def test_float_domain_end_to_end(self):
        result = analyze(matrix_2x2(0.3, 0.2))
        assert result.verdict is Verdict.CONVERGES
        assert result.contraction_power == 1
        assert abs(result.variation_at_p - 0.5) < 1e-12
        assert max(abs(u - v) for u, v in zip(result.stationary, (0.4, 0.6))) < 1e-9

    def test_each_thread_analyzes_under_its_own_tolerance(self):
        # var(M) = 1 - 1e-6: clear of one at 1e-9, within the tolerance at 1e-3
        m = Matrix([[1 - 5e-7, 5e-7], [5e-7, 1 - 5e-7]], domain=Domain.FLOAT)
        barrier = threading.Barrier(2, timeout=60)
        powers = {}

        def run(tol):
            # each thread sets its own: only some builds start a thread
            # from a copy of its starter's context
            set_tolerance(tol)
            barrier.wait()
            powers[tol] = analyze(m).contraction_power

        threads = [threading.Thread(target=run, args=(tol,)) for tol in (1e-9, 1e-3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert powers == {1e-9: 1, 1e-3: None}
        assert tolerance() == DEFAULT_TOLERANCE

    def test_decay_bound_table_honors_k_report(self):
        result = analyze(EX_M, k_report=10)
        ks = [k for k, _ in result.decay_bounds]
        assert ks == [1, 2, 3, 4, 5, 10]
        assert all(
            bound == decay_bound(F(6, 5), F(18, 25), 2, k)
            for k, bound in result.decay_bounds
        )


class TestAnalysisRecord:
    """The record stores what analyze found; the rest is derived on access."""

    def test_stores_only_the_facts(self):
        assert list(ConvergenceAnalysis._fields) == [
            "p_max",
            "k_report",
            "contraction_power",
            "variation_per_power",
            "first_variation",
            "type_report",
            "stationary",
        ]
        result = analyze(EX_M)
        for name in ("verdict", "converged", "variation_at_p", "projection", "decay_bounds"):
            with pytest.raises(AttributeError):
                setattr(result, name, None)

    def test_report_takes_k_report_from_the_record(self):
        report = cli.analysis_report(EX_M, analyze(EX_M, k_report=5))
        assert report["parameters"]["k_report"] == 5
        assert report["decay_bounds"][-1]["k"] == 5

    @pytest.mark.parametrize("m", [EX_M, EX_M.to_float(), matrix_2x2(0.3, 0.2)], ids=str)
    def test_decay_table_is_decay_bound_at(self, m):
        result = analyze(m)
        assert result.converged and result.decay_bounds
        assert result.decay_bounds == tuple(
            (k, result.decay_bound_at(k)) for k, _ in result.decay_bounds
        )

    def test_inconclusive_record_derives_nothing(self):
        result = analyze(Matrix.identity(3), p_max=5)
        assert result.verdict is Verdict.NO_CONTRACTION_FOUND
        assert result.variation_at_p is None
        assert result.projection is None
        assert result.decay_bounds == ()

    def test_projection_is_not_checked_again_under_a_new_tolerance(self):
        # E passed its check when analyze found it; its float entry sum is not exactly 1
        result = analyze(_dense_markov(7, 1))
        assert vsum(result.stationary) != 1.0
        before = result.projection
        set_tolerance(1e-300)
        assert result.projection == before


# ---------------------------------------------------------------------------
# the float stationary vector iterated under the contraction's stopping rule


@st.composite
def _converging_float_matrices(draw):
    """Float type-1 matrices u J + t D, n <= 12, mostly converging.

    Markov: u and the columns of u + D are dense positive weights over
    their sums; small t mixes fast enough for the iteration to finish
    within its budget of n products.  Signed: u_2..u_n are drawn from
    -3..6 and u_1 makes the entry sum one, and D is of type zero with
    variation one, so var(M) = t.
    """
    n = draw(st.integers(1, 12))
    t = F(draw(st.sampled_from([0, 1, 10, 50, 100, 300, 600, 900, 1000])), 1000)

    def integers(low, high, size):
        return draw(st.lists(st.integers(low, high), min_size=size, max_size=size))

    if draw(st.booleans()):
        u = integers(1, 9, n)
        u = [F(v, sum(u)) for v in u]
        weights = [integers(1, 9, n) for _ in range(n)]
        sums = [sum(row[j] for row in weights) for j in range(n)]
        entries = [
            [(1 - t) * u[i] + t * F(weights[i][j], sums[j]) for j in range(n)]
            for i in range(n)
        ]
    else:
        rest = integers(-3, 6, n - 1)
        u = [1 - sum(rest)] + rest
        d = [integers(-9, 9, n) for _ in range(n - 1)]
        d.append([-sum(row[j] for row in d) for j in range(n)])
        spread = variation(Matrix(d)).value
        scale = t / spread if spread else 0
        entries = [[u[i] + scale * d[i][j] for j in range(n)] for i in range(n)]
    return Matrix([[float(v) for v in row] for row in entries], domain=Domain.FLOAT)


def _biased_lazy_path(n):
    """Float lazy walk on a path: stay 1/2, right 1/3, left 1/6, reflecting ends."""
    rows = [[0.0] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = 0.5
        for i, weight in ((j + 1, 1 / 3), (j - 1, 1 / 6)):
            rows[i if 0 <= i < n else j][j] += weight
    return Matrix(rows, domain=Domain.FLOAT)


def _dense_markov(n, seed):
    import random

    rng = random.Random(seed)
    weights = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
    sums = [sum(row[j] for row in weights) for j in range(n)]
    return Matrix([[row[j] / sums[j] for j in range(n)] for row in weights], domain=Domain.FLOAT)


def _l1_distance(u, v):
    return sum(abs(a - b) for a, b in zip(u, v))


class TestIteratedFloatStationary:
    @given(_converging_float_matrices())
    @settings(max_examples=150, deadline=None)
    def test_fixed_point_close_to_the_solve(self, m):
        result = analyze(m)
        assume(result.converged)
        e = result.stationary
        solved = stationary_vector(m)
        assert all(scalars_equal(u, v, Domain.FLOAT) for u, v in zip(mat_vec(m, e), e))
        assert scalars_equal(vsum(e), 1.0, Domain.FLOAT)
        assert _l1_distance(e, solved) <= 1e-12
        if min(m.entries) < 0:  # signed: rounding grows with |M| |E|, so E is solved
            assert e == solved

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_dense_markov_takes_the_iteration(self, monkeypatch, n):
        m = _dense_markov(n, seed=n)
        solved = stationary_vector(m)

        def no_solve(_m):
            raise AssertionError("analyze solved instead of iterating")

        monkeypatch.setattr(analysis, "_solved_stationary", no_solve)
        e = analyze(m).stationary
        assert _l1_distance(e, solved) <= n * 2.0**-52

    def test_worked_example_in_floats(self):
        result = analyze(EX_M.to_float())
        assert result.contraction_power == 2
        assert _l1_distance(result.stationary, (-2, 1 / 3, 8 / 3)) <= 1e-12

    @staticmethod
    def _count_products(monkeypatch, n):
        """Products formed by the iteration, read off its n differences per product."""
        differences = 0

        def counting_sub(a, b):
            nonlocal differences
            differences += 1
            return a - b

        monkeypatch.setattr(analysis, "sub", counting_sub)
        return lambda: differences / n

    @staticmethod
    def _lazy_toward(u, stay):
        """stay * I + (1 - stay) * u J: var = stay, steps shrink by stay exactly."""
        n = len(u)
        rows = [[stay * (i == j) + (1 - stay) * u[i] for j in range(n)] for i in range(n)]
        return Matrix(rows, domain=Domain.FLOAT)

    def test_stops_at_the_first_product_whose_bound_meets_the_target(self, monkeypatch):
        # the step after product k is 0.5**k * 0.7, and the bound is twice
        # the step: 0.7 * 2**(1 - k) <= 64 * 2**-52 first at k = 47
        n = 64
        u = [1 / n] * n
        u[0] += 0.35
        u[1] -= 0.35
        m = self._lazy_toward(u, 0.5)
        products = self._count_products(monkeypatch, n)
        e = analysis._iterated_stationary(m, 0.5)
        assert products() == 47
        assert _l1_distance(e, u) <= n * 2.0**-52

    def test_slow_geometric_steps_give_up_after_two_products(self, monkeypatch):
        # steps shrink by 0.9: reaching 16 * 2**-52 would take over 300 products
        n = 16
        m = self._lazy_toward([(i + 1) / 136 for i in range(n)], 0.9)
        products = self._count_products(monkeypatch, n)
        assert analysis._iterated_stationary(m, 0.9) is None
        assert products() == 2
        assert analyze(m).stationary == stationary_vector(m)

    def test_steps_stalled_by_rounding_stop_the_iteration(self, monkeypatch):
        # M = E J + N with N^2 = 0 and N E = 0: the first product lands on E
        # in exact arithmetic, so later steps are rounding noise, far above
        # the target since var(M) = 0.997; either the noise meets the target
        # at once or the iteration gives up, so it may not run on to n products
        n = 32
        e = [1e-4] * n
        e[0] = e[1] = (1 - (n - 2) * 1e-4) / 2
        rows = [
            [e[i] + e[1] * ((i == 0) - (i == 1)) * ((j == 2) - (j == 3)) for j in range(n)]
            for i in range(n)
        ]
        m = Matrix(rows, domain=Domain.FLOAT)
        assert abs(variation(m).value - 0.997) < 1e-12
        products = self._count_products(monkeypatch, n)
        stationary = analyze(m).stationary
        assert products() <= 3
        assert _l1_distance(stationary, e) <= n * 2.0**-52

    def test_contraction_power_above_one_solves(self, monkeypatch):
        n = 16
        m = _biased_lazy_path(n)
        p, history, _ = _variation_scan(m, 64)
        assert p == 8 and history[-1] > 0.99
        products = self._count_products(monkeypatch, n)
        assert analyze(m).stationary == stationary_vector(m)
        assert products() == 0

    def test_signed_matrix_solves(self, monkeypatch):
        # var(M) = 0.4, so a Markov matrix would take the iteration
        m = Matrix([[0.6, 0.8, 0.6], [-0.2, 0.0, 0.0], [0.6, 0.2, 0.4]], domain=Domain.FLOAT)
        assert analyze(m).contraction_power == 1
        products = self._count_products(monkeypatch, 3)
        assert analyze(m).stationary == stationary_vector(m)
        assert products() == 0

    def test_one_by_one(self):
        m = Matrix([[1.0]])
        assert analysis._iterated_stationary(m, 0.0) == Vector([1.0])
        assert analyze(m).stationary == Vector([1.0])

    def test_one_by_one_gives_up_after_its_one_product(self):
        # for n >= 2 the extrapolation check gives up at k = n at the latest,
        # so only n = 1 leaves the loop: its one step, 1e-12, misses the target
        m = Matrix([[1 + 1e-12]])
        assert analysis._iterated_stationary(m, 0.0) is None
        assert analyze(m).stationary == Vector([1.0])

    def test_rank_one_matrix(self):
        e = (0.2, 0.3, 0.5)
        m = Matrix([[v] * 3 for v in e], domain=Domain.FLOAT)
        result = analyze(m)
        assert (result.contraction_power, result.variation_at_p) == (1, 0.0)
        iterated = analysis._iterated_stationary(m, 0.0)
        assert iterated is not None
        assert _l1_distance(iterated, e) <= 3 * 2.0**-52
        assert result.stationary == iterated

    @pytest.mark.parametrize(
        "m",
        [EX_M, support.K_INSTANCE, support.L_INSTANCE, support.M_INSTANCE],
        ids=["worked", "K", "L", "M"],
    )
    def test_rational_stationary_is_the_solve(self, m):
        result = analyze(m)
        assert result.converged
        assert result.stationary == stationary_vector(m)


# type 0, forced by the all-zero middle column, over denominators 2 to 35;
# that column's gcd is 0, which the integer elimination reads as 1
_ZERO_COLUMN_ROWS = [
    [F(1, 2), F(0), F(2, 5)],
    [F(-1, 3), F(0), F(1, 7)],
    [F(-1, 6), F(0), F(-19, 35)],
]


class TestTypeEigenvalueCertificate:
    def test_worked_example(self):
        assert type_eigenvalue_certificate(EX_M) == 1

    def test_type_three(self):
        assert type_eigenvalue_certificate(Matrix([[2, 0], [1, 3]])) == 3

    def test_zero_matrix(self):
        assert type_eigenvalue_certificate(Matrix([[0] * 4] * 4)) == 0

    def test_rejects_untyped(self):
        with pytest.raises(NotTypedError):
            type_eigenvalue_certificate(Matrix([[1, 0], [0, 2]]))

    def test_zero_column_and_mixed_denominators(self):
        m = Matrix(_ZERO_COLUMN_ROWS)
        assert type_eigenvalue_certificate(m) == 0
        # type 2/3: the middle column of N - S_0 I is zero
        assert type_eigenvalue_certificate(m + Matrix.identity(3).scale(F(2, 3))) == F(2, 3)

    def test_no_elimination_runs(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the type check alone certifies the eigenvalue")

        monkeypatch.setattr(analysis, "_bareiss_eliminate", fail)
        monkeypatch.setattr(analysis, "_over_column_gcds", fail)
        m = Matrix(_ZERO_COLUMN_ROWS)
        assert type_eigenvalue_certificate(EX_M) == 1
        assert type_eigenvalue_certificate(m) == 0
        assert type_eigenvalue_certificate(m + Matrix.identity(3).scale(F(2, 3))) == F(2, 3)
        assert type_eigenvalue_certificate(_markov_with_wide_denominators(20, seed=7)) == 1
        assert type_eigenvalue_certificate(Matrix([[0.25, 1.0], [0.5, -0.25]])) == 0.75

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_certificate_matches_determinant(self, n, data):
        m, t = data.draw(
            support.typed_matrices(min_rows=n, max_rows=n, min_cols=n, max_cols=n)
        )
        assert determinant(m - Matrix.identity(n).scale(t)) == 0
        assert type_eigenvalue_certificate(m) == t


def _naive_determinant(rows):
    """Fraction Gaussian elimination with first-nonzero pivots."""
    work = [list(row) for row in rows]
    n = len(work)
    det = F(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] / work[col][col]
            for c in range(col, n):
                work[r][c] -= factor * work[col][c]
    return det


@st.composite
def _determinant_matrices(draw):
    """Square rational matrices, n = 1..8, often singular or needing row swaps.

    Entries are 0, +-1 or fractions with denominators up to 10**6;
    ``repeated`` copies a row and ``combined`` adds a multiple of one row
    to another (both singular), and ``zero_lead`` zeroes the top of the
    first column.
    """
    entries = st.one_of(
        st.sampled_from([F(0), F(1), F(-1)]),
        st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
    )
    n = draw(st.integers(1, 8))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(["plain", "repeated", "combined", "zero_lead"]))
    if n > 1 and kind == "repeated":
        rows[-1] = list(rows[0])
    elif n > 1 and kind == "combined":
        a, b = draw(entries), draw(entries)
        rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1])]
    elif kind == "zero_lead":
        for row in rows[: draw(st.integers(1, n))]:
            row[0] = F(0)
    return rows


class TestDeterminant:
    @given(_determinant_matrices())
    @example(_ZERO_COLUMN_ROWS)
    @settings(max_examples=100, deadline=None)
    def test_rational_matches_naive_elimination(self, rows):
        assert determinant(Matrix(rows)) == _naive_determinant(rows)

    def test_row_swaps_flip_the_sign(self):
        assert determinant(Matrix([[0, 1], [1, 0]])) == -1
        assert determinant(Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 1
        assert determinant(Matrix([[0, F(1, 3)], [F(2, 7), 5]])) == F(-2, 21)
        assert determinant(Matrix([[0, 1], [0, F(1, 2)]])) == 0

    def test_worked_eigenvalues(self):
        identity = Matrix.identity(3)
        for eig in (F(1), F(2, 5), F(1, 5)):
            assert determinant(EX_M - identity.scale(eig)) == 0
        assert determinant(EX_M - identity.scale(F(1, 2))) != 0

    @given(st.lists(support.small_fractions, min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_two_by_two_formula(self, entries):
        a, b, c, d = entries
        assert determinant(Matrix([[a, b], [c, d]])) == a * d - b * c


# ---------------------------------------------------------------------------
# the echelon kernels against the elimination loops they replaced


def _reference_rank(rows):
    """Exact row rank by entry-by-entry forward elimination, skipping pivotless columns."""
    work = [list(row) for row in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    rank = 0
    pivot_row = 0
    for col in range(n):
        if pivot_row >= m:
            break
        chosen = None
        for r in range(pivot_row, m):
            if work[r][col] != 0:
                chosen = r
                break
        if chosen is None:
            continue
        work[pivot_row], work[chosen] = work[chosen], work[pivot_row]
        pivot = work[pivot_row][col]
        for r in range(pivot_row + 1, m):
            if work[r][col] == 0:
                continue
            factor = work[r][col] / pivot
            for c in range(col, n):
                work[r][c] = work[r][c] - factor * work[pivot_row][c]
        pivot_row += 1
        rank += 1
    return rank


def _bareiss_rank(rows):
    """Exact row rank of Fraction rows: the ``_bareiss_eliminate`` pivot count of their int rows."""
    return analysis._bareiss_eliminate(_integer_rows(rows), len(rows[0]))[1]


def _reference_float_determinant(rows):
    """Float determinant by partial pivoting, multiplying in each pivot as found."""
    work = [list(row) for row in rows]
    n = len(work)
    det = 1.0
    for col in range(n):
        pivot_row = None
        best = 0.0
        for r in range(col, n):
            magnitude = abs(work[r][col])
            if magnitude > best:
                best = magnitude
                pivot_row = r
        if pivot_row is None:
            return 0.0
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            if work[r][col] == 0:
                continue
            factor = work[r][col] / pivot
            for c in range(col, n):
                work[r][c] = work[r][c] - factor * work[col][c]
    return det


_ECHELON_ENTRIES = {
    Domain.RATIONAL: _SYSTEM_ENTRIES[Domain.RATIONAL],
    # entries at and around the guard band, and a huge one that widens it
    Domain.FLOAT: st.one_of(
        _SYSTEM_ENTRIES[Domain.FLOAT], st.sampled_from([1e-12, -1e-9, 1e-7, 1e6])
    ),
}


@st.composite
def _echelon_matrices(draw, domain, square=False):
    """Matrices of 1..8 rows by 1..8 columns, often rank-deficient.

    ``repeated`` copies the first row over the last, ``combined`` makes
    the last row a combination of the first two, and some columns may be
    zeroed, so elimination finds columns without a pivot.
    """
    entries = _ECHELON_ENTRIES[domain]
    m = draw(st.integers(1, 8))
    n = m if square else draw(st.integers(1, 8))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    kind = draw(st.sampled_from(["plain", "repeated", "combined"]))
    if m > 1 and kind == "repeated":
        rows[-1] = list(rows[0])
    elif m > 2 and kind == "combined":
        a, b = draw(entries), draw(entries)
        rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1])]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[j] = 0 * row[j]
    return rows


def _with_type_row(body, t):
    """The rows of body plus a last row that makes every column sum t."""
    return body + [[t - sum(col) for col in zip(*body)] if body else [t]]


@st.composite
def _float_typed_rows(draw):
    """Float rows of type t, n = 1..7, entries and t in [-100, 100]."""
    n = draw(st.integers(1, 7))
    entries = st.floats(min_value=-100, max_value=100, allow_nan=False)
    body = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n - 1)]
    return _with_type_row(body, draw(entries))


# a type tiny beside the entries, where a float rank of M - cI came out full
_TINY_TYPE_ROWS = _with_type_row(
    [[0.0, 16.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 3.0], [0.0] * 5, [0.0] * 5],
    -2.9433908980963544e-07,
)


class TestEchelonKernels:
    @given(_echelon_matrices(Domain.RATIONAL))
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_reference_elimination(self, rows):
        snapshot = [list(row) for row in rows]
        assert _bareiss_rank(rows) == _reference_rank(snapshot)
        assert rows == snapshot

    def test_rank_skips_columns_without_a_pivot(self):
        rows = [[F(0), F(1), F(2)], [F(0), F(2), F(4)], [F(0), F(0), F(3)]]
        assert _bareiss_rank(rows) == 2

    @given(_echelon_matrices(Domain.FLOAT, square=True))
    @settings(max_examples=200, deadline=None)
    def test_float_determinant_is_bit_identical(self, rows):
        got = determinant(Matrix(rows, domain=Domain.FLOAT))
        assert got.hex() == _reference_float_determinant(rows).hex()

    @given(_float_typed_rows())
    @example(_TINY_TYPE_ROWS)
    @settings(max_examples=150, deadline=None)
    def test_certificate_on_float_typed_matrices(self, rows):
        m = Matrix(rows, domain=Domain.FLOAT)
        c = type_eigenvalue_certificate(m)
        assert c == m.col_sums()[0]
        # 1^T (M - cI) vanishes within the tolerance, summed apart from the type check
        shifted = [[v - c if i == j else v for j, v in enumerate(row)] for i, row in enumerate(rows)]
        assert all(scalars_close(fsum(col), 0.0) for col in zip(*shifted))


# ---------------------------------------------------------------------------
# the packed Bareiss kernel against the entry-by-entry loop it replaced


def _entrywise_bareiss(aug, ncols):
    """Bareiss row echelon form of the first ncols columns, in place, one entry at a time."""
    sign, rank, previous = 1, 0, 1
    for k in range(ncols):
        pivot_row = next((r for r in range(rank, len(aug)) if aug[r][k]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
            sign = -sign
        pivot = aug[rank][k]
        tail = aug[rank][k + 1 :]
        for row in aug[rank + 1 :]:
            factor = row[k]
            row[k + 1 :] = [
                (pivot * a - factor * p) // previous for a, p in zip(row[k + 1 :], tail)
            ]
        previous = pivot
        rank += 1
    return sign, rank


def _pivot_columns(eliminate, rows, ncols):
    """The columns k < ncols where the rank of the first k + 1 columns exceeds that of the first k."""
    ranks = [eliminate([list(row) for row in rows], k)[1] for k in range(ncols + 1)]
    return [k for k in range(ncols) if ranks[k + 1] > ranks[k]]


def _assert_same_echelon(rows, ncols):
    """The packed kernel and the entry-by-entry loop agree on (sign, rank), pivots and pivot rows."""
    packed, entrywise = [list(row) for row in rows], [list(row) for row in rows]
    assert analysis._bareiss_eliminate(packed, ncols) == _entrywise_bareiss(entrywise, ncols)
    pivots = _pivot_columns(analysis._bareiss_eliminate, rows, ncols)
    assert pivots == _pivot_columns(_entrywise_bareiss, rows, ncols)
    for i, k in enumerate(pivots):
        assert packed[i][k:] == entrywise[i][k:]


_WIDE_INTEGERS = st.builds(
    lambda sign, v: sign * v, st.sampled_from([1, -1]), st.integers(2**64, 2**120)
)


@st.composite
def _integer_systems(draw):
    """Integer rows, 1..9 of them with up to two more columns, and ncols up to the width.

    Entries are 0, +-1, small ints, or +-2**64 to 2**120, so that slots
    pass one machine word and hold negative values; a system may get a
    zero column, a repeated row and a row combined from two others.
    """
    entries = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-9, 9), _WIDE_INTEGERS)
    height = draw(st.integers(1, 9))
    width = height + draw(st.integers(0, 2))
    rows = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(height)]
    if draw(st.booleans()):
        j = draw(st.integers(0, width - 1))
        for row in rows:
            row[j] = 0
    if height > 1 and draw(st.booleans()):
        rows[draw(st.integers(0, height - 1))] = list(rows[draw(st.integers(0, height - 1))])
    if height > 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1])]
    return rows, draw(st.integers(0, width))


def _sylvester_hadamard(order):
    """The Sylvester-Hadamard matrix of a power-of-two order: [[H, H], [H, -H]] from [[1]]."""
    rows = [[1]]
    while len(rows) < order:
        rows = [row + row for row in rows] + [row + [-v for v in row] for row in rows]
    return rows


def _markov_with_wide_denominators(n, seed):
    """A dense rational Markov matrix whose columns are 60-bit weights over their sum."""
    rng = random.Random(seed)
    columns = []
    for _ in range(n):
        weights = [rng.randrange(1, 2**60) for _ in range(n)]
        total = sum(weights)
        columns.append([F(w, total) for w in weights])
    return Matrix([list(row) for row in zip(*columns)])


class TestPackedBareiss:
    @given(_integer_systems())
    @example(([[0, 0], [0, 0]], 2))
    @example(([[0, 1, 2], [3, 4, 5], [6, 7, 8]], 3))
    @example(([[2**120, -(2**64)], [-(2**120) + 1, 2**64 + 7]], 2))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_entrywise_loop(self, system):
        _assert_same_echelon(*system)

    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16])
    def test_sylvester_hadamard_meets_the_bound(self, order):
        # every row 2-norm is sqrt(order), so |det| reaches Hadamard's bound order**(order / 2)
        rows = _sylvester_hadamard(order)
        negated = [[-v for v in row] for row in rows]
        det = determinant(Matrix(rows))
        assert abs(det) == order ** (order // 2)
        assert det == _naive_determinant([list(map(F, row)) for row in rows])
        assert determinant(Matrix(negated)) == (-1) ** order * det
        _assert_same_echelon(rows, order)
        _assert_same_echelon(negated, order)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("v", [2**64 - 2, -(2**64) + 2])
    def test_the_last_minor_fills_its_slot(self, n, v):
        # each rounded row norm is |v| + 1 = 2**64 - 1, so the bound on the
        # order-n minors has 64 n bits and |v|**n needs all of them, and a sign bit
        rows = [[v * (i == j) for j in range(n)] for i in range(n)]
        assert (abs(v) + 1) ** n < 2 ** (64 * n) <= 2 * abs(v) ** n
        assert determinant(Matrix(rows)) == v**n
        _assert_same_echelon(rows, n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_a_row_swap_at_every_pivot(self, n):
        # the reversed identity plus twos below the diagonal: every pivot
        # but the last is found one row down
        rows = [[int(i + j == n - 1) + 2 * (j < i) for j in range(n)] for i in range(n)]
        assert analysis._bareiss_eliminate([list(row) for row in rows], n) == ((-1) ** (n - 1), n)
        assert determinant(Matrix(rows)) == _naive_determinant([list(map(F, row)) for row in rows])
        _assert_same_echelon(rows, n)

    def test_wide_denominators_repack_the_solve(self):
        m = _markov_with_wide_denominators(20, seed=7)
        assert max(v.denominator.bit_length() for v in m.entries) >= 60
        with mock.patch.object(analysis, "_repack", wraps=analysis._repack) as repack:
            e = stationary_vector(m)
        assert repack.call_count >= 1
        assert mat_vec(m, e) == e and vsum(e) == 1
        assert type_eigenvalue_certificate(m) == 1


class TestClassify2x2:
    def test_convergent_case(self):
        result = classify_2x2(0.3, 0.2)
        assert result.case is Case2x2.CONVERGES_GENERIC
        assert result.c == 0.5
        assert abs(result.variation - 0.5) < 1e-12
        assert max(abs(u - v) for u, v in zip(result.stationary, (0.4, 0.6))) < 1e-12
        iterated = support.power_iterate(
            matrix_2x2(0.3, 0.2), basis_vector(2, 0, Domain.FLOAT), 200
        )
        assert max(abs(u - v) for u, v in zip(result.stationary, iterated)) < 1e-9

    def test_linear_divergence_case(self):
        a = F(1, 2)
        result = classify_2x2(a, -a)
        assert result.case is Case2x2.DIVERGES_LINEAR
        assert result.variation == 1
        assert result.stationary is None
        m = matrix_2x2(a, -a)
        for k in (1, 2, 3, 10):
            assert mat_pow(m, k) == support.linear_divergence_power(a, k)

    def test_identity_case(self):
        result = classify_2x2(0, 0)
        assert result.case is Case2x2.IDENTITY
        assert result.eigenvectors is None

    def test_divergent_generic_cases(self):
        assert classify_2x2(1.5, 1.0).case is Case2x2.DIVERGES_GENERIC
        assert classify_2x2(F(-3, 10), F(1, 10)).case is Case2x2.DIVERGES_GENERIC
        assert classify_2x2(F(3, 2), F(1, 2)).case is Case2x2.DIVERGES_GENERIC

    def test_float_guard_bands_near_boundaries(self):
        # c within tolerance of 0 counts as zero
        assert classify_2x2(0.5, -0.5 + 1e-12).case is Case2x2.DIVERGES_LINEAR
        assert classify_2x2(1e-12, 1e-13).case is Case2x2.IDENTITY
        # c within tolerance of 2 falls outside the convergent window
        assert classify_2x2(1.0, 1.0 - 1e-12).case is Case2x2.DIVERGES_GENERIC
        # rational boundaries stay exact
        assert classify_2x2(F(1), F(1)).case is Case2x2.DIVERGES_GENERIC
        assert classify_2x2(F(1), F(1) - F(1, 10**15)).case is Case2x2.CONVERGES_GENERIC

    def test_variation_matches_matrix(self):
        for a, b in ((F(1, 3), F(1, 6)), (F(-1, 2), F(1, 4)), (F(2), F(1))):
            result = classify_2x2(a, b)
            assert variation(matrix_2x2(a, b)).value == result.variation
            assert result.variation == abs(1 - result.c)

    def test_eigenvectors_are_exact(self):
        a, b = F(1, 3), F(1, 4)
        result = classify_2x2(a, b)
        m = matrix_2x2(a, b)
        fixed = Vector([b, a])
        assert mat_vec(m, fixed) == fixed
        swing = Vector([1, -1])
        assert mat_vec(m, swing) == Vector([1 - result.c, -(1 - result.c)])

    @given(
        st.fractions(min_value="1/20", max_value="9/10", max_denominator=20),
        st.fractions(min_value="1/20", max_value="9/10", max_denominator=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_full_analysis(self, a, b):
        result = classify_2x2(a, b)
        assert result.case is Case2x2.CONVERGES_GENERIC
        assert analyze(matrix_2x2(a, b)).stationary == result.stationary

    @pytest.mark.parametrize(
        "a, b",
        [("abc", 1), ("1/0", 1), ("abc", 0.5), (10**400, 0.5), (float("inf"), 0.5)],
        ids=["rational-text", "zero-denominator", "float-text", "float-overflow", "float-inf"],
    )
    def test_unreadable_weights_raise_a_domain_error(self, a, b):
        for build in (classify_2x2, matrix_2x2):
            with pytest.raises(DomainMismatchError):
                build(a, b)


_PATTERN = nonneg.SignPattern(["+0", "++"])

# each count argument, the call that takes it, and the message that refuses it
_COUNT_ARGUMENTS = [
    ("p_max", lambda v: analyze(EX_M, p_max=v), "p_max must be a positive integer"),
    ("k_report", lambda v: analyze(EX_M, k_report=v), "k_report must be a positive integer"),
    ("decay-p", lambda v: decay_bound(F(6, 5), F(18, 25), v, 4), "p must be a positive integer"),
    ("decay-k", lambda v: decay_bound(F(6, 5), F(18, 25), 2, v), "k must be a positive integer"),
    ("iterate-k", lambda v: iterate_error_bound(EX_M, v, EX_E, EX_E), "k must be a positive integer"),
    ("mat_pow", lambda v: mat_pow(EX_M, v), "exponent must be a non-negative integer"),
    ("pattern_power", lambda v: nonneg.pattern_power(_PATTERN, v), "exponent must be a non-negative integer"),
    ("k_max", lambda v: first_positive_power(_PATTERN, v), "k_max must be a positive integer"),
]


@pytest.mark.parametrize(
    "call, message", [c[1:] for c in _COUNT_ARGUMENTS], ids=[c[0] for c in _COUNT_ARGUMENTS]
)
@pytest.mark.parametrize("value", [True, False, 2.0, -1], ids=repr)
def test_a_count_argument_is_an_int_but_not_a_bool(call, message, value):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value)


class TestRegularMarkovCorollary:
    def test_regular_markov_converges_with_positive_stationary(self):
        import random

        rng = random.Random(11)
        found = 0
        while found < 25:
            m = support.rand_markov_3x3(rng)
            if first_positive_power(sign_pattern(m), 16) is None:
                continue
            found += 1
            result = analyze(m)
            assert result.verdict is Verdict.CONVERGES
            assert all(v > 0 for v in result.stationary)
            assert vsum(result.stationary) == 1


def test_readme_quick_start_gives_the_values_its_comments_state():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    names = {}
    exec(blocks[0], names)
    assert names["variation"](names["m"]).value == F(6, 5)
    assert names["result"].contraction_power == 2
    assert names["result"].stationary == Vector([-2, F(1, 3), F(8, 3)])
