"""Acceptance suite: one test per criterion, each printing a summary line.

Each test registers a pass/fail line through the ``criterion`` context
manager from conftest; the lines are echoed in the terminal summary.
All randomized checks use fixed seeds and exact rational arithmetic
unless a float-domain check is explicitly part of the criterion.
"""

import json
import random
from fractions import Fraction

import support
from conftest import criterion
from support import (
    CliRunner,
    EX_E,
    EX_LIMIT,
    EX_M,
    EX_M_CSV,
    EX_M_SQUARED,
    K_INSTANCE,
    K_PATTERN,
    L_INSTANCE,
    L_PATTERN,
    M_INSTANCE,
    M_PATTERN,
    M_POWER_PATTERNS,
    basis_vector,
)
from stovar import (
    Case2x2,
    Domain,
    Matrix,
    Vector,
    analyze,
    classify_2x2,
    criterion_3x3,
    decay_bound,
    determinant,
    find_contraction_power,
    first_positive_power,
    l1_norm,
    mat_mul,
    mat_pow,
    mat_vec,
    matrix_2x2,
    pattern_power,
    row_mat_mul,
    row_variation,
    row_variation_maximizer,
    strict_variation_test,
    type_of,
    variation,
    variation_maximizer,
)
from stovar.cli import main as cli_main

F = Fraction


def max_abs(m: Matrix):
    return max(abs(v) for v in m.entries)


def test_criterion_1_worked_fixture_exact():
    with criterion(1, "worked 3x3 fixture: variation, square, E, limit, eigenvalues"):
        assert variation(EX_M).value == F(6, 5)
        assert mat_pow(EX_M, 2) == EX_M_SQUARED
        assert variation(EX_M_SQUARED).value == F(18, 25)
        assert analyze(EX_M).stationary == EX_E
        assert analyze(EX_M).projection == EX_LIMIT
        identity = Matrix.identity(3)
        for eig in (F(1), F(2, 5), F(1, 5)):
            assert determinant(EX_M - identity.scale(eig)) == 0
        assert determinant(EX_M - identity.scale(F(1, 2))) != 0


def test_criterion_2_power_fifty_convergence():
    with criterion(2, "power 50 within 1e-10 of E (float) and decay bound (exact)"):
        m_float = EX_M.to_float()
        e_float = Vector([float(v) for v in EX_E], domain=Domain.FLOAT)
        power50 = mat_pow(m_float, 50)
        for j in range(3):
            assert l1_norm(power50.column(j) - e_float) < 1e-10

        bound = decay_bound(F(6, 5), F(18, 25), 2, 50)
        worst_start = max(
            l1_norm(basis_vector(3, j) - EX_E) for j in range(3)
        )
        exact50 = mat_pow(EX_M, 50)
        for j in range(3):
            assert l1_norm(exact50.column(j) - EX_E) <= bound * worst_start


def test_criterion_3_contraction_inequality():
    with criterion(3, "1000 random (A, X) with vsum X = 0: |AX| <= var(A)|X|"):
        rng = random.Random(101)
        violations = 0
        for _ in range(1000):
            a = support.rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            x = support.rand_sum_zero_vector(rng, a.cols)
            if l1_norm(mat_vec(a, x)) > variation(a).value * l1_norm(x):
                violations += 1
        assert violations == 0


def test_criterion_4_submultiplicativity_and_type_product():
    with criterion(4, "1000 typed pairs: var(AB) <= var(A)var(B), type(AB) = ab"):
        rng = random.Random(202)
        violations = 0
        for _ in range(1000):
            m, n, l = rng.randint(2, 5), rng.randint(2, 5), rng.randint(2, 5)
            ta = support.rand_fraction(rng)
            tb = support.rand_fraction(rng)
            a = support.rand_typed_matrix(rng, m, n, ta)
            b = support.rand_typed_matrix(rng, n, l, tb)
            product = mat_mul(a, b)
            if variation(product).value > variation(a).value * variation(b).value:
                violations += 1
            report = type_of(product)
            if not (report.has_type and report.type_value == ta * tb):
                violations += 1
        assert violations == 0


def test_criterion_5_strictness_equivalence():
    with criterion(5, "1000 non-negative typed: pattern test = direct var < a"):
        rng = random.Random(303)
        disagreements = 0
        for _ in range(1000):
            m, n = rng.randint(2, 5), rng.randint(2, 5)
            t = F(rng.randint(1, 4), rng.randint(1, 3))
            a = support.rand_nonneg_typed(rng, m, n, t, zero_prob=0.4)
            if strict_variation_test(a) != (variation(a).value < t):
                disagreements += 1
        assert disagreements == 0


def test_criterion_6_pattern_suite():
    with criterion(6, "three-shape suite: pattern powers, indices, variations"):
        for k, expected in enumerate(M_POWER_PATTERNS, start=1):
            assert pattern_power(M_PATTERN, k) == expected
        assert first_positive_power(M_PATTERN, 32) == 5
        assert first_positive_power(L_PATTERN, 32) == 2
        assert first_positive_power(K_PATTERN, 32) is None
        assert variation(K_INSTANCE).value < 1
        assert variation(L_INSTANCE).value < 1
        assert variation(M_INSTANCE).value == 1
        assert variation(mat_pow(M_INSTANCE, 2)).value == 1
        assert variation(mat_pow(M_INSTANCE, 3)).value < 1


def test_criterion_7_three_by_three_criterion_sampling():
    with criterion(7, "1000 random 3x3 Markov: cube criterion matches analysis"):
        rng = random.Random(404)
        guard = F(1, 10**6)
        accepted = converged_count = inconclusive_count = 0
        while accepted < 1000:
            m = support.rand_markov_3x3(rng)
            cube_variation = variation(mat_pow(m, 3)).value
            # the guard band excludes numerically borderline samples; an
            # exact variation of one is the criterion-false class itself
            if cube_variation != 1 and abs(cube_variation - 1) < guard:
                continue
            accepted += 1
            if criterion_3x3(m):
                converged_count += 1
                result = analyze(m, p_max=64)
                assert result.converged
                p = result.contraction_power
                assert p <= 3
                horizon = 2 * p
                bound = result.decay_bound_at(horizon)
                assert bound < 1
                iterate = mat_pow(m, horizon)
                for j in range(3):
                    start = basis_vector(3, j)
                    distance = l1_norm(iterate.column(j) - result.stationary)
                    assert distance <= bound * l1_norm(start - result.stationary)
            else:
                inconclusive_count += 1
                assert find_contraction_power(m, 64) is None
        assert converged_count > 0 and inconclusive_count > 0


def test_criterion_8_two_by_two_taxonomy():
    with criterion(8, "200 samples per 2x2 case: verdicts match power behavior"):
        rng = random.Random(505)

        # case with c != 0, convergent window
        for _ in range(100):
            a = rng.uniform(0.1, 0.9)
            b = rng.uniform(0.1, 0.9)
            result = classify_2x2(a, b)
            assert result.case is Case2x2.CONVERGES_GENERIC
            power = mat_pow(matrix_2x2(a, b), 200)
            for j in range(2):
                assert l1_norm(power.column(j) - result.stationary) < 1e-8

        # case with c != 0, divergent
        for _ in range(100):
            c = rng.choice([rng.uniform(2.2, 3.0), rng.uniform(-1.0, -0.2)])
            a = c * rng.uniform(0.3, 0.7)
            b = c - a
            result = classify_2x2(a, b)
            assert result.case is Case2x2.DIVERGES_GENERIC
            assert max_abs(mat_pow(matrix_2x2(a, b), 200)) > 1e6

        # c = 0 with a != 0: exact linear divergence
        for _ in range(200):
            a = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            result = classify_2x2(a, -a)
            assert result.case is Case2x2.DIVERGES_LINEAR
            m = matrix_2x2(a, -a)
            power = Matrix.identity(2)
            for k in range(1, 201):
                power = mat_mul(power, m)
                ka = k * a
                assert power.entries == (1 - ka, -ka, ka, 1 + ka)
            assert power == support.linear_divergence_power(a, 200)
            for k in (50, 100, 200):
                assert max_abs(support.linear_divergence_power(a, k)) == 1 + k * abs(a)

        # a = b = 0: the identity
        for _ in range(200):
            assert classify_2x2(F(0), F(0)).case is Case2x2.IDENTITY
        assert mat_pow(matrix_2x2(F(0), F(0)), 200) == Matrix.identity(2)


def test_criterion_9_maximizers():
    with criterion(9, "500 maximizer witnesses attain the variation exactly"):
        rng = random.Random(606)
        for _ in range(500):
            a = support.rand_matrix(rng, rng.randint(1, 5), rng.randint(2, 5))
            x0 = variation_maximizer(a)
            assert l1_norm(mat_vec(a, x0)) == variation(a).value

        accepted = 0
        while accepted < 500:
            b = support.rand_typed_matrix(
                rng, rng.randint(2, 5), rng.randint(2, 5), support.rand_fraction(rng)
            )
            value = variation(b).value
            if value == 0:
                continue
            accepted += 1
            z0 = row_variation_maximizer(b)
            assert row_variation(z0) == 1
            assert any(z == 1 for z in z0) and any(z == -1 for z in z0)
            assert row_variation(row_mat_mul(z0, b)) == value


def test_criterion_10_pseudo_norm_laws():
    with criterion(10, "500 instances: homogeneity, triangle, zero iff equal columns"):
        rng = random.Random(707)
        for _ in range(500):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = support.rand_matrix(rng, m, n)
            b = support.rand_matrix(rng, m, n)
            c = support.rand_fraction(rng)
            assert variation(a.scale(c)).value == abs(c) * variation(a).value
            assert variation(a + b).value <= variation(a).value + variation(b).value
            column = [support.rand_fraction(rng) for _ in range(m)]
            identical = Matrix([[column[i]] * n for i in range(m)])
            assert variation(identical).value == 0
            if variation(a).value == 0:
                assert all(a.column(j) == a.column(0) for j in range(n))


def test_criterion_11_cli_reports(tmp_path):
    with criterion(11, "CLI exit codes and exact fraction strings in the report"):
        runner = CliRunner()

        fixture = tmp_path / "worked.csv"
        fixture.write_text(EX_M_CSV, encoding="utf-8")
        result = runner.invoke(cli_main, ["analyze", str(fixture), "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["variation"]["value"] == "6/5"
        assert report["variation_at_power"] == "18/25"
        assert report["stationary"] == ["-2", "1/3", "8/3"]

        identity = tmp_path / "identity.csv"
        identity.write_text("1,0\n0,1\n", encoding="utf-8")
        assert runner.invoke(cli_main, ["analyze", str(identity)]).exit_code == 3

        rectangular = tmp_path / "rect.csv"
        rectangular.write_text("1,2,3\n4,5,6\n", encoding="utf-8")
        assert runner.invoke(cli_main, ["analyze", str(rectangular)]).exit_code == 2
