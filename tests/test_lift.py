"""Tests for the DVR-point lift solver."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

import logfirm.intlinalg
import logfirm.lift
from logfirm.firmament import firmament_from_charts, firmament_member
from logfirm.intlinalg import (
    scaled_inverse,
    smith_normal_form,
    solve_lattice,
)
from logfirm.lift import (
    DVRTargetPoint,
    LiftSolution,
    MonomialChart,
    NotInFirmament,
    describe_lift,
    log_smooth_primes,
    ramification_primes,
    root_orders,
    solve_exponents,
    solve_units,
)

# s = x^2 y^3, t = x
CHART_23 = MonomialChart(((2, 3), (1, 0)))
# s = x^2 y, t = x y^2
CHART_SYM = MonomialChart(((2, 1), (1, 2)))
# s = x, t = x (diagonal)
CHART_DIAG = MonomialChart(((1,), (1,)))


class TestSolveExponents:
    def test_chart23_five_one(self):
        assert solve_exponents(CHART_23, (5, 1)) == (1, 1)

    def test_chart23_one_zero_absent(self):
        assert solve_exponents(CHART_23, (1, 0)) is None

    def test_identity_chart(self):
        ident = MonomialChart(((1, 0), (0, 1)))
        for e in itertools.product(range(4), repeat=2):
            assert solve_exponents(ident, e) == e

    def test_no_source_variable(self):
        # an empty set of unknowns: () solves e = 0, and nothing else
        for chart in (MonomialChart(((), ())), MonomialChart(((),))):
            n = chart.num_target
            assert solve_exponents(chart, (0,) * n) == ()
            assert solve_exponents(chart, (0,) * (n - 1) + (1,)) is None

    def test_agrees_with_firmament_membership(self):
        from logfirm.charts import monomial_x2y3_x
        p, thetas = monomial_x2y3_x()
        gamma = firmament_from_charts(p, thetas)
        for e in itertools.product(range(7), repeat=2):
            got = solve_exponents(CHART_23, e)
            assert (got is not None) == firmament_member(gamma, e), e
            if got is not None:
                assert (2 * got[0] + 3 * got[1], got[0]) == e


class TestSolveUnits:
    def test_chart23(self):
        c, orders, constraints = solve_units(CHART_23)
        # u_x = u_t and u_y = (u_s * u_t^-2)^(1/3)
        assert c[0] == (Fraction(0), Fraction(1))
        assert c[1] == (Fraction(1, 3), Fraction(-2, 3))
        assert orders == (1, 3)
        assert constraints == ()

    def test_chart_sym_both_rows_denominator_three(self):
        c, orders, constraints = solve_units(CHART_SYM)
        assert orders == (3, 3)
        assert constraints == ()

    def test_diagonal_constraint(self):
        c, orders, constraints = solve_units(CHART_DIAG)
        assert len(constraints) == 1
        l = constraints[0]
        assert sorted(l) == [-1, 1]  # u_s = u_t as a multiplicative relation
        assert orders == (1,)

    @pytest.mark.parametrize("rows, want", [
        ((), ()), (((),), ((1,),)), (((), ()), ((1, 0), (0, 1))),
        (((0,), (1,)), ((1, 0),))])
    def test_constraints_of_charts_without_a_free_row(self, rows, want):
        # with no source variable every target unit must be 1; with the
        # row of y_1 zero, u_{y_1} must be 1
        chart = MonomialChart(rows)
        _, _, constraints = solve_units(chart)
        assert constraints == want
        for l in constraints:
            assert all(sum(x * row[i] for x, row in zip(l, chart.matrix)) == 0
                       for i in range(chart.num_source))

    def test_substitution_identity(self):
        # A . C = I modulo the rows spanned by the unit constraints
        for chart in (CHART_23, CHART_SYM, MonomialChart(((1, 0), (0, 1)))):
            c, _, constraints = solve_units(chart)
            n, m = chart.num_target, chart.num_source
            prod = [[sum(Fraction(chart.matrix[j][i]) * c[i][k]
                         for i in range(m)) for k in range(n)]
                    for j in range(n)]
            if not constraints:
                assert prod == [[Fraction(int(j == k)) for k in range(n)]
                                for j in range(n)]

    def test_root_order_lcm_divides_divisor_product(self):
        from logfirm.intlinalg import smith_normal_form
        from math import lcm
        for chart in (CHART_23, CHART_SYM, CHART_DIAG,
                      MonomialChart(((2, 0), (0, 2)))):
            orders = root_orders(chart)
            total = 1
            for q in orders:
                total = lcm(total, q)
            product = 1
            for d in smith_normal_form([list(r) for r in chart.matrix],
                                       chart.num_source).divisors:
                if d:
                    product *= d
            assert product % total == 0


def candidate_loop_units(chart):
    """Oracle: the former search for each root order.  Column j tries
    q = 1, 2, ... up to the largest elementary divisor: q.e_j with its
    left-kernel part dropped in Smith coordinates, then one full
    solve_lattice per try."""
    a = [list(r) for r in chart.matrix]
    n, m = chart.num_target, chart.num_source
    snf = smith_normal_form(a, m)
    rank = snf.rank
    constraints = tuple(tuple(snf.U[i]) for i in range(rank, n))
    p, w = scaled_inverse(snf.U)  # |p| = 1: U is unimodular
    u_inv = [[p * x for x in row] for row in w]
    columns = []
    for j in range(n):
        for q in range(1, max(snf.divisors) + 1):
            y = [q * snf.U[i][j] for i in range(n)]
            y = y[:rank] + [0] * (n - rank)
            reduced = [sum(u_inv[i][k] * y[k] for k in range(n)) for i in range(n)]
            sol = solve_lattice(a, reduced, m)
            if sol is not None:
                columns.append([Fraction(x, q) for x in sol.particular])
                break
    c = tuple(tuple(columns[j][i] for j in range(n)) for i in range(m))
    orders = tuple(lcm(*[f.denominator for f in row]) for row in c)
    return c, orders, constraints


class TestSolveUnitsOracle:
    def test_matches_candidate_loop(self):
        rng = random.Random(4)
        checked = 0
        while checked < 300:
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[rng.randint(0, 7) for _ in range(m)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                # a dependent row makes a unit constraint
                rows[-1] = [rng.randint(1, 3) * x for x in rows[0]]
            if not any(any(r) for r in rows):
                continue
            chart = MonomialChart(tuple(map(tuple, rows)))
            assert solve_units(chart) == candidate_loop_units(chart), rows
            checked += 1

    def test_large_root_order_one_smith_form(self, monkeypatch):
        calls = []

        def counting(m, cols):
            calls.append(m)
            return smith_normal_form(m, cols)

        monkeypatch.setattr(logfirm.lift, "smith_normal_form", counting)
        monkeypatch.setattr(logfirm.intlinalg, "smith_normal_form", counting)
        c, orders, constraints = solve_units(MonomialChart(((1009,),)))
        assert orders == (1009,)
        assert c == ((Fraction(1, 1009),),)
        assert constraints == ()
        assert len(calls) == 1


class TestLogSmoothPrimes:
    def test_chart23(self):
        assert log_smooth_primes([[2, 1], [3, 0]]) == {3}

    def test_chart_sym(self):
        assert log_smooth_primes([[2, 1], [1, 2]]) == {3}

    def test_identity(self):
        assert log_smooth_primes([[1, 0], [0, 1]]) == set()

    def test_diag22(self):
        assert log_smooth_primes([[2, 0], [0, 2]]) == {2}


class TestRamification:
    def test_chart23(self):
        assert ramification_primes(CHART_23) == {3}

    def test_chart_sym(self):
        assert ramification_primes(CHART_SYM) == {3}

    def test_free_chart(self):
        assert ramification_primes(MonomialChart(((1, 0), (0, 1)))) == set()


class TestDescribeLift:
    def test_units_solved_once(self, monkeypatch):
        # the ramification primes come from the root orders already found
        calls = []

        def counting(chart, real=logfirm.lift.solve_units):
            calls.append(chart)
            return real(chart)

        monkeypatch.setattr(logfirm.lift, "solve_units", counting)
        out = describe_lift(CHART_23, DVRTargetPoint((5, 1)))
        assert out.ramification_primes == ramification_primes(CHART_23) == {3}
        assert len(calls) == 2  # describe_lift, then ramification_primes

    def test_chart23_good_residue_char(self):
        out = describe_lift(CHART_23, DVRTargetPoint((5, 1)), residue_char=5)
        assert isinstance(out, LiftSolution)
        assert out.exponents == (1, 1)
        assert out.etale is True
        assert out.ramification_primes == {3}

    def test_chart23_bad_residue_char(self):
        out = describe_lift(CHART_23, DVRTargetPoint((5, 1)), residue_char=3)
        assert isinstance(out, LiftSolution)
        assert out.etale is False

    def test_not_in_firmament(self):
        out = describe_lift(CHART_23, DVRTargetPoint((1, 0)))
        assert isinstance(out, NotInFirmament)

    def test_diagonal_constraint_reported(self):
        out = describe_lift(CHART_DIAG, DVRTargetPoint((1, 1)))
        assert isinstance(out, LiftSolution)
        assert len(out.unit_constraints) == 1
        # membership holds even though the lift needs the unit relation
        from logfirm.charts import diagonal_embedding
        p, thetas = diagonal_embedding()
        gamma = firmament_from_charts(p, thetas)
        assert firmament_member(gamma, (1, 1))

    def test_exponent_soundness_box(self):
        for chart in (CHART_23, CHART_SYM):
            for e in itertools.product(range(7), repeat=2):
                out = describe_lift(chart, DVRTargetPoint(e))
                if isinstance(out, LiftSolution):
                    x = out.exponents
                    back = tuple(sum(chart.matrix[j][i] * x[i]
                                     for i in range(chart.num_source))
                                 for j in range(chart.num_target))
                    assert back == e


class TestValidation:
    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MonomialChart(((1, -1),))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            MonomialChart(((1, 2), (1,)))

    def test_valuation_vector_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            solve_exponents(CHART_23, (1,))
