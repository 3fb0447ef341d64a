"""Top-level acceptance suite: one test class per shipped guarantee."""

import itertools
import random
import xml.etree.ElementTree as ET

import pytest

from fan_oracle import fan_faults
from logfirm.campana import (
    MonomialIdeal,
    IntPolynomial,
    campana_member,
    intersection_multiplicity,
    linear_substitution,
    m_multiplicity,
    pullback_ideal,
    variant_multiplicities,
)
from logfirm.charts import (
    diagonal_embedding,
    kummer_two_three,
    monomial_x2y3_x,
    orthant_monoid,
    parity_cover,
    parity_root,
)
from logfirm.fan import (
    cone_complex,
    is_refinement,
    lattice_points_box,
    make_cone,
    map_point,
    orthant,
    sigma_n,
    star_subdivision,
)
from logfirm.firm import (
    FiberProblem,
    LogPointQuery,
    firm_check,
    firm_check_pushout,
    generization_witnesses,
    verify_witness,
)
from logfirm.firmament import (
    contact_order,
    firmament_enumerate_box,
    firmament_from_charts,
    firmament_member,
    lies_in_firmament,
)
from logfirm.intlinalg import (
    ResourceLimit,
    dot,
    identity,
    ilp_budget,
    ilp_feasible,
    kernel_and_cokernel,
    mat_mul,
    mat_vec,
    smith_normal_form,
)
from logfirm.lift import (
    DVRTargetPoint,
    LiftSolution,
    MonomialChart,
    describe_lift,
    log_smooth_primes,
    solve_units,
)
from logfirm.monoid import (
    MonoidHom,
    find_retraction,
    fs_pushout,
    identity_hom,
    in_group_coordinates,
    is_local,
    saturate,
)
from logfirm.svg import emit_point_grid


def N(rank=1):
    return orthant_monoid(rank)


def hom(src, dst, matrix):
    return MonoidHom(src, dst, tuple(tuple(r) for r in matrix))


class TestCriterion01TripleCoverNotFirm:
    def test_times_three_retraction_absent(self):
        n = N()
        assert find_retraction(hom(n, n, [[3]])) is None

    def test_times_three_not_firm(self):
        n = N()
        prob = FiberProblem(n, (hom(n, n, [[3]]),))
        q = LogPointQuery(n, identity_hom(n))
        assert firm_check(prob, q) is None


class TestCriterion02TwoThreeMembership:
    def test_box_twelve(self):
        p, thetas = kummer_two_three()
        gamma = firmament_from_charts(p, thetas)
        for n in range(13):
            assert firmament_member(gamma, (n,)) == (
                n % 2 == 0 or n % 3 == 0), n
        assert not firmament_member(gamma, (5,))
        assert firmament_member(gamma, (6,))


class TestCriterion03ParityBoxAndSvg:
    def test_even_parity_points_and_svg(self):
        p, thetas = parity_root()
        gamma = firmament_from_charts(p, thetas)
        members = {q.coordinates for q in firmament_enumerate_box(gamma, 3)}
        expected = {(a, b) for a in range(4) for b in range(4)
                    if (a + b) % 2 == 0}
        assert members == expected
        doc = emit_point_grid(3, members)
        root = ET.fromstring(doc)
        filled = [e for e in root.iter()
                  if e.tag.endswith("circle") and e.get("fill") == "black"]
        assert len(filled) == 8


class TestCriterion04FirmEqualsFirmament:
    def test_thirty_six_cases(self):
        configs = [
            (kummer_two_three, lambda v: {(1,): v}),
            (parity_root, lambda v: {(1, 0): v, (0, 1): 1}),
            (monomial_x2y3_x, lambda v: {(1, 0): v, (0, 1): 1}),
        ]
        n = N()
        cases = 0
        for fn, mk in configs:
            p, thetas = fn()
            gamma = firmament_from_charts(p, thetas)
            prob = FiberProblem(p, tuple(thetas))
            for v in range(1, 13):
                vals = mk(v)
                row = tuple(vals[tuple(1 if i == j else 0
                                       for i in range(p.ambient_rank))]
                            for j in range(p.ambient_rank))
                q = LogPointQuery(n, MonoidHom(p, n, (row,)))
                firm = firm_check(prob, q) is not None
                member = lies_in_firmament(gamma, contact_order(p, vals))
                assert firm == member, (fn.__name__, v)
                cases += 1
        assert cases == 36


class TestCriterion05RootOrderThree:
    CHARTS = (((2, 3), (1, 0)), ((2, 1), (1, 2)))

    def test_torsion_and_primes(self):
        for rows in self.CHARTS:
            kc = kernel_and_cokernel([list(r) for r in rows])
            assert kc.torsion == (3,)
            assert log_smooth_primes(rows) == {3}

    def test_unit_solution_shape(self):
        c, orders, constraints = solve_units(MonomialChart(self.CHARTS[0]))
        assert orders == (1, 3)
        # u_y = (u_s * u_t^-2)^(1/3)
        from fractions import Fraction
        assert c[1] == (Fraction(1, 3), Fraction(-2, 3))
        assert constraints == ()
        assert solve_units(MonomialChart(self.CHARTS[1]))[1] == (3, 3)


class TestCriterion06DiagonalLift:
    def test_member_but_constrained(self):
        chart = MonomialChart(((1,), (1,)))
        out = describe_lift(chart, DVRTargetPoint((1, 1)))
        assert isinstance(out, LiftSolution)
        assert len(out.unit_constraints) == 1
        assert sorted(out.unit_constraints[0]) == [-1, 1]
        p, thetas = diagonal_embedding()
        gamma = firmament_from_charts(p, thetas)
        assert firmament_member(gamma, (1, 1))


class TestCriterion07BlowupBijection:
    def test_box_ten(self):
        plane = orthant(2)
        sub, f = star_subdivision(plane, (1, 1))
        before = lattice_points_box(plane, 10)
        after = lattice_points_box(sub, 10)
        assert len(before) == 121 and len(after) == 121
        images = {map_point(f, p) for p in after}
        assert images == before


class TestCriterion08SigmaTower:
    def test_tower_shapes(self):
        s1 = sigma_n(2, 1)
        s2 = sigma_n(2, 2)
        rays1 = sorted({r for c in s1.maximal for r in c.rays})
        rays2 = sorted({r for c in s2.maximal for r in c.rays})
        assert rays1 == [(0, 1), (1, 0), (1, 1)]
        assert rays2 == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]
        assert len(s1.maximal) == 2
        assert len(s2.maximal) == 4
        assert is_refinement(s2, s1)

    def test_refines_ordered_stellar_subdivisions(self):
        s2 = sigma_n(2, 2)
        vectors = ((1, 2), (2, 1), (1, 1))
        for order in itertools.permutations(vectors):
            fan = orthant(2)
            for v in order:
                fan, _ = star_subdivision(fan, v)
            assert is_refinement(s2, fan), order

    def test_rank_3_levels_are_fans(self):
        # sigma_n assembles its chambers without the pairwise check
        for n in (2, 3):
            s = sigma_n(3, n)
            assert not fan_faults(s)
            for rays in s.faces:
                assert make_cone(3, rays).rays == rays


class TestCriterion09CoverIdentity:
    def test_box_cover_and_identity_not_firm(self):
        p, thetas = parity_cover()
        gamma = firmament_from_charts(p, thetas)
        pts = firmament_enumerate_box(gamma, 10)
        assert len(pts) == 121
        prob = FiberProblem(p, tuple(thetas))
        q = LogPointQuery(p, identity_hom(p))
        assert firm_check(prob, q) is None


class TestCriterion10FourMultiplicities:
    CHART = MonomialChart(((2, 0, 0), (0, 2, 0), (0, 1, 1)))

    def test_values(self):
        factors = [IntPolynomial.linear((1, -1, 0)),
                   IntPolynomial.linear((1, 1, 0))]
        diag = linear_substitution(
            [factors], [[1, -1, 0], [1, 1, 0], [0, 0, 1]])
        values = [
            m_multiplicity(diag),
            m_multiplicity(pullback_ideal(
                self.CHART, MonomialIdeal.of(3, [(1, 0, 0), (0, 1, 0)]))),
            m_multiplicity(pullback_ideal(
                self.CHART, MonomialIdeal.of(3, [(0, 1, 0)]))),
            m_multiplicity(pullback_ideal(
                self.CHART, MonomialIdeal.of(3, [(0, 1, 0), (0, 0, 1)]))),
        ]
        assert values == [1, 2, 2, 1]


class TestCriterion11MultiplicityHarness:
    CHART = MonomialChart(((2, 0, 0), (0, 2, 0), (0, 1, 1)))
    IDEALS = ([(1, 0, 0), (0, 1, 0)], [(0, 1, 0)], [(0, 1, 0), (0, 0, 1)])

    def test_three_times_216_cases(self):
        total = 0
        for gens in self.IDEALS:
            i = MonomialIdeal.of(3, gens)
            m = m_multiplicity(pullback_ideal(self.CHART, i))
            for y in itertools.product(range(6), repeat=3):
                vals = [sum(self.CHART.matrix[j][k] * y[k] for k in range(3))
                        for j in range(3)]
                n = intersection_multiplicity(i, vals)
                assert campana_member(n, m), (gens, y)
                total += 1
        assert total == 648


class TestCriterion12OracleSuites:
    def test_snf_identity_200(self):
        rng = random.Random(11235)
        for _ in range(200):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            m = [[rng.randint(-5, 5) for _ in range(cols)]
                 for _ in range(rows)]
            snf = smith_normal_form(m)
            d = mat_mul(mat_mul([list(r) for r in snf.U], m),
                        [list(r) for r in snf.V])
            for i in range(rows):
                for j in range(cols):
                    expected = snf.divisors[i] if i == j and i < len(
                        snf.divisors) else 0
                    assert d[i][j] == expected

    def test_ilp_vs_enumeration_200(self):
        def brute(num_vars, eq, rhs, ineq, box):
            for x in itertools.product(range(-box, box + 1),
                                       repeat=num_vars):
                if list(mat_vec(eq, x)) != list(rhs):
                    continue
                if any(dot(row, x) < 0 for row in ineq):
                    continue
                return x
            return None

        rng = random.Random(97)
        for _ in range(200):
            n = rng.randint(1, 3)
            rows = rng.randint(1, 2)
            eq = [[rng.randint(-3, 3) for _ in range(n)]
                  for _ in range(rows)]
            target = [rng.randint(-4, 4) for _ in range(n)]
            b = list(mat_vec(eq, target))
            ineq = identity(n) + [[-1] * n]  # bounded simplex slice
            got = ilp_feasible(n, eq, b, ineq)
            oracle = brute(n, eq, b, ineq, box=10)
            assert (got is None) == (oracle is None)
            if got is not None:
                assert list(mat_vec(eq, got)) == b
                assert all(dot(row, got) >= 0 for row in ineq)

    def test_pushout_vs_brute_saturation_50(self):
        from test_monoid import brute_saturation_check
        rng = random.Random(271828)
        done = 0
        while done < 50:
            ranks = (rng.randint(1, 2), rng.randint(1, 2))
            monoids = []
            for r in ranks:
                gens = [tuple(rng.randint(0, 3) for _ in range(r))
                        for _ in range(rng.randint(1, 3))]
                gens = [g for g in gens if any(g)]
                if not gens:
                    monoids = None
                    break
                m = in_group_coordinates(saturate(r, gens))
                if not m.sharp or not m.hilbert:
                    monoids = None
                    break
                monoids.append(m)
            if monoids is None:
                continue
            q1, q2 = monoids
            n = N()
            f = hom(n, q1, [[x] for x in
                            q1.hilbert[rng.randrange(len(q1.hilbert))]])
            g = hom(n, q2, [[x] for x in
                            q2.hilbert[rng.randrange(len(q2.hilbert))]])
            res = fs_pushout(f, g)
            if res.free_rank > 3:
                continue
            assert brute_saturation_check(res)
            done += 1

    def test_firm_check_agreement_100(self):
        rng = random.Random(424243)
        done = 0
        while done < 100:
            p_rank = rng.randint(1, 2)
            p = N(p_rank)

            def random_monoid():
                r = rng.randint(1, 2)
                gens = [tuple(rng.randint(0, 3) for _ in range(r))
                        for _ in range(rng.randint(1, 3))]
                gens = [g for g in gens if any(g)]
                if not gens:
                    return None
                m = in_group_coordinates(saturate(r, gens))
                if not m.sharp or not m.hilbert:
                    return None
                return m

            def random_element(m, allow_zero=False):
                hb = list(m.hilbert)
                v = tuple([0] * m.ambient_rank)
                for _ in range(rng.randint(0 if allow_zero else 1, 2)):
                    g = hb[rng.randrange(len(hb))]
                    v = tuple(a + b for a, b in zip(v, g))
                return v

            q_mon, r_mon = random_monoid(), random_monoid()
            if q_mon is None or r_mon is None:
                continue
            theta_cols = [random_element(q_mon, allow_zero=True)
                          for _ in range(p_rank)]
            psi_cols = [random_element(r_mon) for _ in range(p_rank)]
            theta = hom(p, q_mon, [[c[i] for c in theta_cols]
                                   for i in range(q_mon.ambient_rank)])
            psi = hom(p, r_mon, [[c[i] for c in psi_cols]
                                 for i in range(r_mon.ambient_rank)])
            if not is_local(psi):
                continue
            prob = FiberProblem(p, (theta,))
            query = LogPointQuery(r_mon, psi)
            w = firm_check(prob, query)
            res = firm_check_pushout(prob, query)
            assert (w is not None) == res.firm, (theta.matrix, psi.matrix)
            done += 1


class TestCriterion13GenerizationReverifies:
    def test_witnesses_reverify_on_corpus(self):
        from logfirm.monoid import face_localization
        n = N()
        problems = []
        # the shipped chart families at several firm query values
        for fn in (kummer_two_three, parity_root, monomial_x2y3_x):
            p, thetas = fn()
            prob = FiberProblem(p, tuple(thetas))
            for v in range(1, 7):
                row = tuple(v if j == 0 else 1
                            for j in range(p.ambient_rank))
                q = LogPointQuery(n, MonoidHom(p, n, (row,)))
                problems.append((prob, q))
        # the diagonal with a rank-2 point monoid (nontrivial face poset)
        n2 = N(2)
        diag = hom(n, n2, [[1], [1]])
        problems.append((FiberProblem(n, (diag,)), LogPointQuery(n2, diag)))

        verified = 0
        for prob, q in problems:
            w = firm_check(prob, q)
            if w is None:
                continue
            out = generization_witnesses(prob, q, w)
            assert out  # the zero face always survives
            theta = prob.components[w.component_index]
            for face, wit in out.items():
                loc, proj = face_localization(q.point_monoid, face)
                psi_loc = proj.compose(q.psi)
                # exact composite equality and full re-verification
                assert wit.hom.compose(theta).equal_on_source(psi_loc)
                assert verify_witness(prob, LogPointQuery(loc, psi_loc), wit)
                verified += 1
        assert verified >= 10


class TestCriterion14OneBudget:
    """``ilp_budget`` caps every integer program below it, in every layer,
    and gives the previous budget back when its block ends."""

    def calls(self):
        n1, n2, n4 = N(1), N(2), N(4)
        thin = firmament_from_charts(
            n2, [hom(n2, n4, [[2, 0], [4, 0], [0, 1], [1, 1]])])
        pushout = fs_pushout(hom(n1, n1, [[2]]), hom(n1, n1, [[3]]))
        # (call, a budget it runs out of, its answer under the default)
        return [
            (lambda: describe_lift(MonomialChart(((3, 5, 7),)),
                                   DVRTargetPoint((4000,))).exponents,
             1, (0, 2, 570)),
            (lambda: variant_multiplicities(
                MonomialIdeal(2, ((40, 0), (0, 40)))), 1, (40, 40, 40, 79)),
            (lambda: pushout.amalgam_equals_saturation(), 0, ((), (-1,))),
            (lambda: len(firmament_enumerate_box(thin, 41)), 10, 1743),
        ]

    def test_budget_reaches_every_layer(self):
        for call, spent, answer in self.calls():
            with pytest.raises(ResourceLimit), ilp_budget(spent):
                call()
            # the default is back after a block left by ResourceLimit
            assert call() == answer
            with ilp_budget(spent + 1000):
                assert call() == answer

    def test_nested_blocks_restore(self):
        lift, spent, answer = self.calls()[0]
        with ilp_budget(spent + 1000):
            with ilp_budget(spent):
                with pytest.raises(ResourceLimit):
                    lift()
            assert lift() == answer
            with pytest.raises(ResourceLimit), ilp_budget(spent):
                lift()
            assert lift() == answer
        with ilp_budget(spent):
            with ilp_budget(spent + 1000):
                assert lift() == answer
            with pytest.raises(ResourceLimit):
                lift()
