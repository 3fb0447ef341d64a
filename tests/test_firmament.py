"""Tests for firmament construction, membership, and contact orders."""

import itertools
from collections import Counter

import pytest

import logfirm.intlinalg
from logfirm.charts import (
    diagonal_embedding,
    kummer_two_three,
    monomial_x2y3_x,
    orthant_monoid,
    parity_cover,
    parity_root,
)
from logfirm.fan import lattice_points_box, point, star_subdivision
from logfirm.firm import FiberProblem, LogPointQuery, firm_check
from logfirm.intlinalg import identity, ilp_feasible
from logfirm.firmament import (
    ContactOrder,
    NotAdditive,
    contact_order,
    dual_cone_complex,
    firmament_enumerate_box,
    firmament_from_charts,
    firmament_member,
    lies_in_firmament,
)
from logfirm.monoid import MonoidHom, identity_hom, in_group_coordinates, saturate


def build(chart_fn):
    p, thetas = chart_fn()
    return p, thetas, firmament_from_charts(p, thetas)


class TestTwoThree:
    def test_members_up_to_twelve(self):
        _, _, gamma = build(kummer_two_three)
        for n in range(13):
            expected = n % 2 == 0 or n % 3 == 0
            assert firmament_member(gamma, (n,)) == expected, n

    def test_five_out_six_in_four_in(self):
        _, _, gamma = build(kummer_two_three)
        assert not firmament_member(gamma, (5,))
        assert firmament_member(gamma, (6,))
        assert firmament_member(gamma, (4,))


class TestPointShape:
    """A point of the wrong length is rejected, not padded or cut."""

    def test_short_point_of_a_rank_two_target(self):
        _, _, gamma = build(parity_cover)
        assert gamma.map.target.ambient_rank == 2
        with pytest.raises(ValueError):
            firmament_member(gamma, [1])

    def test_empty_point_of_a_rank_one_target(self):
        _, _, gamma = build(kummer_two_three)
        with pytest.raises(ValueError):
            firmament_member(gamma, [])


class TestParityRoot:
    def test_membership_is_even_parity(self):
        _, _, gamma = build(parity_root)
        assert firmament_member(gamma, (1, 1))
        assert not firmament_member(gamma, (1, 0))
        assert firmament_member(gamma, (2, 0))

    def test_box_three_matches_parity(self):
        _, _, gamma = build(parity_root)
        pts = firmament_enumerate_box(gamma, 3)
        got = {p.coordinates for p in pts}
        expected = {(a, b) for a in range(4) for b in range(4)
                    if (a + b) % 2 == 0}
        assert got == expected
        assert len(got) == 8

    def test_blowup_of_source_keeps_enumeration(self):
        # subdividing the source complex does not change the image
        p, thetas, gamma = build(parity_root)
        sub, f = star_subdivision(gamma.map.source, (1, 1))
        composed = gamma.map.compose(f)
        from logfirm.firmament import Firmament
        gamma2 = Firmament(composed)
        assert ({q.coordinates for q in firmament_enumerate_box(gamma2, 3)}
                == {q.coordinates for q in firmament_enumerate_box(gamma, 3)})


class TestDiagonal:
    def test_membership(self):
        _, _, gamma = build(diagonal_embedding)
        assert firmament_member(gamma, (1, 1))
        assert not firmament_member(gamma, (1, 2))
        assert firmament_member(gamma, (0, 0))


class TestMonomialChart:
    def test_five_one_in_one_zero_out(self):
        _, _, gamma = build(monomial_x2y3_x)
        assert firmament_member(gamma, (5, 1))
        assert not firmament_member(gamma, (1, 0))

    def test_image_parametrization(self):
        _, _, gamma = build(monomial_x2y3_x)
        expected = {(2 * a + 3 * b, a) for a in range(8) for b in range(8)}
        for v in itertools.product(range(7), repeat=2):
            assert firmament_member(gamma, v) == (v in expected), v


class TestContactOrder:
    def test_free_monoid_readoff(self):
        n2 = orthant_monoid(2)
        c = contact_order(n2, {(1, 0): 2, (0, 1): 3})
        assert c.point.coordinates == (2, 3)

    def test_rank_one_valuations(self):
        n = orthant_monoid(1)
        assert contact_order(n, [2]).point.coordinates == (2,)
        assert contact_order(n, [0]).point.coordinates == (0,)

    def test_zero_point(self):
        n2 = orthant_monoid(2)
        c = contact_order(n2, [0, 0])
        assert c.point.coordinates == (0, 0)

    def test_not_additive(self):
        q = in_group_coordinates(saturate(2, [(2, 0), (1, 1), (0, 2)]))
        # generators satisfy h1 + h3 = 2 h2; valuations 1,0,0 break it
        hb = list(q.hilbert)
        vals = {hb[0]: 1, hb[1]: 0, hb[2]: 0}
        with pytest.raises(NotAdditive):
            contact_order(q, vals)


class TestLiesInFirmament:
    def test_contact_order_two(self):
        p, _, gamma = build(kummer_two_three)
        c = contact_order(p, [2])
        assert lies_in_firmament(gamma, c)

    def test_zero_always_in(self):
        for fn in (kummer_two_three, parity_root, monomial_x2y3_x,
                   diagonal_embedding):
            p, _, gamma = build(fn)
            c = contact_order(p, [0] * len(p.hilbert))
            assert lies_in_firmament(gamma, c)

    def test_monomial_examples(self):
        p, _, gamma = build(monomial_x2y3_x)
        assert lies_in_firmament(gamma, contact_order(p, {(1, 0): 5, (0, 1): 1}))
        assert not lies_in_firmament(gamma, contact_order(p, {(1, 0): 1, (0, 1): 0}))


class TestScalingClosure:
    def test_members_scale(self):
        for fn in (kummer_two_three, parity_root, monomial_x2y3_x,
                   diagonal_embedding):
            _, _, gamma = build(fn)
            d = gamma.map.target.ambient_rank
            for v in itertools.product(range(7), repeat=d):
                if firmament_member(gamma, v):
                    for k in (2, 3, 4):
                        assert firmament_member(
                            gamma, tuple(k * x for x in v)), (fn, v, k)


class TestFirmEqualsFirmament:
    def test_rank_one_queries_agree(self):
        # exact equivalence of the factorization decision and firmament
        # membership of the contact order, over three charts and 12 values
        configs = [
            (kummer_two_three, lambda v: {(1,): v}),
            (parity_root, lambda v: {(1, 0): v, (0, 1): 1}),
            (monomial_x2y3_x, lambda v: {(1, 0): v, (0, 1): 1}),
        ]
        n = orthant_monoid(1)
        for fn, mk in configs:
            p, thetas, gamma = build(fn)
            prob = FiberProblem(p, tuple(thetas))
            for v in range(1, 13):
                vals = mk(v)
                row = tuple(vals[tuple(1 if i == j else 0 for i in
                                       range(p.ambient_rank))]
                            for j in range(p.ambient_rank))
                psi = MonoidHom(p, n, (row,))
                q = LogPointQuery(n, psi)
                firm = firm_check(prob, q) is not None
                member = lies_in_firmament(gamma, contact_order(p, vals))
                assert firm == member, (fn.__name__, v)


class TestParityCover:
    def test_union_covers_box_ten(self):
        _, _, gamma = build(parity_cover)
        pts = firmament_enumerate_box(gamma, 10)
        assert len(pts) == 121

    def test_identity_query_not_firm(self):
        p, thetas, _ = build(parity_cover)
        prob = FiberProblem(p, tuple(thetas))
        q = LogPointQuery(p, identity_hom(p))
        assert firm_check(prob, q) is None


class TestTrivialFirmaments:
    def test_zero_chart(self):
        n = orthant_monoid(1)
        z = saturate(0, [])
        theta = MonoidHom(n, z, ())
        gamma = firmament_from_charts(n, [theta])
        pts = firmament_enumerate_box(gamma, 2)
        assert {p.coordinates for p in pts} == {(0,)}

    def test_identity_chart(self):
        n2 = orthant_monoid(2)
        gamma = firmament_from_charts(n2, [identity_hom(n2)])
        assert len(firmament_enumerate_box(gamma, 2)) == 9


class TestDualCones:
    def test_dual_cone_rays_are_the_stored_facets(self):
        for chart_fn in (kummer_two_three, parity_root, parity_cover):
            p, thetas = chart_fn()
            for m in [p] + [t.target for t in thetas]:
                assert dual_cone_complex(m).maximal[0].rays == m.facets_local

    def test_chart_to_a_monoid_with_units(self):
        # Hom(Z x N, R>=0) is the ray {0} x R>=0, a sharp cone
        n2 = orthant_monoid(2)
        q = saturate(2, [(1, 0), (-1, 0), (0, 1)])
        gamma = firmament_from_charts(n2, [MonoidHom(n2, q, identity(2))])
        assert {p.coordinates for p in firmament_enumerate_box(gamma, 2)} == {
            (0, 0), (0, 1), (0, 2)}

    def test_dual_of_a_group_is_the_zero_cone(self):
        z2 = saturate(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert dual_cone_complex(z2).faces == ((),)


CHART_FAMILIES = (parity_cover, kummer_two_three, parity_root, monomial_x2y3_x,
                  diagonal_embedding)


def thin_chart():
    """The chart N^2 -> N^4 with rows (2,0), (4,0), (0,1), (1,1): (x, 0) is
    a member only for even x, and refuting odd x takes a search in x."""
    n2 = orthant_monoid(2)
    return n2, [MonoidHom(n2, orthant_monoid(4), [[2, 0], [4, 0], [0, 1], [1, 1]])]


def fresh_programs(gamma, coords):
    """The answer of one fresh ``ilp_feasible`` call per maximal source
    cone, in the order of ``gamma.map.source.maximal``."""
    src = gamma.map.source
    out = []
    for cone in src.maximal:
        _, matrix = gamma.map.assignments[src.cone_index(cone)]
        out.append(ilp_feasible(src.ambient_rank, [list(r) for r in matrix],
                                list(coords), [list(f) for f in cone.facets]))
    return out


class TestPreparedSystems:
    """``firmament_member`` solves each point against one integer system per
    source cone, prepared once per firmament."""

    THIN_POINTS = [(x, y) for x in (1, 2, 3, 7, 64, 101, 257, 1000, 1001)
                   for y in (0, 1, 2)]

    def test_same_answers_as_fresh_programs(self):
        checked = 0
        for chart_fn in CHART_FAMILIES + (thin_chart,):
            gamma = firmament_from_charts(*chart_fn())
            points = [p.coordinates for p in lattice_points_box(gamma.map.target, 6)]
            if chart_fn is thin_chart:
                points += self.THIN_POINTS
            for coords in points:
                fresh = fresh_programs(gamma, coords)
                assert [s.solve(list(coords)) for s in gamma.systems] == fresh
                assert firmament_member(gamma, coords) == any(
                    x is not None for x in fresh), (chart_fn.__name__, coords)
                checked += 1
        assert checked >= 200

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for name in ("smith_normal_form", "dual_rays"):
            def counting(*args, name=name, real=getattr(logfirm.intlinalg, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(logfirm.intlinalg, name, counting)
        return calls

    def test_box_work_does_not_grow(self, calls):
        for chart_fn in CHART_FAMILIES + (thin_chart,):
            per_box = []
            for bound in (3, 6, 12):
                gamma = firmament_from_charts(*chart_fn())
                calls.clear()
                firmament_enumerate_box(gamma, bound)
                per_box.append(dict(calls))
                # one Smith form per source cone
                assert calls["smith_normal_form"] == len(gamma.map.source.maximal)
            assert per_box[0] == per_box[1] == per_box[2], chart_fn.__name__
