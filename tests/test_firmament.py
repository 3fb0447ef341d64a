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
from logfirm.cli import firmament_from_json
from logfirm.fan import cone_complex, lattice_points_box, point, star_subdivision
from logfirm.firm import FiberProblem, LogPointQuery, firm_check
from logfirm.intlinalg import identity, ilp_budget, ilp_feasible, mat_vec
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

    def test_negative_valuation_rejected(self):
        with pytest.raises(NotAdditive, match="nonnegative"):
            contact_order(orthant_monoid(1), [-1])

    @pytest.mark.parametrize("vals", [
        {(True, 0): 7, (0, 1): 2, (5, 5): 1},
        {(True, 0): 7, (0, 1): 2},
        {(1.0, 0): 7, (0, 1): 2},
        {(1, 0): 7, (0, 1): 2, (5, 5): 1},
        {(1, 0, 0): 7, (0, 1): 2},
        {"(1, 0)": 7, (0, 1): 2},
        {(1, 0): 7},
        {}])
    def test_bad_keys_rejected(self, vals):
        with pytest.raises(ValueError):
            contact_order(orthant_monoid(2), vals)

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

    def test_no_chart(self):
        # no chart, no source cone: the image of an empty source is empty
        n = orthant_monoid(1)
        gamma = firmament_from_charts(n, [])
        assert not firmament_member(gamma, (0,))
        assert firmament_enumerate_box(gamma, 2) == set()

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
    cone, in the order of ``gamma.map.source.maximal``: the chart rows as
    the equations and every facet of the cone as an inequality, so that an
    equation of the cone enters as the pair f, -f."""
    src = gamma.map.source
    out = []
    for cone in src.maximal:
        _, matrix = gamma.map.assignments[src.cone_index(cone)]
        out.append(ilp_feasible(src.ambient_rank, [list(r) for r in matrix],
                                list(coords), [list(f) for f in cone.facets]))
    return out


def prepared_solves(gamma, coords):
    """The witness of each of ``gamma.systems`` for a point, or None, with
    one 0 per cone equation after the point, as ``firmament_member`` solves."""
    return [system.solve(list(coords) + [0] * k) for system, k in gamma.systems]


def assert_witnesses(gamma, coords, witnesses):
    """Each witness is a lattice point of its source cone that the cone's
    chart sends to the point."""
    src = gamma.map.source
    for cone, x in zip(src.maximal, witnesses):
        if x is None:
            continue
        _, matrix = gamma.map.assignments[src.cone_index(cone)]
        assert mat_vec(matrix, x) == tuple(coords), (cone.rays, x, coords)
        assert cone.contains(x), (cone.rays, x)


class TestPreparedSystems:
    """``firmament_member`` solves each point against one integer system per
    source cone, prepared once per firmament."""

    THIN_POINTS = [(x, y) for x in (1, 2, 3, 7, 64, 101, 257, 1000, 1001)
                   for y in (0, 1, 2)]

    def test_same_answers_as_fresh_programs(self):
        # the cone equations enter the Smith form, so a witness may differ
        # from the fresh program's; the feasibility of each cone may not
        checked = 0
        for chart_fn in CHART_FAMILIES + (thin_chart,):
            gamma = firmament_from_charts(*chart_fn())
            points = [p.coordinates for p in lattice_points_box(gamma.map.target, 6)]
            if chart_fn is thin_chart:
                points += self.THIN_POINTS
            for coords in points:
                fresh = fresh_programs(gamma, coords)
                got = prepared_solves(gamma, coords)
                assert [x is not None for x in got] == [x is not None for x in fresh], (
                    chart_fn.__name__, coords)
                assert_witnesses(gamma, coords, got)
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


def explicit_firmament(source_rank, rays, matrix):
    """The firmament of one source cone, cone(rays) in Z^source_rank, sent
    into N by the one-row ``matrix``, read as an explicit JSON map: each
    nonzero face goes to the ray of N, the zero face to 0."""
    faces = cone_complex(source_rank, [rays]).faces
    return firmament_from_json({
        "source": {"ambient_rank": source_rank, "cones": [{"rays": rays}]},
        "target": {"ambient_rank": 1, "cones": [{"rays": [[1]]}]},
        "cones": [{"target": int(bool(face)), "matrix": matrix} for face in faces]})


def brute_force_members(gamma, source_box, points):
    """The points that some lattice point of [-source_box, source_box]^d in
    a maximal source cone maps to: every member, once the box holds a
    preimage of each.  Coordinates on which every ray of the cone is 0 are
    0 on the cone and are not enumerated."""
    src = gamma.map.source
    d = src.ambient_rank
    images = set()
    for cone in src.maximal:
        _, matrix = gamma.map.assignments[src.cone_index(cone)]
        support = [i for i in range(d) if any(r[i] for r in cone.rays)]
        for values in itertools.product(range(-source_box, source_box + 1),
                                        repeat=len(support)):
            x = [0] * d
            for i, v in zip(support, values):
                x[i] = v
            if cone.contains(x):
                images.add(mat_vec(matrix, x))
    return {tuple(p) for p in points} & images


def multi_chart_mix():
    """The charts of ``parity_root`` and ``monomial_x2y3_x`` over one plane."""
    n2, first = parity_root()
    _, second = monomial_x2y3_x()
    return n2, first + second


def units_chart():
    """The identity of N^2 into Z x N, whose dual cone is a ray in Z^2."""
    n2 = orthant_monoid(2)
    return n2, [MonoidHom(n2, saturate(2, [(1, 0), (-1, 0), (0, 1)]), identity(2))]


def group_chart():
    """N into Z: the source cone is the zero cone of Z, its firmament {0}."""
    n1 = orthant_monoid(1)
    return n1, [MonoidHom(n1, saturate(1, [(1,), (-1,)]), [[1]])]


class TestConeEquationsInTheLatticeStep:
    """A source cone of lower dimension enters its equations with the chart
    rows, so its lattice is solved by the Smith form: the answers equal a
    brute-force enumeration of source lattice points and the programs that
    take every facet as an inequality."""

    # (firmament, source box, target box, expected members or None)
    CASES = {
        # lattice points of the span are a(1,1,0) + b(0,1,1): sums 2a + 2b
        "non-coordinate span": (
            lambda: explicit_firmament(3, [[1, 1, 0], [0, 1, 1]], [[1, 1, 1]]),
            8, 12, {(n,) for n in range(0, 13, 2)}),
        # the ray's equation x - 2y = 0 has a non-unit coefficient
        "ray with a non-unit equation": (
            lambda: explicit_firmament(2, [[2, 1]], [[1, 1]]),
            12, 12, {(0,), (3,), (6,), (9,), (12,)}),
        "zero cone of an explicit map": (
            lambda: explicit_firmament(2, [], [[1, 1]]), 3, 4, {(0,)}),
        "zero cone of a chart into a group": (
            lambda: firmament_from_charts(*group_chart()), 3, 4, {(0,)}),
        "chart into a monoid with units": (
            lambda: firmament_from_charts(*units_chart()), 5, 4, None),
        "parity_cover": (lambda: firmament_from_charts(*parity_cover()), 8, 4, None),
        "kummer_two_three": (
            lambda: firmament_from_charts(*kummer_two_three()), 8, 12, None),
        "parity_root and monomial_x2y3_x": (
            lambda: firmament_from_charts(*multi_chart_mix()), 8, 4, None),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES)
    def test_equal_to_enumeration_and_fresh_programs(self, case):
        build_gamma, source_box, target_box, expected = case
        gamma = build_gamma()
        points = [p.coordinates for p in lattice_points_box(gamma.map.target, target_box)]
        brute = brute_force_members(gamma, source_box, points)
        if expected is not None:
            assert brute == expected
        for coords in points:
            fresh = fresh_programs(gamma, coords)
            got = prepared_solves(gamma, coords)
            assert [x is not None for x in got] == [x is not None for x in fresh], coords
            assert_witnesses(gamma, coords, got)
            assert firmament_member(gamma, coords) == (coords in brute), coords

    def test_lower_dimensional_cones_have_equations(self):
        for chart_fn in (parity_cover, kummer_two_three, units_chart, group_chart):
            gamma = firmament_from_charts(*chart_fn())
            assert all(k > 0 for _, k in gamma.systems), chart_fn.__name__
        gamma = firmament_from_charts(*thin_chart())
        assert [k for _, k in gamma.systems] == [0]


def box_smoke_chart():
    """The two-chart map of the firmament box smoke: members are the points
    with an even coordinate."""
    n2 = orthant_monoid(2)
    return n2, [MonoidHom(n2, orthant_monoid(2), [[2, 0], [0, 1]]),
                MonoidHom(n2, orthant_monoid(2), [[1, 0], [0, 2]])]


class TestNoSearch:
    """Each chart of these firmaments is injective on its source cone's
    span, so every box point is decided by the Smith form and a sign check,
    with no search node."""

    FAMILIES = {
        "parity_cover": (parity_cover, lambda a, b: True),
        "kummer_two_three": (kummer_two_three, lambda n: n % 2 == 0 or n % 3 == 0),
        "box smoke": (box_smoke_chart, lambda a, b: a % 2 == 0 or b % 2 == 0),
    }

    @pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES)
    def test_box_points_under_a_zero_budget(self, family):
        chart_fn, member = family
        gamma = firmament_from_charts(*chart_fn())
        points = [p.coordinates for p in lattice_points_box(gamma.map.target, 6)]
        with ilp_budget(0):
            got = {coords: firmament_member(gamma, coords) for coords in points}
        assert got == {coords: member(*coords) for coords in points}
