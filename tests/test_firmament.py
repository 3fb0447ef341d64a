"""Tests for firmament construction, membership, and contact orders."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import floor

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
from logfirm.fan import (
    ConeComplexMap,
    InvalidMap,
    complex_map,
    cone_complex,
    lattice_points_box,
    orthant,
    point,
    star_subdivision,
)
from logfirm.firm import FiberProblem, LogPointQuery, firm_check
from logfirm.intlinalg import (
    dot,
    identity,
    ilp_budget,
    ilp_feasible,
    kernel_and_cokernel,
    mat_vec,
    smith_normal_form,
)
from logfirm.firmament import (
    ContactOrder,
    Firmament,
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

    @pytest.mark.parametrize("pt", [[0.5, 0.5], [1.0, 1], [True, 1]])
    def test_point_must_be_a_lattice_point(self, pt):
        # these were answered False, True and True
        _, _, gamma = build(parity_cover)
        with pytest.raises(ValueError, match="integer entries"):
            firmament_member(gamma, pt)

    @pytest.mark.parametrize("charts", [0, 1, 2])
    def test_long_point_with_or_without_a_source_cone(self, charts):
        # the length is checked before any solve: with no chart there is
        # no system to reject the point
        n2 = orthant_monoid(2)
        gamma = firmament_from_charts(n2, [identity_hom(n2)] * charts)
        with pytest.raises(ValueError):
            firmament_member(gamma, (1, 2, 3))
        with pytest.raises(ValueError):
            firmament_member(gamma, (1,))
        assert firmament_member(gamma, (1, 2)) == (charts > 0)


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

    @pytest.mark.parametrize("vals", [[1.5, 2], [True, 2], [1], [1, 2, 3],
                                      {(1, 0): True, (0, 1): 2}])
    def test_values_must_be_one_integer_per_generator(self, vals):
        # True was read as 1, and 1.5 was reported as NotAdditive, a
        # mathematical no
        with pytest.raises(ValueError):
            contact_order(orthant_monoid(2), vals)

    def test_not_additive(self):
        q = in_group_coordinates(saturate(2, [(2, 0), (1, 1), (0, 2)]))
        # generators satisfy h1 + h3 = 2 h2; valuations 1,0,0 break it
        hb = list(q.hilbert)
        vals = {hb[0]: 1, hb[1]: 0, hb[2]: 0}
        with pytest.raises(NotAdditive):
            contact_order(q, vals)


class TestFirmamentChecksItsMap:
    def test_face_matrix_other_than_its_maximal_cone(self):
        # membership reads the maximal cone's matrix (2, 2) alone: built
        # unchecked, this map answered False at (2,) and True at (5,),
        # though its rays' own matrices send them to 7 and 5
        f = ConeComplexMap(orthant(2), cone_complex(1, [[[1]]]), (
            (0, ((0, 0),)), (1, ((7, 7),)), (1, ((5, 5),)), (1, ((2, 2),))))
        with pytest.raises(ValueError, match="differs on its rays"):
            Firmament(f)

    def test_matrix_outside_its_target_cone(self):
        f = ConeComplexMap(orthant(1), orthant(1), ((0, ((0,),)), (1, ((-1,),))))
        with pytest.raises(InvalidMap, match="does not send it into target cone 1"):
            Firmament(f)

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_assignment_per_source_cone(self, count):
        # orthant(1) has two cones: built unchecked, one assignment raised
        # KeyError and a third was ignored
        assignments = ((0, ((0,),)), (1, ((1,),)), (1, ((2,),)))[:count]
        f = ConeComplexMap(orthant(1), orthant(1), assignments)
        with pytest.raises(ValueError, match=f"the map has {count} cone assignments, "
                                             r"expected one per source cone \(2\)"):
            Firmament(f)

    @pytest.mark.parametrize("index", [-1, 2, True])
    def test_each_assignment_names_a_target_cone(self, index):
        # -1 and 2 raised PointOutsideCone, and True was read as cone 1
        f = ConeComplexMap(orthant(1), orthant(1), ((0, ((0,),)), (index, ((1,),))))
        with pytest.raises(ValueError, match=rf"target cone index {index!r} is not in \[0, 2\)"):
            Firmament(f)


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
                assert dual_cone_complex(m).maximal[0].rays == m.cone.facets

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


def span_lattice(cone):
    """A Z-basis of span(cone) ∩ Z^n found from the rays alone: the integer
    kernel of the normals of the rays.  It is the Hermite basis, which the
    lattice determines, so a system written in another basis of the same
    lattice maps its witnesses back to the same points."""
    if not cone.rays:
        return ()
    normals = kernel_and_cokernel([list(r) for r in cone.rays],
                                  cone.ambient_rank).kernel_basis
    if not normals:
        return tuple(tuple(row) for row in identity(cone.ambient_rank))
    return kernel_and_cokernel([list(v) for v in normals], cone.ambient_rank).kernel_basis


def prepared_solves(gamma, coords):
    """The witness of each of ``gamma.systems`` for a point, or None, mapped
    from the system's span coordinates t back to the source point K·t."""
    out = []
    for cone, system in zip(gamma.map.source.maximal, gamma.systems):
        t = system.preimage(list(coords))
        basis = span_lattice(cone)
        out.append(None if t is None else tuple(
            sum(ti * k[j] for ti, k in zip(t, basis)) for j in range(cone.ambient_rank)))
    return out


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
        # each system solves in its cone's span, so a witness may differ
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
                # one Smith form per source cone for its span, the kernel of
                # no rows for a full cone, and one for its system
                maximal = gamma.map.source.maximal
                assert calls["smith_normal_form"] == 2 * len(maximal)
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


def members_by_enumeration(gamma, points):
    """The points that some lattice point of a maximal source cone maps to,
    by enumerating every lattice point of each cone in a box that holds a
    preimage of each of them; the target complex is one cone.

    Let w be the sum of the target cone's facets, so w·v >= 1 for every
    nonzero lattice point v of the target cone, and let y = Σ μ_k r_k,
    μ >= 0, be a lattice point of a source cone with rays r_k that the
    cone's matrix M sends to a point n.  The rays with w·M r_k >= 1 carry
    a total μ of at most w·n / min(w·M r_k), and subtracting ⌊μ_k⌋ r_k for
    each ray with M r_k = 0 leaves a lattice point of the cone with the
    same image, whose other μ_k are below 1.  So some preimage has each
    coordinate y_j between that total mass times min(0, min_k r_k,j) and
    times max(0, max_k r_k,j)."""
    target_cone, = gamma.map.target.maximal
    w = [sum(col) for col in zip(*target_cone.facets)]
    reach = max(dot(w, n) for n in points)
    src = gamma.map.source
    images = set()
    for cone in src.maximal:
        _, matrix = gamma.map.assignments[src.cone_index(cone)]
        weights = [dot(w, mat_vec(matrix, r)) for r in cone.rays]
        positive = [a for a in weights if a > 0]
        mass = Fraction(reach, min(positive)) if positive else 0
        mass += len(weights) - len(positive)
        # a coordinate on which every ray is 0 is 0 on the cone
        support = [j for j in range(src.ambient_rank) if any(r[j] for r in cone.rays)]
        facets = [[f[j] for j in support] for f in cone.facets]
        columns = [[row[j] for j in support] for row in matrix]
        box = [range(floor(mass * min(0, *(r[j] for r in cone.rays))),
                     floor(mass * max(0, *(r[j] for r in cone.rays))) + 1)
               for j in support]
        for y in itertools.product(*box):
            if all(dot(f, y) >= 0 for f in facets):
                images.add(tuple(dot(row, y) for row in columns))
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
    """A source cone of lower dimension is solved in the coordinates of its
    span's lattice, so its equations hold for every t and the chart rows
    alone go to the Smith form: the answers equal a brute-force enumeration
    of source lattice points and the programs that take every facet as an
    inequality."""

    # (firmament, target box, expected members or None)
    CASES = {
        # lattice points of the span are a(1,1,0) + b(0,1,1): sums 2a + 2b
        "non-coordinate span": (
            lambda: explicit_firmament(3, [[1, 1, 0], [0, 1, 1]], [[1, 1, 1]]),
            12, {(n,) for n in range(0, 13, 2)}),
        # the ray's equation x - 2y = 0 has a non-unit coefficient
        "ray with a non-unit equation": (
            lambda: explicit_firmament(2, [[2, 1]], [[1, 1]]),
            12, {(0,), (3,), (6,), (9,), (12,)}),
        "zero cone of an explicit map": (
            lambda: explicit_firmament(2, [], [[1, 1]]), 4, {(0,)}),
        "zero cone of a chart into a group": (
            lambda: firmament_from_charts(*group_chart()), 4, {(0,)}),
        "chart into a monoid with units": (
            lambda: firmament_from_charts(*units_chart()), 4, None),
        "parity_cover": (lambda: firmament_from_charts(*parity_cover()), 4, None),
        "kummer_two_three": (
            lambda: firmament_from_charts(*kummer_two_three()), 12, None),
        "parity_root and monomial_x2y3_x": (
            lambda: firmament_from_charts(*multi_chart_mix()), 4, None),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES)
    def test_equal_to_enumeration_and_fresh_programs(self, case):
        build_gamma, target_box, expected = case
        gamma = build_gamma()
        points = [p.coordinates for p in lattice_points_box(gamma.map.target, target_box)]
        brute = members_by_enumeration(gamma, points)
        if expected is not None:
            assert brute == expected
        for coords in points:
            fresh = fresh_programs(gamma, coords)
            got = prepared_solves(gamma, coords)
            assert [x is not None for x in got] == [x is not None for x in fresh], coords
            assert_witnesses(gamma, coords, got)
            assert firmament_member(gamma, coords) == (coords in brute), coords

    def test_each_system_has_the_dimension_of_its_cone(self):
        dims = {thin_chart: [4], parity_cover: [2, 2, 2], kummer_two_three: [1, 1],
                units_chart: [1], group_chart: [0], multi_chart_mix: [2, 2]}
        for chart_fn, want in dims.items():
            gamma = firmament_from_charts(*chart_fn())
            assert [system.cols for system in gamma.systems] == want, chart_fn.__name__
            assert want == [len(span_lattice(cone)) for cone in gamma.map.source.maximal]


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


def random_chart_target(rng, rank):
    """A saturated monoid of the given rank: N^rank, a sharp monoid from
    random generators in {0..3}^rank, or one whose units are the first
    axis (at rank 1, the group Z)."""
    kind = rng.choice(("orthant", "sharp", "sharp", "units"))
    if kind == "orthant":
        return kind, orthant_monoid(rank)
    while True:
        gens = [tuple(rng.randint(0, 3) for _ in range(rank))
                for _ in range(rng.randint(rank, rank + 2))]
        if kind == "units":
            gens += [tuple(int(i == 0) for i in range(rank)),
                     tuple(-int(i == 0) for i in range(rank))]
        m = saturate(rank, gens)
        if m.group_rank == rank and m.sharp == (kind == "sharp"):
            return kind, m


def random_chart_firmament(rng):
    """P = N^p with p <= 2 and one to three charts θᵢ: P → Qᵢ with Qᵢ of
    rank 1 to 3, with labels: the number of charts, and the kind and the
    rank of each Qᵢ.  Each generator of P goes to a sum of zero to two
    generators of Qᵢ."""
    p = orthant_monoid(rng.randint(1, 2))
    count = rng.randint(1, 3)
    labels, charts = [f"{count} charts"], []
    for _ in range(count):
        kind, q = random_chart_target(rng, rng.randint(1, 3))
        cols = []
        for _ in range(p.ambient_rank):
            v = (0,) * q.ambient_rank
            for _ in range(rng.randint(0, 2)):
                v = tuple(a + b for a, b in zip(v, rng.choice(q.generators)))
            cols.append(v)
        labels += [kind, f"rank {q.group_rank}"]
        charts.append(MonoidHom(p, q, [[c[i] for c in cols] for i in range(q.ambient_rank)]))
    return labels, firmament_from_charts(p, charts)


def random_explicit_firmament(rng):
    """One source cone of dimension d in Z^(d+1) whose rays generate a
    proper sublattice of its span's lattice: its rays are B·a_k for d
    columns B of a random unimodular matrix and vectors a_k in Z^d with a
    first entry >= 1 that generate a sublattice of index >= 2.  A random
    matrix sends it into N^r, r <= 2, or into the cone of (1,1), (1,-1)."""
    d = rng.randint(2, 3)
    n = d + 1
    unimodular = identity(n)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        unimodular[i] = [a + rng.choice((-1, 1)) * b
                         for a, b in zip(unimodular[i], unimodular[j])]
    while True:
        coeffs = [[rng.randint(1, 3)] + [rng.randint(-2, 2) for _ in range(d - 1)]
                  for _ in range(rng.randint(d, d + 1))]
        snf = smith_normal_form(coeffs, d)
        if snf.rank == d and snf.divisors[d - 1] > 1:
            break
    rays = [mat_vec(unimodular, list(a) + [0]) for a in coeffs]
    source = cone_complex(n, [rays])
    sigma, = source.maximal
    target = rng.choice((cone_complex(1, [[[1]]]), cone_complex(2, [identity(2)]),
                         cone_complex(2, [[[1, 1], [1, -1]]])))
    tau, = target.maximal
    while True:
        matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(target.ambient_rank)]
        if all(tau.contains(mat_vec(matrix, r)) for r in sigma.rays):
            return Firmament(complex_map(source, target, matrix))


def ray_lattice_index(cone):
    """The index of the lattice of the rays in its saturation."""
    snf = smith_normal_form([list(r) for r in cone.rays] or [[0] * cone.ambient_rank],
                            cone.ambient_rank)
    index = 1
    for d in snf.divisors[:snf.rank]:
        index *= d
    return index


class TestSpanOracle:
    """Membership, solved in each source cone's span, equals a complete
    brute-force enumeration of source lattice points and one fresh program
    per cone over all source coordinates, on seeded firmaments: one to
    three charts into targets of rank 1 to 3, orthants or not, some with
    units; and explicit maps of cones whose rays generate a proper
    sublattice of the lattice of their span."""

    def check(self, gamma, box, seen):
        points = [p.coordinates for p in lattice_points_box(gamma.map.target, box)]
        brute = members_by_enumeration(gamma, points)
        for coords in points:
            fresh = fresh_programs(gamma, coords)
            got = prepared_solves(gamma, coords)
            assert [x is not None for x in got] == [x is not None for x in fresh], coords
            assert_witnesses(gamma, coords, got)
            member = firmament_member(gamma, coords)
            assert member == (coords in brute), coords
            seen["member" if member else "not a member"] += 1
        for cone in gamma.map.source.maximal:
            if not cone.full and ray_lattice_index(cone) > 1:
                seen["finer span than rays"] += 1

    def test_seeded_firmaments(self):
        rng = random.Random(2809)
        seen = Counter()
        for _ in range(120):
            labels, gamma = random_chart_firmament(rng)
            self.check(gamma, 3 if gamma.map.target.ambient_rank == 1 else 2, seen)
            seen.update(labels)
        for _ in range(40):
            self.check(random_explicit_firmament(rng), 2, seen)
            seen["explicit"] += 1
        assert min(seen.values()) >= 30, seen

    def test_rays_of_index_two(self):
        # the map of the firmament span smoke: (1, 0) is the image of
        # (1, 0, 0), which lies in the cone but not in the lattice of its rays
        gamma = Firmament(complex_map(cone_complex(3, [[[1, 1, 0], [1, -1, 0]]]),
                                      cone_complex(2, [[[1, 1], [1, -1]]]),
                                      [[1, 0, 0], [0, 1, 0]]))
        seen = Counter()
        self.check(gamma, 4, seen)
        assert seen["finer span than rays"] == 1
        got = {p.coordinates for p in firmament_enumerate_box(gamma, 4)}
        assert got == {(a, b) for a in range(5) for b in range(a + 1)}
