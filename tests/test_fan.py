"""Tests for cone complexes, integral points, and subdivisions."""

import functools
import itertools
import random

import pytest

import logfirm.intlinalg
from logfirm import charts
from logfirm.fan import (
    ConeComplexMap,
    IntegralPoint,
    NotPrimitive,
    OutsideSupport,
    SupportMismatch,
    canonicalize_point,
    common_refinement,
    complex_map,
    cone_complex,
    cone_intersection,
    is_refinement,
    lattice_points_box,
    make_cone,
    map_point,
    orthant,
    point,
    root_rescale,
    sigma_n,
    star_subdivision,
)
from logfirm.firmament import firmament_from_charts
from logfirm.intlinalg import mat_vec, primitive

# overlays and subdivisions are assembled unchecked: the oracle checks them
pytestmark = pytest.mark.usefixtures("every_fan_checked")


def ray_sets(c):
    return {cone.rays for cone in c.maximal}


class TestCanonicalizePoint:
    def test_boundary_point_moves_to_axis_ray(self):
        c = orthant(2)
        p = point(c, (0, 3))
        assert c.cones[p.cone_index].rays == ((0, 1),)

    def test_interior_point_stays(self):
        c = orthant(2)
        p = point(c, (1, 2))
        assert c.cones[p.cone_index].rays == ((0, 1), (1, 0))
        assert p.coordinates == (1, 2)

    def test_origin_lands_in_zero_cone(self):
        c = orthant(2)
        p = point(c, (0, 0))
        assert c.cones[p.cone_index].rays == ()

    def test_outside_raises(self):
        c = orthant(2)
        with pytest.raises(OutsideSupport):
            point(c, (-1, 0))


class TestMapPoint:
    def test_blowup_map_preserves_coordinates(self):
        c = orthant(2)
        sub, f = star_subdivision(c, (1, 1))
        for coords in [(2, 1), (1, 2)]:
            p = point(sub, coords)
            q = map_point(f, p)
            assert q.coordinates == coords

    def test_zero_to_zero(self):
        c = orthant(2)
        sub, f = star_subdivision(c, (1, 1))
        q = map_point(f, point(sub, (0, 0)))
        assert q.coordinates == (0, 0)
        assert f.target.cones[q.cone_index].rays == ()

    def test_doubling_map_on_ray(self):
        n = orthant(1)
        f = complex_map(n, n, [[2]])
        q = map_point(f, point(n, (3,)))
        assert q.coordinates == (6,)

    def test_functoriality(self):
        c = orthant(2)
        s1, f1 = star_subdivision(c, (1, 1))
        s2, f2 = star_subdivision(s1, (2, 1))
        comp = f1.compose(f2)
        for coords in itertools.product(range(4), repeat=2):
            p = point(s2, coords)
            assert map_point(comp, p) == map_point(f1, map_point(f2, p))


class TestStarSubdivision:
    def test_orthant_at_diagonal(self):
        sub, _ = star_subdivision(orthant(2), (1, 1))
        assert ray_sets(sub) == {((0, 1), (1, 1)), ((1, 0), (1, 1))}

    def test_at_existing_ray_unchanged(self):
        c = orthant(2)
        sub, _ = star_subdivision(c, (1, 0))
        assert sub.same_cones(c)

    def test_orthant3_at_barycenter(self):
        sub, _ = star_subdivision(orthant(3), (1, 1, 1))
        assert len(sub.maximal) == 3

    def test_not_primitive(self):
        with pytest.raises(NotPrimitive):
            star_subdivision(orthant(2), (2, 2))

    def test_outside_support(self):
        with pytest.raises(OutsideSupport):
            star_subdivision(orthant(2), (-1, 1))

    def test_point_bijection_box10(self):
        # integral points before and after subdivision match under the map
        c = orthant(2)
        sub, f = star_subdivision(c, (1, 1))
        before = lattice_points_box(c, 10)
        after = lattice_points_box(sub, 10)
        assert len(before) == 121 and len(after) == 121
        images = {map_point(f, p) for p in after}
        assert images == before


class TestCommonRefinement:
    def test_self_overlay_identity(self):
        c, _ = star_subdivision(orthant(2), (1, 1))
        assert common_refinement(c, c).same_cones(c)

    def test_two_diagonals(self):
        a, _ = star_subdivision(orthant(2), (1, 1))
        b, _ = star_subdivision(orthant(2), (1, 2))
        r = common_refinement(a, b)
        assert ray_sets(r) == {
            ((1, 0), (1, 1)),
            ((1, 1), (1, 2)),
            ((0, 1), (1, 2)),
        }

    def test_overlay_with_orthant_identity(self):
        a, _ = star_subdivision(orthant(2), (1, 1))
        assert common_refinement(a, orthant(2)).same_cones(a)

    def test_support_mismatch(self):
        half = cone_complex(2, [[(1, 0), (1, 1)]])
        with pytest.raises(SupportMismatch):
            common_refinement(half, orthant(2))


class TestSigmaN:
    def test_sigma_1_rank_2(self):
        s = sigma_n(2, 1)
        rays = {r for c in s.maximal for r in c.rays}
        assert rays == {(1, 0), (1, 1), (0, 1)}
        assert len(s.maximal) == 2

    def test_sigma_2_rank_2(self):
        s = sigma_n(2, 2)
        rays = {r for c in s.maximal for r in c.rays}
        assert rays == {(1, 0), (2, 1), (1, 1), (1, 2), (0, 1)}
        assert len(s.maximal) == 4

    def test_sigma_1_rank_1_trivial(self):
        s = sigma_n(1, 1)
        assert s.same_cones(orthant(1))

    def test_tower_refines(self):
        for n in (2, 3):
            assert is_refinement(sigma_n(2, n), sigma_n(2, n - 1))
        assert is_refinement(sigma_n(3, 2), sigma_n(3, 1))

    def test_refines_each_star_subdivision(self):
        n = 2
        for v in itertools.product(range(n + 1), repeat=2):
            if not any(v):
                continue
            from logfirm.intlinalg import primitive
            if primitive(v) != v:
                continue
            sub, _ = star_subdivision(orthant(2), v)
            assert is_refinement(sigma_n(2, n), sub)

    def test_refines_ordered_iterated_stellar(self):
        # all orders of iterated stellar subdivision at three vectors with
        # coordinates at most 2 are refined by the level-2 overlay
        vecs = [(1, 2), (2, 1), (1, 1)]
        s2 = sigma_n(2, 2)
        for order in itertools.permutations(vecs):
            c = orthant(2)
            for v in order:
                c, _ = star_subdivision(c, v)
            assert is_refinement(s2, c)


class TestRootRescale:
    def test_identity(self):
        c = orthant(2)
        assert root_rescale(c, 1) is c

    def test_half_point_becomes_integral(self):
        n = root_rescale(orthant(1), 2)
        pts = lattice_points_box(n, 1)
        assert {p.coordinates for p in pts} == {(0,), (1,), (2,)}

    def test_sigma_prime(self):
        s = root_rescale(sigma_n(2, 2), 2)
        assert s.scale == 2
        assert ray_sets(s) == ray_sets(sigma_n(2, 2))

    def test_index_per_cone(self):
        c = root_rescale(orthant(2), 2)
        assert len(lattice_points_box(c, 1)) == 9  # (2*1+1)^2

    @pytest.mark.parametrize("scale", [0, -1])
    def test_complex_scale_below_one_rejected(self, scale):
        with pytest.raises(ValueError):
            cone_complex(2, [[(1, 0), (0, 1)]], scale=scale)


class TestIsRefinement:
    def test_sigma_2_refines_sigma_1(self):
        assert is_refinement(sigma_n(2, 2), sigma_n(2, 1))

    def test_sigma_1_does_not_refine_sigma_2(self):
        assert not is_refinement(sigma_n(2, 1), sigma_n(2, 2))

    def test_reflexive(self):
        s = sigma_n(2, 2)
        assert is_refinement(s, s)


class TestLatticePointsBox:
    def test_orthant_box2(self):
        assert len(lattice_points_box(orthant(2), 2)) == 9

    def test_subdivision_same_count(self):
        sub, _ = star_subdivision(orthant(2), (1, 1))
        assert len(lattice_points_box(sub, 2)) == 9

    def test_points_are_canonical(self):
        c, _ = star_subdivision(orthant(2), (1, 1))
        for p in lattice_points_box(c, 3):
            assert canonicalize_point(c, p) == p


class TestWellFormedness:
    def test_make_cone_one_double_description(self, monkeypatch):
        calls = []

        def counting(normals, dim, *start, real=logfirm.intlinalg.dual_rays):
            calls.append(dim)
            return real(normals, dim, *start)

        monkeypatch.setattr(logfirm.intlinalg, "dual_rays", counting)
        # a simplicial cone, rank-many independent rays, takes none
        for rank, rays in [(2, [(1, 0), (0, 1)]),
                           (2, [(2, 0), (0, 1), (1, 0), (0, 0)]),
                           (3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)]),
                           (3, [(2, 0, 0), (0, 3, 0), (1, 1, 4)]),
                           (4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                (1, 1, 0, 1)])]:
            calls.clear()
            make_cone(rank, rays)
            assert calls == []
        for rank, rays in [(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0)]),
                           (3, [(1, 1, 1)]),
                           (4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                (1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)])]:
            calls.clear()
            make_cone(rank, rays)
            assert calls == [rank]

    def test_intersections_are_faces_after_operations(self):
        complexes = [
            orthant(2),
            star_subdivision(orthant(2), (1, 1))[0],
            sigma_n(2, 2),
            star_subdivision(orthant(3), (1, 1, 1))[0],
        ]
        for c in complexes:
            for a, b in itertools.combinations(c.maximal, 2):
                inter = cone_intersection(a, b)
                assert any(inter.rays == f.rays for f in c.cones)

    def test_bad_complex_rejected(self):
        with pytest.raises(ValueError):
            cone_complex(2, [[(1, 0), (1, 2)], [(1, 1), (0, 1)]])

    def test_ray_inside_a_cone_rejected(self):
        # the ray meets the 2-cone in itself, which is not a face of it
        with pytest.raises(ValueError):
            cone_complex(2, [[(1, 0), (0, 1)], [(1, 1)]])

    def test_cone_listed_with_its_face_accepted(self):
        e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        c = cone_complex(3, [[e1, e2, e3], [e1, e2], [e3], []])
        assert ray_sets(c) == {(e3, e2, e1)}
        assert len(c.faces) == 8


def smallest_containing(c, vectors):
    """Test-only oracle for ``ConeComplex.carrier``: scan every cone of the
    complex and return the index of the one containing the vectors that
    lies inside every other cone containing them."""
    containing = [i for i, cone in enumerate(c.cones)
                  if all(cone.contains(v) for v in vectors)]
    smallest = [i for i in containing
                if all(c.cones[j].contains(r) for j in containing
                       for r in c.cones[i].rays)]
    assert len(smallest) == 1
    return smallest[0]


@functools.lru_cache(maxsize=None)
def carrier_corpus():
    """(complex, maps out of it, box bound) on a seeded corpus."""
    corpus = [(sigma_n(2, n), (), 4) for n in (2, 3, 4)]
    corpus.append((sigma_n(3, 2), (), 2))
    rng = random.Random(3113)
    for _ in range(4):
        c, maps = orthant(3), []
        for _ in range(3):
            v = tuple(rng.randint(0, 3) for _ in range(3))
            if any(v) and primitive(v) == v:
                c, f = star_subdivision(c, v)
                maps.append(f)
        corpus.append((c, tuple(maps[-1:]), 3))
    for c, _, _ in list(corpus):
        corpus.append((c, (complex_map(c, orthant(c.ambient_rank)),), 0))
    for fam in (charts.kummer_two_three, charts.parity_root, charts.parity_cover,
                charts.monomial_x2y3_x, charts.diagonal_embedding):
        gamma = firmament_from_charts(*fam())
        corpus.append((gamma.map.source, (gamma.map,), 2))
    return corpus


class TestCarrierOracle:
    def test_cones_built_on_demand_equal_make_cone(self):
        for c, maps, _ in carrier_corpus():
            for d in [c] + [f.target for f in maps]:
                assert [cone.rays for cone in d.cones] == list(d.faces)
                for rays, cone in zip(d.faces, d.cones):
                    assert cone == make_cone(d.ambient_rank, rays)

    def test_point_and_canonicalize_match_oracle(self):
        checked = 0
        for c, _, bound in carrier_corpus():
            for v in itertools.product(range(bound + 1), repeat=c.ambient_rank):
                if not c.supports(v):
                    continue
                expected = smallest_containing(c, [v])
                assert point(c, v) == IntegralPoint(expected, v)
                for j, cone in enumerate(c.cones):
                    if cone.contains(v):
                        p = canonicalize_point(c, IntegralPoint(j, v))
                        assert p.cone_index == expected
                checked += 1
        assert checked > 300

    def test_complex_map_and_map_point_match_oracle(self):
        for _, maps, bound in carrier_corpus():
            for f in maps:
                matrix = [list(r) for r in f.assignments[0][1]]
                for i, cone in enumerate(f.source.cones):
                    images = [tuple(mat_vec(matrix, list(r))) for r in cone.rays]
                    assert f.assignments[i][0] == smallest_containing(
                        f.target, images)
                for v in itertools.product(range(bound + 1),
                                           repeat=f.source.ambient_rank):
                    if not f.source.supports(v):
                        continue
                    q = map_point(f, point(f.source, v))
                    assert q.cone_index == smallest_containing(
                        f.target, [q.coordinates])

    @pytest.mark.parametrize("rays", [
        [(1, 0), (-1, 0), (0, 1), (0, -1)],   # the whole plane
        [(1, 0), (-1, 0), (0, 1)],            # a half-plane
        [(1, 1), (-1, -1)],                   # a line
    ])
    def test_cone_with_a_line_rejected(self, rays):
        with pytest.raises(ValueError, match="is not sharp"):
            cone_complex(2, [rays])
        with pytest.raises(ValueError, match="is not sharp"):
            make_cone(2, rays)
