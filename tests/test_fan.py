"""Tests for cone complexes, integral points, and subdivisions."""

import functools
import itertools
import random
from collections import Counter

import pytest

from fan_oracle import (
    face_cones,
    scan_canonicalize,
    scan_map,
    scan_point,
    smallest_containing,
)
import logfirm.intlinalg
from logfirm import charts
from logfirm.fan import (
    Cone,
    ConeComplexMap,
    IntegralPoint,
    InvalidMap,
    NotPrimitive,
    OutsideSupport,
    PointOutsideCone,
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
from logfirm.intlinalg import identity, mat_vec, primitive

# overlays and subdivisions are assembled unchecked: the oracle checks them
pytestmark = pytest.mark.usefixtures("every_fan_checked")


def ray_sets(c):
    return {cone.rays for cone in c.maximal}


class TestCanonicalizePoint:
    def test_boundary_point_moves_to_axis_ray(self):
        c = orthant(2)
        p = point(c, (0, 3))
        assert c.faces[p.cone_index] == ((0, 1),)

    def test_interior_point_stays(self):
        c = orthant(2)
        p = point(c, (1, 2))
        assert c.faces[p.cone_index] == ((0, 1), (1, 0))
        assert p.coordinates == (1, 2)

    def test_origin_lands_in_zero_cone(self):
        c = orthant(2)
        p = point(c, (0, 0))
        assert c.faces[p.cone_index] == ()

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
        assert f.target.faces[q.cone_index] == ()

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


@pytest.mark.parametrize("call, exc", [
    (lambda: common_refinement(orthant(1), orthant(2)), SupportMismatch),
    (lambda: root_rescale(orthant(2), 0), ValueError),
], ids=["refinement across ranks", "rescale by zero"])
def test_refused_input_raises(call, exc):
    with pytest.raises(exc):
        call()


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
                assert inter.rays in c.faces

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
        d = c.ambient_rank
        corpus.append((c, (complex_map(c, orthant(d), identity(d)),), 0))
    for fam in (charts.kummer_two_three, charts.parity_root, charts.parity_cover,
                charts.monomial_x2y3_x, charts.diagonal_embedding):
        gamma = firmament_from_charts(*fam())
        corpus.append((gamma.map.source, (gamma.map,), 2))
    return corpus


class TestCarrierOracle:
    def test_face_keys_are_make_cone_rays(self):
        for c, maps, _ in carrier_corpus():
            for d in [c] + [f.target for f in maps]:
                assert [cone.rays for cone in face_cones(d)] == list(d.faces)

    def test_point_and_canonicalize_match_oracle(self):
        checked = 0
        for c, _, bound in carrier_corpus():
            cones = face_cones(c)
            for v in itertools.product(range(bound + 1), repeat=c.ambient_rank):
                if not c.supports(v):
                    continue
                expected = smallest_containing(cones, [v])
                assert point(c, v) == IntegralPoint(expected, v)
                for j, cone in enumerate(cones):
                    if cone.contains(v):
                        p = canonicalize_point(c, IntegralPoint(j, v))
                        assert p.cone_index == expected
                checked += 1
        assert checked > 300

    def test_complex_map_and_map_point_match_oracle(self):
        for _, maps, bound in carrier_corpus():
            for f in maps:
                matrix = f.assignments[0][1]
                targets = face_cones(f.target)
                for i, cone in enumerate(face_cones(f.source)):
                    images = [mat_vec(matrix, r) for r in cone.rays]
                    assert f.assignments[i][0] == smallest_containing(targets, images)
                for v in itertools.product(range(bound + 1),
                                           repeat=f.source.ambient_rank):
                    if not f.source.supports(v):
                        continue
                    q = map_point(f, point(f.source, v))
                    assert q.cone_index == smallest_containing(targets, [q.coordinates])

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


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
# maximal cones of dimensions 2, 1 and 3
MIXED = cone_complex(3, [[E1, E2], [E3], [E1, (0, -1, 0), (0, 0, -1)]])
# supports that are not convex: cones that meet only at 0, or along a ray
AT_ZERO = cone_complex(2, [[(1, 0), (1, 1)], [(-1, 0), (-1, -2)]])
AT_ZERO_3 = cone_complex(3, [[E1, E2, E3], [(-1, 0, 0), (0, -1, 0), (-1, -1, -1)]])
ALONG_RAY = cone_complex(3, [[E1, E2, E3], [E1, (0, -1, 0), (0, 0, -1)]])


@functools.lru_cache(maxsize=None)
def locate_corpus():
    """(complex, bound) pairs, without repeats: the complexes of
    ``carrier_corpus`` and the targets of its maps, sigma_n(3, 3), a
    rescaled tower, a fan with lower-dimensional maximal cones, and supports
    that meet only at 0 or along a ray.  The box [-1, bound]^d holds points
    on rays, on walls, at 0 and outside the support."""
    out = {}
    for c, maps, bound in carrier_corpus():
        for d in [c] + [f.target for f in maps]:
            out.setdefault(d, max(bound, 1))
    for c, bound in [(sigma_n(3, 3), 3), (root_rescale(sigma_n(2, 3), 2), 2),
                     (MIXED, 2), (AT_ZERO, 3), (AT_ZERO_3, 2), (ALONG_RAY, 2)]:
        out[c] = bound
    return list(out.items())


def box(c, bound):
    return itertools.product(range(-1, bound * c.scale + 1), repeat=c.ambient_rank)


def outcome(fn, *args):
    """What a call returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except (IndexError, InvalidMap, OutsideSupport, PointOutsideCone) as exc:
        return type(exc)


class TestLocateOracle:
    """``locate`` and everything read from it against the scans it
    replaced (``fan_oracle``), and against ``smallest_containing``."""

    def test_locate_point_and_box(self):
        seen = Counter()
        for c, bound in locate_corpus():
            cones = face_cones(c)
            for v in box(c, bound):
                sigma = c.locate([v])
                want = scan_point(c, v)
                assert (sigma is None) == (want is None)
                assert c.supports(v) == (want is not None)
                assert outcome(point, c, v) == (want or OutsideSupport)
                if want is not None:
                    assert sigma in c.maximal and sigma.contains(v)
                    assert want.cone_index == smallest_containing(cones, [v])
                    seen[len(c.faces[want.cone_index])] += 1
                seen["outside"] += want is None
            top = range(bound * c.scale + 1)
            assert lattice_points_box(c, bound) == {
                p for v in itertools.product(top, repeat=c.ambient_rank)
                if (p := scan_point(c, v)) is not None}
        # points at 0, on rays, on walls, inside, and outside the support
        assert min(seen[k] for k in (0, 1, 2, 3, "outside")) >= 20, seen

    def test_canonicalize_point(self):
        rng = random.Random(2102)
        seen = Counter()
        for c, bound in locate_corpus():
            cones = face_cones(c)
            n = len(cones)
            for v in box(c, bound):
                holding = [j for j, cone in enumerate(cones) if cone.contains(v)]
                # every cone that holds v, some that do not, and wrong indices
                for j in holding + rng.sample(range(n), min(n, 4)) + [n, n + 3, -1]:
                    p = IntegralPoint(j, v)
                    got = outcome(canonicalize_point, c, p)
                    assert got == outcome(scan_canonicalize, c, cones, p), (c, p)
                    seen[got if isinstance(got, type) else "ok"] += 1
        assert min(seen.values()) >= 200, seen
        assert set(seen) == {"ok", PointOutsideCone}

    @pytest.mark.parametrize("index", [-1, -2, 4, 7])
    def test_index_naming_no_cone_is_outside(self, index):
        c = orthant(2)
        assert len(c.faces) == 4
        p = IntegralPoint(index, (1, 2))
        with pytest.raises(PointOutsideCone):
            canonicalize_point(c, p)
        with pytest.raises(PointOutsideCone):
            map_point(complex_map(c, c, identity(c.ambient_rank)), p)
        with pytest.raises(PointOutsideCone):
            c.carrier_in(index, [(1, 2)])

    def test_complex_map_and_map_point(self):
        rng = random.Random(2103)
        seen = Counter()
        complexes = [c for c, _ in locate_corpus()]
        for source, target in itertools.product(complexes, repeat=2):
            if source.ambient_rank != target.ambient_rank or source.scale != target.scale:
                continue
            d = source.ambient_rank
            matrices = [identity(d), [[2 * x for x in row] for row in identity(d)],
                        [[rng.randint(0, 2) for _ in range(d)] for _ in range(d)],
                        [[rng.randint(-1, 2) for _ in range(d)] for _ in range(d)]]
            for matrix in matrices:
                got = outcome(complex_map, source, target, matrix)
                assert got == outcome(scan_map, source, target, matrix)
                if got is InvalidMap:
                    seen["invalid"] += 1
                    continue
                seen["maps"] += 1
                targets = face_cones(target)
                for v in box(source, 1):
                    if source.supports(v):
                        p = point(source, v)
                        idx, m = got.assignments[p.cone_index]
                        q = map_point(got, p)
                        assert q == scan_canonicalize(
                            target, targets, IntegralPoint(idx, mat_vec(m, v)))
                        assert q.cone_index == smallest_containing(targets, [q.coordinates])
                        seen["points"] += 1
        assert seen["invalid"] >= 50 and seen["maps"] >= 50, seen


class TestLocateCounts:
    def test_box_tests_each_cone_once_per_point(self, monkeypatch):
        c = sigma_n(3, 4)
        tested = Counter()

        def contains(cone, v, real=Cone.contains):
            tested[cone.rays, tuple(v)] += 1
            return real(cone, v)

        monkeypatch.setattr(Cone, "contains", contains)
        assert len(lattice_points_box(c, 4)) == 125
        assert max(tested.values()) == 1

    @pytest.mark.parametrize("how", ["canonicalize_point", "map_point"])
    def test_no_face_is_built(self, how, monkeypatch):
        c = sigma_n(3, 4)
        f = complex_map(c, c, identity(c.ambient_rank))
        p = point(c, (1, 2, 3))
        calls = []

        def counting(normals, dim, *start, real=logfirm.intlinalg.dual_rays):
            calls.append(dim)
            return real(normals, dim, *start)

        monkeypatch.setattr(logfirm.intlinalg, "dual_rays", counting)
        q = canonicalize_point(c, p) if how == "canonicalize_point" else map_point(f, p)
        assert q == p
        assert calls == []
