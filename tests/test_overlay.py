"""Exact support comparison in ``common_refinement`` and ``is_refinement``,
checked against independent oracles: an exact merge of angular sectors in
rank 2, known answers on star subdivisions in rank 3, the old probe of the
integer points of [-3, 3]^d as a one-sided check, and the overlay with one
double description per pair of maximal cones."""

import functools
import itertools
import random
from collections import Counter

import pytest

from fan_oracle import all_pairs_overlay, facets_to_rays, fan_faults, is_face, scan_map
from logfirm import fan, intlinalg
from logfirm.fan import (
    SupportMismatch,
    common_refinement,
    cone_complex,
    is_refinement,
    make_cone,
    orthant,
    star_subdivision,
)
from logfirm.intlinalg import dot, hermite_normal_form, primitive

# overlays and subdivisions are assembled unchecked: the oracle checks them
pytestmark = pytest.mark.usefixtures("every_fan_checked")
# the overlay's assembly without that check, for counting the double
# descriptions the overlay makes
unchecked_overlay = fan._overlay


def assert_mismatch(f1, f2):
    with pytest.raises(SupportMismatch):
        common_refinement(f1, f2)
    assert not is_refinement(f1, f2)


def assert_overlay(f1, f2):
    """The overlay exists and refines both fans."""
    r = common_refinement(f1, f2)
    assert is_refinement(r, f1) and is_refinement(r, f2)
    return r


def probe_differs(f1, f2) -> bool:
    """Test-only, one-sided oracle: whether the supports differ at an
    integer point of [-3, 3]^d.  It cannot see steep differences."""
    return any(f1.supports(p) != f2.supports(p)
               for p in itertools.product(range(-3, 4), repeat=f1.ambient_rank))


# ---------------------------------------------------------------------------
# the steep family: the two supports differ only beyond any small probe box


class TestSteepFamily:
    @pytest.mark.parametrize("k", range(2, 61))
    def test_rank_2(self, k):
        a = cone_complex(2, [[(1, 0), (1, k)]])
        b = cone_complex(2, [[(1, 0), (1, k + 1)]])
        assert_mismatch(a, b)
        assert_mismatch(b, a)

    def test_rank_3(self):
        a = cone_complex(3, [[(1, 0, 0), (0, 1, 0), (1, 0, 9)]])
        b = cone_complex(3, [[(1, 0, 0), (0, 1, 0), (1, 0, 10)]])
        assert not probe_differs(a, b)
        assert_mismatch(a, b)
        assert_mismatch(b, a)


class TestLattice:
    def test_overlay_lives_on_the_lcm_lattice(self):
        halves = cone_complex(2, [[(1, 0), (0, 1)]], scale=2)
        r = assert_overlay(orthant(2), halves)
        assert r.scale == 2
        thirds = cone_complex(2, [[(1, 0), (0, 1)]], scale=3)
        assert assert_overlay(halves, thirds).scale == 6

    def test_coarser_lattice_is_not_a_refinement(self):
        halves = cone_complex(2, [[(1, 0), (0, 1)]], scale=2)
        assert not is_refinement(orthant(2), halves)


# ---------------------------------------------------------------------------
# rank 2: an exact oracle from angular sectors


def cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _ccw(u, v) -> int:
    """Order by angle from the positive x-axis, counterclockwise."""
    def half(w):
        return 0 if w[1] > 0 or (w[1] == 0 and w[0] > 0) else 1
    return (half(u) - half(v)) or -cross(u, v)


def ccw_sorted(vectors):
    return sorted(set(vectors), key=functools.cmp_to_key(_ccw))


def in_sector(v, s, e) -> bool:
    """Whether v lies in the sharp sector from s counterclockwise to e."""
    return cross(s, v) >= 0 and cross(v, e) >= 0


def support_of(c):
    """Exact support of a rank-2 fan: "full", or the merged arcs (from,
    to) counterclockwise plus the rays that lie in no arc."""
    sectors = {}
    for cone in c.maximal:
        if len(cone.rays) == 2:
            s, e = cone.rays if cross(*cone.rays) > 0 else cone.rays[::-1]
            sectors[s] = e
    if sectors and set(sectors) <= set(sectors.values()):
        return "full"
    arcs = set()
    for s in set(sectors) - set(sectors.values()):
        e = sectors[s]
        while e in sectors:
            e = sectors[e]
        arcs.add((s, e))
    rays = {cone.rays[0] for cone in c.maximal if len(cone.rays) == 1
            and not any(in_sector(cone.rays[0], s, e) for s, e in sectors.items())}
    return frozenset(arcs), frozenset(rays)


def random_direction(rng):
    while True:
        v = (rng.randint(-30, 30), rng.randint(-30, 30))
        if any(v):
            return primitive(v)


def random_rank2_pair(rng):
    """Two rank-2 fans, subdivided differently from one base of sectors
    between angularly consecutive directions, the second sometimes with a
    cone dropped or a ray nudged."""
    base = ccw_sorted(random_direction(rng) for _ in range(rng.randint(2, 6)))
    gaps = list(zip(base, base[1:] + base[:1])) if len(base) > 1 else []
    filled = [g for g in gaps if cross(*g) > 0 and rng.random() < 0.7]
    lone = [d for d in base
            if not any(d in g for g in filled) and rng.random() < 0.5]

    def build():
        extra = [random_direction(rng) for _ in range(rng.randint(0, 4))]
        cones = [[d] for d in lone]
        for s, e in filled:
            inside = ccw_sorted(v for v in extra if in_sector(v, s, e)
                                and v not in (s, e))
            chain = [s] + inside + [e]
            cones += [list(pair) for pair in zip(chain, chain[1:])]
        return cones

    first, second = build(), build()
    if second and rng.random() < 0.5:
        i = rng.randrange(len(second))
        if rng.random() < 0.5:
            del second[i]
        else:
            j = rng.randrange(len(second[i]))
            x, y = second[i][j]
            dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
            second[i][j] = (x + dx, y + dy)
    return first, second


def rank2_fan(cones):
    """The fan, or None when the cones do not form a fan of sharp cones."""
    if any(len(c) == 2 and cross(*c) == 0 for c in cones):
        return None
    try:
        return cone_complex(2, cones)
    except ValueError:
        return None


@functools.lru_cache(maxsize=None)
def rank2_corpus():
    rng = random.Random(20250)
    pairs = []
    while len(pairs) < 200:
        f1, f2 = (rank2_fan(c) for c in random_rank2_pair(rng))
        if f1 is not None and f2 is not None:
            pairs.append((f1, f2))
    return pairs


class TestRank2Oracle:
    def test_overlay_matches_sector_oracle(self):
        verdicts = []
        for f1, f2 in rank2_corpus():
            same = support_of(f1) == support_of(f2)
            verdicts.append(same)
            if same:
                r = assert_overlay(f1, f2)
                assert support_of(r) == support_of(f1)
            else:
                assert_mismatch(f1, f2)
                assert_mismatch(f2, f1)
        # both answers are well represented
        assert verdicts.count(True) >= 70 and verdicts.count(False) >= 70


# ---------------------------------------------------------------------------
# rank 3: star subdivisions of one base, and the same with a cone dropped

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _neg(v):
    return tuple(-x for x in v)


@functools.lru_cache(maxsize=None)
def rank3_corpus():
    """(base, subdivisions of it, each subdivision with one cone dropped)."""
    base = cone_complex(3, [[E1, E2, E3], [E1, E2, _neg(E3)], [_neg(E1), E2, E3]])
    rng = random.Random(4177)
    subdivisions = []
    for _ in range(6):
        c = base
        for _ in range(rng.randint(1, 3)):
            while True:
                v = tuple(rng.randint(-3, 3) for _ in range(3))
                if (any(v) and primitive(v) == v and c.supports(v)
                        and not any(v in m.rays for m in c.maximal)):
                    break
            c, _ = star_subdivision(c, v)
        subdivisions.append(c)
    dropped = []
    for c in subdivisions:
        keep = list(c.maximal)
        del keep[rng.randrange(len(keep))]
        dropped.append(cone_complex(3, [m.rays for m in keep]))
    return base, subdivisions, dropped


class TestRank3Corpus:
    def test_subdivisions_are_accepted(self):
        base, subdivisions, _ = rank3_corpus()
        for c in subdivisions:
            assert is_refinement(c, base)
        for a, b in itertools.combinations(subdivisions, 2):
            assert_overlay(a, b)

    def test_dropping_a_cone_is_rejected(self):
        base, subdivisions, dropped = rank3_corpus()
        for c, d in zip(subdivisions, dropped):
            assert all(m.dim == 3 for m in c.maximal)
            assert_mismatch(d, c)
            assert_mismatch(c, d)
            assert_mismatch(d, base)

    def test_probe_is_a_one_sided_oracle(self):
        base, subdivisions, dropped = rank3_corpus()
        fans = [base] + subdivisions + dropped
        for a, b in itertools.combinations(fans, 2):
            if probe_differs(a, b):
                assert_mismatch(a, b)


class TestMixedDimensions:
    # a 2-cone and a ray of Z^3
    FAN = cone_complex(3, [[E1, E2], [(-1, -1, 1)]])

    def test_against_its_subdivision(self):
        sub, _ = star_subdivision(self.FAN, (1, 1, 0))
        assert common_refinement(self.FAN, sub).same_cones(sub)
        assert is_refinement(sub, self.FAN)
        assert not is_refinement(self.FAN, sub)

    def test_against_itself_without_the_ray(self):
        plane = cone_complex(3, [[E1, E2]])
        assert_mismatch(self.FAN, plane)
        assert_mismatch(plane, self.FAN)

    def test_against_part_of_the_2_cone(self):
        part = cone_complex(3, [[E1, (1, 1, 0)], [(-1, -1, 1)]])
        assert_mismatch(self.FAN, part)
        assert_mismatch(part, self.FAN)

    def test_against_the_orthant(self):
        assert_mismatch(self.FAN, orthant(3))
        assert_mismatch(orthant(3), self.FAN)


# ---------------------------------------------------------------------------
# the work the overlay does


def corpus_fans():
    _, subdivisions, dropped = rank3_corpus()
    rank2 = [f for pair in rank2_corpus()[:60] for f in pair]
    return rank2 + subdivisions + dropped + [TestMixedDimensions.FAN]


class TestPairwiseShortcut:
    def test_facet_union_gives_the_rays_of_the_intersection(self):
        pairs = 0
        for c in corpus_fans():
            for a, b in itertools.combinations(c.maximal, 2):
                rays = facets_to_rays(a.facets + b.facets, c.ambient_rank)
                assert rays == make_cone(c.ambient_rank, rays).rays
                pairs += 1
        assert pairs > 500


class TestBuildCounts:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of make_cone, the one cone builder."""
        counted = Counter()

        def counting(ambient_rank, rays, build=fan.make_cone):
            counted["make_cone"] += 1
            return build(ambient_rank, rays)
        monkeypatch.setattr(fan, "make_cone", counting)
        return counted

    def test_pairwise_check_builds_nothing(self, calls):
        # one make_cone per input ray list; the faces that are not maximal
        # are keys only, and locating points builds none of them
        for c in corpus_fans()[::7]:
            calls.clear()
            rebuilt = cone_complex(c.ambient_rank, [m.rays for m in c.maximal])
            assert calls == {"make_cone": len(c.maximal)}
            for j, rays in enumerate(rebuilt.faces):
                v = tuple(sum(r[i] for r in rays) for i in range(c.ambient_rank))
                p = fan.canonicalize_point(rebuilt, fan.IntegralPoint(j, v))
                assert p.cone_index == j
            assert calls == {"make_cone": len(c.maximal)}

    def test_each_piece_is_built_once(self, calls, monkeypatch):
        def counting(normals, dim, *start, run=intlinalg.dual_rays):
            calls["dual_rays"] += 1
            return run(normals, dim, *start)
        _, subdivisions, _ = rank3_corpus()
        # full-dimensional fans, whose open pairs cross, and fans with
        # lower-dimensional maximal cones, which also meet inside a
        # hyperplane or only at 0
        corpus = list(itertools.combinations(subdivisions[:4], 2)) + oracle_corpus()[80:120]
        pairs = Counter()
        for a, b in corpus:
            want = Counter()
            for x, y in itertools.product(a.maximal, b.maximal):
                kind = "decided" if sign_decided(x, y) else piece_kind(x, y)
                pairs[kind] += 1
                # one double description for the rays of an open pair, one
                # more for the equations of a piece of dimension 1 to d - 1,
                # and none for the pairs the sign tests decide
                want["dual_rays"] += {"decided": 0, "full": 1, "zero": 1, "lower": 2}[kind]
                want["make_cone"] += kind in ("zero", "lower")
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(intlinalg, "dual_rays", counting)
                m.setattr(fan, "_overlay", unchecked_overlay)
                try:
                    out = common_refinement(a, b)
                except SupportMismatch:
                    out = None
            assert calls == +want  # and no other make_cone
            # the fan oracle's own double descriptions are not counted
            assert out is None or not fan_faults(out)
        assert min(pairs[k] for k in ("decided", "full", "zero", "lower")) >= 5, pairs


def piece_kind(x, y) -> str:
    """Whether x ∩ y is full-dimensional, lower-dimensional or 0, from a
    double description and the rank of its rays."""
    rays = facets_to_rays(x.facets + y.facets, x.ambient_rank)
    if not rays:
        return "zero"
    h, _ = hermite_normal_form([list(r) for r in rays])
    return "full" if sum(map(any, h)) == x.ambient_rank else "lower"


def sign_decided(x, y) -> bool:
    """Whether one cone holds every ray of the other, or, both cones being
    full-dimensional, a facet of one is <= 0 on every ray of the other."""
    def holds(c, rays):
        return all(dot(f, r) >= 0 for f in c.facets for r in rays)

    def parted(c, d):
        return any(all(dot(f, r) <= 0 for r in d.rays) for f in c.facets)
    if holds(x, y.rays) or holds(y, x.rays):
        return True
    d = x.ambient_rank
    return x.dim == y.dim == d and (parted(x, y) or parted(y, x))


class TestFacesOnDemand:
    def test_faces_equal_make_cone(self):
        _, subdivisions, _ = rank3_corpus()
        overlays = [common_refinement(a, b)
                    for a, b in itertools.combinations(subdivisions[:4], 2)]
        for c in corpus_fans() + overlays:
            for rays in c.faces:
                assert make_cone(c.ambient_rank, rays).rays == rays


# ---------------------------------------------------------------------------
# the sign tests against the overlay with one double description per pair


def _random_subcomplex(rng, rank):
    """A fan of ``rank`` whose maximal cones, often of several dimensions,
    are cones of one subdivision of the fan of the orthants or of the fan
    over the faces of the cube [-1, 1]^rank, whose cones are not simplicial
    in rank 3."""
    corners = list(itertools.product((1, -1), repeat=rank))
    if rng.random() < 0.5:
        cones = [[tuple(s * int(i == j) for j in range(rank)) for i, s in enumerate(sg)]
                 for sg in corners]
    else:
        cones = [[v for v in corners if v[i] == s] for i in range(rank) for s in (1, -1)]
    c = cone_complex(rank, cones)
    for _ in range(rng.randint(0, 2)):
        c, _ = star_subdivision(c, _inner_vector(rng, c))
    picked = rng.sample(c.faces[1:], rng.randint(1, 5))
    return cone_complex(rank, picked)


def _inner_vector(rng, c):
    """A primitive vector of the support, a sum of rays of one cone, that is
    not a ray of the complex."""
    while True:
        m = rng.choice(c.maximal)
        rays = rng.sample(m.rays, rng.randint(1, len(m.rays)))
        v = primitive(tuple(map(sum, zip(*rays))))
        if (v,) not in c.faces:
            return v


def _subdivided(rng, c):
    for _ in range(rng.randint(0, 2)):
        if len(c.faces) > 1 and any(len(m.rays) > 1 for m in c.maximal):
            c, _ = star_subdivision(c, _inner_vector(rng, c))
    return c if rng.random() < 0.7 else fan.root_rescale(c, 2)


def _dropped(rng, c):
    """The fan without one of its maximal cones: a smaller support."""
    keep = list(c.maximal)
    del keep[rng.randrange(len(keep))]
    return cone_complex(c.ambient_rank, [m.rays for m in keep]) if keep else None


@functools.lru_cache(maxsize=None)
def oracle_corpus():
    """Pairs of fans in rank 2 and rank 3: subdivisions of one fan, which
    have equal supports, and subdivisions of a fan against those of the
    same fan less one maximal cone or of another fan, which mostly do not."""
    rng = random.Random(1212)
    pairs = list(rank2_corpus()[:80])
    for _ in range(200):
        rank = rng.choice((2, 3, 3))
        x = _random_subcomplex(rng, rank)
        other = rng.choice((x, x, _dropped(rng, x), _random_subcomplex(rng, rank)))
        if other is None:
            continue
        pair = [_subdivided(rng, x), _subdivided(rng, other)]
        rng.shuffle(pair)
        pairs.append(tuple(pair))
    return pairs


def _overlay_or_mismatch(overlay, f1, f2):
    try:
        r = overlay(f1, f2)
    except SupportMismatch as exc:
        return str(exc)
    return r.maximal, r.faces, r.scale


class TestAllPairsOracle:
    def test_overlay_matches_all_pairs(self):
        verdicts = Counter()
        shapes = Counter()
        for f1, f2 in oracle_corpus():
            for a, b in ((f1, f2), (f2, f1)):
                want = _overlay_or_mismatch(all_pairs_overlay, a, b)
                assert _overlay_or_mismatch(common_refinement, a, b) == want
            verdicts[f1.ambient_rank, isinstance(want, str)] += 1
            for c in (f1, f2):
                dims = {m.dim for m in c.maximal}
                shapes["non-pure"] += len(dims) > 1
                shapes["lower-dimensional"] += any(d < c.ambient_rank for d in dims)
        # both verdicts, in both ranks, and fans of every shape
        assert min(verdicts[r, v] for r in (2, 3) for v in (True, False)) >= 50, verdicts
        assert min(shapes.values()) >= 50, shapes

    def test_intersection_matches_make_cone(self):
        """cone_intersection, whose double description starts from the rays
        and incidence of its first cone, equals make_cone of its rays:
        rays, facets and incidence alike, with the rays of the double
        description from scratch."""
        kinds = Counter()
        for f1, f2 in oracle_corpus():
            d = f1.ambient_rank
            for a, b in itertools.product(f1.maximal, f2.maximal):
                got = fan.cone_intersection(a, b)
                want = make_cone(d, got.rays)
                assert got.rays == facets_to_rays(a.facets + b.facets, d)
                assert (got.rays, got.facets, got.incidence) == (
                    want.rays, want.facets, want.incidence)
                kinds["zero" if not got.rays else "full" if got.full else "lower"] += 1
                kinds["lower-dimensional input"] += not (a.full and b.full)
        assert min(kinds.values()) >= 100, kinds

    def test_fan_check_matches_common_faces(self):
        """cone_complex on two cones, of different fans or spanned by some
        rays of a cone, accepts them exactly when they meet in a common face;
        whenever the sign certificate accepts a pair, the double description
        gives a face of both."""
        rng = random.Random(31)
        pairs = []
        for i, (f1, f2) in enumerate(oracle_corpus()[80:]):
            d = f1.ambient_rank
            for m in f1.maximal + f2.maximal:
                some = rng.sample(m.rays, rng.randint(1, len(m.rays)))
                pairs.append(("spanned", m, make_cone(d, some)))
            if i % 3 == 0:
                pairs += [("fans", a, b)
                          for a, b in itertools.product(f1.maximal, f2.maximal)]
        certified = Counter()
        for kind, a, b in pairs:
            d = a.ambient_rank
            inter = facets_to_rays(a.facets + b.facets, d)
            common = is_face(inter, a) and is_face(inter, b)
            if fan._common_face(a, b) or fan._common_face(b, a):
                assert common
                certified["accepted"] += 1
            try:
                cone_complex(d, [a.rays, b.rays])
            except ValueError:
                assert not common
            else:
                assert common
            certified[kind, common] += 1
        # a cone spanned by rays of a non-simplicial cone need not be a face
        assert certified["spanned", False] >= 10
        del certified["spanned", False]
        assert min(certified.values()) >= 50, certified


# ---------------------------------------------------------------------------
# the subdivision map, read off the cone each piece was cut from


def star_map_corpus():
    """Fans to subdivide: the rank-3 corpus, rank-3 fans of the overlay
    corpus (non-simplicial cones and lower-dimensional maximal cones among
    them), two levels of the tower and a 2-cone with a ray in Z^3."""
    base, subdivisions, dropped = rank3_corpus()
    overlay_fans = [c for pair in oracle_corpus()[80:] for c in pair if c.ambient_rank == 3]
    return ([base] + subdivisions + dropped + overlay_fans[:40]
            + [fan.sigma_n(2, 6), fan.sigma_n(3, 2), TestMixedDimensions.FAN])


def star_vectors(rng, c):
    """Primitive vectors of the support of ``c``, by kind: a ray of the fan,
    one on a wall (the rays of a facet of a maximal cone, summed) and one in
    the interior of a maximal cone (all its rays, summed)."""
    out = {"ray": rng.choice(c.faces[1:])[0]}
    m = rng.choice([m for m in c.maximal if len(m.rays) > 1] or [None])
    if m is not None:
        on = rng.choice([on for on in m.incidence if 1 < len(on) < len(m.rays)] or [None])
        if on is not None:
            out["wall"] = primitive(tuple(map(sum, zip(*(m.rays[i] for i in on)))))
        out["interior"] = primitive(tuple(map(sum, zip(*m.rays))))
    return out


class TestStarMapOracle:
    def test_map_equals_the_scan(self, monkeypatch):
        """``star_subdivision``'s map, read off the cone each piece was cut
        from, equals the scan of every cone of the input for every face
        (``fan_oracle.scan_map``): the assignments, and ``map_point`` on the
        lattice points of [-2, 2]^d.  The input is located once, for the
        support check."""
        def refuse(*args):
            raise AssertionError("star_subdivision built its map by complex_map")

        located = []

        def locate(c, vectors, real=fan.ConeComplex.locate):
            located.append(c)
            return real(c, vectors)

        rng = random.Random(1806)
        kinds = Counter()
        for c in star_map_corpus():
            for kind, v in star_vectors(rng, c).items():
                located.clear()
                with monkeypatch.context() as m:
                    m.setattr(fan, "complex_map", refuse)
                    m.setattr(fan.ConeComplex, "locate", locate)
                    sub, f = star_subdivision(c, v)
                assert located == [c]
                want = scan_map(sub, c)
                assert f == want, (c.maximal, v)
                for x in itertools.product(range(-2, 3), repeat=c.ambient_rank):
                    if sub.supports(x):
                        p = fan.point(sub, x)
                        assert fan.map_point(f, p) == fan.map_point(want, p)
                kinds[kind] += 1
                kinds["lower-dimensional"] += not all(m.full for m in c.maximal)
        assert min(kinds.values()) >= 20, kinds
