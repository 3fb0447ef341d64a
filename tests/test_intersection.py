"""Cone intersections and the faces of each cone, checked against
independent oracles on a seeded corpus of pairs of cones in ranks 2 to 4.

``cone_intersection`` takes one double description for the rays of a ∩ b
and reads the facets of a full-dimensional a ∩ b off the incidence of the
facets of a and b on those rays.  The oracle is the cone from two double
descriptions: one for the rays and one for the facets.  The faces of every
cone, which ``Cone.faces`` closes from the incidence, are compared with
``fan_oracle.brute_faces``, an enumeration of subsets of rays."""

import functools
import random
from collections import Counter

from fan_oracle import brute_faces, facets_to_rays
from logfirm.fan import cone_intersection, make_cone
from logfirm.intlinalg import dot, mat_vec, smith_normal_form


def _unimodular(rng, d):
    """A random unimodular matrix: a product of elementary row operations."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-1, 1))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


def _rays(rng, d, n, heights):
    """``n`` vectors whose last coordinate is drawn from ``heights``."""
    return [tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.choice(heights),)
            for _ in range(n)]


def _pair_rays(rng, d, kind):
    """Ray lists of a pair of cones of one kind:
    - ``general``: both in the half-space x_d > 0, often not simplicial
    - ``apart``: on the two sides of x_d = 0, so they meet only at 0
    - ``wall``: on the two sides of x_d = 0 and each with rays on it, so
      they meet inside that hyperplane
    - ``lower``: one of them spanned by fewer than d rays
    - ``sub``: one spanned by some rays of the other and maybe one more"""
    if kind == "general":
        return _rays(rng, d, rng.randint(2, d + 3), (1, 2)), _rays(rng, d, rng.randint(2, d + 3), (1, 2))
    if kind == "apart":
        return _rays(rng, d, rng.randint(1, d + 2), (1, 2)), _rays(rng, d, rng.randint(1, d + 2), (-1, -2))
    if kind == "wall":
        flat = _rays(rng, d, rng.randint(1, d), (0,))
        return (flat[:rng.randint(1, len(flat))] + _rays(rng, d, rng.randint(1, d), (1, 2)),
                flat[rng.randint(0, len(flat) - 1):] + _rays(rng, d, rng.randint(1, d), (-1, -2)))
    if kind == "lower":
        return _rays(rng, d, rng.randint(1, d - 1), (1, 2)), _rays(rng, d, rng.randint(1, d + 2), (1, 2))
    a = _rays(rng, d, rng.randint(d, d + 3), (1, 2))
    return a, rng.sample(a, rng.randint(1, len(a))) + _rays(rng, d, rng.randint(0, 1), (1, 2))


@functools.lru_cache(maxsize=None)
def pair_corpus():
    """Pairs of sharp cones in ranks 2 to 4, half of them moved by a
    unimodular map so that their common hyperplanes are not coordinate
    ones."""
    rng = random.Random(1313)
    pairs = []
    while len(pairs) < 360:
        d = rng.choice((2, 3, 3, 4, 4))
        kind = rng.choice(("general", "apart", "wall", "lower", "sub"))
        rays = _pair_rays(rng, d, kind)
        if rng.random() < 0.5:
            u = _unimodular(rng, d)
            rays = [[mat_vec(u, list(r)) for r in rs] for rs in rays]
        try:
            a, b = (make_cone(d, rs) for rs in rays)
        except ValueError:  # a cone with a line
            continue
        if rng.random() < 0.5:
            a, b = b, a
        pairs.append((a, b))
    return pairs


def test_intersection_matches_two_double_descriptions():
    seen = Counter()
    for a, b in pair_corpus():
        d = a.ambient_rank
        got = cone_intersection(a, b)
        want = make_cone(d, facets_to_rays(a.facets + b.facets, d))
        assert got == want
        assert (got.rays, got.facets) == (want.rays, want.facets)
        for c in (a, b, got):
            assert c.incidence == tuple(
                frozenset(i for i, r in enumerate(c.rays) if dot(f, r) == 0)
                for f in c.facets)
            assert c.faces == brute_faces(c)
        seen[d] += 1
        seen["non-simplicial"] += any(len(c.rays) > smith_normal_form(c.rays, c.ambient_rank).rank
                                      for c in (a, b))
        seen["lower-dimensional input"] += not (a.full and b.full)
        seen["meet at 0"] += not got.rays
        seen["meet inside a hyperplane"] += bool(got.rays) and not got.full
        seen["nested"] += got in (a, b)
        seen["full-dimensional, not nested"] += got.full and got not in (a, b)
    assert sum(seen[d] for d in (2, 3, 4)) >= 300
    assert min(seen.values()) >= 30, seen
