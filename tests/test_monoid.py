"""Tests for fine saturated monoids.

Brute-force oracles (box saturation, BFS amalgam closure) are defined here
and cross-checked against the library's exact computations.
"""

import dataclasses
import itertools
import random

import pytest

from logfirm.intlinalg import (
    dot, identity, kernel_and_cokernel, mat_vec, vec_add, vec_sub)
import logfirm.intlinalg
import logfirm.monoid
from logfirm.monoid import (
    AffineMonoid,
    Face,
    MonoidHom,
    NotSharp,
    dual,
    face_localization,
    faces,
    find_factorization,
    find_retraction,
    fs_pushout,
    hilbert_basis,
    in_group_coordinates,
    identity_hom,
    is_integral,
    is_isomorphic,
    is_local,
    is_saturated,
    saturate,
    sharpen,
)


def N(rank=1):
    return saturate(rank, [tuple(1 if i == j else 0 for i in range(rank))
                           for j in range(rank)])


def q1_monoid():
    """The index-2 parity monoid {(a,b) in N^2 : 2 | a+b}."""
    return saturate(2, [(2, 0), (1, 1), (0, 2)])


def hom(src, dst, matrix):
    return MonoidHom(src, dst, tuple(tuple(r) for r in matrix))


def ambient_kept_monoid(rng):
    """A nonzero monoid with generators in {0..3}^r, r <= 2, left in its
    ambient lattice, so that its group is often a proper sublattice (2N in Z,
    the parity monoid in Z^2); returned with its group-coordinate copy."""
    while True:
        r = rng.randint(1, 2)
        gens = [tuple(rng.randint(0, 3) for _ in range(r))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if any(g)]
        if gens:
            m = saturate(r, gens)
            return m, in_group_coordinates(m)


def random_element(rng, m, terms):
    """A sum of a number of Hilbert generators of m drawn from ``terms``."""
    v = (0,) * m.ambient_rank
    for _ in range(rng.randint(*terms)):
        v = tuple(a + b for a, b in zip(v, rng.choice(m.hilbert)))
    return v


def columns_hom(src, dst, cols):
    return hom(src, dst, [[c[i] for c in cols] for i in range(dst.ambient_rank)])


# ---------------------------------------------------------------------------
# saturation and Hilbert bases


class TestSaturate:
    def test_numerical_semigroup_saturates_to_n(self):
        m = saturate(1, [(2,), (3,)])
        # oracle: 1 = 3 - 2 lies in the group and 2*1 is a generator
        assert m.hilbert == ((1,),)

    def test_saturation_stays_in_generated_group(self):
        # (1,1) lies under the rays but outside the group Z x 2Z, so the
        # saturation (cone intersected with the generated group) excludes it
        m = saturate(2, [(1, 0), (1, 2)])
        assert m.hilbert == ((1, 0), (1, 2))
        assert not m.contains((1, 1))
        assert m.contains((2, 2))

    def test_orthant_unchanged(self):
        m = N(2)
        assert m.hilbert == ((0, 1), (1, 0))

    def test_idempotent_on_random_corpus(self):
        rng = random.Random(4242)
        count = 0
        while count < 200:
            rank = rng.randint(1, 3)
            gens = [tuple(rng.randint(0, 4) for _ in range(rank))
                    for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            m = saturate(rank, gens)
            if not m.sharp:
                continue
            again = saturate(rank, m.hilbert)
            assert again.canonical_key() == m.canonical_key()
            count += 1

    def test_membership(self):
        m = q1_monoid()
        assert m.contains((3, 1))
        assert not m.contains((1, 0))
        assert not m.contains((-1, 1))
        assert m.contains((0, 0))


def random_monoid(rng, rank):
    """Generators with entries in [-2, 3], often spanning a line; a third
    of the time inside an explicit group spanned by random rows."""
    group = None
    if rng.random() < 0.33:
        group = [tuple(rng.randint(-2, 2) for _ in range(rank))
                 for _ in range(rng.randint(1, rank))]
        coeffs = [[rng.randint(-2, 2) for _ in group]
                  for _ in range(rng.randint(0, 4))]
        gens = [tuple(sum(c * g[j] for c, g in zip(cs, group))
                      for j in range(rank)) for cs in coeffs]
    else:
        gens = [tuple(rng.randint(-2, 3) for _ in range(rank))
                for _ in range(rng.randint(0, 4))]
    return saturate(rank, gens, group=group), group


class TestExplicitGroup:
    def test_saturate_keeps_the_group(self):
        # (0,1) lies in the monoid, so a generating set must reach it
        m = saturate(2, [(1, 0), (-1, 0), (0, 2)], group=[(1, 0), (0, 1)])
        assert m.generating_set() == ((-1, 0), (0, 1), (1, 0))

    def test_oversized_group_is_cut_to_the_span(self):
        # rows b_i of a random unimodular matrix: the generators are
        # combinations of a_i b_i for i < k, so the group a_i b_i (i < r)
        # meets their span in the group a_i b_i (i < k)
        rng = random.Random(6007)
        cut = 0
        for _ in range(60):
            r = rng.randint(1, 4)
            b = [list(row) for row in identity(r)]
            for _ in range(8):
                i, j = rng.sample(range(r), 2) if r > 1 else (0, 0)
                if i != j:
                    b[i] = [x + rng.randint(-2, 2) * y for x, y in zip(b[i], b[j])]
            group = [tuple(rng.randint(1, 3) * x for x in row) for row in b]
            k = rng.randint(1, r)
            coeffs = [[rng.randint(0, 2) for _ in range(k)]
                      for _ in range(rng.randint(k, k + 2))]
            gens = [tuple(sum(c * g[j] for c, g in zip(cs, group)) for j in range(r))
                    for cs in coeffs]
            small = saturate(r, gens, group=group[:k])
            if small.group_rank < k:
                continue  # the generators span less than the k rows
            assert saturate(r, gens, group=group) == small
            assert saturate(r, gens, group=identity(r)).group_rank == k
            cut += k < r
        assert cut > 15

    def test_localizes_at_every_face(self):
        m = saturate(2, [(1, 0), (1, 2)], group=[(1, 0), (0, 1)])
        for f in faces(m):
            loc, proj = face_localization(m, f)
            assert all(not any(proj.apply(m.hilbert[i]))
                       for i in f.generator_subset)

    def test_generating_sets_and_localizations_on_corpus(self):
        rng = random.Random(9091)
        done = 0
        while done < 60:
            m, group = random_monoid(rng, rng.randint(1, 3))
            if group is None:
                continue
            gens = m.generating_set()
            # oracle: every point of m in a box is a sum of the generators
            closure = {(0,) * m.ambient_rank}
            frontier = list(closure)
            while frontier:
                nxt = []
                for v in frontier:
                    for g in gens:
                        w = tuple(a + b for a, b in zip(v, g))
                        if max(map(abs, w), default=0) <= 8 and w not in closure:
                            closure.add(w)
                            nxt.append(w)
                frontier = nxt
            for pt in itertools.product(range(-2, 3), repeat=m.ambient_rank):
                if m.contains(pt):
                    assert pt in closure, (m.generators, group, pt)
            if m.sharp:
                for f in faces(m):
                    face_localization(m, f)
            done += 1


class TestNonSharp:
    def test_sharp_iff_facets_have_zero_kernel(self):
        rng = random.Random(77)
        seen = {True: 0, False: 0, "group": 0}
        for _ in range(400):
            m, group = random_monoid(rng, rng.randint(1, 3))
            if m.facets_local:
                zero_kernel = not kernel_and_cokernel(
                    [list(f) for f in m.facets_local]).kernel_basis
            else:
                zero_kernel = m.group_rank == 0
            assert m.sharp == zero_kernel, (m.generators, group)
            seen[m.sharp] += 1
            seen["group"] += group is not None
        assert min(seen.values()) > 50

    def test_rays_local_empty_iff_not_sharp(self):
        rng = random.Random(76)
        for _ in range(200):
            m, _ = random_monoid(rng, rng.randint(1, 3))
            if m.group_rank:
                assert bool(m.rays_local) == m.sharp
                assert all(m.contains(m.ambient(r)) for r in m.rays_local)

    def test_one_double_description(self, monkeypatch):
        # saturate reads the extreme rays and sharpness off the facets'
        # double description; only cutting an explicit group down to the
        # span of the generators takes a second one
        calls = []

        def counting(normals, dim, real=logfirm.intlinalg.dual_rays):
            calls.append(dim)
            return real(normals, dim)

        monkeypatch.setattr(logfirm.intlinalg, "dual_rays", counting)
        rng = random.Random(75)
        for _ in range(200):
            rank = rng.randint(1, 3)
            gens = [tuple(rng.randint(-2, 3) for _ in range(rank))
                    for _ in range(rng.randint(1, 4))]
            if not any(any(g) for g in gens):
                continue
            calls.clear()
            m = saturate(rank, gens)
            assert len(calls) == 1, gens
            calls.clear()
            cut = saturate(rank, gens, group=identity(rank))
            assert len(calls) == 1 + (0 < cut.group_rank < rank), gens

    def test_generating_set_lifts_without_ilp(self, monkeypatch):
        calls = []
        original = logfirm.intlinalg.ilp_feasible

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(logfirm.monoid, "ilp_feasible", counting)
        monkeypatch.setattr(logfirm.intlinalg, "ilp_feasible", counting)
        rng = random.Random(78)
        checked = 0
        while checked < 60:
            m, _ = random_monoid(rng, rng.randint(1, 3))
            if m.sharp:
                continue
            sharp_m, proj = sharpen(m)
            gens = m.generating_set()
            assert all(m.contains(v) for v in gens)
            zero = (0,) * sharp_m.ambient_rank
            assert {proj.apply(v) for v in gens} == set(sharp_m.hilbert) | {zero}
            checked += 1
        assert calls == []


class TestHilbertBasis:
    def test_q1(self):
        assert hilbert_basis(q1_monoid()) == [(0, 2), (1, 1), (2, 0)]

    def test_n(self):
        assert hilbert_basis(N()) == [(1,)]

    def test_wide_cone_full_lattice(self):
        m = saturate(2, [(1, 0), (1, 3)], group=[[1, 0], [0, 1]])
        assert hilbert_basis(m) == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_not_sharp_raises(self):
        m = saturate(1, [(1,), (-1,)])
        with pytest.raises(NotSharp):
            hilbert_basis(m)

    def test_minimality_on_corpus(self):
        # removing any basis element must fail to generate it from the rest
        rng = random.Random(7)
        done = 0
        while done < 40:
            rank = rng.randint(1, 3)
            gens = [tuple(rng.randint(0, 3) for _ in range(rank))
                    for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            m = saturate(rank, gens)
            if not m.sharp or not m.hilbert:
                continue
            hb = list(m.hilbert_local)
            for k, h in enumerate(hb):
                rest = hb[:k] + hb[k + 1:]
                if not rest:
                    continue
                # is h a nonnegative integer combination of the others?
                from logfirm.intlinalg import ilp_feasible
                eq = [[r[i] for r in rest] for i in range(m.group_rank)]
                nonneg = [[1 if i == j else 0 for i in range(len(rest))]
                          for j in range(len(rest))]
                assert ilp_feasible(len(rest), eq, list(h), nonneg) is None
            done += 1


# ---------------------------------------------------------------------------
# faces and localization


class TestFaces:
    def test_orthant_has_four_faces(self):
        assert len(faces(N(2))) == 4

    def test_n_has_two_faces(self):
        assert len(faces(N())) == 2

    def test_q1_has_four_faces(self):
        fs = faces(q1_monoid())
        assert len(fs) == 4
        sizes = sorted(len(f.generator_subset) for f in fs)
        assert sizes == [0, 1, 1, 3]

    def test_face_closure(self):
        # a+b on the face forces a and b on the face
        for m in (N(2), q1_monoid(), saturate(2, [(1, 0), (1, 3)])):
            hb = m.hilbert
            for f in faces(m):
                on = set(f.generator_subset)
                for i, j in itertools.product(range(len(hb)), repeat=2):
                    s = tuple(a + b for a, b in zip(hb[i], hb[j]))
                    if dot(f.normal, s) == 0:
                        assert i in on and j in on

    def test_faces_saturate_nothing(self, monkeypatch):
        monoids = [N(2), q1_monoid(),
                   saturate(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])]
        calls = []
        original = logfirm.monoid.saturate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(logfirm.monoid, "saturate", counting)
        assert [len(faces(m)) for m in monoids] == [4, 4, 10]
        assert calls == []

    def test_face_fields(self):
        assert [f.name for f in dataclasses.fields(Face)] == [
            "generator_subset", "normal"]


class TestFaceLocalization:
    def test_orthant_at_x_axis(self):
        m = N(2)
        ray = next(f for f in faces(m)
                   if f.generator_subset and m.hilbert[f.generator_subset[0]] == (1, 0)
                   and len(f.generator_subset) == 1)
        loc, proj = face_localization(m, ray)
        assert loc.hilbert == ((1,),)
        assert proj.apply((5, 7)) in ((7,), (-7,))

    def test_zero_face_is_identity(self):
        m = q1_monoid()
        zero = next(f for f in faces(m) if not f.generator_subset)
        loc, proj = face_localization(m, zero)
        assert loc is m
        assert proj.apply((2, 0)) == (2, 0)

    def test_q1_at_ray(self):
        m = q1_monoid()
        ray = next(f for f in faces(m)
                   if len(f.generator_subset) == 1
                   and m.hilbert[f.generator_subset[0]] == (2, 0))
        loc, proj = face_localization(m, ray)
        # quotient by span(2,0) saturates to projection onto the second axis
        assert loc.hilbert == ((1,),) or loc.hilbert == ((-1,),)
        assert not any(proj.apply((2, 0)))
        assert any(proj.apply((1, 1)))


# ---------------------------------------------------------------------------
# duality


class TestDual:
    def test_orthant_self_dual(self):
        d = dual(N(2))
        assert d.hilbert == ((0, 1), (1, 0))

    def test_n_self_dual(self):
        assert dual(N()).hilbert == ((1,),)

    def test_double_dual_q1(self):
        m = q1_monoid()
        dd = dual(dual(m))
        assert is_isomorphic(dd, m)

    def test_double_dual_corpus(self):
        rng = random.Random(11)
        done = 0
        while done < 25:
            rank = rng.randint(1, 2)
            gens = [tuple(rng.randint(0, 3) for _ in range(rank))
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            m = saturate(rank, gens)
            if not m.sharp:
                continue
            assert is_isomorphic(dual(dual(m)), m)
            done += 1

    def test_dual_hilbert_members_are_functionals(self):
        m = q1_monoid()
        d = dual(m)
        # every dual generator evaluates nonnegatively on the local cone
        for phi in d.hilbert:
            for h in m.hilbert_local:
                assert dot(phi, h) >= 0


# ---------------------------------------------------------------------------
# homomorphisms


class TestHoms:
    def test_is_local(self):
        n = N()
        assert is_local(hom(n, n, [[3]]))
        assert not is_local(hom(n, n, [[0]]))
        n2 = N(2)
        assert not is_local(hom(n2, n, [[1, 0]]))

    def test_invalid_hom_rejected(self):
        with pytest.raises(ValueError):
            hom(N(), N(), [[-1]])

    def test_compose(self):
        n = N()
        f = hom(n, n, [[2]])
        g = hom(n, n, [[3]])
        assert g.compose(f).apply((1,)) == (6,)


# ---------------------------------------------------------------------------
# pushouts


def bfs_amalgam_closure(result, radius):
    """Oracle: all amalgam elements whose free coordinates stay in the box."""
    start = (tuple([0] * len(result.torsion_orders)),
             tuple([0] * result.free_rank))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for tor, free in frontier:
            for gt, gf in result.amalgam_generators:
                nt = tuple((a + b) % o for a, b, o in
                           zip(tor, gt, result.torsion_orders))
                nf = tuple(a + b for a, b in zip(free, gf))
                if any(abs(x) > radius for x in nf):
                    continue
                state = (nt, nf)
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return seen


def brute_saturation_check(result, box=2, nmax=6, radius=12):
    """Compare the computed saturation against the definition
    {g : n*g in amalgam for some n >= 1} on a box of group elements."""
    closure = bfs_amalgam_closure(result, radius)
    torsion_range = [range(o) for o in result.torsion_orders]
    free_range = [range(-box, box + 1)] * result.free_rank
    for tor in itertools.product(*torsion_range):
        for free in itertools.product(*free_range):
            brute = False
            for n in range(1, nmax + 1):
                nt = tuple((n * t) % o for t, o in zip(tor, result.torsion_orders))
                nf = tuple(n * f for f in free)
                if any(abs(x) > radius for x in nf):
                    break
                if (nt, nf) in closure:
                    brute = True
                    break
            computed = result.saturation_contains(tor, free)
            if brute:
                assert computed, (tor, free)
            # the converse needs unbounded n, so only the sound direction
            # is asserted for interior points; on the boundary of the box the
            # oracle may miss memberships
    return True


class TestPushout:
    def test_two_three_kummer(self):
        n = N()
        res = fs_pushout(hom(n, n, [[2]]), hom(n, n, [[3]]))
        assert res.torsion_orders == ()
        assert res.free_rank == 1
        assert is_isomorphic(res.characteristic, N())
        # legs: x3 and x2 up to the sign convention of the quotient coordinate
        one = res.characteristic.hilbert[0]
        assert res.leg1.apply((1,)) == tuple(3 * x for x in one)
        assert res.leg2.apply((1,)) == tuple(2 * x for x in one)

    def test_pushout_along_identity(self):
        n = N()
        g = hom(n, N(2), [[1], [1]])
        res = fs_pushout(identity_hom(n), g)
        assert is_isomorphic(res.characteristic, N(2))

    def test_diagonal_pushout(self):
        n = N()
        res = fs_pushout(hom(n, N(2), [[1], [1]]), identity_hom(n))
        assert is_isomorphic(res.characteristic, N(2))

    def test_self_pushout_of_times_two_gains_torsion(self):
        n = N()
        res = fs_pushout(hom(n, n, [[2]]), hom(n, n, [[2]]))
        assert res.torsion_orders == (2,)
        witness = res.amalgam_equals_saturation()
        assert witness is not None
        tor, free = witness
        # the witness is saturation-only: n * witness falls in the amalgam
        assert res.saturation_contains(tor, free)
        assert not res.amalgam_contains(tor, free)

    def test_universal_square_commutes(self):
        n = N()
        f = hom(n, n, [[2]])
        g = hom(n, n, [[3]])
        res = fs_pushout(f, g)
        assert res.leg1.compose(f).equal_on_source(res.leg2.compose(g))

    def test_against_brute_force_corpus(self):
        rng = random.Random(314159)
        done = 0
        while done < 50:
            q_rank1 = rng.randint(1, 2)
            q_rank2 = rng.randint(1, 2)
            g1 = [tuple(rng.randint(0, 3) for _ in range(q_rank1))
                  for _ in range(rng.randint(1, 3))]
            g2 = [tuple(rng.randint(0, 3) for _ in range(q_rank2))
                  for _ in range(rng.randint(1, 3))]
            g1 = [g for g in g1 if any(g)]
            g2 = [g for g in g2 if any(g)]
            if not g1 or not g2:
                continue
            q1 = in_group_coordinates(saturate(q_rank1, g1))
            q2 = in_group_coordinates(saturate(q_rank2, g2))
            if not (q1.sharp and q2.sharp) or not (q1.hilbert and q2.hilbert):
                continue
            n = N()
            img1 = q1.hilbert[rng.randrange(len(q1.hilbert))]
            img2 = q2.hilbert[rng.randrange(len(q2.hilbert))]
            f = hom(n, q1, [[x] for x in img1])
            g = hom(n, q2, [[x] for x in img2])
            res = fs_pushout(f, g)
            if res.free_rank > 3:
                continue
            assert brute_saturation_check(res)
            done += 1

    def test_non_sharp_target_given_generators_fall_short(self):
        # Z x N is not generated by (+-1,0), (1,2), (0,3), which miss (0,1);
        # pushing out 2N <- N -> Z x N (x -> 4x and 0) gives the saturated
        # Z/2 + Z x N
        q = saturate(2, [(1, 0), (1, 2), (0, 3), (-1, 0)])
        n = N()
        res = fs_pushout(hom(n, saturate(1, [(2,)]), [[4]]), hom(n, q, [[0], [0]]))
        assert res.torsion_orders == (2,)
        assert res.amalgam_equals_saturation() is None

    def test_presentation_corpus(self):
        # a pushout depends on the monoids, not on their generators: a
        # target presented by its generating set gives the same pushout
        rng = random.Random(5772)
        n = N()
        done = 0
        while done < 100:
            q2, _ = random_monoid(rng, rng.randint(1, 2))
            if q2.sharp:
                continue
            _, q1 = ambient_kept_monoid(rng)
            gens = q2.generating_set()
            again = saturate(q2.ambient_rank, gens, group=q2.group_basis)
            img1 = random_element(rng, q1, (0, 1))
            img2 = (0,) * q2.ambient_rank
            for _ in range(rng.randint(0, 2)):
                img2 = tuple(a + b for a, b in zip(img2, rng.choice(gens)))
            f = columns_hom(n, q1, [img1])
            res = [fs_pushout(f, columns_hom(n, m, [img2])) for m in (q2, again)]
            assert res[0].free_rank == res[1].free_rank
            assert res[0].torsion_orders == res[1].torsion_orders
            assert (res[0].characteristic.canonical_key()
                    == res[1].characteristic.canonical_key())
            assert ((res[0].amalgam_equals_saturation() is None)
                    == (res[1].amalgam_equals_saturation() is None))
            done += 1

    def test_ambient_lattice_corpus(self):
        # the corpus above with the monoids left in their ambient lattices:
        # each pushout is computed and matches that of the group-coordinate
        # copies
        rng = random.Random(314159)
        n = N()
        sublattices = 0
        for _ in range(300):
            (q1, c1), (q2, c2) = ambient_kept_monoid(rng), ambient_kept_monoid(rng)
            img1 = random_element(rng, q1, (1, 1))
            img2 = random_element(rng, q2, (1, 1))
            f, g = columns_hom(n, q1, [img1]), columns_hom(n, q2, [img2])
            res = fs_pushout(f, g)
            ref = fs_pushout(columns_hom(n, c1, [q1.coords(img1)]),
                             columns_hom(n, c2, [q2.coords(img2)]))
            assert res.free_rank == ref.free_rank
            assert res.torsion_orders == ref.torsion_orders
            assert (res.characteristic.canonical_key()
                    == ref.characteristic.canonical_key())
            assert res.leg1.compose(f).equal_on_source(res.leg2.compose(g))
            assert brute_saturation_check(res)
            sublattices += any(m.group_rank and m.group_basis != c.group_basis
                               for m, c in ((q1, c1), (q2, c2)))
        assert sublattices > 100


# ---------------------------------------------------------------------------
# retraction / factorization


class TestRetraction:
    def test_times_three_has_no_retraction(self):
        n = N()
        assert find_retraction(hom(n, n, [[3]])) is None

    def test_identity_retracts(self):
        t = find_retraction(identity_hom(N(2)))
        assert t is not None
        assert t.apply((1, 0)) == (1, 0) and t.apply((0, 1)) == (0, 1)

    def test_coordinate_inclusion_retracts(self):
        n, n2 = N(), N(2)
        theta = hom(n, n2, [[1], [0]])
        t = find_retraction(theta)
        assert t is not None
        assert t.compose(theta).apply((1,)) == (1,)

    def test_matches_factorization_with_identity(self):
        n = N()
        for k in (1, 2, 3):
            theta = hom(n, n, [[k]])
            r = find_retraction(theta)
            f = find_factorization(theta, identity_hom(n))
            assert (r is None) == (f is None)


class TestFactorization:
    def test_doubling_through_doubling(self):
        n = N()
        theta = hom(n, n, [[2]])
        psi = hom(n, n, [[4]])
        h = find_factorization(theta, psi)
        assert h is not None
        assert h.apply((1,)) == (2,)

    def test_odd_through_doubling_fails(self):
        n = N()
        assert find_factorization(hom(n, n, [[2]]), hom(n, n, [[3]])) is None

    def test_ambient_lattice_corpus(self):
        # monoids left in their ambient lattices: the verdict is that of the
        # group-coordinate copies, and each witness composes exactly
        rng = random.Random(161803)
        found = 0
        for _ in range(300):
            p = N(rng.randint(1, 2))
            (q, qc), (r, rc) = ambient_kept_monoid(rng), ambient_kept_monoid(rng)
            theta_cols = [random_element(rng, q, (0, 2)) for _ in p.hilbert]
            psi_cols = [random_element(rng, r, (1, 2)) for _ in p.hilbert]
            theta, psi = columns_hom(p, q, theta_cols), columns_hom(p, r, psi_cols)
            h = find_factorization(theta, psi)
            ref = find_factorization(
                columns_hom(p, qc, [q.coords(c) for c in theta_cols]),
                columns_hom(p, rc, [r.coords(c) for c in psi_cols]))
            assert (h is None) == (ref is None)
            if h is not None:
                for v in p.hilbert:
                    assert h.apply(theta.apply(v)) == psi.apply(v)
                found += 1
        assert 30 < found < 270

    def test_witness_without_ambient_matrix(self):
        # h: 2N -> N with h(2) = 1 exists, but no integer w has 2w = 1
        n, two_n = N(), saturate(1, [(2,)])
        h = find_factorization(hom(n, two_n, [[2]]), hom(n, n, [[1]]))
        assert h.local == ((1,),) and h.matrix is None
        assert h.apply((4,)) == (2,)

    def test_trivial_source_always_factors(self):
        p = saturate(1, [])
        n = N()
        theta = hom(p, n, [[0]])
        psi = hom(p, n, [[0]])
        h = find_factorization(theta, psi)
        assert h is not None


# ---------------------------------------------------------------------------
# semi-decisions


class TestSemiDecisions:
    def test_times_two_integral_not_saturated(self):
        n = N()
        theta = hom(n, n, [[2]])
        assert is_integral(theta, bound=4)
        sat = is_saturated(theta, bound=4)
        assert sat.verdict == "no"
        assert sat.witness is not None

    def test_identity_both(self):
        theta = identity_hom(N())
        assert is_integral(theta, bound=4)
        assert is_saturated(theta, bound=4)

    def test_free_extension_both(self):
        theta = hom(N(), N(2), [[1], [0]])
        assert is_integral(theta, bound=3)
        assert is_saturated(theta, bound=3)

    def test_blow_up_chart_not_integral(self):
        # (a, b) -> (a, a + b): theta(a1) + b1 = theta(a2) + b2 has no
        # completion a3, a4, b
        theta = hom(N(2), N(2), [[1, 0], [1, 1]])
        out = is_integral(theta, bound=4)
        assert out.verdict == "no"
        a1, a2, b1, b2 = out.witness
        assert (vec_add(theta.apply(a1), b1) == vec_add(theta.apply(a2), b2))
        # b = b1 - theta(a3) = b2 - theta(a4) >= 0 bounds a3 and a4
        box = list(itertools.product(range(max(b1 + b2) + 1), repeat=2))
        below = {b: [a for a in box
                     if all(x >= 0 for x in vec_sub(b, theta.apply(a)))]
                 for b in (b1, b2)}
        assert not [(a3, a4) for a3 in below[b1] for a4 in below[b2]
                    if vec_sub(b1, theta.apply(a3)) == vec_sub(b2, theta.apply(a4))
                    and vec_add(a1, a3) == vec_add(a2, a4)]


class TestIsomorphismRegressions:
    def test_singular_candidate_map_is_not_an_isomorphism(self):
        # matching N^3's basis with dependent Hilbert elements of the other
        # monoid gives a singular candidate map, which must be skipped
        free = saturate(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        flat = saturate(3, [(1, 0, 0), (1, 2, 0)],
                        group=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert is_isomorphic(free, flat) is False
        assert is_isomorphic(flat, free) is False
