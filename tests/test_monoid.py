"""Tests for fine saturated monoids.

Brute-force oracles (box saturation, BFS amalgam closure) are defined here
and cross-checked against the library's exact computations.
"""

import dataclasses
import gc
import itertools
import random
import weakref
from collections import Counter

import pytest

from program_oracle import oracle_find_factorization, oracle_is_integral
from quotient_oracle import oracle_quotient, oracle_saturate, projection, saturated_span
from record_oracle import record_faults
from logfirm.firm import FiberProblem, LogPointQuery, firm_check_pushout
from logfirm.intlinalg import (
    dot, hermite_normal_form, identity, kernel_and_cokernel, lattice_quotient,
    mat_mul, mat_vec, primitive, scaled_inverse, smith_normal_form,
    solve_lattice, transpose, vec_add, vec_sub)
import logfirm.intlinalg
import logfirm.monoid
from logfirm.monoid import (
    AffineMonoid,
    Face,
    MonoidHom,
    NotAFace,
    NotSharp,
    dual,
    face_localization,
    faces,
    find_factorization,
    find_retraction,
    fs_pushout,
    in_group_coordinates,
    identity_hom,
    is_integral,
    is_local,
    is_saturated,
    saturate,
    sharpen,
    zero_face,
)


def N(rank=1):
    return saturate(rank, [tuple(1 if i == j else 0 for i in range(rank))
                           for j in range(rank)])


def q1_monoid():
    """The index-2 parity monoid {(a,b) in N^2 : 2 | a+b}."""
    return saturate(2, [(2, 0), (1, 1), (0, 2)])


def hilbert_key(m):
    """The group rank and the sorted Hilbert basis in group coordinates of
    a sharp monoid, which two presentations of one monoid share."""
    return m.group_rank, tuple(sorted(m.hilbert_local))


def double_dual_saturated(m):
    """dual(dual(m)) saturated again from its generators in Z^g, g the
    group rank of m, as an oracle independent of the facets it holds."""
    g = m.group_rank
    return saturate(g, dual(dual(m)).generators, group=identity(g))


def is_free(m, k) -> bool:
    """Whether the sharp monoid m is isomorphic to N^k: k Hilbert elements
    spanning a group of rank k."""
    return m.group_rank == k and len(m.hilbert) == k


def hom(src, dst, matrix):
    return MonoidHom(src, dst, tuple(tuple(r) for r in matrix))


def pushout_leg1(f, g, res):
    """The leg Q1 -> characteristic of ``res = fs_pushout(f, g)``, which the
    result does not hold: ``fs_pushout``'s construction of its leg from Q2,
    on the first block of group coordinates.  The Smith form of the
    relations gives the free coordinates of the pushout group, and the
    sharpening of the saturation projects them onto the characteristic."""
    q1, q2 = f.target, g.target
    relations = [list(mat_vec(f.local, c)) + [-x for x in mat_vec(g.local, c)]
                 for c in f.source.local_generators] or [[0] * (q1.group_rank + q2.group_rank)]
    snf = smith_normal_form(relations, q1.group_rank + q2.group_rank)
    block = [row[:q1.group_rank] for row in transpose(snf.V)[snf.rank:]]
    _, sharp_proj = sharpen(res.saturation_free)
    return MonoidHom(q1, res.characteristic, local=mat_mul(sharp_proj.local, block))


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
            assert hilbert_key(again) == hilbert_key(m)
            count += 1

    def test_membership(self):
        m = q1_monoid()
        assert m.contains((3, 1))
        assert not m.contains((1, 0))
        assert not m.contains((-1, 1))
        assert m.contains((0, 0))


class TestSharedRecords:
    """``saturate`` returns one record for equal inputs while a caller keeps
    it, and forgets it once every caller has dropped it."""

    def test_equal_inputs_give_the_identical_record(self):
        m = saturate(2, [(2, 0), (1, 1), (0, 2)])
        assert saturate(2, ((2, 0), (1, 1), (0, 2))) is m
        assert saturate(2, [[2, 0], [1, 1], [0, 2]]) is m
        cut = saturate(2, [(1, 0), (1, 3)], group=[[1, 0], [0, 1]])
        assert saturate(2, ((1, 0), (1, 3)), group=((1, 0), (0, 1))) is cut
        # the group is part of the input: without it the group is Z x 3Z
        assert saturate(2, [(1, 0), (1, 3)]) != cut
        # what one caller reads, the next one gets
        m.hilbert_local
        assert "hilbert_local" in vars(saturate(2, [(2, 0), (1, 1), (0, 2)]))

    def test_generator_lists_of_one_monoid_keep_their_own_records(self):
        lists = [[(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)],
                 [(0, 1), (1, 0)], [(1, 0), (0, 0), (0, 1)]]
        records = [saturate(2, gens) for gens in lists]
        assert len({id(m) for m in records}) == len(lists)
        assert all(m == records[0] for m in records)
        assert [m.generators for m in records] == [
            ((1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1)),
            ((0, 1), (1, 0)), ((1, 0), (0, 1))]

    def test_a_dropped_record_is_freed_and_recomputed(self, monkeypatch):
        calls = []

        def counting(*args, real=logfirm.monoid.dual_description):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(logfirm.monoid, "dual_description", counting)
        gens = [(5, 1), (1, 7), (3, 4)]
        m = saturate(2, gens)
        assert len(calls) == 1
        assert saturate(2, gens) is m
        assert len(calls) == 1
        ref, rays = weakref.ref(m), m.cone.rays
        del m
        gc.collect()
        assert ref() is None
        again = saturate(2, gens)
        assert len(calls) == 2
        assert again.cone.rays == rays

    @pytest.mark.parametrize("gens, group", [
        ([(True, 0), (0, 1)], None),
        ([(1.0, 0), (0, 1)], None),
        ([(1, 0, 0)], None),
        ([(1,)], None),
        ([(1, 0)], [(True, 0), (0, 1)]),
        ([(1, 0)], [(1, 0, 0)]),
        ([(1, 0)], [(0, 1)]),   # a generator outside the supplied group
    ])
    def test_raising_inputs_store_nothing(self, gens, group):
        # (True, 0) == (1, 0) as keys: unchecked, it would return this record
        kept = saturate(2, [(1, 0), (0, 1)])
        held = dict(logfirm.monoid._SATURATED)
        with pytest.raises(ValueError):
            saturate(2, gens, group)
        assert len(logfirm.monoid._SATURATED) == len(held)
        assert kept.generators == ((1, 0), (0, 1))


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


def sharp_corpus(rng):
    """Sharp monoids of ranks 0 to 3 from ``random_monoid``, and cones over
    random polygons, mostly not simplicial, half of them carried by
    (x, y) -> (x + y, x - y) into a group of index 2."""
    out = []
    while len(out) < 40:
        m, _ = random_monoid(rng, rng.randint(1, 3))
        if m.sharp:
            out.append(m)
    for _ in range(40):
        points = [(rng.randint(-2, 2), rng.randint(-2, 2))
                  for _ in range(rng.randint(3, 6))]
        if rng.random() < 0.5:
            points = [(x + y, x - y) for x, y in points]
        out.append(saturate(3, [p + (1,) for p in points]))
    return out


def proper_sublattice(m):
    """Whether m's group has finite index > 1 in its saturation."""
    return any(d > 1 for d in smith_normal_form(m.group_basis, m.ambient_rank).divisors)


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

    def test_generators_must_lie_in_the_group(self):
        # the zero group, given by a zero row or by none, holds no generator
        for group in ([(0, 1)], [(0, 0)], []):
            with pytest.raises(ValueError, match="outside the supplied group"):
                saturate(2, [(1, 0)], group=group)
        assert saturate(2, [(0, 0)], group=[(0, 0)]).generators == ()

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
            if m.cone.facets:
                zero_kernel = not kernel_and_cokernel(
                    [list(f) for f in m.cone.facets], m.group_rank).kernel_basis
            else:
                zero_kernel = m.group_rank == 0
            assert m.sharp == zero_kernel, (m.generators, group)
            seen[m.sharp] += 1
            seen["group"] += group is not None
        assert min(seen.values()) > 50

    def test_rays_local_empty_iff_not_sharp(self):
        rng = random.Random(76)
        ranks = set()
        for _ in range(200):
            m, _ = random_monoid(rng, rng.randint(1, 3))
            assert m.sharp == (bool(m.cone.rays) or m.group_rank == 0)
            assert all(m.contains(m.ambient(r)) for r in m.cone.rays)
            ranks.add(m.group_rank)
        assert 0 in ranks

    def test_one_double_description(self, monkeypatch):
        # saturate reads the extreme rays and sharpness off the facets'
        # double description; only cutting an explicit group down to the
        # span of the generators takes a second one.  When the distinct
        # primitive vectors of the generators, in group coordinates, are as
        # many independent vectors as the group rank, the cone is
        # simplicial, described in closed form with no double description
        def described(m):
            local = {primitive(m.coords(v)) for v in gens if any(v)}
            simplicial = (len(local) == m.group_rank
                          and sum(map(any, hermite_normal_form(list(local))[0])) == len(local))
            return 0 if simplicial else 1

        calls = []

        def counting(normals, dim, *start, real=logfirm.intlinalg.dual_rays):
            calls.append(dim)
            return real(normals, dim, *start)

        monkeypatch.setattr(logfirm.intlinalg, "dual_rays", counting)
        rng = random.Random(75)
        kinds = set()
        for _ in range(200):
            rank = rng.randint(1, 3)
            gens = [tuple(rng.randint(-2, 3) for _ in range(rank))
                    for _ in range(rng.randint(1, 4))]
            if not any(any(g) for g in gens):
                continue
            calls.clear()
            m = saturate(rank, gens)
            assert len(calls) == described(m), gens
            kinds.add(len(calls))
            calls.clear()
            cut = saturate(rank, gens, group=identity(rank))
            spent = len(calls)
            # first in all of Z^rank, then in the group cut down to the span
            assert spent == described(N(rank)) + (
                described(cut) if 0 < cut.group_rank < rank else 0), gens
        assert kinds == {0, 1}

    def test_generating_set_lifts_without_ilp(self, monkeypatch):
        # every integer program of the library is a ConeImage.preimage call
        calls = []
        original = logfirm.intlinalg.ConeImage.preimage

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(logfirm.intlinalg.ConeImage, "preimage", counting)
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
        assert q1_monoid().hilbert == ((0, 2), (1, 1), (2, 0))

    def test_n(self):
        assert N().hilbert == ((1,),)

    def test_wide_cone_full_lattice(self):
        m = saturate(2, [(1, 0), (1, 3)], group=[[1, 0], [0, 1]])
        assert m.hilbert == ((1, 0), (1, 1), (1, 2), (1, 3))

    def test_not_sharp_raises(self):
        m = saturate(1, [(1,), (-1,)])
        with pytest.raises(NotSharp):
            list(m.hilbert)

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


class TestLazyHilbertBasis:
    @pytest.fixture
    def box_calls(self, monkeypatch):
        """The arguments of every bounding-box enumeration from now on."""
        calls = []
        original = logfirm.monoid._hilbert_basis_local

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(logfirm.monoid, "_hilbert_basis_local", counting)
        return calls

    def test_saturate_enumerates_only_when_read(self, box_calls):
        m = saturate(2, [(1, 0), (1, 3)], group=[[1, 0], [0, 1]])
        assert box_calls == []
        assert m.hilbert == ((1, 0), (1, 1), (1, 2), (1, 3))
        assert m.hilbert_local is m.hilbert_local
        assert len(box_calls) == 1

    def test_not_sharp_enumerates_nothing(self, box_calls):
        assert saturate(1, [(1,), (-1,)]).hilbert_local is None
        assert box_calls == []

    def test_pushout_and_firmness_enumerate_only_when_read(self, box_calls):
        p, q, r = N(), saturate(2, [(1, 0), (1, 1), (1, 2)]), N(2)
        theta, psi = hom(p, q, [[1], [1]]), hom(p, r, [[1], [2]])
        # the inputs' own bases, read by the pushout's amalgam
        for m in (p, q, r):
            m.hilbert_local
        box_calls.clear()
        res = fs_pushout(theta, psi)
        firm = firm_check_pushout(FiberProblem(p, (theta,)),
                                  LogPointQuery(r, psi))
        assert firm.firm
        assert box_calls == []
        res.characteristic.hilbert_local
        assert len(box_calls) == 1

    def test_value_is_the_box_enumeration(self):
        rng = random.Random(1411)
        for _ in range(40):
            rank = rng.randint(1, 3)
            gens = [tuple(rng.randint(-1, 3) for _ in range(rank))
                    for _ in range(rng.randint(1, 4))]
            m = saturate(rank, gens)
            box = logfirm.monoid._hilbert_basis_local(m.cone) if m.sharp else None
            assert m.hilbert_local == box

    def test_equality_and_hash_ignore_reads(self):
        gens = [(2, 0), (1, 1), (0, 2)]
        # saturate shares records, so each side is a fresh copy
        read = dataclasses.replace(saturate(2, gens))
        unread = dataclasses.replace(read)
        before = hash(read)
        read.hilbert_local
        assert hash(read) == before == hash(unread)
        assert read == unread
        assert read != saturate(2, [(1, 0), (0, 1)])
        # sharpness is read off the cone, not stored
        assert {"hilbert_local", "sharp"}.isdisjoint(
            f.name for f in dataclasses.fields(AffineMonoid))


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

    def test_zero_face_reads_no_hilbert_basis(self):
        rng = random.Random(1913)
        seen = {"rank 0": 0, "non-simplicial": 0, "sublattice": 0}
        for m in sharp_corpus(rng):
            # saturate shares records, so a Hilbert basis that another
            # caller read may be cached on m already; a fresh copy has none
            fresh = dataclasses.replace(m)
            zero = zero_face(fresh)
            assert "hilbert_local" not in vars(fresh)
            assert zero == faces(m)[0]
            assert zero.generator_subset == ()
            seen["rank 0"] += m.group_rank == 0
            seen["non-simplicial"] += len(m.cone.rays) > m.group_rank
            seen["sublattice"] += proper_sublattice(m)
        assert min(seen.values()) >= 5, seen


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

    @pytest.mark.parametrize("face, message", [
        (Face((5,), (0, 1)), "out of range"),
        (Face((0,), (1, 1)), "does not support"),
        (Face((), (1, -1)), "not supporting"),
    ])
    def test_not_a_face_rejected(self, face, message):
        with pytest.raises(NotAFace, match=message):
            face_localization(N(2), face)


def quotient_cases(rng):
    """Vectors in Z^d, d <= 4, whose span has index 1, 2 or 3 in its
    saturation, some with zero vectors among them, some spanning Z^d
    rationally, and some all zero."""
    out = []
    for i in range(300):
        d = rng.randint(1, 4)
        vectors = [[rng.randint(-3, 3) for _ in range(d)]
                   for _ in range(rng.randint(1, d + 1))]
        if i % 3 == 1:
            # index n in the saturation when the rest is saturated around it
            vectors[0] = [rng.choice((2, 3)) * x for x in vectors[0]]
        elif i % 3 == 2 and d >= 2:
            u, v = vectors[0], [rng.randint(-2, 2) for _ in range(d)]
            vectors[:1] = [vec_add(u, v), vec_sub(u, v)]
        if i % 5 == 0:
            vectors.insert(rng.randint(0, len(vectors)), [0] * d)
        out.append((d, vectors))
    out += [(2, [[0, 0]]), (3, [[0, 0, 0], [0, 0, 0]]), (2, [[2, 0]]),
            (3, [[3, 3, 0]]), (2, [[2, 0], [0, 3]]), (3, identity(3))]
    return out


def unimodular_change(p, p_old):
    """The T with p = T * p_old, checked unimodular; p_old has full row rank
    and its rows span the lattice that the rows of p span."""
    t = [solve_lattice(transpose(p_old), row, len(p_old)).particular for row in p]
    assert mat_mul(t, p_old) == [list(r) for r in p]
    if t:
        assert len(t) == len(t[0])
        scaled = scaled_inverse(t)
        assert scaled is not None and abs(scaled[0]) == 1
    return t


def lattice_index(vectors, d):
    """The index of the span of ``vectors`` in its saturation: the order of
    the torsion of Z^d modulo the span, the cokernel of the vectors as
    columns."""
    out = 1
    for order in kernel_and_cokernel(transpose(vectors), len(vectors)).torsion:
        out *= order
    return out


class TestQuotientOracle:
    """``lattice_quotient`` and the monoid quotients read off it, against
    the route of ``quotient_oracle``: the span saturated as a kernel of a
    kernel, and the coordinates read off a Smith form of that basis."""

    def test_free_and_torsion_coordinates(self):
        rng = random.Random(2201)
        seen = Counter()
        for d, vectors in quotient_cases(rng):
            p, torsion = lattice_quotient(vectors, d)
            index = 1
            for row, order in torsion:
                assert order > 1
                assert all(dot(row, v) % order == 0 for v in vectors)
                index *= order
            assert index == lattice_index(vectors, d)
            for _ in range(5):
                x = [rng.randint(-6, 6) for _ in range(d)]
                # x is in the span exactly when every coordinate kills it
                in_span = solve_lattice(transpose(vectors), x, len(vectors)) is not None
                assert in_span == (not any(mat_vec(p, x)) and all(
                    dot(row, x) % order == 0 for row, order in torsion))
            if not any(map(any, vectors)):
                assert p == tuple(map(tuple, identity(d))) and torsion == ()
                seen["all zero"] += 1
                continue
            s = len(saturated_span(vectors, d))
            assert len(p) == d - s
            assert all(not any(mat_vec(p, v)) for v in vectors)
            if p:
                # p maps onto Z^(d - s): its cokernel is 0
                onto = kernel_and_cokernel([list(r) for r in p], d)
                assert (onto.free_rank, onto.torsion) == (0, ())
            t = unimodular_change(p, projection(vectors, d))
            seen["T is not 1"] += t != identity(len(t))
            seen[f"index {index}"] += 1
            seen["full rank"] += s == d
            seen["zero vector"] += any(not any(v) for v in vectors)
        assert min(seen[k] for k in ("all zero", "index 1", "index 2", "index 3",
                                     "full rank", "zero vector", "T is not 1")) >= 2, seen

    def test_sharpen_equals_the_oracle_after_t(self):
        rng = random.Random(2202)
        seen = Counter()
        while seen["non-sharp"] < 60:
            m, group = random_monoid(rng, rng.randint(1, 4))
            if m.sharp:
                continue
            sharp_m, proj = sharpen(m)
            old, old_proj = oracle_quotient(m, m.unit_basis())
            t = unimodular_change(proj.matrix, old_proj.matrix)
            assert sharp_m == saturate(len(t), [mat_vec(t, g) for g in old.generators],
                                       group=[mat_vec(t, b) for b in old.group_basis])
            assert set(sharp_m.hilbert) == {mat_vec(t, h) for h in old.hilbert}
            seen["non-sharp"] += 1
            seen["group"] += group is not None
            seen["T is not 1"] += t != identity(len(t))
        assert seen["group"] >= 10 and seen["T is not 1"] >= 1, seen

    def test_localizations_equal_the_oracle_after_t(self):
        rng = random.Random(2203)
        seen = Counter()
        for m in sharp_corpus(rng):
            for f in faces(m):
                if not f.generator_subset:
                    continue
                loc, proj = face_localization(m, f)
                old, old_proj = oracle_quotient(
                    m, [m.hilbert[i] for i in f.generator_subset])
                t = unimodular_change(proj.matrix, old_proj.matrix)
                assert loc == saturate(len(t), [mat_vec(t, g) for g in old.generators],
                                       group=[mat_vec(t, b) for b in old.group_basis])
                assert set(loc.hilbert) == {mat_vec(t, h) for h in old.hilbert}
                seen["faces"] += 1
                seen["sublattice"] += proper_sublattice(m)
                seen["T is not 1"] += t != identity(len(t))
        assert seen["faces"] >= 200 and seen["sublattice"] >= 20, seen

    @pytest.mark.parametrize("rank, gens, group", [
        (2, [[2, 0], [-2, 0], [0, 3]], [[2, 0], [0, 3]]),
        (3, [[2, 0, 0], [-2, 0, 0], [0, 2, 2], [0, 0, 2]],
         [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
        (3, [[1, 1, 0], [2, 2, 0]], None),
        (3, [[2, 0, 0], [0, 2, 0]], identity(3)),
    ])
    def test_lower_span_saturation_is_the_oracle(self, rank, gens, group):
        assert saturate(rank, gens, group=group) == oracle_saturate(rank, gens, group)

    def test_lower_span_saturation_corpus(self):
        # generators in Z^r or in a group of index up to 3^r, often fewer
        # than r of them or with a line
        rng = random.Random(2204)
        seen = Counter()
        while seen["lower span"] < 100:
            r = rng.randint(1, 4)
            group = [[rng.choice((1, 1, 2, 3)) * int(i == j) for j in range(r)]
                     for i in range(r)]
            gens = [list(mat_vec(transpose(group), [rng.randint(-2, 2) for _ in range(r)]))
                    for _ in range(rng.randint(1, r))]
            if rng.random() < 0.5:
                gens.append([-x for x in gens[0]])
            got = saturate(r, gens, group=group)
            assert got == oracle_saturate(r, gens, group)
            lower = 0 < got.group_rank < r
            seen["lower span"] += lower
            seen["lower span, sublattice"] += lower and group != identity(r)
            seen["lower span, not sharp"] += lower and not got.sharp
            seen["whole group"] += got.group_rank == r
        assert min(seen.values()) >= 20, seen


@pytest.fixture
def smith_calls(monkeypatch):
    """The row counts of the Smith forms taken while the test runs."""
    calls = []
    real = logfirm.intlinalg.smith_normal_form

    def counting(m, cols):
        calls.append(len(m))
        return real(m, cols)

    for module in (logfirm.intlinalg, logfirm.monoid):
        monkeypatch.setattr(module, "smith_normal_form", counting)
    return calls


class TestQuotientCounts:
    """Every quotient takes one Smith form of the vectors it divides by."""

    def test_sharpen_takes_two(self, smith_calls):
        # one for the units, one for the quotient by them
        m = saturate(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, 2, 1), (1, 1, 0)])
        assert not m.sharp
        sharp_m, _ = sharpen(m)
        assert is_free(sharp_m, 2)
        assert len(smith_calls) == 2

    def test_face_localization_takes_one(self, smith_calls):
        m = q1_monoid()
        ray = next(f for f in faces(m) if len(f.generator_subset) == 1)
        del smith_calls[:]
        face_localization(m, ray)
        assert len(smith_calls) == 1

    def test_lower_span_saturation_takes_one(self, smith_calls):
        m = saturate(3, [(2, 0, 0), (-2, 0, 0), (0, 2, 2), (0, 0, 2)],
                     group=[(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert m.group_rank == 3
        assert smith_calls == []
        saturate(3, [(1, 1, 0), (2, 2, 0), (-1, -1, 0)], group=identity(3))
        assert len(smith_calls) == 1

    def test_pushout_takes_one(self, smith_calls):
        n = N()
        f, g = hom(n, n, [[2]]), hom(n, n, [[3]])
        del smith_calls[:]
        fs_pushout(f, g)
        assert len(smith_calls) == 1


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
        assert double_dual_saturated(m).hilbert_local == m.hilbert_local

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
            assert double_dual_saturated(m).hilbert_local == m.hilbert_local
            done += 1

    def test_dual_and_group_copy_are_read_off(self, monkeypatch):
        # oracle: saturating again, the facets for the dual and m's own
        # group coordinates for the copy; the library reads both off m
        rng = random.Random(1914)
        corpus = sharp_corpus(rng) + [
            m for m, _ in (random_monoid(rng, rng.randint(1, 3))
                           for _ in range(60)) if not m.sharp]
        oracles = []
        for m in corpus:
            g = m.group_rank
            gens = [c for c in map(m.coords, m.generators) if c is not None]
            oracles.append((saturate(g, gens, group=identity(g)),
                            saturate(g, m.cone.facets, group=identity(g))
                            if m.sharp else None))
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for module in (logfirm.monoid, logfirm.intlinalg):
            monkeypatch.setattr(module, "dual_description", counting(
                "dual_description", logfirm.intlinalg.dual_description))
        monkeypatch.setattr(logfirm.monoid, "saturate",
                            counting("saturate", logfirm.monoid.saturate))
        seen = {"rank 0": 0, "non-simplicial": 0, "sublattice": 0,
                "not sharp": 0}
        for m, (copy, dual_m) in zip(corpus, oracles):
            assert in_group_coordinates(m) == copy
            if m.sharp:
                assert dual(m) == dual_m
            else:
                with pytest.raises(NotSharp):
                    dual(m)
            seen["rank 0"] += m.group_rank == 0
            seen["non-simplicial"] += len(m.cone.rays) > m.group_rank
            seen["sublattice"] += proper_sublattice(m)
            seen["not sharp"] += not m.sharp
        assert calls == []
        assert min(seen.values()) >= 5, seen

    def test_dual_hilbert_members_are_functionals(self):
        m = q1_monoid()
        d = dual(m)
        # every dual generator evaluates nonnegatively on the local cone
        for phi in d.hilbert:
            for h in m.hilbert_local:
                assert dot(phi, h) >= 0


class TestConeRecord:
    """Each monoid keeps its cone's ``intlinalg.Cone`` record, which
    ``dual`` transposes and ``faces`` closes (``record_oracle``)."""

    def test_record_oracle_over_the_corpus(self):
        rng = random.Random(1917)
        corpus = sharp_corpus(rng) + [
            m for m, _ in (random_monoid(rng, rng.randint(1, 3))
                           for _ in range(60)) if not m.sharp]
        corpus += [dual(m) for m in corpus if m.sharp]
        seen = Counter()
        for m in corpus:
            assert record_faults(m) == [], m
            seen["rank 0"] += m.group_rank == 0
            seen["not sharp"] += not m.sharp
            seen["sublattice"] += proper_sublattice(m)
            # a dual that kept the incidence untransposed would differ here
            seen["asymmetric"] += m.sharp and m.cone.ray_facets != m.cone.incidence
        assert min(seen.values()) >= 5, seen

    def test_no_second_copy_of_the_record(self):
        m = saturate(2, [(1, 0), (1, 2)])
        assert not any(hasattr(m, name) for name in ("facets_local", "rays_local"))
        assert in_group_coordinates(m).cone is m.cone


# ---------------------------------------------------------------------------
# homomorphisms


class TestHoms:
    def test_is_local(self):
        n = N()
        assert is_local(hom(n, n, [[3]]))
        assert not is_local(hom(n, n, [[0]]))
        n2 = N(2)
        assert not is_local(hom(n2, n, [[1, 0]]))

    def test_matrix_from_a_zero_group(self):
        # a hom from the zero monoid in Z^2 into N^3 is induced by the zero
        # matrix, of shape target rank x source rank
        h = MonoidHom(saturate(2, []), N(3), local=((), (), ()))
        assert h.matrix == ((0, 0),) * 3

    def test_is_local_needs_a_sharp_target(self):
        # (a, b) -> a - b kills (1, 1), but h^{-1}(0) is no face of N^2
        z = saturate(1, [(1,), (-1,)])
        with pytest.raises(NotSharp):
            is_local(hom(N(2), z, [[1, -1]]))
        # a source with units is never local: units map to units
        zn = saturate(2, [(1, 0), (-1, 0), (0, 1)])
        assert not is_local(hom(zn, N(), [[0, 1]]))

    def test_is_local_matches_hilbert_elements(self):
        # oracle: no Hilbert element of the source maps to 0; the library
        # reads only the extreme rays
        rng = random.Random(1915)
        seen = {True: 0, False: 0}
        while min(seen.values()) < 40:
            src, _ = ambient_kept_monoid(rng)
            dst, _ = ambient_kept_monoid(rng)
            matrix = [[rng.randint(-1, 2) for _ in range(src.ambient_rank)]
                      for _ in range(dst.ambient_rank)]
            try:
                h = hom(src, dst, matrix)
            except ValueError:
                continue
            local = all(any(mat_vec(h.local, c)) for c in src.hilbert_local)
            assert is_local(h) == local, (src.generators, dst.generators, matrix)
            seen[local] += 1

    def test_invalid_hom_rejected(self):
        with pytest.raises(ValueError):
            hom(N(), N(), [[-1]])

    def test_rejection_names_first_failing_hilbert_element(self):
        # the Hilbert basis is (1,0), (1,1), (1,2) and the extreme rays are
        # (1,0), (1,2); (1,1) -> -1 is the first element outside N
        src = saturate(2, [(1, 0), (1, 1), (1, 2)])
        assert src.cone.rays == ((1, 0), (1, 2))
        with pytest.raises(ValueError, match=r"^matrix does not map "
                           r"generator \(1, 1\) into the target monoid$"):
            hom(src, N(), [[2, -3]])
        with pytest.raises(ValueError, match=r"^hom does not map "
                           r"generator \(1, 1\) into"):
            MonoidHom(src, N(), local=[[2, -3]])

    def test_ray_check_agrees_with_hilbert_check(self):
        # a random group map is a hom exactly when it sends every Hilbert
        # element into the target
        rng = random.Random(1412)
        for _ in range(200):
            src, _ = ambient_kept_monoid(rng)
            dst, _ = ambient_kept_monoid(rng)
            matrix = [[rng.randint(-2, 3) for _ in range(src.ambient_rank)]
                      for _ in range(dst.ambient_rank)]
            images = [mat_vec(matrix, h) for h in src.hilbert]
            try:
                hom(src, dst, matrix)
            except ValueError as exc:
                if "group" in str(exc):
                    continue
                bad = next(h for h, v in zip(src.hilbert, images)
                           if not dst.contains(v))
                assert str(bad) in str(exc)
            else:
                assert all(dst.contains(v) for v in images)

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
            computed = result.saturation_free.contains(free)
            if brute:
                assert computed, (tor, free)
            # the converse needs unbounded n, so only the sound direction
            # is asserted for interior points; on the boundary of the box the
            # oracle may miss memberships
    return True


class TestPushout:
    def test_two_three_kummer(self):
        n = N()
        f, g = hom(n, n, [[2]]), hom(n, n, [[3]])
        res = fs_pushout(f, g)
        assert res.torsion_orders == ()
        assert res.free_rank == 1
        assert is_free(res.characteristic, 1)
        # legs: x3 and x2 up to the sign convention of the quotient coordinate
        one = res.characteristic.hilbert[0]
        assert pushout_leg1(f, g, res).apply((1,)) == tuple(3 * x for x in one)
        assert res.leg2.apply((1,)) == tuple(2 * x for x in one)

    def test_pushout_along_identity(self):
        n = N()
        g = hom(n, N(2), [[1], [1]])
        res = fs_pushout(identity_hom(n), g)
        assert is_free(res.characteristic, 2)

    def test_diagonal_pushout(self):
        n = N()
        res = fs_pushout(hom(n, N(2), [[1], [1]]), identity_hom(n))
        assert is_free(res.characteristic, 2)

    def test_self_pushout_of_times_two_gains_torsion(self):
        n = N()
        res = fs_pushout(hom(n, n, [[2]]), hom(n, n, [[2]]))
        assert res.torsion_orders == (2,)
        witness = res.amalgam_equals_saturation()
        assert witness is not None
        tor, free = witness
        # the witness is saturation-only: n * witness falls in the amalgam
        assert res.saturation_free.contains(free)
        assert not res.amalgam_contains(tor, free)

    def test_universal_square_commutes(self):
        n = N()
        f = hom(n, n, [[2]])
        g = hom(n, n, [[3]])
        res = fs_pushout(f, g)
        assert pushout_leg1(f, g, res).compose(f).equal_on_source(res.leg2.compose(g))

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
            assert (hilbert_key(res[0].characteristic)
                    == hilbert_key(res[1].characteristic))
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
            assert hilbert_key(res.characteristic) == hilbert_key(ref.characteristic)
            assert pushout_leg1(f, g, res).compose(f).equal_on_source(res.leg2.compose(g))
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

    def test_sources_must_agree(self):
        with pytest.raises(ValueError, match="share their source"):
            find_factorization(hom(N(), N(), [[2]]), hom(N(2), N(), [[1, 1]]))

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


# ---------------------------------------------------------------------------
# integer programs against their entry-by-entry formulations


def integral_corpus(rng, count):
    """Homs theta: P -> Q with P in Z^1 or Z^2 and Q in Z^1 to Z^3, half of
    them in Z^3, both generated in {0, 1, 2}^r; each column of theta is
    a sum of one or two Hilbert generators of Q.  Each comes with a bound
    for ``is_integral``: 2 for a rank-3 target, else 3."""
    out = []
    while len(out) < count:
        pr, qr = rng.randint(1, 2), rng.choice((1, 2, 3, 3))
        pg = [tuple(rng.randint(0, 2) for _ in range(pr))
              for _ in range(rng.randint(1, 3))]
        qg = [tuple(rng.randint(0, 2) for _ in range(qr))
              for _ in range(rng.randint(1, 4))]
        pg, qg = [g for g in pg if any(g)], [g for g in qg if any(g)]
        if not pg or not qg:
            continue
        p, q = saturate(pr, pg), saturate(qr, qg)
        theta = columns_hom(p, q, [random_element(rng, q, (1, 2)) for _ in range(pr)])
        out.append((theta, 2 if q.group_rank == 3 else 3))
    return out


class TestProgramOracles:
    def test_is_integral_matches_fresh_programs(self):
        # one prepared system in group coordinates gives the verdict and the
        # first refuted quadruple of a fresh program per ambient quadruple
        seen = Counter()
        for theta, bound in integral_corpus(random.Random(2024), 150):
            got = is_integral(theta, bound)
            assert got == oracle_is_integral(theta, bound), theta
            seen[got.verdict, theta.target.group_rank] += 1
        assert seen["no", 3] >= 3 and seen["probably_yes", 3] >= 20, seen
        assert seen["no", 2] >= 10 and seen["probably_yes", 1] >= 30, seen

    def test_find_factorization_matches_entrywise_rows(self):
        rng = random.Random(27182)
        found = 0
        for _ in range(300):
            p = N(rng.randint(1, 2))
            (q, _), (r, _) = ambient_kept_monoid(rng), ambient_kept_monoid(rng)
            theta = columns_hom(p, q, [random_element(rng, q, (0, 2)) for _ in p.hilbert])
            psi = columns_hom(p, r, [random_element(rng, r, (1, 2)) for _ in p.hilbert])
            h = find_factorization(theta, psi)
            ref = oracle_find_factorization(theta, psi)
            assert (None if h is None else h.local) == ref
            found += h is not None
        assert 30 < found < 270


class TestPreparedCounts:
    """A matrix solved for many right-hand sides takes one Smith form."""

    def test_is_integral_takes_one(self, smith_calls):
        for theta, verdict in ((hom(N(2), N(2), [[1, 0], [1, 1]]), "no"),
                               (hom(N(2), q1_monoid(), [[2, 0], [0, 2]]),
                                "probably_yes")):
            del smith_calls[:]
            assert is_integral(theta, bound=4).verdict == verdict
            assert len(smith_calls) == 1

    def test_amalgam_takes_one_per_pushout(self, smith_calls):
        # both generators of the saturation are checked against the amalgam
        n = N()
        res = fs_pushout(hom(n, N(2), [[1], [1]]), identity_hom(n))
        assert res.saturation_free.sharp
        assert len(res.saturation_generators()) == 2
        del smith_calls[:]
        assert res.amalgam_equals_saturation() is None
        assert res.amalgam_equals_saturation() is None
        assert len(smith_calls) == 1


class TestSameMonoid:
    """Records are equal when they are the same monoid in the same ambient
    lattice, whichever generators they were given; two homs that must
    share a monoid are held to that equality."""

    def test_equality_ignores_the_generator_list(self):
        assert saturate(1, [(1,), (2,)]) == N()
        assert hash(saturate(1, [(1,), (2,)])) == hash(N())
        assert saturate(2, [(2, 0), (1, 1), (0, 2), (3, 1)]) == q1_monoid()
        # 2 generates 2N in 2Z, and N in Z
        assert saturate(1, [(2,)], group=[(1,)]) != saturate(1, [(2,)])

    def test_source_from_other_generators_accepted(self):
        n, n_again = N(), saturate(1, [(1,), (2,)])
        theta = hom(n, n, [[2]])
        assert (fs_pushout(theta, hom(n_again, n, [[3]]))
                == fs_pushout(theta, hom(n, n, [[3]])))
        assert (find_factorization(theta, hom(n_again, n, [[4]])).local
                == find_factorization(theta, hom(n, n, [[4]])).local)

    def test_source_from_another_group_rejected(self):
        n = N()
        theta = hom(saturate(1, [(2,)]), n, [[1]])
        psi = hom(saturate(1, [(2,)], group=[(1,)]), n, [[1]])
        with pytest.raises(ValueError, match="share their source"):
            fs_pushout(theta, psi)
        with pytest.raises(ValueError, match="share their source"):
            find_factorization(theta, psi)

    def test_compose_needs_the_inner_target(self):
        n = N()
        outer = hom(n, n, [[3]])
        with pytest.raises(ValueError, match="meet at one monoid"):
            outer.compose(MonoidHom(n, saturate(1, [(2,)]), local=[[1]]))
        inner = hom(n, saturate(1, [(1,), (2,)]), [[2]])
        assert outer.compose(inner).apply((1,)) == (6,)


_Z = saturate(1, [(1,), (-1,)])


@pytest.mark.parametrize("call, exc", [
    (lambda: identity_hom(saturate(1, [(2,)])).apply((1,)), ValueError),
    (lambda: face_localization(_Z, Face((), (0,))), NotSharp),
    (lambda: find_factorization(hom(N(), saturate(2, [(1, 0), (-1, 0), (0, 1)]),
                                    [[0], [1]]), identity_hom(N())), NotSharp),
    (lambda: is_integral(identity_hom(_Z)), NotSharp),
    (lambda: is_saturated(identity_hom(_Z)), NotSharp),
], ids=["apply outside the source group", "face_localization",
        "find_factorization", "is_integral", "is_saturated"])
def test_refused_input_raises(call, exc):
    with pytest.raises(exc):
        call()
