"""Tests for the exact integer linear algebra core.

Expected values are either asserted directly for trivial cases, verified by
substitution, or cross-checked against independent brute-force oracles
defined in this file.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logfirm.intlinalg
from fan_oracle import facets_to_rays
from logfirm.intlinalg import (
    Cone,
    ConeImage,
    ResourceLimit,
    _particular,
    dot,
    dual_description,
    dual_rays,
    hermite_normal_form,
    identity,
    ilp_budget,
    ilp_feasible,
    in_row_lattice,
    kernel_and_cokernel,
    mat_mul,
    mat_vec,
    primitive,
    row_lattice_basis,
    scaled_inverse,
    scaled_solution,
    smith_normal_form,
    solve_lattice,
)
from logfirm.lift import MonomialChart, solve_exponents


def det(m):
    """Exact determinant by cofactor expansion (small matrices only)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_mat_mul_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul([[1, 2]], [[1], [2], [3]])


# ---------------------------------------------------------------------------
# Smith normal form


class TestSmithNormalForm:
    def test_two_one_three_zero(self):
        snf = smith_normal_form([[2, 1], [3, 0]], 2)
        assert snf.divisors == (1, 3)

    def test_identity(self):
        snf = smith_normal_form(identity(2), 2)
        assert snf.divisors == (1, 1)

    def test_diag_two_two(self):
        # oracle: row/column elimination by hand gives diag(2, 2)
        snf = smith_normal_form([[2, 0], [0, 2]], 2)
        assert snf.divisors == (2, 2)

    @pytest.mark.parametrize("m, rank", [
        ([[2, 1], [3, 0]], 2), ([[1, 1], [2, 2]], 1), ([[0, 0, 0]], 0),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 2), ([[6], [4]], 1)])
    def test_rank(self, m, rank):
        assert smith_normal_form(m, len(m[0])).rank == rank

    @given(small_matrices)
    @settings(max_examples=300, deadline=None)
    def test_decomposition_identity_and_chain(self, m):
        snf = smith_normal_form(m, len(m[0]))
        lhs = mat_mul(mat_mul([list(r) for r in snf.U], m), [list(r) for r in snf.V])
        assert lhs == [[snf.divisors[i] if i == j else 0 for j in range(len(m[0]))]
                       for i in range(len(m))]
        assert abs(det([list(r) for r in snf.U])) == 1
        assert abs(det([list(r) for r in snf.V])) == 1
        divs = [d for d in snf.divisors if d != 0]
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0
        assert all(d >= 0 for d in snf.divisors)
        # zero divisors trail
        seen_zero = False
        for d in snf.divisors:
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero


# ---------------------------------------------------------------------------
# Hermite normal form


class TestHermiteNormalForm:
    def test_gcd_pivot(self):
        h, u = hermite_normal_form([[2], [3]])
        assert h[0][0] == 1  # gcd(2, 3) via extended Euclid
        assert mat_mul([list(r) for r in u], [[2], [3]]) == [list(r) for r in h]

    def test_identity(self):
        h, u = hermite_normal_form(identity(3))
        assert [list(r) for r in h] == identity(3)

    def test_zero(self):
        h, u = hermite_normal_form([[0, 0]])
        assert [list(r) for r in h] == [[0, 0]]
        assert [list(r) for r in u] == identity(1)

    @given(small_matrices)
    @settings(max_examples=200, deadline=None)
    def test_echelon_and_reduction(self, m):
        h, u = hermite_normal_form(m)
        assert mat_mul([list(r) for r in u], m) == [list(r) for r in h]
        assert abs(det([list(r) for r in u])) == 1
        pivots = []
        for row in h:
            piv = next((j for j, x in enumerate(row) if x), None)
            if piv is None:
                continue
            assert row[piv] > 0
            if pivots:
                assert piv > pivots[-1][1]
            pivots.append((row[piv], piv))
        # entries above each pivot reduced into [0, pivot)
        for i, row in enumerate(h):
            piv = next((j for j, x in enumerate(row) if x), None)
            if piv is None:
                continue
            for above in range(i):
                assert 0 <= h[above][piv] < row[piv]


# ---------------------------------------------------------------------------
# lattice solving and kernels


class TestScaledSolution:
    @given(small_matrices, st.data())
    @settings(max_examples=200, deadline=None)
    def test_least_scale_by_brute_force(self, a, data):
        """For b in the rational column space of A, t is the least t >= 1
        with t*b in the column lattice, found here by trying t = 1, 2, ...
        against a Hermite basis of the columns."""
        cols = len(a[0])
        y = data.draw(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols))
        image = list(mat_vec(a, y))
        g = gcd(data.draw(st.sampled_from([1, 2, 3, 6])), *image)
        b = [x // g for x in image]
        lattice = row_lattice_basis([tuple(col) for col in zip(*a)])
        brute = next(t for t in range(1, g + 1)
                     if in_row_lattice(lattice, [t * x for x in b]) is not None)
        t, x = scaled_solution(smith_normal_form(a, cols), b)
        assert t == brute
        assert list(mat_vec(a, x)) == [t * v for v in b]

    @pytest.mark.parametrize("a", [[[2], [2]], [[1, 2], [2, 4], [0, 3]],
                                   [[0, 0], [0, 0]]])
    def test_left_kernel_part_ignored(self, a):
        # w = U^-1 * e_i for i past the rank changes only entry i of U*b
        snf = smith_normal_form(a, len(a[0]))
        rank = snf.rank
        p, w = scaled_inverse(snf.U)  # |p| = 1: U is unimodular
        u_inv = [[p * x for x in row] for row in w]
        for b in itertools.product(range(-2, 3), repeat=len(a)):
            expected = scaled_solution(snf, b)
            for i, k in itertools.product(range(rank, len(a)), (-2, 1, 3)):
                shifted = [x + k * row[i] for x, row in zip(b, u_inv)]
                assert scaled_solution(snf, shifted) == expected

    def test_large_divisor(self):
        t, x = scaled_solution(smith_normal_form([[100003]], 1), [1])
        assert (t, x) == (100003, (1,))


class TestSolveLattice:
    def test_two_three_equals_one(self):
        sol = solve_lattice([[2, 3]], [1], 2)
        assert sol is not None
        assert dot([2, 3], sol.particular) == 1
        assert len(sol.kernel_basis) == 1
        assert primitive(sol.kernel_basis[0]) in ((3, -2), (-3, 2))

    def test_parity_obstruction(self):
        assert solve_lattice([[2]], [1], 1) is None

    def test_zero_system(self):
        sol = solve_lattice([[0, 0]], [0], 2)
        assert sol is not None
        assert sol.particular == (0, 0)
        assert len(sol.kernel_basis) == 2

    @given(small_matrices, st.data())
    @settings(max_examples=200, deadline=None)
    def test_solutions_verify(self, a, data):
        cols = len(a[0])
        # build b as A*x for a random integer x so the system is feasible
        x = data.draw(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols))
        b = list(mat_vec(a, x))
        sol = solve_lattice(a, b, cols)
        assert sol is not None
        assert list(mat_vec(a, sol.particular)) == b
        for kv in sol.kernel_basis:
            assert all(v == 0 for v in mat_vec(a, kv))
        # random kernel combinations still solve the system
        coeffs = data.draw(
            st.lists(st.integers(-3, 3), min_size=len(sol.kernel_basis),
                     max_size=len(sol.kernel_basis)))
        pt = list(sol.particular)
        for c, kv in zip(coeffs, sol.kernel_basis):
            pt = [p + c * k for p, k in zip(pt, kv)]
        assert list(mat_vec(a, pt)) == b


def scaled_particular(snf, b):
    """The lattice step's rule through :func:`scaled_solution`: its solution
    when it needs no scaling (t == 1) and U*b vanishes past the rank, and
    None otherwise."""
    t, x = scaled_solution(snf, b)
    if t != 1 or any(mat_vec(snf.U, b)[snf.rank:]):
        return None
    return x


class TestParticular:
    """``_particular``, the lattice step of ``solve_lattice`` and
    ``ConeImage.preimage``, reads U*b once and stops at the first entry
    that rules b out; its answers and solutions are those of the rule
    through :func:`scaled_solution`."""

    def test_equal_to_the_scaled_solution_rule(self):
        rng = random.Random(2804)
        seen = Counter()
        for _ in range(400):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            rank = rng.randint(0, min(rows, cols))
            if rank:
                # a product through `rank` dimensions has rank at most that
                a = mat_mul([[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)],
                            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)])
            else:
                a = [[0] * cols for _ in range(rows)]
            snf = smith_normal_form(a, cols)
            image = list(mat_vec(a, [rng.randint(-3, 3) for _ in range(cols)]))
            for b in (image, [v + rng.randint(-1, 1) for v in image],
                      [rng.randint(-4, 4) for _ in range(rows)]):
                got = _particular(snf, b)
                assert got == scaled_particular(snf, b), (a, b)
                if got is not None:
                    assert list(mat_vec(a, got)) == b
                    seen["solved"] += 1
                elif any(mat_vec(snf.U, b)[snf.rank:]):
                    seen["off the span"] += 1
                else:
                    seen["a divisor fails"] += 1
            seen["non-square" if rows != cols else "square"] += 1
            seen["rank-deficient" if snf.rank < min(rows, cols) else "full rank"] += 1
            seen["divisor > 1"] += any(d > 1 for d in snf.divisors)
        assert min(seen.values()) >= 40, seen


class TestRightHandSideShape:
    """A right-hand side needs one entry per row: a short or long one would
    be read as padded or cut, and answer another question."""

    def test_short_equation_rhs_rejected(self):
        # read as padded, it asked for x + y = 0 and found (0, 0)
        with pytest.raises(ValueError, match="per row, 1; this one has 0"):
            ilp_feasible(2, [[1, 1]], [])

    def test_short_lattice_rhs_rejected(self):
        # read as padded, it asked for (x, y) = (3, 0) and found it
        with pytest.raises(ValueError, match="per row, 2; this one has 1"):
            solve_lattice([[1, 0], [0, 1]], [3], 2)

    @pytest.mark.parametrize("a, b", [([[1, 0]], [1, 2]), ([[], []], [0]),
                                      ([], [1])])
    def test_lattice_rhs_of_other_length_rejected(self, a, b):
        # the width of the matrix with no rows is any: b is what is wrong
        with pytest.raises(ValueError):
            solve_lattice(a, b, len(a[0]) if a else 2)

    def test_missing_equation_rhs_rejected(self):
        with pytest.raises(ValueError, match="per row, 1; this one has 0"):
            ConeImage([[1, 1]], identity(2), 2).preimage([])
        with pytest.raises(ValueError, match="this one has none"):
            ilp_feasible(2, [[1, 1]], None, identity(2))

    def test_inequality_rhs_of_other_length_rejected(self):
        with pytest.raises(ValueError, match="per row, 2; this one has 1"):
            ilp_feasible(2, ineq_lhs=identity(2), ineq_rhs=[1])
        with pytest.raises(ValueError, match="per row, 0; this one has 1"):
            ilp_feasible(2, None, [1], identity(2))
        with pytest.raises(ValueError, match="per row, 0; this one has 1"):
            ConeImage([], identity(2), 2).preimage([1])
        assert ilp_feasible(2, None, [], identity(2), [1, 2]) == (1, 2)

    def test_rhs_of_matching_length_accepted(self):
        assert ilp_feasible(2, [[1, 1]], [3], identity(2)) is not None
        assert solve_lattice([[1, 0], [0, 1]], [3, 0], 2).particular == (3, 0)
        assert solve_lattice([[], []], [0, 0], 0) is not None


class TestKernelCokernel:
    def test_full_rank_torsion_three(self):
        kc = kernel_and_cokernel([[2, 1], [3, 0]], 2)
        assert kc.kernel_basis == ()
        assert kc.free_rank == 0
        assert kc.torsion == (3,)

    def test_symmetric_torsion_three(self):
        kc = kernel_and_cokernel([[2, 1], [1, 2]], 2)
        assert kc.kernel_basis == ()
        assert kc.torsion == (3,)

    def test_identity(self):
        kc = kernel_and_cokernel(identity(3), 3)
        assert kc.kernel_basis == ()
        assert kc.free_rank == 0
        assert kc.torsion == ()

    def test_rank_deficient(self):
        kc = kernel_and_cokernel([[1, 1], [2, 2]], 2)
        assert kc.free_rank == 1
        assert len(kc.kernel_basis) == 1
        assert primitive(kc.kernel_basis[0]) in ((1, -1), (-1, 1))


# ---------------------------------------------------------------------------
# integer feasibility


def brute_force_ilp(num_vars, eq_lhs, eq_rhs, ineq_lhs, box):
    """Oracle: exhaustive scan of the integer box [-box, box]^n."""
    for x in itertools.product(range(-box, box + 1), repeat=num_vars):
        if eq_lhs and list(mat_vec(eq_lhs, x)) != list(eq_rhs):
            continue
        if ineq_lhs and any(dot(row, x) < 0 for row in ineq_lhs):
            continue
        return x
    return None


class TestIlpFeasible:
    def test_simple_equality(self):
        x = ilp_feasible(1, [[2]], [6], [[1]])
        assert x == (3,)

    def test_two_x_plus_three_y(self):
        x = ilp_feasible(2, [[2, 3]], [5], identity(2))
        assert x is not None
        assert 2 * x[0] + 3 * x[1] == 5 and x[0] >= 0 and x[1] >= 0

    def test_infeasible(self):
        assert ilp_feasible(2, [[2, 3]], [1], identity(2)) is None

    def test_unbounded_direction_found(self):
        # x - y = 1 with x, y >= 5: solutions exist arbitrarily far out
        x = ilp_feasible(2, [[1, -1]], [1], identity(2), [5, 5])
        assert x is not None
        assert x[0] - x[1] == 1 and x[0] >= 5 and x[1] >= 5

    @pytest.mark.parametrize("k", [2, 3])
    def test_unbounded_strip(self, k):
        # the rows cut out the line 2x - 2y = 1: unbounded along x = y (and
        # z when k = 3), yet parity leaves it no lattice point
        rows = [[2, -2] + [0] * (k - 2), [-2, 2] + [0] * (k - 2)]
        assert ilp_feasible(k, ineq_lhs=rows, ineq_rhs=[1, -1]) is None
        x = ilp_feasible(k, ineq_lhs=rows, ineq_rhs=[0, 0])
        assert x is not None
        assert all(sum(a * b for a, b in zip(row, x)) >= 0 for row in rows)

    def test_budget_raises(self):
        with pytest.raises(ResourceLimit):
            with ilp_budget(1):
                ilp_feasible(3, None, None, identity(3), [0, 0, 0])

    SLAB = [[1, 0], [0, 1], [-1, -1], [2, -2], [-2, 2]]

    def slab_rhs(self, n):
        # x, y >= 0, x + y <= n and 2x - 2y = 1: no integer point
        return [0, 0, -n, 1, -1]

    def test_bounded_slices_need_no_double_description(self, monkeypatch):
        calls = []

        def counting(normals, dim, *start, real=logfirm.intlinalg.dual_rays):
            calls.append(dim)
            return real(normals, dim, *start)

        monkeypatch.setattr(logfirm.intlinalg, "dual_rays", counting)
        assert ilp_feasible(2, ineq_lhs=self.SLAB,
                            ineq_rhs=self.slab_rhs(1000)) is None
        # the slab has no recession direction, so neither has any of its
        # 501 slices: one search decides that for all of them
        assert len(calls) <= 2

    def test_slab_budget_boundary(self):
        # one unit per node: the value of x and the slice it leaves, for
        # each of the 501 values of x, less the budget left at the end
        with pytest.raises(ResourceLimit), ilp_budget(1000):
            ilp_feasible(2, ineq_lhs=self.SLAB, ineq_rhs=self.slab_rhs(1000))
        with ilp_budget(1001):
            assert ilp_feasible(2, ineq_lhs=self.SLAB,
                                ineq_rhs=self.slab_rhs(1000)) is None

    def test_against_enumeration_corpus(self):
        # >= 200 instances cross-checked against exhaustive enumeration
        rng = random.Random(20230817)
        agree = 0
        for _ in range(220):
            n = rng.randint(1, 3)
            rows = rng.randint(1, 2)
            eq = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rows)]
            target = [rng.randint(-4, 4) for _ in range(n)]
            b = list(mat_vec(eq, target))
            # bound the box so the oracle is complete on these systems
            ineq = identity(n) + [[-1] * n]
            got = ilp_feasible(n, eq, b, ineq)
            oracle = brute_force_ilp(n, eq, b, ineq, box=10)
            assert (got is None) == (oracle is None)
            if got is not None:
                assert list(mat_vec(eq, got)) == b
                assert all(dot(row, got) >= 0 for row in ineq)
            agree += 1
        assert agree >= 200


class TestIntegerSystem:
    """One :class:`ConeImage` prepared once and asked about many b gives,
    at each, the x that a fresh record gives; the inhomogeneous programs of
    :func:`ilp_feasible` are that record on the homogenized cone."""

    @staticmethod
    def enumeration_corpus():
        """The systems of ``test_ilp_vs_enumeration_200``: equations with
        their right-hand side, and the rows x >= 0, -sum(x) >= 0."""
        rng = random.Random(97)
        for _ in range(200):
            n = rng.randint(1, 3)
            rows = rng.randint(1, 2)
            eq = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rows)]
            target = [rng.randint(-4, 4) for _ in range(n)]
            yield n, eq, list(mat_vec(eq, target)), identity(n) + [[-1] * n]

    def test_prepared_corpus_against_enumeration(self):
        # each system is solved at four right-hand sides: x_i >= -a_i and
        # sum(x) <= s, with equations met by a random point or not, through
        # ilp_feasible; and its equations with x >= 0 and a slack y >= 0,
        # sum(x) + y = s, as one prepared record asked at the same equation
        # right-hand sides with s = 2
        rng = random.Random(98)
        solved = feasible = asked = found = 0
        for n, eq, b, ineq in self.enumeration_corpus():
            matrix = [row + [0] for row in eq] + [[1] * (n + 1)]
            image = ConeImage(matrix, identity(n + 1), n + 1)
            rhs = [(b, [0] * (n + 1))]
            for _ in range(3):
                point = [rng.randint(-2, 4) for _ in range(n)]
                b2 = [v + rng.randint(0, 1) for v in mat_vec(eq, point)]
                rhs.append((b2, [-rng.randint(0, 2) for _ in range(n)]
                            + [-rng.randint(0, 4)]))
            for eq_rhs, ineq_rhs in rhs:
                got = ilp_feasible(n, eq, eq_rhs, ineq, ineq_rhs)
                lo, cap = ineq_rhs[:n], -ineq_rhs[n]
                box = [range(l, cap - sum(lo) + l + 1) for l in lo]
                oracle = next((x for x in itertools.product(*box)
                               if sum(x) <= cap and list(mat_vec(eq, x)) == eq_rhs),
                              None)
                assert (got is None) == (oracle is None), (eq, eq_rhs, ineq_rhs)
                if got is not None:
                    assert list(mat_vec(eq, got)) == eq_rhs
                    assert all(dot(r, got) >= c for r, c in zip(ineq, ineq_rhs))
                    feasible += 1
                solved += 1

                w = image.preimage(eq_rhs + [2])
                assert w == ConeImage(matrix, identity(n + 1), n + 1).preimage(eq_rhs + [2])
                oracle = next((x for x in itertools.product(range(3), repeat=n)
                               if sum(x) <= 2 and list(mat_vec(eq, x)) == eq_rhs), None)
                assert (w is None) == (oracle is None), (eq, eq_rhs)
                if w is not None:
                    assert list(mat_vec(matrix, w)) == eq_rhs + [2]
                    assert min(w) >= 0
                    found += 1
                asked += 1
        assert solved == 800 and 200 < feasible < 700
        assert asked == 800 and 100 < found < 700, found

    def test_one_shot_work(self, monkeypatch):
        # ilp_feasible prepares and solves once: one Smith form per call with
        # equations, and one double description per recession step, 89 on
        # this corpus
        calls = Counter()
        for name in ("smith_normal_form", "dual_rays"):
            def counting(*args, name=name, real=getattr(logfirm.intlinalg, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(logfirm.intlinalg, name, counting)
        for n, eq, b, ineq in self.enumeration_corpus():
            ilp_feasible(n, eq, b, ineq)
        assert calls == {"smith_normal_form": 200, "dual_rays": 89}

    def test_each_solve_gets_the_whole_budget(self):
        # the thin slab of TestIlpFeasible as a record on its homogenized
        # cone, (x, y, z) with z = 1: 1000 nodes raise, 1001 decide
        rhs = TestIlpFeasible().slab_rhs(1000)
        image = ConeImage([[0, 0, 1]],
                          [row + [-h] for row, h in zip(TestIlpFeasible.SLAB, rhs)], 3)
        with pytest.raises(ResourceLimit), ilp_budget(1000):
            image.preimage([1])
        with ilp_budget(1001):
            # a budget shared by the two calls would run out in the second
            assert image.preimage([1]) is None
            assert image.preimage([1]) is None
        with pytest.raises(ResourceLimit), ilp_budget(1000):
            image.preimage([1])
        assert image.preimage([1]) is None


def random_cone_image(rng):
    """A small cone image (matrix, facets, cols): cols <= 3 and entries
    <= 3.  σ lies in N^cols, cut in half the cases by one or two more
    facets, some given with their negative as an equation; the other half
    is σ = N^cols, the cone of ``lift.solve_exponents``, with a matrix of
    nonnegative entries.  The first row of the matrix is positive, so
    every preimage of b lies in the box x_i <= b_0 / A_0i."""
    cols = rng.randint(1, 3)
    facets = identity(cols)
    cut = rng.random() < 0.5
    if cut:
        for _ in range(rng.randint(1, 2)):
            f = [rng.randint(-3, 3) for _ in range(cols)]
            facets.append(f)
            if rng.random() < 0.3:
                facets.append([-x for x in f])
    least = -3 if cut else 0
    matrix = [[rng.randint(1, 3) for _ in range(cols)]] + [
        [rng.randint(least, 3) for _ in range(cols)] for _ in range(rng.randint(0, 2))]
    return matrix, facets, cols


def cone_image_faults(make, rng, count=250):
    """Run ``make(matrix, facets, cols)``, a record or a planted mutation
    of it, on ``count`` random cone images, each asked at the image of a
    lattice point of its cone and at two other b; return the answers that
    differ from enumeration of the box, those of ``lift.solve_exponents``
    on σ = N^cols included, and what was seen."""
    faults, seen = [], Counter()
    for _ in range(count):
        matrix, facets, cols = random_cone_image(rng)
        image = make(matrix, facets, cols)
        point = [rng.randint(0, 2) for _ in range(cols)]
        bs = [list(mat_vec(matrix, point)),
              [v + rng.randint(-1, 1) for v in mat_vec(matrix, point)],
              [rng.randint(0, 6) for _ in matrix]]
        for b in bs:
            box = [range(b[0] // a + 1) for a in matrix[0]]
            brute = [x for x in itertools.product(*box)
                     if list(mat_vec(matrix, x)) == b and all(dot(f, x) >= 0 for f in facets)]
            answers = [image.preimage(b)]
            if len(facets) == cols:
                answers.append(solve_exponents(MonomialChart(tuple(map(tuple, matrix))), b))
                seen["orthant"] += 1
            else:
                seen["cut"] += 1
            for got in answers:
                if (got is None) != (not brute) or got is not None and (
                        list(mat_vec(matrix, got)) != b or any(dot(f, got) < 0 for f in facets)):
                    faults.append((matrix, facets, b, got))
            seen["member" if brute else "not a member"] += 1
            seen["equation"] += any([-x for x in f] in facets for f in facets)
    return faults, seen


class TestConeImageOracle:
    """Brute force on small cones: the record's answer is that of
    enumerating the box its first row bounds, and each witness is a
    lattice point of the cone that the matrix sends to b."""

    def test_against_enumeration(self):
        faults, seen = cone_image_faults(ConeImage, random.Random(3101))
        assert faults == []
        assert min(seen.values()) >= 60, seen

    @pytest.mark.parametrize("mutation", [
        lambda m, f, c: ConeImage(m, f[:-1], c),
        lambda m, f, c: ConeImage(m, [[-x for x in f[0]]] + f[1:], c)],
        ids=["dropped facet", "flipped facet"])
    def test_planted_mutations_are_caught(self, mutation):
        faults, _ = cone_image_faults(mutation, random.Random(3101))
        assert len(faults) >= 10, faults


# ---------------------------------------------------------------------------
# dual description


def cone_contains(facets, v):
    return all(dot(f, v) >= 0 for f in facets)


class TestDualDescription:
    def test_orthant_self_dual(self):
        dd = dual_description([(1, 0), (0, 1)], 2)
        assert set(dd.facets) == {(1, 0), (0, 1)}
        assert set(dd.rays) == {(1, 0), (0, 1)}

    def test_q1_cone_is_orthant(self):
        dd = dual_description([(2, 0), (1, 1), (0, 2)], 2)
        assert set(dd.facets) == {(1, 0), (0, 1)}
        assert set(dd.rays) == {(1, 0), (0, 1)}

    def test_halfplane_slice(self):
        dd = dual_description([(1, 0), (1, 1)], 2)
        assert set(dd.facets) == {(0, 1), (1, -1)}

    def test_single_ray_non_full_dim(self):
        dd = dual_description([(1, 1)], 2)
        # the diagonal ray: facets must cut it out exactly
        for v in itertools.product(range(-3, 4), repeat=2):
            inside = all(dot(f, v) >= 0 for f in dd.facets)
            on_ray = v[0] == v[1] and v[0] >= 0
            assert inside == on_ray

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(60):
            d = rng.randint(2, 3)
            rays = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(1, 4))]
            rays = [r for r in rays if any(r)]
            if not rays:
                continue
            dd = dual_description(rays, d)
            back = facets_to_rays(dd.facets, d)
            # mutual containment on a probe box
            for v in itertools.product(range(-2, 3), repeat=d):
                in_facets = cone_contains(dd.facets, v)
                # v in cone(rays) iff nonneg rational combination: probe via ilp
                # over scaled memberships; cheap check: facets describe the cone
                if in_facets:
                    # must also satisfy the facet description recomputed from back
                    dd2 = dual_description(back, d)
                    assert cone_contains(dd2.facets, v)
            for r in rays:
                assert cone_contains(dd.facets, r)
            for r in back:
                assert cone_contains(dd.facets, r)

    def test_extreme_rays_match_second_double_description(self):
        # oracle: the minimal generators of the facet description, by a
        # second double description; it lists each line as r and -r
        rng = random.Random(8086)
        pointed = lined = flat = 0
        for _ in range(400):
            d = rng.randint(1, 5)
            span = [tuple(rng.randint(-2, 2) for _ in range(d))
                    for _ in range(rng.randint(1, d))]
            # one coefficient per span vector, so each generator is in the span
            gens = []
            for _ in range(rng.randint(1, 6)):
                coeffs = [rng.randint(0, 2) for _ in span]
                gens.append(tuple(sum(c * x for c, x in zip(coeffs, col))
                                  for col in zip(*span)))
            gens += [tuple(2 * x for x in gens[0]),              # a multiple
                     tuple(x + y for x, y in zip(gens[0], gens[-1]))]  # a sum
            if rng.random() < 0.3:
                gens.append(tuple(-x for x in gens[-1]))  # often a line
            if not any(any(g) for g in gens):
                continue
            dd = dual_description(gens, d)
            oracle = facets_to_rays(dd.facets, d)
            if any(tuple(-x for x in r) in oracle for r in oracle):
                assert dd.rays == ()
                lined += 1
            else:
                assert dd.rays == oracle
                pointed += 1
                # an equation, listed as f and -f: not full-dimensional
                flat += any(tuple(-x for x in f) in dd.facets for f in dd.facets)
        assert pointed > 150 and lined > 50 and flat >= 150, (pointed, lined, flat)

    @staticmethod
    def normals_corpus():
        """Seeded normal lists in ranks 1 to 5 with entries in -3..3, with
        zero normals, repeated normals and lineality (a normal and its
        negative) mixed in."""
        rng = random.Random(1515)
        corpus = []
        for _ in range(1500):
            d = rng.randint(1, 5)
            normals = [tuple(rng.randint(-3, 3) for _ in range(d))
                       for _ in range(rng.randint(0, d + 4))]
            if normals and rng.random() < 0.3:
                normals.append(rng.choice(normals))
            if normals and rng.random() < 0.3:
                normals.append(tuple(-x for x in rng.choice(normals)))
            if rng.random() < 0.2:
                normals.append((0,) * d)
            rng.shuffle(normals)
            corpus.append((d, normals))
        return corpus

    def test_tight_sets_match_dot_products(self):
        # the tight sets carried through the double description are the
        # normals that vanish on each ray, indices counting zero normals
        seen = {"lineality": 0, "zero normal": 0, "repeated": 0, "rays": 0}
        for d, normals in self.normals_corpus():
            lin, rays, tight = dual_rays(normals, d)
            assert len(tight) == len(rays)
            for r, t in zip(rays, tight):
                assert all(dot(a, r) >= 0 for a in normals)
                assert t == frozenset(i for i, a in enumerate(normals) if dot(a, r) == 0)
            for l in lin:
                assert not any(dot(a, l) for a in normals)
            seen["lineality"] += bool(lin) and bool(rays)
            seen["zero normal"] += bool(rays) and (0,) * d in normals
            seen["repeated"] += bool(rays) and len(set(normals)) < len(normals)
            seen["rays"] += len(rays) > 2
        assert min(seen.values()) >= 100, seen

    def test_start_from_a_sharp_cone(self):
        # the double description of normals[:k] handed in as the start, with
        # its tight sets, and then the rest of the normals added, gives what
        # the double description from scratch gives
        seen = {"from a cone": 0, "cut": 0}
        rng = random.Random(1516)
        for d, normals in self.normals_corpus():
            k = rng.randint(0, len(normals))
            lin, rays, tight = dual_rays(normals[:k], d)
            if lin or not rays:  # a cone with a line, or only 0
                continue
            got = dual_rays(normals, d, (k, rays, tight))
            assert got == dual_rays(normals, d)
            seen["from a cone"] += 1
            seen["cut"] += got[1] != rays
        assert min(seen.values()) >= 100, seen

    def test_line_has_no_extreme_rays(self):
        assert dual_description([(1, 0), (-1, 0), (0, 1)], 2).rays == ()
        assert dual_description([(1, 1), (-2, -2)], 2).rays == ()
        assert dual_description([(1, 0), (0, 1), (-1, -1)], 2).facets == ()

    def test_rays_primitive_and_irredundant(self):
        dd = dual_description([(2, 0), (0, 3), (1, 1)], 2)
        assert set(dd.rays) == {(1, 0), (0, 1)}
        for r in dd.rays:
            assert primitive(r) == r


def independent(rays) -> bool:
    return sum(1 for row in hermite_normal_form([list(r) for r in rays])[0] if any(row)) == len(rays)


def described_by_double_description(rays, d):
    """The oracle for a simplicial cone: its facets from one double
    description of its rays, and the incidence by dot products with the
    sorted rays."""
    lin, facets, _ = dual_rays(rays, d)
    assert not lin
    rays = sorted(rays)
    return Cone(d, tuple(rays), tuple(facets), tuple(
        frozenset(i for i, r in enumerate(rays) if dot(f, r) == 0) for f in facets))


class TestSimplicialClosedForm:
    """``dual_description`` of a cone whose generators, the distinct
    primitive vectors of its nonzero rays, are ``dim`` independent vectors
    reads the facets off one exact inverse and makes no double
    description; every other input takes one."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(normals, dim, *start, real=logfirm.intlinalg.dual_rays):
            calls.append(dim)
            return real(normals, dim, *start)

        monkeypatch.setattr(logfirm.intlinalg, "dual_rays", counting)
        return calls

    @staticmethod
    def simplicial_corpus():
        """Seeded simplicial cones of ranks 1 to 5, entries in -3..3, as
        primitive independent rays in random order."""
        rng = random.Random(1968)
        corpus = []
        while len(corpus) < 400:
            d = rng.randint(1, 5)
            rays = [primitive(tuple(rng.randint(-3, 3) for _ in range(d))) for _ in range(d)]
            if all(any(r) for r in rays) and independent(rays):
                corpus.append((d, rays))
        return corpus

    def test_matches_the_double_description(self, calls):
        negative = 0
        for d, rays in self.simplicial_corpus():
            calls.clear()
            got = dual_description(rays, d)
            assert calls == []
            want = described_by_double_description(rays, d)
            # a Cone's equality ignores its incidence, so it is compared too
            assert (got, got.incidence) == (want, want.incidence), rays
            negative += det(sorted(rays)) < 0
        assert 100 < negative < 300

    def test_other_lists_of_the_same_generators(self, calls):
        # zero, repeated and non-primitive rays of a simplicial cone give
        # the same generators, and the same closed form
        rng = random.Random(1969)
        seen = Counter()
        for d, rays in self.simplicial_corpus()[:300]:
            kind = rng.choice(("zero", "repeated", "multiple"))
            messy = list(rays)
            if kind == "zero":
                messy.append((0,) * d)
            elif kind == "repeated":
                messy.append(rng.choice(rays))
            else:
                i, k = rng.randrange(d), rng.randint(2, 3)
                messy[i] = tuple(k * x for x in messy[i])
            rng.shuffle(messy)
            calls.clear()
            got = dual_description(messy, d)
            assert calls == []
            want = described_by_double_description(rays, d)
            # a Cone's equality ignores its incidence, so it is compared too
            assert (got, got.incidence) == (want, want.incidence), messy
            seen[kind] += 1
        assert min(seen.values()) >= 80, seen

    def test_singular_generators_take_a_double_description(self, calls):
        # dim generators in a hyperplane, with zero, repeated and
        # non-primitive rays among them
        rng = random.Random(1970)
        done = 0
        while done < 150:
            d = rng.randint(1, 5)
            span = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d - 1)]
            rays = []
            for _ in range(rng.randint(d, d + 2)):
                coefficients = [rng.randint(-1, 2) for _ in span]
                rays.append(tuple(sum(c * x for c, x in zip(coefficients, col))
                                  for col in zip(*span)) if span else (0,))
            gens = {primitive(r) for r in rays if any(r)}
            if len(gens) != d:
                continue
            calls.clear()
            got = dual_description(rays, d)
            assert calls == [d]
            # the equations come as f and -f, and every facet is >= 0 on the rays
            assert any(tuple(-x for x in f) in got.facets for f in got.facets)
            assert got.incidence == tuple(frozenset(
                i for i, r in enumerate(got.rays) if dot(f, r) == 0) for f in got.facets)
            assert all(dot(f, r) >= 0 for f in got.facets for r in rays)
            done += 1


class TestUnimodularInverse:
    """A unimodular M has scaled inverse (p, W) with |p| = 1, so p·W is its
    integer inverse; any other nonsingular M has |p| > 1."""

    def test_round_trip(self):
        m = [[2, 1], [1, 1]]
        p, w = scaled_inverse(m)
        assert abs(p) == 1
        assert mat_mul(m, [[p * x for x in row] for row in w]) == identity(2)

    def test_non_integral_inverse_rejected(self):
        p, w = scaled_inverse([[2, 0], [0, 1]])
        assert abs(p) == 2
        assert any(x % p for row in w for x in row)

    def test_singular_rejected(self):
        assert scaled_inverse([[1, 2], [2, 4]]) is None


class TestRationalInverse:
    """:func:`scaled_inverse` is the exact inverse over the rationals:
    M⁻¹ = W / p."""

    def test_round_trip_200(self):
        rng = random.Random(31)
        done = 0
        while done < 200:
            n = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if det(m) == 0:
                continue
            p, w = scaled_inverse(m)
            inv = [[Fraction(x, p) for x in row] for row in w]
            assert mat_mul(m, inv) == identity(n)
            assert mat_mul(inv, m) == identity(n)
            done += 1

    def test_empty_matrix(self):
        assert scaled_inverse([]) == (1, [])

    def test_scaled_inverse_is_integral_200(self):
        # W = p·M⁻¹ with p = ±det M, and None exactly when det M = 0
        rng = random.Random(1968)
        singular = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            m = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(n)]
                 for _ in range(n)]
            got = scaled_inverse(m)
            if det(m) == 0:
                assert got is None
                singular += 1
                continue
            p, w = got
            assert abs(p) == abs(det(m))
            scaled = [[p * x for x in row] for row in identity(n)]
            assert mat_mul(m, w) == scaled and mat_mul(w, m) == scaled
        assert 30 < singular < 270

    @pytest.mark.parametrize("m", [[[0]], [[1, 2], [2, 4]],
                                   [[1, 0, 1], [0, 1, 1], [1, 1, 2]]])
    def test_singular_is_none(self, m):
        assert scaled_inverse(m) is None
