"""Oracles for the two shape decisions of the lattice layer, each run
against a planted mutation that it must catch.

Empty shapes: every lattice routine whose input can have no rows takes its
width, so a matrix with no rows goes through the general path.  Its Smith
form, kernel and lattice solve, and what the monoid routines read off
them, must equal their closed forms at widths 0 to 3.

Equations: ``Cone.equations`` and ``Cone.span_basis`` say, once per
record, which facets vanish on all of the cone and what the lattice of its
span is.  They must equal the facets that vanish on every generator, and
the saturated span of the generators, on sharp records and on the records
with a line that ``saturate`` makes.
"""

import random
from collections import Counter

import pytest

import logfirm.intlinalg
import logfirm.lift
import logfirm.monoid
from logfirm.charts import orthant_monoid
from logfirm.fan import cone_faces, make_cone, sigma_n
from logfirm.firmament import contact_order, firmament_from_charts
from logfirm.intlinalg import (
    IntegerSystem,
    dot,
    identity,
    kernel_and_cokernel,
    lattice_quotient,
    smith_normal_form,
    solve_lattice,
)
from logfirm.monoid import Face, MonoidHom, faces, saturate, zero_face
from quotient_oracle import saturated_span
from test_firmament import CHART_FAMILIES, span_lattice

WIDTHS = range(4)


# ---------------------------------------------------------------------------
# empty shapes


def empty_shape_faults(n: int, rng) -> set[str]:
    """The names of the checks that miss their closed form at width n: the
    lattice routines on a matrix with no rows and n columns, the monoid
    routines on the zero monoid of Z^n and on the group Z^n, and seeded
    systems with no equations against the route through one zero row."""
    faults = set()
    eye = tuple(map(tuple, identity(n)))
    zeros = (0,) * n
    snf = logfirm.intlinalg.smith_normal_form([], n)
    if (snf.U, snf.V, snf.divisors) != ((), eye, ()):
        faults.add("smith form")
    kc = kernel_and_cokernel([], n)
    if (kc.kernel_basis, kc.free_rank, kc.torsion) != (eye, 0, ()):
        faults.add("kernel")
    sol = solve_lattice([], [], n)
    if sol is None or (sol.particular, sol.kernel_basis) != (zeros, eye):
        faults.add("lattice solve")
    if lattice_quotient([], n) != lattice_quotient([zeros], n) or lattice_quotient(
            [], n) != (eye, ()):
        faults.add("quotient")
    for _ in range(20):
        ineq = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        rhs = [rng.randint(-3, 3) for _ in ineq]
        got = IntegerSystem(n, None, ineq).solve(None, rhs)
        if got != IntegerSystem(n, [zeros], ineq).solve([0], rhs):
            faults.add("system")
        if got is not None and (len(got) != n or any(
                dot(row, got) < c for row, c in zip(ineq, rhs))):
            faults.add("system")
    zero = saturate(n, [])
    target = orthant_monoid(2)
    if MonoidHom(zero, target, local=[[], []]).matrix != (zeros, zeros):
        faults.add("hom matrix")
    if zero_face(zero) != Face((), zeros) or faces(zero) != [Face((), zeros)]:
        faults.add("faces")
    point = contact_order(zero, []).point
    if (point.cone_index, point.coordinates) != (0, ()):
        faults.add("contact order")
    group = saturate(n, [v for e in eye for v in (e, tuple(-x for x in e))])
    if group.facets_local or group.unit_basis() != eye:
        faults.add("unit basis")
    return faults


def dropped_width(m, cols, real=smith_normal_form):
    """The rule the width replaced: the width read off the first row, so a
    matrix with no rows gets V = ()."""
    return real(m, len(m[0]) if m else 0)


class TestEmptyShapes:
    def test_closed_forms(self):
        rng = random.Random(2901)
        for n in WIDTHS:
            assert empty_shape_faults(n, rng) == set(), n

    def test_dropped_width_is_caught(self, monkeypatch):
        for module in (logfirm.intlinalg, logfirm.monoid, logfirm.lift):
            monkeypatch.setattr(module, "smith_normal_form", dropped_width)
        rng = random.Random(2901)
        # at width 0 the two rules agree; the contact order of a monoid of
        # rank 0 reads a 0 x 0 matrix at every n
        assert empty_shape_faults(0, rng) == set()
        for n in WIDTHS[1:]:
            assert empty_shape_faults(n, rng) == {
                "smith form", "kernel", "lattice solve", "quotient", "system",
                "hom matrix", "faces", "unit basis"}, n


# ---------------------------------------------------------------------------
# equations and spans


def vanishing(gens, cone):
    """The facets of the record that vanish on every generator."""
    return tuple(f for f in cone.facets if all(dot(f, g) == 0 for g in gens))


def pm_scan(cone):
    """The f and -f rule, written out."""
    return tuple(f for f in cone.facets if tuple(-x for x in f) in cone.facets)


def incidence_rule(cone):
    """The facets whose incidence names every ray: right only for a sharp
    record, since a record with a line has no rays."""
    return tuple(f for f, on in zip(cone.facets, cone.incidence)
                 if len(on) == len(cone.rays))


def sharp_records(rng):
    """(generators, record) pairs: random ``make_cone`` inputs of rank 1 to
    4, the maximal cones of three ``sigma_n`` towers and their faces, and
    the source cones of the chart firmaments."""
    out = []
    while len(out) < 600:
        d = rng.randint(1, 4)
        rays = [tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(rng.randint(0, 5))]
        try:
            out.append((rays, make_cone(d, rays)))
        except ValueError:
            continue
    for rank, n in ((3, 3), (4, 2), (2, 5)):
        maximal = sigma_n(rank, n).maximal
        out += [(c.rays, c) for c in maximal]
        out += [(f.rays, f) for c in maximal[::7] for f in cone_faces(c)]
    for chart_fn in CHART_FAMILIES:
        out += [(c.rays, c)
                for c in firmament_from_charts(*chart_fn()).map.source.maximal]
    return out


def line_records(rng, monkeypatch):
    """(generators, record) pairs of every record with a line that
    ``saturate`` makes on seeded generators, half of them inside all of
    Z^d, so that the record also has equations."""
    records = []

    def recording(rays, dim, real=logfirm.monoid.dual_description):
        cone = real(rays, dim)
        records.append((rays, cone))
        return cone

    monkeypatch.setattr(logfirm.monoid, "dual_description", recording)
    for _ in range(300):
        d = rng.randint(1, 4)
        v = tuple(rng.randint(-2, 2) for _ in range(d))
        gens = [v, tuple(-x for x in v)] + [tuple(rng.randint(-2, 2) for _ in range(d))
                                            for _ in range(rng.randint(0, 3))]
        saturate(d, gens, group=identity(d) if rng.random() < 0.5 else None)
    return [(gens, c) for gens, c in records if not c.rays]


def equation_faults(rule, records):
    """The records on which ``rule`` does not give the facets that vanish
    on every generator."""
    return [(gens, c) for gens, c in records if rule(c) != vanishing(gens, c)]


class TestConeEquations:
    def test_sharp_records(self):
        records = sharp_records(random.Random(2902))
        assert equation_faults(lambda c: c.equations, records) == []
        assert equation_faults(pm_scan, records) == []
        assert equation_faults(incidence_rule, records) == []
        seen = Counter()
        for _, c in records:
            assert c.span_basis == span_lattice(c), c
            assert c.full == (len(c.span_basis) == c.ambient_rank)
            seen["zero" if not c.rays else "full" if c.full else "lower"] += 1
        assert len(records) >= 2000 and min(seen.values()) >= 30, seen

    def test_records_with_a_line(self, monkeypatch):
        records = line_records(random.Random(2903), monkeypatch)
        assert equation_faults(lambda c: c.equations, records) == []
        assert equation_faults(pm_scan, records) == []
        seen = Counter()
        for gens, c in records:
            assert c.span_basis == saturated_span([g for g in gens if any(g)],
                                                  c.ambient_rank), (gens, c)
            seen["with equations" if c.equations else "full"] += 1
            seen["a facet that is not an equation"] += len(c.facets) > len(c.equations)
        assert min(seen.values()) >= 30, seen

    def test_incidence_rule_is_caught_on_a_line(self, monkeypatch):
        # a half-plane's one facet vanishes on no generator of its line,
        # yet its incidence names every ray, of which there are none
        records = line_records(random.Random(2903), monkeypatch)
        assert len(equation_faults(incidence_rule, records)) >= 30

    @pytest.mark.parametrize("gens, dim, equations", [
        ([(1, 0), (-1, 0), (0, 1)], 2, ()),
        ([(1, 0, 0), (-1, 0, 0), (0, 1, 0)], 3, ((0, 0, -1), (0, 0, 1))),
        ([(1, 1), (-1, -1)], 2, ((-1, 1), (1, -1)))])
    def test_lines_by_hand(self, gens, dim, equations):
        cone = logfirm.intlinalg.dual_description(gens, dim)
        assert cone.rays == () and cone.equations == equations
