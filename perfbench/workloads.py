"""The three benchmark workloads: seeded inputs, operations and oracles.

A workload is a pair of functions.  ``plan(rng)`` turns a seed into every
input of one *round* together with the answer each oracle expects; it makes
no call into logfirm except where an oracle is a library function (Campana
membership).  ``build(plan)`` does the library's own set-up, such as building
firmaments and saturating monoids, and returns the round: a list of
operations, each a call into logfirm plus an oracle that judges its answer.
Only ``build`` is timed as set-up.  The timed loop replays whole rounds, so
every run sees the same mix of operations.

Every operation reaches logfirm through a module attribute (``cli.dispatch``,
``firmament.firmament_member``, ...) and never through a name imported into
this file, so the tracer in ``tracing.py`` sees each call.

Why these workloads (each loads one layer and leaves the others idle):

- ``tower``: the paper's subdivision tower through the CLI.  Nearly all time
  is in ``fan`` and in ``dual_rays`` through ``make_cone``/``cone_faces``;
  it makes no ``ilp_feasible`` call.
- ``query``: membership and contact queries on firmaments built in set-up.
  The loop is almost all ``intlinalg.ilp_feasible``; the thin firmament's
  odd (x, 0) non-members cost time that grows with x.  The library is called
  directly because every CLI call would rebuild the firmament.
- ``decide``: many small exact decisions: firmness by both criteria, and
  DVR lifts and Campana multiplicities through the CLI.  Most time is
  ``monoid`` work (saturation, faces, pushouts, factorization search).
  Firmness is decided by direct calls: through the CLI, rebuilding the
  argparse parser on every call cost more than the decisions themselves.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from typing import Callable, NamedTuple

from logfirm import campana, charts, cli, firm, firmament, monoid

from . import geometry


class Op(NamedTuple):
    kind: str
    call: Callable[[], object]          # the timed call into logfirm
    check: Callable[[object], bool]     # oracle; True when the answer is right
    repeats: int = 1                    # runs per round


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cli_op(kind: str, argv: list[str], check, repeats: int = 1) -> Op:
    return Op(kind, lambda: cli.dispatch(argv), check, repeats)


# ---------------------------------------------------------------------------
# tower


_RANK2_LEVELS = (2, 3, 4, 5, 6)
# Operations per kind of pair (u, v), where the first fan is the star of the
# orthant at u and v is the subdivision vector or the second fan's star
# vector.  The kinds cost different amounts of work: a refine of two stars
# makes about 400 `dual_rays` calls when u = v, 610 when u and v span a plane
# with a coordinate axis, and 780 otherwise; subdividing at u is a no-op.
# Every seed gets the same number of each kind, so the median operation of a
# round is always a general refine.
_SUBDIVIDE_KINDS = {"same": 1, "other": 7}
_REFINE_KINDS = {"same": 1, "axial": 8, "general": 23}
# runs per round of each subdivide/refine operation: the sigma-n levels take
# most of a round, and the short fan operations need more than one timing each
_FAN_REPEATS = 3


def _pair_kind(u, v) -> str:
    if u == v:
        return "same"
    return "axial" if 0 in geometry.cross(u, v) else "general"


def _random_pair(rng: random.Random, vectors, kind: str):
    """Star vectors u, v drawn until the pair is of the given kind ("other"
    is any kind but "same")."""
    while True:
        u, v = rng.choice(vectors), rng.choice(vectors)
        got = _pair_kind(u, v)
        if got == kind or (kind == "other" and got != "same"):
            return u, v


def _fan_json(fan) -> str:
    return _dumps({"ambient_rank": 3,
                   "cones": [{"rays": [list(r) for r in c]} for c in fan]})


def _cones_of(payload) -> list:
    return sorted(tuple(sorted(tuple(r) for r in c["rays"]))
                  for c in payload["cones"])


def _rank2_check(n: int):
    rays = set(geometry.primitive_box(2, n))

    def check(res) -> bool:
        if res.status != "ok":
            return False
        cones = res.payload["cones"]
        got = {tuple(r) for c in cones for r in c["rays"]}
        return (got == rays and len(cones) == len(rays) - 1
                and all(len(c["rays"]) == 2 for c in cones))
    return check


def _fan_check(expected, key=None):
    def check(res) -> bool:
        if res.status != "ok":
            return False
        payload = res.payload if key is None else res.payload[key]
        return _cones_of(payload) == expected
    return check


def tower_plan(rng: random.Random) -> list[Op]:
    """`fan sigma-n` at rank 3, n = 2 and at rank 2 for n = 2..6, plus
    `fan subdivide` and `fan refine` on stellar subdivisions of the rank-3
    orthant built by hand, each checked against ``geometry``.  A round runs
    each level once and each subdivide/refine operation _FAN_REPEATS times."""
    levels = [_cli_op("sigma_n.rank3", ["fan", "sigma-n", "--rank", "3", "--n", "2"],
                      _fan_check(geometry.sigma3(2)))]
    for n in _RANK2_LEVELS:
        levels.append(_cli_op("sigma_n.rank2",
                              ["fan", "sigma-n", "--rank", "2", "--n", str(n)],
                              _rank2_check(n)))
    # Interior vectors only: a subdivision at one that is not yet a ray adds
    # two cones, whether it splits one cone or the two cones on a wall, so
    # the fans of every seed have the same size and differ only in shape.
    vectors = [v for v in geometry.primitive_box(3, 3) if all(v)]
    ops = []
    for kind, count in _SUBDIVIDE_KINDS.items():
        for _ in range(count):
            u, v = _random_pair(rng, vectors, kind)
            fan = geometry.star(geometry.orthant3(), u)
            ops.append(_cli_op(
                "fan.subdivide",
                ["fan", "subdivide", "--fan", _fan_json(fan), "--vector", _dumps(list(v))],
                _fan_check(sorted(geometry.star(fan, v)), key="fan"), _FAN_REPEATS))
    for kind, count in _REFINE_KINDS.items():
        for _ in range(count):
            u, v = _random_pair(rng, vectors, kind)
            a = geometry.star(geometry.orthant3(), u)
            b = geometry.star(geometry.orthant3(), v)
            ops.append(_cli_op(
                "fan.refine",
                ["fan", "refine", "--first", _fan_json(a), "--second", _fan_json(b)],
                _fan_check(geometry.overlay(a, b)), _FAN_REPEATS))
    ops = levels + ops
    rng.shuffle(ops)
    return ops


def tower_build(plan: list[Op]) -> list[Op]:
    """Nothing to set up in the library: every CLI call builds its own fans."""
    return plan


# ---------------------------------------------------------------------------
# query


_THIN_ROWS = ((2, 0), (4, 0), (0, 1), (1, 1))
_THIN_MAX = 20_000
_THIN_QUERIES = 96
_BOX = 6
_KUMMER_MAX = 60
_CONTACT_QUERIES = 8

# rank of each firmament's base, and closed-form membership of its points
_FIRMAMENTS = {
    "parity_cover": (2, lambda a, b: True),
    "kummer_two_three": (1, lambda n: n % 2 == 0 or n % 3 == 0),
    "parity_root": (2, lambda a, b: (a + b) % 2 == 0),
    "monomial_x2y3_x": (2, lambda a, b: a >= 2 * b and (a - 2 * b) % 3 == 0),
    "diagonal_embedding": (2, lambda a, b: a == b),
    "thin": (2, lambda x, y: y >= 1 or x % 2 == 0),
}


def build_firmaments() -> dict:
    """Every query firmament: name -> (base monoid P, firmament)."""
    out = {}
    for name in ("parity_cover", "kummer_two_three", "parity_root",
                 "monomial_x2y3_x", "diagonal_embedding"):
        p, thetas = getattr(charts, name)()
        out[name] = (p, firmament.firmament_from_charts(p, thetas))
    # the chart N^2 -> N^4 with rows (2,0),(4,0),(0,1),(1,1): (x, 0) is a
    # member only for even x, and refuting odd x costs the ILP time in x
    n2 = charts.orthant_monoid(2)
    thin = monoid.MonoidHom(n2, charts.orthant_monoid(4), _THIN_ROWS)
    out["thin"] = (n2, firmament.firmament_from_charts(n2, [thin]))
    return out


def _member_op(gamma, name: str, pt, expected: bool) -> Op:
    return Op(f"member.{name}",
              lambda: firmament.firmament_member(gamma, pt),
              lambda got: got is expected)


def _contact_op(p, gamma, name: str, vals, expected: bool) -> Op:
    # every base is an orthant: valuations on its unit vectors are the
    # coordinates of the contact point
    by_generator = {tuple(int(i == j) for i in range(len(vals))): v
                    for j, v in enumerate(vals)}

    def call():
        c = firmament.contact_order(p, by_generator)
        return tuple(c.point.coordinates), firmament.lies_in_firmament(gamma, c)
    return Op(f"contact.{name}", call,
              lambda got: got == (tuple(vals), expected))


def _thin_odd(rng: random.Random) -> list[int]:
    """Odd x, log-uniform on [1, _THIN_MAX], one draw per equal slice of
    log x so that the round's total ILP work barely moves with the seed."""
    top = math.log(_THIN_MAX)
    out = []
    for i in range(_THIN_QUERIES):
        x = int(math.exp(top * (i + rng.random()) / _THIN_QUERIES))
        out.append(x if x % 2 else x + 1)
    return out


def query_plan(rng: random.Random) -> list[tuple]:
    """Box points of every firmament, odd thin-firmament points (x, 0) with
    x up to about 2e4, and contact orders, each as (kind, firmament, point,
    expected membership)."""
    plan = []
    for name, (rank, member) in _FIRMAMENTS.items():
        if rank == 1:
            points = [(n,) for n in range(_KUMMER_MAX + 1)]
        else:
            points = list(itertools.product(range(_BOX + 1), repeat=2))
        plan += [("member", name, pt, member(*pt)) for pt in points]
        for _ in range(_CONTACT_QUERIES):
            vals = [rng.randint(0, 3 * _BOX) for _ in range(rank)]
            plan.append(("contact", name, vals, member(*vals)))
    _, thin = _FIRMAMENTS["thin"]
    plan += [("member", "thin", (x, 0), thin(x, 0)) for x in _thin_odd(rng)]
    rng.shuffle(plan)
    return plan


def query_build(plan: list[tuple]) -> list[Op]:
    """Builds the six firmaments once; every query runs against them."""
    firms = build_firmaments()
    ops = []
    for kind, name, pt, expected in plan:
        p, gamma = firms[name]
        ops.append(_member_op(gamma, name, pt, expected) if kind == "member"
                   else _contact_op(p, gamma, name, pt, expected))
    return ops


# ---------------------------------------------------------------------------
# decide


_FIRM_PROBLEMS = 768
_CHARTS = (2, 3, 4)   # charts per fiber problem
_MAX_RANK = 2         # of each Q_i and of R
_LIFTS = 32
_IDEALS = 32


def _minors_gcd(gens, r: int) -> int:
    """gcd of the r x r minors of the generator matrix: 1 exactly when the
    generators span Z^r as a group."""
    out = 0
    for rows in itertools.combinations(gens, r):
        out = math.gcd(out, _det(rows))
    return out


def _det(rows) -> int:
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)))


def _random_monoid(rng: random.Random, rank: int):
    """Generators in {0..3}^rank spanning Z^rank, so the monoid's group is the
    ambient lattice and every hom out of it is an integer matrix."""
    while True:
        gens = [tuple(rng.randint(0, 3) for _ in range(rank))
                for _ in range(rng.randint(rank, rank + 1))]
        gens = sorted({g for g in gens if any(g)})
        if len(gens) >= rank and _minors_gcd(gens, rank) == 1:
            return gens


def _random_hom(rng: random.Random, gens, rank: int, p_rank: int, terms):
    """Matrix sending each unit vector of N^p_rank to a sum of a number of
    generators drawn from the inclusive range ``terms``."""
    cols = []
    for _ in range(p_rank):
        v = [0] * rank
        for _ in range(rng.randint(*terms)):
            v = [a + b for a, b in zip(v, rng.choice(gens))]
        cols.append(v)
    return [[c[i] for c in cols] for i in range(rank)]


def _firm_problem(rng: random.Random, p_rank: int, r_rank: int, n_charts: int):
    """A random fiber problem in the family of the firmness agreement corpus:
    P = N^p with p <= 2 and Q_i, R of rank <= 2, with several charts so that
    each decision runs several factorization searches and pushouts.  Each
    chart has rank Q_i + rank R - rank psi <= 2, which bounds the rank of the
    pushout whose retractions are searched; README.md names the family left
    out.  Returns p, the (rank, generators, matrix) of each theta_i and the
    same of psi."""
    psi_rank = min(p_rank, r_rank)
    q_ranks = range(1, min(_MAX_RANK, 2 + psi_rank - r_rank) + 1)
    chart_specs = []
    for _ in range(n_charts):
        rank = rng.choice(q_ranks)
        gens = _random_monoid(rng, rank)
        chart_specs.append((rank, gens, _random_hom(rng, gens, rank, p_rank, (0, 1))))
    r_gens = _random_monoid(rng, r_rank)
    while True:
        psi = _random_hom(rng, r_gens, r_rank, p_rank, (1, 2))
        if psi_rank < 2 or _det(psi) != 0:
            break
    return p_rank, chart_specs, (r_rank, r_gens, psi)


def _tuples(matrix):
    return tuple(tuple(row) for row in matrix)


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _firm_op(problem) -> Op:
    """Builds one problem's monoids; the operation decides it by both
    criteria.  A factorization witness h for chart i is re-checked by
    composing exactly (h . theta_i = psi on P's generators, which are the
    unit vectors).  The pushout criterion must give the same verdict and,
    since both criteria scan the charts in order and agree chart by chart,
    the same chart.  The two decisions are one operation so that a round's
    median operation is a whole decision, not the boundary between the
    faster factorization searches and the slower pushouts."""
    p_rank, chart_specs, (r_rank, r_gens, psi) = problem
    base = monoid.saturate(p_rank, [tuple(int(i == j) for i in range(p_rank))
                                    for j in range(p_rank)])
    homs = tuple(monoid.MonoidHom(base, monoid.saturate(rank, gens), _tuples(theta))
                 for rank, gens, theta in chart_specs)
    r = monoid.saturate(r_rank, r_gens)
    prob = firm.FiberProblem(base, homs)
    query = firm.LogPointQuery(r, monoid.MonoidHom(base, r, _tuples(psi)))
    thetas = [theta for _, _, theta in chart_specs]

    def call():
        return firm.firm_check(prob, query), firm.firm_check_pushout(prob, query)

    def check(answer) -> bool:
        w, res = answer
        chart = None if w is None else w.component_index
        return ((w is None or _mat_mul(w.hom.matrix, thetas[chart]) == psi)
                and res.firm == (res.component_index is not None)
                and res.component_index == chart)

    return Op("firm.decide", call, check)


def _has_lift(chart, vals) -> bool:
    """Brute force: some exponents e >= 0 with chart . e = vals.  Every column
    of the chart is nonzero and nonnegative, so each e_j <= max(vals)."""
    k = len(chart[0])
    top = max(vals)
    return any([sum(a * x for a, x in zip(row, e)) for row in chart] == vals
               for e in itertools.product(range(top + 1), repeat=k))


def _lift_op(rng: random.Random) -> Op:
    k = rng.randint(1, 2)
    while True:
        chart = [[rng.randint(0, 3) for _ in range(k)] for _ in range(2)]
        if all(any(row[j] for row in chart) for j in range(k)):
            break
    if rng.random() < 0.5:  # a point in the image, so both answers occur
        e = [rng.randint(0, 4) for _ in range(k)]
        vals = [sum(a * x for a, x in zip(row, e)) for row in chart]
    else:
        vals = [rng.randint(0, 12) for _ in range(2)]
    expected = _has_lift(chart, vals)

    def check(res) -> bool:
        if not expected:
            return res.status == "infeasible" and not res.payload["in_firmament"]
        if res.status != "ok":
            return False
        e = res.payload["exponents"]
        return (min(e, default=0) >= 0
                and [sum(a * x for a, x in zip(row, e)) for row in chart] == vals)
    return _cli_op("lift.solve", ["lift", "solve", "--chart", _dumps(chart),
                                  "--vals", _dumps(vals)], check)


def _random_ideal(rng: random.Random):
    nv = rng.randint(2, 3)
    while True:
        gens = {tuple(rng.randint(0, 3) for _ in range(nv))
                for _ in range(rng.randint(1, 3))}
        if all(any(g) for g in gens):
            return nv, sorted(gens)


def _minimal(gens):
    return [g for g in gens
            if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)]


def _contains(gens, e) -> bool:
    return any(all(x <= y for x, y in zip(g, e)) for g in gens)


def _multiplicities(nv: int, gens):
    """Brute-force (m, m_c, m_d_threshold) of a proper monomial ideal: m over
    minimal transversals of the generator supports; m_c the largest e with
    every generator a multiple of a product of e radical generators; m_d the
    least e with every such product inside the ideal."""
    gens = _minimal(gens)
    supports = [frozenset(j for j, x in enumerate(g) if x) for g in gens]
    covers = [frozenset(s) for size in range(1, nv + 1)
              for s in itertools.combinations(range(nv), size)
              if all(frozenset(s) & sup for sup in supports)]
    primes = [c for c in covers if not any(d < c for d in covers)]
    m = min(min(sum(g[v] for v in p) for g in gens) for p in primes)
    rad = _minimal([tuple(int(x > 0) for x in g) for g in gens])

    def products(e):
        for combo in itertools.combinations_with_replacement(rad, e):
            yield tuple(sum(c[v] for c in combo) for v in range(nv))

    m_c = 0
    while all(_contains(products(m_c + 1), g) for g in gens):
        m_c += 1
    m_d = 1
    while not all(_contains(gens, product) for product in products(m_d)):
        m_d += 1
    return m, m_c, m_d


def _campana_ops(rng: random.Random) -> list[Op]:
    nv, gens = _random_ideal(rng)
    ideal = _dumps({"vars": nv, "generators": [list(g) for g in gens]})
    m, m_c, m_d = _multiplicities(nv, gens)

    def check_mult(res) -> bool:
        want = {"m": m, "m_a": m, "m_b": m, "m_c": m_c, "m_d_threshold": m_d}
        return res.status == "ok" and res.payload == want

    vals = [rng.randint(0, 4) for _ in range(nv)]
    level = rng.randint(1, 6)
    n = min(sum(a * v for a, v in zip(g, vals)) for g in gens)
    member = campana.campana_member(n, level)

    def check_member(res) -> bool:
        return (res.status == ("ok" if member else "infeasible")
                and res.payload == {"member": member, "n": n})

    return [_cli_op("campana.mult", ["campana", "mult", "--ideal", ideal, "--variants"],
                    check_mult),
            _cli_op("campana.member",
                    ["campana", "member", "--ideal", ideal, "--vals", _dumps(vals),
                     "--m", str(level)], check_member)]


def decide_plan(rng: random.Random) -> list[tuple]:
    """Fiber problems to be decided by both criteria, and `lift solve` and
    `campana mult --variants` / `campana member` operations, on seeded random
    inputs.  Each entry is ("firm", problem) or ("cli", operations)."""
    plan = []
    # every seed gets the same number of problems of each shape
    shapes = itertools.product((1, 2), range(1, _MAX_RANK + 1), _CHARTS)
    for shape in itertools.islice(itertools.cycle(shapes), _FIRM_PROBLEMS):
        plan.append(("firm", _firm_problem(rng, *shape)))
    for _ in range(_LIFTS):
        plan.append(("cli", [_lift_op(rng)]))
    for _ in range(_IDEALS):
        plan.append(("cli", _campana_ops(rng)))
    # shuffle problems; each CLI entry keeps its operations in order
    rng.shuffle(plan)
    return plan


def decide_build(plan: list[tuple]) -> list[Op]:
    """Saturates the monoids of every fiber problem and builds its charts and
    query; the CLI operations need no set-up."""
    return [op for kind, item in plan
            for op in ([_firm_op(item)] if kind == "firm" else item)]


# name -> (plan, build)
WORKLOADS = {"tower": (tower_plan, tower_build),
             "query": (query_plan, query_build),
             "decide": (decide_plan, decide_build)}
