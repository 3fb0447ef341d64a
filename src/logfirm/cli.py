"""Command-line interface: JSON in, JSON out, deterministic SVG figures.

Exit codes: 0 for a positive answer, 1 for a negative mathematical answer
(not firm, not a member, not additive, not in the image), 2 for input or
usage errors, 3 when a resource budget is exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .campana import (
    IN_Z,
    MonomialIdeal,
    NotContaining,
    ZeroOrUnitIdeal,
    campana_member,
    intersection_multiplicity,
    m_multiplicity,
    variant_multiplicities,
)
from .fan import (
    ConeComplexMap,
    InvalidMap,
    NotPrimitive,
    OutsideSupport,
    SupportMismatch,
    common_refinement,
    cone_complex,
    lattice_points_box,
    sigma_n,
    star_subdivision,
)
from .firm import FiberProblem, LogPointQuery, firm_check, firm_check_pushout
from .firmament import (
    Firmament,
    NotAdditive,
    contact_order,
    firmament_enumerate_box,
    firmament_from_charts,
    firmament_member,
)
from .intlinalg import DEFAULT_ILP_BUDGET, ResourceLimit, ilp_budget, int_vector
from .lift import (
    DVRTargetPoint,
    LiftSolution,
    MonomialChart,
    describe_lift,
    log_smooth_primes,
)
from .monoid import (
    AffineMonoid,
    MonoidHom,
    NotSharp,
    dual,
    faces,
    fs_pushout,
    saturate,
)
from .svg import RankUnsupported, emit_point_grid


@dataclass(frozen=True)
class CommandResult:
    status: str                 # "ok" | "infeasible" | "error" | "limit"
    payload: object
    diagnostics: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "infeasible": 1, "error": 2, "limit": 3}[self.status]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _load(arg: str):
    """Inline JSON if the argument looks like JSON, else a file path."""
    text = arg.strip()
    if text and text[0] in "[{":
        return json.loads(text)
    with open(arg, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rows(rows, width: int, what: str, count=None) -> list[tuple[int, ...]]:
    """The rows as tuples, after checking that each holds ``width`` integers
    and, when ``count`` is given, that there are ``count`` of them."""
    rows = [tuple(r) for r in rows]
    if count is not None and len(rows) != count:
        raise ValueError(f"{what} has {len(rows)} rows, expected {count}")
    return [int_vector(r, width, f"{what} row") for r in rows]


def _natural(x, what: str, least: int = 0) -> int:
    """x, after checking that it is an integer (not a boolean) >= least."""
    if type(x) is not int or x < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {x!r}")
    return x


def monoid_from_json(d) -> AffineMonoid:
    rank = _natural(d["rank"], "rank")
    group = d.get("group")
    return saturate(rank, _rows(d["generators"], rank, "generators"),
                    group=None if group is None else _rows(group, rank, "group"))


def monoid_to_json(m: AffineMonoid):
    return {"rank": m.ambient_rank,
            "generators": [list(g) for g in m.generating_set()]}


def hom_from_json(d, default_source: AffineMonoid | None = None) -> MonoidHom:
    source = (monoid_from_json(d["source"]) if "source" in d
              else default_source)
    if source is None:
        raise _UsageError("hom JSON needs a source monoid")
    target = monoid_from_json(d["target"])
    return MonoidHom(source, target,
                     tuple(_rows(d["matrix"], source.ambient_rank, "matrix",
                                 target.ambient_rank)))


def hom_to_json(h: MonoidHom):
    """The ambient matrix of h when an integer one induces h; otherwise
    ``"matrix": null``, the matrix on group coordinates and the Hermite
    bases of the source and target groups it is written in."""
    if h.matrix is not None:
        return {"matrix": [list(r) for r in h.matrix]}
    return {"matrix": None,
            "group_matrix": [list(r) for r in h.local],
            "source_group": [list(b) for b in h.source.group_basis],
            "target_group": [list(b) for b in h.target.group_basis]}


def fan_from_json(d):
    rank = _natural(d["ambient_rank"], "ambient_rank")
    return cone_complex(rank, [_rows(c["rays"], rank, "cone rays")
                               for c in d["cones"]],
                        scale=_natural(d.get("scale", 1), "scale", 1))


def fan_to_json(c):
    return {"ambient_rank": c.ambient_rank, "scale": c.scale,
            "cones": [{"rays": [list(r) for r in cone.rays]}
                      for cone in c.maximal]}


def map_to_json(f: ConeComplexMap):
    return {"source": fan_to_json(f.source), "target": fan_to_json(f.target),
            "cones": [{"target": t, "matrix": [list(r) for r in m]}
                      for t, m in f.assignments]}


def firmament_from_json(d) -> Firmament:
    if "charts" in d:
        base = monoid_from_json(d["base"])
        thetas = [hom_from_json(h, base) for h in d["charts"]]
        return firmament_from_charts(base, thetas)
    source = fan_from_json(d["source"])
    target = fan_from_json(d["target"])
    if len(d["cones"]) != len(source.faces):
        raise ValueError(f"the map has {len(d['cones'])} cone assignments, "
                         f"expected one per source cone ({len(source.faces)})")
    assignments = []
    for a in d["cones"]:
        t = a["target"]
        if type(t) is not int or not 0 <= t < len(target.faces):
            raise ValueError(f"target cone index {t!r} is not in "
                             f"[0, {len(target.faces)})")
        assignments.append((t, tuple(_rows(a["matrix"], source.ambient_rank,
                                           "cone matrix", target.ambient_rank))))
    return Firmament(ConeComplexMap(source, target, tuple(assignments)))


def ideal_from_json(d) -> MonomialIdeal:
    num_vars = _natural(d["vars"], "vars")
    return MonomialIdeal.of(num_vars,
                            _rows(d["generators"], num_vars, "ideal generators"))


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a CommandResult)


def _cmd_monoid(args) -> CommandResult:
    if args.action == "pushout":
        theta = hom_from_json(_load(args.theta))
        psi = hom_from_json(_load(args.psi), theta.source)
        res = fs_pushout(theta, psi)
        payload = {
            "free_rank": res.free_rank,
            "torsion_orders": list(res.torsion_orders),
            "characteristic": monoid_to_json(res.characteristic),
            "saturated": res.amalgam_equals_saturation() is None,
        }
        return CommandResult("ok", payload)
    m = monoid_from_json(_load(args.monoid))
    if args.action == "saturate":
        return CommandResult("ok", monoid_to_json(m))
    if args.action == "dual":
        return CommandResult("ok", monoid_to_json(dual(m)))
    out = [{"generators": list(f.generator_subset),
            "normal": list(f.normal)} for f in faces(m)]
    return CommandResult("ok", {"faces": out})


def _cmd_firm(args) -> CommandResult:
    pd = _load(args.problem)
    base = monoid_from_json(pd["base"])
    prob = FiberProblem(base, tuple(hom_from_json(h, base)
                                    for h in pd["components"]))
    qd = _load(args.query)
    point_monoid = monoid_from_json(qd["point_monoid"])
    psi = MonoidHom(base, point_monoid,
                    tuple(_rows(qd["matrix"], base.ambient_rank, "query matrix",
                                point_monoid.ambient_rank)))
    q = LogPointQuery(point_monoid, psi)
    if args.method == "pushout":
        res = firm_check_pushout(prob, q)
        witness = None
        if res.firm:
            witness = {"component": res.component_index,
                       "face_normal": list(res.face.normal)}
        payload = {"firm": res.firm, "witness": witness, "method": "pushout"}
        return CommandResult("ok" if res.firm else "infeasible", payload)
    w = firm_check(prob, q)
    witness = None
    if w is not None:
        witness = {"component": w.component_index, **hom_to_json(w.hom)}
    payload = {"firm": w is not None, "witness": witness,
               "method": "factorization"}
    return CommandResult("ok" if w is not None else "infeasible", payload)


def _vals_by_generator(m: AffineMonoid, vals: dict) -> dict:
    """A ``--vals`` object keyed by tuples, each key a JSON list of integers
    of m's rank and no two naming one vector; contact_order checks the rest."""
    by_generator = {}
    for key, v in vals.items():
        try:
            g = int_vector(json.loads(key), m.ambient_rank, "vals key")
        except (TypeError, ValueError):  # JSONDecodeError is a ValueError
            raise ValueError(f"vals key {key!r} is not a list of "
                             f"{m.ambient_rank} integers") from None
        if g in by_generator:
            raise ValueError(f"vals key {key!r} names generator {list(g)} again")
        by_generator[g] = v
    return by_generator


def _cmd_firmament(args) -> CommandResult:
    if args.action == "member":
        gamma = firmament_from_json(_load(args.map))
        coords = _rows([_load(args.point)],
                       gamma.map.target.ambient_rank, "point")[0]
        member = firmament_member(gamma, coords)
        return CommandResult("ok" if member else "infeasible",
                             {"member": member})
    if args.action == "contact":
        m = monoid_from_json(_load(args.monoid))
        vals = _load(args.vals)
        if isinstance(vals, dict):
            vals = _vals_by_generator(m, vals)
        c = contact_order(m, vals)
        return CommandResult("ok", {"coordinates": list(c.point.coordinates)})
    gamma = firmament_from_json(_load(args.map))
    if gamma.map.target.ambient_rank != 2:
        raise RankUnsupported("SVG output needs a rank-2 target")
    _natural(args.box, "--box")
    members = {p.coordinates for p in firmament_enumerate_box(gamma, args.box)}
    doc = emit_point_grid(args.box, members)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(doc)
    return CommandResult("ok", {"members": len(members), "box": args.box,
                                "output": args.output})


def _cmd_fan(args) -> CommandResult:
    if args.action == "subdivide":
        fan = fan_from_json(_load(args.fan))
        vector = _rows([_load(args.vector)], fan.ambient_rank, "vector")[0]
        sub, f = star_subdivision(fan, vector)
        return CommandResult("ok", {"fan": fan_to_json(sub),
                                    "map": map_to_json(f)})
    if args.action == "refine":
        f1 = fan_from_json(_load(args.first))
        f2 = fan_from_json(_load(args.second))
        return CommandResult("ok", fan_to_json(common_refinement(f1, f2)))
    if args.action == "sigma-n":
        tower = sigma_n(_natural(args.rank, "--rank", 1), _natural(args.n, "--n"))
        return CommandResult("ok", fan_to_json(tower))
    fan = fan_from_json(_load(args.fan))
    _natural(args.box, "--box")
    pts = sorted((p.cone_index, p.coordinates)
                 for p in lattice_points_box(fan, args.box))
    return CommandResult("ok", {"points": [
        {"cone": c, "coordinates": list(v)} for c, v in pts]})


def _cmd_lift(args) -> CommandResult:
    if args.action == "primes":
        matrix = _load(args.matrix)
        _rows(matrix, len(matrix[0]) if matrix else 0, "matrix")
        primes = sorted(log_smooth_primes(matrix))
        return CommandResult("ok", {"primes": primes})
    chart_data = _load(args.chart)
    if type(chart_data) is not list:
        raise ValueError("chart must be a list of rows")
    chart = MonomialChart(tuple(_rows(
        chart_data, len(chart_data[0]) if chart_data else 0, "chart")))
    vals = _rows([_load(args.vals)], chart.num_target, "vals")[0]
    out = describe_lift(chart, DVRTargetPoint(vals),
                        residue_char=args.residue_char)
    if not isinstance(out, LiftSolution):
        return CommandResult("infeasible",
                             {"in_firmament": False,
                              "valuations": list(out.valuations)})
    payload = {
        "in_firmament": True,
        "exponents": list(out.exponents),
        "unit_matrix": [[str(x) for x in row]
                        for row in out.unit_matrix],
        "root_orders": list(out.root_orders),
        "ramification_primes": sorted(out.ramification_primes),
        "unit_constraints": [list(c) for c in out.unit_constraints],
        "etale": out.etale,
    }
    return CommandResult("ok", payload)


def _cmd_campana(args) -> CommandResult:
    i = ideal_from_json(_load(args.ideal))
    if args.action == "mult":
        payload = {"m": m_multiplicity(i)}
        if args.variants:
            m_a, m_b, m_c, m_d = variant_multiplicities(i)
            payload.update({"m_a": m_a, "m_b": m_b, "m_c": m_c,
                            "m_d_threshold": m_d})
        return CommandResult("ok", payload)
    n = intersection_multiplicity(i, _load(args.vals), in_z=args.in_z)
    member = campana_member(n, args.m)
    payload = {"member": member, "n": "in_z" if n is IN_Z else n}
    return CommandResult("ok" if member else "infeasible", payload)


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="logfirm")
    parser.add_argument("--bound", type=int, default=DEFAULT_ILP_BUDGET,
                        help="node budget of every integer program")
    sub = parser.add_subparsers(dest="command", required=True)

    p_monoid = sub.add_parser("monoid")
    sm = p_monoid.add_subparsers(dest="action", required=True)
    for name in ("saturate", "dual", "faces"):
        p = sm.add_parser(name)
        p.add_argument("--monoid", required=True)
    p = sm.add_parser("pushout")
    p.add_argument("--theta", required=True)
    p.add_argument("--psi", required=True)
    p_monoid.set_defaults(func=_cmd_monoid)

    p_firm = sub.add_parser("firm")
    sf = p_firm.add_subparsers(dest="action", required=True)
    p = sf.add_parser("check")
    p.add_argument("--problem", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--method", choices=("factorization", "pushout"),
                   default="factorization")
    p_firm.set_defaults(func=_cmd_firm)

    p_fmt = sub.add_parser("firmament")
    sfm = p_fmt.add_subparsers(dest="action", required=True)
    p = sfm.add_parser("member")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p = sfm.add_parser("contact")
    p.add_argument("--monoid", required=True)
    p.add_argument("--vals", required=True)
    p = sfm.add_parser("svg")
    p.add_argument("--map", required=True)
    p.add_argument("--box", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p_fmt.set_defaults(func=_cmd_firmament)

    p_fan = sub.add_parser("fan")
    sfa = p_fan.add_subparsers(dest="action", required=True)
    p = sfa.add_parser("subdivide")
    p.add_argument("--fan", required=True)
    p.add_argument("--vector", required=True)
    p = sfa.add_parser("refine")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p = sfa.add_parser("sigma-n")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = sfa.add_parser("points")
    p.add_argument("--fan", required=True)
    p.add_argument("--box", type=int, required=True)
    p_fan.set_defaults(func=_cmd_fan)

    p_lift = sub.add_parser("lift")
    sl = p_lift.add_subparsers(dest="action", required=True)
    p = sl.add_parser("solve")
    p.add_argument("--chart", required=True)
    p.add_argument("--vals", required=True)
    p.add_argument("--residue-char", type=int, default=None)
    p = sl.add_parser("primes")
    p.add_argument("--matrix", "--mat", dest="matrix", required=True)
    p_lift.set_defaults(func=_cmd_lift)

    p_cmp = sub.add_parser("campana")
    sc = p_cmp.add_subparsers(dest="action", required=True)
    p = sc.add_parser("mult")
    p.add_argument("--ideal", required=True)
    p.add_argument("--variants", action="store_true")
    p = sc.add_parser("member")
    p.add_argument("--ideal", required=True)
    p.add_argument("--vals", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--in-z", action="store_true")
    p_cmp.set_defaults(func=_cmd_campana)
    return parser


_INPUT_ERRORS = (
    _UsageError, ValueError, KeyError, TypeError, OSError,
    json.JSONDecodeError, RankUnsupported, NotPrimitive, OutsideSupport,
    SupportMismatch, InvalidMap, NotSharp,
    NotContaining, ZeroOrUnitIdeal,
)


def dispatch(argv) -> CommandResult:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with ilp_budget(_natural(args.bound, "--bound")):
            return args.func(args)
    except NotAdditive as exc:
        return CommandResult("infeasible", {"additive": False},
                             (str(exc),))
    except ResourceLimit as exc:
        return CommandResult("limit", {"error": "resource limit"},
                             (str(exc),))
    except _INPUT_ERRORS as exc:
        return CommandResult("error",
                             {"error": f"{type(exc).__name__}: {exc}"},
                             (str(exc),))


def main(argv=None) -> int:
    result = dispatch(sys.argv[1:] if argv is None else list(argv))
    sys.stdout.write(json.dumps(result.payload, sort_keys=True) + "\n")
    for line in result.diagnostics:
        sys.stderr.write(line + "\n")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
