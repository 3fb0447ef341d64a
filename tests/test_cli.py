"""End-to-end tests for the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logfirm import cli
from logfirm.cli import dispatch, main

TWO_THREE = json.dumps({
    "base": {"rank": 1, "generators": [[1]]},
    "charts": [
        {"matrix": [[2]], "target": {"rank": 1, "generators": [[1]]}},
        {"matrix": [[3]], "target": {"rank": 1, "generators": [[1]]}},
    ],
})

ORTHANT2 = {"rank": 2, "generators": [[1, 0], [0, 1]]}

# the chart N^2 -> N^4, (a, b) -> (2a, 4a, b, a + b); the box the membership
# ILP searches grows with the point
THIN = json.dumps({
    "base": ORTHANT2,
    "charts": [{"matrix": [[2, 0], [4, 0], [0, 1], [1, 1]],
                "target": {"rank": 4, "generators": [
                    [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}],
})


def run(argv):
    return dispatch(argv)


class TestMonoidCommands:
    def test_saturate(self):
        r = run(["monoid", "saturate", "--monoid",
                 json.dumps({"rank": 1, "generators": [[2], [3]]})])
        assert r.status == "ok"
        assert r.payload == {"rank": 1, "generators": [[1]]}

    def test_saturate_parity(self):
        r = run(["monoid", "saturate", "--monoid",
                 json.dumps({"rank": 2, "generators": [[2, 0], [0, 2],
                                                       [1, 1]]})])
        assert r.status == "ok"
        assert sorted(map(tuple, r.payload["generators"])) == [
            (0, 2), (1, 1), (2, 0)]

    def test_dual(self):
        r = run(["monoid", "dual", "--monoid", json.dumps(ORTHANT2)])
        assert r.status == "ok"
        assert sorted(map(tuple, r.payload["generators"])) == [(0, 1), (1, 0)]

    def test_dual_ignores_an_oversized_group(self, capsys):
        # N·(1,1) ≅ N: the group Z^2 is cut down to the line through (1,1)
        diagonal = {"rank": 2, "generators": [[1, 1]]}
        assert main(["monoid", "dual", "--monoid", json.dumps(diagonal)]) == 0
        alone = capsys.readouterr().out
        diagonal["group"] = [[1, 0], [0, 1]]
        assert main(["monoid", "dual", "--monoid", json.dumps(diagonal)]) == 0
        assert capsys.readouterr().out == alone
        assert json.loads(alone)["generators"] == [[1]]

    def test_faces(self):
        r = run(["monoid", "faces", "--monoid", json.dumps(ORTHANT2)])
        assert r.status == "ok"
        assert len(r.payload["faces"]) == 4

    def test_pushout(self):
        n = {"rank": 1, "generators": [[1]]}
        theta = json.dumps({"matrix": [[2]], "source": n, "target": n})
        psi = json.dumps({"matrix": [[2]], "source": n, "target": n})
        r = run(["monoid", "pushout", "--theta", theta, "--psi", psi])
        assert r.status == "ok"
        assert r.payload["torsion_orders"] == [2]
        assert r.payload["saturated"] is False

    def test_pushout_into_even_numbers(self):
        n = {"rank": 1, "generators": [[1]]}
        theta = json.dumps({"matrix": [[2]], "source": n,
                            "target": {"rank": 1, "generators": [[2]]}})
        psi = json.dumps({"matrix": [[1]], "source": n, "target": n})
        r = run(["monoid", "pushout", "--theta", theta, "--psi", psi])
        assert r.exit_code == 0
        assert r.payload["characteristic"] == n

    def test_pushout_source_from_other_generators(self, capsys):
        # N given by 1 and 2 is theta's source N: the same run as with none
        n = {"rank": 1, "generators": [[1]]}
        theta = json.dumps({"matrix": [[2]], "source": n, "target": n})
        psi = {"matrix": [[3]], "target": n}
        assert main(["monoid", "pushout", "--theta", theta,
                     "--psi", json.dumps(psi)]) == 0
        alone = capsys.readouterr().out
        psi["source"] = {"rank": 1, "generators": [[1], [2]]}
        assert main(["monoid", "pushout", "--theta", theta,
                     "--psi", json.dumps(psi)]) == 0
        assert capsys.readouterr().out == alone

    def test_bad_json_is_input_error(self):
        r = run(["monoid", "saturate", "--monoid", "{not json"])
        assert r.status == "error"
        assert r.exit_code == 2


class TestFirmCommand:
    def _problem(self):
        n = {"rank": 1, "generators": [[1]]}
        return json.dumps({"base": n, "components": [
            {"matrix": [[2]], "target": n},
            {"matrix": [[3]], "target": n},
        ]})

    def _query(self, v):
        return json.dumps({
            "point_monoid": {"rank": 1, "generators": [[1]]},
            "matrix": [[v]],
        })

    def test_firm_value(self):
        r = run(["firm", "check", "--problem", self._problem(),
                 "--query", self._query(6)])
        assert r.status == "ok" and r.exit_code == 0
        assert r.payload["firm"] is True
        assert r.payload["method"] == "factorization"
        assert r.payload["witness"]["component"] == 0

    def test_not_firm_value(self):
        r = run(["firm", "check", "--problem", self._problem(),
                 "--query", self._query(5)])
        assert r.status == "infeasible" and r.exit_code == 1
        assert r.payload == {"firm": False, "witness": None,
                             "method": "factorization"}

    def test_pushout_method_agrees(self):
        for v, expected in ((4, True), (5, False), (9, True)):
            r = run(["firm", "check", "--problem", self._problem(),
                     "--query", self._query(v), "--method", "pushout"])
            assert r.payload["firm"] is expected, v
            assert r.payload["method"] == "pushout"

    def test_pushout_witness_is_the_zero_face(self, capsys):
        # the pushout of N -> N^3 and N -> N^2 has rank 4: a search over its
        # faces enumerated its Hilbert basis box, which took seconds
        problem = json.dumps({
            "base": {"rank": 1, "generators": [[1]]},
            "components": [{"matrix": [[6], [4], [5]], "target": {
                "rank": 3, "generators": [[0, 2, 3], [0, 3, 3], [1, 0, 3],
                                          [3, 1, 3], [3, 3, 2]]}}]})
        query = json.dumps({"point_monoid": ORTHANT2, "matrix": [[2], [3]]})
        assert main(["firm", "check", "--method", "pushout", "--problem",
                     problem, "--query", query]) == 0
        assert capsys.readouterr().out == (
            '{"firm": true, "method": "pushout", "witness": '
            '{"component": 0, "face_normal": [36, -66, 7, 54]}}\n')

    @pytest.mark.parametrize("argv", [
        ["monoid", "pushout", "--theta", json.dumps({
            "source": {"rank": 2, "generators": [[1, 0], [1, 2], [1, 1]]},
            "target": {"rank": 1, "generators": [[1]]}, "matrix": [[2, -3]]}),
         "--psi", json.dumps({"target": {"rank": 1, "generators": [[1]]},
                              "matrix": [[1, 1]]})],
        ["firm", "check", "--method", "pushout", "--problem", json.dumps({
            "base": {"rank": 2, "generators": [[1, 0], [1, 2], [1, 1]]},
            "components": [{"matrix": [[2, -3]], "target": {
                "rank": 1, "generators": [[1]]}}]}),
         "--query", json.dumps({"point_monoid": {"rank": 1,
                                                 "generators": [[1]]},
                                "matrix": [[1, 1]]})],
    ])
    def test_rejected_hom_names_first_hilbert_element(self, argv, capsys):
        # (1, 1) is the first Hilbert element of the source sent outside N,
        # and no extreme ray of it: the rays are (1, 0) and (1, 2)
        assert main(argv) == 2
        assert capsys.readouterr().out == (
            '{"error": "ValueError: matrix does not map generator (1, 1) '
            'into the target monoid"}\n')

    @pytest.mark.parametrize("method", ["factorization", "pushout"])
    def test_chart_into_a_monoid_with_units_rejected(self, method, capsys):
        # Q = Z x N is not sharp: the factorization search needs a sharp
        # target, and both methods must reject the problem alike
        problem = json.dumps({"base": {"rank": 1, "generators": [[1]]},
                              "components": [{"matrix": [[0], [1]], "target": {
                                  "rank": 2,
                                  "generators": [[1, 0], [-1, 0], [0, 1]]}}]})
        assert main(["firm", "check", "--problem", problem, "--query",
                     self._query(1), "--method", method]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "ValueError: every chart must end at a sharp monoid"}

    @pytest.mark.parametrize("method", ["factorization", "pushout"])
    def test_witness_without_ambient_matrix(self, method, capsys):
        # N -> 2N (x -> 2x) factors the identity of N through h(2) = 1, which
        # no integer matrix on Z induces
        problem = json.dumps({"base": {"rank": 1, "generators": [[1]]},
                              "components": [{"matrix": [[2]], "target": {
                                  "rank": 1, "generators": [[2]]}}]})
        assert main(["firm", "check", "--problem", problem, "--query",
                     self._query(1), "--method", method]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["firm"] is True
        if method == "factorization":
            assert payload["witness"] == {
                "component": 0, "matrix": None, "group_matrix": [[1]],
                "source_group": [[2]], "target_group": [[1]]}


class TestFirmamentCommands:
    def test_member_negative_exit_one(self):
        r = run(["firmament", "member", "--map", TWO_THREE,
                 "--point", "[5]"])
        assert r.status == "infeasible" and r.exit_code == 1
        assert r.payload == {"member": False}

    def test_member_positive(self):
        r = run(["firmament", "member", "--map", TWO_THREE,
                 "--point", "[6]"])
        assert r.status == "ok" and r.payload == {"member": True}

    def test_member_of_no_chart(self, capsys):
        # the image of an empty source is empty, 0 included
        argv = ["firmament", "member", "--point", "[0]",
                "--map", '{"base":{"rank":1,"generators":[[1]]},"charts":[]}']
        assert main(argv) == 1
        assert capsys.readouterr().out == '{"member": false}\n'

    def test_member_cone_suffix_rejected(self):
        r = run(["firmament", "member", "--map", TWO_THREE,
                 "--point", "[4]@cone_0"])
        assert r.exit_code == 2

    def test_contact(self):
        vals = {json.dumps([1, 0]): 2, json.dumps([0, 1]): 3}
        r = run(["firmament", "contact", "--monoid", json.dumps(ORTHANT2),
                 "--vals", json.dumps(vals)])
        assert r.status == "ok"
        assert r.payload == {"coordinates": [2, 3]}

    def test_contact_not_additive(self):
        parity = {"rank": 2,
                  "generators": [[2, -1], [1, 0], [0, 1]],
                  "group": [[1, 0], [0, 1]]}
        vals = {json.dumps([0, 1]): 1, json.dumps([1, 0]): 0,
                json.dumps([2, -1]): 0}
        r = run(["firmament", "contact", "--monoid", json.dumps(parity),
                 "--vals", json.dumps(vals)])
        assert r.status == "infeasible" and r.exit_code == 1

    def test_svg(self, tmp_path):
        parity_map = json.dumps({
            "base": ORTHANT2,
            "charts": [{
                "matrix": [[2, 0], [-1, 1]],
                "target": {"rank": 2,
                           "generators": [[2, -1], [1, 0], [0, 1]],
                           "group": [[1, 0], [0, 1]]},
            }],
        })
        out = tmp_path / "parity.svg"
        r = run(["firmament", "svg", "--map", parity_map, "--box", "3",
                 "-o", str(out)])
        assert r.status == "ok"
        assert r.payload["members"] == 8
        text = out.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert text.count('fill="black"') == 8
        # determinism
        out2 = tmp_path / "parity2.svg"
        run(["firmament", "svg", "--map", parity_map, "--box", "3",
             "-o", str(out2)])
        assert out2.read_text() == text

    def test_svg_needs_a_rank_two_target(self, tmp_path, capsys):
        n3 = {"rank": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        chart = {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "target": n3}
        out = tmp_path / "rank3.svg"
        assert main(["firmament", "svg", "--box", "1", "-o", str(out), "--map",
                     json.dumps({"base": n3, "charts": [chart]})]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "RankUnsupported: SVG output needs a rank-2 target"}
        assert not out.exists()


class TestFanCommands:
    ORTHANT_FAN = json.dumps({"ambient_rank": 2, "scale": 1,
                              "cones": [{"rays": [[1, 0], [0, 1]]}]})

    def test_subdivide(self):
        r = run(["fan", "subdivide", "--fan", self.ORTHANT_FAN,
                 "--vector", "[1,1]"])
        assert r.status == "ok"
        rays = sorted(tuple(map(tuple, c["rays"]))
                      for c in r.payload["fan"]["cones"])
        assert rays == [(((0, 1), (1, 1))), (((1, 0), (1, 1)))]
        assert "map" in r.payload

    def test_refine(self):
        blown = json.dumps({"ambient_rank": 2, "cones": [
            {"rays": [[1, 0], [1, 1]]}, {"rays": [[1, 1], [0, 1]]}]})
        r = run(["fan", "refine", "--first", self.ORTHANT_FAN,
                 "--second", blown])
        assert r.status == "ok"
        assert len(r.payload["cones"]) == 2

    def test_refine_lives_on_the_lcm_lattice(self):
        thirds = json.dumps({"ambient_rank": 2, "scale": 3,
                             "cones": [{"rays": [[1, 0], [0, 1]]}]})
        r = run(["fan", "refine", "--first", self.ORTHANT_FAN,
                 "--second", thirds])
        assert r.status == "ok"
        assert r.payload["scale"] == 3

    def test_refine_steep_pair_exits_two(self, capsys):
        steep = [json.dumps({"ambient_rank": 2,
                             "cones": [{"rays": [[1, 0], [1, k]]}]})
                 for k in (9, 10)]
        assert main(["fan", "refine", "--first", steep[0],
                     "--second", steep[1]]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error.startswith("SupportMismatch")

    def test_sigma_n(self):
        r = run(["fan", "sigma-n", "--rank", "2", "--n", "1"])
        assert r.status == "ok"
        assert len(r.payload["cones"]) == 2

    def test_points(self):
        r = run(["fan", "points", "--fan", self.ORTHANT_FAN, "--box", "1"])
        assert r.status == "ok"
        coords = sorted(tuple(p["coordinates"]) for p in r.payload["points"])
        assert coords == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_round_trip(self):
        r = run(["fan", "sigma-n", "--rank", "2", "--n", "2"])
        r2 = run(["fan", "points", "--fan", json.dumps(r.payload),
                  "--box", "1"])
        assert r2.status == "ok"


class TestLiftCommands:
    def test_primes(self):
        r = run(["lift", "primes", "--mat", "[[2,1],[3,0]]"])
        assert r.status == "ok"
        assert r.payload == {"primes": [3]}

    def test_primes_long_flag(self):
        r = run(["lift", "primes", "--matrix", "[[1,0],[0,1]]"])
        assert r.payload == {"primes": []}

    def test_solve(self):
        r = run(["lift", "solve", "--chart", "[[2,3],[1,0]]",
                 "--vals", "[5,1]", "--residue-char", "5"])
        assert r.status == "ok"
        assert r.payload["exponents"] == [1, 1]
        assert r.payload["root_orders"] == [1, 3]
        assert r.payload["unit_matrix"][1] == ["1/3", "-2/3"]
        assert r.payload["etale"] is True

    @pytest.mark.parametrize("char, etale", [(0, True), (2, True), (3, False),
                                             (5, True), (-4, None), (-3, None),
                                             (1, None), (4, None), (9, None)])
    def test_solve_residue_char_is_zero_or_prime(self, char, etale):
        r = run(["lift", "solve", "--chart", "[[2,3],[1,0]]",
                 "--vals", "[5,1]", "--residue-char", str(char)])
        if etale is None:
            assert r.exit_code == 2
            assert r.payload["error"].startswith("ValueError: residue characteristic")
        else:
            assert r.exit_code == 0 and r.payload["etale"] is etale

    def test_primes_of_a_composite(self):
        # the trial division in lift._primes_of runs only past 3
        r = run(["lift", "primes", "--mat", "[[12]]"])
        assert r.payload == {"primes": [2, 3]}

    def test_solve_composite_root_order(self):
        r = run(["lift", "solve", "--chart", "[[6]]", "--vals", "[6]"])
        assert r.status == "ok"
        assert r.payload["root_orders"] == [6]
        assert r.payload["ramification_primes"] == [2, 3]

    def test_solve_not_in_firmament(self):
        r = run(["lift", "solve", "--chart", "[[2,3],[1,0]]",
                 "--vals", "[1,0]"])
        assert r.status == "infeasible" and r.exit_code == 1
        assert r.payload["in_firmament"] is False

    def test_solve_chart_with_no_source_variable(self):
        # the exponent system has no unknown: only e = 0 lifts
        r = run(["lift", "solve", "--chart", "[[],[]]", "--vals", "[0,0]"])
        assert r.exit_code == 0 and r.payload["exponents"] == []
        r = run(["lift", "solve", "--chart", "[[],[]]", "--vals", "[0,1]"])
        assert r.exit_code == 1
        assert r.payload == {"in_firmament": False, "valuations": [0, 1]}

    @pytest.mark.parametrize("chart, vals, constraints", [
        ("[[]]", "[0]", [[1]]), ("[[],[]]", "[0,0]", [[1, 0], [0, 1]]),
        ("[]", "[]", [])])
    def test_no_source_variable_fixes_every_unit(self, chart, vals, constraints):
        # with no source unit to solve for, the lift exists only when every
        # target unit is 1; the constraints once read [] for these charts
        r = run(["lift", "solve", "--chart", chart, "--vals", vals])
        assert r.exit_code == 0
        assert r.payload["unit_constraints"] == constraints


class TestCampanaCommands:
    def test_mult(self):
        r = run(["campana", "mult", "--ideal",
                 '{"vars":2,"generators":[[2,0],[0,2]]}'])
        assert r.status == "ok"
        assert r.payload == {"m": 2}

    def test_mult_variants(self):
        r = run(["campana", "mult", "--ideal",
                 '{"vars":2,"generators":[[2,0],[0,2]]}', "--variants"])
        assert r.payload == {"m": 2, "m_a": 2, "m_b": 2, "m_c": 2,
                             "m_d_threshold": 3}

    def test_member(self):
        base = ["campana", "member", "--ideal",
                '{"vars":2,"generators":[[2,0],[0,2]]}', "--m", "2"]
        r = run(base + ["--vals", "[1,1]"])
        assert r.status == "ok" and r.payload["member"] is True
        r = run(base[:-2] + ["--m", "3", "--vals", "[1,1]"])
        assert r.status == "infeasible" and r.payload["member"] is False

    def test_member_in_z(self):
        r = run(["campana", "member", "--ideal",
                 '{"vars":2,"generators":[[2,0]]}', "--m", "5",
                 "--vals", "[0,0]", "--in-z"])
        assert r.payload == {"member": True, "n": "in_z"}


class TestPlumbing:
    def test_usage_error_exit_two(self):
        r = run(["firmament", "member", "--map", TWO_THREE])
        assert r.status == "error" and r.exit_code == 2

    def test_unknown_command(self):
        r = run(["frobnicate"])
        assert r.exit_code == 2

    def test_main_prints_json(self, capsys):
        code = main(["lift", "primes", "--mat", "[[2,1],[3,0]]"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {"primes": [3]}

    def test_output_deterministic(self, capsys):
        main(["campana", "mult", "--ideal",
              '{"vars":2,"generators":[[2,0],[0,2]]}', "--variants"])
        first = capsys.readouterr().out
        main(["campana", "mult", "--ideal",
              '{"vars":2,"generators":[[2,0],[0,2]]}', "--variants"])
        assert capsys.readouterr().out == first

    def test_parser_built_once(self):
        argv = ["lift", "primes", "--mat", "[[2,1],[3,0]]"]
        first = run(argv)
        assert run(["lift", "primes"]).exit_code == 2
        assert run(argv).payload == first.payload == {"primes": [3]}
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("argv", [
        ["monoid", "saturate", "--monoid",
         '{"rank":2,"generators":[[2,0],[0,2],[1,1]]}'],
        ["fan", "points", "--box", "2", "--fan",
         '{"ambient_rank":2,"cones":[{"rays":[[1,0],[1,2]]}]}'],
        ["fan", "subdivide", "--fan", TestFanCommands.ORTHANT_FAN,
         "--vector", "[1,1]"],
        ["firmament", "member", "--map", TWO_THREE, "--point", "[6]"],
        ["lift", "solve", "--chart", "[[2,3,1],[1,0,2]]", "--vals", "[11,7]"],
        ["campana", "member", "--ideal", '{"vars":2,"generators":[[2,0],[0,2]]}',
         "--m", "2", "--vals", "[1,1]"],
    ])
    def test_json_from_a_file(self, argv, tmp_path, capsys):
        # every JSON argument may be a path to a file holding it
        path = tmp_path / "input.json"
        path.write_text(argv[-1], encoding="utf-8")
        assert main(argv) == 0
        inline = capsys.readouterr().out
        assert main(argv[:-1] + [str(path)]) == 0
        assert capsys.readouterr().out == inline

    def test_missing_file_is_input_error(self):
        r = run(["monoid", "saturate", "--monoid", "/nonexistent.json"])
        assert r.exit_code == 2

    def test_spent_budget_exits_three(self):
        """``--bound`` caps every integer program a command runs: a spent
        budget is exit 3 with a one-line diagnostic, never a traceback; with
        the default budget the same command answers."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        n1 = {"rank": 1, "generators": [[1]]}
        cases = [
            ("50", ["firmament", "member", "--map", THIN, "--point",
                    "[2001,0]"],
             1, {"member": False}),
            ("1", ["lift", "solve", "--chart", "[[3,5,7]]", "--vals",
                   "[4000]"],
             0, {"etale": None, "exponents": [0, 2, 570],
                 "in_firmament": True, "ramification_primes": [],
                 "root_orders": [1, 1, 1], "unit_constraints": [],
                 "unit_matrix": [["3"], ["-3"], ["1"]]}),
            ("1", ["campana", "mult", "--variants", "--ideal",
                   '{"vars":2,"generators":[[40,0],[0,40]]}'],
             0, {"m": 40, "m_a": 40, "m_b": 40, "m_c": 40,
                 "m_d_threshold": 79}),
            ("0", ["monoid", "pushout",
                   "--theta", json.dumps({"matrix": [[2]], "source": n1,
                                          "target": n1}),
                   "--psi", json.dumps({"matrix": [[3]], "source": n1,
                                        "target": n1})],
             0, {"characteristic": {"generators": [[-1]], "rank": 1},
                 "free_rank": 1, "saturated": False, "torsion_orders": []}),
            ("10", ["firmament", "svg", "--map", THIN, "--box", "41",
                    "-o", os.devnull],
             0, {"box": 41, "members": 1743, "output": os.devnull}),
        ]
        for bound, argv, code, payload in cases:
            for prefix, want_code, want, stderr_lines in (
                    (["--bound", bound], 3, {"error": "resource limit"}, 1),
                    ([], code, payload, 0)):
                out = subprocess.run(
                    [sys.executable, "-m", "logfirm.cli"] + prefix + argv,
                    env=env, capture_output=True, text=True, timeout=120)
                assert out.returncode == want_code, (argv, out.stderr)
                assert json.loads(out.stdout) == want
                assert len(out.stderr.splitlines()) == stderr_lines, out.stderr
                assert "Traceback" not in out.stderr


N1 = {"rank": 1, "generators": [[1]]}
Z1 = {"rank": 1, "generators": [[1], [-1]]}
N1_EVEN = {"rank": 1, "generators": [[2]]}
N1_PROBLEM = json.dumps({"base": N1, "components": [
    {"matrix": [[2]], "target": N1}]})
N1_FAN = {"ambient_rank": 1, "cones": [{"rays": [[1]]}]}
N2_FAN = {"ambient_rank": 2, "cones": [{"rays": [[1, 0], [0, 1]]}]}


def explicit_map(*cones, source=N1_FAN, target=N1_FAN):
    """An explicit firmament map: (target cone index, matrix) per source cone."""
    return json.dumps({"source": source, "target": target,
                       "cones": [{"target": t, "matrix": m} for t, m in cones]})


# --vals objects with a bad key, each with that key as the error names it:
# the CLI names the JSON key whose syntax it rejects, and contact_order the
# tuple that names no Hilbert generator
CONTACT_KEY_ERRORS = {
    "naming no generator": ('{"[1, 0]": 3, "[0, 1]": 2, "[1, 1]": 5}', (1, 1)),
    "with a boolean entry": ('{"[true, 0]": 7, "[0, 1]": 2}', "[true, 0]"),
    "with a float entry": ('{"[1.0, 0]": 7, "[1, 0]": 3, "[0, 1]": 2}', "[1.0, 0]"),
    "naming a generator twice": ('{"[1, 0]": 3, "[0,1]": 2, "[0, 1]": 4}', "[0, 1]"),
    "not a list": ('{"5": 1, "[0, 1]": 2}', "5"),
    "a list of lists": ('{"[[1], [0]]": 1, "[0, 1]": 2}', "[[1], [0]]"),
    "of the wrong length": ('{"[1, 0, 0]": 3, "[0, 1]": 2}', "[1, 0, 0]"),
    "not JSON": ('{"[1, 0": 3, "[0, 1]": 2}', "[1, 0"),
}
N2_IDENTITY_MAP = explicit_map(*[(i, [[1, 0], [0, 1]]) for i in range(4)],
                               source=N2_FAN, target=N2_FAN)
SHAPE_ERRORS = {
    "hom matrix row too short": [
        "monoid", "pushout",
        "--theta", json.dumps({"matrix": [[]], "source": N1, "target": N1}),
        "--psi", json.dumps({"matrix": [[1]], "source": N1, "target": N1})],
    "hom matrix with too many rows": [
        "monoid", "pushout",
        "--theta", json.dumps({"matrix": [[1], [1]], "source": N1,
                               "target": N1}),
        "--psi", json.dumps({"matrix": [[1]], "source": N1, "target": N1})],
    "ragged ideal": [
        "campana", "mult", "--ideal", '{"vars":2,"generators":[[1]]}'],
    "negative ideal exponent": [
        "campana", "mult", "--ideal", '{"vars":2,"generators":[[1,-1]]}'],
    "ragged monoid generator": [
        "monoid", "saturate", "--monoid", '{"rank":2,"generators":[[1]]}'],
    "ragged monoid group": [
        "monoid", "saturate", "--monoid",
        '{"rank":2,"generators":[[1,0]],"group":[[1]]}'],
    "generator outside a zero group": [
        "monoid", "saturate", "--monoid",
        '{"rank":2,"generators":[[1,0]],"group":[[0,0]]}'],
    "fan ray too long": [
        "fan", "points", "--box", "1", "--fan",
        '{"ambient_rank":2,"cones":[{"rays":[[1,0,0],[0,1]]}]}'],
    "fan ray inside a cone, not on a face": [
        "fan", "points", "--box", "1", "--fan",
        '{"ambient_rank":2,"cones":[{"rays":[[1,0],[0,1]]},{"rays":[[1,1]]}]}'],
    "non-sharp fan cone": [
        "fan", "points", "--box", "1", "--fan",
        '{"ambient_rank":2,"cones":[{"rays":[[1,0],[-1,0]]}]}'],
    "query matrix row too long": [
        "firm", "check", "--problem", N1_PROBLEM, "--query",
        json.dumps({"point_monoid": N1, "matrix": [[2, 1]]})],
    "query matrix with too many rows": [
        "firm", "check", "--problem", N1_PROBLEM, "--query",
        json.dumps({"point_monoid": N1, "matrix": [[2], [1]]})],
    "too few map assignments": [
        "firmament", "member", "--point", "[1]",
        "--map", explicit_map((0, [[1]]))],
    "map target index out of range": [
        "firmament", "member", "--point", "[1]",
        "--map", explicit_map((0, [[0]]), (5, [[1]]))],
    "face matrix other than its maximal cone's": [
        "firmament", "member", "--point", "[2]", "--map",
        explicit_map((0, [[0, 0]]), (1, [[7, 7]]), (1, [[5, 5]]), (1, [[2, 2]]),
                     source=N2_FAN)],
    "map matrix with too many rows": [
        "firmament", "member", "--point", "[1]",
        "--map", explicit_map((0, [[0]]), (1, [[1], [1]]))],
    "member point too short": [
        "firmament", "member", "--point", "[1]", "--map", N2_IDENTITY_MAP],
    "member point too long": [
        "firmament", "member", "--point", "[1,2,3]", "--map", N2_IDENTITY_MAP],
    "contact vals too short": [
        "firmament", "contact", "--vals", "[1]",
        "--monoid", '{"rank":2,"generators":[[1,0],[0,1]]}'],
    "campana vals too short": [
        "campana", "member", "--vals", "[1]", "--m", "2",
        "--ideal", '{"vars":2,"generators":[[1,0]]}'],
    "campana vals too short inside the subscheme": [
        "campana", "member", "--vals", "[1]", "--m", "2", "--in-z",
        "--ideal", '{"vars":2,"generators":[[1,2]]}'],
    "negative fan scale": [
        "fan", "points", "--box", "2", "--fan",
        '{"ambient_rank":2,"scale":-1,"cones":[{"rays":[[1,0],[0,1]]}]}'],
    "zero fan scale": [
        "fan", "points", "--box", "2", "--fan",
        '{"ambient_rank":2,"scale":0,"cones":[{"rays":[[1,0],[0,1]]}]}'],
    "ragged lift matrix": ["lift", "primes", "--matrix", "[[1,2],[3]]"],
    "subdivide vector too long": [
        "fan", "subdivide", "--vector", "[1,1,1]",
        "--fan", '{"ambient_rank":2,"cones":[{"rays":[[1,0],[0,1]]}]}'],
    "boolean subdivide vector": [
        "fan", "subdivide", "--vector", "[true,true]",
        "--fan", '{"ambient_rank":2,"cones":[{"rays":[[1,0],[0,1]]}]}'],
    "boolean lift chart": [
        "lift", "solve", "--chart", "[[true]]", "--vals", "[1]"],
    "boolean lift vals": ["lift", "solve", "--chart", "[[1]]", "--vals", "[true]"],
    "lift chart as an object": [
        "lift", "solve", "--chart", '{"matrix":[[1]]}', "--vals", "[1]"],
    "boolean monoid generator": [
        "monoid", "saturate", "--monoid", '{"rank":1,"generators":[[true]]}'],
    "boolean monoid rank": [
        "monoid", "saturate", "--monoid", '{"rank":true,"generators":[[1]]}'],
    "negative monoid rank": [
        "monoid", "saturate", "--monoid", '{"rank":-2,"generators":[]}'],
    "negative sigma-n level": ["fan", "sigma-n", "--rank", "2", "--n", "-3"],
    "negative sigma-n rank": ["fan", "sigma-n", "--rank", "-1", "--n", "2"],
    "zero sigma-n rank": ["fan", "sigma-n", "--rank", "0", "--n", "2"],
    "boolean ideal vars": [
        "campana", "mult", "--ideal", '{"vars":true,"generators":[[1]]}'],
    "boolean fan rank": [
        "fan", "points", "--box", "1", "--fan",
        '{"ambient_rank":true,"cones":[{"rays":[[1]]}]}'],
    "boolean fan scale": [
        "fan", "points", "--box", "1", "--fan",
        '{"ambient_rank":2,"scale":true,"cones":[{"rays":[[1,0],[0,1]]}]}'],
    "negative points box": [
        "fan", "points", "--box", "-1", "--fan", json.dumps(N2_FAN)],
    "negative svg box": [
        "firmament", "svg", "--box", "-1", "-o", os.devnull,
        "--map", N2_IDENTITY_MAP],
    "boolean contact value": [
        "firmament", "contact", "--vals", '{"[1, 0]": true, "[0, 1]": 1}',
        "--monoid", json.dumps(ORTHANT2)],
    "contact value missing": [
        "firmament", "contact", "--vals", '{"[1, 0]": 1}',
        "--monoid", json.dumps(ORTHANT2)],
    "boolean map target index": [
        "firmament", "member", "--point", "[4]",
        "--map", explicit_map((False, [[1, 1]]), (True, [[1, 1]]),
                              source={"ambient_rank": 2, "cones": [{"rays": [[1, 1]]}]})],
    **{f"contact key {name}": [
        "firmament", "contact", "--vals", vals, "--monoid", json.dumps(ORTHANT2)]
       for name, (vals, _) in CONTACT_KEY_ERRORS.items()},
    "non-sharp problem base": [
        "firm", "check", "--query", json.dumps({"point_monoid": N1,
                                                "matrix": [[1]]}),
        "--problem", json.dumps({"base": Z1, "components": [
            {"matrix": [[1]], "target": Z1}]})],
    "chart from another source": [
        "firm", "check", "--query", json.dumps({"point_monoid": N1,
                                                "matrix": [[1]]}),
        "--problem", json.dumps({"base": N1, "components": [
            {"matrix": [[1, 0]], "source": ORTHANT2, "target": N1}]})],
    "non-sharp point monoid": [
        "firm", "check", "--problem", N1_PROBLEM, "--query",
        json.dumps({"point_monoid": Z1, "matrix": [[1]]})],
    "negative bound": [
        "--bound", "-5", "firmament", "member", "--point", "[3]",
        "--map", json.dumps({"base": N1, "charts": [
            {"matrix": [[1], [1]], "target": ORTHANT2}]})],
    "chart source in another group": [
        "firm", "check", "--query", json.dumps({"point_monoid": N1,
                                                "matrix": [[1]]}),
        "--problem", json.dumps({"base": N1_EVEN, "components": [
            {"matrix": [[1]], "source": {**N1_EVEN, "group": [[1]]},
             "target": N1}]})],
    "firmament chart source in another group": [
        "firmament", "member", "--point", "[1]",
        "--map", json.dumps({"base": N1_EVEN, "charts": [
            {"matrix": [[1]], "source": {**N1_EVEN, "group": [[1]]},
             "target": N1}]})],
    "pushout source in another group": [
        "monoid", "pushout",
        "--theta", json.dumps({"matrix": [[1]], "source": N1_EVEN, "target": N1}),
        "--psi", json.dumps({"matrix": [[1]], "source": {**N1_EVEN, "group": [[1]]},
                             "target": N1})],
    "pushout legs from different sources": [
        "monoid", "pushout",
        "--theta", json.dumps({"matrix": [[2]], "source": N1, "target": N1}),
        "--psi", json.dumps({"matrix": [[1, 1]], "source": ORTHANT2,
                             "target": N1})],
}


class TestShapeValidation:
    @pytest.mark.parametrize("argv", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS)
    def test_bad_shape_exits_two(self, argv, capsys):
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert json.loads(out)["error"].startswith("ValueError")

    @pytest.mark.parametrize("case", CONTACT_KEY_ERRORS.values(), ids=CONTACT_KEY_ERRORS)
    def test_bad_contact_key_is_named(self, case, capsys):
        vals, key = case
        assert main(["firmament", "contact", "--vals", vals,
                     "--monoid", json.dumps(ORTHANT2)]) == 2
        assert f"vals key {key!r}" in json.loads(capsys.readouterr().out)["error"]

    def test_map_matrix_outside_target_cone(self, capsys):
        argv = ["firmament", "member", "--point", "[1]",
                "--map", explicit_map((0, [[0]]), (1, [[-1]]))]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["error"].startswith("InvalidMap")

    def test_maximal_cones_must_agree_on_a_shared_face(self, capsys):
        # the cones of (1,0), (1,1) and of (1,1), (0,1) send (1,1) to 1 and
        # to 2: no matrix of the ray (1,1) agrees with both
        source = {"ambient_rank": 2, "cones": [{"rays": [[1, 0], [1, 1]]},
                                               {"rays": [[1, 1], [0, 1]]}]}
        argv = ["firmament", "member", "--point", "[1]", "--map", explicit_map(
            (0, [[0, 0]]), (1, [[1, 1]]), (1, [[1, 1]]), (1, [[1, 0]]),
            (1, [[1, 0]]), (1, [[1, 0]]), source=source)]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == ("ValueError: the matrix of cone [[1, 1]] differs on its "
                         "rays from that of maximal cone [[0, 1], [1, 1]]")

    def test_valid_explicit_map(self):
        assert run(["firmament", "member", "--point", "[2,1]",
                    "--map", N2_IDENTITY_MAP]).payload == {"member": True}


# ---------------------------------------------------------------------------
# fuzzing the dispatcher: rank-consistent inputs of rank <= 2, plus junk

ENTRY = st.integers(-3, 3)
JUNK = st.recursive(
    st.none() | st.booleans() | ENTRY | st.text("ab[]{}", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["rank", "generators", "group", "matrix", "source",
                         "target", "cones", "rays", "ambient_rank", "vars",
                         "base", "charts", "components", "point_monoid"]),
        inner, max_size=3),
    max_leaves=6,
)
JUNK_TEXT = JUNK.map(json.dumps) | st.sampled_from(["{", "[1,", "{]", "[[]"])


def _vec(r, entry=ENTRY):
    return st.lists(entry, min_size=r, max_size=r)


def _mat(rows, cols, entry=ENTRY):
    return st.lists(_vec(cols, entry), min_size=rows, max_size=rows)


def _monoid(r):
    """N^r or a random monoid (often not sharp)."""
    orthant = {"rank": r, "generators": [[int(i == j) for j in range(r)]
                                         for i in range(r)]}
    gens = st.lists(_vec(r), max_size=3)
    return st.just(orthant) | st.fixed_dictionaries(
        {"rank": st.just(r), "generators": gens},
        optional={"group": st.lists(_vec(r), max_size=2)})


@st.composite
def _hom(draw, s, with_source=True):
    t = draw(st.integers(0, 2))
    entry = draw(st.sampled_from([st.integers(0, 3), ENTRY]))
    out = {"target": draw(_monoid(t)), "matrix": draw(_mat(t, s, entry))}
    if with_source:
        out["source"] = draw(_monoid(s))
    return out


def _fan(r):
    cone = st.fixed_dictionaries({"rays": st.lists(_vec(r), min_size=1, max_size=2)})
    return st.fixed_dictionaries(
        {"ambient_rank": st.just(r), "cones": st.lists(cone, min_size=1, max_size=2)},
        optional={"scale": st.integers(-1, 2)})


@st.composite
def _firmament(draw):
    r = draw(st.integers(0, 2))
    if draw(st.booleans()):
        charts = draw(st.lists(_hom(r, with_source=False), min_size=1, max_size=2))
        return {"base": draw(_monoid(r)), "charts": charts}
    t = draw(st.integers(1, 2))
    cone = st.fixed_dictionaries({"target": st.integers(-1, 4),
                                  "matrix": _mat(t, r)})
    return {"source": draw(_fan(r)), "target": draw(_fan(t)),
            "cones": draw(st.lists(cone, min_size=1, max_size=5))}


def _ideal(n):
    return st.fixed_dictionaries({"vars": st.just(n), "generators": st.lists(
        _vec(n, st.integers(-1, 3)), max_size=3)})


def _vals(n):
    """Valuations: usually n of them and nonnegative."""
    return _vec(n, st.integers(0, 3)) | st.lists(st.integers(-1, 3), max_size=3)


def _arg(valid):
    """A JSON argument: mostly drawn from ``valid``, sometimes junk."""
    text = valid.map(json.dumps)
    return st.one_of(text, text, text, JUNK_TEXT)


@st.composite
def _argv(draw):
    r = draw(st.integers(0, 2))
    kind = draw(st.sampled_from([
        "monoid", "pushout", "firm", "member", "contact", "svg", "subdivide",
        "refine", "points", "solve", "primes", "mult", "campana-member"]))
    if kind == "monoid":
        return ["monoid", draw(st.sampled_from(["saturate", "dual", "faces"])),
                "--monoid", draw(_arg(_monoid(r)))]
    if kind == "pushout":
        return ["monoid", "pushout", "--theta", draw(_arg(_hom(r))),
                "--psi", draw(_arg(_hom(r)))]
    if kind == "firm":
        t = draw(st.integers(0, 2))
        problem = st.fixed_dictionaries({
            "base": _monoid(r),
            "components": st.lists(_hom(r, with_source=False), min_size=1, max_size=2)})
        query = st.fixed_dictionaries({"point_monoid": _monoid(t),
                                       "matrix": _mat(t, r)})
        return ["firm", "check", "--problem", draw(_arg(problem)),
                "--query", draw(_arg(query)),
                "--method", draw(st.sampled_from(["factorization", "pushout"]))]
    if kind == "member":
        point = draw(_arg(st.lists(ENTRY, max_size=2)))
        suffix = draw(st.sampled_from(["", "@cone_1", "@0", "@x"]))
        return ["firmament", "member", "--map", draw(_arg(_firmament())),
                "--point", point + suffix]
    if kind == "contact":
        return ["firmament", "contact", "--monoid", draw(_arg(_monoid(r))),
                "--vals", draw(_arg(_vals(draw(st.integers(0, 4)))))]
    if kind == "svg":
        return ["firmament", "svg", "--map", draw(_arg(_firmament())),
                "--box", str(draw(st.integers(0, 2))), "-o", os.devnull]
    if kind == "subdivide":
        return ["fan", "subdivide", "--fan", draw(_arg(_fan(r))),
                "--vector", draw(_arg(st.lists(ENTRY, max_size=3)))]
    if kind == "refine":
        return ["fan", "refine", "--first", draw(_arg(_fan(r))),
                "--second", draw(_arg(_fan(r)))]
    if kind == "points":
        return ["fan", "points", "--fan", draw(_arg(_fan(r))),
                "--box", str(draw(st.integers(0, 2)))]
    if kind == "solve":
        n = draw(st.integers(1, 2))
        return ["lift", "solve", "--chart", draw(_arg(_mat(n, r, st.integers(-1, 3)))),
                "--vals", draw(_arg(_vals(n)))]
    if kind == "primes":
        return ["lift", "primes", "--matrix", draw(_arg(_mat(draw(st.integers(0, 2)), r)))]
    ideal = draw(_arg(_ideal(r)))
    if kind == "mult":
        return ["campana", "mult", "--ideal", ideal] + draw(
            st.sampled_from([[], ["--variants"]]))
    return ["campana", "member", "--ideal", ideal,
            "--vals", draw(_arg(_vals(r))),
            "--m", str(draw(st.integers(0, 3)))] + draw(
                st.sampled_from([[], ["--in-z"]]))


def _main_stdout(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


class TestDispatchFuzz:
    # about 2 s; far fewer examples seldom reach an explicit map or a zero
    # ideal that gets past the earlier input checks
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 5000), _argv())
    @example(1, ["lift", "primes", "--matrix", '[[false], ""]'])
    def test_exit_code_json_and_repeatable(self, bound, argv):
        argv = ["--bound", str(bound)] + argv
        code, out = _main_stdout(argv)
        assert code in (0, 1, 2, 3)
        json.loads(out)
        assert _main_stdout(argv) == (code, out)
