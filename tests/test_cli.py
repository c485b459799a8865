import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polycech import cech as cech_mod
from polycech import cli as cli_mod
from polycech import polytope as polytope_mod
from polycech.cli import (
    canonical_dumps,
    complex_document,
    main,
    parse_complex_document,
    parse_polytope_document,
    verify_suite,
)
from polycech.polytope import facets_from_vertices, standard_simplex

from helpers import sample_polytopes

SAMPLES = sample_polytopes()


@pytest.fixture
def docs(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return str(p)

    write("d2.json", {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]})
    write("iv.json", {"dim": 1, "vertices": [[0], [1]]})
    write("sq.json", {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]})
    write("cone.json", {
        "min_level": 0,
        "levels": [[1], [0]],
        "differentials": [
            {"from": 1, "entries": [{"row": 0, "col": 0, "terms": [{"c": "1", "u": [0]}]}]}
        ],
    })
    write("badpoly.json", {"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]})
    write("badjson.json", None)
    (tmp_path / "badjson.json").write_text("{not json")
    return paths


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_ehrhart_output(docs, capsys):
    code, out = run(["ehrhart", docs["d2.json"]], capsys)
    assert code == 0
    assert json.loads(out) == {"coeffs": ["1", "3/2", "1/2"], "np": 2,
                               "integral_roots": [-2, -1]}


def test_cohomology_output(docs, capsys):
    code, out = run(["cohomology", docs["d2.json"], "--twist", "-3", "--ring", "Z"], capsys)
    assert code == 0
    assert json.loads(out) == [{"degree": 0, "free_rank": 1, "torsion": []}]
    code, out = run(["cohomology", docs["d2.json"], "--twist", "-1", "--ring", "Fp:5"], capsys)
    assert code == 0
    assert json.loads(out) == []


PYRAMID_DOC = {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]}


def test_splitting_output(docs, capsys, tmp_path):
    code, out = run(["splitting", docs["iv.json"]], capsys)
    assert code == 0
    assert json.loads(out) == {"matrix": [[-1, 0], [-2, -1]], "det": 1, "unimodular": True}
    # the square pyramid's determinant is -1, byte for byte
    pyramid = tmp_path / "pyramid.json"
    pyramid.write_text(json.dumps(PYRAMID_DOC))
    code, out = run(["splitting", str(pyramid)], capsys)
    assert code == 0
    assert out == '{"det":-1,"matrix":[[-1,0,0],[-5,-1,0],[-14,-5,-1]],"unimodular":true}\n'


def test_splitting_command_agrees_with_the_context(capsys, tmp_path):
    # the command reads the rows off the Ehrhart data alone, the context
    # off its own; the pyramid's determinant is -1
    shapes = {name: {"dim": P.dim, "vertices": [list(v) for v in P.vertices]}
              for name, P in SAMPLES.items()}
    for name, doc in {**shapes, "pyramid": PYRAMID_DOC}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        M = cech_mod.splitting_matrix(parse_polytope_document(doc, name))
        det = 1
        for j in range(M.rows):
            det *= M[j, j]
        code, out = run(["splitting", str(path)], capsys)
        assert (code, json.loads(out)) == (0, {"matrix": [list(r) for r in M.data], "det": det,
                                               "unimodular": True}), name


def test_np_and_points(docs, capsys):
    code, out = run(["np", docs["sq.json"]], capsys)
    assert code == 0 and json.loads(out) == {"np": 1}
    code, out = run(["points", docs["sq.json"], "--dilate", "2", "--interior"], capsys)
    assert code == 0
    assert json.loads(out) == {"count": 1, "points": [[1, 1]]}
    code, out = run(["points", docs["sq.json"], "--dilate", "-1"], capsys)
    assert code == 2


def test_points_over_budget_exit_2(docs, capsys, monkeypatch):
    # 4 504 501 points in the triangle's 3000-fold dilate: refused from the count
    code, out = run(["points", docs["d2.json"], "--dilate", "3000"], capsys)
    assert code == 2 and json.loads(out)["code"] == "too_large"
    assert out.count("\n") == 1
    monkeypatch.setattr(cli_mod, "POINTS_BUDGET", 9)
    # k*square holds (k+1)^2 points and (k-1)^2 interior ones, for k and -k
    for args, expected in [(["--dilate", "2"], 9), (["--dilate", "3"], None),
                           (["--dilate", "4", "--interior"], 9),
                           (["--dilate", "-4", "--interior"], 9),
                           (["--dilate", "5", "--interior"], None),
                           (["--dilate", "-5", "--interior"], None)]:
        code, out = run(["points", docs["sq.json"]] + args, capsys)
        if expected is None:
            assert code == 2 and json.loads(out)["code"] == "too_large", args
        else:
            assert code == 0 and json.loads(out)["count"] == expected, args
    monkeypatch.setattr(cli_mod, "POINTS_BUDGET", 0)
    code, out = run(["points", docs["sq.json"], "--dilate", "-1"], capsys)
    assert code == 2 and json.loads(out)["code"] == "bad_dilate"


def test_cech_supports_over_budget_exit_2(docs, capsys, monkeypatch, tmp_path):
    def complex_path(name, levels):
        path = tmp_path / name
        path.write_text(json.dumps({"min_level": 0, "levels": levels, "differentials": []}))
        return str(path)

    default = cli_mod.POINTS_BUDGET
    monkeypatch.setattr(cli_mod, "POINTS_BUDGET", 9)
    # O(k) on the square is supported on (k+1)^2 points, O(-k) on (k-1)^2
    for levels, ok in [([[2]], True), ([[3]], False), ([[-4]], True), ([[-5]], False),
                       ([[1, -3]], True), ([[1], [2]], False)]:
        cx = complex_path("cx.json", levels)
        code, out = run(["cech", docs["sq.json"], cx], capsys)
        if ok:
            assert code == 0, levels
        else:
            doc = json.loads(out)
            assert code == 2 and (doc["code"], doc["location"]) == ("too_large", cx), levels
            assert out.count("\n") == 1
    # about 5*10^9 support points at the default budget, refused from the count
    monkeypatch.setattr(cli_mod, "POINTS_BUDGET", default)
    for k in (100000, -100000):
        code, out = run(["cech", docs["d2.json"], complex_path("big.json", [[k]])], capsys)
        assert code == 2 and json.loads(out)["code"] == "too_large", k


def test_scan_box_over_budget_exit_2(docs, capsys, monkeypatch):
    default = cli_mod.POINTS_BUDGET
    monkeypatch.setattr(cli_mod, "POINTS_BUDGET", 16)
    # the square's scan box at twist k holds (|k| + 3)^2 multidegrees, and
    # verify scans 2*kmax + 1 twists: 3 * 16 multidegrees at kmax 1
    for args, ok in [(["cohomology", "--twist", "1"], True),
                     (["cohomology", "--twist", "-1", "--ring", "Q"], True),
                     (["cohomology", "--twist", "2"], False),
                     (["cohomology", "--twist", "-2", "--ring", "Fp:3"], False),
                     (["verify", "--kmax", "0"], True),
                     (["verify", "--kmax", "1"], False)]:
        code, out = run([args[0], docs["sq.json"]] + args[1:], capsys)
        if ok:
            assert code == 0, args
        else:
            assert code == 2 and json.loads(out)["code"] == "too_large", args
            assert out.count("\n") == 1
    # the interval's box at twist 40 holds 43 multidegrees, its 81 scans 3483
    monkeypatch.setattr(cli_mod, "POINTS_BUDGET", 2000)
    code, out = run(["verify", docs["iv.json"], "--kmax", "40"], capsys)
    doc = json.loads(out)
    assert code == 2 and (doc["code"], doc["location"]) == ("too_large", "--kmax")
    assert "3483" in doc["message"]
    # refused before any scan: about 10^10 multidegrees at the default budget
    monkeypatch.setattr(cli_mod, "POINTS_BUDGET", default)
    for args in (["cohomology", docs["d2.json"], "--twist", "100000"],
                 ["verify", docs["d2.json"], "--kmax", "3000"]):
        code, out = run(args, capsys)
        assert code == 2 and json.loads(out)["code"] == "too_large", args


def test_scan_box_refused_without_a_context(capsys, monkeypatch, tmp_path):
    # the box is read off the vertices: refusing it computes no face
    # lattice, incidence signs or Ehrhart data
    tri = tmp_path / "tri300.json"
    tri.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [300, 0], [0, 300]]}))

    def refuse(*args, **kwargs):
        raise AssertionError("context built")

    monkeypatch.setattr(cech_mod, "context", refuse)
    for args in (["cohomology", str(tri), "--twist", "100"],
                 ["verify", str(tri), "--kmax", "100"]):
        code, out = run(args, capsys)
        doc = json.loads(out)
        assert code == 2 and (doc["code"], doc["location"]) == ("too_large", args[2]), args


def ehrhart_commands(polytope, cx):
    """Every command that interpolates the Ehrhart polynomial."""
    return [["points", polytope, "--dilate", "0"], ["ehrhart", polytope], ["np", polytope],
            ["chi", polytope, cx], ["splitting", polytope],
            ["cohomology", polytope, "--twist", "0"], ["verify", polytope, "--kmax", "0"],
            ["cech", polytope, cx]]


def test_large_volume_refused_before_any_enumeration(capsys, monkeypatch, tmp_path):
    # 3P for the triangle of side 10^6 spans a box of (3*10^6 + 1)^2 points
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [10 ** 6, 0], [0, 10 ** 6]]}))
    cx = tmp_path / "o0.json"
    cx.write_text(json.dumps({"min_level": 0, "levels": [[0]], "differentials": []}))

    def refuse(*args, **kwargs):
        raise AssertionError("lattice points enumerated")

    for module in (polytope_mod, cli_mod, cech_mod):
        monkeypatch.setattr(module, "lattice_points", refuse)
    for args in ehrhart_commands(str(big), str(cx)):
        code, out = run(args, capsys)
        doc = json.loads(out)
        assert code == 2 and (doc["code"], doc["location"]) == ("too_large", str(big)), args
    code, out = run(["faces", str(big)], capsys)
    assert code == 0 and json.loads(out)["f_vector"] == [3, 3, 1]


def test_ehrhart_box_budget_on_the_square(docs, capsys, monkeypatch, tmp_path):
    # 3 * square spans a box of 4^2 points
    cx = tmp_path / "o0.json"
    cx.write_text(json.dumps({"min_level": 0, "levels": [[0]], "differentials": []}))
    for budget, refused in ((15, True), (16, False)):
        monkeypatch.setattr(cli_mod, "EHRHART_BUDGET", budget)
        for args in ehrhart_commands(docs["sq.json"], str(cx)):
            code, out = run(args, capsys)
            if refused:
                assert code == 2 and json.loads(out)["code"] == "too_large", args
                assert out.count("\n") == 1
            else:
                assert code == 0, args


def test_face_lattice_over_budget_exit_2(capsys, monkeypatch, tmp_path):
    # the cube has 27 faces and 6 facets; a fresh context cache makes
    # `cohomology` build its face lattice here
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(
        {"dim": 3, "vertices": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}))
    monkeypatch.setattr(polytope_mod, "FACE_LATTICE_BUDGET", 27 * 6 - 1)
    monkeypatch.setattr(cech_mod, "_context_cache", {})
    for args in (["faces", str(cube)], ["cohomology", str(cube), "--twist", "1"]):
        code, out = run(args, capsys)
        doc = json.loads(out)
        assert code == 2 and (doc["code"], doc["location"]) == ("too_large", str(cube)), args
        assert out.count("\n") == 1
    # the 12-cross-polytope: 531 440 faces and 4096 facets at the default
    # budget; the 16- and 20-cross-polytopes are refused while their facets
    # are enumerated, at the polytope's path too
    monkeypatch.undo()
    for n in (12, 16, 20):
        cross = tmp_path / f"cross{n}.json"
        cross.write_text(json.dumps({"dim": n, "vertices": [
            [s * (i == j) for j in range(n)] for i in range(n) for s in (1, -1)]}))
        code, out = run(["faces", str(cross)], capsys)
        doc = json.loads(out)
        assert code == 2 and (doc["code"], doc["location"]) == ("too_large", str(cross)), n


def test_faces_output(docs, capsys):
    code, out = run(["faces", docs["d2.json"]], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [3, 3, 1]
    assert len(payload["faces"]) == 7


def test_cech_and_chi(docs, capsys):
    code, out = run(["cech", docs["iv.json"], docs["cone.json"]], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["homology"] == [{"degree": 1, "free_rank": 1, "torsion": []}]
    assert payload["active_multidegrees"] == 3
    code, out = run(["chi", docs["iv.json"], docs["cone.json"]], capsys)
    assert code == 0 and json.loads(out) == {"chi": -1}


def test_cech_of_a_cone_by_a_large_prime(docs, capsys, tmp_path):
    # O(0) -> O(0) by p: its torsion is merged without factoring p
    p = 999999999999999989
    doc = tmp_path / "prime_cone.json"
    doc.write_text(json.dumps({
        "min_level": 0,
        "levels": [[0], [0]],
        "differentials": [
            {"from": 1, "entries": [{"row": 0, "col": 0, "terms": [{"c": str(p), "u": [0]}]}]}
        ],
    }))
    code, out = run(["cech", docs["iv.json"], str(doc)], capsys)
    assert code == 0
    assert f'"torsion":[{p}]' in out


def test_verify_passes(docs, capsys):
    code, out = run(["verify", docs["d2.json"], "--kmax", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = [item["name"] for item in payload["results"]]
    assert "simplex_cone_identity" in names  # d2 is a standard simplex
    assert all(item["pass"] for item in payload["results"])
    code, out = run(["verify", docs["sq.json"], "--kmax", "3"], capsys)
    assert code == 0
    names = [item["name"] for item in json.loads(out)["results"]]
    assert "simplex_cone_identity" not in names


def _one_interior_point_too_many(monkeypatch):
    real = cli_mod.lattice_points
    monkeypatch.setattr(cli_mod, "lattice_points", lambda P, k, interior=False:
                        real(P, k, interior) + (((9, 9),) if interior else ()))


def _tensor_with_o1(monkeypatch):
    real = cech_mod.bundle_tensor
    monkeypatch.setattr(cech_mod, "bundle_tensor", lambda k, C, dim: real(k + 1, C, dim))


def _cone_as_its_target(monkeypatch):
    monkeypatch.setattr(cech_mod, "cone", lambda f, source, target: target)


def _e_of_0_is_2(monkeypatch):
    # chi(O(0)) = E(0) on the triangle; no other item reads E(0)
    real = polytope_mod.EhrhartPolynomial.__call__
    monkeypatch.setattr(polytope_mod.EhrhartPolynomial, "__call__",
                        lambda e, x: 2 if x == 0 else real(e, x))


@pytest.mark.parametrize("name,corrupt,detail", [
    ("ehrhart_reciprocity", _one_interior_point_too_many, "AssertionError: k=1: 0 != 1"),
    ("constant_vs_twisted_unit", _tensor_with_o1,
     "AssertionError: constant diagram gave {2: (1, ())}, O(0) tensor C gave {2: (3, ())}"),
    ("simplex_cone_identity", _cone_as_its_target,
     "AssertionError: cone of O(0) -> O(1) gave {2: (3, ())}, "
     "shifted O(1) on the 1-simplex gave {2: (2, ())}"),
    ("splitting_matrix_unimodular", _e_of_0_is_2,
     "NotUnimodular: diagonal entry (0, 0) is 2, not 1"),
], ids=["reciprocity", "con_vs_bundle", "simplex_cone", "splitting"])
def test_verify_reports_a_failed_check(docs, capsys, monkeypatch, name, corrupt, detail):
    # each corruption reaches one item's input only; that item alone fails,
    # with the exception it raised, and verify exits 1
    corrupt(monkeypatch)
    code, out = run(["verify", docs["d2.json"], "--kmax", "1"], capsys)
    assert code == 1 and out.count("\n") == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [item for item in payload["results"] if not item["pass"]] == [
        {"name": name, "pass": False, "detail": detail}]


def test_input_errors_exit_2(docs, tmp_path, capsys):
    code, out = run(["ehrhart", docs["badpoly.json"]], capsys)
    assert code == 2
    err = json.loads(out)
    assert err["code"] == "bad_polytope" and "location" in err and "message" in err
    assert out.count("\n") == 1  # single line
    code, out = run(["ehrhart", docs["badjson.json"]], capsys)
    assert code == 2 and json.loads(out)["code"] == "bad_json"
    code, out = run(["ehrhart", str(docs["d2.json"]) + ".missing"], capsys)
    assert code == 2 and json.loads(out)["code"] == "missing_file"
    # a composite modulus, a prime too large to test by trial division, and
    # moduli that are not plain ASCII digits (int() reads all but the last)
    for ring in ("Fp:4", "Fp:2305843009213693951", "Fp:1_1", "Fp: 3", "Fp:+3",
                 "Fp:\u0663", "Fp:"):
        code, out = run(["cohomology", docs["d2.json"], "--twist", "1", "--ring", ring], capsys)
        assert code == 2 and json.loads(out)["code"] == "bad_ring"
    # a negative twist bound would leave the closed-form check with no twist
    code, out = run(["verify", docs["d2.json"], "--kmax", "-3"], capsys)
    assert code == 2 and json.loads(out)["code"] == "bad_kmax"
    # JSON booleans are not integers; then documents of the wrong shape, and
    # points whose vertex list is not the one empty vector
    for name, doc, expected in [
        ("booldim.json", {"dim": True, "vertices": [[0], [1]]}, "bad_dim"),
        ("boolvert.json", {"dim": 1, "vertices": [[0], [True]]}, "bad_vertices"),
        ("array.json", [[0], [1]], "bad_document"),
        ("novertices.json", {"dim": 1}, "missing_key"),
        ("extrakey.json", {"dim": 1, "vertices": [[0], [1]], "name": "iv"}, "unknown_key"),
        ("shortvertex.json", {"dim": 2, "vertices": [[0, 0], [1], [0, 1]]}, "bad_vertices"),
        ("novertex.json", {"dim": 0, "vertices": []}, "bad_polytope"),
        ("threepoints.json", {"dim": 0, "vertices": [[], [], []]}, "bad_polytope"),
    ]:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        for command in ("faces", "np"):
            code, out = run([command, str(path)], capsys)
            assert code == 2 and json.loads(out)["code"] == expected, (name, command)
            assert out.count("\n") == 1


def test_point_document_is_the_standard_point(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"dim": 0, "vertices": [[]]}))
    assert run(["faces", str(path)], capsys) == (
        0, '{"f_vector":[1],"faces":[{"dim":0,"id":0,"tight_facets":[],"vertices":[0]}]}\n')
    names = ("ehrhart_reciprocity", "incidence_boundary_squares_to_zero",
             "line_bundle_closed_form", "acyclicity_window", "constant_vs_twisted_unit",
             "splitting_matrix_unimodular")
    assert run(["verify", str(path), "--kmax", "2"], capsys) == (
        0, canonical_dumps({"ok": True, "results": [{"name": n, "pass": True} for n in names]})
        + "\n")


@pytest.mark.parametrize("write,expected", [
    (lambda path: path.write_text("[" * 10 ** 5 + "]" * 10 ** 5), "bad_json"),
    (lambda path: path.write_bytes(b'{"dim": 1, "vertices": [[0], [1]]}\xff'), "bad_json"),
    (lambda path: path.mkdir(), "missing_file"),
], ids=["nested", "not_utf8", "directory"])
def test_unreadable_input_exit_2(docs, write, expected, tmp_path, capsys):
    path = tmp_path / "unreadable.json"
    write(path)
    for args in (["faces", str(path)], ["cech", docs["d2.json"], str(path)]):
        code, out = run(args, capsys)
        assert code == 2 and out.count("\n") == 1, args
        doc = json.loads(out)
        assert (doc["code"], doc["location"]) == (expected, str(path)), args


@pytest.mark.parametrize("args", [
    ["verify", "d2.json", "--kmax", "x"],
    ["frobnicate", "d2.json"],
    ["cohomology", "d2.json"],
])
def test_malformed_arguments_exit_2(docs, args, capsys):
    args = [docs.get(a, a) for a in args]
    code, out = run(args, capsys)
    assert code == 2 and out.count("\n") == 1
    err = json.loads(out)
    assert err["code"] == "bad_args" and err["location"] == "<args>" and err["message"]


@pytest.mark.parametrize("args", [
    ["-h"],
    ["--help"],
    ["cohomology", "--help"],
    ["cech", "-h"],
    ["verify", "d2.json", "--help"],
])
def test_help_returns_0_after_the_usage(docs, args, capsys):
    # the usage of the command when one is named, else of every command;
    # main returns 0 to its caller instead of exiting the process
    args = [docs.get(a, a) for a in args]
    code, out = run(args, capsys)
    assert code == 0
    assert out.startswith("usage: polycech " + ("faces" if args[0][0] == "-" else args[0]))
    assert not any(line.startswith("{") for line in out.splitlines())  # no JSON payload


@pytest.mark.parametrize("args,expected", [
    (["cohomology", "d2.json", "--twist=-3"], '[{"degree":0,"free_rank":1,"torsion":[]}]\n'),
    (["cohomology", "d2.json", "--twist", "-3"], '[{"degree":0,"free_rank":1,"torsion":[]}]\n'),
    (["cohomology", "--twist", "-3", "--ring=Q", "d2.json"],
     '[{"degree":0,"free_rank":1,"torsion":[]}]\n'),
    (["points", "--interior", "sq.json", "--dilate=2"], '{"count":1,"points":[[1,1]]}\n'),
    (["points", "sq.json", "--dilate", "2", "--interior"], '{"count":1,"points":[[1,1]]}\n'),
], ids=["equals", "space", "option_first", "flag_first", "flag_last"])
def test_accepted_argument_forms(docs, args, expected, capsys):
    # the same bytes the argparse front end printed for each of these
    assert run([docs.get(a, a) for a in args], capsys) == (0, expected)


@pytest.mark.parametrize("args,named", [
    (["cohomology", "d2.json", "--twist", "1_0"], "--twist"),
    (["cohomology", "d2.json", "--twist", "\u0663"], "--twist"),
    (["cohomology", "d2.json", "--twist=+3"], "--twist"),
    (["cohomology", "d2.json", "--tw", "1"], "--tw"),
    (["points", "sq.json", "--dilate", "2", "--interior=1"], "--interior"),
    (["faces", "sq.json", "d2.json"], "d2.json"),
    (["faces", "sq.json", "--twist", "1"], "--twist"),
    (["cohomology", "d2.json", "--twist"], "--twist"),
    (["cohomology", "--twist", "1"], "polytope"),
    (["verify", "d2.json", "--kmax", "9" * 5000], "--kmax"),
    ([], "command"),
], ids=["underscore", "arabic_indic", "plus", "abbreviation", "flag_value", "extra_positional",
        "unknown_option", "no_value", "missing_positional", "too_many_digits", "no_command"])
def test_refused_argument_forms(docs, args, named, capsys):
    args = [docs.get(a, a) for a in args]
    code, out = run(args, capsys)
    err = json.loads(out)
    assert (code, err["code"], err["location"]) == (2, "bad_args", "<args>")
    assert named in err["message"] and out.count("\n") == 1


def test_negative_values_reach_the_command(docs, capsys):
    # a value may start with "-": verify's own check refuses a negative kmax
    for args in (["--kmax", "-1"], ["--kmax=-1"]):
        code, out = run(["verify", docs["d2.json"], *args], capsys)
        err = json.loads(out)
        assert (code, err["code"], err["location"]) == (2, "bad_kmax", "--kmax"), args


def test_invalid_complex_document_exit_2(docs, tmp_path, capsys):
    bad = tmp_path / "badcx.json"
    bad.write_text(json.dumps({
        "min_level": 0,
        "levels": [[1], [0]],
        "differentials": [
            {"from": 1, "entries": [{"row": 0, "col": 0, "terms": [{"c": "1", "u": [7]}]}]}
        ],
    }))
    code, out = run(["cech", docs["iv.json"], str(bad)], capsys)
    assert code == 2 and json.loads(out)["code"] == "bad_complex"
    # a JSON boolean in any integer field is rejected, not read as 0 or 1
    term = {"c": "1", "u": [0]}
    entry = {"row": 0, "col": 0, "terms": [term]}
    block = {"from": 1, "entries": [entry]}
    base = {"min_level": 0, "levels": [[1], [0]], "differentials": [block]}
    for doc, expected in [
        ({**base, "min_level": False}, "bad_level"),
        ({**base, "levels": [[1], [True]]}, "bad_levels"),
        ({**base, "differentials": [{**block, "from": True}]}, "bad_level"),
        ({**base, "differentials": [{**block, "entries": [{**entry, "row": False}]}]},
         "bad_entry"),
        ({**base, "differentials": [{**block, "entries": [
            {**entry, "terms": [{**term, "u": [False]}]}]}]}, "bad_monomial"),
        ({**base, "differentials": [{**block, "entries": [
            {**entry, "terms": [{**term, "c": True}]}]}]}, "bad_coefficient"),
    ] + [
        # differentials that are not a list, a level listed twice, and an
        # entry whose column is past its level
        ({**base, "differentials": 5}, "bad_differentials"),
        ({**base, "differentials": [block, block]}, "bad_differentials"),
        ({**base, "differentials": [{**block, "entries": [{**entry, "col": 1}]}]}, "bad_entry"),
    ] + [
        # not plain ASCII digits (int() reads the first four), or more
        # digits than int() converts
        ({**base, "differentials": [{**block, "entries": [
            {**entry, "terms": [{**term, "c": c}]}]}]}, "bad_coefficient")
        for c in ("1_0", " 3 ", "\u0663", "+1", "", "-", "9" * 5000)
    ]:
        bad.write_text(json.dumps(doc))
        code, out = run(["cech", docs["iv.json"], str(bad)], capsys)
        assert code == 2 and json.loads(out)["code"] == expected
        assert out.count("\n") == 1


@pytest.mark.parametrize("command", ["cech", "chi"])
def test_non_list_entries_and_terms_exit_2(docs, tmp_path, command, capsys):
    # each once crashed the parser with a TypeError traceback and exit 1
    entry = {"row": 0, "col": 0, "terms": [{"c": "1", "u": [0]}]}
    bad = tmp_path / "badcx.json"
    for doc, expected in [
        ({"from": 1, "entries": 7}, "bad_differentials"),
        ({"from": 1, "entries": None}, "bad_differentials"),
        ({"from": 1, "entries": {"0": entry}}, "bad_differentials"),
        ({"from": 1, "entries": [{**entry, "terms": 5}]}, "bad_entry"),
        ({"from": 1, "entries": [{**entry, "terms": None}]}, "bad_entry"),
        ({"from": 1, "entries": [{**entry, "terms": "1"}]}, "bad_entry"),
    ]:
        bad.write_text(json.dumps({"min_level": 0, "levels": [[1], [0]], "differentials": [doc]}))
        code, out = run([command, docs["iv.json"], str(bad)], capsys)
        assert code == 2 and json.loads(out)["code"] == expected
        assert out.count("\n") == 1


def test_byte_identical_reruns(docs, capsys):
    _, first = run(["verify", docs["d2.json"], "--kmax", "2"], capsys)
    _, second = run(["verify", docs["d2.json"], "--kmax", "2"], capsys)
    assert first == second
    _, a = run(["faces", docs["sq.json"]], capsys)
    _, b = run(["faces", docs["sq.json"]], capsys)
    assert a == b


def test_document_round_trip():
    obj = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}
    P = parse_polytope_document(json.loads(canonical_dumps(obj)), "<test>")
    assert P == facets_from_vertices(2, [(0, 0), (1, 0), (0, 1), (1, 1)])

    cx = {
        "min_level": -1,
        "levels": [[0, 1], [2]],
        "differentials": [
            {"from": 0, "entries": [
                {"row": 0, "col": 0, "terms": [{"c": 3, "u": [1, 0]}]},
                {"row": 1, "col": 0, "terms": [{"c": "-1", "u": [0, 1]}, {"c": "2", "u": [1, 0]}]},
            ]}
        ],
    }
    Y = parse_complex_document(cx, "<test>")
    canon = canonical_dumps(complex_document(Y))
    again = parse_complex_document(json.loads(canon), "<test>")
    assert canonical_dumps(complex_document(again)) == canon


def test_verify_suite_simplex3():
    report = verify_suite(standard_simplex(3), kmax=2)
    assert all(item["pass"] for item in report)
    with pytest.raises(ValueError):  # no twist to check
        verify_suite(standard_simplex(3), kmax=-3)


def child_python(*args):
    """Run a fresh interpreter with this checkout's src/ first on the path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point(docs):
    proc = child_python("-m", "polycech.cli", "ehrhart", docs["d2.json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"coeffs": ["1", "3/2", "1/2"], "np": 2,
                                       "integral_roots": [-2, -1]}


# what a cold ``import polycech.cli`` loads of the package; a command that
# needs only the polytope loads none of the homology modules either
POLYTOPE_ONLY = {"polycech", "polycech.cli", "polycech.polytope", "polycech.record"}
HOMOLOGY_MODULES = {"polycech.cech", "polycech.exact_linalg", "polycech.orientation",
                    "polycech.sheaf_complexes"}


@pytest.mark.parametrize("argv", [[], ["faces"], ["ehrhart"], ["np"], ["points", "--dilate", "2"],
                                  ["splitting"], ["cohomology", "--twist", "1"]],
                         ids=["import", "faces", "ehrhart", "np", "points", "splitting",
                              "cohomology"])
def test_cold_start_imports_neither_dataclasses_nor_inspect(docs, argv):
    # every command is a fresh process, which compiles each module it imports
    # when no bytecode cache is written; modules that site loaded before the
    # first line do not count. The modules are counted, not timed.
    if argv:
        argv = [argv[0], docs["d2.json"], *argv[1:]]
    proc = child_python("-c", "import sys; before = set(sys.modules); import polycech.cli; "
                              "code = polycech.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
                              "print(); print(*set(sys.modules) - before); sys.exit(code)",
                        *argv)
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.splitlines()[-1].split())
    loaded = {m for m in new if m.partition(".")[0] == "polycech"}
    homology = HOMOLOGY_MODULES if argv[:1] == ["cohomology"] else set()
    assert loaded == POLYTOPE_ONLY | homology
    # the command line is read by a table in cli, with no argparse
    assert not {"dataclasses", "inspect", "argparse"} & new
