import json

import pytest

from polycech import cli as cli_mod
from polycech.cli import (
    canonical_dumps,
    complex_document,
    main,
    parse_complex_document,
    parse_polytope_document,
    polytope_document,
    verify_suite,
)
from polycech.polytope import standard_simplex

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


def test_splitting_output(docs, capsys):
    code, out = run(["splitting", docs["iv.json"]], capsys)
    assert code == 0
    assert json.loads(out) == {"matrix": [[-1, 0], [-2, -1]], "det": 1, "unimodular": True}


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
    # a composite modulus, and a prime too large to test by trial division
    for ring in ("Fp:4", "Fp:2305843009213693951"):
        code, out = run(["cohomology", docs["d2.json"], "--twist", "1", "--ring", ring], capsys)
        assert code == 2 and json.loads(out)["code"] == "bad_ring"
    # a negative twist bound would leave the closed-form check with no twist
    code, out = run(["verify", docs["d2.json"], "--kmax", "-3"], capsys)
    assert code == 2 and json.loads(out)["code"] == "bad_kmax"
    # JSON booleans are not integers
    for name, doc, expected in [
        ("booldim.json", {"dim": True, "vertices": [[0], [1]]}, "bad_dim"),
        ("boolvert.json", {"dim": 1, "vertices": [[0], [True]]}, "bad_vertices"),
    ]:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        code, out = run(["np", str(path)], capsys)
        assert code == 2 and json.loads(out)["code"] == expected
        assert out.count("\n") == 1


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
    ]:
        bad.write_text(json.dumps(doc))
        code, out = run(["cech", docs["iv.json"], str(bad)], capsys)
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
    P = parse_polytope_document(obj, "<test>")
    canon = canonical_dumps(polytope_document(P))
    again = parse_polytope_document(json.loads(canon), "<test>")
    assert canonical_dumps(polytope_document(again)) == canon

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


def test_module_entry_point(docs):
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "polycech.cli", "ehrhart", docs["d2.json"]],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"coeffs": ["1", "3/2", "1/2"], "np": 2,
                                       "integral_roots": [-2, -1]}
