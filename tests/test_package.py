import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polycech
from polycech import exact_linalg

# the package's public names, by home module, as they were when
# ``import polycech`` still imported every module
EXPORTS = {
    "exact_linalg": [
        "GF", "QQ", "ZZ", "CoefficientRing", "Contraction", "FreeChainComplex",
        "HomologyResult", "InvalidComplex", "Matrix", "NonNilpotent", "SignedGather",
        "TorsionObstruction", "Transferred", "complex_homology", "contraction",
        "invariant_factors", "perturb_transfer", "smith_normal_form",
    ],
    "polytope": [
        "DuplicateVertex", "EhrhartPolynomial", "Face", "FaceLattice", "LatticePolytope",
        "NotFullDimensional", "NotUnimodular", "TooLarge", "ehrhart_polynomial", "face_lattice",
        "facets_from_vertices", "lattice_points", "np_index", "standard_simplex",
    ],
    "orientation": ["IncidenceSystem", "incidence_numbers"],
    "sheaf_complexes": [
        "InvalidMonomial", "NonSquareZero", "NotChainMap", "TwistComplex", "bundle_tensor",
        "cone", "direct_sum", "line_bundle", "make_twist_complex", "suspend", "twist",
        "validate",
    ],
    "cech": [
        "CechResult", "CechTransfer", "ColumnComplex", "SupportEscapesBox",
        "SupportTable", "WindowMismatch", "acyclicity_window", "cech_homology",
        "column_complex", "con_vs_bundle_check", "constant_diagram_cech",
        "euler_characteristic", "hk_acyclic", "line_bundle_cohomology",
        "simplex_cone_check", "splitting_matrix", "support_table",
    ],
}


def test_export_surface():
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == len(set(names)) == 63
    assert sorted(polycech.__all__) == sorted(names)
    listed = dir(polycech)
    for module, group in EXPORTS.items():
        home = importlib.import_module(f"polycech.{module}")
        for name in group:
            assert getattr(polycech, name) is getattr(home, name), name
            assert name in listed, name
    star: dict = {}
    exec("from polycech import *", star)
    assert all(star[name] is getattr(polycech, name) for name in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        polycech.no_such_name
    # one elimination routine, defined beside its polytope callers: the
    # integer kernel neither imports it nor loads the polytope module
    assert not hasattr(exact_linalg, "row_echelon")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", "import sys, polycech.exact_linalg; "
                           "print('polycech.polytope' in sys.modules)"],
                          capture_output=True, text=True, env=env)
    assert proc.stdout == "False\n", proc.stderr


def test_every_definition_has_a_reader():
    # each public function, class and method of the package is read: as a
    # name or attribute in src/ outside its own definition, as a word in the
    # benchmark or the CI workflows, or as an export. A name that collides
    # with another counts as read, so the guard is lenient
    root = Path(__file__).resolve().parent.parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "polycech").glob("*.py"))}
    definitions = []  # (qualified name, name, path, first line, last line)
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            definitions.append((node.name, node.name, path, node.lineno, node.end_lineno))
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    definitions.append((f"{node.name}.{item.name}", item.name, path,
                                        item.lineno, item.end_lineno))
    reads: dict[str, list] = {}  # name -> [(path, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    words = set()
    for path in [*(root / "bench").glob("*.py"), *(root / ".github" / "workflows").glob("*.yml")]:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unread = [qual for qual, name, path, first, last in definitions
              if name not in words and name not in polycech.__all__
              and all(p == path and first <= line <= last for p, line in reads.get(name, ()))]
    assert unread == []
