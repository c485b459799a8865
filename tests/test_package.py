import importlib
import os
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
        "NotFullDimensional", "TooLarge", "cone_membership", "ehrhart_polynomial",
        "face_lattice", "facets_from_vertices", "lattice_points", "np_index",
        "standard_simplex",
    ],
    "orientation": ["IncidenceSystem", "incidence_numbers"],
    "sheaf_complexes": [
        "InvalidMonomial", "NonSquareZero", "NotChainMap", "TwistComplex", "bundle_tensor",
        "cone", "direct_sum", "line_bundle", "make_twist_complex", "suspend", "twist",
        "validate",
    ],
    "cech": [
        "CechResult", "CechTransfer", "ColumnComplex", "NotUnimodular", "SupportEscapesBox",
        "SupportTable", "WindowMismatch", "acyclicity_window", "cech_homology",
        "column_complex", "con_vs_bundle_check", "constant_diagram_cech",
        "euler_characteristic", "hk_acyclic", "line_bundle_cohomology",
        "simplex_cone_check", "splitting_matrix", "support_table",
    ],
}


def test_export_surface():
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == len(set(names)) == 64
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
