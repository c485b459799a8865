"""Exact Čech homology of line-bundle twists on lattice polytopes.

The public names are loaded on first use (PEP 562): ``import polycech``
imports no submodule, and reading a name imports only its home module and
what that module needs. A process compiles every module it imports when
no bytecode cache is written, so a command line process that needs only
the polytope pays for nothing else.
"""

from importlib import import_module

# home module -> the public names it exports
_EXPORTS = {
    "exact_linalg": "GF QQ ZZ CoefficientRing Contraction FreeChainComplex HomologyResult "
                    "InvalidComplex Matrix NonNilpotent SignedGather TorsionObstruction "
                    "Transferred complex_homology contraction invariant_factors "
                    "perturb_transfer smith_normal_form",
    "polytope": "DuplicateVertex EhrhartPolynomial Face FaceLattice LatticePolytope "
                "NotFullDimensional NotUnimodular TooLarge ehrhart_polynomial face_lattice "
                "facets_from_vertices lattice_points np_index standard_simplex",
    "orientation": "IncidenceSystem incidence_numbers",
    "sheaf_complexes": "InvalidMonomial NonSquareZero NotChainMap TwistComplex bundle_tensor "
                       "cone direct_sum line_bundle make_twist_complex suspend twist validate",
    "cech": "CechResult CechTransfer ColumnComplex SupportEscapesBox "
            "SupportTable WindowMismatch acyclicity_window cech_homology column_complex "
            "con_vs_bundle_check constant_diagram_cech euler_characteristic hk_acyclic "
            "line_bundle_cohomology simplex_cone_check splitting_matrix support_table",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads are plain global lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
