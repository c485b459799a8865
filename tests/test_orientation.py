import pytest

from polycech.cech import CechContext, constant_diagram_cech
from polycech.exact_linalg import ZZ, FreeChainComplex, GF, Matrix
from polycech.orientation import (
    IncidenceSystem,
    _check_boundary_squares_to_zero,
    incidence_numbers,
)
from polycech.polytope import face_lattice

from helpers import sample_polytopes

SAMPLES = sample_polytopes()


def test_interval_endpoint_signs_are_opposite():
    L = face_lattice(SAMPLES["interval"])
    inc = incidence_numbers(L)
    top = L.top().index
    signs = sorted(inc.sign(f.index, top) for f in L.by_dim[0])
    assert signs == [-1, 1]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_boundary_squares_to_zero(name):
    L = face_lattice(SAMPLES[name])
    inc = incidence_numbers(L)
    for top in L.faces:
        if top.dim < 2:
            continue
        for bottom in L.by_dim[top.dim - 2]:
            if not L.contains(bottom, top):
                continue
            middles = [f for f in L.by_dim[top.dim - 1]
                       if L.contains(bottom, f) and L.contains(f, top)]
            assert len(middles) == 2  # the diamond property
            total = sum(inc.sign(bottom.index, f.index) * inc.sign(f.index, top.index)
                        for f in middles)
            assert total == 0


def test_boundary_check_fires_on_a_flipped_sign():
    L = face_lattice(SAMPLES["square"])
    (pair, sign), *rest = incidence_numbers(L).numbers
    flipped = IncidenceSystem(((pair, -sign), *rest))
    with pytest.raises(AssertionError, match="square to zero"):
        _check_boundary_squares_to_zero(L, flipped)


def test_codim_one_pairs_all_signed():
    L = face_lattice(SAMPLES["cube"])
    inc = incidence_numbers(L)
    for g in L.faces:
        if g.dim == 0:
            continue
        for f in L.by_dim[g.dim - 1]:
            if L.contains(f, g):
                assert inc.sign(f.index, g.index) in (-1, 1)
            else:
                assert inc.sign(f.index, g.index) == 0


@pytest.mark.parametrize("name", ["interval", "simplex2", "square", "simplex3"])
def test_cellular_homology_of_constant_diagram(name):
    P = SAMPLES[name]
    unit = FreeChainComplex.from_dicts({0: 1}, {})
    h = constant_diagram_cech(P, unit, ZZ).homology
    assert h.as_dict() == {P.dim: (1, ())}


@pytest.mark.parametrize("name", ["interval", "simplex2", "square"])
def test_orientation_choice_does_not_change_homology(name):
    P = SAMPLES[name]
    normal = CechContext(P)
    reversed_ctx = CechContext(P, reverse_orientation=True)
    for k in range(-3, 4):
        a = normal.line_bundle_cohomology(k, ZZ).homology
        b = reversed_ctx.line_bundle_cohomology(k, ZZ).homology
        assert a == b
    C = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])})
    assert (normal.constant_diagram_cech(C, ZZ).homology
            == reversed_ctx.constant_diagram_cech(C, ZZ).homology)
    assert (normal.constant_diagram_cech(C, GF(2)).homology
            == reversed_ctx.constant_diagram_cech(C, GF(2)).homology)
