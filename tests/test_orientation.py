import random
from itertools import product

import pytest

from polycech import orientation
from polycech.cech import CechContext, constant_diagram_cech
from polycech.exact_linalg import ZZ, FreeChainComplex, GF, Matrix
from polycech.orientation import (
    DegenerateBasis,
    IncidenceSystem,
    _check_boundary_squares_to_zero,
    incidence_numbers,
)
from polycech.polytope import FaceLattice, face_lattice, facets_from_vertices

from helpers import incidence_signs_by_coordinates, sample_polytopes

SAMPLES = sample_polytopes()


def _unimodular_image(rng, verts):
    """Image under random shears, a signed coordinate permutation and a
    translation, vertices shuffled: a lattice symmetry that moves every
    coordinate minor of the face bases."""
    n = len(verts[0])
    pts = [list(v) for v in verts]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        for v in pts:
            v[i] += k * v[j]
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    shift = [rng.randint(-3, 3) for _ in range(n)]
    out = [tuple(signs[c] * v[perm[c]] + shift[c] for c in range(n)) for v in pts]
    rng.shuffle(out)
    return out


def _oracle_cases():
    cases = [(name, P) for name, P in sorted(SAMPLES.items())]
    shapes = {
        "cube": list(product((0, 1), repeat=3)),
        "octahedron": [tuple(s * (c == i) for c in range(3)) for i in range(3) for s in (1, -1)],
        "prism": [v + (z,) for v in ((0, 0), (1, 0), (0, 1)) for z in (0, 1)],
        "cube4": list(product((0, 1), repeat=4)),
    }
    rng = random.Random(20100730)
    for name, verts in shapes.items():
        for i in range(3):
            image = _unimodular_image(rng, verts)
            cases.append((f"{name}-{i}", facets_from_vertices(len(verts[0]), image)))
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name,P", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_incidence_numbers_match_rational_oracle(name, P, reverse):
    L = face_lattice(P)
    assert incidence_numbers(L, reverse).numbers == incidence_signs_by_coordinates(L, reverse)


def _patch_basis(monkeypatch, L, coords, vector):
    """Make the oriented basis of the face with vertices ``coords`` the one ``vector``."""
    face = L.face_with_vertices(L.polytope.vertices.index(v) for v in coords)
    true_basis = orientation._oriented_basis

    def patched(lattice, f, reverse):
        basis, minor_coords, sign = true_basis(lattice, f, reverse)
        return ([vector] if f == face else basis), minor_coords, sign

    monkeypatch.setattr(orientation, "_oriented_basis", patched)


def test_span_guard_fires_when_a_basis_vector_leaves_its_face(monkeypatch):
    L = face_lattice(SAMPLES["cube"])
    # the edge from the origin along x, tilted out of the facets z = 0 and y = 0
    _patch_basis(monkeypatch, L, [(0, 0, 0), (1, 0, 0)], (1, 0, 1))
    with pytest.raises(DegenerateBasis, match="leaves the span"):
        incidence_numbers(L)


def test_singular_comparison_guard_fires(monkeypatch):
    L = face_lattice(SAMPLES["square"])
    # the bottom edge pointed along the outward direction it has in the square
    _patch_basis(monkeypatch, L, [(0, 0), (1, 0)], (0, 1))
    with pytest.raises(DegenerateBasis, match="singular comparison"):
        incidence_numbers(L)


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


def test_incidence_numbers_take_codim_one_faces_from_the_facets(monkeypatch):
    # a scan of the faces one dimension down would test containment once
    # per face pair of adjacent dimension, and once per flag in the check
    calls = []
    contains = FaceLattice.contains

    def counting(self, inner, outer):
        calls.append((inner.index, outer.index))
        return contains(self, inner, outer)

    monkeypatch.setattr(FaceLattice, "contains", counting)
    L = face_lattice(SAMPLES["cube"])
    pairs = len(incidence_numbers(L).numbers)
    assert pairs == 54 and calls == []


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
    # the other orientation, set before the context builds any column
    reversed_ctx = CechContext(P)
    reversed_ctx.incidence = incidence_numbers(reversed_ctx.lattice, reverse=True)
    for k in range(-3, 4):
        a = normal.line_bundle_cohomology(k, ZZ).homology
        b = reversed_ctx.line_bundle_cohomology(k, ZZ).homology
        assert a == b
    C = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])})
    assert (normal.constant_diagram_cech(C, ZZ).homology
            == reversed_ctx.constant_diagram_cech(C, ZZ).homology)
    assert (normal.constant_diagram_cech(C, GF(2)).homology
            == reversed_ctx.constant_diagram_cech(C, GF(2)).homology)
