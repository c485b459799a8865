import random
from itertools import product

import pytest

from polycech import polytope
from polycech.cech import CechContext, constant_diagram_cech
from polycech.exact_linalg import ZZ, FreeChainComplex, GF, Matrix
from polycech.orientation import (
    IncidenceSystem,
    _check_boundary_squares_to_zero,
    incidence_numbers,
)
from polycech.polytope import FaceLattice, face_lattice, facets_from_vertices

from helpers import equal_up_to_face_signs, incidence_signs_by_coordinates, sample_polytopes

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


def _cross(n):
    return [tuple(s * (c == i) for c in range(n)) for i in range(n) for s in (1, -1)]


def _oracle_cases():
    cases = [(name, P) for name, P in sorted(SAMPLES.items())]
    shapes = {
        "cube": list(product((0, 1), repeat=3)),
        "octahedron": _cross(3),
        "prism": [v + (z,) for v in ((0, 0), (1, 0), (0, 1)) for z in (0, 1)],
        "cube4": list(product((0, 1), repeat=4)),
    }
    rng = random.Random(20100730)
    for name, verts in shapes.items():
        for i in range(3):
            image = _unimodular_image(rng, verts)
            cases.append((f"{name}-{i}", facets_from_vertices(len(verts[0]), image)))
    for name, verts in (("cube5", list(product((0, 1), repeat=5))),
                        ("cross4", _cross(4)), ("cross5", _cross(5))):
        cases.append((name, facets_from_vertices(len(verts[0]), verts)))
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name,P", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_incidence_numbers_match_rational_oracle(name, P, reverse):
    # the lattice's signs match the geometric ones up to one sign per face
    L = face_lattice(P)
    assert equal_up_to_face_signs(incidence_numbers(L, reverse).numbers,
                                  incidence_signs_by_coordinates(L, reverse))


@pytest.mark.parametrize("name", ["square", "cube"])
def test_one_flipped_sign_is_not_equivalent(name):
    # every pair lies on a diamond, so flipping any one sign breaks it
    L = face_lattice(SAMPLES[name])
    numbers = incidence_numbers(L).numbers
    for k, (pair, sign) in enumerate(numbers):
        flipped = numbers[:k] + ((pair, -sign),) + numbers[k + 1:]
        assert not equal_up_to_face_signs(flipped, numbers), pair


def _corrupted(L, face, below):
    """``L`` with ``codim_one`` of the face with vertex set ``face`` set to
    the faces with vertex sets ``below``."""
    by_vertices = {f.vertex_set: f for f in L.faces}
    codim_one = list(L.codim_one)
    codim_one[by_vertices[face].index] = [by_vertices[vs] for vs in below]
    return FaceLattice(L.polytope, L.faces, codim_one)


def test_ridge_guard_fires_when_a_facet_is_missing():
    L = face_lattice(SAMPLES["square"])
    # the square without one of its edges: two vertices lie in one edge only
    top = L.faces[-1]
    edges = [f.vertex_set for f in L.codim_one[top.index]]
    with pytest.raises(AssertionError, match="other than two facets"):
        incidence_numbers(_corrupted(L, top.vertex_set, edges[1:]))


def test_unsigned_guard_fires_when_the_facets_fall_apart():
    L = face_lattice(SAMPLES["cube"])
    # the face z = 0 given the edges of both squares z = 0 and z = 1: every
    # vertex lies in two of them, but no ridge joins the two squares
    verts = L.polytope.vertices
    bottom = frozenset(i for i, v in enumerate(verts) if v[2] == 0)
    top = frozenset(i for i, v in enumerate(verts) if v[2] == 1)
    edges = [f.vertex_set for f in L.by_dim[1] if f.vertex_set <= bottom or f.vertex_set <= top]
    assert len(edges) == 8
    with pytest.raises(AssertionError, match="left unsigned"):
        incidence_numbers(_corrupted(L, bottom, edges))


@pytest.mark.parametrize("name", ["square", "cube", "simplex3"])
def test_face_lattice_and_signs_need_no_elimination(name, monkeypatch):
    P = facets_from_vertices(SAMPLES[name].dim, SAMPLES[name].vertices)

    def refuse(*args, **kwargs):
        raise AssertionError("elimination called")

    monkeypatch.setattr(polytope, "row_echelon", refuse)
    L = face_lattice(P)
    incidence_numbers(L)
    incidence_numbers(L, reverse=True)


def test_interval_endpoint_signs_are_opposite():
    L = face_lattice(SAMPLES["interval"])
    inc = incidence_numbers(L)
    top = L.faces[-1].index
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
            if not bottom.vertex_set <= top.vertex_set:
                continue
            middles = [f for f in L.by_dim[top.dim - 1]
                       if bottom.vertex_set <= f.vertex_set <= top.vertex_set]
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


def test_incidence_numbers_take_codim_one_faces_from_the_facets():
    # a scan of the faces one dimension down would read ``by_dim``, once per
    # face pair of adjacent dimension and once per flag in the check
    L = face_lattice(SAMPLES["cube"])
    del L.by_dim
    pairs = len(incidence_numbers(L).numbers)
    assert pairs == 54


def test_codim_one_pairs_all_signed():
    L = face_lattice(SAMPLES["cube"])
    inc = incidence_numbers(L)
    for g in L.faces:
        if g.dim == 0:
            continue
        for f in L.by_dim[g.dim - 1]:
            if f.vertex_set <= g.vertex_set:
                assert inc.sign(f.index, g.index) in (-1, 1)
            else:
                assert inc.sign(f.index, g.index) == 0


@pytest.mark.parametrize("name", ["interval", "simplex2", "square", "simplex3"])
def test_cellular_homology_of_constant_diagram(name):
    P = SAMPLES[name]
    unit = FreeChainComplex.from_dicts({0: 1}, {})
    h = constant_diagram_cech(P, unit, ZZ).homology
    assert h.as_dict() == {P.dim: (1, ())}


@pytest.mark.parametrize("name", ["interval", "simplex2", "square", "cube"])
def test_orientation_choice_does_not_change_homology(name):
    P = SAMPLES[name]
    normal = CechContext(P)
    # the other orientation, set before the context builds any column
    reversed_ctx = CechContext(P)
    reversed_ctx.incidence = incidence_numbers(reversed_ctx.lattice, reverse=True)
    # the two orientations differ, on every edge at least
    assert reversed_ctx.incidence.numbers != normal.incidence.numbers
    for k in range(-3, 4):
        a = normal.line_bundle_cohomology(k, ZZ).homology
        b = reversed_ctx.line_bundle_cohomology(k, ZZ).homology
        assert a == b
    C = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])})
    assert (normal.constant_diagram_cech(C, ZZ).homology
            == reversed_ctx.constant_diagram_cech(C, ZZ).homology)
    assert (normal.constant_diagram_cech(C, GF(2)).homology
            == reversed_ctx.constant_diagram_cech(C, GF(2)).homology)
