import random
import re
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from polycech import polytope as polytope_mod
from polycech.cech import column_complex, scan_box
from polycech.polytope import (
    CharacterizationMismatch,
    DuplicateVertex,
    EhrhartPolynomial,
    InterpolationInconsistent,
    LatticePolytope,
    NotFullDimensional,
    TooLarge,
    ehrhart_polynomial,
    face_lattice,
    facet_mask,
    facets_from_vertices,
    lattice_point_count,
    lattice_points,
    np_index,
    standard_simplex,
    twist_euler_characteristic,
)

from helpers import (
    cone_contains,
    faces_by_subsets,
    facets_by_subsets,
    hull_facets_by_point_test,
    interpolate_by_lagrange,
    lattice_points_by_box,
    sample_polytopes,
)

SAMPLES = sample_polytopes()
OCTAHEDRON = facets_from_vertices(
    3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
PYRAMID = facets_from_vertices(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])


def test_simplex2_facets():
    P = SAMPLES["simplex2"]
    assert set(P.facets) == {((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)}


def test_square_facets_against_point_oracle():
    P = SAMPLES["square"]
    assert len(P.facets) == 4
    in_hull = hull_facets_by_point_test(2, P.vertices)
    for m in product(range(-2, 4), repeat=2):
        by_facets = all(sum(a * x for a, x in zip(n, m)) >= b for n, b in P.facets)
        assert by_facets == in_hull(m), m


def test_simplex3_facets_against_point_oracle():
    P = SAMPLES["simplex3"]
    in_hull = hull_facets_by_point_test(3, P.vertices)
    for m in product(range(-1, 3), repeat=3):
        by_facets = all(sum(a * x for a, x in zip(n, m)) >= b for n, b in P.facets)
        assert by_facets == in_hull(m), m


def test_degenerate_inputs():
    with pytest.raises(NotFullDimensional):
        facets_from_vertices(2, [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(DuplicateVertex):
        facets_from_vertices(2, [(0, 0), (1, 0), (0, 1), (0, 0)])
    with pytest.raises(NotFullDimensional):
        facets_from_vertices(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        facets_from_vertices(2, [(0, 0), (2, 0), (0, 2), (1, 0)])
    # in R^0 only the one empty vertex spans
    with pytest.raises(NotFullDimensional):
        facets_from_vertices(0, [])
    with pytest.raises(DuplicateVertex):
        facets_from_vertices(0, [(), (), ()])
    with pytest.raises(ValueError, match="vertex length does not match dim"):
        facets_from_vertices(2, [(0, 0), (1,), (0, 1)])


@pytest.mark.parametrize("verts, entry", [
    ([(0, 0), (1.5, 0), (0, 1)], "1.5"),
    ([(0, 0), (True, 0), (0, 1)], "True"),
], ids=["float", "bool"])
def test_coordinates_are_ints(verts, entry):
    # a coordinate is taken as given, never read through int()
    with pytest.raises(ValueError, match=f"the vertex list has the entry {entry}, not an int"):
        facets_from_vertices(2, verts)


def test_face_counts():
    assert len(face_lattice(SAMPLES["simplex2"]).faces) == 7
    assert len(face_lattice(SAMPLES["square"]).faces) == 9
    assert len(face_lattice(SAMPLES["simplex3"]).faces) == 15
    assert len(face_lattice(SAMPLES["cube"]).faces) == 27


def test_face_vertices_determine_containment():
    # a face is cut out by its tight facets: f lies in g iff every facet
    # tight at g is tight at f
    for name in ("square", "cube"):
        L = face_lattice(SAMPLES[name])
        for f in L.faces:
            for g in L.faces:
                assert (f.vertex_set <= g.vertex_set) == (g.tight_facets <= f.tight_facets)


def test_cone_membership_examples():
    # the triangle's facets in order: x + y <= 1, y >= 0, x >= 0
    P = SAMPLES["simplex2"]
    assert P.facets == (((-1, -1), -1), ((0, 1), 0), ((1, 0), 0))
    assert facet_mask(P, 1, (2, 3)) == 0b110
    assert facet_mask(P, 7, (-5, 11)) == 0b011
    assert facet_mask(P, 0, (-1, 0)) == 0b011
    assert facet_mask(P, 1, (0, 0)) == 0b111
    assert facet_mask(P, -1, (0, 0)) == 0b110
    # the origin's cone (x, y >= 0) holds (2, 3) at k = 1, the top face's
    # cone is the plane, and the origin's cone at k = 0 misses (-1, 0)
    L = face_lattice(P)
    (origin,) = (F for F in L.by_dim[0] if P.vertices[min(F.vertex_set)] == (0, 0))
    top = L.faces[-1]
    assert origin.index in column_complex(P, 1, (2, 3)).faces[2]
    assert top.index in column_complex(P, 7, (-5, 11)).faces[0]
    assert origin.index not in column_complex(P, 0, (-1, 0)).faces[2]


@pytest.mark.parametrize("name", ["simplex2", "square", "cube", "octahedron", "pyramid"])
def test_cone_membership_against_minkowski_oracle(name):
    # F is in the column of O(k) at m iff m lies in kF + T_F, that is iff
    # m - k*w lies in the tangent cone of F, which the oracle rebuilds from
    # its generators v - w' (v a vertex of P, w' one of F); w is F's first vertex
    P = {**SAMPLES, "octahedron": OCTAHEDRON, "pyramid": PYRAMID}[name]
    n = P.dim
    cones = [(F, [tuple(a - b for a, b in zip(v, P.vertices[i]))
                  for v in P.vertices for i in F.vertex_set], P.vertices[min(F.vertex_set)])
             for F in face_lattice(P).faces]
    for k in range(-3, 3):
        for m in product(*(range(a, b + 1) for a, b in scan_box(P, k))):
            faces = column_complex(P, k, m).faces
            for F, gens, w in cones:
                shifted = tuple(x - k * c for x, c in zip(m, w))
                assert (F.index in faces[n - F.dim]) == cone_contains(gens, shifted), (
                    F.index, k, m)


def test_vertex_cone_intersection_reproduces_dilate():
    # m lies in every vertex cone at dilation k iff m lies in kP
    for name in ("simplex2", "square", "rect"):
        P = SAMPLES[name]
        vertices = {F.index for F in face_lattice(P).by_dim[0]}
        for k in (0, 1, 2):
            pts = set(lattice_points(P, k))
            for m in product(range(-2, 2 * 2 + 2), repeat=P.dim):
                in_all = vertices == set(column_complex(P, k, m).faces[P.dim])
                assert in_all == (m in pts), (name, k, m)


def test_face_lattice_refuses_over_its_budget(monkeypatch):
    # the cube has 27 faces and 6 facets
    P = SAMPLES["cube"]
    monkeypatch.setattr(polytope_mod, "FACE_LATTICE_BUDGET", 27 * 6)
    assert len(face_lattice(P).faces) == 27
    monkeypatch.setattr(polytope_mod, "FACE_LATTICE_BUDGET", 27 * 6 - 1)
    with pytest.raises(TooLarge, match="27 faces times 6 facets"):
        face_lattice(P)


def _cross(n):
    return [[s * (i == j) for j in range(n)] for i in range(n) for s in (1, -1)]


def test_double_description_refuses_over_its_budget(monkeypatch):
    # each adjacency test scans every held ray; the cube's scans total 28
    verts = SAMPLES["cube"].vertices
    monkeypatch.setattr(polytope_mod, "FACE_LATTICE_BUDGET", 28)
    assert facets_from_vertices(3, verts) == SAMPLES["cube"]
    monkeypatch.setattr(polytope_mod, "FACE_LATTICE_BUDGET", 27)
    with pytest.raises(TooLarge, match="adjacency tests scan 28 rays"):
        facets_from_vertices(3, verts)
    monkeypatch.undo()
    # at the default budget the 10-cross-polytope keeps its 2^10 facets, and
    # the 16- and 20-cross-polytopes are refused before their face lattice
    assert len(facets_from_vertices(10, _cross(10)).facets) == 1024
    for n in (16, 20):
        with pytest.raises(TooLarge, match="adjacency tests"):
            facets_from_vertices(n, _cross(n))


def test_lattice_point_examples():
    P = SAMPLES["simplex2"]
    assert len(lattice_points(P, 2)) == 6
    assert lattice_points(P, 0) == ((0, 0),)
    assert lattice_points(SAMPLES["square"], 2, interior=True) == ((1, 1),)
    with pytest.raises(ValueError):
        lattice_points(P, -1)


def coefficients(e):
    """The coefficients of ``e`` as Fractions, read off its integer form."""
    return tuple(Fraction(a, e.denominator) for a in e.numerators)


def test_ehrhart_coefficients():
    assert coefficients(ehrhart_polynomial(SAMPLES["simplex2"])) == (
        Fraction(1), Fraction(3, 2), Fraction(1, 2))
    assert coefficients(ehrhart_polynomial(SAMPLES["square"])) == (
        Fraction(1), Fraction(2), Fraction(1))
    assert coefficients(ehrhart_polynomial(SAMPLES["interval"])) == (
        Fraction(1), Fraction(1))


def _random_lattice_polytopes(rng, count):
    """``count`` distinct lattice polytopes of dimension 1-4: hulls of a few
    random points of a small box, kept when every point is a vertex."""
    out = {}
    while len(out) < count:
        dim = rng.randint(1, 4)
        span = (3, 3, 2, 1)[dim - 1]
        pts = sorted({tuple(rng.randint(0, span) for _ in range(dim))
                      for _ in range(rng.randint(dim + 1, dim + 4))})
        try:
            out[tuple(pts)] = facets_from_vertices(dim, pts)
        except (NotFullDimensional, ValueError):
            continue
    return list(out.values())


def assert_integer_form(P, e):
    """Integer numerators over a positive denominator in lowest terms, and
    E(k) an int: the point count of kP for k = 0..n+2, and (-1)^n times the
    interior count of |k|P for k = -1..-(n+1)."""
    assert e.denominator > 0 and gcd(e.denominator, *e.numerators) == 1, P.vertices
    assert all(type(a) is int for a in (*e.numerators, e.denominator)), P.vertices
    for k in range(P.dim + 3):
        assert type(e(k)) is int and e(k) == len(lattice_points(P, k)), (P.vertices, k)
    for k in range(1, P.dim + 2):
        count = len(lattice_points(P, k, interior=True))
        assert type(e(-k)) is int and e(-k) == (-1) ** P.dim * count, (P.vertices, -k)


def test_ehrhart_coefficients_against_lagrange():
    rng = random.Random(20100730)
    polytopes = list(SAMPLES.values()) + _random_lattice_polytopes(rng, 240)
    assert {P.dim for P in polytopes} >= {1, 2, 3, 4}
    for P in polytopes:
        nodes = [(k, len(lattice_points(P, k))) for k in range(P.dim + 1)]
        e = ehrhart_polynomial(P)
        assert coefficients(e) == interpolate_by_lagrange(nodes), P.vertices
        assert_integer_form(P, e)


def test_ehrhart_constant_term_and_leading_sign():
    for P in SAMPLES.values():
        e = ehrhart_polynomial(P)
        assert e.numerators[0] == e.denominator
        assert e.numerators[-1] > 0
        assert len(e.numerators) - 1 == P.dim


def test_ehrhart_predicts_beyond_interpolation_nodes():
    for P in SAMPLES.values():
        e = ehrhart_polynomial(P)
        for k in (P.dim + 1, P.dim + 2):
            assert e(k) == len(lattice_points(P, k))


def test_ehrhart_reciprocity():
    for P in SAMPLES.values():
        e = ehrhart_polynomial(P)
        for k in range(1, P.dim + 2):
            assert (-1) ** P.dim * e(-k) == len(lattice_points(P, k, interior=True))


def test_integral_roots_contiguous():
    # E vanishes exactly at -np..-1 among -n..-1
    for P in SAMPLES.values():
        e = ehrhart_polynomial(P)
        assert [k for k in range(-P.dim, 0) if e(k) == 0] == list(range(-e.np, 0))


def test_np_values():
    assert np_index(SAMPLES["interval"]) == 1
    assert np_index(SAMPLES["square"]) == 1
    assert np_index(SAMPLES["cube"]) == 1
    assert np_index(SAMPLES["rect"]) == 1
    for n in (1, 2, 3):
        assert np_index(standard_simplex(n)) == n
    assert np_index(facets_from_vertices(2, [(0, 0), (3, 0), (0, 3)])) == 0


def test_dilate_has_same_combinatorics():
    for name in ("simplex2", "square", "simplex3"):
        P = SAMPLES[name]
        P2 = facets_from_vertices(P.dim, [tuple(2 * x for x in v) for v in P.vertices])
        L, L2 = face_lattice(P), face_lattice(P2)
        assert [f.vertex_set for f in L.faces] == [f.vertex_set for f in L2.faces]
        assert [f.tight_facets for f in L.faces] == [f.tight_facets for f in L2.faces]
        for m in product(range(-2, 3), repeat=P.dim):
            assert facet_mask(P, 0, m) == facet_mask(P2, 0, m)
            assert column_complex(P, 0, m).faces == column_complex(P2, 0, m).faces


def test_zero_dimensional_point():
    pt = standard_simplex(0)
    assert pt.facets == ()
    assert facets_from_vertices(0, [()]) == pt
    assert len(face_lattice(pt).faces) == 1
    e = ehrhart_polynomial(pt)
    assert (e.numerators, e.denominator, e.np) == ((1,), 1, 0)
    assert lattice_points(pt, 5) == ((),)
    assert lattice_points(pt, -2, interior=True) == ((),)
    assert np_index(pt) == 0


def _lattice_image(rng, verts):
    """Image under a random signed coordinate permutation and translation,
    vertices shuffled."""
    n = len(verts[0])
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    shift = [rng.randint(-2, 2) for _ in range(n)]
    out = [tuple(signs[c] * v[perm[c]] + shift[c] for c in range(n)) for v in verts]
    rng.shuffle(out)
    return out


def _differential_cases():
    """(name, dim, vertices): cyclic polytopes on the moment curve, (i, i^2)
    polygons, prisms, and the sample polytopes, each under a lattice symmetry."""
    rng = random.Random(20100730)
    cases = [(name, P.dim, list(P.vertices)) for name, P in sorted(SAMPLES.items())]
    for dim, sizes in ((3, (5, 6, 7)), (4, (6, 7)), (5, (7,))):
        for n in sizes:
            ts = sorted(rng.sample(range(-3, 4), n))
            cases.append((f"cyclic{dim}-{n}", dim, [tuple(t ** e for e in range(1, dim + 1))
                                                    for t in ts]))
    for n in range(3, 10):
        start = rng.randint(-3, 1)
        cases.append((f"parabola{n}", 2, [(i, i * i) for i in range(start, start + n)]))
    bases = [[(0, 0), (1, 0), (0, 1)], [(i, i * i) for i in range(-2, 3)],
             list(SAMPLES["simplex3"].vertices)]
    for base in bases:
        cases.append((f"prism{len(base)}", len(base[0]) + 1,
                      [v + (z,) for v in base for z in (0, 1)]))
    return [(name, dim, _lattice_image(rng, verts)) for name, dim, verts in cases]


# the skew triangle's normals have last coordinates +-2, so the line
# sweep's thresholds in ``lattice_points`` are not whole divisions
DIFFERENTIAL_CASES = _differential_cases() + [
    ("skew", 2, [(0, 0), (2, 1), (2, -1)]),
    ("octahedron", 3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]),
]


@pytest.mark.parametrize("name,dim,verts", DIFFERENTIAL_CASES,
                         ids=[c[0] for c in DIFFERENTIAL_CASES])
def test_combinatorics_against_exhaustive_oracles(name, dim, verts):
    P = facets_from_vertices(dim, verts)
    assert P.facets == facets_by_subsets(dim, verts)
    L = face_lattice(P)
    assert [(f.dim, tuple(sorted(f.vertex_set)), f.tight_facets) for f in L.faces] == (
        faces_by_subsets(P))
    assert [f.index for f in L.faces] == list(range(len(L.faces)))
    for g in L.faces:
        assert L.codim_one[g.index] == tuple(
            f for f in L.faces if f.dim == g.dim - 1 and f.vertex_set < g.vertex_set)
    # the box oracle visits every point of the box; keep it to small boxes
    spans = [max(v[c] for v in verts) - min(v[c] for v in verts) for c in range(dim)]
    for k in range(-3, 4):
        box = 1
        for span in spans:
            box *= abs(k) * span + 1
        if box > 20000:
            continue
        inside = lattice_points_by_box(P, k, True)
        assert lattice_points(P, k, interior=True) == inside, k
        assert lattice_point_count(P, k, interior=True) == len(inside), k
        if k >= 0:
            points = lattice_points_by_box(P, k)
            assert lattice_points(P, k) == points, k
            assert lattice_point_count(P, k) == len(points), k


@pytest.mark.parametrize("name,dim,verts", DIFFERENTIAL_CASES,
                         ids=[c[0] for c in DIFFERENTIAL_CASES])
def test_non_vertex_point_rejected_like_oracle(name, dim, verts):
    # doubling every vertex makes the midpoint of two of them integral
    rng = random.Random(name)
    doubled = [tuple(2 * x for x in v) for v in verts]
    i, j = rng.sample(range(len(verts)), 2)
    bad = doubled + [tuple(a + b for a, b in zip(verts[i], verts[j]))]
    rng.shuffle(bad)
    with pytest.raises(ValueError, match="not a vertex of the hull"):
        facets_by_subsets(dim, bad)
    with pytest.raises(ValueError, match="not a vertex of the hull"):
        facets_from_vertices(dim, bad)


def test_f_vectors_of_large_cases():
    # exhaustive facets take about a minute on the 5-cube, and 2^30 facet
    # subsets on the 30-gon
    cube5 = facets_from_vertices(5, list(product((0, 1), repeat=5)))
    units = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    assert cube5.facets == tuple(sorted(
        [(e, 0) for e in units] + [(tuple(-x for x in e), -1) for e in units]))
    L = face_lattice(cube5)
    assert [len(L.by_dim[d]) for d in range(6)] == [32, 80, 80, 40, 10, 1]
    gon = facets_from_vertices(2, [(i, i * i) for i in range(30)])
    L = face_lattice(gon)
    assert [len(L.by_dim[d]) for d in range(3)] == [30, 30, 1]


def test_top_face_assertion_fires_on_a_flat_polytope():
    flat = LatticePolytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)), ())
    with pytest.raises(AssertionError, match="exactly one top face"):
        face_lattice(flat)


def test_interpolation_guard_fires(monkeypatch):
    P = SAMPLES["square"]
    real = polytope_mod.lattice_point_count

    def one_extra_at_the_guard_node(Q, k, interior=False):
        count = real(Q, k, interior)
        return count + 1 if k == Q.dim + 1 else count

    monkeypatch.setattr(polytope_mod, "lattice_point_count", one_extra_at_the_guard_node)
    with pytest.raises(InterpolationInconsistent):
        ehrhart_polynomial(P)


def test_root_guard_fires_on_non_contiguous_roots(monkeypatch):
    # the counts 1, 6, 14 and the guard 25 interpolate E = (3x + 1)(x + 2)/2,
    # which has the root -2 but not -1
    P = SAMPLES["simplex2"]
    counts = {0: 1, 1: 6, 2: 14, 3: 25}
    monkeypatch.setattr(polytope_mod, "lattice_point_count",
                        lambda Q, k, interior=False: counts[k])
    with pytest.raises(CharacterizationMismatch, match=r"integral roots \[-2\] are not contiguous"):
        ehrhart_polynomial(P)


def test_integrality_guard_fires_on_a_corrupted_polynomial():
    # (1 + x)/2 is not integral at 0: only such a value is a Fraction
    corrupted = EhrhartPolynomial((1, 1), 2, 0)
    assert type(corrupted(1)) is int and corrupted(0) == Fraction(1, 2)
    with pytest.raises(AssertionError, match=re.escape("E(0) = 1/2 is not integral")):
        twist_euler_characteristic(SAMPLES["interval"], corrupted, 0)


def test_np_index_cross_check_fires_on_a_wrong_root_count():
    P = SAMPLES["simplex2"]
    e = ehrhart_polynomial(P)
    assert np_index(P, e) == np_index(P) == 2
    with pytest.raises(CharacterizationMismatch):
        np_index(P, EhrhartPolynomial(e.numerators, e.denominator, 1))
