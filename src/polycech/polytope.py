"""Lattice polytopes with exact arithmetic.

Facet enumeration from integral vertices, the face lattice with joins,
tangent-cone membership tests, lattice point enumeration in dilates, the
Ehrhart polynomial, and the count of its integral roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Iterable, Sequence

from .exact_linalg import Matrix, rational_nullspace, row_echelon


class NotFullDimensional(Exception):
    """Raised when the given vertices do not affinely span R^n."""


class DuplicateVertex(Exception):
    """Raised when the vertex list contains a repeated point."""


class InterpolationInconsistent(Exception):
    """Internal guard: the interpolated point count failed its spare node."""


class CharacterizationMismatch(Exception):
    """Internal guard: the two descriptions of the root count disagree."""


@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional polytope in R^dim with integral vertices.

    ``facets`` holds pairs (normal, offset) with the inward convention
    <normal, x> >= offset; normals are primitive integer vectors.
    """

    dim: int
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _affine_rank(points: Sequence[Sequence[int]]) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    return len(row_echelon([[a - b for a, b in zip(p, base)] for p in points[1:]])[1])


def _primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def facets_from_vertices(dim: int, vertices: Sequence[Sequence[int]]) -> LatticePolytope:
    """Build a LatticePolytope from its vertex list.

    Brute force: every dim-subset of the points that spans a hyperplane is
    tested for one-sidedness; surviving hyperplanes are the facets. Fine
    for desk scale (dim <= 4, a couple dozen vertices).

    Raises DuplicateVertex or NotFullDimensional on bad input, and
    ValueError when some input point is not a vertex of the hull.
    """
    verts = [tuple(int(x) for x in v) for v in vertices]
    if any(len(v) != dim for v in verts):
        raise ValueError("vertex length does not match dim")
    if len(set(verts)) != len(verts):
        raise DuplicateVertex("vertex list contains repeats")
    if len(verts) < dim + 1:
        raise NotFullDimensional(f"{len(verts)} vertices cannot span R^{dim}")
    if _affine_rank(verts) != dim:
        raise NotFullDimensional("affine hull is a proper subspace")

    facets: set[tuple[tuple[int, ...], int]] = set()
    for subset in combinations(range(len(verts)), dim):
        pts = [verts[i] for i in subset]
        base = pts[0]
        rows = [[p[i] - base[i] for i in range(dim)] for p in pts[1:]]
        null = rational_nullspace(Matrix.from_rows(rows) if rows else Matrix.zeros(0, dim))
        if len(null) != 1:
            continue  # subset does not span a hyperplane
        normal = _primitive(null[0])
        offset = _dot(normal, base)
        values = [_dot(normal, v) - offset for v in verts]
        if all(val >= 0 for val in values):
            facets.add((normal, offset))
        elif all(val <= 0 for val in values):
            facets.add((tuple(-x for x in normal), -offset))

    facet_list = tuple(sorted(facets))
    poly = LatticePolytope(dim, tuple(verts), facet_list)
    for v in verts:
        tight = [a for a, b in facet_list if _dot(a, v) == b]
        if dim and _affine_rank([(0,) * dim] + tight) < dim:
            raise ValueError(f"input point {v} is not a vertex of the hull")
    return poly


def standard_simplex(n: int) -> LatticePolytope:
    """conv{0, e_1, ..., e_n} in R^n (a single point when n = 0)."""
    verts = [tuple(0 for _ in range(n))]
    for i in range(n):
        verts.append(tuple(1 if j == i else 0 for j in range(n)))
    if n == 0:
        return LatticePolytope(0, tuple(verts), ())
    return facets_from_vertices(n, verts)


@dataclass(frozen=True)
class Face:
    """Nonempty face of a polytope, stored by its vertex indices."""

    index: int
    dim: int
    vertex_set: frozenset[int]
    tight_facets: frozenset[int]


class FaceLattice:
    """All nonempty faces of a polytope, ordered by inclusion of vertex sets."""

    def __init__(self, polytope: LatticePolytope, faces: Sequence[Face]):
        self.polytope = polytope
        self.faces = tuple(faces)
        self.by_dim: dict[int, tuple[Face, ...]] = {}
        for d in range(polytope.dim + 1):
            self.by_dim[d] = tuple(f for f in self.faces if f.dim == d)
        self._by_vertex_set = {f.vertex_set: f for f in self.faces}

    def top(self) -> Face:
        (top,) = self.by_dim[self.polytope.dim]
        return top

    def face_with_vertices(self, vertex_set: Iterable[int]) -> Face:
        return self._by_vertex_set[frozenset(vertex_set)]

    def contains(self, inner: Face, outer: Face) -> bool:
        return inner.vertex_set <= outer.vertex_set

    def join(self, f: Face, g: Face) -> Face:
        """Smallest face containing both: tight on tight(f) & tight(g)."""
        shared = f.tight_facets & g.tight_facets
        verts = _vertices_tight_on(self.polytope, shared)
        return self.face_with_vertices(verts)


def _vertices_tight_on(P: LatticePolytope, facet_idx: Iterable[int]) -> frozenset[int]:
    idx = list(facet_idx)
    out = []
    for vi, v in enumerate(P.vertices):
        if all(_dot(P.facets[i][0], v) == P.facets[i][1] for i in idx):
            out.append(vi)
    return frozenset(out)


def face_lattice(P: LatticePolytope) -> FaceLattice:
    """Enumerate the nonempty faces of P.

    Faces arise as vertex sets tight on a subset of facets, deduplicated;
    dimension is the affine rank of the vertex set. The polytope itself is
    the unique top face (empty tight set).
    """
    seen: dict[frozenset[int], None] = {}
    nf = len(P.facets)
    for r in range(nf + 1):
        for subset in combinations(range(nf), r):
            vs = _vertices_tight_on(P, subset)
            if vs and vs not in seen:
                seen[vs] = None
    records = []
    for vs in seen:
        pts = [P.vertices[i] for i in sorted(vs)]
        fdim = _affine_rank(pts)
        tight = frozenset(
            i for i in range(nf)
            if all(_dot(P.facets[i][0], p) == P.facets[i][1] for p in pts)
        )
        records.append((fdim, tuple(sorted(vs)), tight))
    records.sort(key=lambda rec: (rec[0], rec[1]))
    faces = [Face(index=i, dim=fdim, vertex_set=frozenset(vs), tight_facets=tight)
             for i, (fdim, vs, tight) in enumerate(records)]
    lattice = FaceLattice(P, faces)
    if len(lattice.by_dim[P.dim]) != 1:
        raise AssertionError("face lattice must contain exactly one top face")
    return lattice


def join(L: FaceLattice, f: Face, g: Face) -> Face:
    return L.join(f, g)


def satisfies_inequalities(constraints: Iterable[tuple[Sequence[int], int]], k: int,
                           m: Sequence[int]) -> bool:
    """Whether <a, m> >= k*b for every pair (a, b) in ``constraints``."""
    for normal, offset in constraints:
        if _dot(normal, m) < k * offset:
            return False
    return True


def cone_membership(P: LatticePolytope, F: Face, k: int, m: Sequence[int]) -> bool:
    """Whether m lies in the k-dilated tangent cone kF + T_F.

    Tested as <a_i, m> >= k*b_i over the facets tight at F; the top face
    has no tight facets, so its cone is all of R^n.
    """
    return satisfies_inequalities((P.facets[i] for i in F.tight_facets), k, m)


def _bounding_box(P: LatticePolytope, k: int) -> list[tuple[int, int]]:
    box = []
    for c in range(P.dim):
        coords = [k * v[c] for v in P.vertices]
        box.append((min(coords), max(coords)))
    return box


def lattice_points(P: LatticePolytope, k: int, interior: bool = False) -> tuple[tuple[int, ...], ...]:
    """Integral points of the dilate kP, or of its interior.

    Boundary-inclusive counting needs k >= 0; interior counting accepts
    any k, with the inequalities reversed for negative dilations.
    """
    if not interior and k < 0:
        raise ValueError("boundary-inclusive counting needs k >= 0")
    box = _bounding_box(P, k)
    points = []
    for m in product(*(range(lo, hi + 1) for lo, hi in box)):
        ok = True
        for a, b in P.facets:
            val = _dot(a, m)
            bound = k * b
            if k >= 0:
                ok = val > bound if interior else val >= bound
            else:
                ok = val < bound if interior else val <= bound
            if not ok:
                break
        if ok:
            points.append(m)
    return tuple(sorted(points))


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Exact point-counting polynomial: coefficients ascending, plus the
    count of integral roots and the roots themselves."""

    coefficients: tuple[Fraction, ...]
    np: int
    integral_roots: tuple[int, ...]

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _interpolate(nodes: Sequence[tuple[int, int]]) -> tuple[Fraction, ...]:
    # Lagrange through the given integer nodes; exact rationals
    n = len(nodes) - 1
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(nodes):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(nodes):
            if j == i:
                continue
            # multiply basis by (x - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] -= c * xj
                nxt[d + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    return tuple(coeffs)


def ehrhart_polynomial(P: LatticePolytope) -> EhrhartPolynomial:
    """Interpolate the lattice point counts of 0P..nP exactly.

    The node n+1 is reserved as a consistency guard; a mismatch there
    means an internal bug, not bad input.
    """
    n = P.dim
    nodes = [(k, len(lattice_points(P, k))) for k in range(n + 1)]
    coeffs = _interpolate(nodes)
    guard = len(lattice_points(P, n + 1))
    poly = EhrhartPolynomial(coeffs, 0, ())
    if poly(n + 1) != guard:
        raise InterpolationInconsistent(
            f"E({n + 1}) = {poly(n + 1)} but the dilate holds {guard} points")
    roots = [k for k in range(-n, 0) if poly(k) == 0]
    expected = list(range(-len(roots), 0))
    if roots != expected:
        raise CharacterizationMismatch(f"integral roots {roots} are not contiguous")
    return EhrhartPolynomial(coeffs, len(roots), tuple(roots))


def np_index(P: LatticePolytope) -> int:
    """Count of integral roots of the point-counting polynomial.

    Cross-checked against the minimal k >= 0 for which (k+1)P has an
    interior lattice point; disagreement raises CharacterizationMismatch.
    """
    via_roots = ehrhart_polynomial(P).np
    via_interior = None
    for k in range(P.dim + 1):
        if lattice_points(P, k + 1, interior=True):
            via_interior = k
            break
    if via_interior != via_roots:
        raise CharacterizationMismatch(
            f"root count {via_roots} != minimal interior dilation index {via_interior}")
    return via_roots
