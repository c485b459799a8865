"""Lattice polytopes with exact arithmetic.

Facet enumeration from integral vertices by double description, the face
lattice as the intersection closure of the facets' vertex sets, with
joins, tangent-cone membership tests, lattice point enumeration in
dilates one last-coordinate interval at a time, the Ehrhart polynomial,
whose coefficients are read off ``row_echelon`` of the Vandermonde system
of the point counts, and the count of its integral roots.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd
from typing import Iterable, Sequence

from .exact_linalg import row_echelon
from .record import Record


class NotFullDimensional(Exception):
    """Raised when the given vertices do not affinely span R^n."""


class DuplicateVertex(Exception):
    """Raised when the vertex list contains a repeated point."""


class InterpolationInconsistent(Exception):
    """Internal guard: the interpolated point count failed its spare node."""


class CharacterizationMismatch(Exception):
    """Internal guard: the two descriptions of the root count disagree."""


class LatticePolytope(Record):
    """Full-dimensional polytope in R^dim with integral vertices.

    ``facets`` holds pairs (normal, offset) with the inward convention
    <normal, x> >= offset; normals are primitive integer vectors.
    """

    dim: int
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _affine_basis(points: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a maximal affinely independent subset, taken greedily from the front."""
    base = points[0]
    cols = [[p[c] - base[c] for p in points[1:]] for c in range(len(base))]
    return [0] + [j + 1 for j in row_echelon(cols)[1]]


def _affine_rank(points: Sequence[Sequence[int]]) -> int:
    return len(_affine_basis(points)) - 1


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in vec)


def _hull_rays(lifted: Sequence[tuple[int, ...]],
               basis: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the cone {h : <h, w> >= 0 for every w in ``lifted``}.

    Double description (Fukuda and Prodon, 1996): start from the
    simplicial cone of the linearly independent points ``basis``, whose
    rays are the columns of the inverse matrix, read in integers off the
    eliminated rows d*[I | inverse], and insert the other
    points one at a time. Each ray carries the mask of inserted points it
    is tight on. On insertion, rays on the nonnegative side stay, and a
    ray p on the positive side and n on the negative side give the new
    ray <p, w>*n - <n, w>*p exactly when they are adjacent: no third ray
    is tight on every point both are tight on. Each ray is returned with
    its mask, which at the end covers every point it is tight on.
    """
    d = len(lifted[0])
    rows = [list(lifted[i]) + [int(r == c) for c in range(d)] for r, i in enumerate(basis)]
    m, _, _, den = row_echelon(rows)
    sign = 1 if den > 0 else -1
    rays = [(_primitive([sign * m[r][d + j] for r in range(d)]),
             sum(1 << b for b in basis if b != i)) for j, i in enumerate(basis)]
    rest = sorted(set(range(len(lifted))) - set(basis))
    for t in rest:
        w, bit = lifted[t], 1 << t
        vals = [_dot(ray, w) for ray, _ in rays]
        pos = [(ray, z, s) for (ray, z), s in zip(rays, vals) if s > 0]
        neg = [(ray, z, s) for (ray, z), s in zip(rays, vals) if s < 0]
        nxt = [(ray, z) for ray, z, _ in pos]
        nxt += [(ray, z | bit) for (ray, z), s in zip(rays, vals) if s == 0]
        masks = [z for _, z in rays]
        for rp, zp, sp in pos:
            for rn, zn, sn in neg:
                common = zp & zn
                # two rays spanning a 2-face are both tight on at least d-2 points
                if bin(common).count("1") < d - 2:
                    continue
                if sum(1 for z in masks if z & common == common) != 2:
                    continue
                nxt.append((_primitive([sp * b - sn * a for a, b in zip(rp, rn)]), common | bit))
        rays = nxt
    return rays


def facets_from_vertices(dim: int, vertices: Sequence[Sequence[int]]) -> LatticePolytope:
    """Build a LatticePolytope from its vertex list.

    A facet <a, x> >= b is an extreme ray (a, -b) of the cone of
    functionals nonnegative on every lifted point (v, 1), found by
    double description in exact integers. Rays stay primitive, and so do
    the normals, because <a, v> = b at an integral vertex makes gcd(a)
    divide b.

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
    basis = _affine_basis(verts)
    if len(basis) != dim + 1:
        raise NotFullDimensional("affine hull is a proper subspace")

    facet_list: tuple[tuple[tuple[int, ...], int], ...] = ()
    if dim:
        rays = _hull_rays([v + (1,) for v in verts], basis)
        facet_list = tuple(sorted((ray[:dim], -ray[dim]) for ray, _ in rays))
        # a point is a vertex iff it is the only point on every facet through it
        for t, v in enumerate(verts):
            common = (1 << len(verts)) - 1
            for _, z in rays:
                if z >> t & 1:
                    common &= z
            if common != 1 << t:
                raise ValueError(f"input point {v} is not a vertex of the hull")
    return LatticePolytope(dim, tuple(verts), facet_list)


def standard_simplex(n: int) -> LatticePolytope:
    """conv{0, e_1, ..., e_n} in R^n (a single point when n = 0)."""
    verts = [tuple(0 for _ in range(n))]
    for i in range(n):
        verts.append(tuple(1 if j == i else 0 for j in range(n)))
    if n == 0:
        return LatticePolytope(0, tuple(verts), ())
    return facets_from_vertices(n, verts)


class Face(Record):
    """Nonempty face of a polytope, stored by its vertex indices."""

    index: int
    dim: int
    vertex_set: frozenset[int]
    tight_facets: frozenset[int]


class FaceLattice:
    """All nonempty faces of a polytope, ordered by inclusion of vertex sets.

    ``facet_vertices[i]`` is the vertex set of facet i.
    """

    def __init__(self, polytope: LatticePolytope, faces: Sequence[Face],
                 facet_vertices: Sequence[frozenset[int]]):
        self.polytope = polytope
        self.faces = tuple(faces)
        self.facet_vertices = tuple(facet_vertices)
        self.by_dim: dict[int, tuple[Face, ...]] = {}
        for d in range(polytope.dim + 1):
            self.by_dim[d] = tuple(f for f in self.faces if f.dim == d)
        self._by_vertex_set = {f.vertex_set: f for f in self.faces}

    def top(self) -> Face:
        (top,) = self.by_dim[self.polytope.dim]
        return top

    def face_with_vertices(self, vertex_set: Iterable[int]) -> Face:
        return self._by_vertex_set[frozenset(vertex_set)]

    @cached_property
    def codim_one(self) -> tuple[tuple[Face, ...], ...]:
        """``codim_one[g]``: the faces of dimension dim G - 1 in face g, by index.

        A facet F of G lies in a facet of P that G does not lie in, and
        G meets that facet exactly in F; so these are the intersections
        G ∩ facet_i of dimension dim G - 1 over the facets i not tight at G.
        """
        out = []
        for g in self.faces:
            below = set()
            for i, verts in enumerate(self.facet_vertices):
                common = g.vertex_set & verts
                if i not in g.tight_facets and common:
                    f = self.face_with_vertices(common)
                    if f.dim == g.dim - 1:
                        below.add(f.index)
            out.append(tuple(self.faces[j] for j in sorted(below)))
        return tuple(out)

    def contains(self, inner: Face, outer: Face) -> bool:
        return inner.vertex_set <= outer.vertex_set

    def join(self, f: Face, g: Face) -> Face:
        """Smallest face containing both: the vertices of every facet tight at both."""
        verts = self.top().vertex_set
        for i in f.tight_facets & g.tight_facets:
            verts &= self.facet_vertices[i]
        return self.face_with_vertices(verts)


def face_lattice(P: LatticePolytope) -> FaceLattice:
    """Enumerate the nonempty faces of P.

    Every face is the intersection of the vertex sets of the facets
    containing it, so the faces are the closure of the facets' vertex
    sets under intersection, starting from the full vertex set (Kaibel and
    Pfetsch, 2002). A face is tight on the facets whose vertex set
    contains its own; its dimension is the affine rank of its vertices.
    """
    facet_vertices = [
        frozenset(vi for vi, v in enumerate(P.vertices) if _dot(a, v) == b)
        for a, b in P.facets
    ]
    top = frozenset(range(len(P.vertices)))
    seen = {top}
    todo = [top]
    while todo:
        face = todo.pop()
        for vs in facet_vertices:
            sub = face & vs
            if sub and sub not in seen:
                seen.add(sub)
                todo.append(sub)
    records = []
    for vs in seen:
        fdim = _affine_rank([P.vertices[i] for i in sorted(vs)])
        tight = frozenset(i for i, fv in enumerate(facet_vertices) if vs <= fv)
        records.append((fdim, tuple(sorted(vs)), tight))
    records.sort(key=lambda rec: (rec[0], rec[1]))
    faces = [Face(index=i, dim=fdim, vertex_set=frozenset(vs), tight_facets=tight)
             for i, (fdim, vs, tight) in enumerate(records)]
    lattice = FaceLattice(P, faces, facet_vertices)
    if len(lattice.by_dim[P.dim]) != 1:
        raise AssertionError("face lattice must contain exactly one top face")
    return lattice


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


def bounding_box(P: LatticePolytope, k: int) -> list[tuple[int, int]]:
    """Per-coordinate (min, max) of k*v over the vertices v: the box of kP."""
    box = []
    for c in range(P.dim):
        coords = [k * v[c] for v in P.vertices]
        box.append((min(coords), max(coords)))
    return box


def lattice_points(P: LatticePolytope, k: int, interior: bool = False) -> tuple[tuple[int, ...], ...]:
    """Integral points of the dilate kP, or of its interior, in lexicographic order.

    Boundary-inclusive counting needs k >= 0; interior counting accepts
    any k, with the inequalities reversed for negative dilations. Every
    prefix of the first dim-1 coordinates in the bounding box gets the
    interval of its last coordinate from the facet inequalities, by exact
    floor and ceiling division.
    """
    if not interior and k < 0:
        raise ValueError("boundary-inclusive counting needs k >= 0")
    if P.dim == 0:
        return ((),)
    # every facet as <a, m> >= c: negated for k < 0, strict ones raised by one
    sign = 1 if k >= 0 else -1
    rows = [(tuple(sign * x for x in a), sign * k * b + (1 if interior else 0))
            for a, b in P.facets]
    *head, (lo_box, hi_box) = bounding_box(P, k)
    points = []
    for prefix in product(*(range(lo, hi + 1) for lo, hi in head)):
        lo, hi = lo_box, hi_box
        for a, c in rows:
            rest, last = c - _dot(a, prefix), a[-1]
            if last > 0:
                lo = max(lo, -(-rest // last))
            elif last < 0:
                hi = min(hi, rest // last)
            elif rest > 0:
                break
        else:
            points.extend(prefix + (x,) for x in range(lo, hi + 1))
    return tuple(points)


class EhrhartPolynomial(Record):
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


def ehrhart_polynomial(P: LatticePolytope) -> EhrhartPolynomial:
    """Interpolate the lattice point counts of 0P..nP exactly.

    The coefficients c solve the Vandermonde system of the nodes 0..n,
    eliminated by ``row_echelon``: the nodes are distinct, so the rows
    come back as d*[I | c]. The node n+1 is reserved as a consistency
    guard; a mismatch there means an internal bug, not bad input.
    """
    n = P.dim
    rows = [[k ** j for j in range(n + 1)] + [len(lattice_points(P, k))] for k in range(n + 1)]
    m, _, _, d = row_echelon(rows)
    coeffs = tuple(Fraction(m[j][n + 1], d) for j in range(n + 1))
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


def np_index(P: LatticePolytope, ehrhart: EhrhartPolynomial | None = None) -> int:
    """Count of integral roots of the point-counting polynomial.

    ``ehrhart`` is P's polynomial when the caller already has it.
    Cross-checked against the minimal k >= 0 for which (k+1)P has an
    interior lattice point; disagreement raises CharacterizationMismatch.
    """
    if ehrhart is None:
        ehrhart = ehrhart_polynomial(P)
    via_roots = ehrhart.np
    via_interior = None
    for k in range(P.dim + 1):
        if lattice_points(P, k + 1, interior=True):
            via_interior = k
            break
    if via_interior != via_roots:
        raise CharacterizationMismatch(
            f"root count {via_roots} != minimal interior dilation index {via_interior}")
    return via_roots
