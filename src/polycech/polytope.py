"""Lattice polytopes with exact arithmetic.

Facet enumeration from integral vertices by double description, the face
lattice as the intersection closure of the facets' vertex sets, its
dimensions and codimension-one pairs read off the lattice itself, the
facet mask of a point (``facet_mask``), which columns and monomial
validity read, and its line sweep over a box (``facet_runs``), which
lattice point enumeration and the line-bundle scan share, the Ehrhart
polynomial, whose coefficients are read off ``row_echelon`` of the
Vandermonde system of the point counts, the count of its integral
roots, and the splitting matrix of Euler characteristics (-1)^n E(k).

``row_echelon``, the package's one fraction-free elimination over Q, is
defined here, beside its only callers: it depends on nothing else in the
package, and the commands that need only the polytope then load only this
module and ``record``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterator, Sequence

from .record import Record


class NotFullDimensional(Exception):
    """Raised when the given vertices do not affinely span R^n."""


class DuplicateVertex(Exception):
    """Raised when the vertex list contains a repeated point."""


class InterpolationInconsistent(Exception):
    """Internal guard: the interpolated point count failed its spare node."""


class CharacterizationMismatch(Exception):
    """Internal guard: the two descriptions of the root count disagree."""


class TooLarge(Exception):
    """The work a computation would take passes its budget."""


class NotUnimodular(Exception):
    """The splitting matrix is not lower triangular with diagonal (-1)^n."""


# most faces times facets the closure in ``face_lattice`` will reach (it
# intersects every face it finds with every facet), and most held rays the
# adjacency tests of ``_hull_rays`` will scan
FACE_LATTICE_BUDGET = 1_000_000


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


def row_echelon(rows: Sequence[Sequence]):
    """Reduced row echelon form over Q by fraction-free Gauss-Jordan elimination.

    The pivot of each column is its first nonzero entry at or below the
    current rank. Returns (m, pivots, d): the eliminated rows m are d times
    the reduced matrix R, and ``pivots`` is the pivot column of each
    nonzero row of R.

    The elimination is Bareiss's (1968). Each row is multiplied by the
    common denominator of its entries, and each step replaces every other
    row a by (x*a - c*b) / d, where b is the pivot row, x its pivot, c the
    row's entry in the pivot column and d the previous pivot. The division
    is exact: every entry stays an integer minor of the cleared matrix,
    and after the last step the pivot rows are d times the rows of R, so m
    holds ints and R is Fraction(a, d).
    """
    m = []
    for row in rows:
        row = [a if type(a) is int else Fraction(a) for a in row]
        fracs = [a.denominator for a in row if type(a) is not int]
        den = lcm(*fracs)
        m.append([int(a * den) for a in row] if fracs else row)
    nrows = len(m)
    pivots: list[int] = []
    prev = 1
    for j in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][j]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        x, top = m[r][j], m[r]
        for i in range(nrows):
            c = m[i][j]
            if i == r or not c and x == prev:
                continue
            m[i] = [(x * a - c * b) // prev for a, b in zip(m[i], top)]
        prev = x
        pivots.append(j)
    return m, pivots, prev


def _affine_basis(points: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a maximal affinely independent subset, taken greedily from the front."""
    base = points[0]
    cols = [[p[c] - base[c] for p in points[1:]] for c in range(len(base))]
    return [0] + [j + 1 for j in row_echelon(cols)[1]]


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
    its mask, which at the end covers every point it is tight on. Each
    adjacency test scans every held ray; raises TooLarge once the scans
    pass ``FACE_LATTICE_BUDGET``.
    """
    d = len(lifted[0])
    rows = [list(lifted[i]) + [int(r == c) for c in range(d)] for r, i in enumerate(basis)]
    m, _, den = row_echelon(rows)
    sign = 1 if den > 0 else -1
    rays = [(_primitive([sign * m[r][d + j] for r in range(d)]),
             sum(1 << b for b in basis if b != i)) for j, i in enumerate(basis)]
    rest = sorted(set(range(len(lifted))) - set(basis))
    scans = 0
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
                scans += len(masks)
                if scans > FACE_LATTICE_BUDGET:
                    raise TooLarge(f"the facet enumeration's adjacency tests scan {scans} "
                                   f"rays, more than the budget of {FACE_LATTICE_BUDGET}")
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

    Raises DuplicateVertex or NotFullDimensional on bad input,
    ValueError when some input point is not a vertex of the hull, and
    TooLarge when the double description passes its budget.
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
    return facets_from_vertices(n, verts)


class Face(Record):
    """Nonempty face of a polytope, stored by its vertex indices."""

    index: int
    dim: int
    vertex_set: frozenset[int]
    tight_facets: frozenset[int]


class FaceLattice:
    """All nonempty faces of a polytope; ``face_lattice`` orders them by
    dimension, then by sorted vertex indices, so the top face is last.
    ``by_dim[d]`` holds the faces of dimension d, and ``codim_one[g]`` the
    faces of dimension dim G - 1 in face g, by index.
    """

    def __init__(self, polytope: LatticePolytope, faces: Sequence[Face],
                 codim_one: Sequence[Sequence[Face]]):
        self.polytope = polytope
        self.faces = tuple(faces)
        self.codim_one = tuple(tuple(below) for below in codim_one)
        self.by_dim: dict[int, tuple[Face, ...]] = {}
        for d in range(polytope.dim + 1):
            self.by_dim[d] = tuple(f for f in self.faces if f.dim == d)


def face_lattice(P: LatticePolytope) -> FaceLattice:
    """Enumerate the nonempty faces of P.

    Every face is the intersection of the vertex sets of the facets
    containing it, so the faces are the closure of the facets' vertex
    sets under intersection, starting from the full vertex set (Kaibel and
    Pfetsch, 2002). Dimensions come from the lattice alone, with no
    elimination: one pass over the faces by ascending vertex count meets
    each face G with every facet's vertex set. G is tight on the facets
    whose meet is G itself; the smaller nonempty meets are faces below G,
    among them every facet of G, since a facet of G lies in a facet of P
    that G does not. The face lattice is graded, so dim G is one more
    than the largest dimension below it (0 for a vertex), and the meets
    of dimension dim G - 1 are ``codim_one[g]``. Raises TooLarge once
    the faces found times the facets pass ``FACE_LATTICE_BUDGET``.
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
                if len(seen) * len(facet_vertices) > FACE_LATTICE_BUDGET:
                    raise TooLarge(f"the face lattice reaches {len(seen)} faces times "
                                   f"{len(facet_vertices)} facets, more than the budget "
                                   f"of {FACE_LATTICE_BUDGET}")
    order = sorted(seen, key=len)
    position = {vs: p for p, vs in enumerate(order)}
    dims: list[int] = []
    tights, belows = [], []
    for vs in order:
        tight, below = [], set()
        for i, fv in enumerate(facet_vertices):
            common = vs & fv
            if common == vs:
                tight.append(i)
            elif common:
                below.add(position[common])
        dims.append(1 + max((dims[q] for q in below), default=-1))
        tights.append(frozenset(tight))
        belows.append([q for q in below if dims[q] == dims[-1] - 1])
    # faces by (dim, sorted vertices); index[p] is the index of order[p]
    ranked = sorted(range(len(order)), key=lambda p: (dims[p], sorted(order[p])))
    index = [0] * len(order)
    for i, p in enumerate(ranked):
        index[p] = i
    faces = [Face(index=i, dim=dims[p], vertex_set=order[p], tight_facets=tights[p])
             for i, p in enumerate(ranked)]
    codim_one = [[faces[j] for j in sorted(index[q] for q in belows[p])] for p in ranked]
    lattice = FaceLattice(P, faces, codim_one)
    if len(lattice.by_dim[P.dim]) != 1:
        raise AssertionError("face lattice must contain exactly one top face")
    return lattice


def bounding_box(P: LatticePolytope, k: int) -> list[tuple[int, int]]:
    """Per-coordinate (min, max) of k*v over the vertices v: the box of kP."""
    box = []
    for c in range(P.dim):
        coords = [k * v[c] for v in P.vertices]
        box.append((min(coords), max(coords)))
    return box


def facet_runs(constraints: Sequence[tuple[Sequence[int], int]],
               box: Sequence[tuple[int, int]]) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Runs of equal mask over ``box``, one line at a time along the last
    coordinate: ``(m, length, mask)`` per run, m its first point, in
    product order. Bit i of the mask is set where constraint i = (a, c)
    holds, <a, m> >= c. On the line through a prefix m' that is where
    a[-1]*x >= c - <a[:-1], m'>, a half-line, everywhere or nowhere, so
    each constraint flips the mask at most once along a line. A
    0-dimensional box is the one point ().
    """
    if not box:
        yield (), 1, sum(1 << i for i, (_, c) in enumerate(constraints) if c <= 0)
        return
    *heads, (lo, hi) = box
    rows = [(1 << i, a[:-1], a[-1], c) for i, (a, c) in enumerate(constraints)]
    for prefix in product(*(range(a, b + 1) for a, b in heads)):
        mask = 0
        flips = []  # (x, bit): the bit flips from x on
        for bit, head, a, c in rows:
            r = c - sum(map(mul, head, prefix))
            if a > 0:
                x = -(-r // a)  # first x where the constraint holds
                if x <= lo:
                    mask |= bit
                elif x <= hi:
                    flips.append((x, bit))
            elif a < 0:
                x = r // a + 1  # first x where it fails
                if x > lo:
                    mask |= bit
                    if x <= hi:
                        flips.append((x, bit))
            elif r <= 0:
                mask |= bit
        start = lo
        if flips:
            flips.sort()
            for x, bit in flips:
                if x > start:
                    yield prefix + (start,), x - start, mask
                    start = x
                mask ^= bit
        yield prefix + (start,), hi - start + 1, mask


def facet_mask(P: LatticePolytope, k: int, m: Sequence[int]) -> int:
    """The point form of ``facet_runs`` on kP: bit i is set iff
    <a_i, m> >= k*b_i."""
    mask = 0
    for i, (normal, offset) in enumerate(P.facets):
        if sum(map(mul, normal, m)) >= k * offset:
            mask |= 1 << i
    return mask


def lattice_points(P: LatticePolytope, k: int, interior: bool = False) -> tuple[tuple[int, ...], ...]:
    """Integral points of the dilate kP, or of its interior, in lexicographic order:
    the runs of ``facet_runs`` over its bounding box on which every facet holds.

    Boundary-inclusive counting needs k >= 0; interior counting accepts
    any k, with the inequalities reversed for negative dilations.
    """
    if not interior and k < 0:
        raise ValueError("boundary-inclusive counting needs k >= 0")
    if P.dim == 0:
        return ((),)
    # every facet as <a, m> >= c: negated for k < 0, strict ones raised by one
    sign = 1 if k >= 0 else -1
    rows = [(tuple(sign * x for x in a), sign * k * b + (1 if interior else 0))
            for a, b in P.facets]
    every = (1 << len(rows)) - 1
    return tuple(m[:-1] + (x,) for m, length, mask in facet_runs(rows, bounding_box(P, k))
                 if mask == every for x in range(m[-1], m[-1] + length))


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


def ehrhart_polynomial(P: LatticePolytope) -> EhrhartPolynomial:
    """Interpolate the lattice point counts of 0P..nP exactly.

    The coefficients c solve the Vandermonde system of the nodes 0..n,
    eliminated by ``row_echelon``: the nodes are distinct, so the rows
    come back as d*[I | c]. The node n+1 is reserved as a consistency
    guard; a mismatch there means an internal bug, not bad input.
    """
    n = P.dim
    rows = [[k ** j for j in range(n + 1)] + [len(lattice_points(P, k))] for k in range(n + 1)]
    m, _, d = row_echelon(rows)
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


def twist_euler_characteristic(P: LatticePolytope, e: Callable[[int], Fraction], k: int) -> int:
    """chi(O(k)) = (-1)^n E(k), for E = ``e`` the point count of P."""
    val = e(k)
    if val.denominator != 1:
        raise AssertionError(f"point-counting value E({k}) = {val} is not integral")
    return (-1) ** P.dim * int(val)


def splitting_rows(P: LatticePolytope, e: Callable[[int], Fraction], npi: int) -> list[list[int]]:
    """The splitting matrix chi(O(j - l)), 0 <= j, l <= npi, P's root count: a
    Toeplitz table of point counts E = ``e``, with no face lattice or Čech
    column. NotUnimodular names its first entry off the lower triangular
    pattern with diagonal (-1)^n, which makes the determinant a unit."""
    rows = [[twist_euler_characteristic(P, e, j - ell) for ell in range(npi + 1)]
            for j in range(npi + 1)]
    # row 0 holds every value on and above the diagonal, so it fails first
    sign_n = (-1) ** P.dim
    if rows[0][0] != sign_n:
        raise NotUnimodular(f"diagonal entry (0, 0) is {rows[0][0]}, not {sign_n}")
    for ell, x in enumerate(rows[0][1:], start=1):
        if x:
            raise NotUnimodular(f"entry (0, {ell}) above the diagonal is {x}")
    return rows
