"""Answers for the benchmark's checks, computed without polycech.

Ehrhart polynomials come from closed forms of the base shapes and from
Pick's theorem for polygons; lattice points of dilates from each shape's
own inequalities, mapped through the input's lattice symmetry; ranks and
invariant factors of multiplication matrices from sympy, and ranks over
F_p from the elimination below. Nothing in this module imports polycech.

A checker returns None when the program's answer is right and a short
reason when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, gcd
from typing import Callable, Sequence

Vector = tuple[int, ...]
Homology = dict[int, tuple[int, tuple[int, ...]]]


# --- polynomials in one variable, coefficients ascending -------------------

def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def linear_product(factors: Sequence[tuple[int, int]], scale: Fraction) -> list[Fraction]:
    """scale * prod (c + d k) over the (c, d) pairs."""
    out = [Fraction(scale)]
    for c, d in factors:
        out = poly_mul(out, [Fraction(c), Fraction(d)])
    return out


def poly_eval(coeffs: Sequence[Fraction], k: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


# --- shapes -----------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """A lattice polytope with its answers known in closed form.

    ``contains(x, k)`` tests x against the k-dilate of the untransformed
    shape; ``radius`` bounds its vertex coordinates, so kP0 lies in the
    box [-k*radius, k*radius]^dim.
    """

    name: str
    dim: int
    vertices: tuple[Vector, ...]
    ehrhart: tuple[Fraction, ...]
    f_vector: tuple[int, ...]
    contains: Callable[[Vector, int], bool] | None = None
    radius: int = 1


def _simplex(n: int) -> Shape:
    verts = [tuple(0 for _ in range(n))]
    verts += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    # E(k) = binom(k + n, n); faces of the n-simplex: binom(n+1, d+1)
    f_vector = tuple(factorial(n + 1) // (factorial(d + 1) * factorial(n - d))
                     for d in range(n + 1))
    return Shape(f"simplex{n}", n, tuple(verts),
                 tuple(linear_product([(i, 1) for i in range(1, n + 1)],
                                      Fraction(1, factorial(n)))),
                 f_vector, lambda x, k: min(x) >= 0 and sum(x) <= k)


def _cube(n: int) -> Shape:
    f_vector = tuple(factorial(n) // (factorial(d) * factorial(n - d)) * 2 ** (n - d)
                     for d in range(n + 1))
    return Shape("square" if n == 2 else "cube" if n == 3 else f"cube{n}", n,
                 tuple(product((0, 1), repeat=n)),
                 tuple(linear_product([(1, 1)] * n, Fraction(1))),
                 f_vector, lambda x, k: min(x) >= 0 and max(x) <= k)


PYRAMID = Shape(
    "pyramid", 3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)),
    # sum over heights z of (k - z + 1)^2 = (k+1)(k+2)(2k+3)/6
    tuple(linear_product([(1, 1), (2, 1), (3, 2)], Fraction(1, 6))),
    (5, 8, 5, 1),
    lambda x, k: 0 <= x[2] <= k and 0 <= x[0] <= k - x[2] and 0 <= x[1] <= k - x[2])

OCTAHEDRON = Shape(
    "octahedron", 3,
    ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
    # (2k+1)(2k^2+2k+3)/3
    tuple(poly_mul([Fraction(1), Fraction(2)],
                   [Fraction(1), Fraction(2, 3), Fraction(2, 3)])),
    (6, 12, 8, 1),
    lambda x, k: sum(abs(c) for c in x) <= k)

BASE_SHAPES = {s.name: s for s in (_simplex(2), _simplex(3), _cube(2), _cube(3), PYRAMID,
                                   OCTAHEDRON)}
CUBE4 = _cube(4)


def pick_polygon(name: str, cyclic: Sequence[Vector]) -> Shape:
    """Polygon from its vertices in cyclic order: E(k) = A k^2 + (B/2) k + 1."""
    twice_area = 0
    boundary = 0
    for (x0, y0), (x1, y1) in zip(cyclic, list(cyclic[1:]) + [cyclic[0]]):
        twice_area += x0 * y1 - x1 * y0
        boundary += gcd(x1 - x0, y1 - y0)
    coeffs = (Fraction(1), Fraction(boundary, 2), Fraction(abs(twice_area), 2))
    n = len(cyclic)
    return Shape(name, 2, tuple(cyclic), coeffs, (n, n, 1))


def prism(base: Shape) -> Shape:
    """base x [0, 1]: E(k) = E_base(k) (k + 1); an n-gon prism has f = (2n, 3n, n+2, 1)."""
    n = base.f_vector[0]
    verts = tuple(v + (z,) for v in base.vertices for z in (0, 1))
    return Shape(f"prism{n}", 3, verts, tuple(poly_mul(base.ehrhart, [Fraction(1)] * 2)),
                 (2 * n, 3 * n, n + 2, 1))


def euler_relation_holds(f_vector: Sequence[int]) -> bool:
    """Faces of every dimension, the polytope itself included: sum (-1)^d f_d = 1."""
    return sum(-f if d % 2 else f for d, f in enumerate(f_vector)) == 1


def ehrhart_value(shape: Shape, k: int) -> int:
    """E(k); for k < 0 this is (-1)^n times the interior count of |k|P (reciprocity)."""
    val = poly_eval(shape.ehrhart, k)
    if val.denominator != 1:
        raise AssertionError(f"{shape.name}: E({k}) = {val} is not an integer")
    return int(val)


def np_of(shape: Shape) -> int:
    """Number of k = 1, 2, ... with no interior point in kP, read by reciprocity."""
    k = 1
    while k <= shape.dim and ehrhart_value(shape, -k) == 0:
        k += 1
    return k - 1


# --- lattice symmetries -----------------------------------------------------

@dataclass(frozen=True)
class Symmetry:
    """x -> signs * x[perm] + shift: a lattice automorphism of Z^n.

    It keeps the bounding box, the face lattice and every point count of
    a shape, so seeded inputs differ while the work per input does not.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]
    shift: tuple[int, ...]

    def apply(self, x: Vector, k: int = 1) -> Vector:
        """Image of x, a point of kP0, as a point of kP."""
        return tuple(s * x[p] + k * t for p, s, t in zip(self.perm, self.signs, self.shift))

    def linear(self, x: Vector) -> Vector:
        return tuple(s * x[p] for p, s in zip(self.perm, self.signs))


def dilate_points(shape: Shape, sym: Symmetry, k: int) -> list[Vector]:
    """Lattice points of k * sym(P0) for k >= 0, sorted, by the shape's own test."""
    if shape.contains is None:
        raise ValueError(f"{shape.name} has no membership test")
    span = range(-k * shape.radius, k * shape.radius + 1)
    pts = sorted(sym.apply(x, k) for x in product(span, repeat=shape.dim)
                 if shape.contains(x, k))
    if len(pts) != ehrhart_value(shape, k):
        raise AssertionError(f"{shape.name}: {len(pts)} points in {k}P, E({k}) disagrees")
    return pts


# --- exact linear algebra for the checks ------------------------------------

def invariant_factors(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Nonzero Smith invariant factors over Z, ascending (sympy)."""
    if not rows or not ncols:
        return []
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors as sympy_factors
    from sympy.polys.domains import ZZ
    return sorted(abs(int(f)) for f in sympy_factors(Matrix(rows), domain=ZZ) if f != 0)


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    work = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        for r in range(len(work)):
            if r != rank and work[r][c]:
                f = work[r][c] * inv % p
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def multiplication_matrix(shape: Shape, sym: Symmetry, a: int, b: int,
                          terms: Sequence[tuple[int, Vector]]) -> list[list[int]]:
    """Matrix of multiplication by sum c x^u from the points of aP to those of bP."""
    src = dilate_points(shape, sym, a)
    tgt = {m: i for i, m in enumerate(dilate_points(shape, sym, b))}
    rows = [[0] * len(src) for _ in tgt]
    for j, m in enumerate(src):
        for c, u in terms:
            rows[tgt[tuple(x + y for x, y in zip(m, u))]][j] += c
    return rows


# --- expected homology ------------------------------------------------------

def _add(groups: dict[int, list], degree: int, free: int) -> None:
    if free:
        groups.setdefault(degree, [0, []])[0] += free


def line_bundle_homology(shape: Shape, k: int, level: int = 0) -> Homology:
    """O(k): degree n with E(k) for k >= 0; zero for -n_P <= k < 0; else degree 0
    with the interior count of |k|P, all shifted up by the level."""
    n = shape.dim
    if k >= 0:
        return {n + level: (ehrhart_value(shape, k), ())}
    if k >= -np_of(shape):
        return {}
    return {level: ((-1) ** n * ehrhart_value(shape, k), ())}


@dataclass(frozen=True)
class Piece:
    """One block of a seeded twist complex.

    A cone piece is multiplication by ``terms`` from O(a) at level+1 to
    O(b) at ``level``; a bundle piece is O(a) at ``level`` (b unused).
    """

    kind: str  # "cone" or "bundle"
    level: int
    a: int
    b: int = 0
    terms: tuple[tuple[int, Vector], ...] = ()


def complex_homology(shape: Shape, sym: Symmetry, pieces: Sequence[Piece],
                     ring: str) -> Homology:
    """Homology of the Čech complex of a direct sum of pieces over Z, Q or Fp:<p>.

    A cone contributes ker(M) in degree n+level+1 and coker(M) in degree
    n+level, M its multiplication matrix; over Z the torsion in each
    degree is the invariant factors > 1 of all cokernels landing there.
    """
    n = shape.dim
    groups: dict[int, list] = {}
    coker_blocks: dict[int, list[list[list[int]]]] = {}
    for piece in pieces:
        if piece.kind == "bundle":
            for d, (free, _) in line_bundle_homology(shape, piece.a, piece.level).items():
                _add(groups, d, free)
            continue
        M = multiplication_matrix(shape, sym, piece.a, piece.b, piece.terms)
        ncols = len(M[0]) if M else 0
        if ring.startswith("Fp:"):
            r = rank_mod_p(M, int(ring[3:]))
        else:
            r = len(invariant_factors(M, ncols))
            if ring == "Z":
                coker_blocks.setdefault(n + piece.level, []).append(M)
        _add(groups, n + piece.level + 1, ncols - r)
        _add(groups, n + piece.level, len(M) - r)
    for d, blocks in coker_blocks.items():
        torsion = [f for f in invariant_factors(*_block_diagonal(blocks)) if f > 1]
        if torsion:
            groups.setdefault(d, [0, []])[1] = torsion
    return {d: (free, tuple(torsion)) for d, (free, torsion) in sorted(groups.items())}


def _block_diagonal(blocks: Sequence[list[list[int]]]) -> tuple[list[list[int]], int]:
    ncols = sum(len(B[0]) if B else 0 for B in blocks)
    rows: list[list[int]] = []
    off = 0
    for B in blocks:
        width = len(B[0]) if B else 0
        for row in B:
            rows.append([0] * off + list(row) + [0] * (ncols - off - width))
        off += width
    return rows, ncols


def signed_ehrhart_sum(shape: Shape, levels: dict[int, list[int]]) -> int:
    """Euler characteristic: sum over summands O(k) at level t of (-1)^t (-1)^n E(k)."""
    n = shape.dim
    return sum((-1) ** (t % 2) * (-1) ** n * ehrhart_value(shape, k)
               for t, twists in levels.items() for k in twists)


# --- checkers ---------------------------------------------------------------

def check_homology(expected: Homology, got: Homology) -> str | None:
    if got != expected:
        return f"homology {got} != expected {expected}"
    return None


def check_chi(shape: Shape, levels: dict[int, list[int]], got: Homology) -> str | None:
    chi = sum(-free if d % 2 else free for d, (free, _) in got.items())
    want = signed_ehrhart_sum(shape, levels)
    if chi != want:
        return f"Euler characteristic {chi} != signed Ehrhart sum {want}"
    return None


def check_window(shape: Shape, flags: Sequence[bool]) -> str | None:
    """Acyclicity of O(-k), k = 1..n+1, is true exactly for k <= n_P."""
    want = tuple(k <= np_of(shape) for k in range(1, shape.dim + 2))
    if tuple(flags) != want:
        return f"acyclicity flags {tuple(flags)} != expected {want}"
    return None


def splitting_matrix(shape: Shape) -> list[list[int]]:
    """(n_P+1)^2 matrix with entries (-1)^n E(j - l); zero above the diagonal."""
    npi, n = np_of(shape), shape.dim
    return [[(-1) ** n * ehrhart_value(shape, j - ell) for ell in range(npi + 1)]
            for j in range(npi + 1)]


def check_splitting(shape: Shape, rows: Sequence[Sequence[int]]) -> str | None:
    want = splitting_matrix(shape)
    got = [list(r) for r in rows]
    if got != want:
        return f"splitting matrix {got} != expected {want}"
    sign = (-1) ** shape.dim
    for j, row in enumerate(want):
        if any(row[ell] for ell in range(j + 1, len(row))) or row[j] != sign:
            raise AssertionError(f"{shape.name}: oracle splitting matrix is not unitriangular")
    return None


def check_ehrhart_document(shape: Shape, doc: dict) -> str | None:
    want = [str(c) for c in shape.ehrhart]
    npi = np_of(shape)
    if doc.get("coeffs") != want:
        return f"Ehrhart coefficients {doc.get('coeffs')} != expected {want}"
    if doc.get("np") != npi or doc.get("integral_roots") != list(range(-npi, 0)):
        return f"n_P {doc.get('np')} / roots {doc.get('integral_roots')} != expected {npi}"
    return None


def check_faces_document(shape: Shape, doc: dict) -> str | None:
    fv = doc.get("f_vector")
    if fv != list(shape.f_vector):
        return f"f-vector {fv} != expected {list(shape.f_vector)}"
    if not euler_relation_holds(fv) or len(doc.get("faces", ())) != sum(fv):
        return f"f-vector {fv} breaks the Euler relation or the face list"
    return None


def check_splitting_document(shape: Shape, doc: dict) -> str | None:
    reason = check_splitting(shape, doc.get("matrix", []))
    if reason:
        return reason
    if doc.get("det") not in (1, -1) or doc.get("unimodular") is not True:
        return f"det {doc.get('det')}, unimodular {doc.get('unimodular')}"
    return None


def check_verify_document(doc: dict) -> str | None:
    failed = [item.get("name") for item in doc.get("results", ()) if not item.get("pass")]
    if doc.get("ok") is not True or failed or not doc.get("results"):
        return f"verify reported failures {failed}"
    return None


def homology_from_json(groups: Sequence[dict]) -> Homology:
    return {g["degree"]: (g["free_rank"], tuple(g["torsion"])) for g in groups}
