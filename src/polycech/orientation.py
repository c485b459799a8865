"""Incidence signs for codimension-one face pairs.

Every face gets a reference orientation from its lexicographically sorted
vertex list; the sign [F:G] compares (outward direction of F inside G,
basis of F) against the basis of G. With these signs the face-indexed
boundary operator squares to zero, which is checked on construction.
All arithmetic is in integers: one elimination per face and one integer
minor per pair, with no rational coordinates solved for.
"""

from __future__ import annotations

from .exact_linalg import Matrix, row_echelon
from .polytope import Face, FaceLattice, _dot
from .record import Record


class DegenerateBasis(Exception):
    """Internal guard: a face basis failed to span where it must."""


class IncidenceSystem(Record):
    """Signs keyed by (inner face index, outer face index); absent pairs are 0."""

    numbers: tuple[tuple[tuple[int, int], int], ...]
    _signs: dict[tuple[int, int], int]  # set by __post_init__, not a field

    def __post_init__(self) -> None:
        object.__setattr__(self, "_signs", dict(self.numbers))

    def sign(self, inner: int, outer: int) -> int:
        return self._signs.get((inner, outer), 0)


def _sorted_vertices(lattice: FaceLattice, face: Face, reverse: bool) -> list[tuple[int, ...]]:
    coords = [lattice.polytope.vertices[i] for i in face.vertex_set]
    return sorted(coords, reverse=reverse)


def _oriented_basis(lattice: FaceLattice, face: Face,
                    reverse: bool) -> tuple[list[tuple[int, ...]], list[int], int]:
    """Oriented basis of a face, coordinates on which it is invertible, and that minor's sign.

    The basis is the greedy rank-increasing run of difference vectors
    from the sorted vertex list. One elimination of [differences | I]
    finds it: its pivots among the differences pick the basis, and its
    pivots among the unit vectors e_t pick coordinates T that complete
    the basis to a basis of Q^n, so the basis restricted to the other
    coordinates S is invertible. Since [basis | e_T] has full rank, its
    determinant is the elimination's scale, and moving the rows of T
    below those of S turns it into the minor on S.
    """
    verts = _sorted_vertices(lattice, face, reverse)
    base = verts[0]
    n = len(base)
    diffs = [tuple(a - b for a, b in zip(v, base)) for v in verts[1:]]
    rows = [[v[c] for v in diffs] + [int(c == t) for t in range(n)] for c in range(n)]
    _, pivots, scale, _ = row_echelon(rows)
    basis = [diffs[j] for j in pivots if j < len(diffs)]
    if len(basis) != face.dim:
        raise DegenerateBasis(f"face {face.index} has no affine basis of size {face.dim}")
    completion = {j - len(diffs) for j in pivots[face.dim:]}
    coords = [c for c in range(n) if c not in completion]
    swaps = sum(1 for s in coords for t in completion if t < s)
    return basis, coords, (1 if scale > 0 else -1) * (-1) ** swaps


def incidence_numbers(lattice: FaceLattice, reverse: bool = False) -> IncidenceSystem:
    """Assign [F:G] in {-1, +1} to each codimension-one pair F of G.

    [F:G] is the sign of the determinant of (outward direction of F in G,
    basis of F) in the coordinates of the basis of G. With n_F vertices
    summing to s_F, v = n_G*s_F - n_F*s_G is n_F*n_G > 0 times the
    difference of the centroids, and the vectors (v, basis of F) are the
    basis of G times that coordinate matrix. On the coordinates where the
    basis of G has an invertible minor, the determinant of (v, basis of F)
    is that minor times the determinant sought: one integer minor per pair.

    ``reverse`` flips the lexicographic vertex order used for the
    reference orientations; homology downstream must not depend on it.
    """
    polytope = lattice.polytope
    numbers: dict[tuple[int, int], int] = {}
    oriented = [_oriented_basis(lattice, f, reverse) for f in lattice.faces]
    sums = [[sum(col) for col in zip(*(polytope.vertices[i] for i in f.vertex_set))]
            for f in lattice.faces]
    for outer in lattice.faces:
        if outer.dim == 0:
            continue
        _, coords, minor_sign = oriented[outer.index]
        normals = [polytope.facets[i][0] for i in outer.tight_facets]
        n_outer = len(outer.vertex_set)
        for inner in lattice.codim_one[outer.index]:
            n_inner = len(inner.vertex_set)
            outward = [n_outer * a - n_inner * b
                       for a, b in zip(sums[inner.index], sums[outer.index])]
            vectors = [outward] + oriented[inner.index][0]
            # the direction space of G is cut out by the normals of the facets tight at G
            if any(_dot(a, w) for a in normals for w in vectors):
                raise DegenerateBasis(
                    f"a vector of face {inner.index} leaves the span of face {outer.index}")
            d = Matrix.from_rows([[w[c] for w in vectors] for c in coords]).det()
            if d == 0:
                raise DegenerateBasis(
                    f"faces {inner.index} < {outer.index} give a singular comparison")
            numbers[(inner.index, outer.index)] = minor_sign if d > 0 else -minor_sign
    system = IncidenceSystem(tuple(sorted(numbers.items())))
    _check_boundary_squares_to_zero(lattice, system)
    return system


def _check_boundary_squares_to_zero(lattice: FaceLattice, system: IncidenceSystem) -> None:
    # each flag bottom < mid < top, one dimension apart, is reached once:
    # through mid in codim_one[top] and bottom in codim_one[mid]
    for top in lattice.faces:
        totals: dict[int, int] = {}
        for mid in lattice.codim_one[top.index]:
            outer = system.sign(mid.index, top.index)
            for bottom in lattice.codim_one[mid.index]:
                totals[bottom.index] = (totals.get(bottom.index, 0)
                                        + system.sign(bottom.index, mid.index) * outer)
        for bottom, total in totals.items():
            if total != 0:
                raise AssertionError(
                    f"boundary fails to square to zero on flag {bottom} < {top.index}")
