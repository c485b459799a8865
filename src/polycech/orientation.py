"""Incidence signs for codimension-one face pairs.

Every face gets a reference orientation from its lexicographically sorted
vertex list; the sign [F:G] compares (outward direction of F inside G,
basis of F) against the basis of G. With these signs the face-indexed
boundary operator squares to zero, which is checked on construction.
All determinants are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exact_linalg import Matrix, row_echelon
from .polytope import Face, FaceLattice, _affine_basis


class DegenerateBasis(Exception):
    """Internal guard: a face basis failed to span where it must."""


@dataclass(frozen=True)
class IncidenceSystem:
    """Signs keyed by (inner face index, outer face index); absent pairs are 0."""

    numbers: tuple[tuple[tuple[int, int], int], ...]
    _signs: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_signs", dict(self.numbers))

    def sign(self, inner: int, outer: int) -> int:
        return self._signs.get((inner, outer), 0)


def _sorted_vertices(lattice: FaceLattice, face: Face, reverse: bool) -> list[tuple[int, ...]]:
    coords = [lattice.polytope.vertices[i] for i in face.vertex_set]
    return sorted(coords, reverse=reverse)


def _oriented_basis(lattice: FaceLattice, face: Face, reverse: bool) -> list[tuple[int, ...]]:
    """Greedy rank-increasing difference vectors from the sorted vertex list."""
    verts = _sorted_vertices(lattice, face, reverse)
    base = verts[0]
    basis = [tuple(a - b for a, b in zip(verts[j], base)) for j in _affine_basis(verts)[1:]]
    if len(basis) != face.dim:
        raise DegenerateBasis(f"face {face.index} has no affine basis of size {face.dim}")
    return basis


def _coords_in_basis(basis: Sequence[Sequence[int]],
                     targets: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Solve basis-matrix * lambda = target for each target, exactly."""
    e = len(basis)
    aug = [list(col) + [t[i] for t in targets] for i, col in enumerate(zip(*basis))]
    R, pivots, _ = row_echelon(aug)
    if pivots[:e] != list(range(e)):
        raise DegenerateBasis("face basis is rank deficient")
    if len(pivots) > e:
        raise DegenerateBasis("target vector leaves the span of the face")
    return [[R[r][e + k] for r in range(e)] for k in range(len(targets))]


def _centroid(lattice: FaceLattice, face: Face) -> tuple[Fraction, ...]:
    pts = [lattice.polytope.vertices[i] for i in face.vertex_set]
    n = len(pts)
    return tuple(Fraction(sum(p[c] for p in pts), n) for c in range(lattice.polytope.dim))


def incidence_numbers(lattice: FaceLattice, reverse: bool = False) -> IncidenceSystem:
    """Assign [F:G] in {-1, +1} to each codimension-one pair F of G.

    ``reverse`` flips the lexicographic vertex order used for the
    reference orientations; homology downstream must not depend on it.
    """
    numbers: dict[tuple[int, int], int] = {}
    basis = [_oriented_basis(lattice, f, reverse) for f in lattice.faces]
    centroid = [_centroid(lattice, f) for f in lattice.faces]
    for outer in lattice.faces:
        if outer.dim == 0:
            continue
        for inner in lattice.by_dim[outer.dim - 1]:
            if not lattice.contains(inner, outer):
                continue
            outward = tuple(a - b for a, b in zip(centroid[inner.index], centroid[outer.index]))
            coords = _coords_in_basis(basis[outer.index], [outward] + basis[inner.index])
            lam = Matrix.from_rows(list(zip(*coords)))  # columns = coordinates
            d = lam.det()
            if d == 0:
                raise DegenerateBasis(
                    f"faces {inner.index} < {outer.index} give a singular comparison")
            numbers[(inner.index, outer.index)] = 1 if d > 0 else -1
    system = IncidenceSystem(tuple(sorted(numbers.items())))
    _check_boundary_squares_to_zero(lattice, system)
    return system


def _check_boundary_squares_to_zero(lattice: FaceLattice, system: IncidenceSystem) -> None:
    for top in lattice.faces:
        if top.dim < 2:
            continue
        for bottom in lattice.by_dim[top.dim - 2]:
            if not lattice.contains(bottom, top):
                continue
            total = sum(
                system.sign(bottom.index, mid.index) * system.sign(mid.index, top.index)
                for mid in lattice.by_dim[top.dim - 1]
                if lattice.contains(bottom, mid) and lattice.contains(mid, top)
            )
            if total != 0:
                raise AssertionError(
                    f"boundary fails to square to zero on flag {bottom.index} < {top.index}")
