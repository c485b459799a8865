"""Incidence signs for codimension-one face pairs.

The signs come from the face lattice alone, with no coordinates, no
elimination and no determinant. Every interval of length 2 in the face
lattice of a polytope is a diamond (Ziegler, Lectures on Polytopes,
Thm 2.7), so a ridge R of a face G lies in exactly two facets F, F' of G,
and the boundary squares to zero exactly when [R:F][F:G] = -[R:F'][F':G]
on every such diamond. Signs are fixed one face at a time, ascending in
dimension, by walking from one facet of G to the next through their
shared ridges. They differ from the geometric signs of oriented faces by
one sign per face, which leaves homology unchanged (Björner, Eur. J.
Combin. 5, 1984). The boundary squaring to zero is checked on
construction.
"""

from __future__ import annotations

from .polytope import FaceLattice
from .record import Record


class IncidenceSystem(Record):
    """Signs keyed by (inner face index, outer face index); absent pairs are 0."""

    numbers: tuple[tuple[tuple[int, int], int], ...]
    _signs: dict[tuple[int, int], int]  # set by __post_init__, not a field

    def __post_init__(self) -> None:
        object.__setattr__(self, "_signs", dict(self.numbers))

    def sign(self, inner: int, outer: int) -> int:
        return self._signs.get((inner, outer), 0)


def incidence_numbers(lattice: FaceLattice, reverse: bool = False) -> IncidenceSystem:
    """Assign [F:G] in {-1, +1} to each codimension-one pair F of G.

    Faces are signed in index order, so ascending in dimension. In each
    face G the first facet, by index, gets +1, or the last one when
    ``reverse`` is set. The sign then spreads to the other facets through
    the ridges they share, by [R:F][F:G] = -[R:F'][F':G]; the two
    vertices of an edge share the empty face, with [empty:v] = 1, so they
    get opposite signs. ``reverse`` thus keeps the signs of a face G or
    negates all of them, the latter on every edge and on every G whose
    last facet the forward walk signs -1; homology downstream must not
    depend on it.
    """
    numbers: dict[tuple[int, int], int] = {}

    def ridges(f: int) -> list[int]:
        # the two vertices of an edge share the empty face, written -1
        return [r.index for r in lattice.codim_one[f]] or [-1]

    for outer in lattice.faces:
        facets = [f.index for f in lattice.codim_one[outer.index]]
        if not facets:
            continue
        through: dict[int, list[int]] = {}  # the facets of G through each ridge
        for f in facets:
            for r in ridges(f):
                through.setdefault(r, []).append(f)
        if any(len(pair) != 2 for pair in through.values()):
            raise AssertionError(
                f"a ridge of face {outer.index} lies in other than two facets of it")
        seed = facets[-1 if reverse else 0]
        signs = {seed: 1}
        todo = [seed]
        while todo:
            f = todo.pop()
            for r in ridges(f):
                a, b = through[r]
                g = b if a == f else a
                if g not in signs:
                    # [R:F][F:G] = -[R:F'][F':G], and [empty:v] = 1
                    ridge_signs = 1 if r < 0 else numbers[(r, f)] * numbers[(r, g)]
                    signs[g] = -signs[f] * ridge_signs
                    todo.append(g)
        if len(signs) != len(facets):
            raise AssertionError(f"a facet of face {outer.index} was left unsigned")
        for f, sign in signs.items():
            numbers[(f, outer.index)] = sign
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
