"""Bounded complexes of line-bundle twists with monomial differentials.

A term of the complex at level t is a finite direct sum of twists O(k);
a differential entry from O(a) to O(b) is a formal sum of lattice points
u of the dilate (b-a)P acting as multiplication by x^u. Constructors for
twisting, suspension, mapping cones, direct sums, and O(k) tensor a free
module complex keep everything inside this fragment.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .exact_linalg import FreeChainComplex
from .polytope import LatticePolytope, facet_mask
from .record import Record

# a formal sum of monomials: ((coeff, exponent vector), ...)
Terms = tuple[tuple[int, tuple[int, ...]], ...]
EntryMap = dict[tuple[int, int], Terms]


class InvalidMonomial(Exception):
    def __init__(self, level: int, row: int, col: int, u: tuple[int, ...], reason: str = ""):
        self.level, self.row, self.col, self.u = level, row, col, u
        msg = f"monomial {u} invalid at level {level}, entry ({row}, {col})"
        super().__init__(msg + (f": {reason}" if reason else ""))


class NonSquareZero(Exception):
    def __init__(self, level: int):
        self.level = level
        super().__init__(f"differentials at levels {level} and {level - 1} do not compose to zero")


class NotChainMap(Exception):
    """Raised when a would-be cone map fails to commute with the differentials."""


def _merge_terms(terms) -> Terms:
    acc: dict[tuple[int, ...], int] = {}
    for c, u in terms:
        u = tuple(int(x) for x in u)
        acc[u] = acc.get(u, 0) + c
    return tuple(sorted((c, u) for u, c in acc.items() if c != 0))


def _scale_terms(terms: Terms, c: int) -> Terms:
    return _merge_terms((c * a, u) for a, u in terms)


def _compose_maps(first: Mapping[tuple[int, int], Terms],
                  second: Mapping[tuple[int, int], Terms]) -> EntryMap:
    # entrywise polynomial composition: coefficients multiply, exponents add
    by_col: dict[int, list[tuple[int, Terms]]] = {}
    for (i, j), terms in first.items():
        by_col.setdefault(j, []).append((i, terms))
    acc: dict[tuple[int, int], list] = {}
    for (j, k), inner in second.items():
        for i, outer in by_col.get(j, []):
            acc.setdefault((i, k), []).extend(
                (c1 * c2, tuple(a + b for a, b in zip(u1, u2)))
                for c1, u1 in outer for c2, u2 in inner)
    return {key: merged for key, terms in acc.items()
            if (merged := _merge_terms(terms))}


def _freeze_map(entries: Mapping[tuple[int, int], object]) -> tuple:
    frozen = []
    for (i, j) in sorted(entries):
        terms = _merge_terms(entries[(i, j)])
        if terms:
            frozen.append(((i, j), terms))
    return tuple(frozen)


class TwistComplex(Record):
    """Chain complex of direct sums of twists; levels lo..hi, differentials
    from level t to t-1 as sparse matrices of monomial sums."""

    lo: int
    hi: int
    levels: tuple[tuple[int, ...], ...]
    diffs: tuple[tuple[tuple[tuple[int, int], Terms], ...], ...]

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            if self.levels or self.diffs:
                raise ValueError("empty complex must carry no data")
            return
        if len(self.levels) != self.hi - self.lo + 1:
            raise ValueError("level list does not match the level range")
        if len(self.diffs) != max(self.hi - self.lo, 0):
            raise ValueError("differential list does not match the level range")
        for t in range(self.lo + 1, self.hi + 1):
            rows = len(self.level(t - 1))
            cols = len(self.level(t))
            for (i, j), _ in self.diffs[t - self.lo - 1]:
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i}, {j}) out of range at level {t}")

    @classmethod
    def empty(cls) -> "TwistComplex":
        return cls(0, -1, (), ())

    def level(self, t: int) -> tuple[int, ...]:
        if self.lo <= t <= self.hi:
            return self.levels[t - self.lo]
        return ()

    def diff_map(self, t: int) -> EntryMap:
        if self.lo < t <= self.hi:
            return dict(self.diffs[t - self.lo - 1])
        return {}

    def summands(self):
        for t in range(self.lo, self.hi + 1):
            for j, k in enumerate(self.level(t)):
                yield t, j, k


def make_twist_complex(lo: int, levels: Sequence[Sequence[int]],
                       diffs: Mapping[int, Mapping[tuple[int, int], object]] | None = None) -> TwistComplex:
    """Normalize raw level/differential data into a TwistComplex.

    ``diffs[t]`` maps level t to t-1, so t must lie in lo+1..hi; a key
    outside that range raises ValueError instead of being dropped.
    """
    levels_t = tuple(tuple(int(k) for k in lv) for lv in levels)
    hi = lo + len(levels_t) - 1
    diffs = diffs or {}
    for t in diffs:
        if not lo < t <= hi:
            starts = f"levels {lo + 1}..{hi}" if lo < hi else "no level"
            raise ValueError(
                f"differential from level {t} out of range: differentials start at {starts}")
    if not levels_t:
        return TwistComplex.empty()
    diff_t = tuple(_freeze_map(diffs.get(t, {})) for t in range(lo + 1, hi + 1))
    return TwistComplex(lo, hi, levels_t, diff_t)


def line_bundle(k: int, level: int = 0) -> TwistComplex:
    """The single twist O(k) concentrated in one level."""
    return make_twist_complex(level, [[k]])


def validate(Y: TwistComplex, P: LatticePolytope) -> None:
    """Check monomial validity of every entry and d∘d = 0 as formal sums.

    A monomial u from O(a) to O(b) is valid iff every facet holds at u on
    (b-a)P: its ``facet_mask`` is full. Raises InvalidMonomial or
    NonSquareZero. Validity only depends on the twist difference of target
    and source, so twisting preserves it.
    """
    full = (1 << len(P.facets)) - 1
    for t in range(Y.lo + 1, Y.hi + 1):
        targets = Y.level(t - 1)
        sources = Y.level(t)
        for (i, j), terms in Y.diff_map(t).items():
            k = targets[i] - sources[j]
            for _, u in terms:
                if len(u) != P.dim:
                    raise InvalidMonomial(t, i, j, u, f"length {len(u)} != dim {P.dim}")
                if facet_mask(P, k, u) != full:
                    raise InvalidMonomial(t, i, j, u, f"not a lattice point of {k}P")
    for t in range(Y.lo + 2, Y.hi + 1):
        if _compose_maps(Y.diff_map(t - 1), Y.diff_map(t)):
            raise NonSquareZero(t)


def twist(Y: TwistComplex, k: int) -> TwistComplex:
    """Raise every summand twist by k; entries are untouched."""
    if Y.hi < Y.lo:
        return Y
    return TwistComplex(Y.lo, Y.hi,
                        tuple(tuple(a + k for a in lv) for lv in Y.levels),
                        Y.diffs)


def suspend(Y: TwistComplex, j: int) -> TwistComplex:
    """Shift levels up by j and multiply every differential by (-1)^j."""
    if Y.hi < Y.lo:
        return Y
    sign = -1 if j % 2 else 1
    diffs = Y.diffs if sign == 1 else tuple(
        tuple((pos, _scale_terms(terms, sign)) for pos, terms in level_map)
        for level_map in Y.diffs)
    return TwistComplex(Y.lo + j, Y.hi + j, Y.levels, diffs)


def direct_sum(Y: TwistComplex, Z: TwistComplex) -> TwistComplex:
    """Levelwise concatenation (Y summands first) with block differential."""
    if Y.hi < Y.lo:
        return Z
    if Z.hi < Z.lo:
        return Y
    lo, hi = min(Y.lo, Z.lo), max(Y.hi, Z.hi)
    levels = [Y.level(t) + Z.level(t) for t in range(lo, hi + 1)]
    diffs: dict[int, EntryMap] = {}
    for t in range(lo + 1, hi + 1):
        entries: EntryMap = {}
        entries.update(Y.diff_map(t))
        roff, coff = len(Y.level(t - 1)), len(Y.level(t))
        for (i, j), terms in Z.diff_map(t).items():
            entries[(i + roff, j + coff)] = terms
        diffs[t] = entries
    return make_twist_complex(lo, levels, diffs)


def cone(f: Mapping[int, Mapping[tuple[int, int], object]],
         source: TwistComplex, target: TwistComplex) -> TwistComplex:
    """Mapping cone of a chain map f: source -> target.

    ``f[t]`` holds the monomial entries from level t of the source to
    level t of the target. Level t of the cone is source_{t-1} (+) target_t
    with differential [[-d_source, 0], [f, d_target]]: the direct sum of
    the suspended source and the target, with f added below the source.
    An entry (i, j) of ``f[t]`` outside the block, i not a summand of
    target_t or j not a summand of source_t, raises ValueError.
    """
    for t, entries in f.items():
        rows, cols = len(target.level(t)), len(source.level(t))
        for i, j in entries or {}:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(
                    f"f entry ({i}, {j}) at level {t} lies outside the {rows} x {cols} block")
    f_maps = {t: {pos: _merge_terms(terms) for pos, terms in (f.get(t) or {}).items()}
              for t in range(min(source.lo, target.lo) - 1, max(source.hi, target.hi) + 2)}
    for t in range(min(source.lo, target.lo), max(source.hi, target.hi) + 1):
        lhs = _compose_maps(f_maps[t - 1], source.diff_map(t))
        rhs = _compose_maps(target.diff_map(t), f_maps[t])
        if lhs != rhs:
            raise NotChainMap(f"f does not commute with the differentials at level {t}")
    Y = direct_sum(suspend(source, 1), target)
    diffs = {t: Y.diff_map(t) for t in range(Y.lo + 1, Y.hi + 1)}
    for t, entries in diffs.items():
        for (i, j), terms in f_maps[t - 1].items():
            entries[(i + len(source.level(t - 2)), j)] = terms
    return make_twist_complex(Y.lo, Y.levels, diffs)


def bundle_tensor(k: int, C: FreeChainComplex, dim: int) -> TwistComplex:
    """O(k) tensor a finite free complex: rank(C_t) copies of O(k) per
    level, integer matrix entries carried on the monomial u = 0 in Z^dim."""
    if C.hi < C.lo:
        return TwistComplex.empty()
    zero = tuple(0 for _ in range(dim))
    levels = [[k] * C.rank(t) for t in range(C.lo, C.hi + 1)]
    diffs: dict[int, EntryMap] = {}
    for t in range(C.lo + 1, C.hi + 1):
        m = C.diff(t)
        entries: EntryMap = {}
        for i in range(m.rows):
            for j in range(m.cols):
                if m[i, j]:
                    entries[(i, j)] = ((int(m[i, j]), zero),)
        diffs[t] = entries
    return make_twist_complex(C.lo, levels, diffs)
