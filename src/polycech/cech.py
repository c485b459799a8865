"""Čech complexes of twist complexes and their homology.

The Čech complex of a diagram over the face lattice splits, one lattice
multidegree at a time, into finite "column" complexes indexed by the
faces whose shifted tangent cone contains the multidegree. A column is
determined by its facet mask, the set of facets whose inequality holds at
the multidegree. Each context builds the column of a mask once, and
computes its contraction once, on first use; every twist, multidegree,
level and call that reaches the mask shares them, the transfer reading a
column placed at level t through a degree offset of t rather than a
copy. Line-bundle homology is found by scanning a verified bounding box
of columns, taking homology once per face pattern per call; general twist
complexes are handled by contracting the columns onto their homology and
transferring the monomial differentials through the homotopies; the
transferred complex is taken apart into the components its nonzero
entries link, and only those are eliminated.
Columns, contractions and the transfer are integral: the paper builds
its complexes over Z and a coefficient ring R enters by base change, so
R is applied only in the homology of the small transferred complex.
Euler characteristics, acyclicity windows and the unimodular splitting
matrix are derived on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import mul
from typing import Sequence

from .exact_linalg import (
    QQ,
    ZZ,
    CoefficientRing,
    Contraction,
    FreeChainComplex,
    HomologyResult,
    Matrix,
    complex_homology,
    contraction,
    perturb_transfer,
)
from .orientation import incidence_numbers
from .polytope import (
    LatticePolytope,
    ehrhart_polynomial,
    face_lattice,
    lattice_points,
    np_index,
    standard_simplex,
)
from .sheaf_complexes import TwistComplex, bundle_tensor, cone, line_bundle, twist, validate


class SupportEscapesBox(Exception):
    """A column on the scan-box boundary carried homology; the box is too small."""


class WindowMismatch(Exception):
    """Internal guard: the acyclic range of negative twists contradicts the root count."""


class NotUnimodular(Exception):
    """The splitting matrix failed triangularity or unimodularity."""


@dataclass(frozen=True)
class ColumnComplex:
    """The multidegree slices of the Čech complex of O(k) with one facet
    mask: a complex of rank-0/1 face contributions in Čech degrees 0..n.

    A context holds one per mask reached. Its contraction is computed over
    Z the first time it is read and kept with it.
    """

    complex: FreeChainComplex
    faces: tuple[tuple[int, ...], ...]  # active face indices per Čech degree

    @cached_property
    def contraction(self) -> Contraction:
        return contraction(self.complex)


@dataclass(frozen=True)
class SupportTable:
    """Homological degree and multidegrees carrying the homology of O(k)."""

    twist: int
    degree: int
    multidegrees: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CechResult:
    homology: HomologyResult
    active_multidegrees: int
    transfer_paths: int


class CechContext:
    """Per-polytope caches: face lattice, incidence signs, Ehrhart data and
    the column of every facet mask reached so far, with the column's
    contraction once it has been used."""

    def __init__(self, P: LatticePolytope, reverse_orientation: bool = False):
        self.polytope = P
        self.lattice = face_lattice(P)
        self.incidence = incidence_numbers(self.lattice, reverse=reverse_orientation)
        self.ehrhart = ehrhart_polynomial(P)
        self.np = np_index(P, self.ehrhart)
        n = P.dim
        self._faces_by_cech_degree = tuple(
            tuple(f.index for f in self.lattice.by_dim[n - s]) for s in range(n + 1)
        )
        self._face_masks = tuple(
            sum(1 << i for i in f.tight_facets) for f in self.lattice.faces)
        self._columns: dict[int, ColumnComplex] = {}  # by facet mask

    def column_complex(self, k: int, m: Sequence[int]) -> ColumnComplex:
        """Faces whose cone k*F + T_F contains m, with incidence differentials.

        A face is active iff every facet tight at it satisfies
        <a_i, m> >= k*b_i, so the column depends only on the mask of facets
        whose inequality holds at m. The column is built once per mask and
        returned to every twist and multidegree that reaches it. Activity is
        upward closed, so the selected rows and columns form a genuine
        subcomplex of the full face boundary.
        """
        mask = 0
        for i, (normal, offset) in enumerate(self.polytope.facets):
            if sum(map(mul, normal, m)) >= k * offset:
                mask |= 1 << i
        col = self._columns.get(mask)
        if col is None:
            faces = tuple(
                tuple(f for f in by_s if not self._face_masks[f] & ~mask)
                for by_s in self._faces_by_cech_degree
            )
            ranks = {s: len(fs) for s, fs in enumerate(faces)}
            diffs = {}
            for s in range(1, len(faces)):
                rows, cols = faces[s - 1], faces[s]
                if rows:
                    diffs[s] = Matrix.from_rows(
                        [[self.incidence.sign(cf, rf) for cf in cols] for rf in rows])
                else:
                    diffs[s] = Matrix.zeros(0, len(cols))
            col = self._columns[mask] = ColumnComplex(
                FreeChainComplex.from_dicts(ranks, diffs), faces)
        return col

    def support_table(self, k: int) -> SupportTable:
        """Multidegrees carrying homology: kP for k >= 0, interior of kP else."""
        pts = lattice_points(self.polytope, k, interior=k < 0)
        return SupportTable(k, self.polytope.dim if k >= 0 else 0, pts)

    def _scan_box(self, k: int) -> list[tuple[int, int]]:
        # bounding box of kP widened by one bounding box of P on every side
        box = []
        for c in range(self.polytope.dim):
            coords = [v[c] for v in self.polytope.vertices]
            width = max(coords) - min(coords)
            scaled = [k * x for x in coords]
            box.append((min(scaled) - width, max(scaled) + width))
        return box

    def line_bundle_cohomology(self, k: int, ring: CoefficientRing = ZZ) -> CechResult:
        """Homology of the Čech complex of O(k) by exhaustive column scan.

        Every multidegree in the widened bounding box of kP is checked.
        Columns sharing a face pattern share one homology computation over
        Z per call; every multidegree whose pattern carries homology is
        still tested against the box boundary, and raises SupportEscapesBox
        there. The scan must reproduce the closed form (rank = point count
        of kP, in degree n for k >= 0, degree 0 for k < 0). That form has
        no torsion, so by universal coefficients the result is the same
        for every ``ring``, and the Z result is returned for all of them.
        """
        box = self._scan_box(k)
        total = HomologyResult.zero()
        active = 0
        by_pattern: dict[tuple, HomologyResult] = {}
        for m in product(*(range(lo, hi + 1) for lo, hi in box)):
            col = self.column_complex(k, m)
            h = by_pattern.get(col.faces)
            if h is None:
                h = by_pattern[col.faces] = complex_homology(col.complex)
            if h.is_zero():
                continue
            if any(x == lo or x == hi for x, (lo, hi) in zip(m, box)):
                raise SupportEscapesBox(
                    f"twist {k}: column at {m} on the scan boundary has homology")
            active += 1
            total = total.direct_sum(h)
        support = self.support_table(k)
        expected = HomologyResult.from_dict(
            {support.degree: (len(support.multidegrees), ())})
        if total != expected:
            raise AssertionError(
                f"scan of twist {k} found {total.as_dict()}, closed form says {expected.as_dict()}")
        return CechResult(total, active, 0)

    def cech_homology(self, Y: TwistComplex, ring: CoefficientRing = ZZ) -> CechResult:
        """Homology of the Čech complex of a twist complex by homotopy transfer.

        Steps: (1) supports of every summand; (2) close up the set of
        (level, summand, multidegree) columns lying on monomial paths
        between supports; (3) contract their columns, each mask once per
        context; (4) transfer the relocated monomial differentials (with
        the (-1)^s column sign) through the homotopies, the contraction
        of a column at level t read t degrees up; (5) take homology
        of the small complex one linked component at a time, count the
        columns no transferred entry links by their ranks, and add it all
        up with the torsion merged once. Steps (3) and (4) are over Z;
        ``ring`` enters only in (5), which is exact because tensoring
        preserves the homotopy equivalence of free Z-complexes. Integral
        torsion in a column raises TorsionObstruction for every ring.
        """
        validate(Y, self.polytope)
        if Y.hi < Y.lo or Y.is_empty():
            return CechResult(HomologyResult.zero(), 0, 0)

        supports: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        for t, j, k in Y.summands():
            supports[(t, j)] = self.support_table(k).multidegrees
        support_triples = {(t, j, m) for (t, j), pts in supports.items() for m in pts}
        if not support_triples:
            return CechResult(HomologyResult.zero(), 0, 0)

        diff_entries: dict[int, dict[int, list[tuple[int, tuple]]]] = {}
        for t in range(Y.lo + 1, Y.hi + 1):
            per_source: dict[int, list[tuple[int, tuple]]] = {}
            for (i, j), terms in Y.diff_map(t).items():
                per_source.setdefault(j, []).extend((i, term) for term in terms)
            diff_entries[t] = per_source

        def edges_from(t: int, j: int, m: tuple) -> list[tuple[int, int, tuple]]:
            out = []
            for i, (_, u) in diff_entries.get(t, {}).get(j, ()):
                out.append((t - 1, i, tuple(a + b for a, b in zip(m, u))))
            return out

        reachable = set(support_triples)
        frontier = list(support_triples)
        while frontier:
            nxt = []
            for (t, j, m) in frontier:
                for tgt in edges_from(t, j, m):
                    if tgt not in reachable:
                        reachable.add(tgt)
                        nxt.append(tgt)
            frontier = nxt

        # paths from each triple down to a support; edges go down one level,
        # so ascending order visits every target first
        order = sorted(reachable)
        paths: dict[tuple, int] = {}
        for tr in order:
            paths[tr] = sum(paths[tgt] + (tgt in support_triples) for tgt in edges_from(*tr))
        active = [tr for tr in order if tr in support_triples or paths[tr]]
        transfer_paths = sum(paths[tr] for tr in support_triples)

        cols = [self.column_complex(Y.level(t)[j], m) for t, j, m in active]
        block_index = {tr: b for b, tr in enumerate(active)}

        delta: dict[tuple[int, int], dict[int, Matrix]] = {}
        for src_idx, (t, j, m) in enumerate(active):
            for i, (c, u) in diff_entries.get(t, {}).get(j, ()):
                tgt_idx = block_index.get((t - 1, i, tuple(a + b for a, b in zip(m, u))))
                if tgt_idx is None:
                    continue
                per_degree = delta.setdefault((tgt_idx, src_idx), {})
                for s, (src_faces, tgt_faces) in enumerate(
                        zip(cols[src_idx].faces, cols[tgt_idx].faces)):
                    if not src_faces or not tgt_faces:
                        continue
                    sign = -1 if s % 2 else 1
                    tgt_pos = {f: r for r, f in enumerate(tgt_faces)}
                    grid = [[0] * len(src_faces) for _ in tgt_faces]
                    for ci, f in enumerate(src_faces):
                        # validity makes the source face active in the target
                        grid[tgt_pos[f]][ci] = sign * c
                    block = Matrix.from_rows(grid)
                    prev = per_degree.get(t + s)
                    per_degree[t + s] = block if prev is None else prev + block

        transferred = perturb_transfer([col.contraction for col in cols], delta,
                                       Y.hi - Y.lo + 1, [t for t, _, _ in active])
        hom = HomologyResult.direct_sum_of(
            (complex_homology(c, ring) for c in transferred.components), transferred.unlinked)
        return CechResult(hom, len(active), transfer_paths)

    def euler_characteristic(self, Y: TwistComplex, cross_check: bool = False) -> int:
        """Alternating sum over levels of the signed point counts (-1)^n E(k).

        With ``cross_check`` the value is compared against the alternating
        rank sum of the computed homology over Q.
        """
        sign_n = (-1) ** self.polytope.dim
        chi = 0
        for t in range(Y.lo, Y.hi + 1):
            sign_t = -1 if t % 2 else 1  # levels may be negative
            for k in Y.level(t):
                val = self.ehrhart(k)
                if val.denominator != 1:
                    raise AssertionError(f"point-counting value E({k}) = {val} is not integral")
                chi += sign_t * sign_n * int(val)
        if cross_check:
            ranks = self.cech_homology(Y, QQ).homology.euler_characteristic()
            if ranks != chi:
                raise AssertionError(f"Euler characteristic {chi} != homology ranks {ranks}")
        return chi

    def acyclicity_window(self) -> tuple[bool, ...]:
        """Acyclicity of O(-k) for k = 1..n+1; true exactly up to the root count."""
        flags = tuple(
            self.cech_homology(line_bundle(-k), ZZ).homology.is_zero()
            for k in range(1, self.polytope.dim + 2)
        )
        for k, flag in enumerate(flags, start=1):
            if flag != (k <= self.np):
                raise WindowMismatch(
                    f"O({-k}) acyclicity {flag} contradicts root count {self.np}")
        return flags

    def hk_acyclic(self, Y: TwistComplex, kmax: int) -> bool:
        """Whether the Čech complex of Y(j) is acyclic for all 0 <= j <= kmax."""
        if kmax < 0:
            raise ValueError(f"kmax {kmax} is negative")
        return all(
            self.cech_homology(twist(Y, j), ZZ).homology.is_zero()
            for j in range(kmax + 1)
        )

    def splitting_matrix(self) -> Matrix:
        """Euler characteristics chi(O(j - l)) for 0 <= j, l <= root count.

        Must be lower triangular with diagonal (-1)^n and determinant of
        absolute value 1; any failure raises NotUnimodular.
        """
        npi = self.np
        n = self.polytope.dim
        unit = FreeChainComplex.from_dicts({0: 1}, {})
        rows = []
        for j in range(npi + 1):
            row = []
            for ell in range(npi + 1):
                Y = twist(bundle_tensor(-ell, unit, n), j)
                row.append(self.euler_characteristic(Y))
            rows.append(row)
        M = Matrix.from_rows(rows)
        sign_n = (-1) ** n
        for j in range(npi + 1):
            for ell in range(npi + 1):
                if j < ell and M[j, ell] != 0:
                    raise NotUnimodular(f"entry ({j}, {ell}) above the diagonal is {M[j, ell]}")
                if j == ell and M[j, ell] != sign_n:
                    raise NotUnimodular(f"diagonal entry ({j}, {j}) is {M[j, j]}, not {sign_n}")
        if abs(M.det()) != 1:
            raise NotUnimodular(f"determinant {M.det()} is not a unit")
        return M

    def constant_diagram_cech(self, C: FreeChainComplex,
                              ring: CoefficientRing = ZZ) -> CechResult:
        """Čech homology of the constant diagram with value C, built directly.

        Each total degree g stacks blocks (faces of dim n-s) x C_{g-s};
        horizontal maps carry incidence signs, vertical maps carry the
        differential of C with the sign (-1)^s. The result must equal the
        homology of C shifted up by n, torsion included.
        """
        n = self.polytope.dim
        if C.hi < C.lo or C.total_rank() == 0:
            return CechResult(HomologyResult.zero(), 0, 0)
        faces_by_s = self._faces_by_cech_degree

        def layout(g: int):
            blocks = []
            off = 0
            for s in range(n + 1):
                t = g - s
                rk = C.rank(t)
                if rk:
                    blocks.append((s, t, off, len(faces_by_s[s]), rk))
                    off += len(faces_by_s[s]) * rk
            return blocks, off

        lo_g, hi_g = C.lo, C.hi + n
        layouts = {g: layout(g) for g in range(lo_g, hi_g + 1)}
        ranks = {g: tot for g, (_, tot) in layouts.items()}
        diffs = {}
        for g in range(lo_g + 1, hi_g + 1):
            src_blocks, src_tot = layouts[g]
            tgt_blocks, tgt_tot = layouts[g - 1]
            tgt_pos = {(s, t): (off, nf, rk) for s, t, off, nf, rk in tgt_blocks}
            grid = [[0] * src_tot for _ in range(tgt_tot)]
            for s, t, off, nf, rk in src_blocks:
                if (s - 1, t) in tgt_pos:
                    toff, tnf, trk = tgt_pos[(s - 1, t)]
                    for ci, f_src in enumerate(faces_by_s[s]):
                        for ri, f_tgt in enumerate(faces_by_s[s - 1]):
                            sg = self.incidence.sign(f_src, f_tgt)
                            if sg:
                                for e in range(rk):
                                    grid[toff + ri * trk + e][off + ci * rk + e] = sg
                if (s, t - 1) in tgt_pos:
                    toff, tnf, trk = tgt_pos[(s, t - 1)]
                    m = C.diff(t)
                    sign = -1 if s % 2 else 1
                    for fi in range(nf):
                        for i in range(m.rows):
                            for jj in range(m.cols):
                                if m[i, jj]:
                                    grid[toff + fi * trk + i][off + fi * rk + jj] = sign * m[i, jj]
            diffs[g] = Matrix.from_rows(grid) if tgt_tot else Matrix.zeros(0, src_tot)
        total = FreeChainComplex.from_dicts(ranks, diffs)
        hom = complex_homology(total, ring)
        expected = complex_homology(C, ring).shifted(n)
        if hom != expected:
            raise AssertionError(
                f"constant diagram gave {hom.as_dict()}, expected shifted {expected.as_dict()}")
        return CechResult(hom, 0, 0)

    def con_vs_bundle_check(self, C: FreeChainComplex, ring: CoefficientRing = ZZ) -> bool:
        """Constant-diagram route vs O(0) tensor route: degreewise agreement."""
        direct = self.constant_diagram_cech(C, ring).homology
        tensored = self.cech_homology(bundle_tensor(0, C, self.polytope.dim), ring).homology
        return direct == tensored


_context_cache: dict[tuple[LatticePolytope, bool], CechContext] = {}


def context(P: LatticePolytope, reverse_orientation: bool = False) -> CechContext:
    key = (P, reverse_orientation)
    if key not in _context_cache:
        _context_cache[key] = CechContext(P, reverse_orientation)
    return _context_cache[key]


def column_complex(P: LatticePolytope, k: int, m: Sequence[int]) -> ColumnComplex:
    return context(P).column_complex(k, m)


def support_table(P: LatticePolytope, k: int) -> SupportTable:
    return context(P).support_table(k)


def line_bundle_cohomology(P: LatticePolytope, k: int,
                           ring: CoefficientRing = ZZ) -> CechResult:
    return context(P).line_bundle_cohomology(k, ring)


def cech_homology(P: LatticePolytope, Y: TwistComplex,
                  ring: CoefficientRing = ZZ) -> CechResult:
    return context(P).cech_homology(Y, ring)


def euler_characteristic(P: LatticePolytope, Y: TwistComplex,
                         cross_check: bool = False) -> int:
    return context(P).euler_characteristic(Y, cross_check)


def acyclicity_window(P: LatticePolytope) -> tuple[bool, ...]:
    return context(P).acyclicity_window()


def hk_acyclic(P: LatticePolytope, Y: TwistComplex, kmax: int) -> bool:
    return context(P).hk_acyclic(Y, kmax)


def splitting_matrix(P: LatticePolytope) -> Matrix:
    return context(P).splitting_matrix()


def constant_diagram_cech(P: LatticePolytope, C: FreeChainComplex,
                          ring: CoefficientRing = ZZ) -> CechResult:
    return context(P).constant_diagram_cech(C, ring)


def con_vs_bundle_check(P: LatticePolytope, C: FreeChainComplex,
                        ring: CoefficientRing = ZZ) -> bool:
    return context(P).con_vs_bundle_check(C, ring)


def simplex_cone_check(n: int, k: int, ring: CoefficientRing = ZZ) -> bool:
    """Cone of the basic inclusion O(k) -> O(k+1) on the standard n-simplex
    against the (n-1)-simplex line bundle O(k+1), reindexed up by one."""
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    big = context(standard_simplex(n))
    small = context(standard_simplex(n - 1))
    zero_u = tuple(0 for _ in range(n))
    f = {0: {(0, 0): [(1, zero_u)]}}
    Y = cone(f, line_bundle(k), line_bundle(k + 1))
    lhs = big.cech_homology(Y, ring).homology
    rhs = small.line_bundle_cohomology(k + 1, ring).homology.shifted(1)
    return lhs == rhs
