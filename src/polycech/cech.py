"""Čech complexes of twist complexes and their homology.

The Čech complex of a diagram over the face lattice splits, one lattice
multidegree at a time, into finite "column" complexes indexed by the
faces whose shifted tangent cone contains the multidegree. A column is
determined by its facet mask, the set of facets whose inequality holds at
the multidegree. Each context builds the column of a mask once, and
computes its contraction once, on first use; every twist, multidegree,
level and call that reaches the mask shares them, the transfer reading a
column placed at level t through a degree offset of t rather than a
copy. The support of each twist k, the lattice points of kP for k >= 0
and the interior points of kP for k < 0, is enumerated once per context
and kept for every later call, with the column at each of its points.
Line-bundle homology is found by scanning a verified bounding box one
line at a time along the last coordinate: on a line each facet's
inequality holds on a half-line, so the mask changes at most once per
facet, and the scan visits runs of equal mask, reading each mask's
column and homology once per call instead of one column per
multidegree. General twist complexes are handled by contracting the
columns onto their homology and transferring the monomial differentials
through the homotopies. One walk
per call from the supports finds the columns on monomial paths between
supports, counts the paths and builds the monomial differential, each
block a signed gather, face f of one column to face f of the next,
applied without a matrix product. Which rows a block gathers depends
only on the masks of its two columns, so each context works it out once
per pair of masks. The transferred complex is taken apart into the
components its nonzero entries link, and only those are eliminated.
Columns, contractions and the transfer are integral: the paper builds
its complexes over Z and a coefficient ring R enters by base change, so
R is applied only in the homology of the small transferred complex, and
one transfer serves every ring.
Euler characteristics, acyclicity windows and the unimodular splitting
matrix are derived on top.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product, repeat
from operator import add, mul
from typing import Iterator, Sequence

from .exact_linalg import (
    ZZ,
    CoefficientRing,
    Contraction,
    FreeChainComplex,
    HomologyResult,
    Matrix,
    SignedGather,
    Transferred,
    complex_homology,
    contraction,
    perturb_transfer,
)
from .orientation import incidence_numbers
from .polytope import (
    LatticePolytope,
    bounding_box,
    ehrhart_polynomial,
    face_lattice,
    lattice_points,
    np_index,
    standard_simplex,
)
from .record import Record
from .sheaf_complexes import TwistComplex, bundle_tensor, cone, line_bundle, twist, validate


class SupportEscapesBox(Exception):
    """A column on the scan-box boundary carried homology; the box is too small."""


class WindowMismatch(Exception):
    """Internal guard: the acyclic range of negative twists contradicts the root count."""


class NotUnimodular(Exception):
    """The splitting matrix failed triangularity or unimodularity."""


class ColumnComplex(Record):
    """The multidegree slices of the Čech complex of O(k) with one facet
    mask: a complex of rank-0/1 face contributions in Čech degrees 0..n.

    A context holds one per mask reached, and ``mask`` records it. Its
    contraction is computed over Z the first time it is read and kept
    with it.
    """

    complex: FreeChainComplex
    faces: tuple[tuple[int, ...], ...]  # active face indices per Čech degree
    mask: int  # bit i set iff facet i's inequality holds

    @cached_property
    def contraction(self) -> Contraction:
        return contraction(self.complex)


class SupportTable(Record):
    """Homological degree and multidegrees carrying the homology of O(k),
    with the column of O(k) at each multidegree, in the same order: the
    table is built once per twist, and so are its columns."""

    degree: int
    multidegrees: tuple[tuple[int, ...], ...]
    columns: tuple[ColumnComplex, ...]


class CechResult(Record):
    homology: HomologyResult
    active_multidegrees: int
    transfer_paths: int


class CechTransfer(Record):
    """A twist complex's Čech complex transferred over Z, with the count of
    its blocks and of its transfer paths. A coefficient ring enters only
    in ``homology``, which is exact because tensoring preserves the
    homotopy equivalence of free Z-complexes, so one transfer serves
    every ring."""

    transferred: Transferred
    active_multidegrees: int
    transfer_paths: int

    def homology(self, ring: CoefficientRing = ZZ) -> HomologyResult:
        """Homology of the transferred complex over ``ring``: one linked
        component at a time, the columns no transferred entry links counted
        by their ranks, and the torsion merged once."""
        t = self.transferred
        return HomologyResult.direct_sum_of(
            (complex_homology(c, ring) for c in t.components), t.unlinked)


def scan_box(P: LatticePolytope, k: int) -> list[tuple[int, int]]:
    """The multidegrees a line-bundle scan of O(k) visits: the bounding box
    of kP widened by one bounding box of P on every side. It reads the
    vertices only, so a scan can be sized before any context is built."""
    return [(lo - (hi1 - lo1), hi + (hi1 - lo1))
            for (lo, hi), (lo1, hi1) in zip(bounding_box(P, k), bounding_box(P, 1))]


class CechContext:
    """Per-polytope caches: face lattice, incidence signs, Ehrhart data,
    the support table of every twist asked so far, the column of every
    facet mask reached so far, with the column's contraction once it has
    been used, and the delta gathers of every pair of masks a transfer
    has joined. Nothing is evicted: like the module's context cache, a
    context keeps what it has enumerated for as long as it lives."""

    def __init__(self, P: LatticePolytope):
        self.polytope = P
        self.lattice = face_lattice(P)
        self.incidence = incidence_numbers(self.lattice)
        self.ehrhart = ehrhart_polynomial(P)
        self.np = np_index(P, self.ehrhart)
        n = P.dim
        self._faces_by_cech_degree = tuple(
            tuple(f.index for f in self.lattice.by_dim[n - s]) for s in range(n + 1)
        )
        self._face_masks = tuple(
            sum(1 << i for i in f.tight_facets) for f in self.lattice.faces)
        self._columns: dict[int, ColumnComplex] = {}  # by facet mask
        self._supports: dict[int, SupportTable] = {}  # by twist
        self._gathers: dict[tuple[int, int], tuple] = {}  # by (source, target) mask

    def column_complex(self, k: int, m: Sequence[int]) -> ColumnComplex:
        """Faces whose cone k*F + T_F contains m, with incidence differentials.

        A face is active iff every facet tight at it satisfies
        <a_i, m> >= k*b_i, so the column depends only on the mask of facets
        whose inequality holds at m. The column is built once per mask and
        returned to every twist and multidegree that reaches it.
        """
        mask = 0
        for i, (normal, offset) in enumerate(self.polytope.facets):
            if sum(map(mul, normal, m)) >= k * offset:
                mask |= 1 << i
        return self._column_of(mask)

    def _column_of(self, mask: int) -> ColumnComplex:
        """The column of a facet mask, built and kept on first use. Activity
        is upward closed, so the selected rows and columns form a genuine
        subcomplex of the full face boundary."""
        col = self._columns.get(mask)
        if col is not None:
            return col
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
            FreeChainComplex.from_dicts(ranks, diffs), faces, mask)
        return col

    def mask_runs(self, k: int,
                  box: Sequence[tuple[int, int]]) -> Iterator[tuple[tuple, int, int]]:
        """The facet masks of O(k) over ``box``, one line at a time along
        the last coordinate: ``(m, length, mask)`` for each run of equal
        mask, m its first multidegree, in product order.

        On the line through a prefix m', facet i holds where
        a_i[-1]*x >= r = k*b_i - <a_i[:-1], m'>: from ceil(r/a) up for
        a > 0, up to floor(r/a) for a < 0, everywhere or nowhere for a = 0.
        So each facet flips the mask at most once along a line, and a line
        of the box costs one inequality per facet, not one per multidegree.
        A 0-dimensional box is the one multidegree ().
        """
        if not box:
            yield (), 1, self.column_complex(k, ()).mask
            return
        *heads, (lo, hi) = box
        facets = [(1 << i, normal[:-1], normal[-1], k * offset)
                  for i, (normal, offset) in enumerate(self.polytope.facets)]
        for prefix in product(*(range(a, b + 1) for a, b in heads)):
            mask = 0
            flips = []  # (x, bit): the bit flips from x on
            for bit, head, a, kb in facets:
                r = kb - sum(map(mul, head, prefix))
                if a > 0:
                    x = -(-r // a)  # first x where the facet holds
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

    def support_table(self, k: int) -> SupportTable:
        """Multidegrees carrying homology: kP for k >= 0, interior of kP else.

        The points are enumerated the first time twist k is asked and the
        table is kept; every later call, from any reader, returns the same
        immutable table. A context thus keeps the support of every twist it
        has been asked, each table the size the first call enumerated.
        """
        table = self._supports.get(k)
        if table is None:
            pts = lattice_points(self.polytope, k, interior=k < 0)
            table = self._supports[k] = SupportTable(
                self.polytope.dim if k >= 0 else 0, pts,
                tuple(self.column_complex(k, m) for m in pts))
        return table

    def _gathers_between(self, src: ColumnComplex, tgt: ColumnComplex) -> tuple:
        """The delta pattern from column ``src`` to column ``tgt``: one
        ``(s, rows, width)`` per Čech degree s where both have faces, with
        ``rows[r]`` the row of tgt's r-th face among src's ``width`` faces,
        or None. Built once per pair of masks and kept."""
        key = (src.mask, tgt.mask)
        out = self._gathers.get(key)
        if out is None:
            out = self._gathers[key] = tuple(
                (s, tuple(map({f: r for r, f in enumerate(fs)}.get, ft)), len(fs))
                for s, (fs, ft) in enumerate(zip(src.faces, tgt.faces)) if fs and ft)
        return out

    def line_bundle_cohomology(self, k: int, ring: CoefficientRing = ZZ) -> CechResult:
        """Homology of the Čech complex of O(k) by exhaustive column scan.

        Every multidegree in the widened bounding box of kP is covered, one
        run of equal facet mask at a time (``mask_runs``). Columns sharing
        a mask share one homology computation over Z per call; a run whose
        mask carries homology is tested against the box boundary at its two
        ends, and raises SupportEscapesBox at the first boundary multidegree
        in product order. The scan must reproduce the closed form (rank =
        point count of kP, in degree n for k >= 0, degree 0 for k < 0). That
        form has no torsion, so by universal coefficients the result is the
        same for every ``ring``, and the Z result is returned for all of them.
        """
        box = scan_box(self.polytope, k)
        by_mask: dict[int, HomologyResult] = {}
        count: dict[int, int] = {}  # multidegrees per mask carrying homology
        for m, length, mask in self.mask_runs(k, box):
            h = by_mask.get(mask)
            if h is None:
                h = by_mask[mask] = complex_homology(self._column_of(mask).complex)
            if h.is_zero():
                continue
            ends = (m, m[:-1] + (m[-1] + length - 1,)) if length > 1 else (m,)
            for end in ends:
                if any(x == lo or x == hi for x, (lo, hi) in zip(end, box)):
                    raise SupportEscapesBox(
                        f"twist {k}: column at {end} on the scan boundary has homology")
            count[mask] = count.get(mask, 0) + length
        total = HomologyResult.direct_sum_of(
            chain.from_iterable(repeat(by_mask[mask], c) for mask, c in count.items()))
        support = self.support_table(k)
        expected = HomologyResult.from_dict(
            {support.degree: (len(support.multidegrees), ())})
        if total != expected:
            raise AssertionError(
                f"scan of twist {k} found {total.as_dict()}, closed form says {expected.as_dict()}")
        return CechResult(total, sum(count.values()), 0)

    def cech_homology(self, Y: TwistComplex, ring: CoefficientRing = ZZ) -> CechResult:
        """Homology of the Čech complex of a twist complex by homotopy
        transfer: ``transfer(Y)``, then its homology over ``ring``."""
        t = self.transfer(Y)
        return CechResult(t.homology(ring), t.active_multidegrees, t.transfer_paths)

    def transfer(self, Y: TwistComplex) -> CechTransfer:
        """The Čech complex of a twist complex transferred onto the small
        parts of its columns, over Z; no ring enters.

        Steps: (1) supports of every summand, with their columns, from the
        support tables; (2) one iterative depth-first walk from the
        support (level, summand, multidegree) triples down the monomial
        edges: a triple finishes after its targets and counts its paths
        down to a support from theirs; if it is a support or has such a
        path it becomes the next block, its column is read (built by
        ``column_complex`` only for a triple that is not a support) and
        its delta entries, one per edge and Čech degree, go to the targets
        that are blocks already. Each delta block is a ``SignedGather``:
        the coefficient times the (-1)^s column sign times the partial
        identity from the source's faces to the same faces of the target,
        whose rows the context keeps per pair of column masks;
        (3) contract the columns, each mask once per context; (4) transfer
        the monomial differentials through the homotopies, the contraction
        of a column at level t read t degrees up. Integral torsion in a
        column raises TorsionObstruction. ``CechTransfer.homology`` takes
        the last step over any ring; the transfer is not kept, so a caller
        that needs several rings keeps it.
        """
        validate(Y, self.polytope)
        supports: dict[tuple, ColumnComplex] = {}  # the column of each support triple
        for t, j, k in Y.summands():
            table = self.support_table(k)
            supports.update(((t, j, m), col) for m, col in zip(table.multidegrees, table.columns))
        if not supports:
            return CechTransfer(Transferred({}, (), ()), 0, 0)

        diff_entries: dict[int, dict[int, list[tuple[int, tuple]]]] = {}
        for t in range(Y.lo + 1, Y.hi + 1):
            per_source: dict[int, list[tuple[int, tuple]]] = {}
            for (i, j), terms in Y.diff_map(t).items():
                per_source.setdefault(j, []).extend((i, term) for term in terms)
            diff_entries[t] = per_source

        # one depth-first walk from the supports; a frame [triple, edges]
        # gets its (target, coefficient) edges when the walk enters it.
        # Every edge goes down one level, so a triple finishes after all
        # its targets: it then knows its paths down to a support and, if
        # it is a support or has one, becomes the next block
        paths: dict[tuple, int] = {}
        block_of: dict[tuple, int] = {}
        cols: list[ColumnComplex] = []
        delta: list[tuple[int, int, int, SignedGather]] = []
        stack = [[tr, None] for tr in supports]
        while stack:
            frame = stack[-1]
            tr, out = frame
            t, j, m = tr
            if out is None:
                if tr in paths:
                    stack.pop()
                    continue
                frame[1] = out = [((t - 1, i, tuple(map(add, m, u))), c)
                                  for i, (c, u) in diff_entries.get(t, {}).get(j, ())]
                stack.extend([tgt, None] for tgt, _ in out if tgt not in paths)
                continue
            stack.pop()
            paths[tr] = n = sum(paths[tgt] + (tgt in supports) for tgt, _ in out)
            src = supports.get(tr)
            if src is None:
                if not n:
                    continue
                src = self.column_complex(Y.level(t)[j], m)
            b = block_of[tr] = len(cols)
            cols.append(src)
            # each delta block sends face f of the source column to face f
            # of the target: validity makes every source face active there,
            # so the block is c times (-1)^s times a partial identity
            for tgt, c in out:
                tgt_idx = block_of.get(tgt)
                if tgt_idx is None:
                    continue
                for s, rows, width in self._gathers_between(src, cols[tgt_idx]):
                    delta.append((t + s, b, tgt_idx, SignedGather(-c if s % 2 else c, rows, width)))

        transferred = perturb_transfer([col.contraction for col in cols], delta,
                                       Y.hi - Y.lo + 1, [t for t, _, _ in block_of])
        return CechTransfer(transferred, len(cols), sum(paths[tr] for tr in supports))

    def euler_characteristic(self, Y: TwistComplex) -> int:
        """Alternating sum over levels of the signed point counts (-1)^n E(k)."""
        sign_n = (-1) ** self.polytope.dim
        chi = 0
        for t in range(Y.lo, Y.hi + 1):
            sign_t = -1 if t % 2 else 1  # levels may be negative
            for k in Y.level(t):
                val = self.ehrhart(k)
                if val.denominator != 1:
                    raise AssertionError(f"point-counting value E({k}) = {val} is not integral")
                chi += sign_t * sign_n * int(val)
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
        M = Matrix.from_rows([[self.euler_characteristic(line_bundle(j - ell))
                               for ell in range(npi + 1)] for j in range(npi + 1)])
        sign_n = (-1) ** self.polytope.dim
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


_context_cache: dict[LatticePolytope, CechContext] = {}


def context(P: LatticePolytope) -> CechContext:
    if P not in _context_cache:
        _context_cache[P] = CechContext(P)
    return _context_cache[P]


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


def euler_characteristic(P: LatticePolytope, Y: TwistComplex) -> int:
    return context(P).euler_characteristic(Y)


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
