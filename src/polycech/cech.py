"""Čech complexes of twist complexes and their homology.

For a lattice polytope P and a twist complex Y, a bounded complex of sums
of O(k) with monomial differentials, this module computes:

* ``cech_homology``: the homology of the Čech complex of Y over Z, Q or
  F_p. ``transfer`` moves the complex over Z onto the homology of its
  columns, and the ring enters only in the homology of the result;
* ``line_bundle_cohomology``: the same for one O(k), by a scan of a box
  around kP, checked against the closed form and the box boundary;
* ``constant_diagram_cech``: the homology of a constant diagram C, the
  full face complex tensored with C, checked against C shifted by n;
* Euler characteristics, acyclicity windows and the splitting matrix.

The Čech complex splits by lattice multidegree m into columns: the faces
F whose cone kF + T_F contains m. A column depends only on the mask of
facets whose inequality holds at m. A ``CechContext`` keeps, for as long
as it lives: the face lattice, incidence signs and Ehrhart data of P; the
column of every mask reached, with its contraction once read; the support
table of every twist asked, with its column; and the delta gathers of
every pair of masks a transfer has joined.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from operator import add
from typing import Sequence

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
    NotUnimodular,  # raised by splitting_matrix; callers read it here too
    bounding_box,
    ehrhart_polynomial,
    face_lattice,
    facet_mask,
    facet_runs,
    lattice_points,
    np_index,
    splitting_rows,
    standard_simplex,
    twist_euler_characteristic,
)
from .record import Record
from .sheaf_complexes import TwistComplex, bundle_tensor, cone, line_bundle, twist, validate


class SupportEscapesBox(Exception):
    """A column on the scan-box boundary carried homology; the box is too small."""


class WindowMismatch(Exception):
    """Internal guard: the acyclic range of negative twists contradicts the root count."""


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
    built once per twist, with the one column of O(k) at all of them: every
    facet holds on kP for k >= 0, and none strictly inside it for k < 0."""

    degree: int
    multidegrees: tuple[tuple[int, ...], ...]
    column: ColumnComplex


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

        m lies in k*F + T_F iff <a_i, m> >= k*b_i for every facet i tight
        at F, so the column is that of m's ``facet_mask``, built once per
        mask and returned to every twist and multidegree that reaches it.
        """
        return self._column_of(facet_mask(self.polytope, k, m))

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

    def support_table(self, k: int) -> SupportTable:
        """Multidegrees carrying homology: kP for k >= 0, interior of kP else.

        The points are enumerated the first time twist k is asked and the
        table is kept; every later call, from any reader, returns the same
        immutable table. A context thus keeps the support of every twist it
        has been asked, each table the size the first call enumerated.
        """
        table = self._supports.get(k)
        if table is None:
            mask = (1 << len(self.polytope.facets)) - 1 if k >= 0 else 0
            table = self._supports[k] = SupportTable(
                self.polytope.dim if k >= 0 else 0,
                lattice_points(self.polytope, k, interior=k < 0), self._column_of(mask))
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
        run of equal facet mask at a time (``facet_runs``). Columns sharing
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
        facets = [(a, k * b) for a, b in self.polytope.facets]  # <a, m> >= k*b
        for m, length, mask in facet_runs(facets, box):
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

        Steps: (1) supports of every summand, with the column of its twist,
        from the support tables; (2) one iterative depth-first walk from the
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
            supports.update(dict.fromkeys(((t, j, m) for m in table.multidegrees), table.column))
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
        return sum((-1) ** (t % 2) * twist_euler_characteristic(self.polytope, self.ehrhart, k)
                   for t in range(Y.lo, Y.hi + 1) for k in Y.level(t))  # t % 2 is 0 or 1

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
        """chi(O(j - l)) for 0 <= j, l <= root count, the rows that
        ``polytope.splitting_rows`` reads off the context's Ehrhart data; it
        raises NotUnimodular unless they are lower triangular, diagonal (-1)^n."""
        return Matrix.from_rows(splitting_rows(self.polytope, self.ehrhart, self.np))

    def constant_diagram_cech(self, C: FreeChainComplex,
                              ring: CoefficientRing = ZZ) -> CechResult:
        """Čech homology of the constant diagram with value C.

        Its Čech complex is the column of the full facet mask, every face
        with its incidence signs, tensored with C, so C's differential
        carries the sign (-1)^s in Čech degree s. The result must equal
        the homology of C shifted up by n, torsion included.
        """
        faces = self._column_of((1 << len(self.polytope.facets)) - 1).complex
        hom = complex_homology(faces.tensor(C), ring)
        expected = complex_homology(C, ring).shifted(self.polytope.dim)
        if hom != expected:
            raise AssertionError(
                f"constant diagram gave {hom.as_dict()}, expected shifted {expected.as_dict()}")
        return CechResult(hom, 0, 0)

    def con_vs_bundle_check(self, C: FreeChainComplex, ring: CoefficientRing = ZZ) -> None:
        """Constant-diagram route vs O(0) tensor route: raises AssertionError
        naming both homologies unless they agree degreewise."""
        direct = self.constant_diagram_cech(C, ring).homology
        tensored = self.cech_homology(bundle_tensor(0, C, self.polytope.dim), ring).homology
        if direct != tensored:
            raise AssertionError(f"constant diagram gave {direct.as_dict()}, "
                                 f"O(0) tensor C gave {tensored.as_dict()}")


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
                        ring: CoefficientRing = ZZ) -> None:
    context(P).con_vs_bundle_check(C, ring)


def simplex_cone_check(n: int, k: int, ring: CoefficientRing = ZZ) -> None:
    """Cone of the basic inclusion O(k) -> O(k+1) on the standard n-simplex
    against the (n-1)-simplex line bundle O(k+1), reindexed up by one:
    raises AssertionError naming both homologies unless they agree, and
    ValueError unless 0 <= k < n."""
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    big = context(standard_simplex(n))
    small = context(standard_simplex(n - 1))
    zero_u = tuple(0 for _ in range(n))
    f = {0: {(0, 0): [(1, zero_u)]}}
    Y = cone(f, line_bundle(k), line_bundle(k + 1))
    lhs = big.cech_homology(Y, ring).homology
    rhs = small.line_bundle_cohomology(k + 1, ring).homology.shifted(1)
    if lhs != rhs:
        raise AssertionError(f"cone of O({k}) -> O({k + 1}) gave {lhs.as_dict()}, "
                             f"shifted O({k + 1}) on the {n - 1}-simplex gave {rhs.as_dict()}")
