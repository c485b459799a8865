"""Exact linear algebra over Z, Q and prime fields.

This module contains the arithmetic kernel used everywhere else. All
elimination in the package goes through two routines:

* ``row_echelon``, fraction-free Gauss-Jordan reduction over Q
  (Bareiss), lives in ``polytope``, next to the affine bases, cone rays
  and Ehrhart coefficients read off it, so that the commands that need
  only the polytope do not load this module.
* ``_diagonalize`` brings an integer matrix to its Smith form
  D = U*A*V with the inverse transforms tracked, a divisibility chain on
  the diagonal and a deterministic pivoting rule (entry of minimal
  nonzero absolute value, ties broken by (row, col)).
  ``smith_normal_form``, ``invariant_factors`` and ``contraction`` are
  built on it, and so is ``field_rank``: by universal coefficients the
  rank over Q counts the nonzero invariant factors, over F_p those that
  p does not divide. ``invariant_factors`` keeps no transforms, and there a
  unit pivot takes no column operations: once the row operations have
  cleared its column, they would change only the pivot's own row, which
  the loop never reads again but for its diagonal entry, so the
  diagonal comes out the same up to sign. The torsion of a direct sum
  of homology groups is that Smith form's chain for the diagonal matrix
  of the parts' factors, but ``direct_sum_of`` builds it by gcd and least
  common multiple folding, near-linear in the number of factors.

On top of these:

* ``complex_homology`` evaluates the homology of a bounded free chain
  complex, reporting free ranks and invariant factors over Z and ranks
  over Q or F_p, all from the integer Smith diagonal. The Čech pipeline
  applies its coefficient ring here and nowhere else.
* ``FreeChainComplex.tensor`` is the tensor product of two complexes,
  d(a⊗b) = da⊗b + (-1)^|a| a⊗db, assembled block by block.
* ``contraction`` produces explicit (include, project, homotopy) data
  over Z retracting a complex onto its homology, read off one
  diagonalising change of basis per differential.
* ``perturb_transfer`` corrects the differential on a direct sum of
  contracted blocks, each placed at its own degree offset, by the
  terminating series p*delta*(-h*delta)^j*i,
  followed block by block along the nonzero blocks of delta, over Z.
  A block of delta is a dense ``Matrix`` or a ``SignedGather``, c times
  a partial identity, which is applied by gathering rows, not by a
  matrix product.
  The result is never assembled globally: it comes back split into the
  connected components of the blocks its nonzero entries join, each a
  complex over its own blocks, plus the ranks of the blocks no entry
  touches, whose homology needs no elimination. Tensoring preserves a
  homotopy equivalence of free Z-complexes, so the homology of the
  transferred complex over any ring is that of the perturbed complex.

A chain complex holds Python ints only, which ``FreeChainComplex``
checks once on construction, as the Smith entry points check a matrix
given to them directly; Q and F_p enter as coefficient rings of
homology, never as entries. There is no floating point. A ``Matrix``
product adds up, for each row, the rows of the right factor that the
row's nonzero entries pick, so it costs the nonzeros of the left factor,
not its size.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from operator import add, matmul, neg, sub
from typing import Iterable, Mapping, Sequence

from .record import Record, is_ascii_int, require_ints


class InvalidComplex(Exception):
    """Raised when a complex has an entry that is not an int, or when
    consecutive differentials do not compose to zero."""


class TorsionObstruction(Exception):
    """Raised when integral homology torsion prevents a Z-split contraction."""


class NonNilpotent(Exception):
    """Raised when the perturbation series fails to terminate in the stated bound."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class CoefficientRing(Record):
    """One of the implemented coefficient rings: Z, Q, or F_p.

    ``kind`` is "Z", "Q" or "Fp"; ``p`` is set only for prime fields.
    """

    kind: str
    p: int | None

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.p is not None:
            require_ints([(self.p,)], ValueError, "the modulus")
        if self.kind == "Fp":
            # the primality test is trial division, so bound its work first
            if self.p is not None and self.p > 2**31:
                raise ValueError(f"modulus {self.p} exceeds 2**31")
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"modulus {self.p!r} is not prime")
        elif self.p is not None:
            raise ValueError("modulus only allowed for prime fields")

    @staticmethod
    def parse(text: str) -> "CoefficientRing":
        """Parse "Z", "Q" or "Fp:<p>" as used by the command line, p read
        by ``is_ascii_int``."""
        if text in ("Z", "Q"):
            return CoefficientRing(text, None)
        if text.startswith("Fp:") and is_ascii_int(text[3:]):
            return CoefficientRing("Fp", int(text[3:]))
        raise ValueError(f"unknown ring {text!r}")

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def label(self) -> str:
        return self.kind if self.p is None else f"Fp:{self.p}"


ZZ = CoefficientRing("Z", None)
QQ = CoefficientRing("Q", None)


def GF(p: int) -> CoefficientRing:
    return CoefficientRing("Fp", p)


class Matrix:
    """Immutable dense matrix with exact entries; in the differentials of a
    ``FreeChainComplex`` they are ints."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple):
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(tuple(row) for row in rows)
        ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        return cls(len(data), ncols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {list(map(list, self.data))})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Row i of the product is the sum of the rows of ``other`` that the
        nonzero entries of row i pick, each times its entry: the work is
        the nonzeros of ``self`` times the width of ``other``. A row whose
        only nonzero entry is 1 shares the picked row of ``other``."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = (0,) * other.cols
        out = []
        for row in self.data:
            acc = None
            for a, b in zip(row, other.data):
                if not a:
                    continue
                if acc is None:
                    if a == 1:
                        acc = b
                    elif a == -1:
                        acc = tuple(map(neg, b))
                    else:
                        acc = tuple([a * x for x in b])
                elif a == 1:
                    acc = tuple(map(add, acc, b))
                elif a == -1:
                    acc = tuple(map(sub, acc, b))
                else:
                    acc = tuple([x + a * y for x, y in zip(acc, b)])
            out.append(zero if acc is None else acc)
        return Matrix(self.rows, other.cols, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix(self.rows, self.cols,
                      tuple(tuple(a + b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.data, other.data)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      tuple(tuple(c * a for a in row) for row in self.data))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(zip(*self.data)) if self.data else ())

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.data for a in row)

    def is_zero_mod(self, ring: CoefficientRing) -> bool:
        """Whether every int entry vanishes in ``ring`` (mod p over F_p)."""
        p = ring.p
        for row in self.data:
            if not any(row):
                continue
            if p is None or any(a % p for a in row):
                return False
        return True

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix(len(row_idx), len(col_idx),
                      tuple(tuple(self.data[i][j] for j in col_idx) for i in row_idx))


class SignedGather:
    """c times a partial identity: row r is c times the unit row e_{rows[r]},
    or a zero row where ``rows[r]`` is None; ``cols`` is the width.

    ``G @ M`` gathers instead of multiplying: row r of the product is c
    times row ``rows[r]`` of M. With c = 1 the product shares M's rows.
    """

    __slots__ = ("c", "rows", "cols")

    def __init__(self, c: int, rows: Sequence[int | None], cols: int):
        self.c = c
        self.rows = tuple(rows)
        self.cols = cols

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {len(self.rows)}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        c, data, zero = self.c, other.data, (0,) * other.cols
        if c == 1:
            out = tuple(zero if r is None else data[r] for r in self.rows)
        else:
            out = tuple(zero if r is None else tuple(c * a for a in data[r])
                        for r in self.rows)
        return Matrix(len(self.rows), other.cols, out)

    def is_zero(self) -> bool:
        return not self.c or self.rows.count(None) == len(self.rows)


def _rank(factors: Sequence[int], p: int | None) -> int:
    """Rank over Z or Q (p None) or F_p of a matrix with these nonzero
    invariant factors: by universal coefficients, those p does not divide."""
    return len(factors) if p is None else sum(1 for f in factors if f % p)


def field_rank(A: Matrix, ring: CoefficientRing) -> int:
    """Rank of the integer matrix A over Q or F_p, read off its Smith
    diagonal. Raises ValueError on an entry that is not an int."""
    if not ring.is_field:
        raise ValueError(f"field rank needs a field, not {ring.label}")
    return _rank(invariant_factors(A), ring.p)


def _nearest_quotient(a: int, b: int) -> int:
    # minimizes |a - q*b|; remainder magnitude at most |b|/2 forces progress
    q = a // b
    r = a - q * b
    if 2 * abs(r) > abs(b):
        return q + 1
    return q


def _diagonalize(A: Matrix, track: bool = True):
    """Smith normal form D = U*A*V of an integer matrix.

    The pivot is an entry of minimal nonzero absolute value, ties broken
    by (row, col); rows and columns are reduced by nearest quotients until
    the pivot divides the rest of its row and column, a row sum repairs a
    pivot that fails to divide the remaining block, and with ``track``
    rows are negated at the end so the diagonal is non-negative.
    Everything is over Z: other rings enter only through
    ``complex_homology``.

    Returns (U, Uinv, D, V, Vinv) with U*Uinv = I and V*Vinv = I. Without
    ``track`` only the nonzero invariant factors come back, read off the
    diagonal up to sign: the rows of unit pivots keep entries right of
    the diagonal (the column operations that would clear them are
    skipped), and no row is negated.
    """
    r, c = A.rows, A.cols
    D = [list(row) for row in A.data]

    def eye(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

    # U and Vinv change by row operations, Uinv and V by column operations;
    # the latter two are kept transposed so that every update is a row update
    if track:
        U, UiT, VT, Vi = eye(r), eye(r), eye(c), eye(c)

    def combine(X, a, b, q):  # X[a] -= q*X[b]
        X[a] = [x - q * y for x, y in zip(X[a], X[b])]

    def row_op(i, t, q):  # row_i -= q*row_t
        combine(D, i, t, q)
        if track:
            combine(U, i, t, q)
            combine(UiT, t, i, -q)

    def col_op(j, t, q):  # col_j -= q*col_t
        for row in D:
            row[j] -= q * row[t]
        if track:
            combine(VT, j, t, q)
            combine(Vi, t, j, -q)

    def row_swap(i, j):
        for X in (D, U, UiT) if track else (D,):
            X[i], X[j] = X[j], X[i]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        if track:
            for X in (VT, Vi):
                X[i], X[j] = X[j], X[i]

    def pivot(t):
        # the first unit wins outright: nothing is smaller
        best = None
        for i in range(t, r):
            for j in range(t, c):
                v = abs(D[i][j])
                if v and (best is None or v < best[0]):
                    if v == 1:
                        return i, j
                    best = (v, i, j)
        return None if best is None else best[1:]

    t = 0
    n = min(r, c)
    while t < n:
        found = pivot(t)
        if found is None:
            break
        pi, pj = found
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)
        piv = D[t][t]
        dirty = False
        for i in range(t + 1, r):
            if D[i][t]:
                row_op(i, t, _nearest_quotient(D[i][t], piv))
                if D[i][t]:
                    dirty = True
        unit = piv == 1 or piv == -1
        if track or not unit:
            # after the row operations a column operation by a unit pivot
            # changes only row t, which nothing below reads off the diagonal
            for j in range(t + 1, c):
                if D[t][j]:
                    col_op(j, t, _nearest_quotient(D[t][j], piv))
                    if D[t][j]:
                        dirty = True
        if dirty:
            continue
        if not unit:
            bad = next((i for i in range(t + 1, r) for j in range(t + 1, c)
                        if D[i][j] % piv), None)
            if bad is not None:
                row_op(t, bad, -1)
                continue
        t += 1
    if not track:
        return [abs(D[i][i]) for i in range(n) if D[i][i]]
    for i in range(n):
        if D[i][i] < 0:
            for X in (D, U, UiT):
                X[i] = [-x for x in X[i]]
    wrap = Matrix.from_rows
    return wrap(U), wrap(UiT).transpose(), wrap(D), wrap(VT).transpose(), wrap(Vi)


def smith_normal_form(A: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with D = U @ A @ V, U and V unimodular, D diagonal
    with non-negative entries d_1 | d_2 | ... Pivots are chosen with
    minimal nonzero absolute value, ties broken in (row, col) order, so
    the transforms are reproducible across runs. Raises ValueError on an
    entry that is not an int.
    """
    require_ints(A.data, ValueError, "the matrix")
    U, _, D, V, _ = _diagonalize(A)
    return U, D, V


def invariant_factors(A: Matrix) -> list[int]:
    """Nonzero diagonal of the Smith form of an integer matrix (no transform
    bookkeeping). Raises ValueError on an entry that is not an int."""
    require_ints(A.data, ValueError, "the matrix")
    return _diagonalize(A, track=False)


class FreeChainComplex(Record):
    """Bounded complex of finite free modules; differentials lower degree by 1.

    ``ranks[d - lo]`` is the rank in degree d; ``diffs[d - lo - 1]`` is the
    matrix of the differential from degree d to degree d-1. Every entry is
    an int (not a bool), or InvalidComplex is raised: the complex is over Z.
    Each d∘d is multiplied out here, once, and kept if it is nonzero over Z.
    """

    lo: int
    hi: int
    ranks: tuple[int, ...]
    diffs: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if self.hi < self.lo and (self.ranks or self.diffs):
            raise ValueError("empty complex must have no data")
        if len(self.ranks) != max(self.hi - self.lo + 1, 0):
            raise ValueError("rank list does not match degree range")
        if len(self.diffs) != max(self.hi - self.lo, 0):
            raise ValueError("differential list does not match degree range")
        for d in range(self.lo + 1, self.hi + 1):
            m = self.diffs[d - self.lo - 1]
            if (m.rows, m.cols) != (self.ranks[d - 1 - self.lo], self.ranks[d - self.lo]):
                raise ValueError(f"differential at degree {d} has the wrong shape")
            require_ints(m.data, InvalidComplex, f"differential at degree {d}")
        object.__setattr__(self, "_dd_nonzero", tuple(
            (d, m) for d, m in enumerate(map(matmul, self.diffs, self.diffs[1:]), self.lo + 2)
            if not m.is_zero_mod(ZZ)) if len(self.diffs) > 1 else ())

    @classmethod
    def empty(cls) -> "FreeChainComplex":
        return cls(0, -1, (), ())

    @classmethod
    def from_dicts(cls, ranks: Mapping[int, int], diffs: Mapping[int, Matrix]) -> "FreeChainComplex":
        if not ranks:
            return cls.empty()
        lo, hi = min(ranks), max(ranks)
        rank_t = tuple(ranks.get(d, 0) for d in range(lo, hi + 1))
        diff_t = tuple(
            diffs.get(d, Matrix.zeros(rank_t[d - 1 - lo], rank_t[d - lo]))
            for d in range(lo + 1, hi + 1)
        )
        return cls(lo, hi, rank_t, diff_t)

    def rank(self, d: int) -> int:
        if self.lo <= d <= self.hi:
            return self.ranks[d - self.lo]
        return 0

    def diff(self, d: int) -> Matrix:
        """Matrix of the differential from degree d to d-1 (zero off range)."""
        if self.lo < d <= self.hi:
            return self.diffs[d - self.lo - 1]
        return Matrix.zeros(self.rank(d - 1), self.rank(d))

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def total_rank(self) -> int:
        return sum(self.ranks)

    def tensor(self, other: "FreeChainComplex") -> "FreeChainComplex":
        """The tensor product, with d(a⊗b) = da⊗b + (-1)^|a| a⊗db.

        Degree g stacks the blocks self_s ⊗ other_{g-s} in ascending s; in
        its block, a⊗b sits at (index of a) * rank(other_{g-s}) + index of b.
        """
        if self.hi < self.lo or other.hi < other.lo:
            return FreeChainComplex.empty()
        lo, hi = self.lo + other.lo, self.hi + other.hi
        ranks = dict.fromkeys(range(lo, hi + 1), 0)
        start = {}  # (g, s): first index of the block self_s ⊗ other_{g-s}
        for g, s in product(ranks, self.degrees()):
            start[g, s] = ranks[g]
            ranks[g] += self.rank(s) * other.rank(g - s)
        diffs = {}
        for g in range(lo + 1, hi + 1):
            grid = [[0] * ranks[g] for _ in range(ranks[g - 1])]
            for s in self.degrees():
                t, col = g - s, start[g, s]
                terms = []  # (first row, X, Y): the block X ⊗ Y out of self_s ⊗ other_t
                if s > self.lo:
                    terms.append((start[g - 1, s - 1], self.diff(s), Matrix.identity(other.rank(t))))
                if other.lo < t <= other.hi:
                    sign = Matrix.identity(self.rank(s)).scale(-1 if s % 2 else 1)
                    terms.append((start[g - 1, s], sign, other.diff(t)))
                for row, X, Y in terms:
                    for i, j, k, m in product(range(X.rows), range(X.cols),
                                              range(Y.rows), range(Y.cols)):
                        grid[row + i * Y.rows + k][col + j * Y.cols + m] = X[i, j] * Y[k, m]
            diffs[g] = Matrix(ranks[g - 1], ranks[g], tuple(map(tuple, grid)))
        return FreeChainComplex.from_dicts(ranks, diffs)


def _insert_factor(runs: list[list[int]], f: int) -> None:
    """Add Z/f to an ascending invariant-factor chain kept as [value, count] runs.

    Walking down from the top, an element c that f does not divide becomes
    c*f/gcd(c, f) and f goes on as gcd(c, f). Per prime this inserts f's exponent
    into the sorted exponents, so the chain is that of the Smith form, and no
    factor is factored. The distinct values divide each other properly, so
    there are few runs however many factors are added.
    """
    i = len(runs)
    while f > 1:
        v = runs[i - 1][0] if i else 1
        if v % f == 0:
            i -= 1
            continue
        g = gcd(v, f)
        top = v // g * f
        if i < len(runs) and runs[i][0] == top:
            runs[i][1] += 1
        else:
            runs.insert(i, [top, 1])
        if g == v:  # f fits between runs i-1 and i
            return
        runs[i - 1][1] -= 1  # the top element of run i-1 became v*f/g
        if not runs[i - 1][1]:
            del runs[i - 1]
        f, i = g, i - 1


class HomologyResult(Record):
    """Homology groups keyed by degree: free rank plus invariant factors."""

    groups: tuple[tuple[int, int, tuple[int, ...]], ...]

    @classmethod
    def from_dict(cls, data: Mapping[int, tuple[int, Sequence[int]]]) -> "HomologyResult":
        items = []
        for d in sorted(data):
            free, torsion = data[d]
            torsion = tuple(torsion)
            if free or torsion:
                items.append((d, free, torsion))
        return cls(tuple(items))

    def as_dict(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        return {d: (free, torsion) for d, free, torsion in self.groups}

    def is_zero(self) -> bool:
        return not self.groups

    def shifted(self, j: int) -> "HomologyResult":
        return HomologyResult(tuple((d + j, free, torsion) for d, free, torsion in self.groups))

    @classmethod
    def direct_sum_of(cls, parts: Iterable["HomologyResult"],
                      free: Mapping[int, int] | None = None) -> "HomologyResult":
        """Direct sum of ``parts`` and of free groups of the ranks ``free[d]``.

        The torsion factors of each degree, over all parts, are folded one
        by one into a single invariant-factor chain by ``_insert_factor``.
        """
        ranks = dict(free or {})
        runs: dict[int, list[list[int]]] = {}
        for h in parts:
            for d, f, t in h.groups:
                ranks[d] = ranks.get(d, 0) + f
                for factor in t:
                    _insert_factor(runs.setdefault(d, []), factor)
        return cls.from_dict({d: (r, tuple(v for v, c in runs.get(d, []) for _ in range(c)))
                              for d, r in ranks.items()})


def complex_homology(C: FreeChainComplex, ring: CoefficientRing = ZZ) -> HomologyResult:
    """Homology of a bounded free complex over Z, Q or F_p.

    The free rank and invariant factors come from Smith forms of the
    adjacent differentials over Z; over a field the ranks are read off the
    same diagonal. Raises InvalidComplex when d∘d != 0 over the ring: C
    multiplied out each d∘d once, over Z, and only a nonzero one is rechecked.
    """
    for d, dd in C._dd_nonzero:  # zero over Z is zero over every ring
        if not dd.is_zero_mod(ring):
            raise InvalidComplex(f"d∘d != 0 between degrees {d} and {d - 2}")
    # image[i] is the rank of diffs[i - 1], the differential out of degree
    # lo + i, and torsion[i] the factors of diffs[i], into it; zero past the ends
    image, torsion = [0], []
    p, field = ring.p, ring.is_field
    for m in C.diffs:
        factors = _diagonalize(m, track=False) if m.rows and m.cols else ()
        image.append(_rank(factors, p))
        torsion.append(() if field else tuple(f for f in factors if f > 1))
    image.append(0)
    torsion.append(())
    groups = []
    for d, n, r_out, r_in, t in zip(C.degrees(), C.ranks, image, image[1:], torsion):
        free = n - r_out - r_in
        if free < 0:
            raise InvalidComplex(f"negative rank at degree {d}; differentials inconsistent")
        if free or t:
            groups.append((d, free, t))
    return HomologyResult(tuple(groups))


class Contraction(Record):
    """Retraction of ``ambient`` onto ``small`` with explicit homotopy.

    include (i), project (p) and homotopy (h) are stored per degree of the
    ambient range and satisfy p∘i = 1, 1 - i∘p = d∘h + h∘d together with
    the side conditions h∘i = 0, p∘h = 0, h∘h = 0. ``small`` always has
    zero differential here.
    """

    ambient: FreeChainComplex
    small: FreeChainComplex
    include: tuple[Matrix, ...]
    project: tuple[Matrix, ...]
    homotopy: tuple[Matrix, ...]

    def include_at(self, d: int) -> Matrix:
        if self.ambient.lo <= d <= self.ambient.hi:
            return self.include[d - self.ambient.lo]
        return Matrix.zeros(self.ambient.rank(d), self.small.rank(d))

    def project_at(self, d: int) -> Matrix:
        if self.ambient.lo <= d <= self.ambient.hi:
            return self.project[d - self.ambient.lo]
        return Matrix.zeros(self.small.rank(d), self.ambient.rank(d))

    def homotopy_at(self, d: int) -> Matrix:
        if self.ambient.lo <= d <= self.ambient.hi:
            return self.homotopy[d - self.ambient.lo]
        return Matrix.zeros(self.ambient.rank(d + 1), self.ambient.rank(d))

    def verify(self) -> None:
        """Check all five contraction identities as literal matrix equations over Z."""
        amb, sm = self.ambient, self.small
        for d in amb.degrees():
            i, p, h = self.include_at(d), self.project_at(d), self.homotopy_at(d)
            if p @ i != Matrix.identity(sm.rank(d)):
                raise AssertionError(f"p∘i != 1 at degree {d}")
            lhs = Matrix.identity(amb.rank(d)) - i @ p
            rhs = amb.diff(d + 1) @ h + self.homotopy_at(d - 1) @ amb.diff(d)
            if lhs != rhs:
                raise AssertionError(f"1 - i∘p != dh + hd at degree {d}")
            if not (h @ i).is_zero():
                raise AssertionError(f"h∘i != 0 at degree {d}")
            if not (self.project_at(d + 1) @ h).is_zero():
                raise AssertionError(f"p∘h != 0 at degree {d}")
            if not (self.homotopy_at(d + 1) @ h).is_zero():
                raise AssertionError(f"h∘h != 0 at degree {d}")


def contraction(C: FreeChainComplex) -> Contraction:
    """Contract the integer complex C onto its homology, over Z.

    Works upwards through the degrees. The differential out of degree d,
    restricted to what is left of degree d-1, is brought to Smith form
    D = U*M*V, whose r unit pivots come first and are exactly 1. The
    first r columns of V and rows of U span the cancelled pairs: the
    homotopy maps them onto each other, and the remaining columns and rows
    give the include and project maps. A further nonzero invariant factor
    means integral homology torsion and raises TorsionObstruction instead
    of guessing a non-integral splitting. Without torsion the contraction
    stays one after any base change, so it serves every coefficient ring.
    """
    lo, hi = C.lo, C.hi
    inc = {d: Matrix.identity(C.rank(d)) for d in C.degrees()}
    proj = {d: Matrix.identity(C.rank(d)) for d in C.degrees()}
    homot = {d: Matrix.zeros(C.rank(d + 1), C.rank(d)) for d in C.degrees()}

    for d in range(lo + 1, hi + 1):
        # inc[d] and proj[d] are still the identity here
        M = proj[d - 1] @ C.diff(d)
        if M.is_zero():
            continue
        U, Uinv, Dg, V, Vinv = _diagonalize(M)
        diag = [Dg[i, i] for i in range(min(Dg.rows, Dg.cols))]
        r = diag.count(1)
        bad = [x for x in diag[r:] if x]
        if bad:
            raise TorsionObstruction(
                f"invariant factors {bad} at degree {d} obstruct an integral splitting")
        rows, cols = range(M.rows), range(M.cols)
        UP = U @ proj[d - 1]
        amb = range(UP.cols)
        homot[d - 1] = V.submatrix(cols, range(r)) @ UP.submatrix(range(r), amb)
        inc[d] = V.submatrix(cols, cols[r:])
        proj[d] = Vinv.submatrix(cols[r:], cols)
        inc[d - 1] = inc[d - 1] @ Uinv.submatrix(rows, rows[r:])
        proj[d - 1] = UP.submatrix(rows[r:], amb)

    small = FreeChainComplex.from_dicts({d: inc[d].cols for d in C.degrees()}, {})
    return Contraction(C, small, *(tuple(m[d] for d in C.degrees()) for m in (inc, proj, homot)))


class Transferred(Record):
    """The transferred complex, split into connected components.

    Blocks joined by a nonzero transferred entry form one component;
    ``components[c]`` is assembled over the blocks ``linked[c]`` only, in
    block order. A block that no nonzero entry touches keeps a zero
    differential, so its homology over every ring is free of its small
    ranks; ``unlinked[d]`` sums those ranks in degree d.
    """

    unlinked: Mapping[int, int]
    components: tuple[FreeChainComplex, ...]
    linked: tuple[tuple[int, ...], ...]


def perturb_transfer(
    blocks: Sequence[Contraction],
    delta: Iterable[tuple[int, int, int, Matrix | SignedGather]],
    level_bound: int,
    shifts: Sequence[int],
) -> Transferred:
    """Transfer a perturbed differential onto the small parts of the blocks, over Z.

    Block b sits ``shifts[b]`` degrees up in the direct sum: its degree d
    is degree ``d - shifts[b]`` of the contraction ``blocks[b]``, so one
    contraction serves every level it is placed at, without a copy.
    Degrees below, in delta and in the result, are those of the sum.
    Delta is a flat list: an entry ``(d, src, tgt, block)`` maps the
    ambient of block ``src`` in degree d to the ambient of block ``tgt``
    in degree d-1, and entries that repeat a ``(d, src, tgt)`` add. A
    block is a ``Matrix`` or a ``SignedGather`` and is read only through
    ``@`` and ``is_zero()``. Delta must strictly lower a finite
    filtration so that the series p∘delta∘(-h∘delta)^j∘i stops after at
    most ``level_bound`` terms; otherwise NonNilpotent is raised.
    The sign of h comes from the convention 1 - i∘p = d∘h + h∘d of
    ``Contraction``. The series is followed block by block, starting only
    at the blocks that delta leaves in degree d: each term maps the small
    part of a source block into the ambients of the blocks that delta
    reaches from where the previous term ended, and no other block is
    visited. The homotopy is applied only at blocks that delta leaves in
    degree d, since no later term reads it elsewhere; a cycle of delta
    blocks still raises NonNilpotent, as each block on it has an edge
    leaving it. The result stays block-sparse: a union-find over the nonzero
    entries splits it into components, and each component is assembled
    over its own blocks and checked to square to zero. Blocks and delta
    are integral, and so is the result; the direct sum of its parts is
    homotopy equivalent to the perturbed complex over Z and hence after
    tensoring with any ring.
    """
    # leaving[d][s]: the nonzero delta blocks (tgt, matrix) out of block s in degree d
    leaving: dict[int, dict[int, list[tuple[int, Matrix | SignedGather]]]] = {}
    for d, si, ti, m in delta:
        if not m.is_zero():
            leaving.setdefault(d, {}).setdefault(si, []).append((ti, m))

    def accumulate(into, key, m):
        into[key] = into[key] + m if key in into else m

    # acc[(d, t, s)]: small part of block s in degree d -> small part of block t
    acc: dict[tuple[int, int, int], Matrix] = {}
    for d, out_of in leaving.items():
        # x[(t, s)]: small part of block s in degree d -> ambient of block t
        x = {(k, k): blocks[k].include_at(d - shifts[k])
             for k in out_of if blocks[k].small.rank(d - shifts[k])}
        j = 0
        while x:
            if j >= level_bound:
                raise NonNilpotent(f"perturbation series still nonzero after {j} terms")
            y: dict[tuple[int, int], Matrix] = {}
            for (t, s), m in x.items():
                for ti, dm in out_of.get(t, ()):
                    accumulate(y, (ti, s), dm @ m)
            x = {}
            for (t, s), m in y.items():
                e = d - 1 - shifts[t]
                if blocks[t].small.rank(e):
                    accumulate(acc, (d, t, s), blocks[t].project_at(e) @ m)
                if t not in out_of:  # the next term reads h only through delta out of t
                    continue
                h = blocks[t].homotopy_at(e) @ m
                if not h.is_zero():  # most are zero: negate only the rest
                    x[(t, s)] = -h
            j += 1
    links = {key: m for key, m in acc.items() if not m.is_zero()}

    parent: dict[int, int] = {}  # union-find over the linked blocks only

    def root(b: int) -> int:
        parent.setdefault(b, b)
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        return b

    for _, t, s in links:
        parent[root(t)] = root(s)
    members: dict[int, list[int]] = {}
    unlinked: dict[int, int] = {}
    for b, block in enumerate(blocks):
        if b in parent:
            members.setdefault(root(b), []).append(b)
            continue
        for d, r in zip(block.small.degrees(), block.small.ranks):
            if r:
                d += shifts[b]
                unlinked[d] = unlinked.get(d, 0) + r
    by_component: dict[int, list] = {c: [] for c in members}
    for key, m in links.items():
        by_component[root(key[1])].append((key, m))

    components = []
    for c, bs in members.items():
        offset: dict[tuple[int, int], int] = {}  # (degree, block) -> first row
        ranks: dict[int, int] = {}
        for b in bs:
            for d, r in zip(blocks[b].small.degrees(), blocks[b].small.ranks):
                if r:
                    d += shifts[b]
                    offset[(d, b)] = ranks.get(d, 0)
                    ranks[d] = ranks.get(d, 0) + r
        grids: dict[int, list[list]] = {}
        for (d, t, s), m in by_component[c]:
            grid = grids.get(d)
            if grid is None:
                grid = grids[d] = [[0] * ranks[d] for _ in range(ranks[d - 1])]
            r0, c0 = offset[(d - 1, t)], offset[(d, s)]
            for i, row in enumerate(m.data, r0):
                grid[i][c0:c0 + m.cols] = row
        component = FreeChainComplex.from_dicts(
            ranks, {d: Matrix.from_rows(grid) for d, grid in grids.items()})
        if component._dd_nonzero:  # multiplied out as it was built
            raise ValueError("transferred differential does not square to zero; "
                             "delta violates the perturbation preconditions")
        components.append(component)
    return Transferred(unlinked, tuple(components), tuple(map(tuple, members.values())))
