"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive facts along different routes than
the library: cones from generator hulls instead of tight facets, homology
of two-level complexes from the connecting map instead of the transfer
pipeline, hulls by point classification instead of hyperplane search.
The polytope oracles are the exhaustive enumerations the library no
longer uses: facets from every dim-subset of the vertices, faces from
every subset of the facets, lattice points from the whole bounding box.
Their ranks, nullspaces and solutions come from a plain Fraction
Gauss-Jordan kept here, not from the library's fraction-free
``row_echelon``, which is itself tested against it; it also gives the
determinants the tests check, which the library never computes, and its
mod-p path gives the ranks over F_p that the library reads off the Smith
diagonal. The torsion of the
two-level oracle comes from a textbook Smith loop kept beside it, not
from the library's ``invariant_factors``. The torsion of a
direct sum is merged here prime by prime, after factoring by trial
division, where the library folds each factor into the chain by gcd
and lcm; the trial division limits this oracle to small factors. The
Ehrhart coefficients are summed here from the Lagrange basis, where the
library solves the Vandermonde system with ``row_echelon``. The homology
of a tensor product is read off the Künneth formula from the homology of
each factor, where the library eliminates the assembled product. The
incidence signs are solved for here in coordinates, face by face, where
the library propagates them through the face lattice; the two agree up
to one sign per face, which ``equal_up_to_face_signs`` decides. Each
Čech column is checked against the simplicial homology of the nerve of
its failing facets (``nerve_homology``), built from the vertices and
facets alone, where the library assembles the column from the face
lattice and its incidence signs.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

from polycech.exact_linalg import (
    Matrix,
    FreeChainComplex,
    HomologyResult,
    contraction,
)
from polycech.polytope import facets_from_vertices, lattice_points, standard_simplex
from polycech.sheaf_complexes import direct_sum, make_twist_complex
from polycech import cech as cech_mod


def sample_polytopes():
    return {
        "interval": standard_simplex(1),
        "simplex2": standard_simplex(2),
        "simplex3": standard_simplex(3),
        "square": facets_from_vertices(2, [(0, 0), (1, 0), (0, 1), (1, 1)]),
        "cube": facets_from_vertices(
            3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]),
        "rect": facets_from_vertices(2, [(0, 0), (1, 0), (0, 2), (1, 2)]),
    }


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def gauss_jordan(rows, p=None):
    """Reduced row echelon form by plain Gauss-Jordan, over Q or F_p.

    Every entry is a Fraction (an int mod p) throughout: the textbook
    elimination, independent of the library's fraction-free kernel, with
    the same conventions as ``polycech.polytope.row_echelon`` over Q.
    The pivot of each column is its first nonzero entry at or below the
    current rank; returns (R, pivots, scale) with ``scale`` the product
    of the pivots met times the sign of the row swaps. The mod-p path
    serves only ``rank_by_elimination``, the oracle for ranks over F_p,
    which the library reads off the integer Smith diagonal instead.
    """
    if p is None:
        m = [[Fraction(a) for a in row] for row in rows]
    else:
        m = [[int(a) % p for a in row] for row in rows]
    nrows = len(m)
    pivots = []
    scale = 1
    for j in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][j]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            scale = -scale
        x = m[r][j]
        scale *= x
        if p is None:
            inv = 1 / x
            top = m[r] = [inv * a for a in m[r]]
        else:
            inv = pow(x, -1, p)
            top = m[r] = [inv * a % p for a in m[r]]
        for i in range(nrows):
            c = m[i][j]
            if c and i != r:
                row = [a - c * b for a, b in zip(m[i], top)]
                m[i] = row if p is None else [a % p for a in row]
        pivots.append(j)
    return m, pivots, scale if p is None else scale % p


def smith_invariant_factors(rows):
    """Nonzero invariant factors of an integer matrix, ascending, by the
    textbook Smith loop on a list copy.

    The pivot is the first entry of least nonzero absolute value; floor
    division leaves remainders smaller than it in its column and row, and
    the step repeats until both are clear. A pivot that does not divide
    the rest of the block gets the offending row added to its own.
    """
    A = [list(row) for row in rows]
    m, n = len(A), len(A[0]) if A else 0
    factors = []
    t = 0
    while t < min(m, n):
        entries = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        p = A[t][t]
        for i in range(t + 1, m):
            q = A[i][t] // p
            A[i] = [a - q * b for a, b in zip(A[i], A[t])]
        for j in range(t + 1, n):
            q = A[t][j] // p
            for row in A:
                row[j] -= q * row[t]
        if any(A[i][t] for i in range(t + 1, m)) or any(A[t][j] for j in range(t + 1, n)):
            continue
        bad = next((i for i in range(t + 1, m) if any(A[i][j] % p for j in range(t + 1, n))), None)
        if bad is not None:
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
            continue
        factors.append(abs(p))
        t += 1
    return factors


def rank_by_elimination(rows, p=None):
    return len(gauss_jordan(rows, p)[1])


def det_by_elimination(rows):
    """Determinant of a square matrix over Q by plain Gauss-Jordan: the
    product of the pivots times the sign of the row swaps at full rank."""
    _, pivots, scale = gauss_jordan(rows)
    return scale if len(pivots) == len(rows) else 0


def nullspace_by_elimination(rows, ncols):
    """Basis of the right nullspace over Q of a matrix with ``ncols`` columns."""
    R, pivots, _ = gauss_jordan(rows)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = -R[i][j]
        basis.append(v)
    return basis


def _factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def merge_torsion_by_primes(lists):
    """Canonical divisor chain of a direct sum of cyclic groups, ascending.

    Per prime, the exponents are sorted in descending order, and the
    chain multiplies them across primes position by position.
    """
    by_prime = {}
    for factors in lists:
        for f in factors:
            for p, e in _factor(f).items():
                by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    for p in by_prime:
        by_prime[p].sort(reverse=True)
    width = max(len(v) for v in by_prime.values())
    chain = []
    for i in range(width):
        f = 1
        for p, exps in by_prime.items():
            if i < len(exps):
                f *= p ** exps[i]
        chain.append(f)
    chain.reverse()
    return tuple(chain)


def kunneth_homology(A, B, ring):
    """Homology of the tensor product A ⊗ B over ``ring`` by the Künneth
    formula, from the homology of each factor alone.

    Each factor's homology comes from the Smith loop here over Z, and from
    ranks by the plain Gauss-Jordan over a field. Free parts multiply;
    Z ⊗ Z/b is Z/b; Z/a ⊗ Z/b and Tor(Z/a, Z/b) are both Z/gcd(a, b),
    and the Tor terms enter one degree up. The torsion of each degree is
    merged prime by prime.
    """
    def homology(C):
        out = {}
        for d in C.degrees():
            rows_out, rows_in = C.diff(d).data, C.diff(d + 1).data
            if ring.kind == "Z":
                f_out, f_in = smith_invariant_factors(rows_out), smith_invariant_factors(rows_in)
                out[d] = (C.rank(d) - len(f_out) - len(f_in), [f for f in f_in if f > 1])
            else:
                out[d] = (C.rank(d) - rank_by_elimination(rows_out, ring.p)
                          - rank_by_elimination(rows_in, ring.p), [])
        return out

    free, torsion = {}, {}
    for i, (fa, ta) in homology(A).items():
        for j, (fb, tb) in homology(B).items():
            free[i + j] = free.get(i + j, 0) + fa * fb
            tor = [gcd(a, b) for a in ta for b in tb]
            torsion.setdefault(i + j, []).extend(ta * fb + tb * fa + tor)
            torsion.setdefault(i + j + 1, []).extend(tor)
    return HomologyResult.from_dict({d: (free.get(d, 0), merge_torsion_by_primes([t]))
                                     for d, t in torsion.items()})


def interpolate_by_lagrange(nodes):
    """Ascending coefficients of the polynomial through the integer nodes
    (x, y), summed from the Lagrange basis in Fraction arithmetic."""
    n = len(nodes) - 1
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(nodes):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(nodes):
            if j == i:
                continue
            # multiply basis by (x - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] -= c * xj
                nxt[d + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    return tuple(coeffs)


def _primitive(vec):
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return rank_by_elimination(rows)


def facets_by_subsets(dim, vertices):
    """Sorted facets (normal, offset) of conv(vertices), <normal, x> >= offset.

    Every dim-subset of the points that spans a hyperplane is tested for
    one-sidedness. Raises ValueError, like the library, when some point is
    not a vertex of the hull: its tight normals do not span R^dim.
    """
    verts = [tuple(v) for v in vertices]
    facets = set()
    for subset in combinations(range(len(verts)), dim):
        pts = [verts[i] for i in subset]
        base = pts[0]
        rows = [[p[i] - base[i] for i in range(dim)] for p in pts[1:]]
        null = nullspace_by_elimination(rows, dim)
        if len(null) != 1:
            continue  # subset does not span a hyperplane
        normal = _primitive(null[0])
        offset = _dot(normal, base)
        values = [_dot(normal, v) - offset for v in verts]
        if all(val >= 0 for val in values):
            facets.add((normal, offset))
        elif all(val <= 0 for val in values):
            facets.add((tuple(-x for x in normal), -offset))
    facets = tuple(sorted(facets))
    for v in verts:
        tight = [a for a, b in facets if _dot(a, v) == b]
        if _affine_rank([(0,) * dim] + tight) < dim:
            raise ValueError(f"input point {v} is not a vertex of the hull")
    return facets


def faces_by_subsets(P):
    """(dim, sorted vertex indices, tight facet indices) of every nonempty
    face of P, in face-index order, from all 2^facets subsets of facets."""
    def tight_vertices(idx):
        return frozenset(vi for vi, v in enumerate(P.vertices)
                         if all(_dot(P.facets[i][0], v) == P.facets[i][1] for i in idx))

    seen = set()
    nf = len(P.facets)
    for r in range(nf + 1):
        for subset in combinations(range(nf), r):
            vs = tight_vertices(subset)
            if vs:
                seen.add(vs)
    records = []
    for vs in seen:
        pts = [P.vertices[i] for i in sorted(vs)]
        tight = frozenset(i for i in range(nf) if vs <= tight_vertices([i]))
        records.append((_affine_rank(pts), tuple(sorted(vs)), tight))
    return sorted(records, key=lambda rec: rec[:2])


def lattice_points_by_box(P, k, interior=False):
    """Sorted integral points of kP (or its interior, with the inequalities
    reversed for k < 0) found by testing every point of the bounding box."""
    box = [(min(k * v[c] for v in P.vertices), max(k * v[c] for v in P.vertices))
           for c in range(P.dim)]
    points = []
    for m in product(*(range(lo, hi + 1) for lo, hi in box)):
        vals = [(_dot(a, m), k * b) for a, b in P.facets]
        if k >= 0:
            ok = all(v > b if interior else v >= b for v, b in vals)
        else:
            ok = all(v < b if interior else v <= b for v, b in vals)
        if ok:
            points.append(m)
    return tuple(sorted(points))


def cone_contains(generators, x):
    """Membership in cone(generators) by brute-force facet enumeration.

    Valid for full-dimensional cones: every facet contains n-1 linearly
    independent generators, so all supporting hyperplanes spanned by
    generator subsets cut the cone out exactly. The facets of each
    generator set are enumerated once and kept.
    """
    gens = tuple(sorted({tuple(g) for g in generators if any(g)}))
    if not gens:
        return all(v == 0 for v in x)
    return all(_dot(a, x) >= 0 for a in _cone_normals(gens, len(x)))


@lru_cache(maxsize=None)
def _cone_normals(gens, n):
    """Inward normals of the facets of the full-dimensional cone(gens);
    none when the cone is all of R^n."""
    normals = set()
    for sub in combinations(range(len(gens)), n - 1):
        null = nullspace_by_elimination([gens[i] for i in sub], n)
        if len(null) != 1:
            continue
        a = _primitive(null[0])
        vals = [_dot(a, g) for g in gens]
        if all(v >= 0 for v in vals):
            normals.add(a)
        elif all(v <= 0 for v in vals):
            normals.add(tuple(-t for t in a))
    return tuple(normals)


def hull_facets_by_point_test(dim, vertices):
    """Classify integer points of a box as in/out of the hull by solving
    convex combinations, then cross-check a facet list: every listed facet
    must be valid and tight on >= dim points; used to sanity-check hulls."""
    # a point p is in conv(V) iff the LP  sum c_i v_i = p, sum c_i = 1, c >= 0
    # is feasible; for the tiny test cases we enumerate vertex subsets of
    # size dim+1 and solve the barycentric system exactly.
    def in_hull(p):
        for sub in combinations(range(len(vertices)), dim + 1):
            pts = [vertices[i] for i in sub]
            rows = [[pts[j][c] for j in range(dim + 1)] for c in range(dim)]
            rows.append([1] * (dim + 1))
            rhs = list(p) + [1]
            coeffs = _solve_exact(rows, rhs)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
        return False
    return in_hull


def _solve_exact(rows, rhs):
    """The unique solution of rows * x = rhs, or None when there is none."""
    ncols = len(rows[0])
    R, pivots, _ = gauss_jordan([list(row) + [rhs[i]] for i, row in enumerate(rows)])
    if pivots != list(range(ncols)):
        return None  # inconsistent, or underdetermined; caller tries another subset
    return [R[r][-1] for r in range(ncols)]


def incidence_signs_by_coordinates(lattice, reverse=False):
    """Sorted ((inner, outer), [F:G]) over the codimension-one pairs F < G.

    The rational route: each face's basis is grown greedily from the
    differences of its sorted vertex list, keeping a difference when it
    raises the rank; the outward direction is the difference of the
    vertex centroids; [F:G] is the sign of the determinant of the
    coordinates of (outward, basis of F) in the basis of G, solved for
    by Gauss-Jordan over the Fractions.
    """
    P = lattice.polytope

    def basis(face):
        verts = sorted((P.vertices[i] for i in face.vertex_set), reverse=reverse)
        chosen = []
        for v in verts[1:]:
            d = [a - b for a, b in zip(v, verts[0])]
            if rank_by_elimination(chosen + [d]) > len(chosen):
                chosen.append(d)
        assert len(chosen) == face.dim
        return chosen

    def centroid(face):
        pts = [P.vertices[i] for i in face.vertex_set]
        return [Fraction(sum(col), len(pts)) for col in zip(*pts)]

    numbers = []
    for outer in lattice.faces:
        if outer.dim == 0:
            continue
        outer_basis = basis(outer)
        for inner in lattice.by_dim[outer.dim - 1]:
            if not inner.vertex_set <= outer.vertex_set:
                continue
            outward = [a - b for a, b in zip(centroid(inner), centroid(outer))]
            targets = [outward] + basis(inner)
            e = len(outer_basis)
            aug = [[b[c] for b in outer_basis] + [t[c] for t in targets] for c in range(P.dim)]
            R, pivots, _ = gauss_jordan(aug)
            assert pivots == list(range(e)), "targets leave the span of the outer face"
            coords = [[R[r][e + k] for k in range(len(targets))] for r in range(e)]
            _, coord_pivots, det = gauss_jordan(coords)
            assert len(coord_pivots) == e, "singular comparison"
            numbers.append(((inner.index, outer.index), 1 if det > 0 else -1))
    return tuple(sorted(numbers))


def equal_up_to_face_signs(a, b):
    """Whether two sign systems, sorted ((inner, outer), sign) tuples, sign
    the same pairs and agree up to one sign e per face: a = e_F e_G b on
    every pair F < G.

    Walks the graph of the pairs, each edge labelled a*b, fixing e = +1
    at the first face of each component and e_G = e_F * a*b along every
    edge met; the systems agree exactly when no edge contradicts it.
    """
    a, b = dict(a), dict(b)
    if a.keys() != b.keys():
        return False
    edges = {}
    for (f, g), s in a.items():
        edges.setdefault(f, []).append((g, s * b[(f, g)]))
        edges.setdefault(g, []).append((f, s * b[(f, g)]))
    e = {}
    for start in edges:
        if start in e:
            continue
        e[start] = 1
        todo = [start]
        while todo:
            f = todo.pop()
            for g, t in edges[f]:
                if g not in e:
                    e[g] = e[f] * t
                    todo.append(g)
                elif e[g] != e[f] * t:
                    return False
    return True


def random_free_complex(rng, max_blocks=3, degree_span=3, entry_bound=3):
    """Direct sum of shifted two-term blocks; d∘d = 0 holds exactly."""
    nblocks = rng.randint(1, max_blocks)
    parts = []
    for _ in range(nblocks):
        deg = rng.randint(0, degree_span - 1)
        r1, r0 = rng.randint(0, 2), rng.randint(0, 2)
        mat = Matrix.from_rows(
            [[rng.randint(-entry_bound, entry_bound) for _ in range(r1)] for _ in range(r0)]
        ) if (r0 and r1) else Matrix.zeros(r0, r1)
        parts.append((deg, r1, r0, mat))
    degs = set()
    for deg, _, _, _ in parts:
        degs.update((deg, deg + 1))
    lo, hi = min(degs), max(degs)
    ranks = {d: 0 for d in range(lo, hi + 1)}
    offsets = []
    for deg, r1, r0, _ in parts:
        offsets.append((ranks[deg + 1], ranks[deg]))
        ranks[deg + 1] += r1
        ranks[deg] += r0
    diffs = {}
    for d in range(lo + 1, hi + 1):
        grid = [[0] * ranks[d] for _ in range(ranks[d - 1])]
        for (deg, r1, r0, mat), (coff, roff) in zip(parts, offsets):
            if deg + 1 == d:
                for i in range(r0):
                    for j in range(r1):
                        grid[roff + i][coff + j] = mat[i, j]
        diffs[d] = Matrix.from_rows(grid) if ranks[d - 1] else Matrix.zeros(0, ranks[d])
    return FreeChainComplex.from_dicts(ranks, diffs)


def random_twist_complex(P, rng, max_blocks=3):
    """Direct sum of line bundles and valid two-level monomial blocks."""
    blocks = []
    for _ in range(rng.randint(1, max_blocks)):
        level = rng.randint(-1, 1)
        if rng.random() < 0.4:
            blocks.append(make_twist_complex(level, [[rng.randint(-2, 2)]]))
            continue
        a = rng.randint(-2, 1)
        b = rng.randint(a, 2)
        terms = []
        for u in lattice_points(P, b - a):
            if rng.random() < 0.5:
                terms.append((rng.choice([-2, -1, 1, 2]), u))
        diffs = {level + 1: {(0, 0): terms}} if terms else None
        blocks.append(make_twist_complex(level, [[b], [a]], diffs))
    out = blocks[0]
    for blk in blocks[1:]:
        out = direct_sum(out, blk)
    return out


def random_two_level_complex(P, rng, max_width=2):
    """Two adjacent levels with random monomial entries (d∘d vacuous)."""
    t0 = rng.randint(-1, 1)
    src = [rng.randint(-2, 1) for _ in range(rng.randint(1, max_width))]
    tgt = [rng.randint(-2, 2) for _ in range(rng.randint(1, max_width))]
    entries = {}
    for i, b in enumerate(tgt):
        for j, a in enumerate(src):
            if b < a:
                continue
            terms = [(rng.choice([-2, -1, 1, 2]), u)
                     for u in lattice_points(P, b - a) if rng.random() < 0.5]
            if terms:
                entries[(i, j)] = terms
    return make_twist_complex(t0, [tgt, src], {t0 + 1: entries})


def koszul(P):
    """Koszul complex of the vertex monomials x^v of P, at levels 0..N.

    Level t holds one O(-t) per t-subset S of the N vertices, in the
    order of ``itertools.combinations``; the differential sends S to the
    sum over the r-th vertex v of S of (-1)^r x^v times S without v. The
    vertex sections of O(1) have no common zero, so the complex is exact.
    """
    verts = P.vertices
    subsets = [list(combinations(range(len(verts)), t)) for t in range(len(verts) + 1)]
    index = [{S: i for i, S in enumerate(level)} for level in subsets]
    diffs = {}
    for t in range(1, len(subsets)):
        diffs[t] = {(index[t - 1][S[:r] + S[r + 1:]], j): [(-1 if r % 2 else 1, verts[v])]
                    for j, S in enumerate(subsets[t]) for r, v in enumerate(S)}
    return make_twist_complex(0, [[-t] * len(level) for t, level in enumerate(subsets)], diffs)


def nerve_homology(P, k, m):
    """Reduced homology over Z of the nerve N_m of the facets failing at
    multidegree m for O(k), as {q: (free rank, torsion)} with zero groups
    left out.

    The failing facets are F_m = {i : <a_i, m> < k*b_i}. A simplex of N_m
    is a subset of F_m that lies in the tight facets of one vertex, and
    the empty simplex sits in degree -1, so N_m with F_m empty has
    H_{-1} = Z. By Cox, Little and Schenck, *Toric Varieties* §9.1, and
    the nerve lemma, the Čech column at (k, m) has H_d free of the rank
    of H_{n-1-d}(N_m). Torsion is compared only for n <= 4, where
    Alexander duality in the boundary sphere leaves none on either side;
    the theorem speaks of cohomology, so above that torsion moves one
    degree. Only ``P.vertices`` and ``P.facets`` are read, and the ranks
    come from ``smith_invariant_factors``: no face lattice, no incidence
    sign, no library elimination.
    """
    failing = [i for i, (a, b) in enumerate(P.facets) if _dot(a, m) < k * b]
    tops = {tuple(i for i in failing if _dot(P.facets[i][0], v) == P.facets[i][1])
            for v in P.vertices}
    simplices = {S for top in tops for r in range(len(top) + 1) for S in combinations(top, r)}
    by_dim = {}
    for S in sorted(simplices):
        by_dim.setdefault(len(S) - 1, []).append(S)
    factors = {}  # factors[q]: those of the boundary from degree q to q - 1
    for q, cells in by_dim.items():
        if q < 0:
            continue
        index = {S: r for r, S in enumerate(by_dim[q - 1])}
        rows = [[0] * len(cells) for _ in index]
        for c, S in enumerate(cells):
            for j in range(len(S)):
                rows[index[S[:j] + S[j + 1:]]][c] = -1 if j % 2 else 1
        factors[q] = smith_invariant_factors(rows)
    out = {}
    for q, cells in by_dim.items():
        free = len(cells) - len(factors.get(q, ())) - len(factors.get(q + 1, ()))
        torsion = tuple(f for f in factors.get(q + 1, ()) if f > 1)
        if free or torsion:
            out[q] = (free, torsion)
    return out


def paths_by_enumeration(P, Y):
    """Monomial paths between supports, followed one path at a time.

    Summand j of level t, a twist O(k), is supported on the points of kP,
    or of the interior of kP for k < 0, found by ``lattice_points_by_box``.
    Every path of monomial entries from a support triple (t, j, m) down to
    another support triple is followed on its own, with no memo of the
    counts below a triple. Returns the number of such paths and the number
    of triples on at least one of them, every support included.
    """
    supports = {(t, j, m) for t, j, k in Y.summands()
                for m in lattice_points_by_box(P, k, interior=k < 0)}
    on_path = set(supports)
    count = 0

    def follow(path):
        nonlocal count
        t, j, m = path[-1]
        for (i, src), terms in Y.diff_map(t).items():
            if src != j:
                continue
            for _, u in terms:
                path.append((t - 1, i, tuple(a + b for a, b in zip(m, u))))
                if path[-1] in supports:
                    count += 1
                    on_path.update(path)
                follow(path)
                path.pop()

    for tr in supports:
        follow([tr])
    return count, len(on_path)


def les_two_level_homology(P, Y, ring):
    """Homology of a two-level twist complex via the connecting map.

    The target level is a subcomplex of the total Čech complex and the
    source level the quotient, so homology splits per degree as
    coker ⊕ ker of the induced map on line-bundle homology, with torsion
    carried by the cokernel. Entirely independent of perturb_transfer.
    """
    ctx = cech_mod.context(P)
    n = P.dim
    t0, t1 = Y.lo, Y.hi
    assert t1 == t0 + 1, "oracle only covers two-level complexes"
    src_tw, tgt_tw = Y.level(t1), Y.level(t0)
    entries = Y.diff_map(t1)

    def sdeg(k):
        return n if k >= 0 else 0

    src_classes = [(j, m) for j, a in enumerate(src_tw)
                   for m in ctx.support_table(a).multidegrees]
    tgt_classes = [(i, m) for i, b in enumerate(tgt_tw)
                   for m in ctx.support_table(b).multidegrees]

    cols = {}

    def coldata(k, m):
        key = (k, m)
        if key not in cols:
            cc = ctx.column_complex(k, m)
            cols[key] = (cc, contraction(cc.complex))
        return cols[key]

    mats = {}
    for s in range(n + 1):
        rows = [x for x in tgt_classes if sdeg(tgt_tw[x[0]]) == s]
        columns = [x for x in src_classes if sdeg(src_tw[x[0]]) == s]
        if not rows or not columns:
            mats[s] = (len(rows), len(columns), None)
            continue
        row_pos = {x: r for r, x in enumerate(rows)}
        grid = [[0] * len(columns) for _ in rows]
        sign = -1 if s % 2 else 1
        for cidx, (j, m) in enumerate(columns):
            cc_s, ct_s = coldata(src_tw[j], m)
            z = ct_s.include_at(s)
            for (i, jj), terms in entries.items():
                if jj != j or sdeg(tgt_tw[i]) != s:
                    continue
                for c, u in terms:
                    m2 = tuple(x + y for x, y in zip(m, u))
                    if (i, m2) not in row_pos:
                        continue
                    cc_t, ct_t = coldata(tgt_tw[i], m2)
                    tpos = {f: r for r, f in enumerate(cc_t.faces[s])}
                    vec = [0] * len(cc_t.faces[s])
                    for r_i, f in enumerate(cc_s.faces[s]):
                        vec[tpos[f]] = sign * c * z[r_i, 0]
                    proj = ct_t.project_at(s) @ Matrix.from_rows([[v] for v in vec])
                    grid[row_pos[(i, m2)]][cidx] += proj[0, 0]
        mats[s] = (len(rows), len(columns), Matrix.from_rows(grid))

    def rank_and_torsion(s):
        nrows, ncols, grid = mats.get(s, (0, 0, None))
        if grid is None:
            return nrows, ncols, 0, ()
        if ring.is_field:
            return nrows, ncols, rank_by_elimination(grid.data, ring.p), ()
        facs = smith_invariant_factors(grid.data)
        return nrows, ncols, len(facs), tuple(f for f in facs if f > 1)

    data = {}
    for d in range(t0, t1 + n + 1):
        free = 0
        torsion = ()
        s_coker = d - t0
        if 0 <= s_coker <= n:
            nrows, _, rank, tors = rank_and_torsion(s_coker)
            free += nrows - rank
            torsion = tors
        s_ker = d - t1
        if 0 <= s_ker <= n:
            _, ncols, rank, _ = rank_and_torsion(s_ker)
            free += ncols - rank
        if free or torsion:
            data[d] = (free, torsion)
    return HomologyResult.from_dict(data)
