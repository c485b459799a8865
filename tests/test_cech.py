import random
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import product

import pytest

from polycech import cech as cech_mod
from polycech import polytope as polytope_mod
from polycech import sheaf_complexes as sheaf_complexes_mod
from polycech.cech import (
    CechContext,
    SupportEscapesBox,
    WindowMismatch,
    cech_homology,
    column_complex,
    con_vs_bundle_check,
    constant_diagram_cech,
    hk_acyclic,
    line_bundle_cohomology,
    simplex_cone_check,
    splitting_matrix,
    support_table,
    acyclicity_window,
)
from polycech.exact_linalg import (
    GF,
    QQ,
    ZZ,
    FreeChainComplex,
    HomologyResult,
    InvalidComplex,
    Matrix,
    SignedGather,
    complex_homology,
)
from polycech.polytope import (
    CharacterizationMismatch,
    EhrhartPolynomial,
    NotUnimodular,
    ehrhart_polynomial,
    facet_runs,
    facets_from_vertices,
    lattice_points,
    standard_simplex,
)
from polycech.sheaf_complexes import (
    TwistComplex,
    cone,
    direct_sum,
    euler_characteristic,
    line_bundle,
    make_twist_complex,
    suspend,
    twist,
    validate,
)

from helpers import (
    det_by_elimination,
    koszul,
    lattice_points_by_box,
    les_two_level_homology,
    nerve_homology,
    paths_by_enumeration,
    random_free_complex,
    random_twist_complex,
    random_two_level_complex,
    sample_polytopes,
)

SAMPLES = sample_polytopes()
D1 = SAMPLES["interval"]
D2 = SAMPLES["simplex2"]
OCTAHEDRON = facets_from_vertices(
    3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
PYRAMID = facets_from_vertices(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
KOSZUL_SHAPES = {
    "triangle": D2,
    "square": SAMPLES["square"],
    "hexagon": facets_from_vertices(2, [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]),
}


def H(data):
    return HomologyResult.from_dict(data)


def unit_cone(k, dim):
    u = tuple(0 for _ in range(dim))
    return cone({0: {(0, 0): [(1, u)]}}, line_bundle(k), line_bundle(k))


def test_column_complex_interval_multidegree_zero():
    col = column_complex(D1, 0, (0,))
    assert col.complex.ranks == (1, 2)
    assert complex_homology(col.complex, ZZ) == H({1: (1, ())})


def test_column_complex_interval_multidegree_one():
    col = column_complex(D1, 0, (1,))
    assert col.complex.ranks == (1, 1)
    assert complex_homology(col.complex, ZZ).is_zero()


def test_column_complex_outside_all_proper_cones_keeps_top_cell():
    # every facet inequality fails strictly, so only the top face survives
    col = column_complex(D2, -3, (-1, -1))
    assert col.complex.rank(0) == 1
    assert sum(col.complex.ranks) == 1
    assert complex_homology(col.complex, ZZ) == H({0: (1, ())})


def test_every_column_matches_the_nerve_of_its_failing_facets():
    # H_d of the column at (k, m) has the free rank of the reduced
    # H_{n-1-d} of the nerve of the facets failing at m. Both depend on
    # the facet mask alone, so each polytope is checked at the first
    # (k, m) of every mask its scans for k = -3..3 meet. All are n <= 4,
    # so neither side has torsion (see ``nerve_homology``)
    shapes = {**SAMPLES, "hexagon": KOSZUL_SHAPES["hexagon"], "octahedron": OCTAHEDRON,
              "pyramid": PYRAMID, "cube4": facets_from_vertices(4, list(product((0, 1), repeat=4)))}
    masks = 0
    for name, P in shapes.items():
        first = {}
        for k in range(-3, 4):
            facets = [(a, k * b) for a, b in P.facets]
            for m, _, mask in facet_runs(facets, cech_mod.scan_box(P, k)):
                first.setdefault(mask, (k, m))
        for k, m in first.values():
            column = complex_homology(column_complex(P, k, m).complex, ZZ).as_dict()
            nerve = nerve_homology(P, k, m)
            assert {d: free for d, (free, _) in column.items()} == \
                {P.dim - 1 - q: free for q, (free, _) in nerve.items()}, (name, k, m)
            assert not any(t for _, t in [*column.values(), *nerve.values()]), (name, k, m)
        masks += len(first)
    assert masks == 411


def test_line_bundle_cohomology_examples():
    assert line_bundle_cohomology(D2, 1).homology == H({2: (3, ())})
    assert line_bundle_cohomology(D2, -3).homology == H({0: (1, ())})
    assert line_bundle_cohomology(D2, -1).homology.is_zero()


def test_line_bundle_cohomology_rings_agree_on_free_ranks():
    for k in (-3, 0, 2):
        hz = line_bundle_cohomology(D2, k, ZZ).homology
        hq = line_bundle_cohomology(D2, k, QQ).homology
        hp = line_bundle_cohomology(D2, k, GF(2)).homology
        assert hz == hq == hp


def test_support_tables():
    assert support_table(D1, 2).degree == 1
    assert support_table(D1, 2).multidegrees == ((0,), (1,), (2,))
    assert support_table(SAMPLES["square"], -1).multidegrees == ()
    assert support_table(D1, -2).degree == 0
    assert support_table(D1, -2).multidegrees == ((-1,),)


def test_support_table_empty_exactly_on_the_root_window():
    # the table equals the box count on the first read and the stored one
    from polycech.polytope import np_index
    for name, P in SAMPLES.items():
        npi = np_index(P)
        ctx = CechContext(P)
        for k in range(-P.dim - 2, 4):
            expected = lattice_points_by_box(P, k, interior=k < 0)
            for table in (ctx.support_table(k), ctx.support_table(k)):
                assert table.multidegrees == expected, (name, k)
                assert table.degree == (P.dim if k >= 0 else 0), (name, k)
            assert (not expected) == (-npi <= k <= -1), (name, k)


def seeded_cones(P, seed, count=4):
    """Cones O(a) -> O(b), a < b, by one to three seeded monomials of (b - a)P."""
    rng = random.Random(seed)
    cones = []
    for _ in range(count):
        a = rng.randint(-1, 1)
        b = rng.randint(a + 1, 2)
        pts = lattice_points(P, b - a)
        terms = [(rng.choice([-2, -1, 1, 2]), u)
                 for u in rng.sample(pts, min(len(pts), rng.randint(1, 3)))]
        cones.append(cone({0: {(0, 0): terms}}, line_bundle(a), line_bundle(b)))
    return cones


@pytest.mark.parametrize("name", ["simplex2", "square", "cube"])
def test_supports_are_enumerated_once_per_twist(name, monkeypatch):
    # a context enumerates the support of a twist the first time it is
    # asked, whichever reader asks, and every later read is the stored table
    P = SAMPLES[name]
    real = cech_mod.lattice_points
    enumerated = []

    def counting(P, k, interior=False):
        enumerated.append(k)
        return real(P, k, interior)

    monkeypatch.setattr(cech_mod, "lattice_points", counting)
    # two summands of one twist, beside the seeded cones
    Ys = seeded_cones(P, 20100730) + [make_twist_complex(0, [[1, 1]])]
    twists = sorted({k for Y in Ys for _, _, k in Y.summands()})

    ctx = CechContext(P)
    first = [ctx.cech_homology(Y, ZZ) for Y in Ys]
    assert sorted(enumerated) == twists
    enumerated.clear()
    assert [ctx.cech_homology(Y, ZZ) for Y in Ys] == first
    for k in twists:
        ctx.line_bundle_cohomology(k, ZZ)
    assert enumerated == []

    ctx = CechContext(P)
    scans = [ctx.line_bundle_cohomology(k, ZZ) for k in twists]
    assert enumerated == twists
    enumerated.clear()
    assert [ctx.line_bundle_cohomology(k, ZZ) for k in twists] == scans
    for Y in Ys:
        ctx.cech_homology(Y, ZZ)
    assert enumerated == []
    # the module-level reader shares the table of the module's context
    assert support_table(P, twists[0]) is cech_mod.context(P).support_table(twists[0])


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=lambda r: r.label)
def test_contexts_answer_alike_in_either_order(ring):
    # the order a context is asked in changes none of its answers
    for name in ("simplex2", "square", "cube"):
        P = SAMPLES[name]
        twists = range(-P.dim - 1, 3)
        Ys = seeded_cones(P, 4242) + [line_bundle(k) for k in twists]
        asks = ([lambda ctx, Y=Y: ctx.cech_homology(Y, ring) for Y in Ys]
                + [lambda ctx, k=k: ctx.line_bundle_cohomology(k, ring) for k in twists])
        forward, backward = CechContext(P), CechContext(P)
        ahead = [ask(forward) for ask in asks]
        behind = [ask(backward) for ask in reversed(asks)]
        assert ahead == behind[::-1], name


def test_closed_form_check_fires_on_a_stored_table(monkeypatch):
    # the scan is checked against the table the transfer reads, whichever
    # of them enumerated it, on the first call and on every later one
    real = cech_mod.lattice_points
    monkeypatch.setattr(cech_mod, "lattice_points",
                        lambda P, k, interior=False: real(P, k, interior)[:-1])
    for transfer_first in (False, True):
        ctx = CechContext(SAMPLES["square"])
        if transfer_first:
            ctx.cech_homology(line_bundle(2), ZZ)
        for _ in range(2):
            with pytest.raises(AssertionError, match="closed form says"):
                ctx.line_bundle_cohomology(2, ZZ)


def test_cech_homology_single_bundle_matches_scan():
    for name in ("interval", "simplex2", "square"):
        P = SAMPLES[name]
        for k in range(-3, 4):
            transfer = cech_homology(P, line_bundle(k)).homology
            scan = line_bundle_cohomology(P, k).homology
            assert transfer == scan, (name, k)


def test_cech_homology_of_basic_cone_on_interval():
    Y = cone({0: {(0, 0): [(1, (0,))]}}, line_bundle(0), line_bundle(1))
    res = cech_homology(D1, Y)
    assert res.homology == H({1: (1, ())})
    assert res.transfer_paths >= 1


def test_cech_homology_of_identity_cone_is_zero():
    for P in (D1, D2):
        assert cech_homology(P, unit_cone(2, P.dim)).homology.is_zero()


def test_cech_homology_additive():
    rng = random.Random(5)
    for _ in range(6):
        Y = random_twist_complex(D2, rng, max_blocks=2)
        Z = random_twist_complex(D2, rng, max_blocks=2)
        hy = cech_homology(D2, Y).homology
        hz = cech_homology(D2, Z).homology
        hs = cech_homology(D2, direct_sum(Y, Z)).homology
        assert hs == HomologyResult.direct_sum_of((hy, hz))


def test_cech_homology_suspension_shifts():
    rng = random.Random(6)
    for _ in range(6):
        Y = random_twist_complex(D1, rng, max_blocks=2)
        j = rng.choice([-2, -1, 1, 2, 3])
        assert (cech_homology(D1, suspend(Y, j)).homology
                == cech_homology(D1, Y).homology.shifted(j))


def test_cech_homology_twist_matches_line_bundles():
    # twisting a single bundle is another single bundle
    for k in (-2, 0, 1):
        for j in (-1, 0, 2):
            assert (cech_homology(D2, twist(line_bundle(k), j)).homology
                    == line_bundle_cohomology(D2, k + j).homology)


def test_cech_homology_degree_bounds():
    rng = random.Random(7)
    for _ in range(8):
        Y = random_twist_complex(D2, rng)
        h = cech_homology(D2, Y).homology
        for d, _, _ in h.groups:
            assert Y.lo <= d <= Y.hi + D2.dim


def test_cech_homology_universal_coefficients():
    # a cone with a doubled map produces 2-torsion over Z
    Y = cone({0: {(0, 0): [(2, (0, 0))]}}, line_bundle(0), line_bundle(0))
    hz = cech_homology(D2, Y, ZZ).homology
    assert hz == H({2: (0, (2,))})
    h2 = cech_homology(D2, Y, GF(2)).homology
    assert h2 == H({2: (1, ()), 3: (1, ())})
    h3 = cech_homology(D2, Y, GF(3)).homology
    assert h3.is_zero()
    assert cech_homology(D2, Y, QQ).homology.is_zero()


def test_repeated_monomial_adds_its_delta_blocks():
    # an entry listing x^u twice gives two edges to one column, whose signed
    # gathers are added into one block; the result is that of 2x^u
    u = (1, 0)
    twice = TwistComplex(0, 1, ((1,), (0,)), ((((0, 0), ((1, u), (1, u))),),))
    merged = make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(2, u)]}})
    assert merged.diffs == ((((0, 0), ((2, u),)),),)
    for ring in (ZZ, QQ, GF(2), GF(3)):
        assert (cech_homology(D2, twice, ring).homology
                == cech_homology(D2, merged, ring).homology), ring.label
    assert cech_homology(D2, twice, ZZ).homology.as_dict() == {2: (2, (2,))}


def checked_euler(P, Y):
    """euler_characteristic(P, Y), compared with the rank sum of the homology over Q."""
    chi = euler_characteristic(P, Y)
    groups = cech_homology(P, Y, QQ).homology.groups
    assert chi == sum(-free if d % 2 else free for d, free, _ in groups)
    return chi


def test_euler_characteristic_examples():
    assert checked_euler(D2, line_bundle(1)) == 3
    assert checked_euler(D1, line_bundle(-2)) == 1
    Y = line_bundle(0)
    Z = line_bundle(1)
    f = {0: {(0, 0): [(1, (0, 0))]}}
    c = cone(f, Y, Z)
    assert (euler_characteristic(D2, c)
            == euler_characteristic(D2, Z) - euler_characteristic(D2, Y))


def test_euler_identity_against_homology():
    for name in ("interval", "simplex2", "square", "rect"):
        P = SAMPLES[name]
        e = ehrhart_polynomial(P)
        for m in range(-3, 4):
            val = checked_euler(P, line_bundle(m))
            assert val == (-1) ** P.dim * int(e(m))


def test_acyclicity_windows():
    assert acyclicity_window(D2) == (True, True, False)
    assert acyclicity_window(SAMPLES["square"]) == (True, False, False)
    tri3 = facets_from_vertices(2, [(0, 0), (3, 0), (0, 3)])
    assert acyclicity_window(tri3) == (False, False, False)


def test_hk_acyclic():
    assert hk_acyclic(D2, unit_cone(0, 2), 3)
    assert not hk_acyclic(D2, line_bundle(0), 0)
    Y = direct_sum(line_bundle(-1), line_bundle(-2))
    assert hk_acyclic(D2, Y, 0)
    assert not hk_acyclic(D2, Y, 2)
    with pytest.raises(ValueError):  # no twist to check
        hk_acyclic(D2, line_bundle(0), -1)


def test_splitting_matrices():
    M = splitting_matrix(D1)
    assert [list(r) for r in M.data] == [[-1, 0], [-2, -1]]
    assert det_by_elimination(M.data) == 1
    M2 = splitting_matrix(D2)
    assert [list(r) for r in M2.data] == [[1, 0, 0], [3, 1, 0], [6, 3, 1]]
    assert det_by_elimination(M2.data) == 1
    for name in ("square", "cube", "rect", "simplex3"):
        M = splitting_matrix(SAMPLES[name])
        assert abs(det_by_elimination(M.data)) == 1
    assert det_by_elimination(splitting_matrix(PYRAMID).data) == -1


@pytest.mark.parametrize("shift", [1, -1])
def test_window_guard_fires_on_a_wrong_root_count(shift):
    # a fresh context, so the shared one keeps its root count
    ctx = CechContext(D2)
    ctx.np += shift
    with pytest.raises(WindowMismatch, match=f"contradicts root count {2 + shift}"):
        ctx.acyclicity_window()


@pytest.mark.parametrize("twist,count,message", [
    (-1, 1, "entry (0, 1) above the diagonal is 1"),
    (0, 2, "diagonal entry (0, 0) is 2, not 1"),
], ids=["above_diagonal", "diagonal"])
def test_splitting_guard_fires_on_a_wrong_euler_characteristic(twist, count, message):
    # chi(O(k)) = E(k) on the triangle: a wrong point count E(k) is a wrong entry
    ctx = CechContext(D2)
    real = ctx.ehrhart
    assert ctx.np == 2  # read off the real polynomial, before it is swapped
    ctx.ehrhart = lambda k: Fraction(count) if k == twist else real(k)
    with pytest.raises(NotUnimodular, match=re.escape(message)):
        ctx.splitting_matrix()


def test_euler_characteristic_guard_fires_on_a_fractional_count(monkeypatch):
    # the polynomial euler_characteristic reads, with a value no point count has
    monkeypatch.setattr(sheaf_complexes_mod, "ehrhart_polynomial",
                        lambda P: lambda k: Fraction(1, 2))
    with pytest.raises(AssertionError, match=re.escape("E(0) = 1/2 is not integral")):
        euler_characteristic(D2, line_bundle(0))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=lambda r: r.label)
def test_cech_homology_rejects_a_fractional_coefficient(ring):
    # O(0) -> O(0) by 1/2 on the interval: the Čech complex is built over Z
    # for every ring, so a rational coefficient is refused, not reduced
    half = make_twist_complex(0, [[0], [0]], {1: {(0, 0): [(Fraction(1, 2), (0,))]}})
    with pytest.raises(InvalidComplex, match=r"entry Fraction\(-?1, 2\), not an int"):
        cech_homology(D1, half, ring)


def test_constant_diagram_examples():
    unit = FreeChainComplex.from_dicts({0: 1}, {})
    for n in (1, 2, 3):
        P = standard_simplex(n)
        assert constant_diagram_cech(P, unit).homology == H({n: (1, ())})
    C = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])})
    assert constant_diagram_cech(D2, C).homology == H({2: (0, (2,))})
    assert constant_diagram_cech(D2, FreeChainComplex.empty()).homology.is_zero()


def test_constant_diagram_random_matches_shifted_homology():
    rng = random.Random(9)
    for _ in range(10):
        C = random_free_complex(rng)
        for P in (D1, D2):
            got = constant_diagram_cech(P, C, ZZ).homology
            assert got == complex_homology(C, ZZ).shifted(P.dim)


def test_constant_diagram_guard_fires_on_a_wrong_face_complex():
    # the route reads the full-mask column; put the column of the empty
    # mask, the top face alone, in its place and the shift by n fails
    ctx = CechContext(SAMPLES["square"])
    unit = FreeChainComplex.from_dicts({0: 1}, {})
    assert ctx.constant_diagram_cech(unit).homology == H({2: (1, ())})
    ctx._columns[(1 << len(ctx.polytope.facets)) - 1] = ctx._column_of(0)
    with pytest.raises(AssertionError, match="constant diagram gave"):
        ctx.constant_diagram_cech(unit)


def test_con_vs_bundle_examples():
    unit = FreeChainComplex.from_dicts({0: 1}, {})
    C2 = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])})
    acyclic = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[1]])})
    for P in (D1, D2):
        con_vs_bundle_check(P, unit)
        con_vs_bundle_check(P, C2)
        con_vs_bundle_check(P, acyclic)


def test_con_vs_bundle_check_raises_naming_both_routes(monkeypatch):
    real = sheaf_complexes_mod.bundle_tensor
    monkeypatch.setattr(sheaf_complexes_mod, "bundle_tensor",
                        lambda k, C, dim: real(k + 1, C, dim))
    unit = FreeChainComplex.from_dicts({0: 1}, {})
    with pytest.raises(AssertionError, match=re.escape(
            "constant diagram gave {1: (1, ())}, O(0) tensor C gave {1: (2, ())}")):
        con_vs_bundle_check(D1, unit)


def test_simplex_cone_check_raises_naming_both_sides(monkeypatch):
    monkeypatch.setattr(sheaf_complexes_mod, "cone", lambda f, source, target: target)
    with pytest.raises(AssertionError, match=re.escape(
            "cone of O(0) -> O(1) gave {1: (2, ())}, "
            "shifted O(1) on the 0-simplex gave {1: (1, ())}")):
        simplex_cone_check(1, 0)


@pytest.mark.parametrize("n,k", [(1, 0), (2, 0), (2, 1)])
def test_simplex_cone_check_small(n, k):
    simplex_cone_check(n, k, ZZ)
    simplex_cone_check(n, k, GF(2))


@pytest.mark.parametrize("n,k,rank", [(1, 0, 1), (2, 0, 2), (2, 1, 3)])
def test_basic_cone_homology_ranks(n, k, rank):
    # cokernel of the injective map between the two lattice point sets
    P = standard_simplex(n)
    zero_u = tuple(0 for _ in range(n))
    Y = cone({0: {(0, 0): [(1, zero_u)]}}, line_bundle(k), line_bundle(k + 1))
    assert cech_homology(P, Y, ZZ).homology == H({n: (rank, ())})


@pytest.mark.parametrize("name", ["cube", "octahedron"])
def test_cech_homology_contracts_each_column_pattern_once(name, monkeypatch):
    # a context contracts the column of each facet mask once, whatever the
    # twist, multidegree or call that reaches it
    import polycech.cech as cech_module
    from polycech.exact_linalg import contraction

    P = {"cube": SAMPLES["cube"], "octahedron": OCTAHEDRON}[name]
    contracted = []

    def counting(C):
        contracted.append(C)
        return contraction(C)

    def masks(k, points):
        return {frozenset(i for i, (a, b) in enumerate(P.facets)
                          if sum(x * y for x, y in zip(a, m)) >= k * b) for m in points}

    monkeypatch.setattr(cech_module, "contraction", counting)
    ctx = CechContext(P)
    Y = cone({0: {(0, 0): [(1, (0, 0, 0))]}}, line_bundle(0), line_bundle(1))
    res = ctx.cech_homology(Y, ZZ)
    # cokernel of the one point of P mapped into the lattice points of P
    assert res.homology == H({3: ({"cube": 8, "octahedron": 7}[name] - 1, ())})
    # with u = 0 the active columns are the supports: 0 at twist 0, P at twist 1
    seen = masks(0, [(0, 0, 0)]) | masks(1, ctx.support_table(1).multidegrees)
    assert len(contracted) == len(set(contracted)) == len(seen) < res.active_multidegrees

    contracted.clear()
    assert ctx.cech_homology(Y, ZZ) == res
    assert contracted == []

    # a sum O(1) + O(-3) contracts only the masks the cone did not reach
    ctx.cech_homology(make_twist_complex(0, [[1, -3]], {}), ZZ)
    new = masks(-3, ctx.support_table(-3).multidegrees) - seen
    assert new and len(contracted) == len(new)


@pytest.mark.parametrize("name,k,patterns", [("square", 8, 9), ("cube", 4, 27)])
def test_line_bundle_scan_takes_homology_once_per_pattern(name, k, patterns, monkeypatch):
    # the box holds (k+3)^n columns but only 3^n face patterns; each
    # pattern's homology is taken over Z, whatever the ring asked for
    import polycech.cech as cech_module

    P = SAMPLES[name]
    expected = H({P.dim: ((k + 1) ** P.dim, ())})
    calls = []

    def counting(C, ring=ZZ):
        calls.append((C, ring))
        return complex_homology(C, ring)

    monkeypatch.setattr(cech_module, "complex_homology", counting)
    ctx = CechContext(P)
    for ring in (ZZ, QQ, GF(3)):
        calls.clear()
        res = ctx.line_bundle_cohomology(k, ring)
        assert res.homology == expected, ring.label
        assert all(r == ZZ for _, r in calls), ring.label
        assert 0 < len(calls) == len(set(calls)) <= patterns


def test_warm_line_bundle_scan_multiplies_no_matrix(monkeypatch):
    # each column complex multiplies out its d∘d once, when it is built, so
    # a second scan of the same twist reads the kept columns with no product
    products = 0
    matmul = Matrix.__matmul__

    def counting(A, B):
        nonlocal products
        products += 1
        return matmul(A, B)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    monkeypatch.setattr(cech_mod, "context", cache(CechContext))  # a cold context
    expected = H({3: (27, ())})
    assert line_bundle_cohomology(SAMPLES["cube"], 2).homology == expected
    cold = products
    assert line_bundle_cohomology(SAMPLES["cube"], 2).homology == expected
    assert cold > 0 and products == cold


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2)], ids=lambda r: r.label)
def test_line_bundle_transfer_takes_no_homology(ring, monkeypatch):
    # delta is empty, so no block is linked: the homology is the small
    # ranks, and no complex is handed to complex_homology at all
    calls = []

    def counting(C, ring=ZZ):
        calls.append(C)
        return complex_homology(C, ring)

    monkeypatch.setattr(cech_mod, "complex_homology", counting)
    res = CechContext(SAMPLES["cube"]).cech_homology(line_bundle(2), ring)
    assert res.homology == H({3: (27, ())})
    assert calls == []


def test_zero_monomial_cone_splits_by_multidegree(monkeypatch):
    # O(1) -> O(2) by u = 0 on the cube links the column of each point of P
    # to the column at the same multidegree, and nothing else
    P = SAMPLES["cube"]
    calls = []  # (blocks, delta, shifts, result) of each transfer
    transfer = cech_mod.perturb_transfer

    def keeping(blocks, delta, level_bound, shifts):
        calls.append((blocks, delta, shifts, transfer(blocks, delta, level_bound, shifts)))
        return calls[-1][-1]

    monkeypatch.setattr(cech_mod, "perturb_transfer", keeping)
    ctx = CechContext(P)
    Y = cone({0: {(0, 0): [(1, (0, 0, 0))]}}, line_bundle(1), line_bundle(2))
    res = ctx.cech_homology(Y, ZZ)
    ones, twos = ctx.support_table(1).multidegrees, ctx.support_table(2).multidegrees
    assert res.homology == H({3: (len(twos) - len(ones), ())})
    ((blocks, delta, shifts, out),) = calls
    # every block is a support, and the supports of one twist share a column
    assert sorted(shifts) == [0] * len(twos) + [1] * len(ones)
    assert res.active_multidegrees == len(blocks) == len(ones) + len(twos)
    assert {id(b) for b in blocks} == {id(ctx.support_table(k).column.contraction) for k in (1, 2)}
    # delta sends each block of O(1) to one block of O(2), its own
    target = {}
    for _, src, tgt, _ in delta:
        assert (shifts[src], shifts[tgt]) == (1, 0)
        assert target.setdefault(src, tgt) == tgt
    assert len(target) == len(set(target.values())) == len(ones)
    assert len(out.components) == len(ones)
    assert sorted(sorted(bs) for bs in out.linked) == sorted(sorted(e) for e in target.items())
    assert out.unlinked == {3: len(twos) - len(ones)}


def test_support_columns_are_the_context_columns_and_kept_state_is_sound():
    # the one column of a support table is the context's own column at
    # each of its multidegrees, for twists below, at and above 0
    for name, P in SAMPLES.items():
        ctx = CechContext(P)
        for k in range(-P.dim - 3, 4):
            table = ctx.support_table(k)
            for m in table.multidegrees:
                assert ctx.column_complex(k, m) is table.column, (name, k, m)
    P = SAMPLES["square"]
    ctx = CechContext(P)
    for k in (-3, -1, 0, 1, 2):
        assert bool(ctx.support_table(k).multidegrees) == (k != -1)  # O(-1): no interior points
    # the columns, supports and delta patterns a context keeps from one
    # complex answer a second complex as a fresh context does
    rng = random.Random(4242)
    K = koszul(P)
    terms = [(rng.choice([-2, -1, 1, 2]), u) for u in rng.sample(lattice_points(P, 2), 3)]
    complexes = [K, twist(K, 1), cone({0: {(0, 0): terms}}, line_bundle(0), line_bundle(2))]
    for ring in (ZZ, GF(2)):
        fresh = [CechContext(P).cech_homology(Y, ring) for Y in complexes]
        for a, first in enumerate(complexes):
            for b, second in enumerate(complexes):
                warm = CechContext(P)
                warm.cech_homology(first, ring)
                assert warm.cech_homology(second, ring) == fresh[b], (ring.label, a, b)


def test_delta_blocks_are_gathers_not_dense_grids(monkeypatch):
    # every delta block reaches the transfer as a signed gather, and
    # cech_homology itself builds no matrix from rows for any of them
    callers = []
    from_rows = Matrix.from_rows.__func__

    def spying(cls, rows):
        callers.append(sys._getframe(1).f_code.co_name)
        return from_rows(cls, rows)

    deltas = []
    transfer = cech_mod.perturb_transfer

    def keeping(blocks, delta, *rest):
        deltas.append(delta)
        return transfer(blocks, delta, *rest)

    monkeypatch.setattr(Matrix, "from_rows", classmethod(spying))
    monkeypatch.setattr(cech_mod, "perturb_transfer", keeping)
    rng = random.Random(20100730)
    P = SAMPLES["square"]
    terms = [(rng.choice([-2, -1, 1, 2]), u) for u in rng.sample(lattice_points(P, 2), 3)]
    Y = cone({0: {(0, 0): terms}}, line_bundle(0), line_bundle(2))
    res = CechContext(P).cech_homology(Y, ZZ)
    (delta,) = deltas
    blocks = [G for _, _, _, G in delta]
    assert blocks and all(isinstance(G, SignedGather) for G in blocks)
    assert "_diagonalize" in callers and "cech_homology" not in callers
    assert res.homology == les_two_level_homology(P, Y, ZZ)


@pytest.mark.parametrize("name", ["simplex2", "square"])
def test_support_escapes_box_fires_on_a_narrow_box(name, monkeypatch):
    # kP's own bounding box puts columns carrying homology on the boundary.
    # Widened on the low side only, the first column with a given pattern is
    # inside the box and a later one with the same pattern is on its edge.
    # Widened everywhere but at the top of the last coordinate, the first
    # offending run of equal mask starts inside the box and ends on its
    # high edge. The error names the multidegree a scan of one multidegree
    # at a time meets first: in product order, on the boundary, with homology.
    P = SAMPLES[name]
    k = 2
    tight = [(k * min(v[c] for v in P.vertices), k * max(v[c] for v in P.vertices))
             for c in range(P.dim)]
    high_edge = [(lo - 1, hi + 1) for lo, hi in tight[:-1]] + [(tight[-1][0] - 1, tight[-1][1])]
    for box in (tight, [(lo - 1, hi) for lo, hi in tight], high_edge):
        ctx = CechContext(P)
        first = next(m for m in product(*(range(lo, hi + 1) for lo, hi in box))
                     if any(x in (lo, hi) for x, (lo, hi) in zip(m, box))
                     and not complex_homology(ctx.column_complex(k, m).complex).is_zero())
        if box is high_edge:
            assert first[-1] == box[-1][1] and ctx.column_complex(k, first[:-1] + (
                first[-1] - 1,)).mask == ctx.column_complex(k, first).mask
        monkeypatch.setattr(cech_mod, "scan_box", lambda P, twist, box=box: box)
        with pytest.raises(SupportEscapesBox, match=re.escape(f"column at {first} on")):
            ctx.line_bundle_cohomology(k, ZZ)


SKEW_TRIANGLE = facets_from_vertices(2, [(0, 0), (2, 1), (2, -1)])


@pytest.mark.parametrize("name", [*SAMPLES, "octahedron", "pyramid", "hexagon", "skew", "point"])
def test_mask_runs_match_the_columns_in_product_order(name):
    # the line sweep, run by run, against column_complex at every
    # multidegree of the scan box; the skew triangle's normals have last
    # coordinates +-2, so its thresholds are not whole divisions
    P = {**SAMPLES, "octahedron": OCTAHEDRON, "pyramid": PYRAMID,
         "hexagon": KOSZUL_SHAPES["hexagon"], "skew": SKEW_TRIANGLE,
         "point": standard_simplex(0)}[name]
    ctx = CechContext(P)
    for k in range(-(P.dim + 2), 4):
        box = cech_mod.scan_box(P, k)
        swept = []
        facets = [(a, k * b) for a, b in P.facets]
        for m, length, mask in facet_runs(facets, box):
            assert length >= 1
            swept += [(m[:-1] + (m[-1] + i,) if m else m, mask) for i in range(length)]
        expected = [(m, ctx.column_complex(k, m).mask)
                    for m in product(*(range(lo, hi + 1) for lo, hi in box))]
        assert swept == expected, (name, k)


def test_simplex_cone_check_rejects_bad_range():
    with pytest.raises(ValueError):
        simplex_cone_check(2, 2)


def test_homotopy_invariance_sample():
    rng = random.Random(12)
    for _ in range(4):
        Y = random_twist_complex(D1, rng, max_blocks=2)
        base = cech_homology(D1, Y).homology
        padded = direct_sum(Y, suspend(unit_cone(rng.randint(-2, 2), 1), rng.randint(-1, 2)))
        assert cech_homology(D1, padded).homology == base


def test_transfer_matches_les_oracle_on_basic_cones():
    for n in (1, 2):
        P = standard_simplex(n)
        zero_u = tuple(0 for _ in range(n))
        for k in range(0, n):
            Y = cone({0: {(0, 0): [(1, zero_u)]}}, line_bundle(k), line_bundle(k + 1))
            assert cech_homology(P, Y, ZZ).homology == les_two_level_homology(P, Y, ZZ)


def test_transfer_matches_les_oracle_random():
    rng = random.Random(21)
    for _ in range(10):
        P = SAMPLES["interval"] if rng.random() < 0.5 else D2
        Y = random_two_level_complex(P, rng)
        for ring in (ZZ, GF(2)):
            assert (cech_homology(P, Y, ring).homology
                    == les_two_level_homology(P, Y, ring)), (P.dim, Y)


def test_koszul_complexes_are_acyclic():
    # at every face one coordinate map acts invertibly, so the whole
    # complex is componentwise exact; the transfer must see this through
    # length-2 and length-3 homotopy paths with matching signs
    # O(-2) -> O(-1)^2 -> O(0) with d1 = (x0, x1), d2 = (-x1, x0)^T
    K1 = koszul(D1)
    validate(K1, D1)
    for ring in (ZZ, QQ, GF(2), GF(5)):
        res = cech_homology(D1, K1, ring)
        assert res.homology.is_zero(), ring.label
    assert cech_homology(D1, K1, ZZ).transfer_paths == 2
    K2 = koszul(D2)
    validate(K2, D2)
    for ring in (ZZ, GF(2)):
        res = cech_homology(D2, K2, ring)
        assert res.homology.is_zero(), ring.label
    assert cech_homology(D2, K2, ZZ).transfer_paths == 6  # the 3! monomial orders
    assert checked_euler(D2, K2) == 0


def test_koszul_twists_stay_acyclic():
    K1, K2 = koszul(D1), koszul(D2)
    for j in range(-2, 3):
        assert cech_homology(D1, twist(K1, j), ZZ).homology.is_zero(), j
    # a nontrivial member of the residual class: acyclic through twist n_P
    assert hk_acyclic(D2, K2, 2)


@pytest.mark.parametrize("name", ["triangle", "square", "hexagon"])
def test_vertex_koszul_complexes_are_acyclic(name):
    # N + 1 levels: the series runs through homotopy paths of every length
    # up to N, each delta block a signed gather; one transfer per twist
    # serves every ring
    P = KOSZUL_SHAPES[name]
    K = koszul(P)
    validate(K, P)
    for j in range(-1, 3):
        transferred = cech_mod.context(P).transfer(twist(K, j))
        for ring in (ZZ, QQ, GF(2), GF(3)):
            assert transferred.homology(ring).is_zero(), (j, ring.label)


@pytest.mark.parametrize("name", ["triangle", "square", "hexagon"])
def test_vertex_koszul_without_its_top_level(name):
    # levels 0..N-1 resolve the image of O(-N) at level N-1: the homology
    # is that of O(-N) there, free on the interior points of NP
    P = KOSZUL_SHAPES[name]
    K = koszul(P)
    N = K.hi
    top_dropped = make_twist_complex(0, K.levels[:N], {t: K.diff_map(t) for t in range(1, N)})
    expected = H({N - 1: (len(lattice_points_by_box(P, N, interior=True)), ())})
    for ring in (ZZ, GF(2)):
        assert cech_homology(P, top_dropped, ring).homology == expected, ring.label


@pytest.mark.parametrize("name", ["interval", "simplex2", "square"])
def test_transfer_paths_match_path_enumeration(name):
    # the transfer counts paths by one walk with the counts of each
    # triple's targets; the oracle follows every path on its own
    P = SAMPLES[name]
    rng = random.Random(1007)
    complexes = [koszul(P)]
    complexes += [random_twist_complex(P, rng) for _ in range(8)]
    complexes += [random_two_level_complex(P, rng) for _ in range(8)]
    for Y in complexes:
        res = cech_homology(P, Y)
        assert (res.transfer_paths, res.active_multidegrees) == paths_by_enumeration(P, Y), Y
    assert paths_by_enumeration(P, koszul(P)) == {
        "interval": (2, 4), "simplex2": (6, 8), "square": (92, 40)}[name]


def test_zero_dimensional_polytope_line_bundles():
    pt = standard_simplex(0)
    for k in (-2, 0, 3):
        assert line_bundle_cohomology(pt, k).homology == H({0: (1, ())})
        assert cech_homology(pt, line_bundle(k)).homology == H({0: (1, ())})


def test_context_interpolates_once_and_keeps_the_np_cross_check(monkeypatch):
    calls = []
    real = polytope_mod.ehrhart_polynomial

    def counted(P):
        calls.append(P)
        return real(P)

    # np_index would interpolate again through the polytope module's name
    monkeypatch.setattr(polytope_mod, "ehrhart_polynomial", counted)
    monkeypatch.setattr(cech_mod, "ehrhart_polynomial", counted)
    ctx = CechContext(PYRAMID)
    assert ctx.np == ctx.ehrhart.np and calls == [PYRAMID]
    # a root count that the interior dilates contradict still raises
    e = ctx.ehrhart
    wrong = EhrhartPolynomial(e.numerators, e.denominator, ctx.np + 1)
    monkeypatch.setattr(cech_mod, "ehrhart_polynomial", lambda P: wrong)
    with pytest.raises(CharacterizationMismatch):
        CechContext(PYRAMID).np
