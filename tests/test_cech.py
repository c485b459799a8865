import dataclasses
import random
from itertools import product

import pytest

from polycech import cech as cech_mod
from polycech import polytope as polytope_mod
from polycech.cech import (
    CechContext,
    SupportEscapesBox,
    cech_homology,
    column_complex,
    con_vs_bundle_check,
    constant_diagram_cech,
    euler_characteristic,
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
    Matrix,
    complex_homology,
)
from polycech.polytope import (
    CharacterizationMismatch,
    cone_membership,
    ehrhart_polynomial,
    facets_from_vertices,
    standard_simplex,
)
from polycech.sheaf_complexes import (
    cone,
    direct_sum,
    line_bundle,
    make_twist_complex,
    suspend,
    twist,
    validate,
)

from helpers import (
    les_two_level_homology,
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
    from polycech.polytope import np_index
    for name, P in SAMPLES.items():
        npi = np_index(P)
        for k in range(-P.dim - 2, 3):
            empty = not support_table(P, k).multidegrees
            assert empty == (-npi <= k <= -1), (name, k)


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
        assert hs == hy.direct_sum(hz)


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
        for d in h.degrees():
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


def test_euler_characteristic_examples():
    assert euler_characteristic(D2, line_bundle(1), cross_check=True) == 3
    assert euler_characteristic(D1, line_bundle(-2), cross_check=True) == 1
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
            val = euler_characteristic(P, line_bundle(m), cross_check=True)
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
    assert M.det() == 1
    M2 = splitting_matrix(D2)
    assert [list(r) for r in M2.data] == [[1, 0, 0], [3, 1, 0], [6, 3, 1]]
    assert M2.det() == 1
    for name in ("square", "cube", "rect", "simplex3"):
        M = splitting_matrix(SAMPLES[name])
        assert abs(M.det()) == 1


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


def test_con_vs_bundle_examples():
    unit = FreeChainComplex.from_dicts({0: 1}, {})
    C2 = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])})
    acyclic = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[1]])})
    for P in (D1, D2):
        assert con_vs_bundle_check(P, unit)
        assert con_vs_bundle_check(P, C2)
        assert con_vs_bundle_check(P, acyclic)


@pytest.mark.parametrize("n,k", [(1, 0), (2, 0), (2, 1)])
def test_simplex_cone_check_small(n, k):
    assert simplex_cone_check(n, k, ZZ)
    assert simplex_cone_check(n, k, GF(2))


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


@pytest.mark.parametrize("name", ["simplex2", "square"])
def test_support_escapes_box_fires_on_a_narrow_box(name):
    # kP's own bounding box puts columns carrying homology on the boundary.
    # Widened on the low side only, the first column with a given pattern is
    # inside the box and a later one with the same pattern is on its edge.
    P = SAMPLES[name]
    k = 2
    tight = [(k * min(v[c] for v in P.vertices), k * max(v[c] for v in P.vertices))
             for c in range(P.dim)]
    for box in (tight, [(lo - 1, hi) for lo, hi in tight]):
        ctx = CechContext(P)
        ctx._scan_box = lambda twist, box=box: box
        with pytest.raises(SupportEscapesBox):
            ctx.line_bundle_cohomology(k, ZZ)


def test_column_faces_match_cone_membership():
    # the facet-mask path against the per-face tangent-cone test
    for P in (SAMPLES["cube"], OCTAHEDRON, PYRAMID):
        ctx = CechContext(P)
        by_dim = ctx.lattice.by_dim
        n = P.dim
        for k in range(-3, 3):
            for m in product(*(range(a, b + 1) for a, b in ctx._scan_box(k))):
                expected = tuple(
                    tuple(F.index for F in by_dim[n - s] if cone_membership(P, F, k, m))
                    for s in range(n + 1))
                assert ctx.column_complex(k, m).faces == expected, (P, k, m)


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


def koszul_interval():
    # O(-2) -> O(-1)^2 -> O(0) with d1 = (x0, x1), d2 = (-x1, x0)^T
    return make_twist_complex(0, [[0], [-1, -1], [-2]], {
        1: {(0, 0): [(1, (0,))], (0, 1): [(1, (1,))]},
        2: {(0, 0): [(-1, (1,))], (1, 0): [(1, (0,))]},
    })


def koszul_triangle():
    x = [(0, 0), (1, 0), (0, 1)]
    return make_twist_complex(0, [[0], [-1, -1, -1], [-2, -2, -2], [-3]], {
        1: {(0, 0): [(1, x[0])], (0, 1): [(1, x[1])], (0, 2): [(1, x[2])]},
        2: {
            (1, 0): [(1, x[0])], (0, 0): [(-1, x[1])],
            (2, 1): [(1, x[0])], (0, 1): [(-1, x[2])],
            (2, 2): [(1, x[1])], (1, 2): [(-1, x[2])],
        },
        3: {(2, 0): [(1, x[0])], (1, 0): [(-1, x[1])], (0, 0): [(1, x[2])]},
    })


def test_koszul_complexes_are_acyclic():
    # at every face one coordinate map acts invertibly, so the whole
    # complex is componentwise exact; the transfer must see this through
    # length-2 and length-3 homotopy paths with matching signs
    K1 = koszul_interval()
    validate(K1, D1)
    for ring in (ZZ, QQ, GF(2), GF(5)):
        res = cech_homology(D1, K1, ring)
        assert res.homology.is_zero(), ring.label
    assert cech_homology(D1, K1, ZZ).transfer_paths == 2
    K2 = koszul_triangle()
    validate(K2, D2)
    for ring in (ZZ, GF(2)):
        res = cech_homology(D2, K2, ring)
        assert res.homology.is_zero(), ring.label
    assert cech_homology(D2, K2, ZZ).transfer_paths == 6  # the 3! monomial orders
    assert euler_characteristic(D2, K2, cross_check=True) == 0


def test_koszul_twists_stay_acyclic():
    K1, K2 = koszul_interval(), koszul_triangle()
    for j in range(-2, 3):
        assert cech_homology(D1, twist(K1, j), ZZ).homology.is_zero(), j
    # a nontrivial member of the residual class: acyclic through twist n_P
    assert hk_acyclic(D2, K2, 2)


def test_zero_dimensional_polytope_line_bundles():
    pt = standard_simplex(0)
    for k in (-2, 0, 3):
        assert line_bundle_cohomology(pt, k).homology == H({0: (1, ())})
        assert cech_homology(pt, line_bundle(k)).homology == H({0: (1, ())})


def test_context_interpolates_once_and_keeps_the_np_cross_check(monkeypatch):
    calls = []
    real = polytope_mod._interpolate
    monkeypatch.setattr(polytope_mod, "_interpolate",
                        lambda nodes: calls.append(nodes) or real(nodes))
    ctx = CechContext(PYRAMID)
    assert len(calls) == 1 and ctx.np == ctx.ehrhart.np
    # a root count that the interior dilates contradict still raises
    wrong = dataclasses.replace(ctx.ehrhart, np=ctx.np + 1)
    monkeypatch.setattr(cech_mod, "ehrhart_polynomial", lambda P: wrong)
    with pytest.raises(CharacterizationMismatch):
        CechContext(PYRAMID)
