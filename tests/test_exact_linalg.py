import random
import re
import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from polycech.exact_linalg import (
    GF,
    QQ,
    ZZ,
    CoefficientRing,
    Contraction,
    FreeChainComplex,
    HomologyResult,
    InvalidComplex,
    Matrix,
    NonNilpotent,
    SignedGather,
    TorsionObstruction,
    complex_homology,
    contraction,
    field_rank,
    invariant_factors,
    perturb_transfer,
    smith_normal_form,
)
from polycech import cech as cech_mod
from polycech.orientation import IncidenceSystem
from polycech.polytope import facets_from_vertices, row_echelon
from polycech.sheaf_complexes import TwistComplex

from helpers import (
    det_by_elimination,
    gauss_jordan,
    koszul,
    kunneth_homology,
    merge_torsion_by_primes,
    random_free_complex,
    rank_by_elimination,
    random_twist_complex,
    sample_polytopes,
    smith_invariant_factors,
)


def diag_of(D):
    return [D[i, i] for i in range(min(D.rows, D.cols))]


def test_snf_identity():
    A = Matrix.identity(2)
    U, D, V = smith_normal_form(A)
    assert D == A and U == A and V == A


def test_snf_small_example():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    A = Matrix.from_rows([[2, 4], [6, 8]])
    U, D, V = smith_normal_form(A)
    assert diag_of(D) == [2, 4]
    assert U @ A @ V == D


def test_snf_zero_matrix():
    A = Matrix.zeros(3, 2)
    U, D, V = smith_normal_form(A)
    assert D == A
    assert U == Matrix.identity(3) and V == Matrix.identity(2)


@pytest.mark.parametrize("seed", range(6))
def test_snf_properties_random(seed):
    rng = random.Random(seed)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        A = Matrix.from_rows([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        U, D, V = smith_normal_form(A)
        assert U @ A @ V == D
        assert abs(det_by_elimination(U.data)) == 1 == abs(det_by_elimination(V.data))
        diag = diag_of(D)
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        assert all(D[i, j] == 0 for i in range(r) for j in range(c) if i != j)
        assert invariant_factors(A) == nonzero


def test_snf_deterministic():
    A = Matrix.from_rows([[4, 6, 2], [10, 4, 8]])
    first = smith_normal_form(A)
    second = smith_normal_form(A)
    assert first == second


def product_by_triple_loop(A, B):
    return [[sum(A[i, k] * B[k, j] for k in range(A.cols)) for j in range(B.cols)]
            for i in range(A.rows)]


@pytest.mark.parametrize("seed", range(4))
def test_matrix_product_against_triple_loop(seed):
    # the row-sparse product against the textbook sum: int and Fraction
    # entries, units and other values, zero rows, and empty shapes
    rng = random.Random(seed)

    def entry(fractions):
        a = rng.choice([0, 0, 0, 1, -1, 1, -1, 2, -3, 7])
        return Fraction(a, rng.randint(1, 3)) if fractions and rng.random() < 0.4 else a

    def matrix(r, c):
        fractions = rng.random() < 0.4
        rows = [[entry(fractions) for _ in range(c)] for _ in range(r)]
        for row in rng.sample(rows, rng.randint(0, r)) if rng.random() < 0.3 else ():
            row[:] = [0] * c
        return Matrix(r, c, tuple(map(tuple, rows)))

    for _ in range(200):
        r, n, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        A, B = matrix(r, n), matrix(n, c)
        got = A @ B
        assert (got.rows, got.cols) == (r, c)
        assert [list(row) for row in got.data] == product_by_triple_loop(A, B), (A, B)
        assert all(len(row) == c for row in got.data)
    for r, n, c in ((0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)):
        assert matrix(r, n) @ matrix(n, c) == Matrix.zeros(r, c)
    with pytest.raises(ValueError):
        Matrix.identity(2) @ Matrix.zeros(3, 2)
    with pytest.raises(ValueError):
        Matrix.zeros(0, 1) @ Matrix.zeros(0, 1)


def test_ring_parsing_and_units():
    assert CoefficientRing.parse("Z") == ZZ
    assert CoefficientRing.parse("Q") == QQ
    assert CoefficientRing.parse("Fp:7") == GF(7)
    with pytest.raises(ValueError):
        CoefficientRing.parse("Fp:6")
    with pytest.raises(ValueError):
        CoefficientRing.parse("R")
    with pytest.raises(ValueError):
        GF(2**61 - 1)  # prime, but above the bound on trial division
    # -1 is a unit over F_3 and 3 is zero there, as the rank shows
    assert field_rank(Matrix.from_rows([[-1]]), GF(3)) == 1
    assert field_rank(Matrix.from_rows([[3]]), GF(3)) == 0


@pytest.mark.parametrize("kind, p, message", [
    ("Fp", 5.0, "the modulus has the entry 5.0, not an int"),
    ("Fp", True, "the modulus has the entry True, not an int"),
    ("Z", 5, "modulus only allowed for prime fields"),
    ("R", None, "unknown ring kind 'R'"),
], ids=["float_modulus", "bool_modulus", "modulus_over_Z", "unknown_kind"])
def test_ring_refuses_what_it_does_not_implement(kind, p, message):
    # a modulus is taken as given, never read through int()
    with pytest.raises(ValueError, match=re.escape(message)):
        CoefficientRing(kind, p)


@pytest.mark.parametrize("build, message", [
    (lambda: Matrix.from_rows([[1, 2], [3]]), "ragged rows"),
    (lambda: FreeChainComplex(0, -1, (1,), ()), "empty complex must have no data"),
    (lambda: FreeChainComplex(0, 1, (1,), (Matrix.zeros(0, 1),)),
     "rank list does not match degree range"),
    (lambda: FreeChainComplex(0, 1, (1, 1), ()), "differential list does not match degree range"),
    (lambda: FreeChainComplex(0, 1, (1, 1), (Matrix.zeros(1, 2),)),
     "differential at degree 1 has the wrong shape"),
], ids=["ragged", "empty_with_data", "ranks", "diffs", "shape"])
def test_shape_guards(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_records_are_frozen_values():
    assert CoefficientRing("Fp", 5) == GF(5)
    assert CoefficientRing("Q", None).p is None and CoefficientRing("Q", None) == QQ
    assert hash(CoefficientRing("Fp", 5)) == hash(GF(5))
    assert GF(5) != GF(7) and GF(5) != "Fp:5"
    # equal field values in another class are still a different value
    assert FreeChainComplex.empty() != TwistComplex.empty()
    # the private sign table is set by __post_init__ and is not a field
    inc = IncidenceSystem((((0, 1), -1),))
    assert inc == IncidenceSystem((((0, 1), -1),)) and inc.sign(0, 1) == -1
    assert repr(inc) == "IncidenceSystem(numbers=(((0, 1), -1),))"
    assert repr(GF(5)) == "CoefficientRing(kind='Fp', p=5)"
    assert repr(ZZ) == "CoefficientRing(kind='Z', p=None)"
    assert repr(HomologyResult(((0, 1, (2,)),))) == "HomologyResult(groups=((0, 1, (2,)),))"
    assert repr(FreeChainComplex.empty()) == "FreeChainComplex(lo=0, hi=-1, ranks=(), diffs=())"
    P = facets_from_vertices(1, [(0,), (1,)])
    assert repr(P) == "LatticePolytope(dim=1, vertices=((0,), (1,)), facets=(((-1,), -1), ((1,), 0)))"
    # an equal polytope built again finds the same cached context
    cech_mod.context.cache_clear()
    again = facets_from_vertices(1, [(0,), (1,)])
    assert again is not P and again == P and hash(again) == hash(P)
    assert cech_mod.context(again) is cech_mod.context(P)
    assert cech_mod.context.cache_info().currsize == 1
    with pytest.raises(AttributeError):
        GF(5).p = 7
    with pytest.raises(AttributeError):
        del GF(5).kind
    with pytest.raises(AttributeError):
        GF(5).extra = 1
    # fields are positional, all of them, with no default and no keyword
    with pytest.raises(TypeError, match="CoefficientRing takes 2 fields, got 0"):
        CoefficientRing()
    with pytest.raises(TypeError, match="CoefficientRing takes 2 fields, got 1"):
        CoefficientRing("Q")
    with pytest.raises(TypeError, match="CoefficientRing takes 2 fields, got 3"):
        CoefficientRing("Fp", 5, 7)
    with pytest.raises(TypeError):
        CoefficientRing("Fp", modulus=5)
    with pytest.raises(TypeError):
        CoefficientRing("Fp", kind="Fp")
    with pytest.raises(TypeError):
        CoefficientRing(kind="Fp", p=5)
    # __post_init__ still checks its fields
    with pytest.raises(ValueError):
        CoefficientRing("Fp", 4)
    with pytest.raises(ValueError, match="wrong shape"):
        FreeChainComplex(0, 1, (1, 1), (Matrix.zeros(2, 1),))


def test_homology_zero_differentials():
    C = FreeChainComplex.from_dicts({0: 2, 1: 3}, {1: Matrix.zeros(2, 3)})
    h = complex_homology(C, ZZ)
    assert h.as_dict() == {0: (2, ()), 1: (3, ())}


def test_homology_multiplication_by_two():
    C = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])})
    assert complex_homology(C, ZZ).as_dict() == {0: (0, (2,))}
    assert complex_homology(C, QQ).is_zero()
    assert complex_homology(C, GF(2)).as_dict() == {0: (1, ()), 1: (1, ())}
    assert complex_homology(C, GF(3)).is_zero()


def test_homology_exact_complex():
    C = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[1]])})
    assert complex_homology(C, ZZ).is_zero()


def test_invalid_complex_rejected():
    C = FreeChainComplex.from_dicts(
        {0: 1, 1: 1, 2: 1},
        {1: Matrix.from_rows([[1]]), 2: Matrix.from_rows([[1]])})
    with pytest.raises(InvalidComplex):
        complex_homology(C, ZZ)
    # the same data is fine over F_p when the composite vanishes there
    C2 = FreeChainComplex.from_dicts(
        {0: 1, 1: 1, 2: 1},
        {1: Matrix.from_rows([[2]]), 2: Matrix.from_rows([[2]])})
    assert complex_homology(C2, GF(2)).as_dict() == {0: (1, ()), 1: (1, ()), 2: (1, ())}


@pytest.mark.parametrize("entry, passes_over", [(1, ()), (2, ("Fp:2",))],
                         ids=["nonzero_everywhere", "zero_over_F2"])
def test_dd_guard_answers_alike_in_either_order(entry, passes_over):
    # d∘d is multiplied out over Z once, when the complex is built; a ring
    # asked later decides only a composite that is nonzero there, and the
    # rings asked before it do not change its answer
    C = FreeChainComplex.from_dicts(
        {0: 1, 1: 1, 2: 1},
        {1: Matrix.from_rows([[entry]]), 2: Matrix.from_rows([[entry]])})
    rings = [ZZ, QQ, GF(2), GF(3)]
    for ring in rings + rings[::-1]:
        if ring.label in passes_over:
            assert complex_homology(C, ring).as_dict() == {0: (1, ()), 1: (1, ()), 2: (1, ())}
        else:
            with pytest.raises(InvalidComplex, match="d∘d != 0 between degrees 2 and 0"):
                complex_homology(C, ring)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3)], ids=lambda r: r.label)
def test_complexes_built_valid_over_z_pass_over_every_ring(ring):
    A = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])})
    # d1 d2 = 1 - 1 = 0; the homology is Z in degree 0, free, so it contracts
    C = FreeChainComplex.from_dicts(
        {0: 2, 1: 2, 2: 1},
        {1: Matrix.from_rows([[1, -1], [0, 0]]), 2: Matrix.from_rows([[1], [1]])})
    assert complex_homology(FreeChainComplex.empty(), ring).is_zero()
    assert complex_homology(A.tensor(C), ring) == kunneth_homology(A, C, ring)
    assert complex_homology(contraction(C).small, ring) == complex_homology(C, ring)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(4, 2), True],
                         ids=["fraction", "integral_fraction", "bool"])
def test_complex_takes_int_entries_only(entry):
    # the type decides, not the value: Q and F_p are coefficient rings of
    # homology, never entries, and a bool is refused as the command line refuses it
    with pytest.raises(InvalidComplex, match=re.escape(f"entry {entry!r}, not an int")):
        FreeChainComplex.from_dicts({0: 1, 1: 2}, {1: Matrix.from_rows([[0, entry]])})


@pytest.mark.parametrize("entry", [Fraction(1, 2), True], ids=["fraction", "bool"])
@pytest.mark.parametrize("entry_point", [
    invariant_factors, smith_normal_form, lambda A: field_rank(A, GF(3)),
], ids=["invariant_factors", "smith_normal_form", "field_rank"])
def test_smith_entry_points_take_int_entries_only(entry_point, entry):
    # a matrix passed directly is checked as a complex's differentials are
    with pytest.raises(ValueError, match=re.escape(f"entry {entry!r}, not an int")):
        entry_point(Matrix.from_rows([[3, 0], [0, entry]]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_universal_coefficients(p):
    rng = random.Random(100 + p)
    for _ in range(25):
        C = random_free_complex(rng)
        hz = complex_homology(C, ZZ).as_dict()
        hp = complex_homology(C, GF(p)).as_dict()
        for d in C.degrees():
            free, torsion = hz.get(d, (0, ()))
            expected = (free + sum(1 for t in torsion if t % p == 0)
                        + sum(1 for t in hz.get(d - 1, (0, ()))[1] if t % p == 0))
            assert hp.get(d, (0, ()))[0] == expected


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), GF(5)], ids=lambda r: r.label)
def test_field_homology_against_plain_elimination(ring):
    # the library reads ranks over a field off the integer Smith diagonal;
    # the oracle eliminates over the field itself. Each differential is
    # multiplied by an integer unit of the field, which changes no rank
    rng = random.Random(20100730 + (ring.p or 0))
    units = [q for q in range(1, 10) if ring.p is None or q % ring.p]
    drops = 0
    for _ in range(60):
        C = random_free_complex(rng, max_blocks=4, entry_bound=6)
        ranks = {d: rank_by_elimination(C.diff(d).data, ring.p) for d in range(C.lo, C.hi + 2)}
        expected = HomologyResult.from_dict(
            {d: (C.rank(d) - ranks[d] - ranks[d + 1], ()) for d in C.degrees()})
        scaled = FreeChainComplex(C.lo, C.hi, C.ranks,
                                  tuple(m.scale(rng.choice(units)) for m in C.diffs))
        assert complex_homology(C, ring) == complex_homology(scaled, ring) == expected
        drops += any(ranks[d] < rank_by_elimination(C.diff(d).data) for d in ranks)
    assert drops or ring.p is None  # over F_p some seeded ranks fall below those over Q


def test_field_rank_needs_a_field():
    rows = [[3, 2], [6, 4]]
    assert field_rank(Matrix.from_rows(rows), QQ) == 1
    with pytest.raises(ValueError, match="needs a field"):
        field_rank(Matrix.from_rows([[2, 4], [1, 3]]), ZZ)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3)], ids=lambda r: r.label)
def test_tensor_product_against_kunneth(ring):
    rng = random.Random(20100730)
    tor_terms = 0
    for _ in range(40):
        A, B = random_free_complex(rng), random_free_complex(rng)
        AB = A.tensor(B)
        assert (AB.lo, AB.hi) == (A.lo + B.lo, A.hi + B.hi)
        assert AB.total_rank() == A.total_rank() * B.total_rank()
        assert complex_homology(AB, ring) == kunneth_homology(A, B, ring)
        ta, tb = (sum((t for _, _, t in h.groups), ())
                  for h in (complex_homology(A), complex_homology(B)))
        tor_terms += any(gcd(a, b) > 1 for a in ta for b in tb)
    assert tor_terms  # the seeded pairs exercise Tor(Z/a, Z/b) != 0


def test_tensor_with_an_empty_complex_is_empty():
    A = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])})
    assert A.tensor(FreeChainComplex.empty()) == FreeChainComplex.empty()
    assert FreeChainComplex.empty().tensor(A) == FreeChainComplex.empty()


def test_contraction_elementary_acyclic():
    C = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[1]])})
    ct = contraction(C)
    ct.verify()
    assert ct.small.total_rank() == 0
    assert ct.homotopy_at(0) == Matrix.identity(1)
    assert ct.include_at(0).cols == 0 and ct.project_at(0).rows == 0


def test_contraction_zero_differentials():
    C = FreeChainComplex.from_dicts({0: 2, 1: 3}, {1: Matrix.zeros(2, 3)})
    ct = contraction(C)
    ct.verify()
    assert ct.small.ranks == (2, 3)
    assert ct.include_at(0) == Matrix.identity(2)
    assert ct.project_at(1) == Matrix.identity(3)
    assert ct.homotopy_at(0).is_zero()
    # an empty complex contracts onto the canonical empty one, and stays the ambient
    empty = FreeChainComplex.empty()
    assert contraction(empty) == Contraction(empty, empty, (), (), ())
    odd = FreeChainComplex(3, 1, (), ())
    assert contraction(odd) == Contraction(odd, empty, (), (), ())


def test_contraction_of_interval_column_is_integral():
    # the multidegree-1 slice of the twist-0 bundle on the interval is
    # split exact over Z, so an integral homotopy must come out
    from polycech.cech import column_complex
    from polycech.polytope import standard_simplex
    col = column_complex(standard_simplex(1), 0, (1,))
    ct = contraction(col.complex)
    ct.verify()
    assert ct.small.total_rank() == 0
    assert all(isinstance(x, int) for m in ct.homotopy for row in m.data for x in row)


@pytest.mark.parametrize("field,degree,rows,message", [
    ("project", 1, [[0, 2]], "p∘i != 1 at degree 1"),
    ("homotopy", 0, [[2], [0]], "1 - i∘p != dh + hd at degree 0"),
    ("homotopy", 1, [[0, 1]], "h∘i != 0 at degree 1"),
    ("project", 1, [[1, 1]], "p∘h != 0 at degree 0"),
    ("homotopy", 1, [[1, 0]], "h∘h != 0 at degree 0"),
], ids=["pi", "homotopy", "hi", "ph", "hh"])
def test_contraction_verify_fires_on_each_identity(field, degree, rows, message):
    # Z <- Z^2 <- Z by [1 0] and 0: the first vector of degree 1 cancels
    # degree 0, the second one and degree 2 carry the homology
    C = FreeChainComplex.from_dicts({0: 1, 1: 2, 2: 1},
                                    {1: Matrix.from_rows([[1, 0]]), 2: Matrix.zeros(2, 1)})
    small = FreeChainComplex.from_dicts({0: 0, 1: 1, 2: 1}, {})
    maps = {
        "include": [Matrix.zeros(1, 0), Matrix.from_rows([[0], [1]]), Matrix.identity(1)],
        "project": [Matrix.zeros(0, 1), Matrix.from_rows([[0, 1]]), Matrix.identity(1)],
        "homotopy": [Matrix.from_rows([[1], [0]]), Matrix.zeros(1, 2), Matrix.zeros(0, 1)],
    }
    Contraction(C, small, *map(tuple, maps.values())).verify()
    maps[field][degree] = Matrix.from_rows(rows)
    with pytest.raises(AssertionError, match=re.escape(message)):
        Contraction(C, small, *map(tuple, maps.values())).verify()


def test_contraction_torsion_obstruction():
    C = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])})
    with pytest.raises(TorsionObstruction):
        contraction(C)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)], ids=lambda r: r.label)
def test_contraction_random(ring):
    # the contraction is over Z; without Z torsion its small ranks are the
    # homology ranks over every ring
    rng = random.Random(7)
    for _ in range(40):
        C = random_free_complex(rng)
        try:
            ct = contraction(C)
        except TorsionObstruction:
            assert any(t for _, _, t in complex_homology(C, ZZ).groups)
            continue
        ct.verify()
        h = complex_homology(C, ring).as_dict()
        for d in C.degrees():
            assert ct.small.rank(d) == h.get(d, (0, ()))[0]
        assert all(m.is_zero() for m in ct.small.diffs)


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=lambda r: r.label)
def test_contraction_of_polytope_columns(ring):
    # three-degree columns: the restriction left by one degree's
    # cancellations carries over into the next differential
    from polycech.cech import CechContext, scan_box

    polytopes = {
        "cube": sample_polytopes()["cube"],
        "octahedron": facets_from_vertices(
            3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]),
    }
    for name, P in polytopes.items():
        ctx = CechContext(P)
        patterns = {}
        for k in range(-2, 2):
            for m in product(*(range(a, b + 1) for a, b in scan_box(P, k))):
                col = ctx.column_complex(k, m)
                patterns.setdefault(col.faces, col.complex)
        assert len(patterns) == {"cube": 46, "octahedron": 104}[name]
        for C in patterns.values():
            ct = contraction(C)
            ct.verify()
            h = complex_homology(C, ring).as_dict()
            for d in C.degrees():
                assert ct.small.rank(d) == h.get(d, (0, ()))[0]


def unit_block(degree):
    return contraction(FreeChainComplex.from_dicts({degree: 1}, {}))


def _flat(delta):
    """The flat (d, src, tgt, block) entries of a test delta written as
    {(tgt, src): {d: block}}."""
    return [(d, s, t, m) for (t, s), per_degree in delta.items() for d, m in per_degree.items()]


def transferred_homology(out, ring=ZZ):
    return HomologyResult.direct_sum_of(
        (complex_homology(C, ring) for C in out.components), out.unlinked)


def test_perturb_transfer_zero_delta():
    out = perturb_transfer([unit_block(1), unit_block(0)], _flat({}), 2, [0, 0])
    # nothing links the blocks: no matrix, no component
    assert out.components == () and out.linked == ()
    assert out.unlinked == {0: 1, 1: 1}
    assert transferred_homology(out).as_dict() == {0: (1, ()), 1: (1, ())}


def test_perturb_transfer_unit_cancellation():
    delta = {(1, 0): {1: Matrix.from_rows([[1]])}}
    out = perturb_transfer([unit_block(1), unit_block(0)], _flat(delta), 2, [0, 0])
    assert out.linked == ((0, 1),) and out.unlinked == {}
    (C,) = out.components
    assert C.diff(1) == Matrix.from_rows([[1]])
    assert transferred_homology(out).is_zero()


def test_perturb_transfer_square_zero():
    blocks = [unit_block(2), unit_block(1), unit_block(0)]
    delta = {
        (1, 0): {2: Matrix.from_rows([[2]])},
        (2, 1): {1: Matrix.from_rows([[0]])},
    }
    out = perturb_transfer(blocks, _flat(delta), 3, [0] * 3)
    # the zero delta block links nothing, so block 2 stays apart
    assert out.linked == ((0, 1),) and out.unlinked == {0: 1}
    (C,) = out.components
    assert (C.lo, C.hi) == (1, 2) and C.diff(2) == Matrix.from_rows([[2]])
    assert transferred_homology(out).as_dict() == {0: (1, ()), 1: (0, (2,))}


def test_perturb_transfer_square_zero_guard_fires_per_component():
    # blocks 0 -> 1 -> 2 are one component whose transferred d∘d is 1;
    # blocks 3 -> 4 form a second, valid component and block 5 is unlinked
    blocks = [unit_block(2), unit_block(1), unit_block(0),
              unit_block(1), unit_block(0), unit_block(1)]
    one = Matrix.from_rows([[1]])
    good = {(4, 3): {1: one}}
    out = perturb_transfer(blocks, _flat(good), 3, [0] * 6)
    assert out.linked == ((3, 4),) and out.unlinked == {0: 1, 1: 2, 2: 1}
    bad = {(1, 0): {2: one}, (2, 1): {1: one}, **good}
    with pytest.raises(ValueError, match="does not square to zero"):
        perturb_transfer(blocks, _flat(bad), 3, [0] * 6)


def test_perturb_transfer_non_nilpotent():
    acyclic = contraction(
        FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[1]])}))
    start = unit_block(1)
    # feeding the homotopy output back into delta never terminates
    delta = {
        (1, 0): {1: Matrix.from_rows([[1]])},
        (1, 1): {1: Matrix.from_rows([[1]])},
    }
    with pytest.raises(NonNilpotent):
        perturb_transfer([start, acyclic], _flat(delta), 4, [0, 0])


def _dense(blocks, row_ranks, col_ranks):
    """Assemble a dict {(row block, col block): Matrix} into one matrix."""
    rows = []
    for t, nrows in enumerate(row_ranks):
        parts = [blocks.get((t, s), Matrix.zeros(nrows, ncols))
                 for s, ncols in enumerate(col_ranks)]
        rows += [[a for m in parts for a in m.data[i]] for i in range(nrows)]
    return Matrix(len(rows), sum(col_ranks), tuple(map(tuple, rows)))


def _block_lower_perturbation(rng):
    """Blocks C_k, a strictly block-lower delta and the dense total complex.

    With d the block-diagonal differential and g a random integer change of
    basis that is the identity on diagonal blocks and zero above them,
    delta = g*d*g^-1 - d is strictly block-lower and (d + delta)^2 = 0.
    """
    parts = [random_free_complex(rng, max_blocks=2) for _ in range(rng.randint(3, 6))]
    lo, hi = min(C.lo for C in parts), max(C.hi for C in parts)
    ranks = {d: [C.rank(d) for C in parts] for d in range(lo, hi + 1)}
    g, g_inv = {}, {}
    for d in range(lo, hi + 1):
        below = {(t, s): Matrix(ranks[d][t], ranks[d][s], tuple(
                     tuple(rng.randint(-2, 2) for _ in range(ranks[d][s]))
                     for _ in range(ranks[d][t])))
                 for t in range(len(parts)) for s in range(t)}
        nil = _dense(below, ranks[d], ranks[d])
        one = Matrix.identity(nil.rows)
        g[d] = one + nil
        g_inv[d], term = one, one
        for _ in parts:  # nil is nilpotent of order at most len(parts)
            term = term @ -nil
            g_inv[d] = g_inv[d] + term
    delta, total = {}, {}
    for d in range(lo + 1, hi + 1):
        diag = _dense({(k, k): C.diff(d) for k, C in enumerate(parts)}, ranks[d - 1], ranks[d])
        total[d] = g[d - 1] @ diag @ g_inv[d]
        off = total[d] - diag
        r0 = 0
        for t, nrows in enumerate(ranks[d - 1]):
            c0 = 0
            for s, ncols in enumerate(ranks[d]):
                m = off.submatrix(range(r0, r0 + nrows), range(c0, c0 + ncols))
                if not m.is_zero():
                    assert t > s
                    delta.setdefault((t, s), {})[d] = m
                c0 += ncols
            r0 += nrows
    dense = FreeChainComplex.from_dicts({d: sum(ranks[d]) for d in range(lo, hi + 1)}, total)
    return parts, delta, dense


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(5), ZZ], ids=lambda r: r.label)
def test_perturb_transfer_matches_perturbation_lemma(ring):
    # the transferred complex is homotopy equivalent over Z to the total
    # complex d + delta, whose homology is computed here without any
    # contraction; the ring enters only in the two homologies compared
    rng = random.Random(2010)
    checked = 0
    for _ in range(60):
        parts, delta, dense = _block_lower_perturbation(rng)
        try:
            blocks = [contraction(C) for C in parts]
        except TorsionObstruction:
            continue
        out = perturb_transfer(blocks, _flat(delta), len(parts), [0] * len(parts))
        assert transferred_homology(out, ring) == complex_homology(dense, ring)
        # each block lies in at most one component, which spans its blocks only
        linked = [b for bs in out.linked for b in bs]
        assert len(linked) == len(set(linked))
        for bs, C in zip(out.linked, out.components):
            assert C.total_rank() == sum(blocks[b].small.total_rank() for b in bs)
        rest = [B for b, B in enumerate(blocks) if b not in linked]
        assert sum(out.unlinked.values()) == sum(B.small.total_rank() for B in rest)
        checked += 1
    assert checked >= 10


def gather_matrix(G):
    """The dense matrix of a signed gather: c at (r, rows[r]) where rows[r] is set."""
    return Matrix(len(G.rows), G.cols, tuple(
        tuple(G.c if j == r else 0 for j in range(G.cols)) for r in G.rows))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=lambda r: r.label)
def test_signed_gather_matches_dense_product(ring):
    rng = random.Random(5150)

    def entry():
        if ring == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        a = rng.randint(-9, 9)
        return a if ring.p is None else a % ring.p

    for _ in range(200):
        src, tgt, width = rng.randint(0, 5), rng.randint(0, 6), rng.randint(0, 4)
        M = Matrix(src, width, tuple(tuple(entry() for _ in range(width)) for _ in range(src)))
        # a partial identity: distinct source rows at some target rows, zero rows elsewhere
        hit = rng.sample(range(tgt), min(tgt, rng.randint(0, src)))
        sources = iter(rng.sample(range(src), len(hit)))
        rows = [next(sources) if r in hit else None for r in range(tgt)]
        for c in (1, -1, 2):
            G = SignedGather(c, rows, src)
            got = G @ M
            assert got == gather_matrix(G) @ M, (c, rows, M)
            assert G.is_zero() == gather_matrix(G).is_zero()
            if c == 1:  # the rows of M are shared, not copied
                assert all(got.data[r] is M.data[i] for r, i in enumerate(rows) if i is not None)
    with pytest.raises(ValueError):
        SignedGather(1, [0], 2) @ Matrix.identity(3)


def _dense_total(blocks, delta, shifts):
    """The total complex d + delta of the shifted blocks, as one dense
    complex; delta is flat, and entries that repeat a (d, src, tgt) add."""
    lo = min(B.ambient.lo + k for B, k in zip(blocks, shifts))
    hi = max(B.ambient.hi + k for B, k in zip(blocks, shifts))
    ranks = {d: [B.ambient.rank(d - k) for B, k in zip(blocks, shifts)]
             for d in range(lo, hi + 1)}
    diffs = {}
    for d in range(lo + 1, hi + 1):
        parts = {(b, b): B.ambient.diff(d - k) for b, (B, k) in enumerate(zip(blocks, shifts))}
        for e, s, t, m in delta:
            if e == d:
                parts[(t, s)] = parts[(t, s)] + m if (t, s) in parts else m
        diffs[d] = _dense(parts, ranks[d - 1], ranks[d])
    return FreeChainComplex.from_dicts({d: sum(ranks[d]) for d in range(lo, hi + 1)}, diffs)


@pytest.mark.parametrize("ring", [QQ, GF(2), ZZ], ids=lambda r: r.label)
def test_perturb_transfer_with_signed_gathers_matches_dense_delta(ring, monkeypatch):
    # the delta of a Čech transfer is made of signed partial identities;
    # handed over as gathers and as their dense matrices it must give the
    # same transferred complex, whose homology is that of d + delta
    from polycech import cech

    calls = []
    monkeypatch.setattr(cech, "perturb_transfer",
                        lambda *args: calls.append(args) or perturb_transfer(*args))
    rng = random.Random(1789)
    D1, D2 = sample_polytopes()["interval"], sample_polytopes()["simplex2"]
    for P, Y in [(D1, koszul(D1)), (D2, koszul(D2))] + [
            (P, random_twist_complex(P, rng)) for P in (D1, D2, D1, D2, D1, D2)]:
        cech.cech_homology(P, Y)
    series = 0
    for blocks, delta, bound, shifts in calls:
        assert all(isinstance(G, SignedGather) for _, _, _, G in delta)
        dense = [(d, s, t, gather_matrix(G)) for d, s, t, G in delta]
        out = perturb_transfer(blocks, delta, bound, shifts)
        assert out == perturb_transfer(blocks, dense, bound, shifts)
        assert transferred_homology(out, ring) == complex_homology(
            _dense_total(blocks, dense, shifts), ring)
        series += bound > 2
    assert len(calls) >= 6 and series >= 2


@pytest.mark.parametrize("ring", [QQ, GF(3), ZZ], ids=lambda r: r.label)
def test_perturb_transfer_reads_blocks_at_their_shifts(ring):
    # each part is contracted renumbered down by a seeded offset, and the
    # transfer is told to read it that many degrees up again
    rng = random.Random(4242)
    checked = 0
    for _ in range(60):
        parts, delta, dense = _block_lower_perturbation(rng)
        offsets = [rng.randint(-2, 2) for _ in parts]
        try:
            blocks = [contraction(FreeChainComplex(C.lo - o, C.hi - o, C.ranks, C.diffs))
                      for C, o in zip(parts, offsets)]
        except TorsionObstruction:
            continue
        out = perturb_transfer(blocks, _flat(delta), len(parts), offsets)
        assert transferred_homology(out, ring) == complex_homology(dense, ring)
        unshifted = [contraction(C) for C in parts]
        assert out == perturb_transfer(unshifted, _flat(delta), len(parts), [0] * len(parts))
        checked += any(offsets)
    assert checked >= 10


def test_homology_result_direct_sum_merges_torsion():
    a = HomologyResult.from_dict({0: (1, (2,))})
    b = HomologyResult.from_dict({0: (0, (3,)), 1: (2, ())})
    s = HomologyResult.direct_sum_of((a, b))
    assert s.as_dict() == {0: (1, (6,)), 1: (2, ())}
    c = HomologyResult.from_dict({0: (0, (4, 8))})
    d = HomologyResult.from_dict({0: (0, (6,))})
    assert HomologyResult.direct_sum_of((c, d)).as_dict() == {0: (0, (2, 4, 24))}


def test_direct_sum_merges_torsion_of_large_primes():
    # a trial-division merge never finishes on these: it runs as sqrt(p)
    p, q = 999999999999999989, 1000000000000000003
    parts = [HomologyResult.from_dict({0: (0, t)}) for t in ((p,), (p * q,), (q,))]
    assert HomologyResult.direct_sum_of(parts).as_dict() == {0: (0, (p * q, p * q))}


def test_direct_sum_of_thousands_of_small_factors():
    # a merge through the Smith form of their diagonal matrix is cubic in the count
    primes = [n for n in range(2, 20000) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    rng = random.Random(6000)
    for factors in ([2] * 5000, primes[:2000], [rng.choice((2, 3, 4, 9, 12)) for _ in range(5000)],
                    [2] * 2000 + [3] * 2000 + [4] * 2000):
        parts = [HomologyResult.from_dict({0: (0, (f,))}) for f in factors]
        start = time.perf_counter()
        merged = HomologyResult.direct_sum_of(parts)
        assert time.perf_counter() - start < 5
        assert merged.as_dict() == {0: (0, merge_torsion_by_primes([factors]))}


@pytest.mark.parametrize("seed", range(4))
def test_direct_sum_matches_per_prime_merge(seed):
    rng = random.Random(5000 + seed)
    for _ in range(200):
        lists = [tuple(sorted(rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 25, 27, 30, 49])
                              for _ in range(rng.randint(0, 3))))
                 for _ in range(rng.randint(0, 4))]
        # each part's factors as a divisibility chain, the way homology reports them
        chains = [merge_torsion_by_primes([t]) for t in lists]
        parts = [HomologyResult.from_dict({0: (1, t)}) for t in chains]
        free = {1: rng.randint(0, 2)}
        expected = {0: (len(parts), merge_torsion_by_primes(chains))} if parts else {}
        if free[1]:
            expected[1] = (free[1], ())
        assert HomologyResult.direct_sum_of(parts, free).as_dict() == expected


def test_homology_result_shift_and_euler():
    h = HomologyResult.from_dict({0: (1, ()), 1: (2, ())})
    assert h.shifted(2).as_dict() == {2: (1, ()), 3: (2, ())}
    assert sum(-free if d % 2 else free for d, free, _ in h.groups) == -1


@pytest.mark.parametrize("seed", range(4))
def test_kernel_against_sympy(seed):
    # an oracle outside the package, beside the plain Gauss-Jordan and Smith
    # loop of tests/helpers.py, which it also checks
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(1000 + seed)

    def dense():
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        spread = rng.choice([1, 3, 9])
        return [[rng.randint(-spread, spread) for _ in range(c)] for _ in range(r)]

    def sparse_units():
        # the first unit is at (0, 0) and a nonzero sits to its right, in
        # the pivot row whose column operations the untracked path skips
        r, c = rng.randint(2, 12), rng.randint(2, 12)
        density = rng.choice([0.2, 0.4])
        rows = [[rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(c)]
                for _ in range(r)]
        rows[0][0], rows[0][rng.randrange(1, c)] = 1, rng.choice((-1, 1))
        return rows

    def no_units():
        # pivots of 2 beside entries of 3 need the row-sum repair
        r, c = rng.randint(2, 6), rng.randint(2, 6)
        return [[rng.choice((0, 0, 2, -2, 3, -3, 4, 6, -9)) for _ in range(c)] for _ in range(r)]

    cases = [[[2, 0], [0, 3]], [[0, 4, 0], [6, 0, 0], [0, 0, 10]]]
    cases += [make() for make in (dense, sparse_units, no_units) for _ in range(25)]
    for rows in cases:
        A, S = Matrix.from_rows(rows), sympy.Matrix(rows)
        expected = [int(f) for f in sympy_factors(S, domain=sympy.ZZ) if f]
        assert invariant_factors(A) == expected
        assert smith_invariant_factors(rows) == expected
        U, D, V = smith_normal_form(A)
        assert U @ A @ V == D
        assert [d for d in diag_of(D) if d] == expected
        assert field_rank(A, QQ) == S.rank()
        for p in (2, 3, 5):
            dm = DomainMatrix.from_Matrix(S).convert_to(sympy.GF(p))
            assert field_rank(A, GF(p)) == dm.rank()


def _reduced(m, d):
    """The reduced matrix R of the rows m = d*R that ``row_echelon`` returns."""
    return [[Fraction(a, d) for a in row] for row in m]


def _same_echelon(got, expected):
    """Equal (R, pivots) once R is read off (m, d); m holds ints. The
    oracle's third value, its scale, serves ``det_by_elimination`` only."""
    m, pivots, d = got
    assert all(type(a) is int for row in m for a in row)
    assert (_reduced(m, d), pivots) == expected[:2]


def test_row_echelon_edge_cases():
    for rows in ([], [[]], [[], []], [[0, 0, 0]] * 3):
        _same_echelon(row_echelon(rows), gauss_jordan(rows))
    # a row left without a pivot is cleared all the same, and the input is
    # read, not written
    rows = [[2, 4], [1, 2]]
    m, pivots, d = row_echelon(rows)
    assert pivots == [0] and _reduced(m, d) == [[1, 2], [0, 0]]
    assert rows == [[2, 4], [1, 2]]
    m, pivots, d = row_echelon(((2, 1), (1, 3)))
    assert pivots == [0, 1] and _reduced(m, d) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("seed", range(4))
def test_row_echelon_against_plain_gauss_jordan(seed):
    rng = random.Random(3000 + seed)
    for _ in range(300):
        r, c = rng.randint(1, 6), rng.randint(1, 7)
        spread = rng.choice([1, 2, 9, 100])
        rows = [[rng.randint(-spread, spread) for _ in range(c)] for _ in range(r)]
        if r > 2 and rng.random() < 0.4:
            # a dependent row
            a, b = rng.randint(-3, 3), rng.randint(-2, 2)
            rows[rng.randrange(2, r)] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        _same_echelon(row_echelon(rows), gauss_jordan(rows))
