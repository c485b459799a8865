import random
import re
from itertools import product

import pytest

from polycech.exact_linalg import FreeChainComplex, Matrix
from polycech.cech import column_complex
from polycech.polytope import face_lattice, facet_mask, lattice_points
from polycech.sheaf_complexes import (
    InvalidMonomial,
    NonSquareZero,
    NotChainMap,
    TwistComplex,
    bundle_tensor,
    cone,
    direct_sum,
    line_bundle,
    make_twist_complex,
    suspend,
    twist,
    validate,
)

from helpers import random_twist_complex, sample_polytopes

SAMPLES = sample_polytopes()
D1 = SAMPLES["interval"]
D2 = SAMPLES["simplex2"]


def basic_map(u, c=1):
    return {0: {(0, 0): [(c, u)]}}


def test_validate_accepts_lattice_point_of_difference():
    Y = make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(1, (1, 0))]}})
    validate(Y, D2)


def test_validate_rejects_point_outside_dilate():
    Y = make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(1, (2, 0))]}})
    with pytest.raises(InvalidMonomial):
        validate(Y, D2)


def test_validate_rejects_wrong_exponent_length():
    Y = make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(1, (1,))]}})
    with pytest.raises(InvalidMonomial):
        validate(Y, D2)


def test_validate_vacuous_square_for_single_differential():
    Y = make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(1, (0, 0))]}})
    validate(Y, D2)  # only one differential, nothing to compose


def test_validate_catches_nonzero_square():
    Y = make_twist_complex(
        0, [[2], [1], [0]],
        {1: {(0, 0): [(1, (1, 0))]}, 2: {(0, 0): [(1, (0, 1))]}})
    with pytest.raises(NonSquareZero):
        validate(Y, D2)


@pytest.mark.parametrize("levels, t", [
    ([[1], [0]], 5),
    ([[1], [0]], 0),
    ([[1]], 1),
    ([], 1),
], ids=["above_the_top", "from_the_bottom", "one_level", "no_levels"])
def test_make_twist_complex_rejects_a_differential_outside_the_levels(levels, t):
    with pytest.raises(ValueError, match=f"level {t} out of range"):
        make_twist_complex(0, levels, {t: {(0, 0): [(1, (0, 0))]}})


@pytest.mark.parametrize("build, message", [
    (lambda: make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(1, (0.9, 0))]}}),
     "an exponent vector at (0, 0), level 1 has the entry 0.9, not an int"),
    (lambda: make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(1, ("1", True))]}}),
     "an exponent vector at (0, 0), level 1 has the entry '1', not an int"),
    (lambda: line_bundle(1.7), "the level list has the entry 1.7, not an int"),
    (lambda: TwistComplex(0.5, 0.5, ((0,),), ()), "the level range has the entry 0.5, not an int"),
], ids=["float_exponent", "str_exponent", "float_twist", "float_level"])
def test_twist_complex_takes_int_twists_and_exponents(build, message):
    # taken as given, never read through int(): the coefficients are left to
    # the Čech complex, which refuses a Fraction as InvalidComplex
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: TwistComplex(0, -1, ((0,),), ()), "empty complex must carry no data"),
    (lambda: TwistComplex(0, 1, ((0,),), ((),)), "level list does not match the level range"),
    (lambda: TwistComplex(0, 1, ((0,), (0,)), ()),
     "differential list does not match the level range"),
    (lambda: TwistComplex(0, 1, ((0,), (0,)), ((((1, 0), ((1, (0, 0)),)),),)),
     r"entry \(1, 0\) out of range at level 1"),
], ids=["empty_with_data", "levels", "diffs", "entry"])
def test_twist_complex_shape_guards(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_negative_difference_has_no_valid_monomials():
    # the inequality system for a negative dilate of a full-dimensional
    # polytope is empty, so every entry from O(1) down to O(0) is invalid
    for P in (D1, D2, SAMPLES["square"]):
        box = product(range(-3, 4), repeat=P.dim)
        full = (1 << len(P.facets)) - 1
        assert all(facet_mask(P, -1, u) != full for u in box)


def test_twist_is_strictly_additive():
    Y = make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(1, (1, 0))]}})
    assert twist(twist(Y, 2), 3) == twist(Y, 5)
    assert twist(Y, 0) == Y
    assert twist(line_bundle(1), -1) == line_bundle(0)
    assert twist(TwistComplex.empty(), 3) == TwistComplex.empty()
    validate(twist(Y, -4), D2)  # validity depends only on differences


def test_suspend_shifts_and_signs():
    Y = make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(3, (1, 0))]}})
    assert suspend(Y, 0) == Y
    assert suspend(suspend(Y, 1), -1) == Y
    up = suspend(Y, 1)
    assert up.lo == 1 and up.hi == 2
    assert up.diff_map(2) == {(0, 0): ((-3, (1, 0)),)}
    assert suspend(Y, 2).diff_map(3) == {(0, 0): ((3, (1, 0)),)}


def test_cone_of_identity_and_of_zero():
    ident = cone(basic_map((0, 0)), line_bundle(2), line_bundle(2))
    validate(ident, D2)
    assert ident.levels == ((2,), (2,))
    Y = make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(1, (1, 0))]}})
    Z = line_bundle(2)
    assert cone({}, Y, Z) == direct_sum(suspend(Y, 1), Z)


def test_cone_with_an_empty_side():
    # no placeholder levels: an empty side adds nothing
    Y = make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(1, (1, 0))]}})
    Z = make_twist_complex(3, [[2], [2]], {4: {(0, 0): [(1, (0, 0))]}})
    empty = TwistComplex.empty()
    assert cone({}, empty, Z) == Z
    assert cone({}, Y, empty) == suspend(Y, 1)
    assert cone({}, empty, empty) == empty


def test_cone_requires_chain_map():
    src = make_twist_complex(0, [[0], [0]], {1: {(0, 0): [(1, (0, 0))]}})
    tgt = make_twist_complex(0, [[1], [1]], {1: {(0, 0): [(2, (0, 0))]}})
    f = {0: {(0, 0): [(1, (1, 0))]}, 1: {(0, 0): [(1, (1, 0))]}}
    with pytest.raises(NotChainMap):
        cone(f, src, tgt)
    ok = {0: {(0, 0): [(2, (1, 0))]}, 1: {(0, 0): [(1, (1, 0))]}}
    result = cone(ok, src, tgt)
    validate(result, D2)


def test_cone_rejects_entries_outside_their_block():
    # a column past source_t would land among the target's columns and
    # replace a differential entry; a row past target_t has no row to land in
    T = make_twist_complex(0, [[1], [1], [1]], {2: {(0, 0): [(1, (0, 0))]}})
    with pytest.raises(ValueError, match=r"entry \(0, 0\) at level 1 "):
        cone({1: {(0, 0): [(5, (0, 0))]}}, line_bundle(0), T)
    with pytest.raises(ValueError, match=r"entry \(1, 0\) at level 0 "):
        cone({0: {(1, 0): [(1, (0, 0))]}}, line_bundle(0), line_bundle(1))
    with pytest.raises(ValueError, match=r"entry \(0, 1\) at level 0 "):
        cone({0: {(0, 1): [(1, (0, 0))]}}, line_bundle(0), line_bundle(1))
    with pytest.raises(ValueError, match=r"entry \(0, 0\) at level 3 "):
        cone({3: {(0, 0): [(1, (0, 0))]}}, line_bundle(0), line_bundle(1))


def test_cone_differential_blocks():
    f = basic_map((0,))
    Y = cone(f, line_bundle(0), line_bundle(1))
    assert Y.levels == ((1,), (0,))
    assert Y.diff_map(1) == {(0, 0): ((1, (0,)),)}
    validate(Y, D1)


def test_direct_sum_concatenates():
    Y = line_bundle(1)
    Z = make_twist_complex(0, [[1], [0]], {1: {(0, 0): [(1, (1, 0))]}})
    S = direct_sum(Y, Z)
    assert S.level(0) == (1, 1) and S.level(1) == (0,)
    assert S.diff_map(1) == {(1, 0): ((1, (1, 0)),)}
    assert direct_sum(Y, TwistComplex.empty()) == Y
    assert direct_sum(TwistComplex.empty(), Z) == Z


def test_bundle_tensor_transcribes_matrices():
    C = FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])})
    B = bundle_tensor(0, C, 2)
    assert B.levels == ((0,), (0,))
    assert B.diff_map(1) == {(0, 0): ((2, (0, 0)),)}
    validate(B, D2)
    assert bundle_tensor(3, FreeChainComplex.empty(), 2) == TwistComplex.empty()
    zero = bundle_tensor(1, FreeChainComplex.from_dicts({0: 0, 1: 0}, {}), 2)
    assert zero.levels == ((), ())


def test_global_validity_matches_facewise_cone_condition():
    # u in (b-a)P is the same as u + aF + T_F inside bF + T_F for all faces,
    # reduced at a base vertex w of F to: u + (a-b)w in T_F
    for P in (D1, D2):
        L = face_lattice(P)
        full = (1 << len(P.facets)) - 1
        for a, b in product(range(-1, 3), repeat=2):
            for u in product(range(-2, 3), repeat=P.dim):
                global_ok = facet_mask(P, b - a, u) == full
                facewise = True
                for F in L.faces:
                    w = P.vertices[min(F.vertex_set)]
                    shifted = tuple(x + (a - b) * wc for x, wc in zip(u, w))
                    active = column_complex(P, 0, shifted).faces[P.dim - F.dim]
                    if F.index not in active:
                        facewise = False
                        break
                assert global_ok == facewise, (a, b, u)


def test_random_twist_complexes_validate():
    rng = random.Random(11)
    for _ in range(25):
        Y = random_twist_complex(D2, rng)
        validate(Y, D2)
        validate(twist(Y, rng.randint(-2, 2)), D2)
