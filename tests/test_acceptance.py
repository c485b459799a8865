"""Acceptance battery: one test per criterion, all comparisons exact.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass lines.
"""

import random

import pytest

from polycech.cech import (
    cech_homology,
    con_vs_bundle_check,
    constant_diagram_cech,
    context,
    line_bundle_cohomology,
    simplex_cone_check,
    splitting_matrix,
)
from polycech.exact_linalg import GF, ZZ, FreeChainComplex, HomologyResult, complex_homology
from polycech.orientation import incidence_numbers
from polycech.polytope import (
    ehrhart_polynomial,
    face_lattice,
    lattice_points,
    np_index,
    standard_simplex,
)
from polycech.sheaf_complexes import (
    bundle_tensor,
    cone,
    direct_sum,
    line_bundle,
    suspend,
)

from helpers import (
    det_by_elimination,
    les_two_level_homology,
    random_free_complex,
    random_twist_complex,
    random_two_level_complex,
    sample_polytopes,
)

SAMPLES = sample_polytopes()
TWIST_RANGE = range(-4, 5)


def report(number, name):
    print(f"CRITERION {number} ({name}): PASS")


@pytest.fixture(scope="module")
def scan_table():
    # shared between criteria 1 and 3: the full box-scan results over Z
    table = {}
    for name, P in SAMPLES.items():
        for k in TWIST_RANGE:
            table[(name, k)] = line_bundle_cohomology(P, k, ZZ).homology
    return table


def expected_line_bundle_homology(P, k):
    e = ehrhart_polynomial(P)
    n = P.dim
    if k >= 0:
        return HomologyResult.from_dict({n: (int(e(k)), ())})
    if k < -e.np:
        return HomologyResult.from_dict({0: ((-1) ** n * int(e(k)), ())})
    return HomologyResult(())


def test_criterion_1_line_bundle_closed_form(scan_table):
    for name, P in SAMPLES.items():
        for k in TWIST_RANGE:
            assert scan_table[(name, k)] == expected_line_bundle_homology(P, k), (name, k)
    report(1, "line-bundle cohomology closed form")


def test_criterion_2_ehrhart_package():
    for name, P in SAMPLES.items():
        e = ehrhart_polynomial(P)
        n = P.dim
        assert e(0) == 1
        for k in (n + 1, n + 2):
            assert e(k) == len(lattice_points(P, k))
        for k in range(1, n + 2):
            assert (-1) ** n * e(-k) == len(lattice_points(P, k, interior=True))
        assert e.integral_roots == tuple(range(-e.np, 0))
        assert np_index(P) == e.np
    for n in (1, 2, 3):
        assert np_index(standard_simplex(n)) == n
    report(2, "Ehrhart polynomial package")


def test_criterion_3_euler_identity(scan_table):
    for name, P in SAMPLES.items():
        e = ehrhart_polynomial(P)
        for m in TWIST_RANGE:
            chi_from_ranks = sum((-1) ** d * free for d, free, _ in scan_table[(name, m)].groups)
            assert chi_from_ranks == (-1) ** P.dim * int(e(m)), (name, m)
    report(3, "Euler characteristic identity")


def test_criterion_4_splitting_matrix():
    for name, P in SAMPLES.items():
        e = ehrhart_polynomial(P)
        n, npi = P.dim, e.np
        M = splitting_matrix(P)  # raises NotUnimodular on any failure
        assert M.rows == M.cols == npi + 1
        for j in range(npi + 1):
            for ell in range(npi + 1):
                assert M[j, ell] == (-1) ** n * int(e(j - ell))
                if j < ell:
                    assert M[j, ell] == 0  # j - ell lands on an integral root
            assert M[j, j] == (-1) ** n
        assert abs(det_by_elimination(M.data)) == 1
    report(4, "unimodular splitting matrix")


def random_complexes(count=20, seed=2024):
    rng = random.Random(seed)
    return [random_free_complex(rng, max_blocks=3, degree_span=3, entry_bound=3)
            for _ in range(count)]


def test_criterion_5_suspension_of_constant_diagrams():
    for C in random_complexes():
        hc = complex_homology(C, ZZ)
        for P in (SAMPLES["interval"], SAMPLES["simplex2"]):
            got = constant_diagram_cech(P, C, ZZ).homology
            assert got == hc.shifted(P.dim)
    report(5, "constant diagram homology is the shifted input")


def test_criterion_6_constant_vs_twisted_unit_bundle():
    for C in random_complexes():
        for P in (SAMPLES["interval"], SAMPLES["simplex2"]):
            con_vs_bundle_check(P, C, ZZ)
    report(6, "constant diagram agrees with the unit twist bundle")


@pytest.mark.parametrize("n,k", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_criterion_7_simplex_cone_identity(n, k):
    simplex_cone_check(n, k, ZZ)
    simplex_cone_check(n, k, GF(2))
    if (n, k) == (3, 2):
        report(7, "simplex cone identity over Z and F2")


def test_criterion_8_homotopy_invariance():
    rng = random.Random(4096)
    cases = 0
    while cases < 10:
        P = SAMPLES["interval"] if cases % 2 else SAMPLES["simplex2"]
        Y = random_twist_complex(P, rng, max_blocks=2)
        k = rng.randint(-2, 2)
        j = rng.randint(-1, 2)
        zero_u = tuple(0 for _ in range(P.dim))
        pad = suspend(cone({0: {(0, 0): [(1, zero_u)]}},
                           line_bundle(k), line_bundle(k)), j)
        base = cech_homology(P, Y, ZZ).homology
        padded = cech_homology(P, direct_sum(Y, pad), ZZ).homology
        assert padded == base
        cases += 1
    report(8, "identity cones never change homology")


def two_level_samples():
    samples = []
    for n in (1, 2, 3):
        P = standard_simplex(n)
        zero_u = tuple(0 for _ in range(n))
        for k in range(n):
            samples.append((P, cone({0: {(0, 0): [(1, zero_u)]}},
                                    line_bundle(k), line_bundle(k + 1))))
        # a doubled endomorphism produces torsion in the cokernel
        samples.append((P, cone({0: {(0, 0): [(2, zero_u)]}},
                                line_bundle(0), line_bundle(0))))
    rng = random.Random(77)
    for _ in range(8):
        P = [SAMPLES["interval"], SAMPLES["simplex2"], SAMPLES["square"]][rng.randint(0, 2)]
        samples.append((P, random_two_level_complex(P, rng)))
    return samples


def test_criterion_9_transfer_matches_long_exact_sequence():
    for P, Y in two_level_samples():
        for ring in (ZZ, GF(2)):
            via_transfer = cech_homology(P, Y, ring).homology
            via_les = les_two_level_homology(P, Y, ring)
            assert via_transfer == via_les, (P.dim, ring.label, Y)
    report(9, "perturbation pipeline matches the connecting-map oracle")


def test_criterion_10_incidence_soundness():
    for name, P in SAMPLES.items():
        L = face_lattice(P)
        inc = incidence_numbers(L)
        for top in L.faces:
            if top.dim < 2:
                continue
            for bottom in L.by_dim[top.dim - 2]:
                if not bottom.vertex_set <= top.vertex_set:
                    continue
                total = sum(
                    inc.sign(bottom.index, mid.index) * inc.sign(mid.index, top.index)
                    for mid in L.by_dim[top.dim - 1]
                    if bottom.vertex_set <= mid.vertex_set <= top.vertex_set)
                assert total == 0, (name, bottom.index, top.index)
        unit = FreeChainComplex.from_dicts({0: 1}, {})
        h = constant_diagram_cech(P, unit, ZZ).homology
        assert h == HomologyResult.from_dict({P.dim: (1, ())}), name
    report(10, "incidence signs sound, constant diagram concentrated on top")
