#!/usr/bin/env python3
"""Show that every checker accepts the right answer and rejects a wrong one.

    python3 bench/check_oracles.py [--seed N]

Needs no polycech. The right answers come from the oracles; each wrong
answer changes one thing a faulty program could get wrong (a rank off by
one, a dropped torsion factor, a flipped flag, a wrong coefficient). The
oracles are also cross-checked against each other: Pick's theorem against
a direct count of the lattice points of polygon dilates. Exits 1 when a
checker rejects a right answer or lets a wrong one through.
"""

from __future__ import annotations

import argparse
import random
import sys

import oracles
import workloads
from oracles import BASE_SHAPES, CUBE4, Piece

FAILURES: list[str] = []


def expect(name: str, right: str | None, *wrong: str | None) -> None:
    if right is not None:
        FAILURES.append(f"{name}: right answer rejected: {right}")
    for i, reason in enumerate(wrong):
        if reason is None:
            FAILURES.append(f"{name}: wrong answer {i} accepted")
    print(f"{'ok' if right is None and all(wrong) else 'FAIL'}  {name}")


def perturbed(h: dict, degree: int, free: int = 0, torsion=None) -> dict:
    out = dict(h)
    f, t = out.get(degree, (0, ()))
    out[degree] = (f + free, t if torsion is None else tuple(torsion))
    return {d: g for d, g in out.items() if g != (0, ())}


def polygon_count(cyclic, k: int) -> int:
    """Lattice points of k times a convex polygon, by the edge cross products."""
    pts = [(k * x, k * y) for x, y in cyclic]
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    edges = list(zip(pts, pts[1:] + pts[:1]))
    turn = 1 if sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges) > 0 else -1
    return sum(
        1 for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1)
        if all(turn * ((x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)) >= 0
               for (x0, y0), (x1, y1) in edges))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)

    # scan: closed form of O(k), acyclicity window, splitting matrix
    cube, simplex3, pyramid = BASE_SHAPES["cube"], BASE_SHAPES["simplex3"], BASE_SHAPES["pyramid"]
    right = oracles.line_bundle_homology(cube, 2)
    expect("scan O(2) on the cube", oracles.check_homology(right, right),
           oracles.check_homology(right, perturbed(right, 3, free=1)),
           oracles.check_homology(right, {0: right[3]}),
           oracles.check_homology(right, perturbed(right, 3, torsion=(2,))))
    right = oracles.line_bundle_homology(simplex3, -5)
    expect("scan O(-5) on the 3-simplex", oracles.check_homology(right, right),
           oracles.check_homology(right, perturbed(right, 0, free=-1)),
           oracles.check_homology(right, {}))
    expect("scan O(-2) inside the window", oracles.check_homology(
        oracles.line_bundle_homology(pyramid, -2), {}),
        oracles.check_homology(oracles.line_bundle_homology(pyramid, -2), {0: (1, ())}))
    flags = [k <= oracles.np_of(simplex3) for k in range(1, 5)]
    expect("acyclicity window", oracles.check_window(simplex3, flags),
           oracles.check_window(simplex3, flags[:-1] + [True]),
           oracles.check_window(simplex3, [False] + flags[1:]))
    M = oracles.splitting_matrix(pyramid)
    expect("splitting matrix", oracles.check_splitting(pyramid, M),
           oracles.check_splitting(pyramid, [[x + (i == 1 and j == 0) for j, x in enumerate(r)]
                                             for i, r in enumerate(M)]),
           oracles.check_splitting(pyramid, [[-x for x in r] for r in M]))

    # transfer: a cone with torsion, over Z and F_p, and the Euler characteristic
    square = workloads.place(rng, BASE_SHAPES["square"])
    for _ in range(200):
        pieces = [workloads.cone_piece(rng, square, 0, 1, 2)]
        right = oracles.complex_homology(square.shape, square.sym, pieces, "Z")
        if any(t for _, t in right.values()):
            break
    else:
        raise SystemExit("no seeded cone with torsion found")
    degree = next(d for d, (_, t) in right.items() if t)
    levels = workloads.levels_by_index(pieces)
    expect("cone over Z keeps its torsion", oracles.check_homology(right, right),
           oracles.check_homology(right, perturbed(right, degree, torsion=right[degree][1][1:])),
           oracles.check_homology(right, perturbed(right, degree, free=1)))
    expect("Euler characteristic", oracles.check_chi(square.shape, levels, right),
           oracles.check_chi(square.shape, levels, perturbed(right, degree, free=1)),
           oracles.check_chi(square.shape, levels, {d + 1: g for d, g in right.items()}))
    p = next(q for q in workloads.PRIMES if any(f % q == 0 for f in right[degree][1]))
    over_p = oracles.complex_homology(square.shape, square.sym, pieces, f"Fp:{p}")
    expect(f"cone over F_{p} differs from Z", oracles.check_homology(over_p, over_p),
           oracles.check_homology(over_p, right))
    over_q = oracles.complex_homology(square.shape, square.sym,
                                      pieces + [Piece("bundle", 0, 1)], "Q")
    expect("cone plus O(1) over Q", oracles.check_homology(over_q, over_q),
           oracles.check_homology(over_q, perturbed(over_q, 2, free=-1)))

    # cli: documents as the command line prints them
    octagon = workloads.polygon(8)
    faces = {"f_vector": list(octagon.f_vector), "faces": [{}] * sum(octagon.f_vector)}
    expect("faces document", oracles.check_faces_document(octagon, faces),
           oracles.check_faces_document(octagon, dict(faces, f_vector=[8, 9, 1])),
           oracles.check_faces_document(octagon, dict(faces, faces=[{}] * 3)))
    ehr = {"coeffs": [str(c) for c in CUBE4.ehrhart], "np": 1, "integral_roots": [-1]}
    expect("ehrhart document", oracles.check_ehrhart_document(CUBE4, ehr),
           oracles.check_ehrhart_document(CUBE4, dict(ehr, coeffs=ehr["coeffs"][:-1] + ["2"])),
           oracles.check_ehrhart_document(CUBE4, dict(ehr, np=2, integral_roots=[-2, -1])))
    prism = oracles.prism(workloads.polygon(9))
    split = {"matrix": oracles.splitting_matrix(prism), "det": 1, "unimodular": True}
    expect("splitting document", oracles.check_splitting_document(prism, split),
           oracles.check_splitting_document(prism, dict(split, unimodular=False)),
           oracles.check_splitting_document(prism, dict(split, matrix=[[1, 0], [0, 1]])))
    report = {"ok": True, "results": [{"name": "a", "pass": True}, {"name": "b", "pass": True}]}
    expect("verify document", oracles.check_verify_document(report),
           oracles.check_verify_document({"ok": True, "results": [
               {"name": "a", "pass": True}, {"name": "b", "pass": False}]}),
           oracles.check_verify_document({"ok": True, "results": []}))

    # the oracles against each other
    for n in workloads.CLI_POLYGONS:
        shape = workloads.polygon(n)
        counts = [polygon_count(shape.vertices, k) for k in range(4)]
        want = [oracles.ehrhart_value(shape, k) for k in range(4)]
        print(f"{'ok' if counts == want else 'FAIL'}  Pick's theorem on the {n}-gon")
        if counts != want:
            FAILURES.append(f"{n}-gon: counted {counts}, Pick's theorem gives {want}")
        if not oracles.euler_relation_holds(shape.f_vector):
            FAILURES.append(f"{n}-gon f-vector breaks the Euler relation")
    for shape in list(BASE_SHAPES.values()) + [CUBE4, prism]:
        if not oracles.euler_relation_holds(shape.f_vector):
            FAILURES.append(f"{shape.name} f-vector breaks the Euler relation")

    for line in FAILURES:
        print(line, file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
