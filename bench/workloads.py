"""Seeded inputs and operations for the three workloads.

The seed picks a lattice symmetry (signed coordinate permutation plus a
translation) for every polytope, the vertex order handed to the program,
the monomials and coefficients of every chain map, and the primes of the
F_p rings. None of these change the amount of work an operation does, so
runs on different seeds measure the same load on different inputs. The
program receives only the generated polytopes, complexes and documents.

Every round of a workload runs the same list of operations; an operation
returns the program's raw answer, ``plain`` turns it into a value to
compare, and ``check`` compares that value with the oracles.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Sequence

import oracles
from oracles import BASE_SHAPES, CUBE4, Piece, Shape, Symmetry

DEFAULT_SEED = 20100730
RECHECK_SEED = 4242
PRIMES = (2, 3, 5, 7)


@dataclass
class Op:
    id: str
    polytope: str
    ring: str
    call: Callable[[], Any]
    plain: Callable[[Any], Any]
    check: Callable[[Any], str | None]


@dataclass(frozen=True)
class Placed:
    """A shape moved by a lattice symmetry; ``vertices`` is the order given to the program."""

    shape: Shape
    sym: Symmetry
    vertices: tuple[tuple[int, ...], ...]

    def document(self) -> dict:
        return {"dim": self.shape.dim, "vertices": [list(v) for v in self.vertices]}


def place(rng: random.Random, shape: Shape) -> Placed:
    n = shape.dim
    sym = Symmetry(tuple(rng.sample(range(n), n)),
                   tuple(rng.choice((1, -1)) for _ in range(n)),
                   tuple(rng.randint(-2, 2) for _ in range(n)))
    verts = [sym.apply(v) for v in shape.vertices]
    rng.shuffle(verts)
    return Placed(shape, sym, tuple(verts))


def _ring_label(rng: random.Random, kind: str) -> str:
    return f"Fp:{rng.choice(PRIMES)}" if kind == "Fp" else kind


def cone_piece(rng: random.Random, placed: Placed, a: int, b: int, n_terms: int,
          level: int = 0, sign: int = 1) -> Piece:
    """Multiplication by 1-3 seeded monomials of (b-a)P with small coefficients."""
    pts = oracles.dilate_points(placed.shape, placed.sym, b - a)
    us = rng.sample(pts, min(n_terms, len(pts)))
    return Piece("cone", level, a, b,
                 tuple((sign * rng.choice((1, -1, 2, -2, 3)), u) for u in us))


def complex_layout(pieces: Sequence[Piece]) -> tuple[int, list[list[int]], dict]:
    """Levels and differentials of the direct sum of the pieces.

    Returns (min_level, levels ascending, {level: {(row, col): terms}}),
    the differential entries mapping ``level`` to ``level - 1``.
    """
    levels: dict[int, list[int]] = {}
    diffs: dict[int, dict] = {}
    for p in pieces:
        if p.kind == "bundle":
            levels.setdefault(p.level, []).append(p.a)
            continue
        src = levels.setdefault(p.level + 1, [])
        tgt = levels.setdefault(p.level, [])
        diffs.setdefault(p.level + 1, {})[(len(tgt), len(src))] = list(p.terms)
        src.append(p.a)
        tgt.append(p.b)
    lo, hi = min(levels), max(levels)
    return lo, [levels.get(t, []) for t in range(lo, hi + 1)], diffs


def complex_document(pieces: Sequence[Piece]) -> dict:
    lo, levels, diffs = complex_layout(pieces)
    return {
        "min_level": lo,
        "levels": levels,
        "differentials": [
            {"from": t, "entries": [
                {"row": i, "col": j, "terms": [{"c": str(c), "u": list(u)} for c, u in terms]}
                for (i, j), terms in sorted(entries.items())]}
            for t, entries in sorted(diffs.items())],
    }


def levels_by_index(pieces: Sequence[Piece]) -> dict[int, list[int]]:
    lo, levels, _ = complex_layout(pieces)
    return {lo + i: twists for i, twists in enumerate(levels)}


def _homology_check(placed: Placed, pieces: Sequence[Piece], ring: str):
    """Checker for a twist complex: oracle homology plus the Euler characteristic."""
    expected = lru_cache(maxsize=1)(
        lambda: oracles.complex_homology(placed.shape, placed.sym, pieces, ring))

    def check(got):
        return (oracles.check_homology(expected(), got)
                or oracles.check_chi(placed.shape, levels_by_index(pieces), got))
    return check


def _as_dict(result) -> dict:
    return result.homology.as_dict()


# --- scan -------------------------------------------------------------------

# highest positive twist scanned per shape; negative twists run from
# -(n_P + 2), two below the acyclicity window, up to -1
SCAN_TOP = {"simplex2": 4, "square": 4, "simplex3": 2, "cube": 2, "pyramid": 2,
            "octahedron": 1}


def build_scan(seed: int, pc) -> list[Op]:
    """line_bundle_cohomology over Z, Q and F_p, acyclicity_window and
    splitting_matrix on the six polytopes; contexts are warmed here."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for name, shape in BASE_SHAPES.items():
        placed = place(rng, shape)
        P = pc.facets_from_vertices(shape.dim, placed.vertices)
        pc.line_bundle_cohomology(P, 0, pc.ZZ)  # builds the cached context
        for k in range(-(oracles.np_of(shape) + 2), SCAN_TOP[name] + 1):
            for kind in ("Z", "Q", "Fp"):
                label = _ring_label(rng, kind)
                ring = pc.CoefficientRing.parse(label)
                expected = oracles.line_bundle_homology(shape, k)
                ops.append(Op(
                    f"scan/{name}/O({k})/{label}", name, label,
                    lambda P=P, k=k, ring=ring: pc.line_bundle_cohomology(P, k, ring),
                    _as_dict,
                    lambda got, expected=expected: oracles.check_homology(expected, got)))
        ops.append(Op(f"scan/{name}/window", name, "Z",
                      lambda P=P: pc.acyclicity_window(P), tuple,
                      lambda got, shape=shape: oracles.check_window(shape, got)))
        ops.append(Op(f"scan/{name}/splitting", name, "Z",
                      lambda P=P: pc.splitting_matrix(P), lambda M: [list(r) for r in M.data],
                      lambda got, shape=shape: oracles.check_splitting(shape, got)))
    rng.shuffle(ops)
    return ops


# --- transfer ---------------------------------------------------------------

# (shape, [(a, b), ...] cones over Z and F_p, cones also over Q, line bundles over Z)
TRANSFER_PLAN = (
    ("simplex2", ((0, 1), (1, 2), (0, 2), (2, 3)), ((0, 1), (1, 2)), (1, 2, 3)),
    ("square", ((0, 1), (1, 2), (0, 2), (2, 3)), ((0, 1), (1, 2)), (1, 2, 3)),
    ("simplex3", ((0, 1), (1, 2), (0, 2)), ((0, 1),), (1, 2)),
    ("pyramid", ((0, 1), (0, 2)), (), (1,)),
    ("cube", ((0, 1),), (), (1,)),
    ("octahedron", ((0, 1),), (), (1,)),
)


def build_transfer(seed: int, pc) -> list[Op]:
    """cech_homology of seeded cones, line bundles, sums and suspensions."""
    rng = random.Random(seed)
    placed = {name: place(rng, shape) for name, shape in BASE_SHAPES.items()}
    polytopes = {name: pc.facets_from_vertices(p.shape.dim, p.vertices)
                 for name, p in placed.items()}
    for P in polytopes.values():
        pc.line_bundle_cohomology(P, 0, pc.ZZ)  # builds the cached context
    cases: list[tuple[str, str, list[Piece], str]] = []
    n_terms = 0
    for name, cones, q_cones, bundles in TRANSFER_PLAN:
        for a, b in cones:
            for kind in ("Z", "Fp"):
                n_terms = n_terms % 3 + 1
                cases.append((f"cone{a}{b}", name,
                              [cone_piece(rng, placed[name], a, b, n_terms)], _ring_label(rng, kind)))
        for a, b in q_cones:
            n_terms = n_terms % 3 + 1
            cases.append((f"cone{a}{b}", name, [cone_piece(rng, placed[name], a, b, n_terms)], "Q"))
        for k in bundles:
            cases.append((f"O({k})", name, [Piece("bundle", 0, k)], "Z"))
    cases += [
        ("cone01+O(1)", "square",
         [cone_piece(rng, placed["square"], 0, 1, 2), Piece("bundle", 0, 1)], "Z"),
        ("cone12+cone01", "simplex2",
         [cone_piece(rng, placed["simplex2"], 1, 2, 2), cone_piece(rng, placed["simplex2"], 0, 1, 3)],
         _ring_label(rng, "Fp")),
        ("S1(cone02)", "simplex2", [cone_piece(rng, placed["simplex2"], 0, 2, 3, 1, -1)], "Z"),
        ("S-1(cone01)", "simplex3", [cone_piece(rng, placed["simplex3"], 0, 1, 2, -1, -1)], "Z"),
        ("S2(cone12)+S1(O(-3))", "square",
         [cone_piece(rng, placed["square"], 1, 2, 2, 2), Piece("bundle", 1, -3)],
         _ring_label(rng, "Fp")),
    ]
    ops = []
    for label, name, pieces, ring_label in cases:
        lo, levels, diffs = complex_layout(pieces)
        Y = pc.make_twist_complex(lo, levels, diffs)
        ring = pc.CoefficientRing.parse(ring_label)
        ops.append(Op(f"transfer/{name}/{label}/{ring_label}", name, ring_label,
                      lambda P=polytopes[name], Y=Y, ring=ring: pc.cech_homology(P, Y, ring),
                      _as_dict, _homology_check(placed[name], pieces, ring_label)))
    rng.shuffle(ops)
    return ops


# --- cli --------------------------------------------------------------------

def polygon(n_edges: int) -> Shape:
    """A convex lattice polygon with exactly ``n_edges`` edges.

    Edge directions are spread over a fixed pool sorted by angle, each used
    with its negative; the first two edges are doubled so that cutting the
    corner between them gives an odd edge count.
    """
    pool = ((1, 0), (3, 1), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (1, 3), (0, 1),
            (-1, 3), (-1, 2), (-2, 3), (-1, 1), (-3, 2), (-2, 1), (-3, 1))
    m = n_edges // 2
    dirs = [pool[round(i * len(pool) / m)] for i in range(m)]
    edges = [(2 * x, 2 * y) if i < 2 else (x, y) for i, (x, y) in enumerate(dirs)]
    edges += [(-x, -y) for x, y in edges]
    verts = [(0, 0)]
    for x, y in edges[:-1]:
        verts.append((verts[-1][0] + x, verts[-1][1] + y))
    if n_edges % 2:
        (x0, y0), (x1, y1) = dirs[0], dirs[1]
        vx, vy = verts[1]
        verts[1:2] = [(vx - x0, vy - y0), (vx + x1, vy + y1)]
    return oracles.pick_polygon(f"polygon{n_edges}", verts)


CLI_POLYGONS = (8, 11, 14)
CLI_PRISMS = (8, 9)
CLI_COHOMOLOGY = (("simplex2", -4, "Z"), ("square", 3, "Q"), ("simplex3", -5, "Fp"),
                  ("cube", 2, "Z"), ("pyramid", -2, "Q"), ("octahedron", 1, "Fp"))
VERIFY_KMAX = 2


def _parse_json(result) -> tuple[int, Any]:
    code, out = result
    try:
        return code, json.loads(out)
    except json.JSONDecodeError:
        return code, out


def _cli_check(doc_check: Callable[[Any], str | None]):
    def check(got):
        code, doc = got
        if code != 0:
            return f"exit code {code}: {str(doc)[:200]}"
        if not isinstance(doc, (dict, list)):
            return f"output is not JSON: {str(doc)[:200]}"
        return doc_check(doc)
    return check


def build_cli(seed: int, docs: Path, root: Path,
              launch: Callable[[Sequence[str]], tuple[int, str]]) -> list[Op]:
    """One fresh command-line process per operation; documents go to ``docs``.

    ``launch(argv)`` runs one command from ``root`` and returns its exit
    code and standard output.
    """
    rng = random.Random(seed)
    docs.mkdir(parents=True, exist_ok=True)

    def write(name: str, doc: dict) -> str:
        path = docs / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path.relative_to(root))

    def op(op_id, polytope, ring, argv, doc_check):
        return Op(f"cli/{op_id}", polytope, ring, lambda: launch(argv), _parse_json,
                  _cli_check(doc_check))

    ops: list[Op] = []
    base = {name: place(rng, shape) for name, shape in BASE_SHAPES.items()}
    paths = {name: write(name, p.document()) for name, p in base.items()}
    for name, p in base.items():
        ops.append(op(f"verify/{name}", name, "Z",
                      ["verify", paths[name], "--kmax", str(VERIFY_KMAX)],
                      oracles.check_verify_document))

    shapes = [polygon(n) for n in CLI_POLYGONS]
    shapes += [oracles.prism(polygon(n)) for n in CLI_PRISMS]
    shapes.append(CUBE4)
    for shape in shapes:
        placed = place(rng, shape)
        path = write(shape.name, placed.document())
        ops += [
            op(f"faces/{shape.name}", shape.name, "-", ["faces", path],
               lambda d, s=shape: oracles.check_faces_document(s, d)),
            op(f"ehrhart/{shape.name}", shape.name, "-", ["ehrhart", path],
               lambda d, s=shape: oracles.check_ehrhart_document(s, d)),
            op(f"np/{shape.name}", shape.name, "-", ["np", path],
               lambda d, s=shape: None if d.get("np") == oracles.np_of(s)
               else f"np {d.get('np')} != expected {oracles.np_of(s)}"),
            op(f"splitting/{shape.name}", shape.name, "Z", ["splitting", path],
               lambda d, s=shape: oracles.check_splitting_document(s, d)),
        ]

    for name, k, kind in CLI_COHOMOLOGY:
        label = _ring_label(rng, kind)
        expected = oracles.line_bundle_homology(BASE_SHAPES[name], k)
        ops.append(op(f"cohomology/{name}/O({k})/{label}", name, label,
                      ["cohomology", paths[name], "--twist", str(k), "--ring", label],
                      lambda d, e=expected: oracles.check_homology(
                          e, oracles.homology_from_json(d))))

    cech_cases = (
        ("simplex2", "cone12", [cone_piece(rng, base["simplex2"], 1, 2, 2)], "Z"),
        ("square", "cone01", [cone_piece(rng, base["square"], 0, 1, 3)], _ring_label(rng, "Fp")),
        ("simplex3", "cone01", [cone_piece(rng, base["simplex3"], 0, 1, 2)], "Z"),
        ("square", "cone01+O(1)", [cone_piece(rng, base["square"], 0, 1, 1),
                                   Piece("bundle", 0, 1)], "Q"),
    )
    for i, (name, label, pieces, ring) in enumerate(cech_cases):
        path = write(f"complex{i}", complex_document(pieces))
        check = _homology_check(base[name], pieces, ring)
        ops.append(op(f"cech/{name}/{label}/{ring}", name, ring,
                      ["cech", paths[name], path, "--ring", ring],
                      lambda d, check=check: check(oracles.homology_from_json(d["homology"]))))
    rng.shuffle(ops)
    return ops
