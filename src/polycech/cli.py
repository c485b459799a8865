"""Command-line front end.

Reads polytope and complex documents in JSON, runs the requested
computation, and prints canonical JSON (sorted keys, compact separators)
on standard output. Exit codes: 0 success, 1 verification failure,
2 input error (reported as a single-line JSON object), a malformed
command line included.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import prod
from typing import TYPE_CHECKING, Any, Mapping, NoReturn, Sequence

# Only the polytope is imported here: ``faces``, ``ehrhart``, ``np`` and
# ``points`` need nothing else, and each command is a fresh process that
# compiles every module it imports when no bytecode cache is written. The
# functions below import the rest where they use it.
from .polytope import (
    DuplicateVertex,
    EhrhartPolynomial,
    LatticePolytope,
    NotFullDimensional,
    TooLarge,
    bounding_box,
    ehrhart_polynomial,
    face_lattice,
    facets_from_vertices,
    lattice_points,
    np_index,
    standard_simplex,
)

if TYPE_CHECKING:
    from .exact_linalg import CoefficientRing, HomologyResult
    from .sheaf_complexes import TwistComplex


# most lattice points the `points` command will enumerate and print, most
# multidegrees a line-bundle scan will visit, and most support multidegrees
# of a complex's summands the `cech` command will transfer
POINTS_BUDGET = 1_000_000
# most points in the bounding box of (n+1)P: the Ehrhart interpolation
# enumerates the dilates 0P..(n+1)P, before any count above is known
EHRHART_BUDGET = 1_000_000


class InputError(Exception):
    def __init__(self, code: str, message: str, location: str):
        self.code = code
        self.message = message
        self.location = location
        super().__init__(message)


class _HelpShown(Exception):
    """argparse has printed the usage for -h or --help."""


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an InputError, and -h or --help
    as _HelpShown, instead of exiting; the subcommand parsers are of this
    class too."""

    def error(self, message: str) -> NoReturn:
        raise InputError("bad_args", message, "<args>")

    def exit(self, status: int = 0, message: str | None = None) -> NoReturn:
        # error() never gets here, so only the help action does
        raise _HelpShown


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _require_keys(obj: Mapping, keys: set[str], location: str) -> None:
    if not isinstance(obj, dict):
        raise InputError("bad_document", "document is not a JSON object", location)
    extra = set(obj) - keys
    if extra:
        raise InputError("unknown_key", f"unexpected keys {sorted(extra)}", location)
    missing = keys - set(obj)
    if missing:
        raise InputError("missing_key", f"missing keys {sorted(missing)}", location)


def _is_int(x: Any) -> bool:
    # JSON true/false load as bool, a subclass of int; neither is a number here
    return isinstance(x, int) and not isinstance(x, bool)


def parse_polytope_document(obj: Any, location: str) -> LatticePolytope:
    _require_keys(obj, {"dim", "vertices"}, location)
    dim = obj["dim"]
    verts = obj["vertices"]
    if not _is_int(dim) or dim < 0:
        raise InputError("bad_dim", "dim must be a non-negative integer", location)
    if not isinstance(verts, list) or not all(
            isinstance(v, list) and all(_is_int(x) for x in v) for v in verts):
        raise InputError("bad_vertices", "vertices must be a list of integer vectors", location)
    if any(len(v) != dim for v in verts):
        raise InputError("bad_vertices", "vertex length does not match dim", location)
    try:
        return facets_from_vertices(dim, verts)
    except (NotFullDimensional, DuplicateVertex, ValueError) as exc:
        raise InputError("bad_polytope", str(exc), location)


def _parse_coeff(c: Any, location: str) -> int:
    if _is_int(c):
        return c
    # ASCII digits only: int() would also read "1_0", padding and other scripts' digits
    if isinstance(c, str) and re.fullmatch(r"-?[0-9]+", c):
        try:
            return int(c)
        except ValueError:  # more digits than int() converts
            pass
    raise InputError("bad_coefficient", f"coefficient {c!r} is not an integer", location)


def parse_complex_document(obj: Any, location: str) -> TwistComplex:
    _require_keys(obj, {"min_level", "levels", "differentials"}, location)
    min_level = obj["min_level"]
    levels = obj["levels"]
    if not _is_int(min_level):
        raise InputError("bad_level", "min_level must be an integer", location)
    if not isinstance(levels, list) or not all(
            isinstance(lv, list) and all(_is_int(k) for k in lv) for lv in levels):
        raise InputError("bad_levels", "levels must be a list of lists of twists", location)
    hi = min_level + len(levels) - 1
    diffs: dict[int, dict[tuple[int, int], list]] = {}
    if not isinstance(obj["differentials"], list):
        raise InputError("bad_differentials", "differentials must be a list", location)
    for block in obj["differentials"]:
        _require_keys(block, {"from", "entries"}, location)
        t = block["from"]
        if not _is_int(t) or not (min_level < t <= hi):
            raise InputError("bad_level", f"differential level {t!r} out of range", location)
        if not isinstance(block["entries"], list):
            raise InputError("bad_differentials", f"entries at level {t} must be a list",
                             location)
        entries: dict[tuple[int, int], list] = {}
        for e in block["entries"]:
            _require_keys(e, {"row", "col", "terms"}, location)
            row, col = e["row"], e["col"]
            if not (_is_int(row) and _is_int(col)):
                raise InputError("bad_entry", "row/col must be integers", location)
            if not (0 <= row < len(levels[t - 1 - min_level])
                    and 0 <= col < len(levels[t - min_level])):
                raise InputError("bad_entry", f"entry ({row}, {col}) out of range at level {t}",
                                 location)
            if not isinstance(e["terms"], list):
                raise InputError("bad_entry", f"terms of entry ({row}, {col}) must be a list",
                                 location)
            terms = []
            for term in e["terms"]:
                _require_keys(term, {"c", "u"}, location)
                u = term["u"]
                if not isinstance(u, list) or not all(_is_int(x) for x in u):
                    raise InputError("bad_monomial", "u must be an integer vector", location)
                terms.append((_parse_coeff(term["c"], location), tuple(u)))
            entries[(row, col)] = terms
        if t in diffs:
            raise InputError("bad_differentials", f"level {t} listed twice", location)
        diffs[t] = entries
    from .sheaf_complexes import make_twist_complex
    try:
        return make_twist_complex(min_level, levels, diffs)
    except ValueError as exc:
        raise InputError("bad_complex", str(exc), location)


def complex_document(Y: TwistComplex) -> dict:
    differentials = []
    for t in range(Y.lo + 1, Y.hi + 1):
        entries = []
        for (i, j), terms in sorted(Y.diff_map(t).items()):
            entries.append({
                "row": i,
                "col": j,
                "terms": [{"c": str(c), "u": list(u)} for c, u in terms],
            })
        if entries:
            differentials.append({"from": t, "entries": entries})
    return {
        "min_level": Y.lo if Y.hi >= Y.lo else 0,
        "levels": [list(lv) for lv in Y.levels],
        "differentials": differentials,
    }


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError:  # missing, a directory, unreadable
        raise InputError("missing_file", f"cannot open {path}", path)
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
        raise InputError("bad_json", str(exc), path)


def _load_polytope(path: str) -> LatticePolytope:
    return parse_polytope_document(_load_json(path), path)


def _load_complex(path: str, P: LatticePolytope) -> TwistComplex:
    from .sheaf_complexes import InvalidMonomial, NonSquareZero, validate
    Y = parse_complex_document(_load_json(path), path)
    try:
        validate(Y, P)
    except (InvalidMonomial, NonSquareZero) as exc:
        raise InputError("bad_complex", str(exc), path)
    return Y


def _parse_ring(text: str) -> CoefficientRing:
    from .exact_linalg import CoefficientRing
    try:
        return CoefficientRing.parse(text)
    except ValueError as exc:
        raise InputError("bad_ring", str(exc), "--ring")


def homology_json(h: HomologyResult) -> list[dict]:
    return [
        {"degree": d, "free_rank": free, "torsion": list(torsion)}
        for d, free, torsion in h.groups
    ]


def cmd_faces(P: LatticePolytope) -> dict:
    lattice = face_lattice(P)
    faces = [
        {
            "id": f.index,
            "dim": f.dim,
            "vertices": sorted(f.vertex_set),
            "tight_facets": sorted(f.tight_facets),
        }
        for f in lattice.faces
    ]
    f_vector = [len(lattice.by_dim[d]) for d in range(P.dim + 1)]
    return {"faces": faces, "f_vector": f_vector}


def cmd_ehrhart(P: LatticePolytope) -> dict:
    e = ehrhart_polynomial(P)
    return {
        "coeffs": [str(c) for c in e.coefficients],
        "np": e.np,
        "integral_roots": list(e.integral_roots),
    }


def _point_count(P: LatticePolytope, e: EhrhartPolynomial, k: int, interior: bool) -> int:
    # counted, not enumerated: kP holds E(k) points and, by reciprocity,
    # (-1)^n E(-|k|) interior ones for k != 0; E(0) = 1 bounds the interior of 0P
    return int((-1) ** P.dim * e(-abs(k)) if interior and k else e(k))


def _refuse_over(budget: int, size: int, what: str, location: str) -> None:
    # ``what`` names the refused quantity, with {} where its size goes
    if size > budget:
        raise InputError("too_large", f"{what.format(size)}, more than the budget of {budget}",
                         location)


def cmd_points(P: LatticePolytope, k: int, interior: bool) -> dict:
    if interior or k >= 0:
        _refuse_over(POINTS_BUDGET, _point_count(P, ehrhart_polynomial(P), k, interior),
                     "the dilate holds {} lattice points", "--dilate")
    try:
        pts = lattice_points(P, k, interior)
    except ValueError as exc:
        raise InputError("bad_dilate", str(exc), "--dilate")
    return {"count": len(pts), "points": [list(p) for p in pts]}


def cmd_splitting(P: LatticePolytope) -> dict:
    from . import cech
    M = cech.splitting_matrix(P)
    det = prod(M[j, j] for j in range(M.rows))  # splitting_matrix checked M is triangular
    return {
        "matrix": [list(row) for row in M.data],
        "det": det,
        "unimodular": abs(det) == 1,
    }


def verify_suite(P: LatticePolytope, kmax: int) -> list[dict]:
    """Run the verification battery, one record per item. Each item is a
    call that raises on failure: it passes when the call raises nothing,
    and otherwise its ``detail`` is "<Exception>: <message>"."""
    from . import cech
    from .exact_linalg import ZZ, FreeChainComplex, Matrix
    from .orientation import incidence_numbers
    if kmax < 0:
        raise ValueError(f"kmax {kmax} is negative")
    ctx = cech.context(P)
    n = P.dim

    def reciprocity():
        for k in range(1, n + 2):
            lhs = (-1) ** n * ctx.ehrhart(-k)
            rhs = len(lattice_points(P, k, interior=True))
            if lhs != rhs:
                raise AssertionError(f"k={k}: {lhs} != {rhs}")

    def closed_form():
        # the scan raises AssertionError itself when it misses the closed form
        for k in range(-kmax, kmax + 1):
            ctx.line_bundle_cohomology(k, ZZ)

    def con_vs_bundle():
        for C in (FreeChainComplex.from_dicts({0: 1}, {}),
                  FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[2]])}),
                  FreeChainComplex.from_dicts({0: 1, 1: 1}, {1: Matrix.from_rows([[1]])})):
            ctx.con_vs_bundle_check(C, ZZ)

    def cone_checks():
        for k in range(n):
            cech.simplex_cone_check(n, k, ZZ)

    checks = [
        ("ehrhart_reciprocity", reciprocity),
        # building incidence signs checks all codimension-2 flags; the
        # context did so for ctx.incidence, so only the reversal is left
        ("incidence_boundary_squares_to_zero",
         lambda: incidence_numbers(ctx.lattice, reverse=True)),
        ("line_bundle_closed_form", closed_form),
        ("acyclicity_window", ctx.acyclicity_window),
        ("constant_vs_twisted_unit", con_vs_bundle),
        ("splitting_matrix_unimodular", ctx.splitting_matrix),
    ]
    if P == standard_simplex(n) and n >= 1:
        checks.append(("simplex_cone_identity", cone_checks))
    items: list[dict] = []
    for name, check in checks:
        try:
            check()
        except Exception as exc:  # any raised check is a failure of the item
            items.append({"name": name, "pass": False, "detail": f"{type(exc).__name__}: {exc}"})
        else:
            items.append({"name": name, "pass": True})
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polycech",
        description="Exact Čech homology of line-bundle twists on lattice polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("faces", help="face lattice of a polytope")
    p.add_argument("polytope")

    p = sub.add_parser("ehrhart", help="point-counting polynomial and its integral roots")
    p.add_argument("polytope")

    p = sub.add_parser("np", help="count of integral roots of the point-counting polynomial")
    p.add_argument("polytope")

    p = sub.add_parser("points", help="lattice points of a dilate")
    p.add_argument("polytope")
    p.add_argument("--dilate", type=int, required=True)
    p.add_argument("--interior", action="store_true")

    p = sub.add_parser("cohomology", help="homology of the Čech complex of O(k)")
    p.add_argument("polytope")
    p.add_argument("--twist", type=int, required=True)
    p.add_argument("--ring", default="Z")

    p = sub.add_parser("cech", help="homology of the Čech complex of a twist complex")
    p.add_argument("polytope")
    p.add_argument("complex")
    p.add_argument("--ring", default="Z")

    p = sub.add_parser("chi", help="Euler characteristic of the Čech complex")
    p.add_argument("polytope")
    p.add_argument("complex")

    p = sub.add_parser("splitting", help="unimodular matrix of Euler characteristics")
    p.add_argument("polytope")

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("polytope")
    p.add_argument("--kmax", type=int, default=4)
    return parser


def run(argv: Sequence[str]) -> tuple[Any, int]:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args, _load_polytope(args.polytope))
    except TooLarge as exc:
        raise InputError("too_large", str(exc), args.polytope)


def _run_command(args: argparse.Namespace, P: LatticePolytope) -> tuple[Any, int]:
    if args.command == "faces":
        return cmd_faces(P), 0
    # every other command may interpolate the Ehrhart polynomial, directly
    # or in the context: refuse before any dilate is enumerated
    _refuse_over(EHRHART_BUDGET, prod(hi - lo + 1 for lo, hi in bounding_box(P, P.dim + 1)),
                 f"the bounding box of {P.dim + 1}P holds {{}} points", args.polytope)
    if args.command == "points":
        return cmd_points(P, args.dilate, args.interior), 0
    if args.command == "ehrhart":
        return cmd_ehrhart(P), 0
    if args.command == "np":
        return {"np": np_index(P)}, 0
    from . import cech
    if args.command == "cohomology":
        ring = _parse_ring(args.ring)
        _refuse_over(POINTS_BUDGET, prod(hi - lo + 1 for lo, hi in cech.scan_box(P, args.twist)),
                     f"the scan box of twist {args.twist} holds {{}} multidegrees", "--twist")
        res = cech.line_bundle_cohomology(P, args.twist, ring)
        return homology_json(res.homology), 0
    if args.command == "cech":
        ring = _parse_ring(args.ring)
        Y = _load_complex(args.complex, P)
        # a summand O(k) is supported on kP, or on the interior of kP for k < 0
        e = cech.context(P).ehrhart
        _refuse_over(POINTS_BUDGET, sum(_point_count(P, e, k, k < 0) for _, _, k in Y.summands()),
                     "the supports of the complex hold {} multidegrees", args.complex)
        res = cech.cech_homology(P, Y, ring)
        return {
            "homology": homology_json(res.homology),
            "active_multidegrees": res.active_multidegrees,
            "transfer_paths": res.transfer_paths,
        }, 0
    if args.command == "chi":
        Y = _load_complex(args.complex, P)
        return {"chi": cech.euler_characteristic(P, Y)}, 0
    if args.command == "splitting":
        return cmd_splitting(P), 0
    if args.command == "verify":
        if args.kmax < 0:
            raise InputError("bad_kmax", f"kmax {args.kmax} is negative", "--kmax")
        # 2*kmax + 1 scans, of twists -kmax..kmax, none larger than that of kmax
        box = prod(hi - lo + 1 for lo, hi in cech.scan_box(P, args.kmax))
        _refuse_over(POINTS_BUDGET, (2 * args.kmax + 1) * box,
                     f"the scans of twists -{args.kmax}..{args.kmax} visit {{}} multidegrees",
                     "--kmax")
        report = verify_suite(P, args.kmax)
        ok = all(item["pass"] for item in report)
        return {"ok": ok, "results": report}, 0 if ok else 1
    raise InputError("bad_command", f"unknown command {args.command!r}", "<args>")


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        payload, code = run(argv)
    except _HelpShown:
        return 0
    except InputError as exc:
        print(canonical_dumps(
            {"code": exc.code, "message": exc.message, "location": exc.location}))
        return 2
    print(canonical_dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
