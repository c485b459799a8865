"""Command-line front end.

Reads polytope and complex documents in JSON, runs the requested
computation, and prints canonical JSON (sorted keys, compact separators)
on standard output. Exit codes: 0 success, 1 verification failure,
2 input error (reported as a single-line JSON object), a malformed
command line included.
"""

from __future__ import annotations

import json
import sys
from math import gcd, prod
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

# Only the polytope is imported here, and no argparse: ``faces``,
# ``ehrhart``, ``np``, ``points`` and ``splitting`` need nothing else, ``chi``
# only the twist complexes, ``cohomology`` no twist complex, and each command
# is a fresh process that compiles every module it imports when no bytecode
# cache is written. The functions below import the rest; no command loads
# ``fractions``, since the Ehrhart data are integers.
from .polytope import (
    DuplicateVertex,
    LatticePolytope,
    NotFullDimensional,
    TooLarge,
    bounding_box,
    ehrhart_polynomial,
    face_lattice,
    facets_from_vertices,
    lattice_points,
    np_index,
    splitting_rows,
    standard_simplex,
    twist_euler_characteristic,
)
from .record import is_ascii_int

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


def _parse_int(c: Any, code: str, what: str, location: str) -> int:
    """An integer, or its text: a coefficient, or the value of an integer option."""
    if _is_int(c):
        return c
    if isinstance(c, str) and is_ascii_int(c):
        try:
            return int(c)
        except ValueError:  # more digits than int() converts
            pass
    raise InputError(code, f"{what} {c!r} is not an integer", location)


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
                terms.append((_parse_int(term["c"], "bad_coefficient", "coefficient", location),
                              tuple(u)))
            entries[(row, col)] = terms
        if t in diffs:
            raise InputError("bad_differentials", f"level {t} listed twice", location)
        diffs[t] = entries
    from .sheaf_complexes import make_twist_complex
    return make_twist_complex(min_level, levels, diffs)


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
    d = e.denominator
    return {
        # each coefficient a / d reduced, as "p/q", or "p" when it is an integer
        "coeffs": [str(a // g) if (g := gcd(a, d)) == d else f"{a // g}/{d // g}"
                   for a in e.numerators],
        "np": e.np,
        "integral_roots": list(range(-e.np, 0)),
    }


def _refuse_over(budget: int, size: int, what: str, location: str) -> None:
    # ``what`` names the refused quantity, with {} where its size goes
    if size > budget:
        raise InputError("too_large", f"{what.format(size)}, more than the budget of {budget}",
                         location)


def cmd_points(P: LatticePolytope, k: int, interior: bool) -> dict:
    if interior or k >= 0:
        # counted, not enumerated: kP holds |chi(O(k))| points and, by reciprocity,
        # the interior of |k|P holds |chi(O(-|k|))|; 1 bounds that of 0P
        count = twist_euler_characteristic(P, ehrhart_polynomial(P), -abs(k) if interior else k)
        _refuse_over(POINTS_BUDGET, abs(count), "the dilate holds {} lattice points", "--dilate")
    try:
        pts = lattice_points(P, k, interior)
    except ValueError as exc:
        raise InputError("bad_dilate", str(exc), "--dilate")
    return {"count": len(pts), "points": [list(p) for p in pts]}


def cmd_splitting(P: LatticePolytope) -> dict:
    e = ehrhart_polynomial(P)
    rows = splitting_rows(P, e, np_index(P, e))
    det = prod(row[j] for j, row in enumerate(rows))  # splitting_rows checked they are triangular
    return {"matrix": rows, "det": det, "unimodular": abs(det) == 1}


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
            lhs = twist_euler_characteristic(P, ctx.ehrhart, -k)
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


# command -> (help, positionals, options); an option maps to (kind, default),
# where kind int or str takes a value, bool is a flag, and None is required
_COMMANDS: dict[str, tuple[str, tuple[str, ...], dict[str, tuple[type, Any]]]] = {
    "faces": ("face lattice of a polytope", ("polytope",), {}),
    "ehrhart": ("point-counting polynomial and its integral roots", ("polytope",), {}),
    "np": ("count of integral roots of the point-counting polynomial", ("polytope",), {}),
    "points": ("lattice points of a dilate", ("polytope",),
               {"--dilate": (int, None), "--interior": (bool, False)}),
    "cohomology": ("homology of the Čech complex of O(k)", ("polytope",),
                   {"--twist": (int, None), "--ring": (str, "Z")}),
    "cech": ("homology of the Čech complex of a twist complex", ("polytope", "complex"),
             {"--ring": (str, "Z")}),
    "chi": ("Euler characteristic of the Čech complex", ("polytope", "complex"), {}),
    "splitting": ("unimodular matrix of Euler characteristics", ("polytope",), {}),
    "verify": ("run the verification battery", ("polytope",), {"--kmax": (int, 4)}),
}


def _usage(commands: Iterable[str]) -> str:
    lines = []
    for command in commands:
        description, positionals, options = _COMMANDS[command]
        words = [command, *positionals]
        for name, (kind, default) in options.items():
            word = name if kind is bool else f"{name} {name[2:].upper()}"
            words.append(word if default is None else f"[{word}]")
        lines.append(f"usage: polycech {' '.join(words)}\n    {description}")
    return "\n".join(lines)


def _parse_args(argv: Sequence[str]) -> dict[str, Any]:
    """The command and its arguments by name (options without "--", missing
    ones at their defaults), read by ``_COMMANDS``: options by exact name as
    --name value or --name=value, a value as given even if it starts with "-"."""
    if not argv or argv[0] not in _COMMANDS:
        raise InputError("bad_args", f"unknown command {argv[0]!r}" if argv else
                         "missing command", "<args>")
    _, positionals, options = _COMMANDS[argv[0]]
    args: dict[str, Any] = {name[2:]: default for name, (_, default) in options.items()}
    given, rest = [], iter(argv[1:])  # positionals given, and the words left to read
    for arg in rest:
        name, eq, value = arg.partition("=")
        if not arg.startswith("-") or arg == "-":
            given.append(arg)
        elif name not in options:
            raise InputError("bad_args", f"unknown option {name}", "<args>")
        elif options[name][0] is bool:
            if eq:
                raise InputError("bad_args", f"option {name} takes no value", "<args>")
            args[name[2:]] = True
        else:
            if not eq and (value := next(rest, None)) is None:
                raise InputError("bad_args", f"option {name} needs a value", "<args>")
            if options[name][0] is int:
                value = _parse_int(value, "bad_args", f"option {name}: value", "<args>")
            args[name[2:]] = value
    missing = [*positionals[len(given):], *(n for n in options if args[n[2:]] is None)]
    if missing or len(given) > len(positionals):
        raise InputError("bad_args", f"missing argument {missing[0]}" if missing else
                         f"unexpected argument {given[len(positionals)]!r}", "<args>")
    args.update(zip(positionals, given), command=argv[0])
    return args


def run(argv: Sequence[str]) -> tuple[Any, int]:
    args = _parse_args(argv)
    path = args["polytope"]
    try:
        return _run_command(args, parse_polytope_document(_load_json(path), path))
    except TooLarge as exc:
        raise InputError("too_large", str(exc), path)


def _run_command(args: dict[str, Any], P: LatticePolytope) -> tuple[Any, int]:
    command = args["command"]
    if command == "faces":
        return cmd_faces(P), 0
    # every other command may interpolate the Ehrhart polynomial, directly
    # or in the context: refuse before any dilate is enumerated
    _refuse_over(EHRHART_BUDGET, prod(hi - lo + 1 for lo, hi in bounding_box(P, P.dim + 1)),
                 f"the bounding box of {P.dim + 1}P holds {{}} points", args["polytope"])
    if command == "points":
        return cmd_points(P, args["dilate"], args["interior"]), 0
    if command == "ehrhart":
        return cmd_ehrhart(P), 0
    if command == "np":
        return {"np": np_index(P)}, 0
    if command == "splitting":
        return cmd_splitting(P), 0
    if command == "chi":
        from .sheaf_complexes import euler_characteristic
        return {"chi": euler_characteristic(P, _load_complex(args["complex"], P))}, 0
    from . import cech
    if command == "cohomology":
        ring, k = _parse_ring(args["ring"]), args["twist"]
        _refuse_over(POINTS_BUDGET, prod(hi - lo + 1 for lo, hi in cech.scan_box(P, k)),
                     f"the scan box of twist {k} holds {{}} multidegrees", "--twist")
        res = cech.line_bundle_cohomology(P, k, ring)
        return homology_json(res.homology), 0
    if command == "cech":
        ring = _parse_ring(args["ring"])
        Y = _load_complex(args["complex"], P)
        # O(k) is supported on the |chi(O(k))| points of kP, or of its interior for k < 0
        e = cech.context(P).ehrhart
        _refuse_over(POINTS_BUDGET,
                     sum(abs(twist_euler_characteristic(P, e, k)) for _, _, k in Y.summands()),
                     "the supports of the complex hold {} multidegrees", args["complex"])
        res = cech.cech_homology(P, Y, ring)
        return {
            "homology": homology_json(res.homology),
            "active_multidegrees": res.active_multidegrees,
            "transfer_paths": res.transfer_paths,
        }, 0
    # verify, the one command of _COMMANDS left
    kmax = args["kmax"]
    if kmax < 0:
        raise InputError("bad_kmax", f"kmax {kmax} is negative", "--kmax")
    # 2*kmax + 1 scans, of twists -kmax..kmax, none larger than that of kmax
    box = prod(hi - lo + 1 for lo, hi in cech.scan_box(P, kmax))
    _refuse_over(POINTS_BUDGET, (2 * kmax + 1) * box,
                 f"the scans of twists -{kmax}..{kmax} visit {{}} multidegrees", "--kmax")
    report = verify_suite(P, kmax)
    ok = all(item["pass"] for item in report)
    return {"ok": ok, "results": report}, 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "-h" in argv or "--help" in argv:  # anywhere: the usage of the command, if one is named
        print(_usage([argv[0]] if argv[0] in _COMMANDS else _COMMANDS))
        return 0
    try:
        payload, code = run(argv)
    except InputError as exc:
        print(canonical_dumps(
            {"code": exc.code, "message": exc.message, "location": exc.location}))
        return 2
    print(canonical_dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
