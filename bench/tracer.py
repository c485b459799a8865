"""Timing wrappers for the traced run; never imported by untraced runs.

``install`` replaces each public function named in LAYERS, in every
polycech module namespace that holds it (methods on their class), by a
wrapper that records a span: name, start, end and parent. Self time is a
span's duration minus the time its child spans cover, accumulated as the
spans close; the spans themselves are kept in memory (up to SPAN_CAP)
and written out when the run ends. A function that no longer exists is
reported as absent and its metrics are left out; the run goes on.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

SPAN_CAP = 200_000


def _faces(tracer, args, result):
    tracer.count("polytope.face_lattice.faces", len(result.faces))


def _pairs(tracer, args, result):
    tracer.count("orientation.incidence_numbers.pairs", len(result.numbers))


def _column(tracer, args, result):
    # a column's pattern is its tuple of active faces; distinct within one operation
    if tracer.distinct("cech.column_complex.distinct_patterns", (id(args[0]), result.faces)):
        tracer.count("cech.column_complex.distinct_patterns", 1)


def _contraction(tracer, args, result):
    if tracer.distinct("exact_linalg.contraction.distinct_inputs", (args[0], args[1:])):
        tracer.count("exact_linalg.contraction.distinct_inputs", 1)


def _transfer(tracer, args, result):
    blocks = args[0]
    tracer.count("exact_linalg.perturb_transfer.blocks", len(blocks))
    tracer.count("exact_linalg.perturb_transfer.ambient_rank",
                 sum(b.ambient.total_rank() for b in blocks))
    tracer.count("exact_linalg.perturb_transfer.small_rank",
                 sum(b.small.total_rank() for b in blocks))


def _active(tracer, args, result):
    tracer.count("cech.cech_homology.active_multidegrees", result.active_multidegrees)


# layer name -> (module, attribute path, counters read from arguments and result)
LAYERS = {
    "polytope.facets_from_vertices": ("polycech.polytope", "facets_from_vertices", None),
    "polytope.face_lattice": ("polycech.polytope", "face_lattice", _faces),
    "polytope.lattice_points": ("polycech.polytope", "lattice_points", None),
    "polytope.ehrhart_polynomial": ("polycech.polytope", "ehrhart_polynomial", None),
    "polytope.np_index": ("polycech.polytope", "np_index", None),
    "orientation.incidence_numbers": ("polycech.orientation", "incidence_numbers", _pairs),
    "sheaf_complexes.validate": ("polycech.sheaf_complexes", "validate", None),
    "cech.context": ("polycech.cech", "context", None),
    "cech.column_complex": ("polycech.cech", "CechContext.column_complex", _column),
    "cech.line_bundle_cohomology": ("polycech.cech", "CechContext.line_bundle_cohomology", None),
    "cech.cech_homology": ("polycech.cech", "CechContext.cech_homology", _active),
    "exact_linalg.complex_homology": ("polycech.exact_linalg", "complex_homology", None),
    "exact_linalg.invariant_factors": ("polycech.exact_linalg", "invariant_factors", None),
    "exact_linalg.field_rank": ("polycech.exact_linalg", "field_rank", None),
    "exact_linalg.contraction": ("polycech.exact_linalg", "contraction", _contraction),
    "exact_linalg.perturb_transfer": ("polycech.exact_linalg", "perturb_transfer", _transfer),
    "cli.main": ("polycech.cli", "main", None),
}

# per-layer metric -> (unit, layer, what): "self_s" and "calls" come from the
# spans, anything else from a counter; "share" is distinct patterns per call
METRICS = {
    "polytope.facets_from_vertices.self_s": ("s", "polytope.facets_from_vertices", "self_s"),
    "polytope.face_lattice.self_s": ("s", "polytope.face_lattice", "self_s"),
    "polytope.face_lattice.faces": ("count", "polytope.face_lattice", "faces"),
    "polytope.lattice_points.calls": ("count", "polytope.lattice_points", "calls"),
    "polytope.lattice_points.self_s": ("s", "polytope.lattice_points", "self_s"),
    "polytope.ehrhart_polynomial.self_s": ("s", "polytope.ehrhart_polynomial", "self_s"),
    "polytope.np_index.self_s": ("s", "polytope.np_index", "self_s"),
    "orientation.incidence_numbers.self_s": ("s", "orientation.incidence_numbers", "self_s"),
    "orientation.incidence_numbers.pairs": ("count", "orientation.incidence_numbers", "pairs"),
    "sheaf_complexes.validate.self_s": ("s", "sheaf_complexes.validate", "self_s"),
    "cech.context.calls": ("count", "cech.context", "calls"),
    "cech.context.self_s": ("s", "cech.context", "self_s"),
    "cech.column_complex.calls": ("count", "cech.column_complex", "calls"),
    "cech.column_complex.self_s": ("s", "cech.column_complex", "self_s"),
    "cech.column_complex.distinct_patterns":
        ("count", "cech.column_complex", "distinct_patterns"),
    "cech.column_complex.distinct_share": ("ratio", "cech.column_complex", "share"),
    "cech.line_bundle_cohomology.self_s": ("s", "cech.line_bundle_cohomology", "self_s"),
    "cech.cech_homology.self_s": ("s", "cech.cech_homology", "self_s"),
    "cech.cech_homology.active_multidegrees":
        ("count", "cech.cech_homology", "active_multidegrees"),
    "exact_linalg.complex_homology.calls": ("count", "exact_linalg.complex_homology", "calls"),
    "exact_linalg.complex_homology.self_s": ("s", "exact_linalg.complex_homology", "self_s"),
    "exact_linalg.invariant_factors.self_s": ("s", "exact_linalg.invariant_factors", "self_s"),
    "exact_linalg.field_rank.self_s": ("s", "exact_linalg.field_rank", "self_s"),
    "exact_linalg.contraction.calls": ("count", "exact_linalg.contraction", "calls"),
    "exact_linalg.contraction.self_s": ("s", "exact_linalg.contraction", "self_s"),
    "exact_linalg.contraction.distinct_inputs":
        ("count", "exact_linalg.contraction", "distinct_inputs"),
    "exact_linalg.perturb_transfer.calls": ("count", "exact_linalg.perturb_transfer", "calls"),
    "exact_linalg.perturb_transfer.self_s": ("s", "exact_linalg.perturb_transfer", "self_s"),
    "exact_linalg.perturb_transfer.blocks": ("count", "exact_linalg.perturb_transfer", "blocks"),
    "exact_linalg.perturb_transfer.ambient_rank":
        ("count", "exact_linalg.perturb_transfer", "ambient_rank"),
    "exact_linalg.perturb_transfer.small_rank":
        ("count", "exact_linalg.perturb_transfer", "small_rank"),
    "cli.interpreter_s": ("s", "cli.interpreter", "self_s"),
    "cli.main.self_s": ("s", "cli.main", "self_s"),
}


class Tracer:
    """Spans and counters of one process.

    ``totals`` maps a layer name to [calls, self seconds]; ``counts`` maps
    a counter name to its sum. Counters of distinct values are scoped to
    one operation (``set_scope``), the unit a per-pattern cache would serve.
    """

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []  # layers or counters that could not be read
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._stack: list[list] = []  # open spans: [id, name, start, child seconds]
        self._next_id = 0
        self._scope: dict[str, set] = {}

    # --- recording -----------------------------------------------------------

    def begin(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, name, start, child = frame
        self._stack.pop()
        dur = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0]
        total[0] += 1
        total[1] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[0] if parent else -1, name, start, end))

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def distinct(self, name: str, key) -> bool:
        seen = self._scope.setdefault(name, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def set_scope(self) -> None:
        self._scope.clear()

    def add_layer(self, name: str, calls: int, self_s: float) -> None:
        total = self.totals.setdefault(name, [0, 0.0])
        total[0] += calls
        total[1] += self_s

    def merge(self, dump: dict) -> None:
        """Add the totals, counters and spans another process wrote with ``dump``.

        Span ids are renumbered after this tracer's own; both processes read
        the same monotonic clock.
        """
        for name, (calls, self_s) in dump["totals"].items():
            self.add_layer(name, calls, self_s)
        for name, n in dump["counts"].items():
            self.count(name, n)
        for name in dump["absent"]:
            if name not in self.absent:
                self.absent.append(name)
        base = self._next_id
        for span_id, parent, name, start, end in dump["spans"]:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((base + span_id, base + parent if parent >= 0 else -1,
                                   name, start, end))
            self._next_id = max(self._next_id, base + span_id + 1)

    def dump(self) -> dict:
        return {"totals": self.totals, "counts": self.counts, "absent": self.absent,
                "spans": self.spans}

    def snapshot(self) -> dict:
        return {"totals": {k: list(v) for k, v in self.totals.items()},
                "counts": dict(self.counts)}

    # --- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, observe):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
            if observe is not None and name not in tracer.absent:
                try:
                    observe(tracer, args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    tracer.absent.append(name)
                    print(f"tracer: counters of {name} unreadable: {exc!r}", file=sys.stderr)
            return result
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer function in all loaded polycech modules.

    Layers of modules the process has not imported are left alone and read 0.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "polycech" or n.startswith("polycech."))]
    for layer, (module_name, path, observe) in LAYERS.items():
        module = sys.modules.get(module_name)
        if module is None:
            continue  # not imported by this process: the layer reads 0
        owner, _, attr = path.rpartition(".")
        holder = module
        try:
            for part in filter(None, owner.split(".")):
                holder = getattr(holder, part)
            original = getattr(holder, attr)
        except AttributeError:
            holder = None
        if holder is None or not callable(original):
            tracer.absent.append(layer)
            print(f"tracer: {module_name}.{path} not found; {layer} is absent",
                  file=sys.stderr)
            continue
        wrapped = tracer.wrap(layer, original, observe)
        if owner:
            setattr(holder, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def layer_metrics(totals: dict, counts: dict, absent: list[str]) -> dict[str, dict]:
    """Per-layer metrics from totals and counters; absent layers are left out.

    A layer the workload never reaches reads 0.
    """
    out: dict[str, dict] = {}
    for metric, (unit, layer, what) in METRICS.items():
        if layer in absent:
            continue
        calls, self_s = totals.get(layer, (0, 0.0))
        if what == "self_s":
            value = self_s
        elif what == "calls":
            value = calls
        elif what == "share":
            value = counts.get(f"{layer}.distinct_patterns", 0) / calls if calls else 0.0
        else:
            value = counts.get(f"{layer}.{what}", 0)
        out[metric] = {"value": value, "unit": unit}
    return out
