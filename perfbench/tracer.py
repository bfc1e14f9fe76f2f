"""Per-layer tracing of one CLI operation, installed from outside the package.

The tracer wraps public names of the ``immersion_forge`` modules.  A name
that no longer exists is recorded as absent instead of failing, so the
benchmark keeps running when code moves.  Coarse calls become spans (name,
layer, start, end, parent span, operation id); hot leaf calls only add to a
per-name count, total time and self time.  Self time is a call's duration
minus the time of the wrapped calls made inside it.  Everything stays in
memory until ``Tracer.to_dict`` is written out at the end of the operation.

``layer_metrics`` turns the traces of one pass over a workload into the
per-layer metrics named in BENCHMARK.json.
"""

import functools
import importlib
import inspect
import time

import numpy as np

PACKAGE = "immersion_forge"
LAYERS = ("expr", "geometry", "structure", "bundle", "reconstruct",
          "ambient", "cli")

# (layer, dotted name inside the layer module, kind); "agg" marks hot calls
TARGETS = (
    ("expr", "parse", "agg"),
    ("expr", "diff", "agg"),
    ("expr", "compile_exprs", "span"),
    ("geometry", "calculus_from_values", "agg"),
    ("geometry", "christoffels_from_values", "agg"),
    ("structure", "StructureSpec.eval_at", "agg"),
    ("structure", "StructureSpec.connection_data_at", "agg"),
    ("structure", "admit", "span"),
    ("structure", "point_residuals", "agg"),
    ("bundle", "ConnectionField.coefficients", "agg"),
    ("bundle", "ConnectionField.transport_segment", "span"),
    ("bundle", "staircase_path", "agg"),
    ("reconstruct", "immerse", "span"),
    ("reconstruct", "validate_theorem", "span"),
    ("reconstruct", "Immersion.samples", "span"),
    ("reconstruct", "Immersion.sample", "span"),
    ("ambient", "extract_structure", "span"),
    ("ambient", "ParametrizedHypersurface.check_on_model", "span"),
    ("ambient", "audit_equations", "span"),
    ("ambient", "hypersurface_samples", "span"),
    ("ambient", "solve_congruence", "span"),
    ("cli", "main", "span"),
    ("cli", "load_input", "span"),
    ("cli", "emit", "span"),
)


def _point_key(point):
    return tuple(round(float(x), 12) for x in point)


class Tracer:
    """Wraps the TARGETS of one interpreter and records what they do."""

    def __init__(self, op_id=0):
        self.op_id = op_id
        self.absent = []
        self.spans = []
        self.calls = {}         # name -> [count, total_s, self_s]
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.counters = {"expr.compile.nodes": 0, "bundle.rk4_steps": 0,
                         "bundle.chart_length": 0.0,
                         "bundle.staircase_segments": 0,
                         "structure.admit_points": 0,
                         "reconstruct.offgrid_samples": 0}
        self._stack = []        # open frames: [start, child_s, span_id]
        self._depth = {}        # name -> active calls (recursion guard)
        self._grid_keys = set()
        self._next_span = 0

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                pass
        package_modules = [importlib.import_module(PACKAGE), *modules.values()]
        for layer, dotted, kind in TARGETS:
            name = f"{layer}.{dotted}"
            owner = modules.get(layer)
            *path, attr = dotted.split(".")
            try:
                if owner is None:
                    raise AttributeError(layer)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.append(name)
                continue
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, layer, kind, original)
            if path:
                setattr(owner, attr, wrapper)
                continue
            # a function may also be bound under its name elsewhere
            for mod in package_modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, layer, kind, fn):
        before, after = self._hooks().get(name, (None, None))
        sig = inspect.signature(fn) if before else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before and name not in self.absent:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    before(bound.arguments)
                except (TypeError, KeyError, AttributeError):
                    # the signature moved: its derived counts become absent
                    self.absent.append(name)
                else:
                    args, kwargs = bound.args, bound.kwargs
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            parent = self._enclosing_span()
            frame = [clock(), 0.0, None]
            if kind == "span":
                frame[2] = self._next_span
                self._next_span += 1
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._depth[name] = depth
                dur = end - frame[0]
                own = dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
                self.layer_self[layer] += own
                rec = self.calls.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                if depth == 0:
                    rec[1] += dur
                rec[2] += own
                if kind == "span":
                    self.spans.append({"id": frame[2], "name": name,
                                       "start": frame[0], "end": end,
                                       "parent": parent, "op": self.op_id})
            if after and name not in self.absent:
                try:
                    after(result)
                except TypeError:
                    self.absent.append(name)
            return result
        return wrapper

    def _enclosing_span(self):
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    # -- hooks: work counts derived from call arguments and results ---------

    def _hooks(self):
        """name -> (hook on bound arguments, hook on the result)."""
        return {
            "expr.compile_exprs": (self._probe_compile, None),
            "bundle.ConnectionField.transport_segment":
                (self._probe_segment, None),
            "bundle.staircase_path": (None, self._count_staircase),
            "structure.admit": (self._probe_admit, None),
            "reconstruct.Immersion.samples": (self._probe_samples, None),
            "reconstruct.Immersion.sample": (self._probe_sample, None),
        }

    def _probe_compile(self, a):
        postorder = importlib.import_module(f"{PACKAGE}.expr").postorder
        exprs = a["exprs"] = list(a["exprs"])
        self.counters["expr.compile.nodes"] += len(postorder(exprs))

    def _probe_segment(self, a):
        delta = np.asarray(a["p1"], dtype=float) - np.asarray(a["p0"], dtype=float)
        length = float(np.linalg.norm(delta))
        if length > 0.0:
            self.counters["bundle.rk4_steps"] += max(
                1, int(np.ceil(length / a["step"])))
            self.counters["bundle.chart_length"] += length

    def _probe_admit(self, a):
        grid = a["grid"]
        if grid is None:
            grid = a["spec"].chart.grid(a["grid_density"])
        self.counters["structure.admit_points"] += len(grid)

    def _probe_samples(self, a):
        self._grid_keys.update(_point_key(p) for p in a["points"])

    def _probe_sample(self, a):
        if _point_key(a["point"]) not in self._grid_keys:
            self.counters["reconstruct.offgrid_samples"] += 1

    def _count_staircase(self, path):
        self.counters["bundle.staircase_segments"] += max(0, len(path) - 1)

    def to_dict(self):
        return {"op": self.op_id, "absent": self.absent, "spans": self.spans,
                "calls": self.calls, "layer_self": self.layer_self,
                "counters": self.counters}


# ---------------------------------------------------------------------------
# per-layer metrics of one pass

# metric name -> (unit, what it should move); the mapping is also kept in
# BASELINE.md next to the seed-commit numbers
PER_LAYER_UNITS = {
    "expr.parse_s": "s", "expr.diff_s": "s", "expr.diff.calls": "count",
    "expr.compile_s": "s", "expr.compile.calls": "count",
    "expr.compile.nodes": "count",
    "geometry.calculus_from_values.calls": "count",
    "geometry.christoffels_from_values_us": "us",
    "structure.eval_at.calls": "count", "structure.eval_at_us": "us",
    "structure.connection_data_at.calls": "count",
    "structure.connection_data_at_us": "us",
    "structure.admit_s": "s", "structure.admit_us_per_point": "us",
    "structure.point_residuals.calls_per_point": "calls/point",
    "bundle.coefficients.calls": "count", "bundle.coefficients_us": "us",
    "bundle.transport_segment.calls": "count", "bundle.transport_s": "s",
    "bundle.rk4_steps": "count", "bundle.chart_length": "chart_units",
    "bundle.transport_s_per_unit_length": "s/chart_unit",
    "reconstruct.immerse_s": "s", "reconstruct.validate_s": "s",
    "reconstruct.sample.calls": "count",
    "reconstruct.offgrid_samples": "count",
    "reconstruct.segment_reuse": "1",
    "reconstruct.residual_headroom": "1",
    "ambient.extract_s": "s", "ambient.check_on_model_s": "s",
    "ambient.audit_s": "s", "ambient.truth_samples_s": "s",
    "ambient.congruence_s": "s",
    "cli.import_s": "s", "cli.load_s": "s", "cli.emit_s": "s",
    "cli.report_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}

# metric -> wrapped names it is computed from (absent when one is missing)
_SOURCES = {
    "expr.parse_s": ("expr.parse",),
    "expr.diff_s": ("expr.diff",), "expr.diff.calls": ("expr.diff",),
    "expr.compile_s": ("expr.compile_exprs",),
    "expr.compile.calls": ("expr.compile_exprs",),
    "expr.compile.nodes": ("expr.compile_exprs",),
    "geometry.calculus_from_values.calls": ("geometry.calculus_from_values",),
    "geometry.christoffels_from_values_us":
        ("geometry.christoffels_from_values",),
    "structure.eval_at.calls": ("structure.StructureSpec.eval_at",),
    "structure.eval_at_us": ("structure.StructureSpec.eval_at",),
    "structure.connection_data_at.calls":
        ("structure.StructureSpec.connection_data_at",),
    "structure.connection_data_at_us":
        ("structure.StructureSpec.connection_data_at",),
    "structure.admit_s": ("structure.admit",),
    "structure.admit_us_per_point": ("structure.admit",),
    "structure.point_residuals.calls_per_point":
        ("structure.admit", "structure.point_residuals"),
    "bundle.coefficients.calls": ("bundle.ConnectionField.coefficients",),
    "bundle.coefficients_us": ("bundle.ConnectionField.coefficients",),
    "bundle.transport_segment.calls":
        ("bundle.ConnectionField.transport_segment",),
    "bundle.transport_s": ("bundle.ConnectionField.transport_segment",),
    "bundle.rk4_steps": ("bundle.ConnectionField.transport_segment",),
    "bundle.chart_length": ("bundle.ConnectionField.transport_segment",),
    "bundle.transport_s_per_unit_length":
        ("bundle.ConnectionField.transport_segment",),
    "reconstruct.immerse_s": ("reconstruct.Immersion.samples",),
    "reconstruct.validate_s": ("reconstruct.validate_theorem",
                               "reconstruct.Immersion.samples"),
    "reconstruct.sample.calls": ("reconstruct.Immersion.sample",),
    "reconstruct.offgrid_samples": ("reconstruct.Immersion.samples",
                                    "reconstruct.Immersion.sample"),
    "reconstruct.segment_reuse": ("bundle.staircase_path",
                                  "bundle.ConnectionField.transport_segment"),
    "ambient.extract_s": ("ambient.extract_structure",),
    "ambient.check_on_model_s":
        ("ambient.ParametrizedHypersurface.check_on_model",),
    "ambient.audit_s": ("ambient.audit_equations",),
    "ambient.truth_samples_s": ("ambient.hypersurface_samples",),
    "ambient.congruence_s": ("ambient.solve_congruence",),
    "cli.load_s": ("cli.load_input",), "cli.emit_s": ("cli.emit",),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traces, extras):
    """Per-layer metrics of one pass.

    ``traces`` holds one ``Tracer.to_dict`` per operation.  ``extras`` gives
    what the parent measured around the operations: ``cli.import_s``,
    ``cli.report_bytes`` and ``reconstruct.residual_headroom``.  Returns
    ``(values, absent)``: every per-layer metric except ``trace.overhead_s``,
    and the sorted names of metrics whose wrapped calls no longer exist.
    """
    calls = {}
    counters = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    missing = set()
    for tr in traces:
        missing.update(tr["absent"])
        for name, (count, total, own) in tr["calls"].items():
            rec = calls.setdefault(name, [0, 0.0, 0.0])
            rec[0] += count
            rec[1] += total
            rec[2] += own
        for key, val in tr["counters"].items():
            counters[key] = counters.get(key, 0) + val
        for layer, val in tr["layer_self"].items():
            layer_self[layer] += val

    def count(name):
        return calls.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return calls.get(name, (0, 0.0, 0.0))[1]

    def per_call_us(name):
        return 1e6 * _ratio(total(name), count(name))

    segments = count("bundle.ConnectionField.transport_segment")
    length = counters.get("bundle.chart_length", 0.0)
    admitted = counters.get("structure.admit_points", 0)
    requested = counters.get("bundle.staircase_segments", 0)
    v = {
        "expr.parse_s": total("expr.parse"),
        "expr.diff_s": total("expr.diff"),
        "expr.diff.calls": count("expr.diff"),
        "expr.compile_s": total("expr.compile_exprs"),
        "expr.compile.calls": count("expr.compile_exprs"),
        "expr.compile.nodes": counters.get("expr.compile.nodes", 0),
        "geometry.calculus_from_values.calls":
            count("geometry.calculus_from_values"),
        "geometry.christoffels_from_values_us":
            per_call_us("geometry.christoffels_from_values"),
        "structure.eval_at.calls": count("structure.StructureSpec.eval_at"),
        "structure.eval_at_us": per_call_us("structure.StructureSpec.eval_at"),
        "structure.connection_data_at.calls":
            count("structure.StructureSpec.connection_data_at"),
        "structure.connection_data_at_us":
            per_call_us("structure.StructureSpec.connection_data_at"),
        "structure.admit_s": total("structure.admit"),
        "structure.admit_us_per_point":
            1e6 * _ratio(total("structure.admit"), admitted),
        "structure.point_residuals.calls_per_point":
            _ratio(count("structure.point_residuals"), admitted),
        "bundle.coefficients.calls": count("bundle.ConnectionField.coefficients"),
        "bundle.coefficients_us":
            per_call_us("bundle.ConnectionField.coefficients"),
        "bundle.transport_segment.calls": segments,
        "bundle.transport_s": total("bundle.ConnectionField.transport_segment"),
        "bundle.rk4_steps": counters.get("bundle.rk4_steps", 0),
        "bundle.chart_length": length,
        "bundle.transport_s_per_unit_length": _ratio(
            total("bundle.ConnectionField.transport_segment"), length),
        "reconstruct.immerse_s": total("reconstruct.Immersion.samples"),
        "reconstruct.validate_s": _validate_self(traces),
        "reconstruct.sample.calls": count("reconstruct.Immersion.sample"),
        "reconstruct.offgrid_samples":
            counters.get("reconstruct.offgrid_samples", 0),
        "reconstruct.segment_reuse":
            1.0 - _ratio(segments, requested) if requested else 0.0,
        "reconstruct.residual_headroom": extras["reconstruct.residual_headroom"],
        "ambient.extract_s": total("ambient.extract_structure"),
        "ambient.check_on_model_s":
            total("ambient.ParametrizedHypersurface.check_on_model"),
        "ambient.audit_s": total("ambient.audit_equations"),
        "ambient.truth_samples_s": total("ambient.hypersurface_samples"),
        "ambient.congruence_s": total("ambient.solve_congruence"),
        "cli.import_s": extras["cli.import_s"],
        "cli.load_s": total("cli.load_input"),
        "cli.emit_s": total("cli.emit"),
        "cli.report_bytes": extras["cli.report_bytes"],
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
    }
    absent = sorted(metric for metric, sources in _SOURCES.items()
                    if any(src in missing for src in sources))
    return v, absent


def _validate_self(traces):
    """validate_theorem time outside its grid sweep (Immersion.samples)."""
    out = 0.0
    for tr in traces:
        spans = {sp["id"]: sp for sp in tr["spans"]}
        for sp in tr["spans"]:
            if sp["name"] != "reconstruct.validate_theorem":
                continue
            out += sp["end"] - sp["start"]
            for child in tr["spans"]:
                if (child["name"] == "reconstruct.Immersion.samples"
                        and _inside(child, sp["id"], spans)):
                    out -= child["end"] - child["start"]
    return out


def _inside(span, ancestor_id, spans):
    parent = span["parent"]
    while parent is not None:
        if parent == ancestor_id:
            return True
        parent = spans[parent]["parent"]
    return False
