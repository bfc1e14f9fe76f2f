"""Command-line front end.

Input files are UTF-8 JSON documents:

    {"kind": "structure", "n": 2, "k": 1,
     "coords": ["u1", "u2"],
     "domain": [[-0.9, 0.9], [-0.9, 0.9]],
     "base_point": [0.1, -0.2],
     "fields": {"g": [["1", "0"], ["0", "1"]],
                "S": [["0", "0"], ["0", "0"]],
                "f": [["1", "0"], ["0", "-1"]],
                "U": ["0", "0"],
                "lambda": "-1"}}

or, with "kind": "hypersurface", "fields": {"x": ["cos(u1)", ...]} giving
an explicit parametrization with n + 3 components.  In place of a file
path, ``catalog:NAME`` selects a built-in hypersurface.

Reports are line-oriented JSON (one record per grid point plus one final
summary record) or CSV tables.  CSV column order: point coordinates, psi
components, N components, residual columns; the summary then goes to
stdout.  Exit codes: 0 success/admissible, 1 inadmissible or a failed
validation, 2 malformed input (including a --base outside the chart, a
--grid above 100 000 grid points in all and a field expression that
leaves its domain or overflows) or off-model data.
"""

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import ambient as am
from . import expr as ex
from . import geometry as geo
from . import reconstruct as rc
from . import structure as st


class InputError(Exception):
    """Malformed input document or configuration (exit code 2)."""


# largest grid in points, --grid to the power of the chart dimension; the
# grid is materialized as a list of point tuples
MAX_GRID_POINTS = 100_000


# ---------------------------------------------------------------------------
# input documents


def _require(doc, key, kind):
    if key not in doc:
        raise InputError(f"missing field {key!r}")
    val = doc[key]
    if not isinstance(val, kind):
        raise InputError(f"field {key!r} has wrong type")
    return val


def _parse_exprs(obj, coords, path):
    if isinstance(obj, str):
        try:
            return ex.parse(obj, coords)
        except ex.ParseError as err:
            raise InputError(f"bad expression in {path}: {err}") from None
    if isinstance(obj, list):
        return [_parse_exprs(item, coords, f"{path}[{i}]")
                for i, item in enumerate(obj)]
    raise InputError(f"expected expression string at {path}")


def load_document(doc):
    """Build a StructureSpec or ParametrizedHypersurface from a JSON dict."""
    kind = _require(doc, "kind", str)
    n = _require(doc, "n", int)
    coords = tuple(_require(doc, "coords", list))
    domain = _require(doc, "domain", list)
    base = _require(doc, "base_point", list)
    fields = _require(doc, "fields", dict)
    if len(coords) != n or any(not isinstance(c, str) for c in coords):
        raise InputError("coords must be n strings")
    try:
        chart = geo.Chart(coords, tuple(tuple(map(float, iv)) for iv in domain),
                          tuple(map(float, base)))
    except (geo.GeometryError, TypeError, ValueError) as err:
        raise InputError(f"bad chart data: {err}") from None

    if kind == "structure":
        for key in ("g", "S", "f", "U", "lambda"):
            if key not in fields:
                raise InputError(f"structure input needs fields.{key}")
        try:
            return st.StructureSpec(
                chart,
                np.array(_parse_exprs(fields["g"], coords, "g"), dtype=object),
                np.array(_parse_exprs(fields["S"], coords, "S"), dtype=object),
                np.array(_parse_exprs(fields["f"], coords, "f"), dtype=object),
                np.array(_parse_exprs(fields["U"], coords, "U"), dtype=object),
                _parse_exprs(fields["lambda"], coords, "lambda"),
                declared_k=doc.get("k"),
            )
        except st.StructureError as err:
            raise InputError(str(err)) from None
    if kind == "hypersurface":
        if "x" not in fields:
            raise InputError("hypersurface input needs fields.x")
        if "k" not in doc:
            raise InputError("hypersurface input needs k")
        try:
            return am.ParametrizedHypersurface(
                chart, _parse_exprs(fields["x"], coords, "x"), k=doc["k"])
        except am.AmbientError as err:
            raise InputError(str(err)) from None
    raise InputError(f"unknown kind {kind!r}")


def load_input(source):
    """Load from a path or a catalog:NAME reference."""
    if source.startswith("catalog:"):
        try:
            return am.catalog_entry(source[len("catalog:"):])
        except am.AmbientError as err:
            raise InputError(str(err)) from None
    try:
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {source}: {err}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"invalid JSON in {source}: {err}") from None
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    return load_document(doc)


def as_structure(obj, grid_density):
    """Structure view of an input: extract when given a hypersurface."""
    if isinstance(obj, st.StructureSpec):
        return obj
    obj.check_on_model(grid_density=grid_density)
    return am.extract_structure(obj)


def load_checked_input(config):
    """Load the input, then reject a --grid or --base that does not fit its
    chart, before any grid is built."""
    obj = load_input(config.input)
    chart = obj.chart
    points = config.grid ** chart.n
    if points > MAX_GRID_POINTS:
        raise InputError(f"--grid {config.grid} gives {points} points on this "
                         f"{chart.n}-dimensional chart; the cap is "
                         f"{MAX_GRID_POINTS}")
    base = config.base
    if base is not None and len(base) != chart.n:
        raise InputError(f"--base has {len(base)} coordinates, "
                         f"the chart needs {chart.n}")
    if base is not None and not chart.contains(base):
        raise InputError(f"--base {base} lies outside the chart box "
                         f"{[list(iv) for iv in chart.box]}")
    return obj


def as_hypersurface(obj):
    if not isinstance(obj, am.ParametrizedHypersurface):
        raise InputError("this command needs a hypersurface input")
    return obj


# ---------------------------------------------------------------------------
# report writing


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonl(records, summary):
    lines = [json.dumps(r) for r in records]
    lines.append(json.dumps({"summary": True, **summary}))
    return "\n".join(lines) + "\n"


def _csv_table(records):
    if not records:
        return ""
    keys = list(records[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for rec in records:
        writer.writerow([rec.get(k, "") for k in keys])
    return buf.getvalue()


def emit(config, records, summary):
    if config.format == "csv":
        text = _csv_table(records)
        if config.out:
            _atomic_write(config.out, text)
        else:
            sys.stdout.write(text)
        print(json.dumps({"summary": True, **summary}))
    else:
        text = _jsonl(records, summary)
        if config.out:
            _atomic_write(config.out, text)
            print(json.dumps({"summary": True, **summary}))
        else:
            sys.stdout.write(text)


def _flatten_sample(chart, s):
    rec = {}
    for name, val in zip(chart.coords, s.point):
        rec[f"point_{name}"] = float(val)
    for a, val in enumerate(s.psi, start=1):
        rec[f"psi_{a}"] = float(val)
    for a, val in enumerate(s.normal, start=1):
        rec[f"N_{a}"] = float(val)
    for key, val in s.residuals.items():
        rec[f"res_{key}"] = float(val)
    return rec


# ---------------------------------------------------------------------------
# commands


def cmd_check(config):
    spec = as_structure(load_checked_input(config), config.grid)
    tol = config.tol if config.tol is not None else st.DEFAULT_TOLERANCE
    grid = spec.chart.grid(config.grid)
    report = st.admit(spec, grid=grid, tol=tol)
    records = []
    for point, per in zip(grid, report.per_point):
        rec = {f"point_{n}": float(v)
               for n, v in zip(spec.chart.coords, point)}
        if per is None:
            rec["res_skipped"] = 1.0
        else:
            for key, val in per.items():
                rec[f"res_{key}"] = float(val)
        records.append(rec)
    emit(config, records, report.to_dict())
    return 0 if report.admissible else 1


def cmd_reconstruct(config):
    spec = as_structure(load_checked_input(config), config.grid)
    tol = config.tol if config.tol is not None else st.DEFAULT_TOLERANCE
    admission = st.admit(spec, tol=tol, grid_density=config.grid)
    if not admission.admissible:
        emit(config, [], {"admissible": False,
                          "reasons": admission.reasons})
        return 1
    report = rc.validate_theorem(
        spec, base=config.base, step=config.step,
        grid_density=config.grid, admission=admission)
    records = [_flatten_sample(spec.chart, s) for s in report.samples]
    emit(config, records, report.to_dict())
    return 0 if report.valid else 1


def cmd_extract(config):
    h = as_hypersurface(load_checked_input(config))
    h.check_on_model(grid_density=config.grid)
    spec = am.extract_structure(h)
    tol = config.tol if config.tol is not None else st.DEFAULT_TOLERANCE
    report = st.admit(spec, tol=tol, grid_density=config.grid)
    points = spec.chart.grid(config.grid)
    samples = am.hypersurface_samples(h, points)
    for s in samples:
        s.residuals["on_model"] = h.model.on_model_residual(s.psi)
    records = [_flatten_sample(spec.chart, s) for s in samples]
    emit(config, records, report.to_dict())
    return 0 if report.admissible else 1


def cmd_roundtrip(config):
    h = as_hypersurface(load_checked_input(config))
    h.check_on_model(grid_density=config.grid)
    spec = am.extract_structure(h)
    admission = st.admit(spec, grid_density=config.grid)
    if not admission.admissible:
        emit(config, [], {"admissible": False, "reasons": admission.reasons})
        return 1
    points = spec.chart.grid(config.grid)
    _, rebuilt = rc.immerse(spec, points, base=config.base, step=config.step,
                            k=admission.k)
    reference = am.hypersurface_samples(h, points)
    cong = am.solve_congruence(rebuilt, reference, admission.k)
    tol = config.tol if config.tol is not None else 1e-6
    records = []
    for a, b in zip(rebuilt, reference):
        a.residuals["congruence"] = float(
            np.abs(cong.matrix @ a.psi - b.psi).max())
        records.append(_flatten_sample(spec.chart, a))
    summary = {
        "k": admission.k,
        "congruence_sup": cong.sup_residual,
        "block_residual": cong.block_residual,
        "orthogonality_residual": cong.orthogonality_residual,
        "preserves_sheet": cong.preserves_sheet,
        "tolerance": tol,
    }
    ok = (cong.sup_residual < tol and cong.block_residual < 1e-8
          and cong.orthogonality_residual < 1e-8 and cong.preserves_sheet)
    summary["congruent"] = ok
    emit(config, records, summary)
    return 0 if ok else 1


def cmd_audit(config):
    h = as_hypersurface(load_checked_input(config))
    h.check_on_model(grid_density=config.grid)
    tol = config.tol if config.tol is not None else 1e-8
    report = am.audit_equations(h, tol=tol, grid_density=config.grid)
    emit(config, [], report.to_dict())
    return 0


COMMANDS = {
    "check": cmd_check,
    "reconstruct": cmd_reconstruct,
    "extract": cmd_extract,
    "roundtrip": cmd_roundtrip,
    "audit": cmd_audit,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="immersion-forge",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "check": "run the compatibility checks on a structure",
        "reconstruct": "rebuild the immersion and validate it",
        "extract": "read the structure off a parametrized hypersurface",
        "roundtrip": "extract, rebuild and compare with the original",
        "audit": "evaluate competing equation variants on ground truth",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=help_text[name])
        p.add_argument("input",
                       help="JSON input file or catalog:NAME reference")
        p.add_argument("--tol", type=float, default=None,
                       help="residual tolerance (per-command default)")
        p.add_argument("--grid", type=int, default=8,
                       help="grid density per axis (default 8)")
        p.add_argument("--step", type=float, default=1e-3,
                       help="RK4 transport step (default 1e-3)")
        p.add_argument("--base", type=_point_arg, default=None,
                       help="base point override, comma-separated floats")
        p.add_argument("--out", default=None,
                       help="report file (atomic overwrite; default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="json: one record per grid point plus a summary "
                            "record; csv: table with columns point coords, "
                            "psi components, N components, residuals")
    return parser


def _point_arg(text):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad point {text!r}") from None


def validate_config(config):
    if config.tol is not None and not config.tol > 0.0:
        raise InputError("tolerance must be positive")
    if config.grid < 2:
        raise InputError("grid density must be >= 2")
    if not 0.0 < config.step <= 0.1:
        raise InputError("step must lie in (0, 0.1]")


def main(argv=None):
    config = build_parser().parse_args(argv)
    try:
        validate_config(config)
        return COMMANDS[config.command](config)
    except (InputError, am.NotOnModelError, ex.ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (st.StructureError, rc.ReconstructionError,
            am.AmbientError, geo.GeometryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
