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
validation, 2 malformed input (including a file that is not UTF-8, a k
that is not an integer in 1..n, repeated coordinate names, a field nested
to the wrong depth, a --tol that is not positive and finite, a --base
outside the chart, a --grid above 100 000 grid points in all, a --step
outside [1e-06, 0.1], a chart box with a bound, width or base coordinate
that is not finite, for reconstruct and roundtrip a box whose widest side
takes more than 10 000 000 steps of --step, an --out that cannot be
written, a JSON document nested too deeply, and a field expression that
leaves its domain or overflows) or off-model data.  A field expression
with a constant that is not finite, a division by a constant zero or
nesting too deep to parse is named by its field and the UTF-8 byte offset
of the token at fault.  With no --grid, the density is the largest of
2..8 within the 100 000-point cap: 8 up to n = 5, then 6, 5 and 4.
"""

import argparse
import contextlib
import csv
import itertools
import json
import os
import sys
import tempfile

# the matrices here are small, so the BLAS thread pool that numpy starts at
# import only adds start-up time; a value set by the user wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import ambient as am  # noqa: E402
from . import bundle as bd  # noqa: E402
from . import expr as ex  # noqa: E402
from . import geometry as geo  # noqa: E402
from . import reconstruct as rc  # noqa: E402
from . import structure as st  # noqa: E402


class InputError(Exception):
    """Malformed input document or configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# input documents


def _require(doc, key, kind):
    if key not in doc:
        raise InputError(f"missing field {key!r}")
    val = doc[key]
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise InputError(f"field {key!r} has wrong type")
    return val


def _parse_exprs(obj, coords, path, depth):
    """Expression strings nested ``depth`` lists deep."""
    if depth == 0:
        if not isinstance(obj, str):
            raise InputError(f"expected expression string at {path}")
        try:
            return ex.parse(obj, coords)
        except ex.ParseError as err:
            raise InputError(f"bad expression in {path}: {err}") from None
    if not isinstance(obj, list):
        raise InputError(f"expected a list at {path}")
    return [_parse_exprs(item, coords, f"{path}[{i}]", depth - 1)
            for i, item in enumerate(obj)]


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

    k = _require(doc, "k", int) if "k" in doc else None
    if k is not None and not 1 <= k <= n:
        raise InputError(f"field 'k' must lie in 1..{n}")
    if kind == "structure":
        depth = {"g": 2, "S": 2, "f": 2, "U": 1, "lambda": 0}
        for key in depth:
            if key not in fields:
                raise InputError(f"structure input needs fields.{key}")
        parsed = {key: _parse_exprs(fields[key], coords, key, d)
                  for key, d in depth.items()}
        try:
            return st.StructureSpec(
                chart, *(np.array(parsed[key], dtype=object)
                         for key in ("g", "S", "f", "U")),
                parsed["lambda"], declared_k=k)
        except st.StructureError as err:
            raise InputError(str(err)) from None
    if kind == "hypersurface":
        if "x" not in fields:
            raise InputError("hypersurface input needs fields.x")
        if k is None:
            raise InputError("hypersurface input needs k")
        try:
            return am.ParametrizedHypersurface(
                chart, _parse_exprs(fields["x"], coords, "x", 1), k=k)
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
    except UnicodeDecodeError as err:
        raise InputError(f"{source} is not UTF-8 text: {err}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"invalid JSON in {source}: {err}") from None
    except RecursionError:
        raise InputError(f"invalid JSON in {source}: nested too "
                         f"deeply") from None
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    return load_document(doc)


def as_structure(obj, grid_density=None, grid=None):
    """Structure view of an input: extract when given a hypersurface, after
    checking it on-model over ``grid`` (default: the chart grid of
    ``grid_density``)."""
    if isinstance(obj, st.StructureSpec):
        return obj
    obj.check_on_model(grid=grid, grid_density=grid_density)
    return am.extract_structure(obj)


def load_checked_input(config):
    """(input, grid) of the command: the input is loaded, then a --grid or
    --base that does not fit its chart, a --step that ``bundle.step_error``
    refuses for it when the command transports, and an input of the wrong
    kind are rejected, in that order, before the grid is built.  With no
    --grid, the chart's ``geometry.default_grid`` is taken."""
    kind, transports = COMMANDS[config.command][3:]
    obj = load_input(config.input)
    chart = obj.chart
    given = "--grid"
    if config.grid is None:
        config.grid, given = geo.default_grid(chart.n), "the default grid"
    points = config.grid ** chart.n
    if points > geo.MAX_GRID_POINTS:
        raise InputError(f"{given} {config.grid} gives {points} points on "
                         f"this {chart.n}-dimensional chart; the cap is "
                         f"{geo.MAX_GRID_POINTS}")
    base = config.base
    if base is not None and len(base) != chart.n:
        raise InputError(f"--base has {len(base)} coordinates, "
                         f"the chart needs {chart.n}")
    if base is not None and not chart.contains(base):
        raise InputError(f"--base {base} lies outside the chart box "
                         f"{[list(iv) for iv in chart.box]}")
    error = transports and bd.step_error(chart.box, config.step)
    if error:
        raise InputError(error)
    if not isinstance(obj, kind):
        raise InputError("this command needs a hypersurface input")
    return obj, chart.grid(config.grid)


# ---------------------------------------------------------------------------
# report writing


@contextlib.contextmanager
def _report_file(out):
    """The stream a report is written to: stdout, or a temporary file beside
    ``out`` that replaces ``out`` once the report is whole."""
    if not out:
        yield sys.stdout
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)),
                                   prefix=".report-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                yield fh
            os.replace(tmp, out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as err:
        raise InputError(f"cannot write report {out}: {err}") from None


def _table(chart, points, columns):
    """(keys, records) of a report table at ``points``, the records made
    lazily from ``geometry.GRID_CHUNK`` rows of the columns at a time.

    The point coordinates come first, then ``columns``, which holds (name,
    (P,) values, (P,) mask or None): a record has the columns whose mask is
    set in its row.  The keys are the columns set in some row, in the order
    a scan of the records first meets them.
    """
    point_columns = [(f"point_{name}", col, None)
                     for name, col in zip(chart.coords, np.transpose(points))]
    names, values, masks = zip(*point_columns, *columns)
    rows = len(points)
    masks = np.column_stack([np.ones(rows, dtype=bool) if mask is None
                             else mask for mask in masks])
    first = np.where(masks.any(0), masks.argmax(0), rows)
    keys = [names[c] for c in np.argsort(first, kind="stable")
            if first[c] < rows]

    def records():
        for start in range(0, rows, geo.GRID_CHUNK):
            chunk = slice(start, start + geo.GRID_CHUNK)
            table = np.column_stack([col[chunk] for col in values]).tolist()
            for row, here in zip(table, masks[chunk].tolist()):
                yield {name: val
                       for name, val, set_ in zip(names, row, here) if set_}

    return keys, records()


def emit(config, summary, table=((), ())):
    """Write the report of ``table``, a (keys, records) pair as ``_table``
    makes; the records may be lazy, and are written one at a time.  In CSV
    a column that a record lacks is left empty."""
    keys, records = table
    summary = {"summary": True, **summary}
    with _report_file(config.out) as fh:
        if config.format == "json":
            for rec in itertools.chain(records, [summary]):
                fh.write(json.dumps(rec) + "\n")
        elif keys:
            writer = csv.DictWriter(fh, keys, lineterminator="\n")
            writer.writeheader()
            writer.writerows(records)
    if config.out or config.format == "csv":
        print(json.dumps(summary))


def _sample_table(chart, samples):
    """Report table of samples: point, psi, N, then residual columns."""
    names = ([f"{name}_{a}" for name in ("psi", "N")
              for a in range(1, samples.psi.shape[-1] + 1)]
             + [f"res_{key}" for key in samples.residuals])
    values = [*samples.psi.T, *samples.normal.T, *samples.residuals.values()]
    return _table(chart, samples.points,
                  [(name, col, None) for name, col in zip(names, values)])


# ---------------------------------------------------------------------------
# commands


def cmd_check(config, _, spec, grid):
    report = st.admit(spec, grid=grid, tol=config.tol)

    columns = ([(f"res_{key}", val, report.usable)
                for key, val in report.values.items()]
               + [("res_skipped", np.ones(len(grid)), ~report.usable)])
    emit(config, report.to_dict(), _table(spec.chart, grid, columns))
    return 0 if report.admissible else 1


def cmd_reconstruct(config, _, spec, grid):
    admission = st.admit(spec, grid=grid, tol=config.tol)
    if not admission.admissible:
        emit(config, {"admissible": False, "reasons": admission.reasons})
        return 1
    report = rc.validate_theorem(
        spec, grid, base=config.base, step=config.step, admission=admission)
    emit(config, report.to_dict(), _sample_table(spec.chart, report.samples))
    return 0 if report.valid else 1


def cmd_extract(config, h, spec, grid):
    report = st.admit(spec, grid=grid, tol=config.tol)
    samples = am.hypersurface_samples(h, grid)
    samples.residuals["on_model"] = h.model.on_model_residual(samples.psi)
    emit(config, report.to_dict(), _sample_table(spec.chart, samples))
    return 0 if report.admissible else 1


def cmd_roundtrip(config, h, spec, grid):
    admission = st.admit(spec, grid=grid)
    if not admission.admissible:
        emit(config, {"admissible": False, "reasons": admission.reasons})
        return 1
    _, rebuilt = rc.immerse(spec, grid, base=config.base, step=config.step,
                            k=admission.k)
    reference = am.hypersurface_samples(h, grid)
    cong = am.solve_congruence(rebuilt, reference, admission.k,
                               tol=config.tol)
    rebuilt.residuals["congruence"] = cong.residuals
    summary = {
        "k": admission.k,
        "congruence_sup": cong.sup_residual,
        "block_residual": cong.block_residual,
        "orthogonality_residual": cong.orthogonality_residual,
        "preserves_sheet": cong.preserves_sheet,
        "tolerance": config.tol,
        "congruent": cong.congruent,
    }
    emit(config, summary, _sample_table(spec.chart, rebuilt))
    return 0 if cong.congruent else 1


def cmd_audit(config, _, spec, grid):
    report = am.audit_equations(spec, grid=grid, tol=config.tol)
    emit(config, report.to_dict())
    return 0


# name -> (command, help text, default --tol, the input type it takes,
# whether it transports); ``object`` takes a structure or a hypersurface.
# A command is called with the input, its structure view and the grid.
COMMANDS = {
    "check": (cmd_check, "run the compatibility checks on a structure",
              st.DEFAULT_TOLERANCE, object, False),
    "reconstruct": (cmd_reconstruct, "rebuild the immersion and validate it",
                    st.DEFAULT_TOLERANCE, object, True),
    "extract": (cmd_extract,
                "read the structure off a parametrized hypersurface",
                st.DEFAULT_TOLERANCE, am.ParametrizedHypersurface, False),
    "roundtrip": (cmd_roundtrip,
                  "extract, rebuild and compare with the original", 1e-6,
                  am.ParametrizedHypersurface, True),
    "audit": (cmd_audit,
              "evaluate competing equation variants on ground truth", 1e-8,
              am.ParametrizedHypersurface, False),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="immersion-forge",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, tol, *_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input",
                       help="JSON input file or catalog:NAME reference")
        p.add_argument("--tol", type=float, default=tol,
                       help="residual tolerance (default %(default)g)")
        p.add_argument("--grid", type=int, default=None,
                       help="grid density per axis (default: the largest "
                            "of 2..8 within the point cap)")
        p.add_argument("--step", type=float, default=bd.DEFAULT_STEP,
                       help="RK4 transport step (default %(default)g)")
        p.add_argument("--base", type=_point_arg, default=None,
                       help="base point override, comma-separated floats; "
                            "write a negative first coordinate as "
                            "--base=-0.9,0.2")
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
    if not config.tol > 0.0:
        raise InputError("tolerance must be positive")
    if not np.isfinite(config.tol):
        raise InputError("tolerance must be finite")
    error = ((config.grid is not None and geo.density_error(config.grid))
             or bd.step_error((), config.step))
    if error:
        raise InputError(error)
    if config.out:
        out = os.path.abspath(config.out)
        if os.path.isdir(out):
            raise InputError(f"--out {config.out} is a directory")
        if not os.path.isdir(os.path.dirname(out)):
            raise InputError(f"--out {config.out}: its directory does not "
                             f"exist")


def main(argv=None):
    config = build_parser().parse_args(argv)
    try:
        validate_config(config)
        obj, grid = load_checked_input(config)
        return COMMANDS[config.command][0](
            config, obj, as_structure(obj, grid=grid), grid)
    except (InputError, ex.ExprError, st.StructureError,
            rc.ReconstructionError, am.AmbientError, geo.GeometryError) as err:
        print(f"error: {err}", file=sys.stderr)
        # malformed or off-model input exits 2, a failed check 1
        return 2 if isinstance(err, (InputError, am.NotOnModelError,
                                     ex.ExprError)) else 1


if __name__ == "__main__":
    sys.exit(main())
